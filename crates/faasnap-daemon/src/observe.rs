//! Traced invocations: one call that produces an outcome *plus* its
//! trace and metrics.
//!
//! This is the daemon-level entry point behind `faasnapd invoke
//! --trace-out` and the bench harness's artifact dumps. It builds a
//! fresh platform, records the snapshot untraced (the record phase is
//! setup, not the thing being observed), then enables observability for
//! exactly the measured invocation — so the trace starts at request
//! arrival and the metrics cover only test-phase work.

use faas_workloads::Input;
use faasnap::runtime::{ForkOutcome, InvocationOutcome};
use faasnap::strategy::RestoreStrategy;
use faasnap_obs::{Metrics, SelfProfile, Tracer};
use sim_storage::profiles::DiskProfile;

use crate::platform::Platform;

/// An invocation outcome together with the observability it produced.
pub struct TraceRun {
    /// The runtime's measurements and final state.
    pub outcome: InvocationOutcome,
    /// Spans covering the invocation (platform → loader/function →
    /// per-fault), renderable via [`faasnap_obs::chrome_trace_json`] or
    /// [`faasnap_obs::render_text_tree`].
    pub tracer: Tracer,
    /// Metrics covering the invocation (fault counts by class, prefetch
    /// traffic, fault-wait histogram).
    pub metrics: Metrics,
    /// Engine self-profile covering the invocation (event-loop, fault
    /// resolver, and store work counters; wall-ns under the `wallclock`
    /// feature, zero otherwise).
    pub selfprof: SelfProfile,
}

/// Records `function` with its input A under label `"cli"` on a fresh
/// host, then runs one fully traced test-phase invocation of `input`
/// under `strategy`: a 1-way [`traced_fork`].
pub fn traced_invoke(
    function: &str,
    input: &Input,
    strategy: RestoreStrategy,
    profile: DiskProfile,
    seed: u64,
) -> Result<TraceRun, String> {
    let ForkRun {
        mut fork,
        tracer,
        metrics,
        selfprof,
    } = traced_fork(function, input, strategy, profile, seed, 1)?;
    Ok(TraceRun {
        outcome: fork.outcomes.swap_remove(0),
        tracer,
        metrics,
        selfprof,
    })
}

/// A fork outcome together with the observability it produced.
pub struct ForkRun {
    /// Per-sibling outcomes plus fork sharing accounting.
    pub fork: ForkOutcome,
    /// Spans covering the fork (platform → fork → per-sibling
    /// invocations → per-fault).
    pub tracer: Tracer,
    /// Metrics covering the fork (fault counts, prefetch traffic,
    /// `faasnap_fork_*` sharing counters when n > 1).
    pub metrics: Metrics,
    /// Engine self-profile covering the fork.
    pub selfprof: SelfProfile,
}

/// Records `function` once, then branches `n` fully traced concurrent
/// restores from the snapshot. `n = 1` is [`traced_invoke`].
pub fn traced_fork(
    function: &str,
    input: &Input,
    strategy: RestoreStrategy,
    profile: DiskProfile,
    seed: u64,
    n: usize,
) -> Result<ForkRun, String> {
    let mut platform = Platform::new(profile, seed);
    for f in faas_workloads::all_functions() {
        platform.register(f);
    }
    let input_a = platform
        .registry()
        .function(function)
        .ok_or_else(|| format!("unknown function {function}"))?
        .input_a();
    platform.record(function, "cli", &input_a)?;

    let tracer = Tracer::enabled();
    let metrics = Metrics::enabled();
    let selfprof = SelfProfile::enabled();
    platform.set_tracer(tracer.clone());
    platform.set_metrics(metrics.clone());
    platform.set_self_profile(selfprof.clone());
    let fork = platform.fork(function, "cli", input, strategy, n)?;
    Ok(ForkRun {
        fork,
        tracer,
        metrics,
        selfprof,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> TraceRun {
        let f = faas_workloads::by_name("hello-world").unwrap();
        traced_invoke(
            "hello-world",
            &f.input_b(),
            RestoreStrategy::faasnap(),
            DiskProfile::nvme_c5d(),
            0xFA5D,
        )
        .unwrap()
    }

    #[test]
    fn trace_spans_cross_three_crates() {
        let tr = run();
        let names = tr.tracer.distinct_span_names();
        // Daemon layer, runtime layer, mm layer.
        assert!(names.contains(&"platform/invoke"), "names: {names:?}");
        assert!(names.contains(&"invocation"));
        assert!(names.contains(&"loader/prefetch"));
        assert!(names.iter().any(|n| n.starts_with("fault/")));
        assert!(
            names.len() >= 6,
            "only {} span names: {names:?}",
            names.len()
        );
    }

    #[test]
    fn metrics_cover_faults_and_prefetch() {
        let tr = run();
        let text = tr.metrics.render_prometheus();
        assert!(text.contains("faasnap_faults_total"));
        assert!(text.contains("faasnap_prefetch_bytes_total"));
        assert!(text.contains("faasnap_fault_wait_us_bucket"));
    }

    #[test]
    fn fault_span_count_matches_report() {
        let tr = run();
        let fault_spans = tr
            .tracer
            .spans()
            .iter()
            .filter(|s| s.name.starts_with("fault/"))
            .count() as u64;
        assert_eq!(fault_spans, tr.outcome.report.total_faults());
    }
}
