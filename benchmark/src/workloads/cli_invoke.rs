//! `cli_invoke`: what `faasnapd invoke <fn> --trace-out --metrics-out`
//! does, in-process, for every catalog function: record input A, run one
//! traced FaaSnap restore of input B, and render the Chrome trace and the
//! Prometheus text to memory. One op is one function.
//!
//! The untraced unit calls `observe::traced_invoke`. The traced unit
//! makes the same calls one at a time (platform, record, traced invoke)
//! so record and restore get spans of their own. Both fold their exports
//! into `faasnap-obs.sim_export_digest`, so the traced run's check that
//! tracing changed no deterministic value also proves the stepwise calls
//! export byte for byte what `traced_invoke` does.

use faas_workloads::Input;
use faasnap::report::InvocationReport;
use faasnap::strategy::RestoreStrategy;
use faasnap_daemon::observe::traced_invoke;
use faasnap_daemon::Platform;
use faasnap_obs::{chrome_trace_json, Metrics, SelfProfile, Tracer};
use sim_core::json;
use sim_storage::profiles::DiskProfile;

use super::{
    derive, disk_delta, harvest_selfprof, ns_per_event, Args, Tally, UnitResult, Workload, CATALOG,
};
use crate::report::{fnv, Values, FNV_OFFSET};
use crate::span::Probe;

/// Set-up state: the platform seed and each function's input B.
pub struct CliInvoke {
    seed: u64,
    inputs: Vec<(&'static str, Input)>,
}

/// One traced invocation: the observability it produced and its report.
struct Invoked {
    tracer: Tracer,
    metrics: Metrics,
    report: InvocationReport,
}

impl Workload for CliInvoke {
    type Prep = ();

    /// Derives the inputs and runs hello-world once as a warm-up, so
    /// process warm-up is charged to set-up, not to the first measured
    /// function.
    fn setup(args: &Args, _: &SelfProfile, _: &mut Probe) -> Result<(Self, Values), String> {
        let seed = derive(args.seed, &[1]);
        let mut inputs = Vec::with_capacity(CATALOG.len());
        for (i, name) in CATALOG.iter().enumerate() {
            let f = faas_workloads::by_name(name).ok_or_else(|| format!("unknown {name}"))?;
            inputs.push((
                *name,
                f.input_b().reseeded(derive(args.seed, &[2, i as u64])),
            ));
        }
        let (name, input) = &inputs[0];
        let warm = invoke(name, input, seed)?;
        check_chrome(&chrome_trace_json(&warm.tracer), warm.report.total_faults())?;
        Ok((CliInvoke { seed, inputs }, Values::default()))
    }

    fn prepare(&mut self, _pass: u64) -> Result<(), String> {
        Ok(())
    }

    fn unit(
        &mut self,
        _: &(),
        prof: &SelfProfile,
        probe: &mut Probe,
    ) -> Result<UnitResult, String> {
        let mut r = UnitResult::default();
        let mut tally = Tally::default();
        let mut exports = FNV_OFFSET;
        for (name, input) in &self.inputs {
            r.ops += 1;
            let run = if probe.is_on() {
                invoke_in_steps(name, input, self.seed, prof, probe, &mut r.values)
            } else {
                invoke(name, input, self.seed)
            };
            let inv = match run {
                Ok(inv) => inv,
                Err(e) => {
                    eprintln!("cli_invoke {name}: {e}");
                    r.failed += 1;
                    continue;
                }
            };
            let chrome = probe.span("faasnap-obs.chrome", || chrome_trace_json(&inv.tracer));
            let prom = probe.span("faasnap-obs.prom", || inv.metrics.render_prometheus());
            probe.open("benchmark.check");
            let checked = check_chrome(&chrome, inv.report.total_faults());
            exports = fnv(fnv(fnv(exports, chrome.as_bytes()), &[0]), prom.as_bytes());
            probe.close();
            if let Err(e) = checked {
                eprintln!("cli_invoke {name}: {e}");
                r.failed += 1;
            }
            tally.add(&inv.report);
            r.values
                .add("faasnap-obs.spans", inv.tracer.span_count() as f64);
            r.values.add(
                "faasnap-obs.export_mb",
                (chrome.len() + prom.len()) as f64 / (1u64 << 20) as f64,
            );
        }
        tally.write(&mut r.values);
        r.values.set(
            "faasnap-obs.sim_export_digest",
            crate::report::fingerprint_value(exports),
        );
        if prof.is_enabled() {
            r.values
                .set("faasnap.record_calls", self.inputs.len() as f64);
            r.values
                .set("faasnap.restore_calls", self.inputs.len() as f64);
            harvest_selfprof(&mut r.values, prof);
            ns_per_event(&mut r.values, probe, &["faasnap.restore.faasnap"]);
        }
        Ok(r)
    }
}

fn invoke(name: &str, input: &Input, seed: u64) -> Result<Invoked, String> {
    let run = traced_invoke(
        name,
        input,
        RestoreStrategy::faasnap(),
        DiskProfile::nvme_c5d(),
        seed,
    )?;
    Ok(Invoked {
        tracer: run.tracer,
        metrics: run.metrics,
        report: run.outcome.report,
    })
}

/// `traced_invoke`, one public call at a time. The record phase runs
/// under a self-profile of its own so its engine events are counted
/// apart from the restore's.
fn invoke_in_steps(
    name: &str,
    input: &Input,
    seed: u64,
    prof: &SelfProfile,
    probe: &mut Probe,
    v: &mut Values,
) -> Result<Invoked, String> {
    let mut platform = Platform::new(DiskProfile::nvme_c5d(), seed);
    for f in faas_workloads::all_functions() {
        platform.register(f);
    }
    let input_a = platform
        .registry()
        .function(name)
        .ok_or_else(|| format!("unknown function {name}"))?
        .input_a();
    let rec_prof = SelfProfile::enabled();
    platform.set_self_profile(rec_prof.clone());
    probe.span("faasnap.record", || platform.record(name, "cli", &input_a))?;
    let artifacts = platform
        .registry()
        .artifacts(name, "cli")
        .ok_or("artifacts vanished after record")?;
    v.add("faasnap.sim_record_ws_pages", artifacts.ws.len() as f64);
    v.add(
        "faasnap.sim_record_ls_pages",
        artifacts.ls.file_pages() as f64,
    );
    v.add(
        "faasnap.record_events",
        rec_prof.counter("engine/delivered") as f64,
    );

    let tracer = Tracer::enabled();
    let metrics = Metrics::enabled();
    platform.set_tracer(tracer.clone());
    platform.set_metrics(metrics.clone());
    platform.set_self_profile(prof.clone());
    let before = platform.host().disks[0].stats().clone();
    let outcome = probe.span("faasnap.restore.faasnap", || {
        platform.invoke(name, "cli", input, RestoreStrategy::faasnap())
    })?;
    disk_delta(v, &before, platform.host().disks[0].stats());
    Ok(Invoked {
        tracer,
        metrics,
        report: outcome.report,
    })
}

/// The Chrome trace parses, and holds one `fault/*` span per fault the
/// report counts.
///
/// `sim_core::json::parse` re-validates the rest of its input as UTF-8
/// at every string character, so one call on a multi-megabyte trace
/// takes hours. The check therefore parses each trace event with it on
/// its own, and then the document with every event replaced by `{}`;
/// together these parse exactly what one call on the whole would.
fn check_chrome(chrome: &str, faults: u64) -> Result<(), String> {
    let parse =
        |text: &str| json::parse(text).map_err(|e| format!("Chrome trace does not parse: {e}"));
    let events = event_spans(chrome)?;
    let mut skeleton = String::with_capacity(64 + 2 * events.len());
    let mut last = 0;
    let mut fault_spans = 0u64;
    for &(start, end) in &events {
        let e = parse(&chrome[start..end])?;
        let is_fault = e.get("ph").and_then(|p| p.as_str()) == Some("X")
            && e.get("name")
                .and_then(|n| n.as_str())
                .is_some_and(|n| n.starts_with("fault/"));
        fault_spans += u64::from(is_fault);
        skeleton.push_str(&chrome[last..start]);
        skeleton.push_str("{}");
        last = end;
    }
    skeleton.push_str(&chrome[last..]);
    let doc = parse(&skeleton)?;
    let listed = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("Chrome trace has no traceEvents")?
        .len();
    if listed != events.len() {
        return Err(format!(
            "{listed} trace events listed, {} found",
            events.len()
        ));
    }
    if fault_spans != faults {
        return Err(format!(
            "{fault_spans} fault/* spans for {faults} reported faults"
        ));
    }
    Ok(())
}

/// Byte ranges of the objects nested two levels deep (the trace events
/// of `{"traceEvents": [...]}`), found by a lexer that skips strings.
fn event_spans(doc: &str) -> Result<Vec<(usize, usize)>, String> {
    let mut spans = Vec::new();
    let (mut depth, mut in_string, mut escaped, mut start) = (0usize, false, false, 0);
    for (i, b) in doc.bytes().enumerate() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' | b'[' => {
                depth += 1;
                if depth == 3 && b == b'{' {
                    start = i;
                }
            }
            b'}' | b']' => {
                depth = depth.checked_sub(1).ok_or("unbalanced Chrome trace")?;
                if depth == 2 && b == b'}' {
                    spans.push((start, i + 1));
                }
            }
            _ => {}
        }
    }
    if depth != 0 || in_string {
        return Err("unbalanced Chrome trace".into());
    }
    Ok(spans)
}
