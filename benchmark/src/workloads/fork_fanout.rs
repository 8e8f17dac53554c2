//! `fork_fanout`: the shared restore path. Set-up records json and makes
//! a 1-way fork as the reference. The unit is one `Platform::try_fork`
//! of json, input B, FaaSnap, 1000 siblings; one op is one sibling, and
//! every sibling's final guest memory must equal the reference's.
//!
//! The traced unit splits `try_fork` into trace generation and
//! `try_run_fork`, as `restore_sweep` does for `try_invoke`.

use faas_workloads::{Function, Input};
use faasnap::runtime::{try_run_fork, ForkOutcome};
use faasnap::strategy::RestoreStrategy;
use faasnap_daemon::Platform;
use faasnap_obs::SelfProfile;
use sim_storage::profiles::DiskProfile;

use super::{
    derive, disk_delta, harvest_selfprof, ns_per_event, Args, Tally, UnitResult, Workload,
};
use crate::report::Values;
use crate::span::Probe;

const FUNCTION: &str = "json";
const LABEL: &str = "bench";
/// Siblings per fork.
pub const SIBLINGS: usize = 1000;

/// Set-up state: json's snapshot and the 1-way reference.
pub struct ForkFanout {
    platform: Platform,
    function: Function,
    input: Input,
    reference: u64,
    one_way_disk_pages: u64,
}

impl Workload for ForkFanout {
    type Prep = ();

    fn setup(args: &Args, prof: &SelfProfile, probe: &mut Probe) -> Result<(Self, Values), String> {
        let function = faas_workloads::by_name(FUNCTION).ok_or("unknown json")?;
        let mut platform = Platform::new(DiskProfile::nvme_c5d(), derive(args.seed, &[1]));
        platform.register(function.clone());
        let record_input = function.input_a().reseeded(derive(args.seed, &[2]));
        platform.set_self_profile(prof.clone());
        probe.span("faasnap.record", || {
            platform.record(FUNCTION, LABEL, &record_input)
        })?;
        platform.set_self_profile(SelfProfile::disabled());
        let artifacts = platform
            .registry()
            .artifacts(FUNCTION, LABEL)
            .ok_or("json: artifacts vanished after record")?;
        let mut v = Values::default();
        v.set("faasnap.sim_record_ws_pages", artifacts.ws.len() as f64);
        v.set(
            "faasnap.sim_record_ls_pages",
            artifacts.ls.file_pages() as f64,
        );
        if prof.is_enabled() {
            v.set("faasnap.record_calls", 1.0);
            v.set(
                "faasnap.record_events",
                prof.counter("engine/delivered") as f64,
            );
        }
        let input = function.input_b().reseeded(derive(args.seed, &[3]));
        // The reference is part of the output check, and spanned as such.
        let one = probe
            .span("benchmark.check", || {
                platform.try_fork(FUNCTION, LABEL, &input, RestoreStrategy::faasnap(), 1)
            })
            .map_err(|e| format!("1-way reference fork: {e}"))?;
        let w = ForkFanout {
            reference: one.outcomes[0].final_memory.checksum(),
            one_way_disk_pages: one.disk_read_pages,
            platform,
            function,
            input,
        };
        Ok((w, v))
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
        let mut r = UnitResult {
            ops: SIBLINGS as u64,
            ..UnitResult::default()
        };
        self.platform.set_self_profile(prof.clone());
        let before = self.platform.host().disks[0].stats().clone();
        let fork = if probe.is_on() {
            self.fork_in_steps(probe)
        } else {
            self.platform
                .try_fork(
                    FUNCTION,
                    LABEL,
                    &self.input,
                    RestoreStrategy::faasnap(),
                    SIBLINGS,
                )
                .map_err(|e| e.to_string())
        };
        self.platform.set_self_profile(SelfProfile::disabled());
        let fork = match fork {
            Ok(fork) => fork,
            Err(e) => {
                eprintln!("fork_fanout: {e}");
                r.failed = r.ops;
                return Ok(r);
            }
        };
        probe.open("benchmark.check");
        let diverged = fork
            .outcomes
            .iter()
            .filter(|o| o.final_memory.checksum() != self.reference)
            .count() as u64;
        probe.close();
        if diverged > 0 || fork.outcomes.len() != SIBLINGS {
            eprintln!(
                "fork_fanout: {diverged} of {} siblings diverged from the 1-way fork",
                fork.outcomes.len()
            );
        }
        r.failed = diverged + (SIBLINGS as u64).saturating_sub(fork.outcomes.len() as u64);

        let mut tally = Tally::default();
        for o in &fork.outcomes {
            tally.add(&o.report);
        }
        tally.write(&mut r.values);
        let slowest = fork
            .outcomes
            .iter()
            .map(|o| o.report.total_time())
            .max()
            .unwrap_or_default();
        let v = &mut r.values;
        v.set("sim_fanout_ms", slowest.as_millis_f64());
        v.set("sim-vm.sim_private_pages", fork.private_pages as f64);
        v.set("sim-vm.sim_shared_pages", fork.shared_pages as f64);
        v.set("sim-mm.sim_fork_disk_pages", fork.disk_read_pages as f64);
        if fork.disk_read_pages > 0 {
            v.set(
                "sim-mm.sim_fork_share_ratio",
                (SIBLINGS as u64 * self.one_way_disk_pages) as f64 / fork.disk_read_pages as f64,
            );
        }
        // Freeing the siblings' state is part of what a fork costs.
        probe.span("faasnap.fork", || drop(fork));
        if prof.is_enabled() {
            disk_delta(v, &before, self.platform.host().disks[0].stats());
            v.set("faas-workloads.trace_calls", 1.0);
            harvest_selfprof(v, prof);
            ns_per_event(v, probe, &["faasnap.fork"]);
            if let Some(book) = probe.book() {
                let fork_ms = book.stat("faasnap.fork").self_ns as f64 / 1e6;
                v.set("faasnap.fork_sibling_ms", fork_ms / SIBLINGS as f64);
            }
        }
        Ok(r)
    }
}

impl ForkFanout {
    /// `Platform::try_fork` through its public parts.
    fn fork_in_steps(&mut self, probe: &mut Probe) -> Result<ForkOutcome, String> {
        let trace = probe.span("faas-workloads.trace", || self.function.trace(&self.input));
        probe.open("faasnap.fork");
        let spec = self
            .platform
            .registry()
            .artifacts(FUNCTION, LABEL)
            .map(|a| a.spec(RestoreStrategy::faasnap(), trace));
        let out = match spec {
            Some(spec) => {
                self.platform.host_mut().drop_caches();
                try_run_fork(self.platform.host_mut(), spec, SIBLINGS).map_err(|e| e.to_string())
            }
            None => Err("json: no artifacts".into()),
        };
        probe.close();
        out
    }
}
