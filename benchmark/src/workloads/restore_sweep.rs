//! `restore_sweep`: the restore engine on its own. Set-up records the
//! catalog once with the snapshot store on. Each pass reseeds the inputs,
//! takes untimed `Warm` reference checksums, then restores every catalog
//! function with input A and input B under Firecracker, REAP and FaaSnap:
//! 60 restores, one op each. Every restore's final guest memory must
//! equal the `Warm` reference for its function and input.
//!
//! The traced unit splits `Platform::try_invoke` into its public parts
//! (trace generation, spec, drop caches, `try_run_invocation`) so that
//! workload generation and the restore engine get spans of their own;
//! the traced set-up likewise ingests into a `FamilyStore` of its own
//! after each record. Both leave the simulation as the untraced calls do,
//! which the traced run checks.

use faas_workloads::{Function, Input};
use faasnap::runtime::try_run_invocation;
use faasnap::snapstore::FamilyStore;
use faasnap::strategy::RestoreStrategy;
use faasnap_daemon::Platform;
use faasnap_obs::SelfProfile;
use faasnap_store::StoreConfig;
use sim_storage::profiles::DiskProfile;

use super::{
    derive, disk_delta, geomean, harvest_selfprof, ns_per_event, Args, Tally, UnitResult, Workload,
    CATALOG,
};
use crate::report::Values;
use crate::span::Probe;

const LABEL: &str = "bench";

/// A strategy's span name and constructor.
type Strategy = (&'static str, fn() -> RestoreStrategy);

/// The strategies each input is restored under.
const STRATEGIES: [Strategy; 3] = [
    ("faasnap.restore.firecracker", || RestoreStrategy::Vanilla),
    ("faasnap.restore.reap", || RestoreStrategy::Reap),
    ("faasnap.restore.faasnap", RestoreStrategy::faasnap),
];

/// Set-up state: a platform holding every catalog function's snapshot.
pub struct RestoreSweep {
    seed: u64,
    platform: Platform,
    functions: Vec<Function>,
}

/// One pass's inputs (A, B per function) and their `Warm` checksums.
pub struct Pass {
    inputs: Vec<[(Input, u64); 2]>,
}

impl Workload for RestoreSweep {
    type Prep = Pass;

    fn setup(args: &Args, prof: &SelfProfile, probe: &mut Probe) -> Result<(Self, Values), String> {
        let mut platform = Platform::new(DiskProfile::nvme_c5d(), derive(args.seed, &[1]));
        let functions: Vec<Function> = CATALOG
            .iter()
            .map(|n| faas_workloads::by_name(n).ok_or_else(|| format!("unknown {n}")))
            .collect::<Result<_, _>>()?;
        for f in &functions {
            platform.register(f.clone());
        }
        let mut v = Values::default();
        record_catalog(&mut platform, &functions, args.seed, prof, probe, &mut v)?;
        Ok((
            RestoreSweep {
                seed: args.seed,
                platform,
                functions,
            },
            v,
        ))
    }

    fn prepare(&mut self, pass: u64) -> Result<Pass, String> {
        let mut inputs = Vec::with_capacity(self.functions.len());
        for (i, f) in self.functions.iter().enumerate() {
            let mut pair = [(f.input_a(), 0), (f.input_b(), 0)];
            for (k, (input, sum)) in pair.iter_mut().enumerate() {
                *input = input.reseeded(derive(self.seed, &[3, pass, i as u64, k as u64]));
                *sum = self
                    .platform
                    .try_invoke(f.name(), LABEL, input, RestoreStrategy::Warm)
                    .map_err(|e| format!("{} Warm reference: {e}", f.name()))?
                    .final_memory
                    .checksum();
            }
            inputs.push(pair);
        }
        Ok(Pass { inputs })
    }

    fn unit(
        &mut self,
        pass: &Pass,
        prof: &SelfProfile,
        probe: &mut Probe,
    ) -> Result<UnitResult, String> {
        let mut r = UnitResult::default();
        let mut tally = Tally::default();
        // Input-B total sim time per function: [Firecracker, REAP, FaaSnap].
        let mut times_b = Vec::with_capacity(self.functions.len());
        self.platform.set_self_profile(prof.clone());
        let before = self.platform.host().disks[0].stats().clone();
        for (f, pair) in self.functions.iter().zip(&pass.inputs) {
            let mut t_b = [0.0; 3];
            for (k, (input, reference)) in pair.iter().enumerate() {
                for (s, (span, strategy)) in STRATEGIES.iter().enumerate() {
                    r.ops += 1;
                    let strategy = strategy();
                    let out = if probe.is_on() {
                        invoke_in_steps(&mut self.platform, f, input, strategy, span, probe)
                    } else {
                        self.platform
                            .try_invoke(f.name(), LABEL, input, strategy)
                            .map_err(|e| e.to_string())
                    };
                    let out = match out {
                        Ok(out) => out,
                        Err(e) => {
                            eprintln!("restore_sweep {} {strategy}: {e}", f.name());
                            r.failed += 1;
                            continue;
                        }
                    };
                    let sum = probe.span("benchmark.check", || out.final_memory.checksum());
                    if sum != *reference {
                        eprintln!(
                            "restore_sweep {} {strategy}: checksum {sum:016x}, Warm {reference:016x}",
                            f.name()
                        );
                        r.failed += 1;
                    }
                    tally.add(&out.report);
                    if k == 1 {
                        t_b[s] = out.report.total_time().as_millis_f64();
                    }
                }
            }
            times_b.push(t_b);
        }
        self.platform.set_self_profile(SelfProfile::disabled());
        tally.write(&mut r.values);
        if times_b.iter().all(|t| t.iter().all(|&x| x > 0.0)) {
            let fc: Vec<f64> = times_b.iter().map(|t| t[0] / t[2]).collect();
            let reap: Vec<f64> = times_b.iter().map(|t| t[1] / t[2]).collect();
            r.values.set("sim_speedup_vs_firecracker", geomean(&fc));
            r.values.set("sim_speedup_vs_reap", geomean(&reap));
        }
        if prof.is_enabled() {
            disk_delta(
                &mut r.values,
                &before,
                self.platform.host().disks[0].stats(),
            );
            r.values.set("faasnap.restore_calls", r.ops as f64);
            r.values.set("faas-workloads.trace_calls", r.ops as f64);
            harvest_selfprof(&mut r.values, prof);
            let spans: Vec<&str> = STRATEGIES.iter().map(|(s, _)| *s).collect();
            ns_per_event(&mut r.values, probe, &spans);
        }
        Ok(r)
    }
}

/// Records every function with a reseeded input A, ingesting each image
/// into the snapshot store. Untraced, through `Platform`'s own store;
/// traced, through a `FamilyStore` created where `Platform` creates its
/// own, so that ingest gets a span of its own.
fn record_catalog(
    platform: &mut Platform,
    functions: &[Function],
    seed: u64,
    prof: &SelfProfile,
    probe: &mut Probe,
    v: &mut Values,
) -> Result<(), String> {
    let mut store = if probe.is_on() {
        let device = platform.device();
        Some(FamilyStore::new(
            StoreConfig::default(),
            &mut platform.host_mut().fs,
            device,
        ))
    } else {
        platform.enable_snapshot_store(StoreConfig::default());
        None
    };
    platform.set_self_profile(prof.clone());
    for (i, f) in functions.iter().enumerate() {
        let name = f.name();
        let input = f.input_a().reseeded(derive(seed, &[2, i as u64]));
        probe.span("faasnap.record", || platform.record(name, LABEL, &input))?;
        let artifacts = platform
            .registry()
            .artifacts(name, LABEL)
            .ok_or_else(|| format!("{name}: artifacts vanished after record"))?;
        v.add("faasnap.sim_record_ws_pages", artifacts.ws.len() as f64);
        v.add(
            "faasnap.sim_record_ls_pages",
            artifacts.ls.file_pages() as f64,
        );
        if let Some(store) = store.as_mut() {
            let memory = artifacts.snapshot.memory().clone();
            probe.open("faasnap-store.ingest");
            let ingested = store.record(
                &mut platform.host_mut().fs,
                name,
                &format!("{name}.{LABEL}"),
                &memory,
            );
            probe.close();
            ingested.map_err(|e| format!("snapshot store ingest {name}: {e}"))?;
        }
    }
    platform.set_self_profile(SelfProfile::disabled());
    let store = store
        .as_ref()
        .or(platform.snapshot_store())
        .ok_or("snapshot store missing")?;
    v.set(
        "faasnap-store.sim_unique_mb",
        store.unique_bytes() as f64 / (1u64 << 20) as f64,
    );
    v.set("faasnap-store.sim_dedup_ratio", store.dedup_ratio());
    if prof.is_enabled() {
        v.set("faasnap.record_calls", functions.len() as f64);
        v.set(
            "faasnap.record_events",
            prof.counter("engine/delivered") as f64,
        );
    }
    Ok(())
}

/// `Platform::try_invoke` through its public parts: generate the
/// function's trace, build the spec from the recorded artifacts, drop
/// caches, and run the restore.
fn invoke_in_steps(
    platform: &mut Platform,
    f: &Function,
    input: &Input,
    strategy: RestoreStrategy,
    span: &'static str,
    probe: &mut Probe,
) -> Result<faasnap::runtime::InvocationOutcome, String> {
    let trace = probe.span("faas-workloads.trace", || f.trace(input));
    probe.open(span);
    let spec = platform
        .registry()
        .artifacts(f.name(), LABEL)
        .map(|a| a.spec(strategy, trace));
    let out = match spec {
        Some(spec) => {
            platform.host_mut().drop_caches();
            try_run_invocation(platform.host_mut(), spec).map_err(|e| e.to_string())
        }
        None => Err(format!("{}: no artifacts", f.name())),
    };
    probe.close();
    out
}
