//! The four workloads and the loop that measures them.
//!
//! A workload is set up, then repeats a *unit* of work: one catalog pass
//! for `cli_invoke`, one restore pass for `restore_sweep`, one 1000-way
//! fork for `fork_fanout`, one mega fleet run for `fleet_mega`. Each unit
//! checks its own outputs. The untraced run repeats units for the time
//! budget. The traced run measures a fresh set-up plus one unit, both
//! untraced and under the benchmark's spans and the program's
//! `SelfProfile`.

use std::time::Instant;

use faasnap::report::InvocationReport;
use faasnap_obs::SelfProfile;
use sim_storage::device::IoStats;

use crate::report::{Values, SPAN_METRICS};
use crate::span::Probe;

mod cli_invoke;
mod fleet_mega;
mod fork_fanout;
mod restore_sweep;

/// The ten Table 2 functions the restore workloads use: every function
/// but `read-list` and `mmap`, whose record phases alone would dominate.
pub(crate) const CATALOG: [&str; 10] = [
    "hello-world",
    "image",
    "json",
    "pyaes",
    "chameleon",
    "matmul",
    "ffmpeg",
    "compression",
    "recognition",
    "pagerank",
];

/// What a run was asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// Workload seed; every simulation seed and input derives from it.
    pub seed: u64,
    /// Time budget of the measured part, in seconds.
    pub seconds: u64,
    /// True for the traced (per-layer) run.
    pub trace: bool,
}

/// The result of one unit of work.
#[derive(Debug, Default)]
pub(crate) struct UnitResult {
    /// Ops attempted.
    pub ops: u64,
    /// Ops that errored or failed their output check.
    pub failed: u64,
    /// Sim-time results and deterministic counts of this unit.
    pub values: Values,
}

/// One workload: set-up state plus its unit of work.
pub(crate) trait Workload: Sized {
    /// Builds the set-up state (records, reference runs), returning it
    /// with the deterministic values the set-up produced. `prof` and
    /// `probe` are as for [`Workload::unit`].
    fn setup(args: &Args, prof: &SelfProfile, probe: &mut Probe) -> Result<(Self, Values), String>;
    /// Untimed per-pass preparation (reseeded inputs, reference
    /// checksums); the result feeds [`Workload::unit`].
    type Prep;
    /// Prepares pass `pass`.
    fn prepare(&mut self, pass: u64) -> Result<Self::Prep, String>;
    /// Runs one unit of work. `prof` is the program's self-profile to
    /// attach (disabled on untraced runs); `probe` records spans.
    fn unit(
        &mut self,
        prep: &Self::Prep,
        prof: &SelfProfile,
        probe: &mut Probe,
    ) -> Result<UnitResult, String>;
}

/// The outcome of a whole run.
#[derive(Debug, Default)]
pub struct RunOutcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored or failed their output check.
    pub failed: u64,
    /// Every metric measured.
    pub values: Values,
}

/// Runs workload `name`, or `None` if no workload has that name.
pub fn run(name: &str, args: &Args) -> Option<Result<RunOutcome, String>> {
    Some(match name {
        "cli_invoke" => measure::<cli_invoke::CliInvoke>(args),
        "restore_sweep" => measure::<restore_sweep::RestoreSweep>(args),
        "fork_fanout" => measure::<fork_fanout::ForkFanout>(args),
        "fleet_mega" => measure::<fleet_mega::FleetMega>(args),
        _ => return None,
    })
}

/// Names of every workload.
pub const NAMES: [&str; 4] = ["cli_invoke", "restore_sweep", "fork_fanout", "fleet_mega"];

/// An untraced run sets up at least this many times, and for at least
/// [`MIN_SETUP_S`] in all; `setup_s` is the median.
const MIN_SETUPS: usize = 3;

/// Least total set-up time of an untraced run, in seconds, so that cheap
/// set-ups are sampled often enough for a steady median.
const MIN_SETUP_S: f64 = 1.0;

/// The least share of a traced pass's host time the layer spans must
/// cover, or the per-layer split is not trusted and the run fails.
const MIN_COVERAGE: f64 = 0.9;

/// Derives an independent 64-bit seed from `seed` and `parts`
/// (splitmix64 finalizer over each part in turn).
pub(crate) fn derive(seed: u64, parts: &[u64]) -> u64 {
    let mut x = seed;
    for &p in parts {
        x ^= p.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
    }
    x
}

/// Median of `v` (mean of the middle two for even lengths).
pub(crate) fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values.
pub(crate) fn geomean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "geomean of nothing");
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

fn measure<W: Workload>(args: &Args) -> Result<RunOutcome, String> {
    let mut out = RunOutcome::default();
    if args.trace {
        return traced::<W>(args, out);
    }
    let mut setup_times = Vec::new();
    let mut state = None;
    while setup_times.len() < MIN_SETUPS || setup_times.iter().sum::<f64>() < MIN_SETUP_S {
        // Drop the previous state first so set-ups do not stack up memory.
        drop(state.take());
        let t = Instant::now();
        state = Some(W::setup(args, &SelfProfile::disabled(), &mut Probe::off())?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    eprintln!("set-ups: {setup_times:.3?} s");
    out.values.set("setup_s", median(&mut setup_times));
    let (mut w, setup_values) = state.expect("at least one set-up");
    for (name, v) in setup_values.iter() {
        out.values.set(name, v);
    }
    untraced(&mut w, args, &mut out)?;
    Ok(out)
}

/// Repeats units until the next one would overrun the budget (at least
/// one unit). Reports throughput as ops completed over the host seconds
/// the units took, and peak RSS and sim results as of the first unit.
fn untraced<W: Workload>(w: &mut W, args: &Args, out: &mut RunOutcome) -> Result<(), String> {
    let budget = args.seconds as f64;
    let mut busy = 0.0;
    for pass in 0u64.. {
        let prep = w.prepare(pass)?;
        let t = Instant::now();
        let r = w.unit(&prep, &SelfProfile::disabled(), &mut Probe::off())?;
        let dt = t.elapsed().as_secs_f64();
        eprintln!("pass {pass}: {} ops in {dt:.3} s", r.ops);
        busy += dt;
        out.attempted += r.ops;
        out.failed += r.failed;
        if pass == 0 {
            for (name, v) in r.values.iter() {
                out.values.set(name, v);
            }
            // Peak RSS over set-up and one unit: later units repeat the
            // same work, and would only add allocator drift.
            if let Some(mb) = crate::report::peak_rss_mb() {
                out.values.set("peak_rss_mb", mb);
            }
        }
        if busy + busy / (pass + 1) as f64 > budget {
            break;
        }
    }
    out.values.set("ops_per_s", out.attempted as f64 / busy);
    out.values.set(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    Ok(())
}

/// One measured pass of the traced run: a fresh set-up plus unit 0.
struct Measured {
    /// Host seconds of set-up plus unit (the untimed preparation is left
    /// out).
    host_s: f64,
    ops: u64,
    failed: u64,
    /// Set-up and unit values together.
    values: Values,
}

fn measure_pass<W: Workload>(
    args: &Args,
    prof: &SelfProfile,
    probe: &mut Probe,
) -> Result<Measured, String> {
    let t = Instant::now();
    let (mut w, mut values) = W::setup(args, prof, probe)?;
    let mut host_s = t.elapsed().as_secs_f64();
    let prep = w.prepare(0)?;
    // The unit counts into a profile of its own, apart from set-up's.
    let unit_prof = if prof.is_enabled() {
        SelfProfile::enabled()
    } else {
        SelfProfile::disabled()
    };
    let t = Instant::now();
    let r = w.unit(&prep, &unit_prof, probe)?;
    host_s += t.elapsed().as_secs_f64();
    for (name, v) in r.values.iter() {
        values.set(name, v);
    }
    Ok(Measured {
        host_s,
        ops: r.ops,
        failed: r.failed,
        values,
    })
}

/// Measures pass 0 untraced and traced, alternately and each on a fresh
/// set-up, after one warm-up pass, for as many pairs as the time budget
/// allows (at least one). Reports per-layer busy time and the
/// deterministic counts of the first traced pass, and the tracing
/// overhead as the difference of the two sides' median host times.
fn traced<W: Workload>(args: &Args, mut out: RunOutcome) -> Result<RunOutcome, String> {
    // The warm-up pass takes first-touch page faults and allocator growth.
    let warm = measure_pass::<W>(args, &SelfProfile::disabled(), &mut Probe::off())?;
    out.attempted += warm.ops;
    out.failed += warm.failed;
    let reference = warm.values;

    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut first: Option<(Values, Probe)> = None;
    let started = Instant::now();
    loop {
        let plain = measure_pass::<W>(args, &SelfProfile::disabled(), &mut Probe::off())?;
        let mut probe = Probe::on();
        let traced = measure_pass::<W>(args, &SelfProfile::enabled(), &mut probe)?;
        for m in [&plain, &traced] {
            out.attempted += m.ops;
            out.failed += m.failed;
            // Tracing observes; it must not change what is simulated.
            for (name, v) in reference.iter() {
                if m.values.get(name) != Some(v) {
                    out.failed += 1;
                    eprintln!("{name} changed: {v} untraced, {:?} now", m.values.get(name));
                }
            }
        }
        eprintln!(
            "untraced {:.3} s, traced {:.3} s",
            plain.host_s, traced.host_s
        );
        plain_s.push(plain.host_s);
        traced_s.push(traced.host_s);
        if first.is_none() {
            first = Some((traced.values, probe));
        }
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / plain_s.len() as f64 > args.seconds as f64 {
            break;
        }
    }
    let (values, probe) = first.expect("at least one pair");
    let first_s = traced_s[0];
    let (untraced, traced) = (median(&mut plain_s), median(&mut traced_s));
    out.values = values;
    let book = probe.book().expect("traced probe");
    for (span, ms, pct) in SPAN_METRICS {
        let self_s = book.stat(span).self_ns as f64 / 1e9;
        out.values.set(ms, self_s * 1e3);
        out.values.set(pct, 100.0 * self_s / first_s);
    }
    out.values.set("trace.traced_s", traced);
    out.values.set("trace.untraced_s", untraced);
    out.values
        .set("trace.overhead_ms", (traced - untraced) * 1e3);
    let coverage = book.covered_ns() as f64 / 1e9 / first_s;
    out.values.set("trace.coverage", coverage);
    if coverage < MIN_COVERAGE {
        out.failed += 1;
        eprintln!("layer spans cover {coverage:.3} of the traced pass, under {MIN_COVERAGE}");
    }
    let fp = crate::report::fingerprint(&out.values);
    out.values
        .set("sim_fingerprint", crate::report::fingerprint_value(fp));
    println!("sim_fingerprint {fp:016x}");
    Ok(out)
}

/// Sums of restore reports, folded into the fault, page-cache, and
/// loader metrics.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Tally {
    anon: u64,
    minor: u64,
    major: u64,
    uffd: u64,
    wait_ns: u64,
    fetch: u64,
    guest_fault_read: u64,
}

impl Tally {
    /// Adds one restore's report.
    pub fn add(&mut self, r: &InvocationReport) {
        self.anon += r.anon_faults;
        self.minor += r.minor_faults;
        self.major += r.major_faults;
        self.uffd += r.uffd_faults;
        self.wait_ns += r.fault_wait.as_nanos();
        self.fetch += r.fetch_pages;
        self.guest_fault_read += r.guest_fault_read_pages;
    }

    /// Writes the tallied metrics into `v`.
    pub fn write(&self, v: &mut Values) {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        v.set("sim-mm.sim_faults.anon", self.anon as f64);
        v.set("sim-mm.sim_faults.minor", self.minor as f64);
        v.set("sim-mm.sim_faults.major", self.major as f64);
        v.set("sim-mm.sim_faults.uffd", self.uffd as f64);
        v.set("sim-mm.sim_fault_wait_ms", self.wait_ns as f64 / 1e6);
        v.set(
            "sim-mm.sim_cache_hit_ratio",
            ratio(self.minor, self.minor + self.major),
        );
        v.set("faasnap.sim_fetch_pages", self.fetch as f64);
        v.set(
            "faasnap.sim_loader_coverage",
            ratio(self.fetch, self.fetch + self.guest_fault_read),
        );
    }
}

/// Copies the engine and fault-resolver counters of the program's
/// self-profile into `v`.
pub(crate) fn harvest_selfprof(v: &mut Values, prof: &SelfProfile) {
    v.set("sim-core.events", prof.counter("engine/delivered") as f64);
    v.set(
        "sim-mm.resolve_calls",
        prof.counter("mm/resolve_calls") as f64,
    );
    v.set("sim-mm.map_ops", prof.counter("mm/map_ops") as f64);
    v.set(
        "sim-mm.readahead_pages",
        prof.counter("mm/readahead_pages") as f64,
    );
}

/// Host nanoseconds per simulated event over the restore spans.
pub(crate) fn ns_per_event(v: &mut Values, probe: &Probe, spans: &[&str]) {
    let Some(book) = probe.book() else { return };
    let ns: u64 = spans.iter().map(|s| book.stat(s).self_ns).sum();
    let events = v.get("sim-core.events").unwrap_or(0.0);
    if events > 0.0 {
        v.set("sim-core.ns_per_event", ns as f64 / events);
    }
}

/// Device traffic between two snapshots of a disk's statistics.
pub(crate) fn disk_delta(v: &mut Values, before: &IoStats, after: &IoStats) {
    v.add(
        "sim-storage.sim_disk_pages",
        (after.pages - before.pages) as f64,
    );
    v.add(
        "sim-storage.sim_block_requests",
        (after.requests - before.requests) as f64,
    );
}
