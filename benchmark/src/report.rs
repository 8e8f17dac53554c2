//! Metric names, units, and the result line.
//!
//! Every metric is declared once here. `END_TO_END` and `PER_LAYER`
//! mirror the `end_to_end` and `per_layer` lists of `BENCHMARK.json`
//! (the harness tests pin the two against each other). A per-layer
//! metric is either a host cost, which varies run to run, or a
//! deterministic count, which is a pure function of the seed and
//! enters the sim fingerprint.

use std::collections::BTreeMap;

/// How a metric behaves across runs of one seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Host wall-clock or memory: the cost of running the simulator.
    Host,
    /// A count or ratio fixed by the seed; part of the sim fingerprint.
    Det,
}

/// A declared metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name (see [`valid_name`]).
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Host cost or deterministic count.
    pub kind: Kind,
}

const fn host(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind: Kind::Host,
    }
}

const fn det(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind: Kind::Det,
    }
}

/// Metrics every workload reports on an untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    host("setup_s", "s"),
    host("ops_per_s", "1/s"),
    host("peak_rss_mb", "MB"),
];

/// Metrics every workload reports on a traced run (`--trace 1`); a layer
/// the workload does not reach reports 0. Host time per layer is given
/// as its share of the traced run's host time (the milliseconds are in
/// [`INFO`]). Sim-time values carry the unit `sim_ms`, so they are never
/// mistaken for host time.
pub const PER_LAYER: &[MetricDef] = &[
    // Tracing itself.
    host("trace.traced_s", "s"),
    host("trace.untraced_s", "s"),
    host("trace.overhead_ms", "ms"),
    host("trace.coverage", "ratio"),
    host("benchmark.check_pct", "%"),
    // The reproduced results; untraced runs print them too.
    det("sim_speedup_vs_firecracker", "x"),
    det("sim_speedup_vs_reap", "x"),
    det("sim_fanout_ms", "sim_ms"),
    det("sim_latency_ms_p50", "sim_ms"),
    det("sim_latency_ms_p999", "sim_ms"),
    det("sim_cold_frac", "ratio"),
    // Workload generation.
    host("faas-workloads.trace_pct", "%"),
    det("faas-workloads.trace_calls", "count"),
    host("faasnap-cluster.arrival_gen_pct", "%"),
    // Record.
    host("faasnap.record_pct", "%"),
    det("faasnap.record_calls", "count"),
    det("faasnap.record_events", "count"),
    det("faasnap.sim_record_ws_pages", "pages"),
    det("faasnap.sim_record_ls_pages", "pages"),
    // Store ingest.
    host("faasnap-store.ingest_pct", "%"),
    det("faasnap-store.sim_unique_mb", "MB"),
    det("faasnap-store.sim_dedup_ratio", "ratio"),
    // Restore engine (sim-core's engine also runs the fleet).
    host("faasnap.restore_pct.firecracker", "%"),
    host("faasnap.restore_pct.reap", "%"),
    host("faasnap.restore_pct.faasnap", "%"),
    det("faasnap.restore_calls", "count"),
    det("sim-core.events", "count"),
    host("sim-core.ns_per_event", "ns"),
    // Fault resolver and page cache.
    det("sim-mm.resolve_calls", "count"),
    det("sim-mm.map_ops", "count"),
    det("sim-mm.readahead_pages", "pages"),
    det("sim-mm.sim_faults.anon", "count"),
    det("sim-mm.sim_faults.minor", "count"),
    det("sim-mm.sim_faults.major", "count"),
    det("sim-mm.sim_faults.uffd", "count"),
    det("sim-mm.sim_fault_wait_ms", "sim_ms"),
    det("sim-mm.sim_cache_hit_ratio", "ratio"),
    // Device and loader.
    det("sim-storage.sim_disk_pages", "pages"),
    det("sim-storage.sim_block_requests", "count"),
    det("faasnap.sim_fetch_pages", "pages"),
    det("faasnap.sim_loader_coverage", "ratio"),
    // Fork / copy-on-write.
    host("faasnap.fork_pct", "%"),
    det("sim-vm.sim_private_pages", "pages"),
    det("sim-vm.sim_shared_pages", "pages"),
    det("sim-mm.sim_fork_disk_pages", "pages"),
    det("sim-mm.sim_fork_share_ratio", "ratio"),
    // Obs export.
    det("faasnap-obs.spans", "count"),
    host("faasnap-obs.chrome_pct", "%"),
    host("faasnap-obs.prom_pct", "%"),
    det("faasnap-obs.export_mb", "MB"),
    // Fleet.
    host("faasnap-cluster.run_pct", "%"),
    det("faasnap-cluster.events", "count"),
    det("faasnap-cluster.router_lookups", "count"),
    det("faasnap-cluster.peak_pending", "count"),
    det("faasnap-cluster.sim_served.warm", "count"),
    det("faasnap-cluster.sim_served.snapshot_hot", "count"),
    det("faasnap-cluster.sim_served.snapshot_cold", "count"),
    det("faasnap-cluster.sim_served.cold", "count"),
    det("faasnap-cluster.sim_shed", "count"),
];

/// Metrics printed as `metric` lines only: the error rate, each layer's
/// self time in milliseconds, per-unit times that are 0 where a layer is
/// not reached, and the digests.
pub const INFO: &[MetricDef] = &[
    det("error_rate", "ratio"),
    host("faas-workloads.trace_ms", "ms"),
    host("faasnap-cluster.arrival_gen_ms", "ms"),
    host("faasnap.record_ms", "ms"),
    host("faasnap-store.ingest_ms", "ms"),
    host("faasnap.restore_ms.firecracker", "ms"),
    host("faasnap.restore_ms.reap", "ms"),
    host("faasnap.restore_ms.faasnap", "ms"),
    host("faasnap.fork_ms", "ms"),
    host("faasnap.fork_sibling_ms", "ms"),
    host("faasnap-obs.chrome_ms", "ms"),
    host("faasnap-obs.prom_ms", "ms"),
    host("faasnap-cluster.run_ms", "ms"),
    host("faasnap-cluster.ns_per_event", "ns"),
    host("benchmark.check_ms", "ms"),
    det("faasnap-obs.sim_export_digest", "hash"),
    det("sim_fingerprint", "hash"),
];

/// Host-time spans the traced runs open, with the per-layer metrics each
/// one's self time feeds: milliseconds and share of traced host time.
pub const SPAN_METRICS: &[(&str, &str, &str)] = &[
    (
        "faas-workloads.trace",
        "faas-workloads.trace_ms",
        "faas-workloads.trace_pct",
    ),
    (
        "faasnap-cluster.arrival_gen",
        "faasnap-cluster.arrival_gen_ms",
        "faasnap-cluster.arrival_gen_pct",
    ),
    ("faasnap.record", "faasnap.record_ms", "faasnap.record_pct"),
    (
        "faasnap-store.ingest",
        "faasnap-store.ingest_ms",
        "faasnap-store.ingest_pct",
    ),
    (
        "faasnap.restore.firecracker",
        "faasnap.restore_ms.firecracker",
        "faasnap.restore_pct.firecracker",
    ),
    (
        "faasnap.restore.reap",
        "faasnap.restore_ms.reap",
        "faasnap.restore_pct.reap",
    ),
    (
        "faasnap.restore.faasnap",
        "faasnap.restore_ms.faasnap",
        "faasnap.restore_pct.faasnap",
    ),
    ("faasnap.fork", "faasnap.fork_ms", "faasnap.fork_pct"),
    (
        "faasnap-obs.chrome",
        "faasnap-obs.chrome_ms",
        "faasnap-obs.chrome_pct",
    ),
    (
        "faasnap-obs.prom",
        "faasnap-obs.prom_ms",
        "faasnap-obs.prom_pct",
    ),
    (
        "faasnap-cluster.run",
        "faasnap-cluster.run_ms",
        "faasnap-cluster.run_pct",
    ),
    (
        "benchmark.check",
        "benchmark.check_ms",
        "benchmark.check_pct",
    ),
];

/// The metric-name rule of `BENCHMARK.json`: 1 to 64 characters, each a
/// letter, digit, `_`, `.` or `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// The declaration of `name` in any list.
pub fn def(name: &str) -> Option<MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(INFO)
        .find(|d| d.name == name)
        .copied()
}

/// Measured values by metric name.
#[derive(Clone, Debug, Default)]
pub struct Values {
    values: BTreeMap<&'static str, f64>,
}

impl Values {
    /// Sets `name` to `v`.
    ///
    /// # Panics
    /// If `name` is not declared: every value printed has a unit.
    pub fn set(&mut self, name: &'static str, v: f64) {
        assert!(def(name).is_some(), "undeclared metric {name}");
        self.values.insert(name, v);
    }

    /// Adds `v` to `name` (starting from 0).
    pub fn add(&mut self, name: &'static str, v: f64) {
        let cur = self.get(name).unwrap_or(0.0);
        self.set(name, cur + v);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// All values in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.values.iter().map(|(k, v)| (*k, *v))
    }
}

/// Start value of an FNV-1a digest.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues the FNV-1a digest `h` over `bytes`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a over `name=value` lines of every deterministic metric but
/// the fingerprint itself, in name order. Two builds that simulate the
/// same thing give the same digest for the same seed.
pub fn fingerprint(values: &Values) -> u64 {
    values
        .iter()
        .filter(|(name, _)| *name != "sim_fingerprint")
        .filter(|(name, _)| def(name).is_some_and(|d| d.kind == Kind::Det))
        .fold(FNV_OFFSET, |h, (name, v)| {
            fnv(h, format!("{name}={v:?}\n").as_bytes())
        })
}

/// The digest as a JSON-safe number: its top 53 bits.
pub fn fingerprint_value(digest: u64) -> f64 {
    (digest >> 11) as f64
}

/// Formats a number for JSON with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v}")
}

/// The result line: `correct`, `attempted`, `failed`, and the values of
/// `defs` (a missing value reads 0).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(values.get(d.name).unwrap_or(0.0)),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Peak resident memory of this process in MB, from `/proc/self/status`
/// (`VmHWM`); `None` where that file is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
