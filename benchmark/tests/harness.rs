//! Tests of the benchmark harness itself: span self-time arithmetic, the
//! metric-name rule, and agreement between `BENCHMARK.json` and the
//! workloads the benchmark runs.

use std::collections::BTreeSet;

use faasnap_benchmark::report::{
    def, fingerprint, result_line, valid_name, Values, END_TO_END, INFO, PER_LAYER, SPAN_METRICS,
};
use faasnap_benchmark::span::SpanBook;
use faasnap_benchmark::workloads::NAMES;
use sim_core::json::{self, Value};

#[test]
fn nested_spans_subtract_children_from_self_time() {
    let mut b = SpanBook::default();
    b.open("outer", 0);
    b.open("inner", 10);
    b.open("leaf", 12);
    b.close(15); // leaf: 3
    b.close(30); // inner: 20, self 17
    b.close(100); // outer: 100, self 80
    assert_eq!(b.stat("leaf").self_ns, 3);
    assert_eq!(b.stat("inner").total_ns, 20);
    assert_eq!(b.stat("inner").self_ns, 17);
    assert_eq!(b.stat("outer").total_ns, 100);
    assert_eq!(b.stat("outer").self_ns, 80);
    // Self times partition the outermost span exactly.
    assert_eq!(b.covered_ns(), 100);
}

#[test]
fn adjacent_spans_accumulate_per_name() {
    let mut b = SpanBook::default();
    b.open("restore", 0);
    b.close(5);
    b.open("check", 5);
    b.close(6);
    b.open("restore", 6);
    b.close(16);
    let r = b.stat("restore");
    assert_eq!((r.calls, r.total_ns, r.self_ns), (2, 15, 15));
    assert_eq!(b.stat("check").self_ns, 1);
    // Gaps between top-level spans are not covered.
    b.open("restore", 20);
    b.close(21);
    assert_eq!(b.covered_ns(), 17);
}

#[test]
fn sibling_children_of_one_parent_are_all_subtracted() {
    let mut b = SpanBook::default();
    b.open("pass", 0);
    for i in 0..3 {
        b.open("restore", 10 * i + 1);
        b.close(10 * i + 8);
    }
    b.close(40);
    assert_eq!(b.stat("restore").self_ns, 21);
    assert_eq!(b.stat("pass").self_ns, 19);
    assert_eq!(b.covered_ns(), 40);
}

#[test]
#[should_panic(expected = "close without an open span")]
fn closing_without_open_span_panics() {
    SpanBook::default().close(1);
}

#[test]
fn metric_name_rule() {
    for ok in [
        "setup_s",
        "sim-mm.sim_faults.major",
        "faasnap.restore_pct.firecracker",
        "0x",
        &"a".repeat(64),
    ] {
        assert!(valid_name(ok), "{ok} should be valid");
    }
    for bad in [
        "",
        "_lead",
        ".lead",
        "-lead",
        "has space",
        "slash/name",
        "colon:name",
        "ünïcode",
        &"a".repeat(65),
    ] {
        assert!(!valid_name(bad), "{bad:?} should be invalid");
    }
}

#[test]
fn every_declared_metric_is_valid_and_unique() {
    let mut seen = BTreeSet::new();
    for d in END_TO_END.iter().chain(PER_LAYER).chain(INFO) {
        assert!(valid_name(d.name), "bad name {}", d.name);
        assert!(seen.insert(d.name), "{} declared twice", d.name);
        assert!(
            !d.unit.is_empty() && d.unit.len() <= 16,
            "bad unit for {}",
            d.name
        );
    }
    for (span, ms, pct) in SPAN_METRICS {
        assert!(valid_name(span));
        assert!(
            def(ms).is_some() && def(pct).is_some(),
            "{span} feeds undeclared metrics"
        );
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_benchmark_workload_maps_to_a_runner() {
    let doc = benchmark_json();
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert!(!workloads.is_empty());
    for w in &workloads {
        assert!(NAMES.contains(&w.as_str()), "no runner for workload {w}");
    }
    for n in NAMES {
        assert!(
            workloads.iter().any(|w| w == n),
            "workload {n} not in BENCHMARK.json"
        );
    }
}

#[test]
fn benchmark_metric_lists_match_the_declarations() {
    let doc = benchmark_json();
    let decl = |defs: &[faasnap_benchmark::report::MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    };
    assert_eq!(listed(&doc, "end_to_end"), decl(END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), decl(PER_LAYER));
}

#[test]
fn result_line_is_json_with_every_listed_metric() {
    let mut v = Values::default();
    v.set("setup_s", 0.8127);
    v.set("ops_per_s", 1234.5);
    v.set("error_rate", 0.0);
    let line = result_line(true, 1000, 0, END_TO_END, &v);
    let doc = json::parse(&line).expect("result line parses");
    assert_eq!(doc.get("attempted").and_then(Value::as_u64), Some(1000));
    let metrics = doc.get("metrics").expect("metrics");
    for d in END_TO_END {
        let m = metrics.get(d.name).expect("every listed metric present");
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(d.unit));
    }
    // Only listed metrics appear, and values keep all their digits.
    assert!(metrics.get("error_rate").is_none());
    assert_eq!(
        metrics
            .get("setup_s")
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64),
        Some(0.8127)
    );
}

#[test]
fn fingerprint_covers_deterministic_values_only() {
    let mut a = Values::default();
    a.set("sim-mm.sim_faults.major", 10.0);
    a.set("faasnap.record_ms", 5.0);
    let mut b = a.clone();
    b.set("faasnap.record_ms", 7.0);
    assert_eq!(
        fingerprint(&a),
        fingerprint(&b),
        "host time must not move it"
    );
    b.set("sim-mm.sim_faults.major", 11.0);
    assert_ne!(fingerprint(&a), fingerprint(&b), "a sim count must move it");
}
