//! Smoke test of the benchmark at tiny sizes: every workload runs traced
//! and untraced, passes its output checks, and reports every metric that
//! `BENCHMARK.json` declares, under its name and unit.

use hpcadvisor::formats::{json, Value};
use perfbench::{run, RunOpts, Scale, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn opts(workload: Workload, seed: u64, trace: bool) -> RunOpts {
    RunOpts {
        workload,
        seed,
        seconds: 0.05,
        trace,
        scale: Scale::Tiny,
        work_root: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{}-{seed}-{trace}", workload.name())),
    }
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Value::as_seq)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn catalog(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_the_emitted_metrics_and_workloads() {
    assert_eq!(declared("end_to_end"), catalog(END_TO_END));
    assert_eq!(declared("per_layer"), catalog(PER_LAYER));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_seq)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(names, ["sweep_cold", "serve_mixed"]);
    assert!(names.iter().all(|n| Workload::parse(n).is_some()));
}

fn smoke(workload: Workload) {
    for (seed, trace) in [(3, false), (3, true), (12, false)] {
        let o = opts(workload, seed, trace);
        let outcome = run(&o).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert!(
            outcome.checks.ok(),
            "{} trace={trace}: {:?}",
            workload.name(),
            outcome.checks.failures()
        );
        assert!(outcome.attempted >= 1);
        assert_eq!(outcome.failed, 0);
        let line = outcome.result_json(trace);
        let doc = json::parse(&line).expect("result line is JSON");
        let keys: Vec<&str> = doc.as_map().unwrap().keys().collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc.get("metrics").and_then(Value::as_map).unwrap();
        let list = if trace { PER_LAYER } else { END_TO_END };
        assert_eq!(metrics.len(), list.len());
        for (name, unit) in list {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit));
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .expect("numeric value");
            if !trace {
                assert!(
                    value > 0.0,
                    "{}: end-to-end {name} is {value}",
                    workload.name()
                );
            }
        }
        if trace && workload == Workload::SweepCold {
            let batches = metrics
                .get("sampling.batches")
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64);
            assert!(
                batches.is_some_and(|b| b > 0.0),
                "the traced sweep measures the sampling layer"
            );
        }
        assert!(!o.work_root.exists(), "work directory left behind");
    }
}

// Traced and untraced runs are both checked against the same recorded
// dataset digests (and the traced sweep alternates untraced and traced
// collects), so passing both means their digests are equal.

#[test]
fn sweep_cold_smoke() {
    smoke(Workload::SweepCold);
}

#[test]
fn serve_mixed_smoke() {
    smoke(Workload::ServeMixed);
}

#[test]
fn sampler_loop_matches_run_sampled() {
    for variant in [0, 5] {
        assert!(perfbench::sampled::check_against_run_sampled(variant).unwrap());
    }
}

#[test]
fn a_changed_output_fails_the_checks() {
    let expected = perfbench::expected::Expected::load().unwrap();
    let mut checks = perfbench::Checks::default();
    let mut observed = perfbench::expected::Observed::default();
    observed.text("dataset_digest", "0000000000000000");
    expected.compare(&mut checks, Scale::Tiny, "sweep", 0, &observed);
    assert!(!checks.ok());
}
