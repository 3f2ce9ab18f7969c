//! Tiny-size self-test of the benchmark: every workload, scaled down a
//! hundredfold, emits exactly the metrics `BENCHMARK.json` names with their
//! units, passes the output checks and, traced, the reconciliation.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml` from the
//! repository root.

use perfbench::setup::{Workload, WORKLOADS};
use perfbench::{bench, BenchResult, DEFAULT_SEED};
use serde::Deserialize;

#[derive(Deserialize)]
struct MetricDef {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct WorkloadDef {
    name: String,
}

#[derive(Deserialize)]
struct Benchmark {
    workloads: Vec<WorkloadDef>,
    end_to_end: Vec<MetricDef>,
    per_layer: Vec<MetricDef>,
}

#[derive(Deserialize)]
struct Prediction {
    metrics: Vec<String>,
}

#[derive(Deserialize)]
struct Record {
    predictions: Vec<Prediction>,
}

fn benchmark_json() -> Benchmark {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn tiny(w: &Workload) -> Workload {
    Workload {
        servers: w.servers / 100,
        jobs: w.jobs / 100,
        ..*w
    }
}

fn assert_emits(r: &BenchResult, expected: &[MetricDef], what: &str) {
    assert!(r.correct, "{what}: checks failed: {:?}", r.errors);
    assert_eq!(r.failed, 0, "{what}");
    assert!(r.attempted > 0, "{what}");
    let emitted: Vec<(&str, &str)> = r.metrics.iter().map(|m| (m.name, m.unit)).collect();
    let named: Vec<(&str, &str)> = expected
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(
        emitted, named,
        "{what}: emitted metrics differ from BENCHMARK.json"
    );
    let json = r.to_json();
    for (name, unit) in named {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": "))
                && json.contains(&format!("\"unit\": \"{unit}\"")),
            "{what}: {name} missing from {json}"
        );
    }
}

#[test]
fn every_workload_emits_its_metrics_and_passes_its_checks() {
    let spec = benchmark_json();
    let listed: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
    let built: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(
        listed, built,
        "BENCHMARK.json lists other workloads than the benchmark runs"
    );

    for w in WORKLOADS {
        let w = tiny(w);
        let plain = bench(&w, DEFAULT_SEED, 0.0, false);
        assert_emits(&plain, &spec.end_to_end, w.name);
        let traced = bench(&w, DEFAULT_SEED, 0.0, true);
        assert_emits(&traced, &spec.per_layer, w.name);
        assert_eq!(
            plain.digest, traced.digest,
            "{}: traced run changed the outcome",
            w.name
        );
        assert_eq!(
            plain.input_fingerprint, traced.input_fingerprint,
            "{}",
            w.name
        );
    }
}

#[test]
fn record_predicts_every_per_layer_metric_once() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/record.json");
    let text = std::fs::read_to_string(path).expect("record.json beside the manifest");
    let record: Record = serde_json::from_str(&text).expect("record.json parses");
    let mut predicted: Vec<String> = record
        .predictions
        .into_iter()
        .flat_map(|p| p.metrics)
        .collect();
    let mut listed: Vec<String> = benchmark_json()
        .per_layer
        .into_iter()
        .map(|m| m.name)
        .collect();
    predicted.sort();
    listed.sort();
    assert_eq!(predicted, listed);
}

#[test]
fn crashes_reach_the_tiny_fault_workload() {
    let w = WORKLOADS
        .iter()
        .find(|w| w.crash_rate > 0.0)
        .expect("a fault workload");
    let r = bench(&tiny(w), DEFAULT_SEED, 0.0, true);
    let value = |name: &str| r.metrics.iter().find(|m| m.name == name).map(|m| m.value);
    assert!(value("faults.crashes") > Some(0.0), "{:?}", r.metrics);
    assert!(value("fault_hooks.calls") > Some(0.0), "{:?}", r.metrics);
}
