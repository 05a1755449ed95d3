//! The benchmark's own smoke test: every workload at its tiny size, both
//! passes, must check out and print exactly the metrics BENCHMARK.json
//! names, each with its unit and direction; and targets.json must map
//! every per-layer metric onto end-to-end metrics and workloads that
//! exist.

use serde::{Deserialize, Error, Value};
use std::process::Command;

/// Any JSON document, kept as the vendored serde data model.
struct Json(Value);

impl Deserialize for Json {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(Json(value.clone()))
    }
}

fn read_json(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde_json::from_str::<Json>(&text)
        .unwrap_or_else(|e| panic!("{path}: {e:?}"))
        .0
}

fn str_of<'a>(value: &'a Value, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string {key} in {value:?}"))
}

fn number(value: &Value) -> f64 {
    match value {
        Value::U64(v) => *v as f64,
        Value::I64(v) => *v as f64,
        Value::F64(v) => *v,
        other => panic!("not a number: {other:?}"),
    }
}

/// `(name, unit, better)` of every metric in one BENCHMARK.json list.
fn declared(benchmark: &Value, list: &str) -> Vec<(String, String, String)> {
    benchmark
        .get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            (
                str_of(m, "name").to_owned(),
                str_of(m, "unit").to_owned(),
                str_of(m, "better").to_owned(),
            )
        })
        .collect()
}

fn benchmark() -> Value {
    read_json(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
}

fn workloads(benchmark: &Value) -> Vec<String> {
    benchmark
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| str_of(w, "name").to_owned())
        .collect()
}

fn run(workload: &str, trace: &str) -> (String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.05"])
        .args(["--trace", trace, "--size", "tiny"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line").to_owned();
    let result = serde_json::from_str::<Json>(&last)
        .unwrap_or_else(|e| panic!("result line is not JSON ({e:?}): {last}"))
        .0;
    (stdout, result)
}

#[test]
fn every_workload_prints_every_named_metric() {
    let benchmark = benchmark();
    for workload in workloads(&benchmark) {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (stdout, result) = run(&workload, trace);
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}: {stdout}"
            );
            assert_eq!(number(result.get("failed").expect("failed")), 0.0);
            assert!(number(result.get("attempted").expect("attempted")) >= 1.0);
            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics object");
            let expected = declared(&benchmark, list);
            let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let names: Vec<&str> = expected.iter().map(|(n, ..)| n.as_str()).collect();
            assert_eq!(printed, names, "{workload} trace {trace}: metric set");
            for (name, unit, better) in &expected {
                let metric = result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .expect("metric");
                assert_eq!(str_of(metric, "unit"), unit, "{workload}: unit of {name}");
                assert!(number(metric.get("value").expect("value")).is_finite());
                // The table above the result line carries the direction.
                let row = stdout
                    .lines()
                    .find(|l| l.split_whitespace().next() == Some(name.as_str()))
                    .unwrap_or_else(|| panic!("{workload}: no table row for {name}"));
                let fields: Vec<&str> = row.split_whitespace().collect();
                assert_eq!(
                    fields[2..],
                    [unit.as_str(), better.as_str()],
                    "{workload}: {row}"
                );
            }
        }
    }
}

#[test]
fn targets_cover_every_per_layer_metric() {
    let benchmark = benchmark();
    let targets = read_json(concat!(env!("CARGO_MANIFEST_DIR"), "/targets.json"));
    let targets = targets.get("per_layer").expect("per_layer map");
    let end_to_end: Vec<String> = declared(&benchmark, "end_to_end")
        .into_iter()
        .map(|(n, ..)| n)
        .collect();
    let mut names = workloads(&benchmark);
    names.push("all".to_owned());
    let per_layer = declared(&benchmark, "per_layer");
    assert_eq!(
        targets.as_object().expect("object").len(),
        per_layer.len(),
        "targets.json lists another metric set"
    );
    for (name, ..) in per_layer {
        let entry = targets
            .get(&name)
            .unwrap_or_else(|| panic!("targets.json has no {name}"));
        for pair in entry.get("moves").and_then(Value::as_array).expect("moves") {
            let pair = pair.as_array().expect("[metric, workload]");
            let metric = pair[0].as_str().expect("metric name");
            let workload = pair[1].as_str().expect("workload name");
            assert!(end_to_end.iter().any(|m| m == metric), "{name}: {metric}");
            assert!(names.iter().any(|w| w == workload), "{name}: {workload}");
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for (workload, seed, trace) in [
        ("nope", "1", "0"),
        ("paper_fig8", "x", "0"),
        ("paper_fig8", "1", "2"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args([
                "--workload",
                workload,
                "--seed",
                seed,
                "--seconds",
                "1",
                "--trace",
                trace,
            ])
            .output()
            .expect("benchmark runs");
        assert!(!out.status.success(), "{workload} {seed} {trace} succeeded");
        assert!(
            out.stdout.is_empty(),
            "{workload} {seed} {trace} printed a result"
        );
    }
}
