//! Golden files: the one mechanism behind every whole-report bit pin.
//!
//! [`assert_golden`] flattens a report to one `path = value` line per
//! JSON leaf, in document order, and compares the lines with
//! `tests/golden/<name>.golden`. Floats print as Rust's shortest
//! round-trip text, so every line is bit-exact. An array of more than
//! [`DIGEST_OVER`] scalars (a per-iteration placement or RLP series)
//! prints as one line, `path = [N items, fnv1a 0x…]`.
//!
//! A mismatch fails with the first paths that moved, old → new. A
//! missing file is written and the test fails: to re-pin a golden,
//! delete its file, rerun the test and review the `git diff`.

// Each test binary that includes this module uses part of it.
#![allow(dead_code)]

use papi::core::{ExecutionReport, IterationPricer, PhaseBreakdown, RunLength, SystemConfig};
use papi::types::{Energy, Time};
use papi::workload::DecodeTrace;
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Arrays of more scalars than this flatten to one digest line.
const DIGEST_OVER: usize = 64;

/// Moved paths a failure lists before it counts the rest.
const SHOWN: usize = 12;

/// `report` as `path = value` lines, one per JSON leaf.
pub fn flatten<T: Serialize + ?Sized>(report: &T) -> String {
    let json = serde_json::to_string(report).expect("report serializes");
    let tree: Value = serde_json::from_str(&json).expect("report parses");
    let mut out = String::new();
    flatten_into(&tree, &mut String::new(), &mut out);
    out
}

fn flatten_into(value: &Value, path: &mut String, out: &mut String) {
    let len = path.len();
    match value {
        Value::Object(entries) if !entries.is_empty() => {
            for (key, child) in entries {
                if len > 0 {
                    path.push('.');
                }
                path.push_str(key);
                flatten_into(child, path, out);
                path.truncate(len);
            }
        }
        Value::Array(items) if items.len() > DIGEST_OVER && items.iter().all(is_scalar) => {
            let digest = items.iter().fold(0xcbf2_9ce4_8422_2325_u64, |hash, item| {
                format!("{},", scalar(item)).bytes().fold(hash, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                })
            });
            let _ = writeln!(
                out,
                "{path} = [{} items, fnv1a {digest:#018x}]",
                items.len()
            );
        }
        Value::Array(items) if !items.is_empty() => {
            for (i, item) in items.iter().enumerate() {
                let _ = write!(path, "[{i}]");
                flatten_into(item, path, out);
                path.truncate(len);
            }
        }
        leaf => {
            let _ = writeln!(out, "{path} = {}", scalar(leaf));
        }
    }
}

fn is_scalar(value: &Value) -> bool {
    !matches!(value, Value::Array(_) | Value::Object(_))
}

/// A leaf's text; containers reach here only when empty.
fn scalar(value: &Value) -> String {
    match value {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::U64(v) => v.to_string(),
        Value::I64(v) => v.to_string(),
        Value::F64(v) => format!("{v:?}"),
        Value::Str(s) => serde_json::to_string(s).expect("string serializes"),
        Value::Array(_) => "[]".into(),
        Value::Object(_) => "{}".into(),
    }
}

/// Every path on which two flattenings differ, as `path: old → new`:
/// changed and added paths in `new`'s order, then removed ones. Equal
/// line sets in another order read as one `line order` entry.
pub fn diff(old: &str, new: &str) -> Vec<String> {
    let (old, new) = (split(old), split(new));
    let was: HashMap<_, _> = old.iter().copied().collect();
    let now: HashMap<_, _> = new.iter().copied().collect();
    let mut moved: Vec<String> = new
        .iter()
        .filter(|(path, value)| was.get(path) != Some(value))
        .map(|(path, value)| format!("{path}: {} → {value}", was.get(path).unwrap_or(&"(absent)")))
        .collect();
    moved.extend(
        old.iter()
            .filter(|(path, _)| !now.contains_key(path))
            .map(|(path, value)| format!("{path}: {value} → (absent)")),
    );
    if moved.is_empty() && old != new {
        moved.push("line order: the same lines in another order".into());
    }
    moved
}

fn split(text: &str) -> Vec<(&str, &str)> {
    text.lines()
        .map(|line| line.split_once(" = ").unwrap_or((line, "")))
        .collect()
}

/// The first [`SHOWN`] moved paths, one per line, and a count of the rest.
fn list(moved: &[String]) -> String {
    let mut out = String::new();
    for line in moved.iter().take(SHOWN) {
        let _ = writeln!(out, "  {line}");
    }
    if moved.len() > SHOWN {
        let _ = writeln!(out, "  … and {} more paths", moved.len() - SHOWN);
    }
    out
}

/// Asserts `report` flattens to `tests/golden/<name>.golden`.
#[track_caller]
pub fn assert_golden<T: Serialize + ?Sized>(name: &str, report: &T) {
    let file = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.golden"));
    let new = flatten(report);
    match std::fs::read_to_string(&file) {
        Ok(old) => {
            let moved = diff(&old, &new);
            assert!(
                moved.is_empty(),
                "{name}: {} paths moved off {}:\n{}",
                moved.len(),
                file.display(),
                list(&moved)
            );
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            // Tests that share a golden run in parallel: each writes
            // beside it (the test harness names each test's thread) and
            // renames, so a reader sees no file or the whole file.
            let thread = std::thread::current();
            let tmp = file.with_extension(format!("{}.tmp", thread.name().unwrap_or("main")));
            std::fs::create_dir_all(file.parent().expect("golden dir")).expect("golden dir");
            std::fs::write(&tmp, &new).expect("golden file writes");
            std::fs::rename(&tmp, &file).expect("golden file lands");
            panic!(
                "{name}: no golden file; wrote {}: review it and commit it",
                file.display()
            );
        }
        Err(e) => panic!("{name}: cannot read {}: {e}", file.display()),
    }
}

/// Asserts two reports flatten alike, naming the paths where `right`
/// moved off `left`.
#[track_caller]
pub fn assert_same<T: Serialize + ?Sized>(label: &str, left: &T, right: &T) {
    let moved = diff(&flatten(left), &flatten(right));
    assert!(
        moved.is_empty(),
        "{label}: {} paths differ:\n{}",
        moved.len(),
        list(&moved)
    );
}

/// Asserts `right` flattens like `left` with every float within `rel`
/// relative of it and every other leaf (integers, labels, series
/// digests) equal, naming the paths that moved. Returns the largest
/// relative float deviation.
#[track_caller]
pub fn assert_close<T: Serialize + ?Sized>(label: &str, left: &T, right: &T, rel: f64) -> f64 {
    let (left, right) = (flatten(left), flatten(right));
    let (left, right) = (split(&left), split(&right));
    assert!(
        left.iter()
            .map(|line| line.0)
            .eq(right.iter().map(|line| line.0)),
        "{label}: the reports' paths differ"
    );
    let mut worst = 0.0_f64;
    let mut moved = Vec::new();
    for (&(path, old), &(_, new)) in left.iter().zip(&right) {
        let deviation = match (float(old), float(new)) {
            (Some(a), Some(b)) if a == b => 0.0,
            (Some(a), Some(b)) => (a - b).abs() / a.abs().max(b.abs()),
            _ if old == new => 0.0,
            _ => f64::INFINITY,
        };
        worst = worst.max(deviation);
        if deviation > rel {
            moved.push(format!("{path}: {old} → {new} ({deviation:e})"));
        }
    }
    assert!(
        moved.is_empty(),
        "{label}: {} paths differ by more than {rel:e}:\n{}",
        moved.len(),
        list(&moved)
    );
    worst
}

/// A leaf's float value: floats print with a `.` or an exponent,
/// integers and quoted labels without.
fn float(text: &str) -> Option<f64> {
    let is_float = !text.starts_with('"') && text.contains(['.', 'e']);
    is_float.then(|| text.parse().ok()).flatten()
}

/// The batch engine's reference: every record of `trace` decided and
/// priced on its own by `price_iteration`, summed field by field in
/// record order. A serving session prices each decode iteration the
/// same way, so its decode phases equal this bit for bit; the batch
/// engine prices a stretch of records in one call, so its sums round
/// differently.
pub fn per_iteration(config: &SystemConfig, trace: &DecodeTrace) -> ExecutionReport {
    let mut scheduler = config.scheduler.build();
    let mut pricer = IterationPricer::new(config);
    let mut phases = PhaseBreakdown::default();
    let mut energy_parts = (Energy::ZERO, Energy::ZERO, Energy::ZERO, Energy::ZERO);
    let mut placements = RunLength::default();
    for it in &trace.iterations {
        let placement = scheduler.decide(it.rlp, it.tlp);
        let cost = pricer.price_iteration(placement, it);
        phases.fc += cost.fc_time;
        phases.attention += cost.attn_time;
        phases.communication += cost.comm_time;
        phases.other += cost.other_time;
        energy_parts.0 += cost.fc_energy;
        energy_parts.1 += cost.attn_energy;
        energy_parts.2 += cost.comm_energy;
        energy_parts.3 += cost.static_energy;
        placements.push(placement);
    }
    ExecutionReport {
        design: config.design.label().to_owned(),
        model: config.model.name.clone(),
        iterations: trace.len() as u64,
        tokens: trace.total_tokens,
        requests: trace.requests,
        phases,
        energy: energy_parts.0 + energy_parts.1 + energy_parts.2 + energy_parts.3,
        energy_parts,
        scheduler: scheduler.stats(),
        placements,
        prefill_time: Time::ZERO,
        prefill_energy: Energy::ZERO,
    }
}
