//! Oracle test for `DecodingSimulator::run_trace` on traces the
//! generator never writes.
//!
//! The engine decides FC placement once per run of constant
//! `(rlp, tlp)` and prices each *stretch* of a run — records whose
//! batch KV length steps by exactly `rlp × tlp` — in one closed-form
//! call at the stretch's summed per-request KV length. The oracle is
//! `common::per_iteration`: one `decide` and one `price_iteration` per
//! record, accumulated field by field. Hand-built traces exercise what
//! generated ones never do: KV steps off the `rlp × tlp` grid, jumps
//! and empty contexts inside a run, runs of one iteration, and shapes
//! that alternate across α.
//!
//! Integer fields, labels and the placement series must match exactly;
//! every float within [`TOLERANCE`] relative. The closed form is the
//! exact sum in real arithmetic, but it multiplies where the oracle
//! adds record by record, so the two round differently: by under 1e-15
//! relative on these traces and 7e-14 on the Fig. 8 grid. A pricing
//! error is far larger: one token too many in a stretch's summed KV
//! length moved a path by 1.1e-5 on the smallest trace that shows it.

mod common;

use papi::core::{DecodingSimulator, SystemConfig};
use papi::llm::ModelPreset;
use papi::workload::{DecodeTrace, IterationRecord};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The largest relative deviation of any float path from the oracle.
const TOLERANCE: f64 = 1e-12;

/// PAPI at two α values that the shapes below cross in both
/// directions, its calibrated α, and the two static placements.
fn configs() -> &'static [SystemConfig] {
    static CONFIGS: OnceLock<Vec<SystemConfig>> = OnceLock::new();
    CONFIGS.get_or_init(|| {
        let llama = ModelPreset::Llama65B.config();
        vec![
            SystemConfig::papi_with_alpha(llama.clone(), 24.0),
            SystemConfig::papi_with_alpha(ModelPreset::Opt30B.config(), 6.0),
            SystemConfig::papi(llama.clone()),
            SystemConfig::a100_attacc(llama.clone()),
            SystemConfig::pim_only_papi(llama),
        ]
    })
}

/// A run as `(rlp, tlp, steps)`. Each record draws a `(kind, amount)`
/// step that moves the batch's KV length in from the record before:
/// mostly by the previous record's `rlp × tlp` (the grid every
/// generated trace keeps), else by a small off-grid amount, to an
/// arbitrary total, or to an empty context.
type Run = (u64, u64, Vec<(u8, u64)>);

fn trace_of(start: u64, runs: &[Run]) -> DecodeTrace {
    let mut trace = DecodeTrace::default();
    let mut total_kv_len = start;
    let mut last_shape: Option<(u64, u64)> = None;
    for &(rlp, tlp, ref steps) in runs {
        for &(kind, amount) in steps {
            if let Some((last_rlp, last_tlp)) = last_shape {
                total_kv_len = match kind {
                    0..=2 => total_kv_len + last_rlp * last_tlp,
                    3 => total_kv_len + amount % 200,
                    4 => amount,
                    _ => 0,
                };
            }
            last_shape = Some((rlp, tlp));
            trace.iterations.push(IterationRecord {
                rlp,
                tlp,
                total_kv_len,
                max_kv_len: total_kv_len,
                new_tokens: rlp * tlp,
                finished: 0,
            });
            trace.total_tokens += rlp * tlp;
        }
    }
    trace.requests = 1;
    trace
}

/// Asserts the engine prices `trace` as the per-iteration loop does on
/// every config, within [`TOLERANCE`], naming the report paths that
/// moved. Prints each new largest deviation (`--nocapture` shows them).
fn check(trace: &DecodeTrace) {
    static WORST: AtomicU64 = AtomicU64::new(0);
    for config in configs() {
        let worst = common::assert_close(
            config.design.label(),
            &common::per_iteration(config, trace),
            &DecodingSimulator::new(config.clone()).run_trace(trace),
            TOLERANCE,
        );
        // Non-negative floats order as their bits do.
        if worst.to_bits() > WORST.fetch_max(worst.to_bits(), Ordering::Relaxed) {
            println!("largest deviation from the oracle so far: {worst:e}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Runs of random shapes, lengths from one record up, and KV steps
    /// on and off the grid, from an empty or a filled first context.
    #[test]
    fn run_pricing_matches_the_per_iteration_loop(
        start in (proptest::bool::ANY, 0u64..20_000),
        runs in proptest::collection::vec(
            (1u64..33, 1u64..5, proptest::collection::vec((0u8..6, 0u64..20_000), 1..6)),
            0..10,
        ),
    ) {
        let (empty, start) = start;
        check(&trace_of(if empty { 0 } else { start }, &runs));
    }

    /// Shapes alternating across α = 24 (`5 × 5` above it, `4 × 6` at
    /// it) in runs of one to three records, every step on the grid, so
    /// each run carries its KV length on from a fresh division.
    #[test]
    fn alternating_shapes_match_the_per_iteration_loop(
        start in 0u64..20_000,
        lens in proptest::collection::vec(1usize..4, 1..12),
    ) {
        let runs: Vec<Run> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                let (rlp, tlp) = if i % 2 == 0 { (5, 5) } else { (4, 6) };
                (rlp, tlp, vec![(0, 0); len])
            })
            .collect();
        check(&trace_of(start, &runs));
    }
}
