//! Oracle test for `DecodingSimulator::run_trace` on traces the
//! generator never writes.
//!
//! The engine decides FC placement once per run of constant
//! `(rlp, tlp)` and carries the per-request KV length forward by `tlp`
//! while the batch's grows by `rlp × tlp`. The oracle here is the plain
//! per-iteration loop: one `decide` and one `price_iteration` per
//! record, accumulated field by field. Hand-built traces exercise what
//! generated ones never do: KV steps off the `rlp × tlp` grid, jumps
//! and empty contexts inside a run, runs of one iteration, and shapes
//! that alternate across α.

mod common;

use papi::core::{
    DecodingSimulator, ExecutionReport, IterationPricer, PhaseBreakdown, RunLength, SystemConfig,
};
use papi::llm::ModelPreset;
use papi::types::{Energy, Time};
use papi::workload::{DecodeTrace, IterationRecord};
use proptest::prelude::*;
use std::sync::OnceLock;

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

/// What the engine reported before it priced a run at a time: every
/// record decided and priced on its own.
fn per_iteration(config: &SystemConfig, trace: &DecodeTrace) -> ExecutionReport {
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
/// every config, naming the report paths that moved.
fn check(trace: &DecodeTrace) {
    for config in configs() {
        common::assert_same(
            config.design.label(),
            &per_iteration(config, trace),
            &DecodingSimulator::new(config.clone()).run_trace(trace),
        );
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
