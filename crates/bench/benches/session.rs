//! Criterion benchmarks for the serving session's decode loop: ns per
//! decode iteration of a steady batch (every request decoding, nothing
//! queued or due) at RLP 1, 8 and 32 on a Llama-65B PAPI replica with
//! 16-token KV blocks.
//!
//! Each RLP is driven two ways: a `step()` loop, one iteration per call
//! (how `ServingEngine::run` and the sequential fleet loop advance a
//! replica), and `run_until` windows of about 16 iterations (how the
//! parallel fleet loop advances one between control-plane events, where
//! a window holds about 9). Batches are rebuilt outside the timer
//! before their requests run out of tokens.

use criterion::{criterion_group, criterion_main, Criterion};
use papi_core::{ServingEngine, ServingSession, SessionTuning, SystemConfig};
use papi_llm::ModelPreset;
use papi_workload::{ArrivalProcess, DatasetKind, Request, ServingRequest, ServingWorkload};
use std::time::{Duration, Instant};

const PROMPT: u64 = 512;
/// Iterations per `run_until` window.
const WINDOW: f64 = 16.0;

/// A session whose `rlp` requests are all admitted, prefilled and one
/// iteration into decoding, each with `output` tokens to generate; and
/// the simulated length of its latest iteration.
fn steady<'a>(
    engine: &'a ServingEngine,
    workload: &ServingWorkload,
    rlp: u64,
    output: u64,
) -> (ServingSession<'a>, f64) {
    let mut session = engine.open_session(workload);
    for id in 0..rlp {
        session.push(ServingRequest::new(Request::new(id, PROMPT, output), 0.0));
    }
    session.step();
    let before = session.clock();
    session.step();
    assert_eq!(
        session.snapshot().live,
        rlp as usize,
        "the batch is not steady"
    );
    let dt = session.clock() - before;
    (session, dt)
}

fn bench_decode(c: &mut Criterion) {
    let engine = ServingEngine::new(SystemConfig::papi(ModelPreset::Llama65B.config()))
        .with_tuning(SessionTuning::default().with_kv_block_size(16));
    let workload = ServingWorkload::new(DatasetKind::GeneralQa, ArrivalProcess::Immediate, 0);
    // Outputs sized so a whole batch fits the admission budget.
    let pool_tokens = engine.open_session(&workload).kv_pool_stats().total_blocks * 16;
    for rlp in [1u64, 8, 32] {
        let output = pool_tokens * 3 / 4 / rlp - PROMPT;
        // Iterations one batch serves before a rebuild (two went to
        // `steady`, and a window may overshoot its target).
        let per_batch = output - 2 - 2 * WINDOW as u64;
        c.bench_function(&format!("session_decode_step_rlp{rlp}"), |b| {
            b.iter_custom(|iters| {
                let mut elapsed = Duration::ZERO;
                let mut left = iters;
                while left > 0 {
                    let (mut session, _) = steady(&engine, &workload, rlp, output);
                    let chunk = left.min(per_batch);
                    let start = Instant::now();
                    for _ in 0..chunk {
                        session.step();
                    }
                    elapsed += start.elapsed();
                    left -= chunk;
                }
                elapsed
            })
        });
        c.bench_function(&format!("session_decode_run_until_rlp{rlp}"), |b| {
            b.iter_custom(|iters| {
                let mut elapsed = Duration::ZERO;
                let mut left = iters;
                while left > 0 {
                    let (mut session, dt) = steady(&engine, &workload, rlp, output);
                    let chunk = left.min(per_batch);
                    // Every iteration banks one token per request.
                    let base = session.kv_resident_tokens();
                    let mut done = 0;
                    let start = Instant::now();
                    while done < chunk {
                        session.run_until(session.clock() + WINDOW * dt);
                        done = (session.kv_resident_tokens() - base) / rlp;
                    }
                    // Charge the chunk its share of an overshooting window.
                    elapsed += start.elapsed().mul_f64(chunk as f64 / done as f64);
                    left -= chunk;
                }
                elapsed
            })
        });
    }
}

criterion_group!(benches, bench_decode);
criterion_main!(benches);
