//! Criterion benchmarks for iteration pricing: a pricer's own path (its
//! `(placement, rlp, tlp)` shape table plus the planned attention
//! kernel run at each KV length) versus the same pricer behind a warm
//! `SharedIterationCache`. Every session in every step mode prices
//! through the first path, so a regression there is a regression in
//! simulation throughput; the memo is only a reference point.

use criterion::{criterion_group, criterion_main, Criterion};
use papi_core::pricer::SharedIterationCache;
use papi_core::{IterationPricer, SystemConfig};
use papi_llm::ModelPreset;
use papi_sched::Placement;
use papi_workload::IterationRecord;
use std::hint::black_box;
use std::sync::Arc;

/// A decode-shaped sweep: single-request lanes with a sliding KV
/// length, the key distribution a serving fleet actually prices.
fn records() -> Vec<IterationRecord> {
    (0..256u64)
        .map(|i| IterationRecord {
            rlp: 1 + i % 4,
            tlp: 1,
            total_kv_len: 600 + i * 7 % 1000,
            max_kv_len: 600 + i * 7 % 1000,
            new_tokens: 1 + i % 4,
            finished: 0,
        })
        .collect()
}

fn bench_price_cold(c: &mut Criterion) {
    let config = SystemConfig::pim_only_papi(ModelPreset::Llama65B.config());
    let records = records();
    c.bench_function("price_iteration_cold", |b| {
        let mut pricer = IterationPricer::new(&config);
        b.iter(|| {
            let mut acc = 0.0;
            for it in &records {
                acc += pricer
                    .price_iteration(Placement::FcPim, black_box(it))
                    .total_time()
                    .value();
            }
            black_box(acc)
        })
    });
}

fn bench_price_memoized(c: &mut Criterion) {
    let config = SystemConfig::pim_only_papi(ModelPreset::Llama65B.config());
    let records = records();
    c.bench_function("price_iteration_memoized", |b| {
        let mut pricer = IterationPricer::new(&config);
        pricer.set_shared_cache(Arc::new(SharedIterationCache::new()));
        // Warm every shape so the timed loop measures pure hits.
        for it in &records {
            pricer.price_iteration(Placement::FcPim, it);
        }
        b.iter(|| {
            let mut acc = 0.0;
            for it in &records {
                acc += pricer
                    .price_iteration(Placement::FcPim, black_box(it))
                    .total_time()
                    .value();
            }
            black_box(acc)
        })
    });
}

criterion_group!(benches, bench_price_cold, bench_price_memoized);
criterion_main!(benches);
