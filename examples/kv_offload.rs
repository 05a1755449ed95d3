//! Spill-to-host offload: what a KV capacity tier buys under thrash.
//!
//! A long-context multi-turn fleet resends ~4k-token conversation
//! contexts faster than the PIM-only attention pool can cache them.
//! Without a tier, LRU eviction discards each cold context, and the
//! next turn re-prefills it from scratch — the pool thrashes and TPOT
//! collapses under the recompute load. With a host-DRAM tier (L3's
//! DIMM-PIM shape), eviction becomes a *spill*: the context's logical
//! record survives below the pool, and when its conversation returns,
//! the engine fetches it back over a DDR5 DIMM channel instead of
//! re-prefilling — paying a transfer that lands, honestly, in that
//! request's TTFT.
//!
//! Two runs on the same workload and hot pool: plain eviction, and the
//! tier behind the DIMM channel.
//!
//! ```sh
//! cargo run --release --example kv_offload
//! ```

use papi::core::{
    DesignKind, KvTierSpec, ServingEngine, ServingReport, SessionTuning, SloSpec, SystemConfig,
};
use papi::llm::ModelPreset;
use papi::workload::{ConversationDataset, DatasetKind, ServingWorkload};

/// The paged hot pool every run shares: 16-token blocks with prefix
/// sharing, batches of 16.
fn paged() -> SessionTuning {
    SessionTuning::new()
        .with_max_batch(16)
        .with_kv_block_size(16)
        .with_prefix_sharing(true)
}

fn engine(tuning: SessionTuning) -> ServingEngine {
    ServingEngine::new(SystemConfig::build(
        DesignKind::PimOnlyPapi,
        ModelPreset::Gpt3_175B.config(),
    ))
    .with_tuning(tuning)
}

fn row(label: &str, report: &ServingReport, slo: &SloSpec) {
    let ttft = report.ttft_summary().expect("non-empty episode");
    println!(
        "  {label:<10} goodput {:>6.4} req/s | SLO {:>5.1}% | TTFT p50 {:>5.0} s p99 {:>6.0} s | \
         hit rate {:>4.1}% | fetches {:>3} ({:>6} tok, {:>5.1} s priced) | spills {:>3}",
        report.goodput(slo),
        report.slo_attainment(slo) * 100.0,
        ttft.p50.as_secs(),
        ttft.p99.as_secs(),
        report.kv.hit_rate() * 100.0,
        report.kv.tier_fetches,
        report.kv.tier_fetched_tokens,
        report.kv.tier_fetch_time_s,
        report.kv.tier_spills,
    );
}

fn main() {
    println!("== Long-context thrash: evict vs spill-to-host (same hot pool) ==");
    let workload = ServingWorkload::poisson(
        ConversationDataset::multi_turn(DatasetKind::LongContext, 4096, 3),
        1.0,
        120,
    )
    .with_seed(23);
    // The fleet is saturated — queueing dominates TTFT — so the SLO
    // sits at the saturation scale; what separates the runs is whether
    // re-landing turns recompute their context or fetch it.
    let slo = SloSpec::interactive(600_000.0, 400.0);

    let evict = engine(paged()).run(&workload);
    let dimm = engine(paged().with_kv_tier(KvTierSpec::new(60_000))).run(&workload);

    row("evict", &evict, &slo);
    row("tier-dimm", &dimm, &slo);

    println!(
        "\n  -> the tier serves {:.1}x the SLO goodput: {} of {} evictions spilled, \
         {} fetches restored {} tokens instead of re-prefilling them",
        dimm.goodput(&slo) / evict.goodput(&slo).max(1e-12),
        dimm.kv.tier_spills,
        dimm.kv.prefix_evictions,
        dimm.kv.tier_fetches,
        dimm.kv.tier_fetched_tokens,
    );
    println!(
        "  -> makespan {:.0} s -> {:.0} s; prefill work {} -> {} tokens",
        evict.makespan.as_secs(),
        dimm.makespan.as_secs(),
        evict.kv.prefilled_tokens,
        dimm.kv.prefilled_tokens,
    );

    // The claims this example exists to demonstrate.
    assert!(
        dimm.goodput(&slo) > 2.0 * evict.goodput(&slo),
        "tier goodput {:.4} must materially beat eviction {:.4}",
        dimm.goodput(&slo),
        evict.goodput(&slo)
    );
    assert!(dimm.kv.tier_fetches > 0 && dimm.kv.tier_fetch_time_s > 0.0);
    assert!(dimm.kv.hit_rate() > evict.kv.hit_rate());

    println!("\nSpill-to-host offload holds on this machine's build.");
}
