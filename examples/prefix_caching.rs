//! The paged KV-cache headline, in two acts.
//!
//! **Act 1 — prefix sharing.** A multi-turn chat fleet resends its
//! whole conversation context every turn. With scalar KV accounting
//! each turn re-prefills everything; with the paged pool and prefix
//! sharing, turn *k + 1* forks the cached blocks of turn *k*'s context
//! and prefills only the new user message. Same DRAM, same admission
//! headroom — materially higher goodput.
//!
//! **Act 2 — chunked prefill.** Bursts of long-context prompts hit a
//! PIM-only design whose prefill is compute-bound and slow. Monolithic
//! admission prices each wave as one giant prefill, so every request
//! behind it waits; chunked prefill meters the same work in bounded
//! chunks (shortest-remaining-first among the admitted), letting short
//! prompts start decoding while giants grind — p99 TTFT drops.
//!
//! ```sh
//! cargo run --release --example prefix_caching
//! ```

use papi::core::{DesignKind, ServingEngine, ServingReport, SessionTuning, SloSpec, SystemConfig};
use papi::llm::ModelPreset;
use papi::workload::{ArrivalProcess, ConversationDataset, DatasetKind, ServingWorkload};

/// Batches of 16, admission planning into `headroom` of the pool.
fn tuning(headroom: f64) -> SessionTuning {
    SessionTuning::new()
        .with_max_batch(16)
        .with_kv_headroom(headroom)
}

fn engine(design: DesignKind, tuning: SessionTuning) -> ServingEngine {
    ServingEngine::new(SystemConfig::build(design, ModelPreset::Llama65B.config()))
        .with_tuning(tuning)
}

fn row(label: &str, report: &ServingReport, slo: &SloSpec) {
    let ttft = report.ttft_summary().expect("non-empty episode");
    println!(
        "  {label:<14} goodput {:>5.2} req/s | SLO {:>5.1}% | TTFT p50 {:>7.0} ms p99 {:>8.0} ms | \
         hit rate {:>4.1}% | peak blocks {:>6} | preemptions {}",
        report.goodput(slo),
        report.slo_attainment(slo) * 100.0,
        ttft.p50.as_millis(),
        ttft.p99.as_millis(),
        report.kv.hit_rate() * 100.0,
        report.kv.peak_blocks_in_use,
        report.preemptions,
    );
}

fn main() {
    // ----- Act 1: prefix-cached goodput at equal DRAM ---------------
    println!("== Act 1: multi-turn chat, scalar vs paged+prefix (equal KV capacity) ==");
    let chat = ServingWorkload::poisson(
        ConversationDataset::multi_turn(DatasetKind::GeneralQa, 512, 4),
        4.0,
        160,
    )
    .with_seed(7);
    let slo = SloSpec::interactive(4_000.0, 80.0);
    let scalar = engine(DesignKind::PimOnlyPapi, tuning(0.05)).run(&chat);
    let paged = engine(
        DesignKind::PimOnlyPapi,
        tuning(0.05)
            .with_kv_block_size(16)
            .with_prefix_sharing(true),
    )
    .run(&chat);
    row("scalar", &scalar, &slo);
    row("paged+prefix", &paged, &slo);
    let gain = paged.goodput(&slo) / scalar.goodput(&slo).max(1e-12);
    println!(
        "  -> prefix caching serves {:.2}x the goodput from the same DRAM \
         ({} of {} prompt tokens forked from cache)\n",
        gain,
        paged.kv.cached_prompt_tokens,
        paged.kv.cached_prompt_tokens + paged.kv.prefilled_tokens,
    );
    assert!(
        paged.goodput(&slo) > scalar.goodput(&slo),
        "prefix-cached goodput {:.3} must beat the scalar baseline {:.3} at equal DRAM",
        paged.goodput(&slo),
        scalar.goodput(&slo)
    );
    assert!(paged.kv.hit_rate() > 0.2);

    // ----- Act 2: chunked prefill under bursty long prompts ---------
    println!("== Act 2: bursty long-context load, monolithic vs chunked prefill ==");
    let bursts = ServingWorkload::new(
        DatasetKind::LongContext,
        ArrivalProcess::Bursty {
            burst_size: 12,
            interval_sec: 40.0,
        },
        240,
    )
    .with_seed(17);
    let monolithic = engine(DesignKind::PimOnlyPapi, tuning(0.85)).run(&bursts);
    let chunked = engine(
        DesignKind::PimOnlyPapi,
        tuning(0.85).with_prefill_chunk(512),
    )
    .run(&bursts);
    row("monolithic", &monolithic, &slo);
    row("chunked-512", &chunked, &slo);
    let mono_p99 = monolithic.ttft_summary().unwrap().p99;
    let chunk_p99 = chunked.ttft_summary().unwrap().p99;
    println!(
        "  -> chunked prefill cuts p99 TTFT {:.1}x ({:.1} s -> {:.1} s) over {} prefill waves\n",
        mono_p99.value() / chunk_p99.value(),
        mono_p99.as_secs(),
        chunk_p99.as_secs(),
        chunked.kv.prefill_chunks,
    );
    assert!(
        chunk_p99.value() < mono_p99.value(),
        "chunked prefill p99 TTFT {chunk_p99} must beat monolithic {mono_p99}"
    );
    // Work conservation: chunking reprices the same prefill, it does
    // not skip any.
    assert_eq!(chunked.tokens, monolithic.tokens);
    assert_eq!(
        chunked.kv.prefilled_tokens, monolithic.kv.prefilled_tokens,
        "chunking must conserve prefill work"
    );

    println!("Both headline claims hold on this machine's build.");
}
