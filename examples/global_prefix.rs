//! Fleet-wide prefix sharing: a global KV tier over the inter-node
//! fabric.
//!
//! A 2-replica PIM-only fleet serves long-context multi-turn
//! conversations hot enough to thrash every replica's attention pool.
//! With private capacity tiers, a conversation's context survives
//! eviction only on its *home* replica: any turn that lands elsewhere
//! re-prefills tens of thousands of tokens from scratch. The
//! fleet-shared tier
//! (`SharedTierSpec`) registers every replica's spilled records in one
//! fleet-wide directory — coherence is free because records are
//! immutable token counts — and a fork-miss that also misses the local
//! tier re-materializes the prefix from its owning replica at
//! inter-node fabric cost: the wire time lands in that request's TTFT,
//! the wire energy in its replica's report, and both are attributed
//! fleet-wide in `GlobalTierReport`.
//!
//! `shared-tier-affinity` routing closes the loop in the control
//! plane: it routes like `prefix-affinity` until the arriving
//! conversation's prefix is directory-resident *and* the home replica
//! is pressured — then stickiness buys nothing the fabric can't, so it
//! relaxes to join-shortest-queue.
//!
//! ```sh
//! cargo run --release --example global_prefix
//! ```

use papi::core::experiments::{sweep, SweepRow};
use papi::core::{
    ClusterReport, ClusterSpec, DesignKind, KvTierSpec, SessionTuning, SharedTierSpec, SloSpec,
};
use papi::llm::ModelPreset;
use papi::workload::{ConversationDataset, DatasetKind, PolicySpec, ServingWorkload};

/// `"off"` for a private-tier fleet, else the fabric pricing label.
fn shared_tier(report: &ClusterReport) -> &str {
    report
        .global_tier
        .as_ref()
        .map_or("off", |g| g.pricing.as_str())
}

/// Wire seconds the fleet's remote fetches paid.
fn wire_s(report: &ClusterReport) -> f64 {
    report
        .replicas
        .iter()
        .map(|r| r.kv.remote_fetch_time_s)
        .sum()
}

fn main() {
    println!(
        "GPT-3 175B on 2 PIM-only PAPI replicas, long-context chat: 10 conversations\n\
         x 12 turns (~8k-token system prompts growing to ~26k contexts), hash homes\n\
         split 7/3 across the fleet, prefix sharing on, private spill tier of 60k\n\
         blocks per replica, 120 requests per point, SLO: TTFT <= 8 s, TPOT <= 80 ms\n"
    );
    let slo = SloSpec::interactive(8_000.0, 80.0);
    let tuning = SessionTuning::default()
        .with_max_batch(16)
        .with_kv_block_size(16)
        .with_prefix_sharing(true)
        .with_kv_tier(KvTierSpec::new(60_000));
    let model = ModelPreset::Gpt3_175B.config();
    let fleet = ClusterSpec::new(DesignKind::PimOnlyPapi, model, 1, 2).with_tuning(tuning);
    let shared_tiers = [None, Some(SharedTierSpec::new())];
    let chat = ConversationDataset::multi_turn(DatasetKind::LongContext, 8192, 12);
    // Rate-major, then shared-tier configuration, then policy.
    let (mut rates, mut points) = (Vec::new(), Vec::new());
    for rate in [0.1, 0.15, 0.2] {
        let workload = ServingWorkload::poisson(chat, rate, 120).with_seed(23);
        for shared_tier in &shared_tiers {
            for routing in [
                PolicySpec::JoinShortestQueue,
                PolicySpec::prefix_affinity(),
                PolicySpec::shared_tier_affinity(),
            ] {
                let spec = ClusterSpec {
                    routing,
                    shared_tier: shared_tier.clone(),
                    ..fleet.clone()
                };
                rates.push(rate);
                points.push((spec, workload.clone()));
            }
        }
    }
    let reports = sweep(&points);
    let rows: Vec<SweepRow> = reports
        .iter()
        .map(|report| SweepRow::new(report, &slo))
        .collect();

    println!(
        "{:22} {:>14} {:>8} {:>9} {:>9} {:>7} {:>7} {:>9} {:>9}",
        "policy",
        "shared-tier",
        "hit-rate",
        "goodput",
        "ttft-p99",
        "attain",
        "fetches",
        "wire-GB",
        "wire-s"
    );
    let mut last_tier = "";
    for (report, row) in reports.iter().zip(&rows) {
        if shared_tier(report) != last_tier {
            println!();
            last_tier = shared_tier(report);
        }
        let global = report.global_tier.as_ref();
        println!(
            "{:22} {:>14} {:>7.1}% {:>7.2}r/s {:>7.0}ms {:>6.0}% {:>7} {:>9.1} {:>9.2}",
            report.routing,
            shared_tier(report),
            row.cache_hit_rate * 100.0,
            row.goodput_rps,
            row.ttft_p99_ms,
            row.slo_attainment * 100.0,
            global.map_or(0, |g| g.fetches),
            global.map_or(0.0, |g| g.bytes / 1e9),
            wire_s(report),
        );
    }

    // The headline rate: hot enough that the 7-conversation home
    // replica thrashes its pool mid-episode, so spilled prefixes are
    // directory-resident while later turns are still arriving.
    let headline = 0.15;
    let at = |routing: &str, tier: &str| {
        let idx = (0..reports.len()).find(|&i| {
            rates[i] == headline
                && reports[i].routing == routing
                && shared_tier(&reports[i]) == tier
        });
        idx.expect("swept point")
    };
    let private = &rows[at("prefix-affinity", "off")];
    let shared_idx = at("shared-tier-affinity", "InfiniBand-NDR");
    let shared = &rows[shared_idx];
    let shared_wire_s = wire_s(&reports[shared_idx]);
    let fabric = reports[shared_idx]
        .global_tier
        .as_ref()
        .expect("shared tier");

    println!(
        "\nShared tier + shared-tier-affinity vs private-tier prefix-affinity:\n\
         fleet hit rate {:.1}% -> {:.1}%, goodput {:.2} -> {:.2} r/s, paying\n\
         {} remote fetches = {:.1} GB / {:.2} s of wire / {:.1} J (honestly in TTFT).",
        private.cache_hit_rate * 100.0,
        shared.cache_hit_rate * 100.0,
        private.goodput_rps,
        shared.goodput_rps,
        fabric.fetches,
        fabric.bytes / 1e9,
        shared_wire_s,
        fabric.energy.value(),
    );

    // The acceptance headline: the shared tier must lift both fleet
    // hit rate and SLO goodput over the private-tier baseline.
    assert!(
        shared.cache_hit_rate > private.cache_hit_rate,
        "shared tier must lift fleet hit rate: {:.3} vs {:.3}",
        shared.cache_hit_rate,
        private.cache_hit_rate
    );
    assert!(
        shared.goodput_rps > private.goodput_rps,
        "shared tier must lift goodput: {:.3} vs {:.3}",
        shared.goodput_rps,
        private.goodput_rps
    );
    assert!(fabric.fetches > 0, "the win must use the fabric");
    assert!(fabric.bytes > 0.0 && shared_wire_s > 0.0);
    println!("\nThe ROADMAP's fleet-wide prefix-sharing item is closed on this build.");
}
