//! The control-plane headline: routing is now a policy, and the right
//! policy recovers fleet-wide cache hits.
//!
//! A 4-replica PIM-only fleet serves multi-turn conversations with
//! prefix sharing on. Each replica's prefix cache is private, so a
//! conversation only hits if its turns keep landing on the same
//! replica. Join-shortest-queue is prefix-oblivious: it scatters turns
//! wherever the queue is short, and the fleet re-prefills contexts some
//! other replica already cached. `prefix-affinity` — a policy only the
//! trait-based `RoutePolicy` API can express, because it reads the
//! *request's* conversation key from the `RouteContext` — hashes each
//! conversation to a sticky home replica and spills only under KV
//! pressure. Same fleet, same DRAM, same workload: higher hit rate,
//! more goodput.
//!
//! ```sh
//! cargo run --release --example prefix_routing
//! ```

use papi::core::experiments::{sweep, SweepRow};
use papi::core::{ClusterSpec, DesignKind, SessionTuning, SloSpec};
use papi::llm::ModelPreset;
use papi::workload::{ConversationDataset, DatasetKind, PolicySpec, ServingWorkload};

fn main() {
    let policies = [PolicySpec::JoinShortestQueue, PolicySpec::prefix_affinity()];
    println!(
        "LLaMA-65B on 4 PIM-only PAPI replicas, multi-turn chat (15 conversations\n\
         x 4 turns, 512-token system prompt), prefix sharing on (16-token blocks),\n\
         60 requests per point, SLO: TTFT ≤ 4 s, TPOT ≤ 80 ms\n"
    );
    let slo = SloSpec::interactive(4_000.0, 80.0);
    let tuning = SessionTuning::default()
        .with_max_batch(16)
        .with_kv_block_size(16)
        .with_prefix_sharing(true);
    let model = ModelPreset::Llama65B.config();
    let chat = ConversationDataset::multi_turn(DatasetKind::GeneralQa, 512, 4);
    let (mut keys, mut points) = (Vec::new(), Vec::new());
    for rate in [2.0, 6.0, 12.0] {
        for policy in policies {
            let fleet = ClusterSpec::new(DesignKind::PimOnlyPapi, model.clone(), 1, 4)
                .with_routing(policy)
                .with_tuning(tuning.clone());
            keys.push((rate, policy));
            points.push((fleet, ServingWorkload::poisson(chat, rate, 60).with_seed(7)));
        }
    }
    let reports = sweep(&points);
    let rows: Vec<_> = reports.iter().map(|r| SweepRow::new(r, &slo)).collect();

    println!(
        "{:>6} {:20} {:>8} {:>9} {:>9} {:>9} {:>7} {:>6}",
        "rate", "policy", "hit-rate", "goodput", "ttft-p50", "ttft-p99", "attain", "used"
    );
    let mut last_rate = f64::NAN;
    for ((rate, policy), row) in keys.iter().zip(&rows) {
        if *rate != last_rate {
            println!();
            last_rate = *rate;
        }
        println!(
            "{:>5.1}/s {:20} {:>7.1}% {:>7.2}r/s {:>7.0}ms {:>7.0}ms {:>6.0}% {:>3}/4",
            rate,
            policy.label(),
            row.cache_hit_rate * 100.0,
            row.goodput_rps,
            row.ttft_p50_ms,
            row.ttft_p99_ms,
            row.slo_attainment * 100.0,
            row.replicas_used,
        );
    }

    let at = |policy: PolicySpec, rate: f64| {
        let idx = keys.iter().position(|&k| k == (rate, policy));
        &rows[idx.expect("swept point")]
    };
    let rate = 6.0;
    let jsq = at(PolicySpec::JoinShortestQueue, rate);
    let affinity = at(PolicySpec::prefix_affinity(), rate);
    println!(
        "\nAt {rate}/s: prefix-affinity hits {:.1}% of prefill demand vs JSQ's {:.1}%\n\
         ({:.2}x the fleet hit rate), and serves {:.2}x the goodput from the same DRAM.",
        affinity.cache_hit_rate * 100.0,
        jsq.cache_hit_rate * 100.0,
        affinity.cache_hit_rate / jsq.cache_hit_rate.max(1e-12),
        affinity.goodput_rps / jsq.goodput_rps.max(1e-12),
    );
    assert!(
        affinity.cache_hit_rate > jsq.cache_hit_rate,
        "prefix-affinity hit rate {:.3} must beat JSQ {:.3}",
        affinity.cache_hit_rate,
        jsq.cache_hit_rate
    );
    assert!(
        affinity.goodput_rps > jsq.goodput_rps,
        "prefix-affinity goodput {:.3} must beat JSQ {:.3}",
        affinity.goodput_rps,
        jsq.goodput_rps
    );
    println!(
        "(Past saturation the trade reverses — stickiness stacks hot queues while\n\
         JSQ balances them; pick the policy for the regime you run in.)\n\
         The ROADMAP's prefix-affinity open item is closed on this build."
    );
}
