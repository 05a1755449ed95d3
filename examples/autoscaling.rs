//! Elastic autoscaling: rent replicas when the diurnal curve needs
//! them, not all day.
//!
//! A fleet sized for the evening peak idles through the trough; one
//! sized for the trough melts at rush hour. This example serves one
//! compressed diurnal cycle (sinusoidal arrivals, trough-to-peak
//! swing of ~12x) two ways over the same 6-replica PIM-only fleet:
//!
//! - **fixed**: all 6 replicas active the whole episode — the
//!   peak-provisioned baseline every capacity planner starts from.
//! - **autoscaled**: a queue-depth policy decides every 5 simulated
//!   seconds; replicas drain when the mean active queue empties and
//!   spin up (10 s cold start, flushed caches) when it builds. The
//!   consistent-hash ring keeps prefix-affinity homes stable across
//!   scale events, so only ~1/N of conversations re-home per event.
//!
//! The autoscaled fleet must hold SLO goodput within a few percent of
//! fixed-peak while renting far fewer replica-hours — the honest cost
//! currency (`FleetCostReport`) — at comparable energy per SLO-good
//! token.
//!
//! The second half replays a flash crowd (quiet baseline, sudden
//! spikes) against a scaled-down fleet: the cost report's scale-event
//! log shows cold `Warming` activations, and the tail TTFT shows the
//! warm-up lag elasticity pays at spike onset — the trade the
//! spin-up knob controls.
//!
//! ```sh
//! cargo run --release --example autoscaling
//! ```

use papi::core::experiments::{sweep, SweepRow};
use papi::core::{
    AutoscalePolicySpec, AutoscaleSpec, ClusterSpec, DesignKind, SessionTuning, SloSpec,
};
use papi::llm::ModelPreset;
use papi::workload::{
    ArrivalProcess, ConversationDataset, DatasetKind, PolicySpec, ServingWorkload,
};

fn main() {
    let slo = SloSpec::interactive(2_000.0, 100.0);
    let tuning = SessionTuning::default()
        .with_max_batch(8)
        .with_kv_block_size(16)
        .with_prefix_sharing(true);
    // A prefix-affinity fleet of `dp` PIM-only replicas, fixed or elastic.
    let fleet = |dp, autoscale| ClusterSpec {
        autoscale,
        ..ClusterSpec::new(
            DesignKind::PimOnlyPapi,
            ModelPreset::Llama65B.config(),
            1,
            dp,
        )
        .with_routing(PolicySpec::prefix_affinity())
        .with_tuning(tuning.clone())
    };

    // ----- Part 1: one compressed diurnal cycle, fixed vs autoscaled.
    println!(
        "Llama-65B on up to 6 PIM-only PAPI replicas, multi-turn chat over one\n\
         compressed diurnal cycle: 0.5 -> 4.0 req/s sinusoid (period 600 s, 10%\n\
         noise), 1400 requests, prefix-affinity routing over the consistent-hash\n\
         ring, SLO: TTFT <= 2 s, TPOT <= 100 ms.\n"
    );
    let diurnal = ServingWorkload::new(
        ConversationDataset::multi_turn(DatasetKind::GeneralQa, 256, 2),
        ArrivalProcess::Diurnal {
            base_rate_per_sec: 0.5,
            peak_rate_per_sec: 4.0,
            period_s: 600.0,
            noise: 0.1,
        },
        1400,
    )
    .with_seed(29);
    // Scale up early (half a request queued per active replica) so the
    // one-at-a-time spin-up pipeline keeps pace with the morning ramp.
    let autoscale = AutoscaleSpec::new(
        AutoscalePolicySpec::QueueDepthTarget {
            scale_up_depth: 0.3,
            scale_down_depth: 0.02,
        },
        slo,
    )
    .with_min_replicas(2)
    .with_initial_replicas(2)
    .with_spin_up(6.0)
    .with_decide_interval(2.5);
    let reports = sweep(&[
        (fleet(6, None), diurnal.clone()),
        (fleet(6, Some(autoscale)), diurnal),
    ]);
    let rows: Vec<_> = reports.iter().map(|r| SweepRow::new(r, &slo)).collect();
    // The fixed fleet rents all 6 replicas for the whole episode.
    let hours: Vec<_> = reports
        .iter()
        .map(|r| {
            r.fleet_cost
                .as_ref()
                .map_or(6.0 * r.makespan().value() / 3600.0, |c| c.provisioned_hours)
        })
        .collect();

    println!(
        "{:28} {:>9} {:>7} {:>9} {:>10} {:>7} {:>8} {:>10}",
        "provisioning",
        "goodput",
        "attain",
        "ttft-p99",
        "repl-hours",
        "peak",
        "events",
        "J/goodtok"
    );
    for ((report, row), hours) in reports.iter().zip(&rows).zip(&hours) {
        let cost = report.fleet_cost.as_ref();
        println!(
            "{:28} {:>7.2}r/s {:>6.0}% {:>7.0}ms {:>10.3} {:>7} {:>8} {:>10.2}",
            cost.map_or("fixed", |c| c.policy.as_str()),
            row.goodput_rps,
            row.slo_attainment * 100.0,
            row.ttft_p99_ms,
            hours,
            cost.map_or(6, |c| c.peak_active),
            cost.map_or(0, |c| c.scale_events.len()),
            row.energy_per_good_token_j,
        );
    }
    let fixed = &rows[0];
    let elastic = &rows[1];
    let (fixed_hours, elastic_hours) = (hours[0], hours[1]);
    let elastic_cost = reports[1].fleet_cost.as_ref().expect("elastic cost report");
    let hours_saved = 1.0 - elastic_hours / fixed_hours;
    let goodput_gap = 1.0 - elastic.goodput_rps / fixed.goodput_rps;
    println!(
        "\nAutoscaling rented {:.1}% fewer replica-hours ({:.3} vs {:.3}) and held\n\
         goodput within {:.1}% of the fixed-peak fleet ({:.2} vs {:.2} r/s), at\n\
         {:.2} vs {:.2} J per SLO-good token.",
        hours_saved * 100.0,
        elastic_hours,
        fixed_hours,
        goodput_gap.max(0.0) * 100.0,
        elastic.goodput_rps,
        fixed.goodput_rps,
        elastic.energy_per_good_token_j,
        fixed.energy_per_good_token_j,
    );

    // The acceptance headline: near-peak goodput at a large
    // replica-hour saving, without an energy-per-good-token blowup.
    assert!(
        goodput_gap < 0.05,
        "autoscaled goodput must stay within 5% of fixed-peak: {:.3} vs {:.3} r/s",
        elastic.goodput_rps,
        fixed.goodput_rps
    );
    assert!(
        hours_saved > 0.25,
        "autoscaling must save at least 25% of replica-hours: {elastic_hours:.3} vs {fixed_hours:.3}"
    );
    assert!(
        elastic.energy_per_good_token_j <= fixed.energy_per_good_token_j * 1.10,
        "energy per good token must not blow up: {:.3} vs {:.3} J",
        elastic.energy_per_good_token_j,
        fixed.energy_per_good_token_j
    );
    assert!(
        !elastic_cost.scale_events.is_empty(),
        "the saving must come from scaling"
    );

    // ----- Part 2: flash crowd — what the warm-up lag costs.
    println!(
        "\nFlash crowd on the same hardware, 4 replicas max: 0.5 req/s baseline,\n\
         12 req/s spikes for 10 s every 60 s, 400 requests. The autoscaled fleet\n\
         starts at 1 replica (10 s spin-up) and must provision *during* the spike.\n"
    );
    let crowd = ServingWorkload::new(
        ConversationDataset::multi_turn(DatasetKind::GeneralQa, 256, 2),
        ArrivalProcess::FlashCrowd {
            base_rate_per_sec: 0.5,
            spike_rate_per_sec: 12.0,
            spike_every_s: 60.0,
            spike_duration_s: 10.0,
        },
        400,
    )
    .with_seed(31);
    let elastic = AutoscaleSpec::new(AutoscalePolicySpec::queue_depth(), slo)
        .with_min_replicas(1)
        .with_initial_replicas(1)
        .with_spin_up(10.0)
        .with_decide_interval(2.0);
    let crowds = [
        (fleet(4, None), crowd.clone()),
        (fleet(4, Some(elastic)), crowd),
    ];
    let [fixed_crowd, elastic_crowd]: [_; 2] = sweep(&crowds).try_into().expect("two reports");
    let cost = elastic_crowd
        .fleet_cost
        .as_ref()
        .expect("elastic cost report");

    println!("scale-event log (first spikes):");
    for event in cost.scale_events.iter().take(12) {
        println!(
            "  t={:>7.1}s  replica {}  {} -> {}",
            event.at_s, event.replica, event.from, event.to
        );
    }
    if cost.scale_events.len() > 12 {
        println!("  ... {} more events", cost.scale_events.len() - 12);
    }
    let fixed_p99 = fixed_crowd.ttft_summary().expect("served").p99.as_millis();
    let elastic_p99 = elastic_crowd
        .ttft_summary()
        .expect("served")
        .p99
        .as_millis();
    println!(
        "\nfixed-peak:  ttft-p99 {:>7.0} ms, attainment {:>5.1}%, {:.3} replica-hours\n\
         autoscaled:  ttft-p99 {:>7.0} ms, attainment {:>5.1}%, {:.3} replica-hours\n\
         ({:.3} h warming = the spin-up lag, paid at each cold spike onset)",
        fixed_p99,
        fixed_crowd.slo_attainment(&slo) * 100.0,
        4.0 * fixed_crowd.makespan().value() / 3600.0,
        elastic_p99,
        elastic_crowd.slo_attainment(&slo) * 100.0,
        cost.provisioned_hours,
        cost.warming_hours,
    );

    // The trade must be visible in both directions: elasticity saves
    // hours but pays spin-up lag in the tail.
    assert_eq!(elastic_crowd.requests(), 400, "no request may be lost");
    assert!(
        cost.warming_hours > 0.0,
        "the spikes must force cold activations"
    );
    assert!(
        elastic_p99 >= fixed_p99,
        "warm-up lag should show in the autoscaled tail: {elastic_p99:.0} vs {fixed_p99:.0} ms"
    );
    assert!(
        cost.provisioned_hours < 4.0 * elastic_crowd.makespan().value() / 3600.0,
        "the elastic fleet must rent less than fixed-peak"
    );
    println!("\nThe ROADMAP's elastic-autoscaling item is closed on this build.");
}
