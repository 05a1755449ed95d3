//! The disaggregation headline: split prefill and decode across pools
//! built for each phase, and pay for it with priced KV migration.
//!
//! PAPI's intra-node thesis — prefill/FC is compute-bound, decode
//! attention is memory-bound — scales to the fleet: a homogeneous
//! co-located fleet makes every node serve both phases on the same
//! hardware, while a role-split fleet routes arrivals to a GPU-heavy
//! prefill pool and migrates each prompt's KV blocks over the fabric
//! (a transfer priced by `MigrationPricing`) to a PIM-heavy decode pool.
//! Same node count, same per-node attention-pool DRAM (60 × 16 GB
//! stacks either way): the split pays real migration bytes and
//! latency, and buys back an order of magnitude of tail TTFT on
//! bursty long-context load — the regime where monolithic prefill
//! waves on PIM FPUs crater the co-located fleet.
//!
//! ```sh
//! cargo run --release --example disaggregated_serving
//! ```

use papi::core::experiments::{sweep, SweepRow};
use papi::core::{ClusterSpec, DesignKind, SessionTuning, SloSpec};
use papi::llm::ModelPreset;
use papi::workload::{ArrivalProcess, DatasetKind, MigrationSpec, ReplicaRole, ServingWorkload};

fn main() {
    println!(
        "LLaMA-65B, long-context bursty load (synchronized prompt bursts), 64 requests\n\
         per point, 4 nodes per fleet at equal attention-pool DRAM,\n\
         SLO: TTFT <= 10 s, TPOT <= 120 ms\n"
    );
    let slo = SloSpec::interactive(10_000.0, 120.0);
    let tuning = SessionTuning::default().with_max_batch(16);
    let model = ModelPreset::Llama65B.config();
    let colocated = ClusterSpec::new(DesignKind::PimOnlyPapi, model, 1, 4).with_tuning(tuning);
    // Same node count: 2 GPU-heavy prefill nodes hand off to 2 PIM-heavy
    // decode nodes.
    let split = colocated
        .clone()
        .with_roles([[ReplicaRole::Prefill; 2], [ReplicaRole::Decode; 2]].concat())
        .with_prefill_design(DesignKind::A100AttAcc)
        .with_migration(MigrationSpec::JoinShortestQueue);
    let fleets = [
        ("4x PIM-only PAPI colocated", colocated),
        ("2x A100+AttAcc prefill + 2x PIM-only PAPI decode", split),
    ];
    // Burst-major, the co-located baseline first at each burst shape.
    let (mut keys, mut points) = (Vec::new(), Vec::new());
    for (burst_size, interval_sec) in [(8, 6.0), (16, 10.0), (32, 16.0)] {
        let bursts = ArrivalProcess::Bursty {
            burst_size,
            interval_sec,
        };
        let workload = ServingWorkload::new(DatasetKind::LongContext, bursts, 64).with_seed(7);
        for (label, spec) in &fleets {
            keys.push((burst_size, interval_sec, *label));
            points.push((spec.clone(), workload.clone()));
        }
    }
    let reports = sweep(&points);
    let rows: Vec<_> = reports.iter().map(|r| SweepRow::new(r, &slo)).collect();

    println!(
        "{:>5} {:>6} {:48} {:>9} {:>9} {:>9} {:>9} {:>6} {:>8} {:>8}",
        "burst",
        "gap",
        "fleet",
        "goodput",
        "ttft-p99",
        "tpot-p99",
        "tok/s",
        "migr",
        "moved",
        "xfer-p99"
    );
    let mut last_burst = 0;
    for (&(burst_size, interval_s, label), (report, row)) in
        keys.iter().zip(reports.iter().zip(&rows))
    {
        if burst_size != last_burst {
            println!();
            last_burst = burst_size;
        }
        let migration = &report.migration;
        println!(
            "{:>5} {:>5.0}s {:48} {:>7.2}r/s {:>8.0}ms {:>8.0}ms {:>9.0} {:>6} {:>6.1}GB {:>6.0}ms",
            burst_size,
            interval_s,
            label,
            row.goodput_rps,
            row.ttft_p99_ms,
            row.tpot_p99_ms,
            row.tokens_per_sec,
            migration.migrations,
            migration.bytes / 1e9,
            migration.latency.map_or(0.0, |l| l.p99.as_millis()),
        );
    }

    // The headline comparison at the heaviest burst: the last pair of
    // points.
    let last = rows.len() - 1;
    let burst = keys[last].0;
    let (colocated, split) = (&rows[last - 1], &rows[last]);
    let migration = &reports[last].migration;
    println!(
        "\nAt bursts of {burst}: the split fleet's p99 TTFT is {:.0} ms vs {:.0} ms co-located\n\
         ({:.1}x better) while moving {:.1} GB of KV over the fabric ({} migrations,\n\
         p99 transfer {:.0} ms); goodput {:.2} vs {:.2} r/s.",
        split.ttft_p99_ms,
        colocated.ttft_p99_ms,
        colocated.ttft_p99_ms / split.ttft_p99_ms.max(1e-9),
        migration.bytes / 1e9,
        migration.migrations,
        migration.latency.map_or(0.0, |l| l.p99.as_millis()),
        split.goodput_rps,
        colocated.goodput_rps,
    );
    assert!(
        split.ttft_p99_ms < colocated.ttft_p99_ms,
        "the role split must beat co-located p99 TTFT at equal DRAM: {} vs {}",
        split.ttft_p99_ms,
        colocated.ttft_p99_ms
    );
    assert!(
        migration.migrations == 64,
        "every request migrates exactly once"
    );
}
