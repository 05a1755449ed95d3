//! The cluster headline: how should 4 PAPI nodes be organized?
//!
//! One tensor-parallel group of 4 nodes (`1x TP4`) puts every device
//! pool behind a single batch: each decoding iteration is ~4× faster
//! (minus the per-layer activation all-reduce over InfiniBand, priced
//! through the shared `IterationPricer`), so a lone request sees the
//! lowest TPOT. Four independent replicas (`4x TP1`) behind a
//! join-shortest-queue router run four queues and four batch windows:
//! once the offered load saturates a single queue, the DP fleet
//! sustains more SLO goodput. `2x TP2` sits between. Same four nodes,
//! opposite ends of the latency/throughput trade.
//!
//! ```sh
//! cargo run --release --example cluster_serving
//! ```

use papi::core::experiments::{sweep, SweepRow};
use papi::core::{ClusterSpec, DesignKind, SessionTuning, SloSpec};
use papi::llm::ModelPreset;
use papi::workload::{DatasetKind, PolicySpec, ServingWorkload};

fn main() {
    let shapes = [(4usize, 1usize), (2, 2), (1, 4)];
    println!(
        "LLaMA-65B on 4 PIM-only PAPI nodes, general-qa, 96 Poisson requests\n\
         per point, batch cap 32 per replica, join-shortest-queue routing,\n\
         SLO: TTFT ≤ 2 s, TPOT ≤ 60 ms\n"
    );
    let slo = SloSpec::interactive(2_000.0, 60.0);
    let (mut keys, mut points) = (Vec::new(), Vec::new());
    for rate in [0.5, 4.0, 16.0, 32.0, 64.0] {
        for (tp, dp) in shapes {
            let model = ModelPreset::Llama65B.config();
            let spec = ClusterSpec::new(DesignKind::PimOnlyPapi, model, tp, dp)
                .with_routing(PolicySpec::JoinShortestQueue)
                .with_tuning(SessionTuning::default().with_max_batch(32));
            let workload = ServingWorkload::poisson(DatasetKind::GeneralQa, rate, 96);
            keys.push((rate, tp, dp));
            points.push((spec, workload.with_seed(42)));
        }
    }
    let reports = sweep(&points);
    let rows: Vec<_> = reports.iter().map(|r| SweepRow::new(r, &slo)).collect();

    println!(
        "{:>6} {:8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>6}",
        "rate",
        "shape",
        "ttft-p50",
        "ttft-p99",
        "tpot-p50",
        "tpot-p99",
        "goodput",
        "attain",
        "used"
    );
    let mut last_rate = f64::NAN;
    for (&(rate, tp, dp), row) in keys.iter().zip(&rows) {
        if rate != last_rate {
            println!();
            last_rate = rate;
        }
        let shape = format!("{dp}x TP{tp}");
        println!(
            "{:>5.1}/s {:8} {:>7.0}ms {:>7.0}ms {:>7.1}ms {:>7.1}ms {:>6.2}r/s {:>7.0}% {:>3}/{}",
            rate,
            shape,
            row.ttft_p50_ms,
            row.ttft_p99_ms,
            row.tpot_p50_ms,
            row.tpot_p99_ms,
            row.goodput_rps,
            row.slo_attainment * 100.0,
            row.replicas_used,
            dp,
        );
    }

    let at = |tp: usize, dp: usize, rate: f64| {
        let idx = keys.iter().position(|&k| k == (rate, tp, dp));
        &rows[idx.expect("swept point")]
    };

    let low = 0.5;
    let high = 64.0;
    let tp4 = at(4, 1, low);
    let dp4 = at(1, 4, low);
    println!(
        "\nLatency (single-request regime, {low}/s): TP wins.\n  \
         1x TP4 p50 TPOT {:.1} ms vs 4x TP1 {:.1} ms ({:.2}x faster per token)",
        tp4.tpot_p50_ms,
        dp4.tpot_p50_ms,
        dp4.tpot_p50_ms / tp4.tpot_p50_ms,
    );
    let tp4_hot = at(4, 1, high);
    let dp4_hot = at(1, 4, high);
    println!(
        "Throughput (saturating regime, {high}/s): DP wins.\n  \
         4x TP1 goodput {:.2} r/s vs 1x TP4 {:.2} r/s ({:.2}x the goodput)",
        dp4_hot.goodput_rps,
        tp4_hot.goodput_rps,
        dp4_hot.goodput_rps / tp4_hot.goodput_rps.max(1e-9),
    );
}
