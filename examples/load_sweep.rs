//! The serving headline: SLO goodput across offered load.
//!
//! Sweeps Poisson arrival rates over PAPI and two baselines and prints
//! the goodput curve with TTFT/TPOT tail percentiles — the online
//! regime the ROADMAP targets and the seed's closed-batch pipeline
//! could not express. Watch two things: (1) every design saturates and
//! then sheds goodput as queueing blows the TTFT budget, with PAPI
//! saturating last; (2) the `switch` column shows PAPI's online
//! scheduler migrating FC between the PU and FC-PIM as the live batch
//! decays at the episode tail.
//!
//! ```sh
//! cargo run --release --example load_sweep
//! ```

use papi::core::experiments::{sweep, SweepRow};
use papi::core::{ClusterSpec, DesignKind, SessionTuning, SloSpec};
use papi::llm::ModelPreset;
use papi::workload::{DatasetKind, ServingWorkload};

fn main() {
    let designs = [
        DesignKind::Papi,
        DesignKind::A100AttAcc,
        DesignKind::PimOnlyPapi,
    ];
    println!(
        "LLaMA-65B, general-qa, 128 Poisson requests per point, batch cap 64,\n\
         SLO: TTFT ≤ 2 s, TPOT ≤ 60 ms\n"
    );
    let slo = SloSpec::interactive(2_000.0, 60.0);
    let (mut keys, mut points) = (Vec::new(), Vec::new());
    for rate in [0.5, 2.0, 8.0, 16.0, 32.0, 64.0] {
        for design in designs {
            // One node per point: a 1×TP1 fleet is the single-node engine.
            let node = ClusterSpec::new(design, ModelPreset::Llama65B.config(), 1, 1)
                .with_tuning(SessionTuning::default().with_max_batch(64));
            let workload = ServingWorkload::poisson(DatasetKind::GeneralQa, rate, 128);
            keys.push((rate, design));
            points.push((node, workload.with_seed(42)));
        }
    }
    let reports = sweep(&points);
    let rows: Vec<_> = reports.iter().map(|r| SweepRow::new(r, &slo)).collect();
    println!(
        "{:>6} {:14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>7}",
        "rate",
        "design",
        "ttft-p50",
        "ttft-p99",
        "tpot-p50",
        "tpot-p99",
        "goodput",
        "attain",
        "switch"
    );
    let mut last_rate = f64::NAN;
    for (&(rate, design), row) in keys.iter().zip(&rows) {
        if rate != last_rate {
            println!();
            last_rate = rate;
        }
        println!(
            "{:>5.1}/s {:14} {:>7.0}ms {:>7.0}ms {:>7.1}ms {:>7.1}ms {:>6.2}r/s {:>7.0}% {:>7}",
            rate,
            design.label(),
            row.ttft_p50_ms,
            row.ttft_p99_ms,
            row.tpot_p50_ms,
            row.tpot_p99_ms,
            row.goodput_rps,
            row.slo_attainment * 100.0,
            row.scheduler_switches,
        );
    }

    // The goodput knee per design: the highest offered load still
    // meeting the SLO for ≥ 90 % of requests.
    println!("\nSaturation (last rate with ≥ 90 % SLO attainment):");
    for design in designs {
        let knee = keys
            .iter()
            .zip(&rows)
            .filter(|((_, d), r)| *d == design && r.slo_attainment >= 0.9)
            .map(|((rate, _), _)| *rate)
            .fold(f64::NAN, f64::max);
        match knee.is_nan() {
            true => println!("  {:14} never meets the SLO at these loads", design.label()),
            false => println!("  {:14} {knee:.1} req/s", design.label()),
        }
    }
}
