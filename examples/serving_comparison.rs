//! Serve an online Poisson workload on all five systems and compare
//! the user-facing latency metrics the closed-batch paper figures
//! cannot express: queueing delay, TTFT, TPOT, tail percentiles, and
//! SLO goodput.
//!
//! ```sh
//! cargo run --release --example serving_comparison
//! ```

use papi::core::{DesignKind, ServingEngine, SessionTuning, SloSpec, SystemConfig};
use papi::llm::ModelPreset;
use papi::workload::{DatasetKind, ServingWorkload};

fn main() {
    let model = ModelPreset::Gpt3_66B.config();
    let designs = [
        DesignKind::A100AttAcc,
        DesignKind::A100HbmPim,
        DesignKind::AttAccOnly,
        DesignKind::PimOnlyPapi,
        DesignKind::Papi,
    ];
    let slo = SloSpec::interactive(1_000.0, 50.0);
    for dataset in [DatasetKind::CreativeWriting, DatasetKind::GeneralQa] {
        let workload = ServingWorkload::poisson(dataset, 3.0, 96).with_seed(23);
        println!(
            "\n=== {dataset} — GPT-3 66B, Poisson 3 req/s, 96 requests, \
             SLO: TTFT ≤ 1 s, TPOT ≤ 50 ms ==="
        );
        println!(
            "{:14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8}",
            "design",
            "ttft-p50",
            "ttft-p99",
            "tpot-p50",
            "tpot-p99",
            "queue-p99",
            "goodput",
            "attain",
            "switch"
        );
        for kind in designs {
            let engine = ServingEngine::new(SystemConfig::build(kind, model.clone()))
                .with_tuning(SessionTuning::new().with_max_batch(32));
            let report = engine.run(&workload);
            let ttft = report.ttft_summary().expect("episode served requests");
            let tpot = report.tpot_summary().expect("episode served requests");
            let queue = report.queueing_summary().expect("episode served requests");
            println!(
                "{:14} {:>7.0}ms {:>7.0}ms {:>7.1}ms {:>7.1}ms {:>7.0}ms {:>6.2}r/s {:>7.0}% {:>8}",
                report.design,
                ttft.p50.as_millis(),
                ttft.p99.as_millis(),
                tpot.p50.as_millis(),
                tpot.p99.as_millis(),
                queue.p99.as_millis(),
                report.goodput(&slo),
                report.slo_attainment(&slo) * 100.0,
                report.scheduler.switches,
            );
        }
    }
}
