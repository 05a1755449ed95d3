//! Machine-readable cluster sweep: the TP/DP trade across offered load.
//!
//! Sweeps fleet shapes (tensor-parallel width × data-parallel replicas)
//! over rising Poisson load and emits one JSON document on stdout. Each
//! row keys one point by its shape and rate and carries the point's
//! [`SweepRow`] headline numbers:
//!
//! ```json
//! {"schema":"papi-cluster-sweep/2","model":"LLaMA-65B","design":"PIM-only PAPI",
//!  "routing":"join-shortest-queue","rows":[
//!   {"shape":"4x TP1","tp_degree":1,"dp_replicas":4,"rate_per_sec":16.0,
//!    "row":{"requests":96,"goodput_rps":13.9,"tpot_p50_ms":4.0,...}}]}
//! ```
//!
//! Run with `cargo run --release -p papi-bench --bin cluster_sweep`.

use papi_core::experiments::{sweep, SweepRow};
use papi_core::{ClusterSpec, DesignKind, SessionTuning, SloSpec};
use papi_llm::ModelPreset;
use papi_workload::{DatasetKind, PolicySpec, ServingWorkload};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct SweepReport {
    schema: String,
    model: String,
    design: String,
    routing: String,
    rows: Vec<ShapeRow>,
}

/// One `(fleet shape, arrival rate)` point.
#[derive(Debug, Serialize)]
struct ShapeRow {
    shape: String,
    tp_degree: usize,
    dp_replicas: usize,
    rate_per_sec: f64,
    row: SweepRow,
}

fn main() {
    let design = DesignKind::PimOnlyPapi;
    let routing = PolicySpec::JoinShortestQueue;
    let slo = SloSpec::interactive(2_000.0, 60.0);
    // Rate-major, shape-minor.
    let keys: Vec<(f64, usize, usize)> = [0.5, 4.0, 16.0, 48.0]
        .into_iter()
        .flat_map(|rate| [(4, 1), (2, 2), (1, 4)].map(|(tp, dp)| (rate, tp, dp)))
        .collect();
    let points: Vec<_> = keys
        .iter()
        .map(|&(rate, tp, dp)| {
            (
                ClusterSpec::new(design, ModelPreset::Llama65B.config(), tp, dp)
                    .with_routing(routing)
                    .with_tuning(SessionTuning::default().with_max_batch(32)),
                ServingWorkload::poisson(DatasetKind::GeneralQa, rate, 96).with_seed(42),
            )
        })
        .collect();
    let rows = keys
        .iter()
        .zip(sweep(&points))
        .map(|(&(rate, tp, dp), report)| ShapeRow {
            shape: format!("{dp}x TP{tp}"),
            tp_degree: tp,
            dp_replicas: dp,
            rate_per_sec: rate,
            row: SweepRow::new(&report, &slo),
        })
        .collect();
    let report = SweepReport {
        schema: "papi-cluster-sweep/2".to_owned(),
        model: ModelPreset::Llama65B.config().name,
        design: design.label().to_owned(),
        routing: routing.label(),
        rows,
    };
    println!(
        "{}",
        serde_json::to_string(&report).expect("sweep report serializes")
    );
}
