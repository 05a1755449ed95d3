//! Cross-crate integration tests: the paper's headline claims, exercised
//! through the public facade on moderately sized workloads, and the
//! batch path's bit pin: every report of the seed-42 Fig. 8 grid in
//! the golden file `tests/golden/fig8-grid.golden`, captured at 0a0ce34
//! while the FNV-1a hash of the grid's JSON it replaces still passed.

mod common;

use papi::core::{DecodingSimulator, DesignKind, ExecutionReport, SystemConfig};
use papi::llm::ModelPreset;
use papi::types::geometric_mean;
use papi::workload::{DatasetKind, DecodeTrace, WorkloadSpec};

fn run(
    kind: DesignKind,
    model: ModelPreset,
    workload: &WorkloadSpec,
) -> papi::core::ExecutionReport {
    DecodingSimulator::new(SystemConfig::build(kind, model.config())).run(workload)
}

/// Fig. 8's headline: PAPI beats every baseline on the creative-writing
/// grid, with meaningful margins over both GPU-heterogeneous and
/// PIM-only designs.
#[test]
fn papi_wins_the_creative_writing_grid() {
    let mut speedups_vs_gpu = Vec::new();
    let mut speedups_vs_pim_only = Vec::new();
    for batch in [4u64, 16, 64] {
        for spec in [1u64, 2] {
            let workload = WorkloadSpec::static_batching(DatasetKind::CreativeWriting, batch, spec)
                .with_seed(31)
                .with_max_iterations(96);
            let trace = workload.trace();
            let papi = DecodingSimulator::new(SystemConfig::build(
                DesignKind::Papi,
                ModelPreset::Llama65B.config(),
            ))
            .run_trace(&trace);
            let gpu = DecodingSimulator::new(SystemConfig::build(
                DesignKind::A100AttAcc,
                ModelPreset::Llama65B.config(),
            ))
            .run_trace(&trace);
            let attacc = DecodingSimulator::new(SystemConfig::build(
                DesignKind::AttAccOnly,
                ModelPreset::Llama65B.config(),
            ))
            .run_trace(&trace);
            assert!(
                papi.total_latency().value() <= gpu.total_latency().value() * 1.02,
                "PAPI lost to A100+AttAcc at batch {batch} spec {spec}"
            );
            speedups_vs_gpu.push(papi.speedup_over(&gpu));
            speedups_vs_pim_only.push(papi.speedup_over(&attacc));
        }
    }
    let vs_gpu = geometric_mean(&speedups_vs_gpu).unwrap();
    let vs_pim = geometric_mean(&speedups_vs_pim_only).unwrap();
    assert!(
        vs_gpu > 1.3,
        "mean speedup over A100+AttAcc only {vs_gpu:.2}"
    );
    assert!(
        vs_pim > 1.5,
        "mean speedup over AttAcc-only only {vs_pim:.2}"
    );
}

/// §7.2's energy claim, in ratio form that our model reproduces exactly:
/// PAPI is close to AttAcc-only in energy (paper: 1.15×) while being
/// much faster, and clearly beats the GPU-heavy baseline.
#[test]
fn papi_energy_efficiency() {
    // Batch 8 × spec 1 sits below α for the whole decode: PAPI runs FC
    // on FC-PIM, where the energy gap against the GPU baseline is
    // largest. (At high parallelism PAPI deliberately matches the GPU's
    // energy because it *is* using the GPU.)
    let workload = WorkloadSpec::static_batching(DatasetKind::GeneralQa, 8, 1).with_seed(5);
    let papi = run(DesignKind::Papi, ModelPreset::Llama65B, &workload);
    let gpu = run(DesignKind::A100AttAcc, ModelPreset::Llama65B, &workload);
    let attacc = run(DesignKind::AttAccOnly, ModelPreset::Llama65B, &workload);
    let vs_gpu = papi.energy_efficiency_over(&gpu);
    let vs_attacc = papi.energy_efficiency_over(&attacc);
    assert!(vs_gpu > 1.5, "energy efficiency vs A100+AttAcc {vs_gpu:.2}");
    assert!(
        vs_attacc > 0.9 && vs_attacc < 1.6,
        "energy vs AttAcc-only should be near parity (paper: 1.15×), got {vs_attacc:.2}"
    );
}

/// §7.3: as TLP grows at a small batch, PAPI's advantage over the GPU
/// baseline shrinks (more iterations go to the GPU) — Fig. 10(b).
#[test]
fn papi_advantage_shrinks_with_tlp() {
    let model = ModelPreset::Llama65B;
    let speedup_at = |spec: u64| {
        let workload = WorkloadSpec::static_batching(DatasetKind::CreativeWriting, 4, spec)
            .with_seed(13)
            .with_max_iterations(64);
        let papi = run(DesignKind::Papi, model, &workload);
        let gpu = run(DesignKind::A100AttAcc, model, &workload);
        papi.speedup_over(&gpu)
    };
    let s1 = speedup_at(1);
    let s8 = speedup_at(8);
    assert!(
        s1 > s8,
        "speedup should shrink with TLP: spec1 {s1:.2} vs spec8 {s8:.2}"
    );
    assert!(s8 >= 0.95, "PAPI should never lose outright: {s8:.2}");
}

/// Fig. 10(a): AttAcc-only beats the GPU baseline at batch 4 and
/// collapses by batch 64 — the dynamic-range motivation for PAPI.
#[test]
fn attacc_only_crossover_with_batch() {
    let model = ModelPreset::Llama65B;
    let ratio_at = |batch: u64| {
        let workload = WorkloadSpec::static_batching(DatasetKind::CreativeWriting, batch, 1)
            .with_seed(21)
            .with_max_iterations(48);
        let attacc = run(DesignKind::AttAccOnly, model, &workload);
        let gpu = run(DesignKind::A100AttAcc, model, &workload);
        attacc.speedup_over(&gpu)
    };
    assert!(ratio_at(4) > 1.0, "AttAcc-only should win at batch 4");
    assert!(
        ratio_at(64) < 0.5,
        "AttAcc-only should collapse at batch 64"
    );
}

/// The two GPU-heterogeneous baselines differ only in the attention PIM
/// device; since attention is a small share of decoding time, they stay
/// within a few percent of each other (paper §7.2, observation 3).
#[test]
fn attacc_and_hbm_pim_baselines_nearly_tie() {
    let workload = WorkloadSpec::static_batching(DatasetKind::CreativeWriting, 16, 2)
        .with_seed(2)
        .with_max_iterations(96);
    let a = run(DesignKind::A100AttAcc, ModelPreset::Gpt3_66B, &workload);
    let b = run(DesignKind::A100HbmPim, ModelPreset::Gpt3_66B, &workload);
    let ratio = a.total_latency().value() / b.total_latency().value();
    assert!(
        (ratio - 1.0).abs() < 0.05,
        "baselines should nearly tie, ratio {ratio:.3}"
    );
}

/// All three evaluated models run end-to-end on every design without
/// violating capacity checks.
#[test]
fn all_models_all_designs_smoke() {
    for model in ModelPreset::EVALUATED {
        let workload = WorkloadSpec::static_batching(DatasetKind::GeneralQa, 8, 1)
            .with_seed(1)
            .with_max_iterations(16);
        for kind in [
            DesignKind::Papi,
            DesignKind::A100AttAcc,
            DesignKind::A100HbmPim,
            DesignKind::AttAccOnly,
            DesignKind::PimOnlyPapi,
        ] {
            let report = run(kind, model, &workload);
            assert!(report.total_latency().value() > 0.0, "{kind} {model}");
            assert!(report.total_energy().value() > 0.0, "{kind} {model}");
            assert_eq!(report.iterations as usize, report.placements.len());
        }
    }
}

/// The seed-42 Fig. 8 grid the batch pins below price: every
/// (model, speculation, batch) cell as its model's index in
/// `ModelPreset::EVALUATED` and its trace, in canonical order.
fn fig8_cells() -> Vec<(usize, DecodeTrace)> {
    use papi::core::experiments::{BATCHES, SPECULATION_LENGTHS};
    let mut cells = Vec::new();
    for model in 0..ModelPreset::EVALUATED.len() {
        for speculation in SPECULATION_LENGTHS {
            for batch in BATCHES {
                let trace =
                    WorkloadSpec::static_batching(DatasetKind::CreativeWriting, batch, speculation)
                        .with_seed(42)
                        .trace();
                cells.push((model, trace));
            }
        }
    }
    cells
}

/// The four Fig. 8 designs plus PIM-only PAPI, in pin order.
fn fig8_designs() -> Vec<DesignKind> {
    DesignKind::FIG8
        .into_iter()
        .chain([DesignKind::PimOnlyPapi])
        .collect()
}

/// The Fig. 8 grid's golden file, which both batch pins below read.
const FIG8_GRID_GOLDEN: &str = "fig8-grid";

/// Bit-level pin of the batch path: the serialized `ExecutionReport`
/// (phases, `energy_parts`, scheduler stats, placements) of every cell
/// of the seed-42 Fig. 8 grid — 3 models × speculation × batch, on the
/// four Fig. 8 designs plus PIM-only PAPI — in one golden file. Any
/// change to the float order of a kernel, the pricer or the engine's
/// accumulation moves it, and the failure names the cells that moved.
#[test]
fn fig8_grid_reports_match_their_golden() {
    let designs = fig8_designs();
    let reports: Vec<Vec<_>> = fig8_cells()
        .iter()
        .map(|(model, trace)| {
            let model = ModelPreset::EVALUATED[*model];
            designs
                .iter()
                .map(|&kind| {
                    DecodingSimulator::new(SystemConfig::build(kind, model.config()))
                        .run_trace(trace)
                })
                .collect()
        })
        .collect();
    assert_eq!(reports.iter().flatten().count(), 27 * 5);
    common::assert_golden(FIG8_GRID_GOLDEN, &reports);
}

/// The same pin through one simulator per (model, design), whose shape
/// table every cell reuses: the grid priced in reverse, then again from
/// two threads that interleave the cells, reproduces the golden both
/// times, whichever trace fills a shape row first.
#[test]
fn fig8_grid_reports_hold_on_reused_simulators() {
    let designs = fig8_designs();
    let simulators: Vec<Vec<_>> = ModelPreset::EVALUATED
        .iter()
        .map(|model| {
            designs
                .iter()
                .map(|&kind| DecodingSimulator::new(SystemConfig::build(kind, model.config())))
                .collect()
        })
        .collect();
    let cells = fig8_cells();
    let price = |cell: usize| -> Vec<ExecutionReport> {
        let (model, trace) = &cells[cell];
        simulators[*model]
            .iter()
            .map(|simulator| simulator.run_trace(trace))
            .collect()
    };

    let mut reversed = vec![Vec::new(); cells.len()];
    for cell in (0..cells.len()).rev() {
        reversed[cell] = price(cell);
    }
    common::assert_golden(FIG8_GRID_GOLDEN, &reversed);

    let count = cells.len();
    let mut threaded = vec![Vec::new(); count];
    std::thread::scope(|scope| {
        let price = &price;
        let halves: Vec<_> = (0..2)
            .map(|first| {
                scope.spawn(move || {
                    (first..count)
                        .step_by(2)
                        .map(|cell| (cell, price(cell)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for half in halves {
            for (cell, reports) in half.join().expect("pricing thread panicked") {
                threaded[cell] = reports;
            }
        }
    });
    common::assert_golden(FIG8_GRID_GOLDEN, &threaded);
}
