//! One function per paper figure, plus one sweep for the online regime.
//!
//! Every figure function returns plain row structs so the bench harness
//! (and the `fig*` binaries in `papi-bench`) can print the same series
//! the paper plots. EXPERIMENTS.md records the paper-vs-measured
//! comparison for each. Serving and fleet comparisons go through
//! [`sweep`], which serves `(ClusterSpec, ServingWorkload)` points, and
//! [`SweepRow`], which reads one point's headline numbers off its
//! report.

use crate::cluster::{ClusterEngine, ClusterReport, ClusterSpec};
use crate::config::{DesignKind, SystemConfig};
use crate::engine::DecodingSimulator;
use crate::metrics::{ExecutionReport, LatencySummary};
use crate::slo::SloSpec;
use papi_gpu::{GpuEnergyModel, GpuSpec, MultiGpu};
use papi_interconnect::TopologyError;
use papi_llm::{ModelPreset, RooflinePoint};
use papi_pim::power::power_draw;
use papi_pim::{PimConfig, PimDevice, PimEnergyBreakdown, PimEnergyModel};
use papi_sched::estimator::AiComparison;
use papi_types::{DataType, Power, Time};
use papi_workload::{DatasetKind, ServingWorkload, WorkloadSpec};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// The paper's standard batch sizes for Figs. 8/9/11.
pub const BATCHES: [u64; 3] = [4, 16, 64];
/// The paper's standard speculation lengths for Figs. 8/9/11.
pub const SPECULATION_LENGTHS: [u64; 3] = [1, 2, 4];

// ---------------------------------------------------------------------
// Fig. 2 — roofline analysis
// ---------------------------------------------------------------------

/// Fig. 2(a): OPT-30B FC and attention roofline points, batch 4→128 at
/// speculation length 8; Fig. 2(b): speculation 2→8 at batch 32.
pub fn fig2_roofline() -> (Vec<RooflinePoint>, Vec<RooflinePoint>) {
    let model = ModelPreset::Opt30B.config();
    let a100 = GpuSpec::a100();
    let kv_len = 512;
    let sweep_a = [4u64, 8, 16, 32, 64, 128]
        .into_iter()
        .flat_map(|batch| {
            papi_llm::roofline::roofline_points(
                &model,
                batch,
                8,
                kv_len,
                a100.peak_flops,
                a100.mem_bandwidth,
            )
        })
        .collect();
    let sweep_b = [2u64, 4, 6, 8]
        .into_iter()
        .flat_map(|spec| {
            papi_llm::roofline::roofline_points(
                &model,
                32,
                spec,
                kv_len,
                a100.peak_flops,
                a100.mem_bandwidth,
            )
        })
        .collect();
    (sweep_a, sweep_b)
}

// ---------------------------------------------------------------------
// Fig. 3 — runtime RLP decay
// ---------------------------------------------------------------------

/// One request's lifetime within the batch (Fig. 3's horizontal bars).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestLifetime {
    /// Request id within the batch.
    pub request: u64,
    /// Decoding iterations until the request emitted `<|eos|>`.
    pub iterations: u64,
}

/// Fig. 3: per-request decoding iterations and the remaining-RLP series
/// for one static batch.
pub fn fig3_rlp_decay(batch: u64, seed: u64) -> (Vec<RequestLifetime>, Vec<u64>) {
    let spec =
        WorkloadSpec::static_batching(DatasetKind::CreativeWriting, batch, 1).with_seed(seed);
    let lifetimes = spec
        .requests()
        .iter()
        .map(|r| RequestLifetime {
            request: r.id,
            iterations: r.output_len,
        })
        .collect();
    let trace = spec.trace();
    (lifetimes, trace.rlp_series())
}

// ---------------------------------------------------------------------
// Fig. 4 — FC kernel latency across platforms
// ---------------------------------------------------------------------

/// One bar of Fig. 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FcLatencyRow {
    /// Speculation length.
    pub speculation: u64,
    /// Batch size.
    pub batch: u64,
    /// Platform label.
    pub platform: &'static str,
    /// FC latency in milliseconds.
    pub latency_ms: f64,
    /// Latency normalized to the A100 GPU at the same parallelism.
    pub normalized_to_a100: f64,
}

/// Fig. 4: FC kernel latency of A100 GPUs vs HBM-PIM vs AttAcc, batch
/// {1, 4, 16, 64} × speculation {2, 8}, normalized to the A100.
pub fn fig4_fc_latency() -> Vec<FcLatencyRow> {
    let model = ModelPreset::Gpt3_66B.config();
    let gpus = MultiGpu::dgx6_a100();
    let gpu_energy = GpuEnergyModel::a100();
    let hbm_pim = PimDevice::hbm_pim();
    let attacc = PimDevice::attacc();
    let mut rows = Vec::new();
    for speculation in [2u64, 8] {
        for batch in [1u64, 4, 16, 64] {
            let tokens = batch * speculation;
            let gpu_t = crate::engine::fc_latency_on_pu(&model, &gpus, &gpu_energy, tokens);
            let hbm_t = crate::engine::fc_latency_on_pim(
                &model,
                &hbm_pim,
                crate::config::FC_POOL_DEVICES,
                tokens,
            );
            let attacc_t = crate::engine::fc_latency_on_pim(
                &model,
                &attacc,
                crate::config::FC_POOL_DEVICES,
                tokens,
            );
            for (platform, t) in [
                ("A100 GPU", gpu_t),
                ("HBM-PIM", hbm_t),
                ("AttAcc", attacc_t),
            ] {
                rows.push(FcLatencyRow {
                    speculation,
                    batch,
                    platform,
                    latency_ms: t.as_millis(),
                    normalized_to_a100: t.value() / gpu_t.value(),
                });
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------
// Fig. 6 — arithmetic-intensity estimation accuracy
// ---------------------------------------------------------------------

/// Fig. 6: measured vs estimated FC arithmetic intensity for GPT-3 66B.
pub fn fig6_ai_estimation() -> Vec<AiComparison> {
    AiComparison::fig6_grid(&ModelPreset::Gpt3_66B.config())
}

// ---------------------------------------------------------------------
// Fig. 7 — PIM energy breakdown and power vs data reuse
// ---------------------------------------------------------------------

/// One point of the Fig. 7(c) power curves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerRow {
    /// PIM configuration label (`"4P1B"` …).
    pub config: String,
    /// DRAM data-reuse level.
    pub reuse: u64,
    /// Sustained power of one device.
    pub power_watts: f64,
    /// Whether it fits the 116 W HBM3 budget.
    pub within_budget: bool,
}

/// Fig. 7: (a) the energy split with no data reuse, (b) at reuse 64,
/// (c) power vs reuse for 4P1B / 2P1B / 1P1B against the 116 W budget.
pub fn fig7_energy_power() -> (PimEnergyBreakdown, PimEnergyBreakdown, Vec<PowerRow>) {
    let energy_model = PimEnergyModel::paper();
    let device = PimDevice::attacc();
    let pj_per_byte = device.dram_access_pj_per_byte();
    let macs = 1e9;
    let no_reuse = energy_model.breakdown(papi_types::Bytes::new(macs * 2.0), pj_per_byte, macs);
    let reuse64 =
        energy_model.breakdown(papi_types::Bytes::new(macs * 2.0 / 64.0), pj_per_byte, macs);

    let budget = Power::from_watts(116.0);
    let mut rows = Vec::new();
    let devices = [
        PimDevice::fc_pim(), // 4P1B / 96 banks
        two_p1b_device(),
        PimDevice::attacc(), // 1P1B / 128 banks
    ];
    for device in &devices {
        for reuse in [1u64, 2, 4, 8, 16, 32, 64] {
            let p = power_draw(device, reuse, DataType::Fp16);
            rows.push(PowerRow {
                config: device.config.label(),
                reuse,
                power_watts: p.as_watts(),
                within_budget: p.value() <= budget.value(),
            });
        }
    }
    (no_reuse, reuse64, rows)
}

/// The intermediate 2P1B configuration of Fig. 7(c) (96 banks per the
/// Eq. (3) area solver).
pub(crate) fn two_p1b_device() -> PimDevice {
    PimDevice::new(
        "2P1B",
        papi_dram::HbmDevice {
            name: "HBM3-2P1B-12GB".to_owned(),
            topology: papi_dram::Topology::fc_pim_12gb(),
            timing: papi_dram::TimingParams::hbm3(),
            energy: papi_dram::EnergyParams::hbm3(),
        },
        PimConfig::PIM_2P1B,
        papi_pim::FpuSpec::attacc(),
        PimEnergyModel::paper(),
    )
}

// ---------------------------------------------------------------------
// Figs. 8/9/10/11 — end-to-end comparisons
// ---------------------------------------------------------------------

/// One configuration's result across designs, normalized to a baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EndToEndRow {
    /// Model name.
    pub model: String,
    /// Dataset name.
    pub dataset: String,
    /// Speculation length.
    pub speculation: u64,
    /// Batch size.
    pub batch: u64,
    /// Design label.
    pub design: String,
    /// Speedup over the baseline design (A100+AttAcc).
    pub speedup: f64,
    /// Energy-efficiency improvement over the baseline.
    pub energy_efficiency: f64,
    /// Absolute decode latency in seconds.
    pub latency_s: f64,
    /// Absolute energy in joules.
    pub energy_j: f64,
}

fn run_design(kind: DesignKind, model: ModelPreset, workload: &WorkloadSpec) -> ExecutionReport {
    DecodingSimulator::new(SystemConfig::build(kind, model.config())).run(workload)
}

/// One simulator per entry of `designs` on `model`.
fn simulators(model: ModelPreset, designs: &[DesignKind]) -> Vec<DecodingSimulator> {
    designs
        .iter()
        .map(|&kind| DecodingSimulator::new(SystemConfig::build(kind, model.config())))
        .collect()
}

/// Runs `designs` on one `(model, dataset, spec, batch)` cell and
/// normalizes to the first entry (the paper normalizes to A100+AttAcc).
pub fn end_to_end_cell(
    model: ModelPreset,
    dataset: DatasetKind,
    speculation: u64,
    batch: u64,
    designs: &[DesignKind],
    seed: u64,
) -> Vec<EndToEndRow> {
    cell_rows(
        &simulators(model, designs),
        model,
        dataset,
        (speculation, batch),
        seed,
    )
}

/// [`end_to_end_cell`] on `simulators`, one per design of `model`.
fn cell_rows(
    simulators: &[DecodingSimulator],
    model: ModelPreset,
    dataset: DatasetKind,
    (speculation, batch): (u64, u64),
    seed: u64,
) -> Vec<EndToEndRow> {
    let trace = WorkloadSpec::static_batching(dataset, batch, speculation)
        .with_seed(seed)
        .trace();
    let reports: Vec<ExecutionReport> = simulators
        .iter()
        .map(|simulator| simulator.run_trace(&trace))
        .collect();
    let base = &reports[0];
    simulators
        .iter()
        .zip(&reports)
        .map(|(simulator, report)| EndToEndRow {
            model: model.to_string(),
            dataset: dataset.to_string(),
            speculation,
            batch,
            design: simulator.config().design.label().to_owned(),
            speedup: report.speedup_over(base),
            energy_efficiency: report.energy_efficiency_over(base),
            latency_s: report.total_latency().as_secs(),
            energy_j: report.total_energy().as_joules(),
        })
        .collect()
}

/// [`end_to_end_cell`] over `(speculation, batch)` `cells`, in order.
///
/// Cells are independent traces, so they fan out across cores. They
/// share one simulator per design, so a design prices each batch shape
/// once per grid, not once per cell; the rows are the same either way.
fn end_to_end_grid(
    model: ModelPreset,
    dataset: DatasetKind,
    cells: &[(u64, u64)],
    designs: &[DesignKind],
    seed: u64,
) -> Vec<EndToEndRow> {
    let simulators = simulators(model, designs);
    cells
        .par_iter()
        .flat_map_iter(|&cell| cell_rows(&simulators, model, dataset, cell, seed))
        .collect()
}

/// Every `(speculation, batch)` pair of Figs. 8/9/11.
fn standard_cells() -> Vec<(u64, u64)> {
    SPECULATION_LENGTHS
        .into_iter()
        .flat_map(|speculation| BATCHES.into_iter().map(move |batch| (speculation, batch)))
        .collect()
}

/// Fig. 8: the full creative-writing grid — 3 models × speculation
/// {1, 2, 4} × batch {4, 16, 64} × 4 designs, normalized to A100+AttAcc.
pub fn fig8_end_to_end(seed: u64) -> Vec<EndToEndRow> {
    let cells = standard_cells();
    ModelPreset::EVALUATED
        .par_iter()
        .flat_map_iter(|&model| {
            end_to_end_grid(
                model,
                DatasetKind::CreativeWriting,
                &cells,
                &DesignKind::FIG8,
                seed,
            )
        })
        .collect()
}

/// Fig. 9: the general-qa grid for GPT-3 175B with the three designs the
/// paper shows (A100+AttAcc, AttAcc-only, PAPI).
pub fn fig9_general_qa(seed: u64) -> Vec<EndToEndRow> {
    end_to_end_grid(
        ModelPreset::Gpt3_175B,
        DatasetKind::GeneralQa,
        &standard_cells(),
        &[
            DesignKind::A100AttAcc,
            DesignKind::AttAccOnly,
            DesignKind::Papi,
        ],
        seed,
    )
}

/// Fig. 10(a): batch sweep 4→128 at speculation 1; Fig. 10(b):
/// speculation sweep 1→8 at batch 4 — LLaMA-65B on creative-writing,
/// three designs.
pub fn fig10_sensitivity(seed: u64) -> (Vec<EndToEndRow>, Vec<EndToEndRow>) {
    let designs = [
        DesignKind::A100AttAcc,
        DesignKind::AttAccOnly,
        DesignKind::Papi,
    ];
    let sweep = |cells: &[(u64, u64)]| {
        end_to_end_grid(
            ModelPreset::Llama65B,
            DatasetKind::CreativeWriting,
            cells,
            &designs,
            seed,
        )
    };
    let batches = [4u64, 8, 16, 32, 64, 128].map(|batch| (1, batch));
    let speculations = [1u64, 2, 4, 8].map(|speculation| (speculation, 4));
    (sweep(&batches), sweep(&speculations))
}

/// Fig. 11: PIM-only PAPI vs AttAcc-only (decoding phase), speculation
/// {1, 2, 4} × batch {4, 16, 64} on LLaMA-65B creative-writing. The
/// returned rows are normalized to AttAcc-only, so `speedup` is directly
/// the figure's bar height.
pub fn fig11_pim_only(seed: u64) -> Vec<EndToEndRow> {
    end_to_end_grid(
        ModelPreset::Llama65B,
        DatasetKind::CreativeWriting,
        &standard_cells(),
        &[DesignKind::AttAccOnly, DesignKind::PimOnlyPapi],
        seed,
    )
}

// ---------------------------------------------------------------------
// Fig. 12 — execution-time breakdown per token
// ---------------------------------------------------------------------

/// One design's per-token time split (Fig. 12).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BreakdownRow {
    /// Design label.
    pub design: String,
    /// Attention time per token, ms.
    pub attention_ms: f64,
    /// FC time per token, ms.
    pub fc_ms: f64,
    /// Communication time per token, ms.
    pub communication_ms: f64,
    /// Other (dispatch/monitoring) time per token, ms.
    pub other_ms: f64,
}

impl BreakdownRow {
    /// Total per-token time.
    pub fn total_ms(&self) -> f64 {
        self.attention_ms + self.fc_ms + self.communication_ms + self.other_ms
    }
}

/// Fig. 12: per-token execution-time breakdown of AttAcc-only vs
/// PIM-only PAPI (LLaMA-65B, batch 4, speculation 4).
pub fn fig12_breakdown(seed: u64) -> Vec<BreakdownRow> {
    let workload =
        WorkloadSpec::static_batching(DatasetKind::CreativeWriting, 4, 4).with_seed(seed);
    [DesignKind::AttAccOnly, DesignKind::PimOnlyPapi]
        .into_iter()
        .map(|kind| {
            let report = run_design(kind, ModelPreset::Llama65B, &workload);
            let per_token = 1.0 / report.tokens as f64;
            BreakdownRow {
                design: kind.label().to_owned(),
                attention_ms: report.phases.attention.as_millis() * per_token,
                fc_ms: report.phases.fc.as_millis() * per_token,
                communication_ms: report.phases.communication.as_millis() * per_token,
                other_ms: report.phases.other.as_millis() * per_token,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Online sweeps (beyond the paper: the serving and fleet regimes)
// ---------------------------------------------------------------------

/// Serves every `(fleet, workload)` point and returns one report per
/// point, in point order.
///
/// A single-node comparison is a sweep over
/// `ClusterSpec::new(design, model, 1, 1)` points: a 1×TP1 fleet
/// reproduces [`ServingEngine::run`](crate::serving::ServingEngine::run)
/// bit for bit. Points are independent simulator runs and fan out
/// across cores; the reports are deterministic.
///
/// # Panics
///
/// Panics with the point's index and the [`TopologyError`] message if
/// [`ClusterEngine::new`] rejects a point's spec.
pub fn sweep(points: &[(ClusterSpec, ServingWorkload)]) -> Vec<ClusterReport> {
    let reports: Vec<Result<ClusterReport, TopologyError>> = points
        .par_iter()
        .map(|(spec, workload)| ClusterEngine::new(spec.clone()).map(|fleet| fleet.run(workload)))
        .collect();
    reports
        .into_iter()
        .enumerate()
        .map(|(idx, report)| report.unwrap_or_else(|err| panic!("sweep point {idx}: {err}")))
        .collect()
}

/// The headline numbers of one swept point, read off its
/// [`ClusterReport`]. Callers zip rows with their own point keys and
/// read sub-reports (`migration`, `global_tier`, `fleet_cost`, the
/// per-replica `kv`) off the report itself.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepRow {
    /// Requests served fleet-wide.
    pub requests: u64,
    /// Median time-to-first-token, ms.
    pub ttft_p50_ms: f64,
    /// 99th-percentile time-to-first-token, ms.
    pub ttft_p99_ms: f64,
    /// Median time-per-output-token, ms.
    pub tpot_p50_ms: f64,
    /// 99th-percentile time-per-output-token, ms.
    pub tpot_p99_ms: f64,
    /// 99th-percentile queueing delay, ms.
    pub queue_p99_ms: f64,
    /// Requests completed within the SLO, per second of fleet makespan.
    pub goodput_rps: f64,
    /// Fraction of requests meeting the SLO.
    pub slo_attainment: f64,
    /// Fleet output-token throughput.
    pub tokens_per_sec: f64,
    /// Total fleet energy, migration wire energy included, J.
    pub energy_j: f64,
    /// Fleet energy per SLO-good output token, J (zero when no token
    /// met the SLO).
    pub energy_per_good_token_j: f64,
    /// Fleet-wide prefix-cache hit rate (fraction of prefill demand
    /// served from cache, local tier or remote fetch).
    pub cache_hit_rate: f64,
    /// KV-pressure preemption events across the fleet.
    pub preemptions: u64,
    /// Online rescheduling events (PU ↔ FC-PIM), summed over replicas.
    pub scheduler_switches: u64,
    /// Replicas that served at least one request.
    pub replicas_used: usize,
}

impl SweepRow {
    /// Summarizes `report`, scoring goodput and good tokens against
    /// `slo`. Latencies read zero when nothing completed.
    pub fn new(report: &ClusterReport, slo: &SloSpec) -> Self {
        let ms = |summary: Option<LatencySummary>, pick: fn(&LatencySummary) -> Time| {
            summary.map_or(0.0, |s| pick(&s).as_millis())
        };
        let ttft = report.ttft_summary();
        let tpot = report.tpot_summary();
        let energy_j = report.energy().value();
        let (_, good_tokens) = report.slo_good(slo);
        Self {
            requests: report.requests(),
            ttft_p50_ms: ms(ttft, |s| s.p50),
            ttft_p99_ms: ms(ttft, |s| s.p99),
            tpot_p50_ms: ms(tpot, |s| s.p50),
            tpot_p99_ms: ms(tpot, |s| s.p99),
            queue_p99_ms: ms(report.queueing_summary(), |s| s.p99),
            goodput_rps: report.goodput(slo),
            slo_attainment: report.slo_attainment(slo),
            tokens_per_sec: report.tokens_per_second(),
            energy_j,
            energy_per_good_token_j: if good_tokens > 0 {
                energy_j / good_tokens as f64
            } else {
                0.0
            },
            cache_hit_rate: report.cache_hit_rate(),
            preemptions: report.preemptions(),
            scheduler_switches: report.replicas.iter().map(|r| r.scheduler.switches).sum(),
            replicas_used: report
                .replicas
                .iter()
                .filter(|r| !r.records.is_empty())
                .count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::SharedTierSpec;
    use crate::serving::{KvTierSpec, SessionTuning};
    use papi_llm::Boundedness;
    use papi_types::geometric_mean;
    use papi_workload::{ArrivalProcess, ConversationDataset, PolicySpec, ReplicaRole};

    #[test]
    fn fig2_shapes() {
        let (a, b) = fig2_roofline();
        assert_eq!(a.len(), 12); // 6 batches × 2 kernels
        assert_eq!(b.len(), 8); // 4 speculation lengths × 2 kernels

        // Attention never compute-bound; FC flips in both sweeps.
        for p in a.iter().chain(&b) {
            if p.kernel == "Attention" {
                assert_eq!(p.boundedness, Boundedness::MemoryBound);
            }
        }
        assert!(a
            .iter()
            .any(|p| p.kernel == "FC" && p.boundedness == Boundedness::ComputeBound));
        assert!(a
            .iter()
            .any(|p| p.kernel == "FC" && p.boundedness == Boundedness::MemoryBound));
    }

    #[test]
    fn fig3_rlp_decays_to_one() {
        let (lifetimes, rlp) = fig3_rlp_decay(32, 5);
        assert_eq!(lifetimes.len(), 32);
        assert_eq!(rlp[0], 32);
        assert_eq!(*rlp.last().unwrap(), 1);
        assert!(rlp.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn fig4_pim_wins_low_batch_gpu_wins_high() {
        let rows = fig4_fc_latency();
        let find = |spec, batch, platform: &str| {
            rows.iter()
                .find(|r| r.speculation == spec && r.batch == batch && r.platform == platform)
                .unwrap()
                .normalized_to_a100
        };
        // Paper §3.3: batch 1 spec 8 and batch 4 spec 2 → AttAcc wins.
        assert!(find(8, 1, "AttAcc") < 1.0);
        assert!(find(2, 4, "AttAcc") < 1.0);
        // HBM-PIM (half the FPUs) wins at the lowest parallelism; its
        // crossover sits earlier than AttAcc's in our model (the paper
        // draws both under 1.0 at batch 4 × spec 2 — see EXPERIMENTS.md).
        assert!(find(2, 1, "HBM-PIM") < 1.0);
        // Exactly half the FPUs ⇒ exactly 2× AttAcc once compute-bound.
        assert!(find(2, 4, "HBM-PIM") < 2.05 * find(2, 4, "AttAcc"));
        // Batch 16+ → the A100 wins decisively.
        assert!(find(2, 16, "AttAcc") > 1.0);
        assert!(find(2, 64, "AttAcc") > 4.0);
        assert!(find(8, 64, "HBM-PIM") > 4.0);
    }

    #[test]
    fn fig7_power_rows_match_paper_claims() {
        let (no_reuse, reuse64, rows) = fig7_energy_power();
        let (dram1, ..) = no_reuse.fractions();
        assert!((dram1 - 0.967).abs() < 0.01);
        let (dram64, ..) = reuse64.fractions();
        assert!((dram64 - 0.33).abs() < 0.04);
        let at = |config: &str, reuse| {
            rows.iter()
                .find(|r| r.config == config && r.reuse == reuse)
                .unwrap()
        };
        assert!(!at("4P1B", 1).within_budget);
        assert!(at("4P1B", 1).power_watts > 250.0);
        assert!(at("4P1B", 4).within_budget);
        assert!(!at("1P1B", 1).within_budget);
        assert!(at("1P1B", 2).within_budget || at("1P1B", 4).within_budget);
        // 2P1B sits between the two.
        assert!(at("2P1B", 1).power_watts < at("4P1B", 1).power_watts);
        assert!(at("2P1B", 1).power_watts > at("1P1B", 1).power_watts * 0.9);
    }

    #[test]
    fn fig11_speedups_grow_with_parallelism() {
        let rows = fig11_pim_only(3);
        let papi_speedup = |spec, batch| {
            rows.iter()
                .find(|r| r.design == "PIM-only PAPI" && r.speculation == spec && r.batch == batch)
                .unwrap()
                .speedup
        };
        let low = papi_speedup(1, 4);
        let high = papi_speedup(4, 64);
        assert!(
            low > 1.0,
            "PIM-only PAPI should win even at low parallelism: {low}"
        );
        assert!(
            high > low,
            "speedup should grow with parallelism: {low} → {high}"
        );
        // Paper: 1.6× at (4, 1) rising to 2.7× at (64, 4); average 2.3×.
        let all: Vec<f64> = rows
            .iter()
            .filter(|r| r.design == "PIM-only PAPI")
            .map(|r| r.speedup)
            .collect();
        let mean = geometric_mean(&all).unwrap();
        assert!(mean > 1.5 && mean < 3.5, "mean PIM-only speedup {mean}");
    }

    #[test]
    fn parallel_grid_matches_serial_cells() {
        // The rayon fan-out over simulators the cells share must not
        // change a single value or the row order relative to running
        // each cell on fresh simulators, one by one.
        let parallel = fig11_pim_only(3);
        let mut serial = Vec::new();
        for speculation in SPECULATION_LENGTHS {
            for batch in BATCHES {
                serial.extend(end_to_end_cell(
                    ModelPreset::Llama65B,
                    DatasetKind::CreativeWriting,
                    speculation,
                    batch,
                    &[DesignKind::AttAccOnly, DesignKind::PimOnlyPapi],
                    3,
                ));
            }
        }
        assert_eq!(parallel.len(), serial.len());
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.design, s.design);
            assert_eq!(p.batch, s.batch);
            assert_eq!(p.speculation, s.speculation);
            assert_eq!(p.latency_s, s.latency_s);
            assert_eq!(p.energy_j, s.energy_j);
        }
    }

    /// A fleet of `dp` TP1 replicas of `design` serving `model`.
    fn fleet(
        design: DesignKind,
        model: ModelPreset,
        dp: usize,
        tuning: &SessionTuning,
    ) -> ClusterSpec {
        ClusterSpec::new(design, model.config(), 1, dp).with_tuning(tuning.clone())
    }

    /// Batch cap 16 over a 16-token paged pool with prefix sharing.
    fn paged() -> SessionTuning {
        SessionTuning::default()
            .with_max_batch(16)
            .with_kv_block_size(16)
            .with_prefix_sharing(true)
    }

    /// Multi-turn chat: `turns` turns over `prompt`-token system prompts.
    fn chat(
        kind: DatasetKind,
        prompt: u64,
        turns: usize,
        rate: f64,
        n: usize,
        seed: u64,
    ) -> ServingWorkload {
        ServingWorkload::poisson(
            ConversationDataset::multi_turn(kind, prompt, turns),
            rate,
            n,
        )
        .with_seed(seed)
    }

    /// Sweeps `points` and reads one row per report.
    fn run(
        points: &[(ClusterSpec, ServingWorkload)],
        slo: &SloSpec,
    ) -> (Vec<ClusterReport>, Vec<SweepRow>) {
        let reports = sweep(points);
        let rows = reports.iter().map(|r| SweepRow::new(r, slo)).collect();
        (reports, rows)
    }

    #[test]
    #[should_panic(expected = "sweep point 1: invalid topology")]
    fn sweep_names_the_rejected_point() {
        let pair = fleet(
            DesignKind::PimOnlyPapi,
            ModelPreset::Llama65B,
            2,
            &SessionTuning::default(),
        );
        let workload = ServingWorkload::poisson(DatasetKind::GeneralQa, 1.0, 2).with_seed(1);
        sweep(&[
            (pair.clone(), workload.clone()),
            (pair.with_roles(vec![ReplicaRole::Prefill; 2]), workload),
        ]);
    }

    #[test]
    fn load_sweep_goodput_degrades_with_rate() {
        let tuning = SessionTuning::default().with_max_batch(32);
        let (mut keys, mut points) = (Vec::new(), Vec::new());
        for rate in [0.5, 4.0, 32.0] {
            for design in [DesignKind::Papi, DesignKind::A100AttAcc] {
                let workload = ServingWorkload::poisson(DatasetKind::GeneralQa, rate, 48);
                keys.push((rate, design));
                points.push((
                    fleet(design, ModelPreset::Llama65B, 1, &tuning),
                    workload.with_seed(7),
                ));
            }
        }
        let (_, rows) = run(&points, &SloSpec::interactive(2_000.0, 60.0));
        assert_eq!(rows.len(), 6);
        let papi_at = |rate: f64| {
            &rows[keys
                .iter()
                .position(|&k| k == (rate, DesignKind::Papi))
                .unwrap()]
        };
        // Tail latency grows with offered load; attainment falls.
        assert!(papi_at(32.0).ttft_p99_ms > papi_at(0.5).ttft_p99_ms);
        assert!(papi_at(32.0).slo_attainment <= papi_at(0.5).slo_attainment);
    }

    #[test]
    fn prefix_cache_sweep_beats_scalar_at_equal_dram() {
        // Equal DRAM, equal admission headroom: scalar KV accounting vs
        // the paged pool with prefix sharing.
        let scalar = SessionTuning::default()
            .with_max_batch(16)
            .with_kv_headroom(0.05);
        let workload = chat(DatasetKind::GeneralQa, 512, 4, 4.0, 48, 7);
        let (reports, rows) = run(
            &[scalar, paged().with_kv_headroom(0.05)].map(|t| {
                (
                    fleet(DesignKind::PimOnlyPapi, ModelPreset::Llama65B, 1, &t),
                    workload.clone(),
                )
            }),
            &SloSpec::interactive(4_000.0, 80.0),
        );
        assert_eq!(rows.len(), 2);
        let (scalar, paged) = (&rows[0], &rows[1]);
        assert_eq!(reports[0].replicas[0].kv.block_size, 1);
        assert_eq!(reports[1].replicas[0].kv.block_size, 16);
        assert_eq!(scalar.requests, 48);
        assert_eq!(paged.requests, 48);
        assert_eq!(scalar.cache_hit_rate, 0.0);
        assert!(
            paged.cache_hit_rate > 0.2,
            "conversation turns should hit: {}",
            paged.cache_hit_rate
        );
        assert!(
            paged.goodput_rps > scalar.goodput_rps,
            "prefix caching should win goodput at equal DRAM: {} vs {}",
            paged.goodput_rps,
            scalar.goodput_rps
        );
    }

    #[test]
    fn tiered_kv_sweep_rows_are_ordered_and_tier_points_spill() {
        // One thrashing conversation load, plain eviction first, then a
        // 60k-block tier at the default host-DIMM pricing.
        let workload = chat(DatasetKind::LongContext, 4096, 3, 1.0, 120, 23);
        let (reports, rows) = run(
            &[paged(), paged().with_kv_tier(KvTierSpec::new(60_000))].map(|t| {
                (
                    fleet(DesignKind::PimOnlyPapi, ModelPreset::Gpt3_175B, 1, &t),
                    workload.clone(),
                )
            }),
            &SloSpec::interactive(600_000.0, 400.0),
        );
        assert_eq!(rows.len(), 2);
        let (evict, tiered) = (&reports[0].replicas[0].kv, &reports[1].replicas[0].kv);
        assert_eq!(evict.tier_budget_blocks, 0);
        assert_eq!(evict.tier_spills, 0);
        assert_eq!(tiered.tier_budget_blocks, 60_000);
        assert!(tiered.tier_spills > 0, "the tier point should spill");
        assert!(tiered.tier_fetches > 0, "the tier point should fetch");
        assert!(tiered.tier_fetch_time_s > 0.0);
        assert!(
            rows[1].cache_hit_rate > rows[0].cache_hit_rate,
            "fetches should lift the hit rate: {} vs {}",
            rows[1].cache_hit_rate,
            rows[0].cache_hit_rate
        );
    }

    #[test]
    fn cluster_sweep_exposes_the_tp_dp_trade() {
        let tuning = SessionTuning::default().with_max_batch(16);
        let (mut keys, mut points) = (Vec::new(), Vec::new());
        for rate in [0.5, 24.0] {
            for (tp, dp) in [(4, 1), (1, 4)] {
                let spec = ClusterSpec::new(
                    DesignKind::PimOnlyPapi,
                    ModelPreset::Llama65B.config(),
                    tp,
                    dp,
                )
                .with_routing(PolicySpec::JoinShortestQueue)
                .with_tuning(tuning.clone());
                keys.push((rate, tp, dp));
                points.push((
                    spec,
                    ServingWorkload::poisson(DatasetKind::GeneralQa, rate, 48).with_seed(11),
                ));
            }
        }
        let (_, rows) = run(&points, &SloSpec::interactive(2_000.0, 60.0));
        assert_eq!(rows.len(), 4);
        let at = |tp, dp, rate| &rows[keys.iter().position(|&k| k == (rate, tp, dp)).unwrap()];
        // TP wins single-request latency at light load…
        assert!(at(4, 1, 0.5).tpot_p50_ms < at(1, 4, 0.5).tpot_p50_ms);
        // …DP wins goodput once the offered load saturates one queue.
        assert!(at(1, 4, 24.0).goodput_rps > at(4, 1, 24.0).goodput_rps);
        assert_eq!(at(1, 4, 24.0).requests, 48);
    }

    /// The ROADMAP headline: on a multi-turn conversation fleet at
    /// equal DRAM, prefix-affinity routing recovers the cache hits
    /// prefix-oblivious JSQ scatters away, and converts them to
    /// goodput.
    #[test]
    fn routing_sweep_prefix_affinity_beats_jsq_on_conversations() {
        let four = fleet(DesignKind::PimOnlyPapi, ModelPreset::Llama65B, 4, &paged());
        let workload = chat(DatasetKind::GeneralQa, 512, 4, 6.0, 64, 7);
        let (reports, rows) = run(
            &[PolicySpec::JoinShortestQueue, PolicySpec::prefix_affinity()]
                .map(|policy| (four.clone().with_routing(policy), workload.clone())),
            &SloSpec::interactive(4_000.0, 80.0),
        );
        assert_eq!(rows.len(), 2);
        let (jsq, affinity) = (&rows[0], &rows[1]);
        assert_eq!(reports[0].routing, "join-shortest-queue");
        assert_eq!(reports[1].routing, "prefix-affinity");
        assert_eq!(jsq.requests, 64);
        assert_eq!(affinity.requests, 64);
        assert!(
            affinity.cache_hit_rate > jsq.cache_hit_rate + 0.1,
            "affinity should recover scattered hits: {} vs {}",
            affinity.cache_hit_rate,
            jsq.cache_hit_rate
        );
        assert!(
            affinity.goodput_rps > jsq.goodput_rps,
            "recovered hits should buy goodput: {} vs {}",
            affinity.goodput_rps,
            jsq.goodput_rps
        );
    }

    /// The global-prefix grid: shared-tier configuration, then policy,
    /// with the tier labeled by its pricing — and the shared-tier
    /// points actually use the fabric on the membership-skewed workload
    /// while the private-tier points cannot.
    #[test]
    fn global_prefix_sweep_orders_rows_and_uses_the_fabric() {
        let tiered = paged().with_kv_tier(KvTierSpec::new(60_000));
        let pair = fleet(DesignKind::PimOnlyPapi, ModelPreset::Gpt3_175B, 2, &tiered);
        let workload = chat(DatasetKind::LongContext, 8192, 12, 0.15, 120, 23);
        let mut points = Vec::new();
        for shared in [false, true] {
            for policy in [
                PolicySpec::prefix_affinity(),
                PolicySpec::shared_tier_affinity(),
            ] {
                let spec = pair.clone().with_routing(policy);
                let spec = if shared {
                    spec.with_shared_tier(SharedTierSpec::new())
                } else {
                    spec
                };
                points.push((spec, workload.clone()));
            }
        }
        let (reports, rows) = run(&points, &SloSpec::interactive(8_000.0, 80.0));
        assert_eq!(rows.len(), 4);
        assert_eq!(
            reports
                .iter()
                .map(|r| r.global_tier.as_ref().map_or("off", |g| g.pricing.as_str()))
                .collect::<Vec<_>>(),
            ["off", "off", "InfiniBand-NDR", "InfiniBand-NDR"]
        );
        assert_eq!(reports[0].routing, "prefix-affinity");
        assert_eq!(reports[1].routing, "shared-tier-affinity");
        for row in &rows {
            assert_eq!(row.requests, 120);
            assert_eq!(row.replicas_used, 2);
        }
        // Private tiers cannot cross the fabric...
        for report in &reports[..2] {
            assert!(report.replicas.iter().all(|r| r.kv.remote_fetches == 0));
        }
        // ...and the shared tier does, with honest wire accounting and
        // a fleet-level hit-rate win for the relaxing policy.
        let shared = reports[3].global_tier.as_ref().expect("shared tier on");
        assert!(shared.fetches > 0, "fabric unused");
        assert!(shared.bytes > 0.0);
        assert!(reports[3]
            .replicas
            .iter()
            .any(|r| r.kv.remote_fetch_time_s > 0.0));
        assert!(shared.energy.value() > 0.0);
        assert!(shared.entries > 0);
        assert!(
            rows[3].cache_hit_rate > rows[0].cache_hit_rate,
            "shared tier should lift the fleet hit rate: {} vs {}",
            rows[3].cache_hit_rate,
            rows[0].cache_hit_rate
        );
    }

    /// The ISSUE-5 acceptance headline: at equal node count and equal
    /// per-node attention-pool DRAM, splitting the fleet into a
    /// GPU-heavy prefill pool and a PIM-heavy decode pool beats the
    /// homogeneous co-located fleet on p99 TTFT under bursty
    /// long-context load — even paying real (fabric-priced) KV
    /// migration for every request.
    #[test]
    fn disaggregation_sweep_split_beats_colocated_p99_ttft() {
        let tuning = SessionTuning::default().with_max_batch(16);
        let colocated = fleet(DesignKind::PimOnlyPapi, ModelPreset::Llama65B, 4, &tuning);
        let split = colocated
            .clone()
            .with_roles([[ReplicaRole::Prefill; 2], [ReplicaRole::Decode; 2]].concat())
            .with_prefill_design(DesignKind::A100AttAcc);
        let bursts = ArrivalProcess::Bursty {
            burst_size: 16,
            interval_sec: 10.0,
        };
        let workload = ServingWorkload::new(DatasetKind::LongContext, bursts, 48).with_seed(7);
        let (reports, rows) = run(
            &[colocated, split].map(|spec| (spec, workload.clone())),
            &SloSpec::interactive(10_000.0, 120.0),
        );
        assert_eq!(rows.len(), 2);
        let (colocated, split) = (&rows[0], &rows[1]);
        assert!(reports[0]
            .roles
            .iter()
            .all(|&r| r == ReplicaRole::Colocated));
        assert!(reports[1].roles.contains(&ReplicaRole::Prefill));
        assert_eq!(colocated.requests, 48);
        assert_eq!(split.requests, 48);
        // Conservation through migration: every request crossed the
        // fabric exactly once, and the payload was actually priced.
        let migration = &reports[1].migration;
        assert_eq!(migration.migrations, 48);
        assert!(migration.bytes > 0.0);
        assert!(migration.latency.expect("migrated").p99.as_millis() > 0.0);
        assert_eq!(reports[0].migration.migrations, 0);
        // The headline: the split wins tail TTFT decisively (prefill
        // waves run on GPUs, decode never stalls behind them), and
        // does not give up goodput for it.
        assert!(
            split.ttft_p99_ms < 0.8 * colocated.ttft_p99_ms,
            "split p99 TTFT {} should clearly beat colocated {}",
            split.ttft_p99_ms,
            colocated.ttft_p99_ms
        );
        assert!(
            split.goodput_rps >= colocated.goodput_rps,
            "split goodput {} should not trail colocated {}",
            split.goodput_rps,
            colocated.goodput_rps
        );
    }

    #[test]
    fn fig12_breakdown_shape() {
        let rows = fig12_breakdown(1);
        assert_eq!(rows.len(), 2);
        let attacc = &rows[0];
        let papi = &rows[1];
        // FC dominates both designs; PAPI's FC is ~3× faster; attention
        // is slower on Attn-PIM (1P2B) than AttAcc (1P1B).
        assert!(attacc.fc_ms > attacc.attention_ms);
        let fc_ratio = attacc.fc_ms / papi.fc_ms;
        assert!(
            fc_ratio > 2.5 && fc_ratio < 3.5,
            "FC speedup {fc_ratio}, paper: 2.9×"
        );
        let attn_ratio = papi.attention_ms / attacc.attention_ms;
        assert!(
            attn_ratio > 1.3 && attn_ratio < 2.1,
            "attention slowdown {attn_ratio}, paper: 1.7×"
        );
        assert!(papi.total_ms() < attacc.total_ms());
    }
}
