//! The batch-mode decoding engine.
//!
//! One [`DecodingSimulator`] prices every iteration of a pre-generated
//! [`DecodeTrace`] — the paper-figure path, where the workload is a
//! closed batch and only the total latency/energy matter. All hardware
//! math lives in [`crate::pricer`]; this engine just walks the trace
//! one run of constant `(rlp, tlp)` at a time, asks the scheduler for
//! the run's placement, and prices each stretch stepping by `rlp × tlp`
//! in one call at its summed KV length. The online serving counterpart
//! (arrivals, queueing, per-request latency) is
//! [`crate::serving::ServingEngine`], which prices through the same
//! [`IterationPricer`].

use crate::config::SystemConfig;
use crate::metrics::{ExecutionReport, PhaseBreakdown, RunLength};
use crate::pricer::{IterationPricer, ShapeTable};
use papi_types::Energy;
use papi_workload::{DecodeTrace, WorkloadSpec};
use std::sync::Arc;

/// Simulates LLM decoding on one [`SystemConfig`]. Every trace it
/// runs prices through one shape table, shared by its clones.
#[derive(Debug, Clone)]
pub struct DecodingSimulator {
    config: SystemConfig,
    rows: Arc<ShapeTable>,
}

impl DecodingSimulator {
    /// Wraps a system configuration.
    pub fn new(config: SystemConfig) -> Self {
        Self {
            config,
            rows: Arc::default(),
        }
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Generates the workload's trace and decodes it.
    pub fn run(&self, workload: &WorkloadSpec) -> ExecutionReport {
        self.run_trace(&workload.trace())
    }

    /// Like [`DecodingSimulator::run`], but also prices the prefill
    /// phase (GPU where available, PIM otherwise — see
    /// [`prefill_cost`](crate::prefill::prefill_cost)). The report's
    /// [`end_to_end_latency`](ExecutionReport::end_to_end_latency)
    /// then covers the whole request lifetime.
    pub fn run_end_to_end(&self, workload: &WorkloadSpec) -> ExecutionReport {
        let trace = workload.trace();
        let mut report = self.run_trace(&trace);
        let prefill = crate::prefill::prefill_cost(&self.config, &trace);
        report.prefill_time = prefill.time;
        report.prefill_energy = prefill.energy;
        report
    }

    /// Decodes a pre-built trace.
    ///
    /// # Panics
    ///
    /// Panics if the KV-cache demand of any iteration exceeds the
    /// attention pool's capacity (the configuration is physically
    /// impossible; size the batch with
    /// [`KvCachePlanner`](papi_llm::kvcache::KvCachePlanner) first).
    pub fn run_trace(&self, trace: &DecodeTrace) -> ExecutionReport {
        let config = &self.config;
        let kv_bytes_per_token = config.model.kv_bytes_per_token().value();
        let validate = |kv_tokens: u64| {
            if let Err(msg) = config.validate_capacity(kv_tokens as f64 * kv_bytes_per_token) {
                panic!("{msg}");
            }
        };
        // The weight pools up front; the KV demand as the walk reaches
        // each run, before pricing it.
        validate(0);
        let attn_pool = config.attn_pool_bytes();

        let mut scheduler = self.config.scheduler.build();
        let mut pricer = IterationPricer::with_rows(config, Arc::clone(&self.rows));
        let mut phases = PhaseBreakdown::default();
        let mut energy_parts = (Energy::ZERO, Energy::ZERO, Energy::ZERO, Energy::ZERO);
        let mut placements = RunLength::default();

        let mut stretches = Vec::new();
        for run in trace
            .iterations
            .chunk_by(|a, b| (a.rlp, a.tlp) == (b.rlp, b.tlp))
        {
            let (rlp, tlp) = (run[0].rlp, run[0].tlp);
            // Its stretches step `total_kv_len` by exactly `rlp × tlp`,
            // so each one's last record holds its KV peak.
            stretches.clear();
            stretches.extend(run.chunk_by(|a, b| b.total_kv_len == a.total_kv_len + rlp * tlp));
            let run_peak = stretches.iter().map(|s| s[s.len() - 1].total_kv_len).max();
            if run_peak.unwrap_or(0) as f64 * kv_bytes_per_token > attn_pool {
                // The message names the trace's peak demand.
                validate(
                    trace
                        .iterations
                        .iter()
                        .map(|it| it.total_kv_len)
                        .max()
                        .unwrap_or(0),
                );
            }
            let placement = scheduler.placement(rlp, tlp);
            // The run's pricing, timed once as one call per iteration.
            papi_perf::phase!("price", run.len() as u64);
            for stretch in &stretches {
                let (kv0, n) = (stretch[0].total_kv_len.div_ceil(rlp), stretch.len() as u64);
                pricer.price_stretch(placement, rlp, tlp, kv0, n, |cost| {
                    phases.fc += cost.fc_time;
                    phases.attention += cost.attn_time;
                    phases.communication += cost.comm_time;
                    phases.other += cost.other_time;
                    energy_parts.0 += cost.fc_energy;
                    energy_parts.1 += cost.attn_energy;
                    energy_parts.2 += cost.comm_energy;
                    energy_parts.3 += cost.static_energy;
                });
            }
            scheduler.record(placement, run.len() as u64);
            placements.push_n(placement, run.len() as u64);
        }

        ExecutionReport {
            design: self.config.design.label().to_owned(),
            model: self.config.model.name.clone(),
            iterations: trace.len() as u64,
            tokens: trace.total_tokens,
            requests: trace.requests,
            phases,
            energy: energy_parts.0 + energy_parts.1 + energy_parts.2 + energy_parts.3,
            energy_parts,
            scheduler: scheduler.stats(),
            placements,
            prefill_time: papi_types::Time::ZERO,
            prefill_energy: papi_types::Energy::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::pricer::{fc_latency_on_pim, fc_latency_on_pu};
    use papi_gpu::{GpuEnergyModel, MultiGpu};
    use papi_llm::{ModelConfig, ModelPreset};
    use papi_pim::PimDevice;
    use papi_sched::Placement;
    use papi_workload::{DatasetKind, IterationRecord, WorkloadSpec};

    fn llama() -> ModelConfig {
        ModelPreset::Llama65B.config()
    }

    fn short_workload(batch: u64, spec: u64) -> WorkloadSpec {
        WorkloadSpec::static_batching(DatasetKind::CreativeWriting, batch, spec)
            .with_seed(3)
            .with_max_iterations(48)
    }

    #[test]
    fn fc_pim_beats_gpu_at_low_tokens_and_loses_at_high() {
        let model = llama();
        let fc_pim = PimDevice::fc_pim();
        let gpus = MultiGpu::dgx6_a100();
        let em = GpuEnergyModel::a100();
        let pim_low = fc_latency_on_pim(&model, &fc_pim, 30, 4);
        let pu_low = fc_latency_on_pu(&model, &gpus, &em, 4);
        assert!(
            pim_low.value() < pu_low.value(),
            "at 4 tokens FC-PIM ({pim_low}) must beat the GPUs ({pu_low})"
        );
        let pim_high = fc_latency_on_pim(&model, &fc_pim, 30, 128);
        let pu_high = fc_latency_on_pu(&model, &gpus, &em, 128);
        assert!(
            pu_high.value() < pim_high.value(),
            "at 128 tokens the GPUs ({pu_high}) must beat FC-PIM ({pim_high})"
        );
    }

    #[test]
    fn gpu_fc_latency_flat_while_memory_bound() {
        // The GPU side of Fig. 4: below the roofline knee, more tokens
        // are free.
        let model = llama();
        let gpus = MultiGpu::dgx6_a100();
        let em = GpuEnergyModel::a100();
        let t4 = fc_latency_on_pu(&model, &gpus, &em, 4);
        let t64 = fc_latency_on_pu(&model, &gpus, &em, 64);
        // Only the all-reduce volume grows with tokens; the roofline leg
        // is flat below the knee.
        assert!(
            (t64.value() / t4.value() - 1.0).abs() < 0.12,
            "GPU FC should be near-flat: {t4} vs {t64}"
        );
    }

    #[test]
    fn papi_beats_a100_attacc_on_low_batch() {
        let w = short_workload(4, 1);
        let papi = DecodingSimulator::new(SystemConfig::papi(llama())).run(&w);
        let base = DecodingSimulator::new(SystemConfig::a100_attacc(llama())).run(&w);
        let speedup = papi.speedup_over(&base);
        assert!(
            speedup > 1.5,
            "PAPI speedup at batch 4 was only {speedup:.2}×"
        );
    }

    #[test]
    fn papi_matches_gpu_baseline_at_high_parallelism() {
        // With RLP × TLP far above α, PAPI schedules FC on the GPUs and
        // converges to A100+AttAcc (§7.3's TLP observation).
        let w = short_workload(64, 4);
        let papi = DecodingSimulator::new(SystemConfig::papi(llama())).run(&w);
        let base = DecodingSimulator::new(SystemConfig::a100_attacc(llama())).run(&w);
        let speedup = papi.speedup_over(&base);
        assert!(
            speedup > 0.95 && speedup < 1.3,
            "PAPI at high parallelism should track the GPU baseline: {speedup:.2}×"
        );
    }

    #[test]
    fn attacc_only_collapses_at_high_batch() {
        let w = short_workload(64, 2);
        let attacc = DecodingSimulator::new(SystemConfig::attacc_only(llama())).run(&w);
        let base = DecodingSimulator::new(SystemConfig::a100_attacc(llama())).run(&w);
        let slowdown = base.speedup_over(&attacc);
        assert!(
            slowdown > 4.0,
            "AttAcc-only at batch 64 should be many times slower: {slowdown:.2}×"
        );
    }

    #[test]
    fn papi_scheduler_switches_as_rlp_decays() {
        // A batch that starts above α and decays below it must produce
        // at least one PU → FC-PIM rescheduling event (Fig. 5(d)).
        let w = WorkloadSpec::static_batching(DatasetKind::CreativeWriting, 64, 1).with_seed(9);
        let papi = DecodingSimulator::new(SystemConfig::papi(llama()));
        let report = papi.run(&w);
        assert!(report.scheduler.switches >= 1, "no rescheduling happened");
        assert!(report.scheduler.pu_decisions > 0);
        assert!(report.scheduler.fc_pim_decisions > 0);
        // The decay direction means PU placements come first.
        assert_eq!(report.placements.first(), Some(&Placement::Pu));
        assert_eq!(report.placements.last(), Some(&Placement::FcPim));
    }

    #[test]
    fn energy_parts_sum_to_total() {
        let w = short_workload(16, 2);
        let r = DecodingSimulator::new(SystemConfig::pim_only_papi(llama())).run(&w);
        let sum = r.energy_parts.0 + r.energy_parts.1 + r.energy_parts.2 + r.energy_parts.3;
        assert!((sum.value() - r.energy.value()).abs() < 1e-12 * r.energy.value().max(1.0));
    }

    #[test]
    fn fig12_shape_fc_dominates_comm_significant() {
        // LLaMA-65B, batch 4, speculation 4, PIM-only PAPI: FC dominates,
        // communication ≈ 28 % (paper Fig. 12).
        let trace = WorkloadSpec::static_batching(DatasetKind::CreativeWriting, 4, 4)
            .with_seed(1)
            .trace();
        let r = DecodingSimulator::new(SystemConfig::pim_only_papi(llama())).run_trace(&trace);
        let total = r.phases.total().value();
        let [fc, attn, comm, other] = [
            r.phases.fc,
            r.phases.attention,
            r.phases.communication,
            r.phases.other,
        ]
        .map(|phase| phase.value() / total);
        assert!(fc > 0.5, "FC share {fc}");
        assert!(attn < 0.15, "attention share {attn}");
        assert!(
            comm > 0.15 && comm < 0.40,
            "communication share {comm}, paper reports 28.2 %"
        );
        assert!(other < 0.1, "other share {other}");
    }

    #[test]
    #[should_panic(expected = "KV cache")]
    fn kv_overflow_panics() {
        let sim = DecodingSimulator::new(SystemConfig::pim_only_papi(llama()));
        let trace = papi_workload::DecodeTrace {
            iterations: vec![IterationRecord {
                rlp: 1000,
                tlp: 1,
                total_kv_len: 800_000_000, // ~1 PB of KV
                max_kv_len: 800_000,
                new_tokens: 1000,
                finished: 1000,
            }],
            requests: 1000,
            total_tokens: 1000,
            total_input_tokens: 0,
            sum_input_len_squared: 0,
        };
        let _ = sim.run_trace(&trace);
    }

    #[test]
    fn kv_overflow_names_the_peak_demand() {
        // The check runs inside the pricing walk, but the message still
        // names the whole trace's peak, not the first overflowing
        // iteration.
        let config = SystemConfig::pim_only_papi(llama());
        let record = |total_kv_len| IterationRecord {
            rlp: 1000,
            tlp: 1,
            total_kv_len,
            max_kv_len: total_kv_len / 1000,
            new_tokens: 1000,
            finished: 0,
        };
        let trace = papi_workload::DecodeTrace {
            iterations: vec![record(1_000), record(400_000_000), record(800_000_000)],
            requests: 1000,
            total_tokens: 3000,
            total_input_tokens: 0,
            sum_input_len_squared: 0,
        };
        let expected = config
            .validate_capacity(800_000_000.0 * llama().kv_bytes_per_token().value())
            .expect_err("the peak overflows the pool");
        let sim = DecodingSimulator::new(config);
        let payload = std::panic::catch_unwind(|| sim.run_trace(&trace))
            .expect_err("an overflowing trace panics");
        assert_eq!(payload.downcast_ref::<String>(), Some(&expected));
    }

    #[test]
    fn deterministic_reports() {
        let w = short_workload(8, 2);
        let sim = DecodingSimulator::new(SystemConfig::pim_only_papi(llama()));
        let a = sim.run(&w);
        let b = sim.run(&w);
        assert_eq!(a.total_latency(), b.total_latency());
        assert_eq!(a.energy, b.energy);
    }
}
