//! System assembly: the five designs of the paper's evaluation.

use papi_gpu::{GpuEnergyModel, GpuSpec, MultiGpu};
use papi_interconnect::{LinkSpec, SystemTopology};
use papi_llm::ModelConfig;
use papi_pim::PimDevice;
use papi_sched::calibrate_alpha;
use papi_sched::calibration::Calibration;
pub use papi_sched::SchedulerKind;
use papi_types::Time;
use serde::{Deserialize, Serialize};

/// Which of the paper's evaluated designs a [`SystemConfig`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DesignKind {
    /// The full PAPI system (dynamic scheduling + hybrid PIM).
    Papi,
    /// 6×A100 + AttAcc attention PIM (state-of-the-art heterogeneous).
    A100AttAcc,
    /// 6×A100 + Samsung HBM-PIM attention devices.
    A100HbmPim,
    /// AttAcc PIM only (FC and attention both on 1P1B PIM).
    AttAccOnly,
    /// PAPI's PIM side only: FC-PIM + Attn-PIM, no GPU (Fig. 11/12).
    PimOnlyPapi,
}

impl DesignKind {
    /// The four designs of the Fig. 8 end-to-end comparison.
    pub const FIG8: [DesignKind; 4] = [
        DesignKind::A100AttAcc,
        DesignKind::A100HbmPim,
        DesignKind::AttAccOnly,
        DesignKind::Papi,
    ];

    /// Display label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            DesignKind::Papi => "PAPI",
            DesignKind::A100AttAcc => "A100+AttAcc",
            DesignKind::A100HbmPim => "A100+HBM-PIM",
            DesignKind::AttAccOnly => "AttAcc-only",
            DesignKind::PimOnlyPapi => "PIM-only PAPI",
        }
    }
}

impl core::fmt::Display for DesignKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Tensor-parallel sharding of one logical engine across `degree`
/// nodes joined by `fabric`.
///
/// Each node holds `1/degree` of the FC weights and `1/degree` of the
/// Attn-PIM KV capacity; the group acts as one logical
/// [`SystemConfig`] with `degree ×` every device pool, paying a
/// per-layer activation all-reduce over `fabric` each iteration (priced
/// by [`IterationPricer`](crate::pricer::IterationPricer)) plus a KV
/// shard-scatter at prefill.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TpGroup {
    /// Nodes sharing the shard.
    pub degree: usize,
    /// The inter-node fabric TP collectives cross.
    pub fabric: LinkSpec,
}

/// A fully assembled computing system ready to decode.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Which paper design this is.
    pub design: DesignKind,
    /// The model being served.
    pub model: ModelConfig,
    /// The GPU complement, if the design has one.
    pub gpus: Option<MultiGpu>,
    /// GPU energy constants.
    pub gpu_energy: GpuEnergyModel,
    /// The PIM pool holding FC weights (device preset + count), if the
    /// design can run FC kernels on PIM.
    pub fc_pim: Option<(PimDevice, usize)>,
    /// The PIM pool holding attention KV caches (device preset + count).
    pub attn_pim: (PimDevice, usize),
    /// Interconnect wiring.
    pub topology: SystemTopology,
    /// FC placement policy.
    pub scheduler: SchedulerKind,
    /// Host dispatch overhead charged per decoder layer per iteration
    /// (the "Other" sliver of Fig. 12).
    pub dispatch_per_layer: Time,
    /// Fixed host overhead per iteration (batch assembly, token
    /// gather/scan for `<|eos|>` — the §5.2.2 monitoring step).
    pub dispatch_per_iteration: Time,
    /// Tensor-parallel sharding across nodes, if this logical system is
    /// a multi-node TP group (`None` for the paper's single node).
    pub tp: Option<TpGroup>,
}

/// Devices holding FC weights (paper §7.1: 30 of the 90 HBM stacks).
pub(crate) const FC_POOL_DEVICES: usize = 30;
/// Devices holding attention KV caches (the other 60).
pub(crate) const ATTN_POOL_DEVICES: usize = 60;

impl SystemConfig {
    fn base(
        design: DesignKind,
        model: ModelConfig,
        gpus: Option<MultiGpu>,
        fc_pim: Option<(PimDevice, usize)>,
        attn_pim: (PimDevice, usize),
        scheduler: SchedulerKind,
    ) -> Self {
        Self {
            design,
            model,
            gpus,
            gpu_energy: GpuEnergyModel::a100(),
            fc_pim,
            attn_pim,
            topology: SystemTopology::papi_default(FC_POOL_DEVICES, ATTN_POOL_DEVICES)
                .expect("paper topology is valid"),
            scheduler,
            dispatch_per_layer: Time::from_micros(1.5),
            dispatch_per_iteration: Time::from_micros(100.0),
            tp: None,
        }
    }

    /// The full PAPI system: 6 GPUs (60 GB visible each), 30 FC-PIM
    /// devices, 60 Attn-PIM devices, dynamic α-threshold scheduling with
    /// α calibrated offline for `model` (paper §5.2.1).
    pub fn papi(model: ModelConfig) -> Self {
        let calibration = Self::calibrate(&model);
        Self::papi_with_alpha(model, calibration.alpha)
    }

    /// PAPI with an explicit α (for threshold-sensitivity studies).
    pub fn papi_with_alpha(model: ModelConfig, alpha: f64) -> Self {
        let mut gpus = MultiGpu::dgx6_a100();
        gpus.gpu = GpuSpec::a100_papi_60gb();
        Self::base(
            DesignKind::Papi,
            model,
            Some(gpus),
            Some((PimDevice::fc_pim(), FC_POOL_DEVICES)),
            (PimDevice::attn_pim(), ATTN_POOL_DEVICES),
            SchedulerKind::PapiDynamic { alpha },
        )
    }

    /// The A100+AttAcc baseline: FC always on 6 GPUs, attention on
    /// AttAcc 1P1B devices.
    pub fn a100_attacc(model: ModelConfig) -> Self {
        Self::base(
            DesignKind::A100AttAcc,
            model,
            Some(MultiGpu::dgx6_a100()),
            None,
            (PimDevice::attacc(), ATTN_POOL_DEVICES),
            SchedulerKind::FcOnGpu,
        )
    }

    /// The A100+HBM-PIM baseline: FC always on 6 GPUs, attention on
    /// Samsung-style 1P2B devices.
    pub(crate) fn a100_hbm_pim(model: ModelConfig) -> Self {
        Self::base(
            DesignKind::A100HbmPim,
            model,
            Some(MultiGpu::dgx6_a100()),
            None,
            (PimDevice::hbm_pim(), ATTN_POOL_DEVICES),
            SchedulerKind::FcOnGpu,
        )
    }

    /// The AttAcc-only baseline: both kernel families on 1P1B PIM.
    pub fn attacc_only(model: ModelConfig) -> Self {
        Self::base(
            DesignKind::AttAccOnly,
            model,
            None,
            Some((PimDevice::attacc(), FC_POOL_DEVICES)),
            (PimDevice::attacc(), ATTN_POOL_DEVICES),
            SchedulerKind::FcOnPim,
        )
    }

    /// PAPI's PIM side alone (Fig. 11/12): FC on FC-PIM, attention on
    /// Attn-PIM, no GPU.
    pub fn pim_only_papi(model: ModelConfig) -> Self {
        Self::base(
            DesignKind::PimOnlyPapi,
            model,
            None,
            Some((PimDevice::fc_pim(), FC_POOL_DEVICES)),
            (PimDevice::attn_pim(), ATTN_POOL_DEVICES),
            SchedulerKind::FcOnPim,
        )
    }

    /// Shards this system tensor-parallel across `degree` nodes joined
    /// by `fabric`.
    ///
    /// Every device pool (GPUs, FC-PIM, Attn-PIM) scales by `degree` —
    /// equivalently, each node holds `1/degree` of the FC weights and
    /// KV capacity — and each decoding iteration pays the per-layer
    /// activation all-reduce over `fabric`, priced through the shared
    /// [`IterationPricer`](crate::pricer::IterationPricer). A dynamic
    /// PAPI scheduler is recalibrated against the sharded pools (wider
    /// groups shift the FC memory-boundedness crossover α).
    ///
    /// `degree == 1` is the identity: the config is returned unchanged,
    /// so a TP-1 "group" reproduces the single node exactly.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero.
    #[track_caller]
    pub(crate) fn with_tensor_parallel(mut self, degree: usize, fabric: LinkSpec) -> Self {
        assert!(degree > 0, "a TP group needs at least one node");
        if degree == 1 {
            return self;
        }
        if let Some(gpus) = &mut self.gpus {
            gpus.count *= degree;
        }
        if let Some((_, count)) = &mut self.fc_pim {
            *count *= degree;
        }
        self.attn_pim.1 *= degree;
        // Each node owns its own intra-node links: the group's pooled
        // traffic sees `degree ×` every route's bandwidth.
        self.topology = self.topology.clone().aggregated(degree);
        self.tp = Some(TpGroup { degree, fabric });
        if let SchedulerKind::PapiDynamic { .. } = self.scheduler {
            if let (Some((fc_device, fc_count)), Some(gpus)) = (&self.fc_pim, &self.gpus) {
                let calibration = calibrate_alpha(
                    |tokens| {
                        crate::pricer::fc_latency_on_pim(&self.model, fc_device, *fc_count, tokens)
                    },
                    |tokens| {
                        crate::pricer::fc_latency_on_pu(&self.model, gpus, &self.gpu_energy, tokens)
                    },
                    512,
                );
                self.scheduler = SchedulerKind::PapiDynamic {
                    alpha: calibration.alpha,
                };
            }
        }
        self
    }

    /// Builds the design `kind` for `model`.
    pub fn build(kind: DesignKind, model: ModelConfig) -> Self {
        match kind {
            DesignKind::Papi => Self::papi(model),
            DesignKind::A100AttAcc => Self::a100_attacc(model),
            DesignKind::A100HbmPim => Self::a100_hbm_pim(model),
            DesignKind::AttAccOnly => Self::attacc_only(model),
            DesignKind::PimOnlyPapi => Self::pim_only_papi(model),
        }
    }

    /// The §5.2.1 offline calibration: sweep token counts, measure the
    /// FC latency on both FC-PIM and the PUs using the same latency
    /// models the engine runs, and return the crossover α.
    pub fn calibrate(model: &ModelConfig) -> Calibration {
        let fc_pim = PimDevice::fc_pim();
        let mut gpus = MultiGpu::dgx6_a100();
        gpus.gpu = GpuSpec::a100_papi_60gb();
        let gpu_energy = GpuEnergyModel::a100();
        calibrate_alpha(
            |tokens| crate::engine::fc_latency_on_pim(model, &fc_pim, FC_POOL_DEVICES, tokens),
            |tokens| crate::engine::fc_latency_on_pu(model, &gpus, &gpu_energy, tokens),
            512,
        )
    }

    /// Bytes the attention pool holds: the KV-cache capacity of every
    /// Attn-PIM device together.
    pub(crate) fn attn_pool_bytes(&self) -> f64 {
        let (attn_device, attn_count) = &self.attn_pim;
        attn_device.capacity().value() * *attn_count as f64
    }

    /// Memory sanity: FC weight pool capacity versus model size, and the
    /// attention pool versus a KV demand in bytes.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// capacity.
    pub fn validate_capacity(&self, kv_demand_bytes: f64) -> Result<(), String> {
        if let Some((device, count)) = &self.fc_pim {
            let pool = device.capacity().value() * *count as f64;
            if self.model.weight_bytes().value() > pool {
                return Err(format!(
                    "{}: FC weights ({:.0} GB) exceed the {}-device FC-PIM pool ({:.0} GB)",
                    self.design,
                    self.model.weight_bytes().value() / 1e9,
                    count,
                    pool / 1e9
                ));
            }
        } else if let Some(gpus) = &self.gpus {
            let pool = gpus.memory().value();
            if self.model.weight_bytes().value() > pool {
                return Err(format!(
                    "{}: FC weights exceed GPU memory ({:.0} GB)",
                    self.design,
                    pool / 1e9
                ));
            }
        }
        let attn_pool = self.attn_pool_bytes();
        if kv_demand_bytes > attn_pool {
            return Err(format!(
                "{}: KV cache ({:.0} GB) exceeds the {}-device Attn-PIM pool ({:.0} GB)",
                self.design,
                kv_demand_bytes / 1e9,
                self.attn_pim.1,
                attn_pool / 1e9
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use papi_llm::ModelPreset;

    #[test]
    fn paper_pool_sizing_fits_gpt3_175b() {
        // §7.1: 30 × 12 GB FC-PIM = 360 GB just fits GPT-3 175B's 350 GB.
        let papi = SystemConfig::papi_with_alpha(ModelPreset::Gpt3_175B.config(), 24.0);
        papi.validate_capacity(0.0).unwrap();
        let (fc, n) = papi.fc_pim.as_ref().unwrap();
        let pool_gb = fc.capacity().value() * *n as f64 / 1e9;
        assert!(pool_gb > 350.0 && pool_gb < 400.0, "pool {pool_gb} GB");
    }

    #[test]
    fn kv_capacity_violation_detected() {
        let papi = SystemConfig::papi_with_alpha(ModelPreset::Llama65B.config(), 24.0);
        // 60 × 16 GB ≈ 1031 GB pool.
        assert!(papi.validate_capacity(1.2e12).is_err());
        assert!(papi.validate_capacity(0.9e12).is_ok());
    }

    #[test]
    fn designs_have_expected_hardware() {
        let model = ModelPreset::Llama65B.config();
        let attacc = SystemConfig::a100_attacc(model.clone());
        assert!(attacc.gpus.is_some());
        assert!(attacc.fc_pim.is_none());
        assert_eq!(attacc.attn_pim.0.config.label(), "1P1B");

        let hbm = SystemConfig::a100_hbm_pim(model.clone());
        assert_eq!(hbm.attn_pim.0.config.label(), "1P2B");

        let pim_only = SystemConfig::pim_only_papi(model.clone());
        assert!(pim_only.gpus.is_none());
        assert_eq!(pim_only.fc_pim.as_ref().unwrap().0.config.label(), "4P1B");

        let attacc_only = SystemConfig::attacc_only(model);
        assert!(attacc_only.gpus.is_none());
        assert_eq!(
            attacc_only.fc_pim.as_ref().unwrap().0.config.label(),
            "1P1B"
        );
    }

    #[test]
    fn calibrated_alpha_is_in_the_expected_band() {
        // The crossover between 30 FC-PIM devices and 6 A100s sits in the
        // tens of tokens (the Fig. 4 regime: PIM wins at batch ≤ 4–8,
        // the GPU from ~16–32 on).
        let cal = SystemConfig::calibrate(&ModelPreset::Llama65B.config());
        assert!(
            cal.alpha > 4.0 && cal.alpha < 64.0,
            "alpha {} outside plausible band",
            cal.alpha
        );
    }

    #[test]
    fn build_dispatches_all_designs() {
        let model = ModelPreset::Gpt3_66B.config();
        for kind in [
            DesignKind::A100AttAcc,
            DesignKind::A100HbmPim,
            DesignKind::AttAccOnly,
            DesignKind::PimOnlyPapi,
        ] {
            let cfg = SystemConfig::build(kind, model.clone());
            assert_eq!(cfg.design, kind);
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(DesignKind::Papi.label(), "PAPI");
        assert_eq!(DesignKind::A100AttAcc.to_string(), "A100+AttAcc");
    }
}
