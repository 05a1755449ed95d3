//! GPU energy model.
//!
//! A GPU pays for data the way PIM never does: every byte crosses the
//! DRAM array, the HBM PHY, and the on-chip cache/register hierarchy
//! before a tensor core touches it. The per-byte constant here (~126
//! pJ/B ≈ 15.7 pJ/bit) is roughly 2× the near-bank PIM access energy —
//! the gap the paper's Fig. 8(b) energy-efficiency results ride on.

use crate::exec::KernelProfile;
use crate::spec::MultiGpu;
use papi_types::{Energy, Time};
use serde::{Deserialize, Serialize};

/// Per-operation energy constants for a GPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuEnergyModel {
    /// Energy per FLOP on the tensor cores, in picojoules.
    pub pj_per_flop: f64,
    /// Energy per off-chip byte (DRAM + PHY + on-chip hierarchy), in
    /// picojoules.
    pub pj_per_byte: f64,
    /// Energy per byte crossing the all-reduce fabric, in picojoules.
    pub pj_per_allreduce_byte: f64,
}

impl GpuEnergyModel {
    /// A100-class constants.
    pub fn a100() -> Self {
        Self {
            pj_per_flop: 1.3,
            pj_per_byte: 126.0,
            pj_per_allreduce_byte: 80.0,
        }
    }

    /// Energy of one kernel run of duration `time` on `gpus`.
    ///
    /// Includes dynamic compute + memory energy, collective traffic, and
    /// the base board power of every active GPU for the duration. Idle
    /// accelerators are assumed power-gated (documented substitution —
    /// the paper's energy accounting likewise charges only active units).
    pub(crate) fn kernel_energy(
        &self,
        gpus: &MultiGpu,
        kernel: &KernelProfile,
        time: Time,
    ) -> Energy {
        let dynamic = Energy::from_picojoules(
            kernel.flops.value() * self.pj_per_flop
                + kernel.bytes.value() * self.pj_per_byte
                + kernel.allreduce_bytes.value()
                    * self.pj_per_allreduce_byte
                    * 2.0
                    * (gpus.count.saturating_sub(1)) as f64,
        );
        let base = gpus.gpu.base_power * time * gpus.count as f64;
        dynamic + base
    }
}

impl Default for GpuEnergyModel {
    fn default() -> Self {
        Self::a100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use papi_types::{Bytes, Flops};

    #[test]
    fn memory_energy_dominates_dynamic_energy_of_low_ai_kernels() {
        let m = GpuEnergyModel::a100();
        let gpus = MultiGpu::dgx6_a100();
        // Memory-bound FC: 100 GiB of weights, 2 TFLOP.
        let kernel = KernelProfile::new(Flops::from_tflops(2.0), Bytes::from_gib(100.0));
        let e = m.kernel_energy(&gpus, &kernel, Time::from_millis(11.0));
        let mem_only = Energy::from_picojoules(kernel.bytes.value() * m.pj_per_byte);
        let compute_only = Energy::from_picojoules(kernel.flops.value() * m.pj_per_flop);
        // Memory movement dwarfs compute and is a large share of the
        // total (base board power takes the rest).
        assert!(mem_only.value() > 4.0 * compute_only.value());
        assert!(mem_only.value() / e.value() > 0.3);
    }

    #[test]
    fn base_power_scales_with_time_and_count() {
        let m = GpuEnergyModel::a100();
        let gpus = MultiGpu::dgx6_a100();
        let kernel = KernelProfile::new(Flops::new(0.0), Bytes::new(1.0));
        let e1 = m.kernel_energy(&gpus, &kernel, Time::from_millis(1.0));
        let e2 = m.kernel_energy(&gpus, &kernel, Time::from_millis(2.0));
        assert!((e2.value() - 2.0 * e1.value()).abs() / e1.value() < 1e-6);
    }

    #[test]
    fn allreduce_energy_zero_for_single_gpu() {
        let m = GpuEnergyModel::a100();
        let mut solo = MultiGpu::dgx6_a100();
        solo.count = 1;
        let with = KernelProfile::new(Flops::new(1.0), Bytes::new(1.0))
            .with_allreduce(Bytes::from_mib(100.0));
        let without = KernelProfile::new(Flops::new(1.0), Bytes::new(1.0));
        let t = Time::from_micros(10.0);
        assert_eq!(
            m.kernel_energy(&solo, &with, t),
            m.kernel_energy(&solo, &without, t)
        );
    }

    #[test]
    fn gpu_byte_energy_exceeds_pim_access_energy() {
        // The premise of the paper's energy results: off-chip movement on
        // the GPU costs ~2× the near-bank PIM access (≈62 pJ/B).
        let m = GpuEnergyModel::a100();
        assert!(m.pj_per_byte > 1.8 * 62.15);
        assert!(m.pj_per_byte < 3.0 * 62.15);
    }
}
