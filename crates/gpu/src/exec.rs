//! Roofline kernel execution.

use crate::energy::GpuEnergyModel;
use crate::spec::MultiGpu;
use papi_types::{Bytes, Energy, Flops, Time};
use serde::{Deserialize, Serialize};

/// The FLOP and byte counts of one kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Floating-point operations.
    pub flops: Flops,
    /// Off-chip bytes moved (weights + activations + results).
    pub bytes: Bytes,
    /// Activation bytes that must be all-reduced across the
    /// tensor-parallel group after the kernel.
    pub allreduce_bytes: Bytes,
}

impl KernelProfile {
    /// A kernel with no collective afterwards.
    pub fn new(flops: Flops, bytes: Bytes) -> Self {
        Self {
            flops,
            bytes,
            allreduce_bytes: Bytes::ZERO,
        }
    }

    /// Adds an all-reduce on `bytes` of output activations.
    pub fn with_allreduce(mut self, bytes: Bytes) -> Self {
        self.allreduce_bytes = bytes;
        self
    }
}

/// Outcome of running a kernel on a (multi-)GPU.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuKernelResult {
    /// Total latency including collectives and the launch floor.
    pub time: Time,
    /// Time attributable to compute (the roofline's compute leg).
    pub compute_time: Time,
    /// Time attributable to memory traffic (the roofline's memory leg).
    pub memory_time: Time,
    /// All-reduce time.
    pub allreduce_time: Time,
    /// Total energy.
    pub energy: Energy,
    /// True when the memory leg dominated.
    pub memory_bound: bool,
}

/// Executes `kernel` on `gpus` (work split evenly across the group) with
/// `energy_model` for the energy account.
pub fn execute_kernel(
    gpus: &MultiGpu,
    energy_model: &GpuEnergyModel,
    kernel: &KernelProfile,
) -> GpuKernelResult {
    let n = gpus.count as f64;
    let compute_time = Time::new(
        kernel.flops.value() / n / (gpus.gpu.peak_flops.value() * gpus.gpu.compute_efficiency),
    );
    let memory_time = Time::new(
        kernel.bytes.value() / n / (gpus.gpu.mem_bandwidth.value() * gpus.gpu.memory_efficiency),
    );
    let allreduce_time = gpus.allreduce_time(kernel.allreduce_bytes);
    let roofline = compute_time.max(memory_time);
    let time = roofline.max(gpus.gpu.kernel_floor) + allreduce_time;
    let energy = energy_model.kernel_energy(gpus, kernel, time);
    GpuKernelResult {
        time,
        compute_time,
        memory_time,
        allreduce_time,
        energy,
        memory_bound: memory_time.value() >= compute_time.value(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use papi_types::{Bytes, Flops};

    fn dgx() -> MultiGpu {
        MultiGpu::dgx6_a100()
    }

    fn em() -> GpuEnergyModel {
        GpuEnergyModel::a100()
    }

    /// An FC kernel at batch 16 on LLaMA-65B-ish sizes: memory-bound on
    /// the GPU (AI = 16 << knee 161).
    #[test]
    fn low_batch_fc_is_memory_bound() {
        let weights = Bytes::from_gib(120.0);
        let kernel = KernelProfile::new(Flops::from_tflops(2.0), weights);
        let r = execute_kernel(&dgx(), &em(), &kernel);
        assert!(r.memory_bound);
        // 120 GiB over 6 × 1935 GB/s × 0.85 ≈ 13 ms.
        assert!(r.time.as_millis() > 10.0 && r.time.as_millis() < 16.0);
    }

    #[test]
    fn high_ai_kernel_is_compute_bound() {
        let kernel = KernelProfile::new(Flops::from_tflops(500.0), Bytes::from_gib(1.0));
        let r = execute_kernel(&dgx(), &em(), &kernel);
        assert!(!r.memory_bound);
        assert!(r.compute_time.value() > r.memory_time.value());
    }

    #[test]
    fn kernel_floor_applies_to_tiny_kernels() {
        let kernel = KernelProfile::new(Flops::new(1e6), Bytes::from_kib(64.0));
        let r = execute_kernel(&dgx(), &em(), &kernel);
        assert!((r.time.value() - dgx().gpu.kernel_floor.value()).abs() < 1e-12);
    }

    #[test]
    fn allreduce_adds_to_latency() {
        let base = KernelProfile::new(Flops::from_tflops(2.0), Bytes::from_gib(100.0));
        let with = base.with_allreduce(Bytes::from_mib(64.0));
        let r0 = execute_kernel(&dgx(), &em(), &base);
        let r1 = execute_kernel(&dgx(), &em(), &with);
        assert!(r1.time.value() > r0.time.value());
        assert_eq!(
            r1.allreduce_time,
            dgx().allreduce_time(Bytes::from_mib(64.0))
        );
    }

    #[test]
    fn memory_bound_latency_flat_in_flops() {
        // The motivation-figure effect: below the knee, adding FLOPs
        // (more tokens re-using the same weights) costs nothing.
        let bytes = Bytes::from_gib(100.0);
        let a = execute_kernel(
            &dgx(),
            &em(),
            &KernelProfile::new(Flops::from_tflops(1.0), bytes),
        );
        let b = execute_kernel(
            &dgx(),
            &em(),
            &KernelProfile::new(Flops::from_tflops(8.0), bytes),
        );
        assert!((a.time.value() - b.time.value()).abs() < 1e-9);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Roofline latency is monotone in both FLOPs and bytes.
            #[test]
            fn latency_monotone(f1 in 1e9..1e15f64, f2 in 1e9..1e15f64, b in 1e6..1e12f64) {
                let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
                let r_lo = execute_kernel(&dgx(), &em(), &KernelProfile::new(Flops::new(lo), Bytes::new(b)));
                let r_hi = execute_kernel(&dgx(), &em(), &KernelProfile::new(Flops::new(hi), Bytes::new(b)));
                prop_assert!(r_lo.time.value() <= r_hi.time.value() + 1e-15);
            }

            /// The roofline legs bound total time from below (up to the
            /// launch floor) and the max leg plus collectives from above.
            #[test]
            fn roofline_brackets_latency(f in 1e9..1e15f64, b in 1e6..1e12f64) {
                let r = execute_kernel(&dgx(), &em(), &KernelProfile::new(Flops::new(f), Bytes::new(b)));
                let leg = r.compute_time.max(r.memory_time);
                prop_assert!(r.time.value() + 1e-15 >= leg.value());
                let upper = leg.max(dgx().gpu.kernel_floor) + r.allreduce_time;
                prop_assert!(r.time.value() <= upper.value() + 1e-15);
            }

            /// The memory-bound flag agrees with the arithmetic
            /// intensity against the knee (efficiency-adjusted).
            #[test]
            fn boundedness_consistent_with_knee(f in 1e9..1e15f64, b in 1e6..1e12f64) {
                let gpus = dgx();
                let r = execute_kernel(&gpus, &em(), &KernelProfile::new(Flops::new(f), Bytes::new(b)));
                let eff_knee = (gpus.gpu.peak_flops / gpus.gpu.mem_bandwidth).value()
                    * gpus.gpu.compute_efficiency / gpus.gpu.memory_efficiency;
                let ai = f / b;
                if ai < eff_knee * 0.999 {
                    prop_assert!(r.memory_bound);
                } else if ai > eff_knee * 1.001 {
                    prop_assert!(!r.memory_bound);
                }
            }
        }
    }
}
