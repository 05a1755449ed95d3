//! GPU hardware specifications.

use papi_types::{Bandwidth, Bytes, FlopsRate, Power, Time};
use serde::{Deserialize, Serialize};

/// One computation-centric accelerator (GPU/TPU/NPU-class).
///
/// # Example
///
/// ```
/// use papi_gpu::GpuSpec;
///
/// let a100 = GpuSpec::a100();
/// // The roofline knee: 312 TFLOPS / 1935 GB/s ≈ 161 FLOPs/byte.
/// assert!(((a100.peak_flops / a100.mem_bandwidth).value() - 161.2).abs() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Device name.
    pub name: String,
    /// Peak FP16 tensor throughput.
    pub peak_flops: FlopsRate,
    /// Peak HBM bandwidth.
    pub mem_bandwidth: Bandwidth,
    /// On-board memory capacity.
    pub memory: Bytes,
    /// Fraction of peak FLOPs a well-tuned GEMM reaches.
    pub compute_efficiency: f64,
    /// Fraction of peak bandwidth a streaming kernel reaches.
    pub memory_efficiency: f64,
    /// Minimum latency of any kernel (launch + sync overhead).
    pub kernel_floor: Time,
    /// Base board power while executing (beyond per-op energy).
    pub base_power: Power,
}

impl GpuSpec {
    /// NVIDIA A100 80 GB (SXM): 312 TFLOPS FP16 tensor, 1935 GB/s HBM2e.
    pub fn a100() -> Self {
        Self {
            name: "A100-80GB".to_owned(),
            peak_flops: FlopsRate::from_tflops(312.0),
            mem_bandwidth: Bandwidth::from_gb_per_sec(1935.0),
            memory: Bytes::from_gib(80.0),
            compute_efficiency: 0.70,
            memory_efficiency: 0.85,
            kernel_floor: Time::from_micros(5.0),
            // Sustained board draw during inference beyond the per-op
            // dynamic energy (SMs, scheduler, HBM PHY standby): the gap
            // between PIM's near-bank execution and an active GPU that
            // the paper's Fig. 8(b) energy results rest on.
            base_power: Power::from_watts(250.0),
        }
    }

    /// The A100 variant used inside PAPI: one of the five HBM stacks is
    /// the 12 GB FC-PIM die, so the processor sees 60 GB of plain memory
    /// (paper §7.1).
    pub fn a100_papi_60gb() -> Self {
        Self {
            name: "A100-PAPI-60GB".to_owned(),
            memory: Bytes::from_gib(60.0),
            ..Self::a100()
        }
    }
}

/// A tensor-parallel group of identical GPUs (the paper's 6×A100 node).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiGpu {
    /// The member device.
    pub gpu: GpuSpec,
    /// Number of devices working on each kernel.
    pub count: usize,
    /// Per-direction bandwidth of the all-reduce fabric (NVLink).
    pub allreduce_bandwidth: Bandwidth,
    /// Latency of one collective.
    pub allreduce_latency: Time,
}

impl MultiGpu {
    /// Six A100s over NVLink — the paper's GPU baseline complement.
    pub fn dgx6_a100() -> Self {
        Self {
            gpu: GpuSpec::a100(),
            count: 6,
            allreduce_bandwidth: Bandwidth::from_gb_per_sec(300.0),
            allreduce_latency: Time::from_micros(4.0),
        }
    }

    /// Aggregate memory capacity.
    pub fn memory(&self) -> Bytes {
        self.gpu.memory * self.count as f64
    }

    /// Ring all-reduce time for `bytes` of activations: `2 (n-1)/n ×
    /// bytes / bandwidth` plus the collective latency. Zero for a single
    /// GPU.
    pub(crate) fn allreduce_time(&self, bytes: Bytes) -> Time {
        if self.count <= 1 || bytes.is_zero() {
            return Time::ZERO;
        }
        let volume = 2.0 * (self.count as f64 - 1.0) / self.count as f64 * bytes.value();
        self.allreduce_latency + Time::new(volume / self.allreduce_bandwidth.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_knee_matches_paper_numbers() {
        let a100 = GpuSpec::a100();
        let knee = a100.peak_flops / a100.mem_bandwidth;
        assert!((knee.value() - 161.24).abs() < 0.1);
    }

    #[test]
    fn papi_variant_has_60gb() {
        assert!((GpuSpec::a100_papi_60gb().memory.as_gib() - 60.0).abs() < 1e-9);
        assert_eq!(
            GpuSpec::a100_papi_60gb().peak_flops,
            GpuSpec::a100().peak_flops
        );
    }

    #[test]
    fn dgx_aggregates() {
        let dgx = MultiGpu::dgx6_a100();
        assert!((dgx.memory().as_gib() - 480.0).abs() < 1e-9);
    }

    #[test]
    fn allreduce_zero_for_single_gpu() {
        let mut solo = MultiGpu::dgx6_a100();
        solo.count = 1;
        assert_eq!(solo.allreduce_time(Bytes::from_mib(10.0)), Time::ZERO);
    }

    #[test]
    fn allreduce_grows_with_bytes() {
        let dgx = MultiGpu::dgx6_a100();
        let small = dgx.allreduce_time(Bytes::from_mib(1.0));
        let large = dgx.allreduce_time(Bytes::from_mib(100.0));
        assert!(large.value() > small.value());
        assert!(small.value() >= dgx.allreduce_latency.value());
    }
}
