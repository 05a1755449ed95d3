//! Fully-connected (GEMV / skinny-GEMM) kernel execution on PIM devices.
//!
//! A decoding-phase FC kernel multiplies an `(out × in)` weight matrix by
//! `tokens = RLP × TLP` activation vectors. On PIM the weights stream
//! from the banks into the near-bank FPUs; the token count is the
//! data-reuse level, which sets both the achievable MAC rate (see
//! `PimDevice::mac_rate`) and the energy split.

use crate::device::PimDevice;
use crate::energy::PimEnergyBreakdown;
use crate::partition::plan_weight_partition;
use papi_types::{Bytes, DataType, Time};
use serde::{Deserialize, Serialize};

/// Shape of one FC kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GemvSpec {
    /// Output features (weight rows).
    pub out_features: u64,
    /// Input features (weight columns).
    pub in_features: u64,
    /// Activation vectors processed together (`RLP × TLP`), i.e. the
    /// DRAM data-reuse level.
    pub tokens: u64,
    /// Element type.
    pub dtype: DataType,
}

impl GemvSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[track_caller]
    pub fn new(out_features: u64, in_features: u64, tokens: u64, dtype: DataType) -> Self {
        assert!(
            out_features > 0 && in_features > 0 && tokens > 0,
            "GEMV dimensions must be positive"
        );
        Self {
            out_features,
            in_features,
            tokens,
            dtype,
        }
    }

    /// Number of weights.
    pub(crate) fn weights(&self) -> u64 {
        self.out_features * self.in_features
    }

    /// Bytes of weights.
    pub(crate) fn weight_bytes(&self) -> Bytes {
        self.weights() as f64 * self.dtype.size()
    }

    /// Multiply-accumulates performed.
    pub(crate) fn macs(&self) -> f64 {
        self.weights() as f64 * self.tokens as f64
    }
}

/// What limited a PIM kernel's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bottleneck {
    /// Weight streaming out of the DRAM banks.
    WeightStream,
    /// FPU throughput.
    Compute,
}

/// Outcome of executing a kernel on a PIM array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PimKernelResult {
    /// Kernel latency.
    pub time: Time,
    /// Energy split (DRAM access / transfer / compute).
    pub energy: PimEnergyBreakdown,
    /// Weight bytes fetched from DRAM.
    pub fetch_bytes: Bytes,
    /// Multiply-accumulates executed.
    pub macs: f64,
    /// What limited execution.
    pub bottleneck: Bottleneck,
}

/// Executes one FC kernel spread over `n_devices` identical PIM devices.
///
/// Latency is the busiest device's streaming/compute time (including
/// partition imbalance); energy covers all devices.
///
/// # Panics
///
/// Panics if `n_devices` is zero.
#[track_caller]
pub fn execute_gemv(device: &PimDevice, n_devices: usize, spec: &GemvSpec) -> PimKernelResult {
    assert!(n_devices > 0, "need at least one PIM device");
    let plan = plan_weight_partition(
        spec.out_features,
        spec.in_features,
        n_devices,
        device.banks(),
    );
    let reuse = spec.tokens;
    let mac_rate = device.mac_rate(reuse, spec.dtype); // per device

    // Busiest device's share of the MACs, inflated by bank imbalance.
    let macs_busiest = plan.rows_per_device as f64
        * spec.in_features as f64
        * spec.tokens as f64
        * plan.bank_imbalance;
    let time = Time::new(macs_busiest / mac_rate);
    let fetch_bytes = spec.weight_bytes();
    let energy =
        device
            .energy_model
            .breakdown(fetch_bytes, device.dram_access_pj_per_byte(), spec.macs());
    // Compute-bound iff the FPUs are saturated: the achieved MAC rate
    // reaches the device's peak.
    let compute_peak = device.total_fpus() as f64 * device.fpu.mac_rate();
    let bottleneck = if mac_rate >= 0.999 * compute_peak {
        Bottleneck::Compute
    } else {
        Bottleneck::WeightStream
    };
    PimKernelResult {
        time,
        energy,
        fetch_bytes,
        macs: spec.macs(),
        bottleneck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn llama_fc_spec(tokens: u64) -> GemvSpec {
        // One LLaMA-65B layer's worth of FC weights lumped together:
        // 12 h² with h = 8192.
        GemvSpec::new(12 * 8192, 8192, tokens, DataType::Fp16)
    }

    #[test]
    fn spec_arithmetic() {
        let s = GemvSpec::new(100, 200, 4, DataType::Fp16);
        assert_eq!(s.weights(), 20_000);
        assert_eq!(s.weight_bytes().value(), 40_000.0);
        assert_eq!(s.macs(), 80_000.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dims_rejected() {
        GemvSpec::new(0, 10, 1, DataType::Fp16);
    }

    #[test]
    fn latency_scales_inverse_with_devices() {
        let fc = PimDevice::fc_pim();
        let spec = llama_fc_spec(16);
        let t1 = execute_gemv(&fc, 1, &spec).time;
        let t30 = execute_gemv(&fc, 30, &spec).time;
        let speedup = t1.value() / t30.value();
        assert!(
            speedup > 25.0 && speedup <= 30.5,
            "30 devices gave {speedup}× over 1"
        );
    }

    #[test]
    fn fc_pim_beats_attacc_at_high_tokens() {
        // The core Fig. 12 effect: at reuse 16 (batch 4 × spec 4) the
        // 4P1B FC-PIM should be ~3× faster than 1P1B AttAcc.
        let spec = llama_fc_spec(16);
        let fc = execute_gemv(&PimDevice::fc_pim(), 30, &spec);
        let attacc = execute_gemv(&PimDevice::attacc(), 30, &spec);
        let ratio = attacc.time.value() / fc.time.value();
        assert!(
            ratio > 2.5 && ratio < 3.5,
            "FC-PIM speedup {ratio}, want ~3"
        );
    }

    #[test]
    fn low_tokens_stream_bound_high_tokens_compute_bound() {
        let fc = PimDevice::fc_pim();
        let low = execute_gemv(&fc, 30, &llama_fc_spec(1));
        let high = execute_gemv(&fc, 30, &llama_fc_spec(64));
        assert_eq!(low.bottleneck, Bottleneck::WeightStream);
        assert_eq!(high.bottleneck, Bottleneck::Compute);
    }

    #[test]
    fn latency_grows_linearly_once_compute_bound() {
        let fc = PimDevice::fc_pim();
        let t16 = execute_gemv(&fc, 30, &llama_fc_spec(16)).time;
        let t64 = execute_gemv(&fc, 30, &llama_fc_spec(64)).time;
        let ratio = t64.value() / t16.value();
        assert!(
            (ratio - 4.0).abs() < 0.3,
            "64/16 token ratio {ratio}, want ~4"
        );
    }

    #[test]
    fn stream_bound_region_has_constant_mac_rate() {
        // From reuse 1 to 4, FC-PIM trades parallel weight streams for
        // broadcast: the MAC rate is unchanged, so latency grows exactly
        // with the token count.
        let fc = PimDevice::fc_pim();
        let t1 = execute_gemv(&fc, 30, &llama_fc_spec(1)).time;
        let t4 = execute_gemv(&fc, 30, &llama_fc_spec(4)).time;
        assert!(
            (t4.value() / t1.value() - 4.0).abs() < 0.1,
            "stream-bound latency should scale with tokens: {} vs {}",
            t1,
            t4
        );
    }

    #[test]
    fn energy_dram_share_falls_with_tokens() {
        let fc = PimDevice::fc_pim();
        let (d1, ..) = execute_gemv(&fc, 30, &llama_fc_spec(1)).energy.fractions();
        let (d64, ..) = execute_gemv(&fc, 30, &llama_fc_spec(64)).energy.fractions();
        assert!(d1 > 0.9, "no-reuse dram share {d1}");
        assert!(d64 < 0.4, "reuse-64 dram share {d64}");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Latency is monotone in token count for every device.
            #[test]
            fn latency_monotone_in_tokens(a in 1u64..256, b in 1u64..256) {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                for device in [PimDevice::fc_pim(), PimDevice::attacc(), PimDevice::attn_pim()] {
                    let t_lo = execute_gemv(&device, 8, &llama_fc_spec(lo)).time;
                    let t_hi = execute_gemv(&device, 8, &llama_fc_spec(hi)).time;
                    prop_assert!(t_lo.value() <= t_hi.value() * (1.0 + 1e-9));
                }
            }

            /// More devices never hurt.
            #[test]
            fn latency_monotone_in_devices(n in 1usize..30, tokens in 1u64..64) {
                let fc = PimDevice::fc_pim();
                let few = execute_gemv(&fc, n, &llama_fc_spec(tokens)).time;
                let more = execute_gemv(&fc, n + 1, &llama_fc_spec(tokens)).time;
                prop_assert!(more.value() <= few.value() * (1.0 + 1e-9));
            }

            /// Energy's DRAM share is non-increasing in tokens (reuse only
            /// helps), and the implied power never exceeds the no-reuse
            /// draw.
            #[test]
            fn dram_share_monotone_in_reuse(a in 1u64..64, b in 1u64..64) {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                let fc = PimDevice::fc_pim();
                let (d_lo, ..) = execute_gemv(&fc, 8, &llama_fc_spec(lo)).energy.fractions();
                let (d_hi, ..) = execute_gemv(&fc, 8, &llama_fc_spec(hi)).energy.fractions();
                prop_assert!(d_hi <= d_lo + 1e-9);
            }

            /// MACs and fetch bytes are exact bookkeeping, independent of
            /// the hardware.
            #[test]
            fn accounting_is_exact(tokens in 1u64..128, out in 1u64..4096, inp in 1u64..4096) {
                let spec = GemvSpec::new(out, inp, tokens, DataType::Fp16);
                let r = execute_gemv(&PimDevice::attacc(), 4, &spec);
                prop_assert_eq!(r.macs, (out * inp * tokens) as f64);
                prop_assert_eq!(r.fetch_bytes.value(), (out * inp * 2) as f64);
            }
        }
    }
}
