//! Multi-head attention kernel execution on PIM devices.
//!
//! Per request and head, the kernel reads the KV cache (`2 × kv_len ×
//! head_dim` elements) and performs the score (`Q·Kᵀ`) and context
//! (`P·V`) GEMVs plus a softmax over the scores. Batching gives the
//! attention kernel **no** weight reuse — every request owns its KV cache
//! — but speculative decoding does: the `queries = TLP` tokens of one
//! request share K and V, so the data-reuse level is `TLP` (this is why
//! the paper's Fig. 2 shows attention arithmetic intensity tracking
//! speculation length and ignoring batch size).

use crate::device::PimDevice;
use crate::energy::PimEnergyModel;
use crate::gemv::{Bottleneck, PimKernelResult};
use crate::partition::plan_attention_heads;
use papi_types::{Bytes, DataType, Flops, Time};
use serde::{Deserialize, Serialize};

/// Shape of one multi-head attention kernel invocation (one decoder
/// layer, all requests of the batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttentionSpec {
    /// Requests in the batch (RLP).
    pub requests: u64,
    /// Attention heads.
    pub heads: u64,
    /// Per-head dimension.
    pub head_dim: u64,
    /// KV-cache length each request attends over.
    pub kv_len: u64,
    /// Tokens decoded per request this iteration (TLP).
    pub queries: u64,
    /// Element type.
    pub dtype: DataType,
}

impl AttentionSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[track_caller]
    pub fn new(
        requests: u64,
        heads: u64,
        head_dim: u64,
        kv_len: u64,
        queries: u64,
        dtype: DataType,
    ) -> Self {
        assert!(
            requests > 0 && heads > 0 && head_dim > 0 && kv_len > 0 && queries > 0,
            "attention dimensions must be positive"
        );
        Self {
            requests,
            heads,
            head_dim,
            kv_len,
            queries,
            dtype,
        }
    }

    /// KV-cache bytes read (K and V, every request and head).
    #[inline]
    pub fn kv_bytes(&self) -> Bytes {
        (2 * self.requests * self.heads * self.kv_len * self.head_dim) as f64 * self.dtype.size()
    }

    /// Multiply-accumulates of the score + context GEMVs.
    #[inline]
    pub fn macs(&self) -> f64 {
        // Q·Kᵀ: kv_len × head_dim per query; P·V: the same.
        (2 * self.requests * self.heads * self.queries * self.kv_len * self.head_dim) as f64
    }

    /// FLOPs (2 per MAC) of the GEMV portions.
    pub fn flops(&self) -> Flops {
        Flops::new(2.0 * self.macs())
    }

    /// Softmax scalar operations (exp, running max/sum, scale ≈ 5 ops per
    /// score element).
    #[inline]
    pub fn softmax_ops(&self) -> f64 {
        (self.requests * self.heads * self.queries * self.kv_len) as f64 * 5.0
    }

    /// The kernel's data-reuse level: TLP (K/V shared across a request's
    /// speculative queries only).
    pub fn reuse(&self) -> u64 {
        self.queries
    }
}

/// One attention batch shape planned on a device pool: every constant of
/// the kernel that does not depend on the KV length. Heads are spread
/// per the §6.4 mapping and the MAC rate is fixed by the reuse level
/// (TLP), so a decode whose batch shape holds still re-plans nothing and
/// only [`execute`](Self::execute)s at each new KV length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttentionPlan {
    shape: AttentionSpec,
    units_per_device: f64,
    mac_rate: f64,
    vector_rate: f64,
    dram_pj_per_byte: f64,
    energy_model: PimEnergyModel,
}

impl AttentionPlan {
    /// Plans `requests × heads` units of `queries` speculative tokens
    /// each over `n_devices` copies of `device`.
    ///
    /// # Panics
    ///
    /// Panics if `n_devices` or any dimension is zero.
    #[track_caller]
    pub fn new(
        device: &PimDevice,
        n_devices: usize,
        requests: u64,
        heads: u64,
        head_dim: u64,
        queries: u64,
        dtype: DataType,
    ) -> Self {
        assert!(n_devices > 0, "need at least one PIM device");
        // `execute` replaces the placeholder KV length of 1.
        let shape = AttentionSpec::new(requests, heads, head_dim, 1, queries, dtype);
        Self {
            shape,
            units_per_device: plan_attention_heads(requests, heads, n_devices).units_per_device
                as f64,
            mac_rate: device.mac_rate(shape.reuse(), dtype),
            vector_rate: device.vector_op_rate(),
            dram_pj_per_byte: device.dram_access_pj_per_byte(),
            energy_model: device.energy_model,
        }
    }

    /// Executes the planned kernel with every request attending over
    /// `kv_len` cached tokens.
    ///
    /// # Panics
    ///
    /// Panics if `kv_len` is zero.
    #[track_caller]
    #[inline]
    pub fn execute(&self, kv_len: u64) -> PimKernelResult {
        assert!(kv_len > 0, "attention dimensions must be positive");
        let spec = AttentionSpec {
            kv_len,
            ..self.shape
        };
        // GEMV phase: busiest device streams its share of KV.
        let macs_per_unit = (2 * spec.queries * kv_len * spec.head_dim) as f64;
        let gemv_time = Time::new(self.units_per_device * macs_per_unit / self.mac_rate);
        // Softmax phase: runs on the same FPUs, so halved FPU counts
        // (1P2B) pay double here too.
        let softmax_per_unit = (spec.queries * kv_len) as f64 * 5.0;
        let softmax_time = Time::new(self.units_per_device * softmax_per_unit / self.vector_rate);
        let fetch_bytes = spec.kv_bytes();
        let macs = spec.macs();
        let mut energy = self
            .energy_model
            .breakdown(fetch_bytes, self.dram_pj_per_byte, macs);
        // Softmax ops cost compute energy like MACs.
        energy.compute += papi_types::Energy::from_picojoules(
            spec.softmax_ops() * self.energy_model.compute_pj_per_mac,
        );
        PimKernelResult {
            time: gemv_time + softmax_time,
            energy,
            fetch_bytes,
            macs,
            bottleneck: Bottleneck::WeightStream,
        }
    }
}

/// Executes one attention kernel over `n_devices` Attn-PIM (or AttAcc /
/// HBM-PIM) devices, heads distributed per the §6.4 mapping.
///
/// # Panics
///
/// Panics if `n_devices` is zero.
#[track_caller]
pub fn execute_attention(
    device: &PimDevice,
    n_devices: usize,
    spec: &AttentionSpec,
) -> PimKernelResult {
    AttentionPlan::new(
        device,
        n_devices,
        spec.requests,
        spec.heads,
        spec.head_dim,
        spec.queries,
        spec.dtype,
    )
    .execute(spec.kv_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn llama_attention(requests: u64, queries: u64, kv_len: u64) -> AttentionSpec {
        // LLaMA-65B: 64 heads × 128 head_dim.
        AttentionSpec::new(requests, 64, 128, kv_len, queries, DataType::Fp16)
    }

    #[test]
    fn spec_arithmetic() {
        let s = AttentionSpec::new(2, 4, 8, 100, 3, DataType::Fp16);
        assert_eq!(s.kv_bytes().value(), (2 * 2 * 4 * 100 * 8) as f64 * 2.0);
        assert_eq!(s.macs(), (2 * 2 * 4 * 3 * 100 * 8) as f64);
        assert_eq!(s.softmax_ops(), (2 * 4 * 3 * 100) as f64 * 5.0);
        assert_eq!(s.reuse(), 3);
    }

    #[test]
    fn arithmetic_intensity_tracks_queries_not_batch() {
        // The paper's key attention observation (Fig. 2): AI ≈ TLP,
        // independent of batch size.
        let ai = |requests, queries| {
            let s = llama_attention(requests, queries, 512);
            s.flops().value() / s.kv_bytes().value()
        };
        assert!((ai(4, 1) - ai(64, 1)).abs() < 1e-9);
        let ratio = ai(4, 8) / ai(4, 1);
        assert!((ratio - 8.0).abs() < 1e-9);
        // Absolute scale: AI(TLP=8) ≈ 8 FLOPs/byte at FP16 (paper: ~7).
        assert!((ai(4, 8) - 8.0).abs() < 0.5);
    }

    #[test]
    fn attacc_faster_than_attn_pim_by_1_5_to_2x() {
        // Fig. 12: attention runs ~1.7× slower on Attn-PIM (1P2B) than on
        // AttAcc (1P1B).
        let spec = llama_attention(4, 4, 512);
        let attacc = execute_attention(&PimDevice::attacc(), 60, &spec);
        let attn = execute_attention(&PimDevice::attn_pim(), 60, &spec);
        let ratio = attn.time.value() / attacc.time.value();
        // Our model gives 2.0 at reuse 4 (both configs compute-bound, half
        // the FPUs) and 1.47 at reuse 1 (1P1B row-turnaround-limited);
        // the paper measures 1.7 — inside that band.
        assert!(
            ratio > 1.3 && ratio < 2.05,
            "1P2B/1P1B attention slowdown {ratio}, paper reports 1.7"
        );
    }

    #[test]
    fn attention_time_scales_with_kv_len() {
        let short = execute_attention(&PimDevice::attn_pim(), 60, &llama_attention(4, 1, 128));
        let long = execute_attention(&PimDevice::attn_pim(), 60, &llama_attention(4, 1, 1024));
        let ratio = long.time.value() / short.time.value();
        assert!((ratio - 8.0).abs() < 0.5, "kv 8× should cost ~8×: {ratio}");
    }

    #[test]
    fn attention_time_scales_with_batch_once_devices_saturated() {
        // 64 devices, 64 heads: one request puts one head on every
        // device, so batch 4 → exactly 4× the time.
        let b1 = execute_attention(&PimDevice::attn_pim(), 64, &llama_attention(1, 1, 512));
        let b4 = execute_attention(&PimDevice::attn_pim(), 64, &llama_attention(4, 1, 512));
        let ratio = b4.time.value() / b1.time.value();
        assert!((ratio - 4.0).abs() < 0.1, "batch scaling {ratio}");
    }

    #[test]
    fn head_imbalance_penalizes_odd_device_counts() {
        // 64 heads over 60 devices: the busiest device carries two heads
        // for a single request — the §6.4 mapping's granularity cost.
        let spec = llama_attention(1, 1, 512);
        let d60 = execute_attention(&PimDevice::attn_pim(), 60, &spec);
        let d64 = execute_attention(&PimDevice::attn_pim(), 64, &spec);
        let ratio = d60.time.value() / d64.time.value();
        assert!((ratio - 2.0).abs() < 0.1, "imbalance ratio {ratio}");
    }

    #[test]
    fn energy_includes_softmax_compute() {
        let spec = llama_attention(4, 2, 512);
        let r = execute_attention(&PimDevice::attn_pim(), 60, &spec);
        let gemv_only = PimDevice::attn_pim().energy_model.breakdown(
            spec.kv_bytes(),
            PimDevice::attn_pim().dram_access_pj_per_byte(),
            spec.macs(),
        );
        assert!(r.energy.compute.value() > gemv_only.compute.value());
        assert_eq!(r.energy.dram_access, gemv_only.dram_access);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_kv_len_rejected() {
        AttentionSpec::new(1, 1, 1, 0, 1, DataType::Fp16);
    }
}
