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
//!
//! A decode prices this kernel at every iteration, so the per-KV path is
//! split from the per-shape one: an [`AttentionPlan`] gathers and checks
//! the device and energy constants once per batch shape, and
//! [`AttentionPlan::cost`] prices a KV length (or a sum of them: it is
//! linear) in plain `f64` arithmetic. [`execute_attention`] plans and
//! executes in one call.

use crate::device::PimDevice;
use crate::energy::{PimEnergyBreakdown, PimEnergyModel};
use crate::gemv::{Bottleneck, PimKernelResult};
use crate::partition::plan_attention_heads;
use papi_types::{Bytes, DataType, Energy, Time};
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

    /// Multiply-accumulates of the score + context GEMVs.
    #[inline]
    pub(crate) fn macs(&self) -> f64 {
        // Q·Kᵀ: kv_len × head_dim per query; P·V: the same.
        (2 * self.requests * self.heads * self.queries * self.kv_len * self.head_dim) as f64
    }

    /// Softmax scalar operations (exp, running max/sum, scale ≈ 5 ops per
    /// score element).
    #[inline]
    pub(crate) fn softmax_ops(&self) -> f64 {
        (self.requests * self.heads * self.queries * self.kv_len) as f64 * 5.0
    }

    /// The kernel's data-reuse level: TLP (K/V shared across a request's
    /// speculative queries only).
    pub(crate) fn reuse(&self) -> u64 {
        self.queries
    }
}

/// One attention batch shape planned on a device pool: every constant of
/// the kernel that does not depend on the KV length. Heads are spread
/// per the §6.4 mapping and the MAC rate is fixed by the reuse level
/// (TLP), so a decode whose batch shape holds still re-plans nothing and
/// only prices each new KV length.
///
/// Planning checks every constant the per-KV formula reads — the MAC
/// rate, vector rate and element size are finite and positive; the
/// units per device and the DRAM, transfer and compute energies are
/// finite and non-negative — so pricing a KV length is plain `f64`
/// arithmetic. Every term is a product or quotient of those constants
/// and non-negative integers, so it cannot be NaN or negative.
/// [`cost`](Self::cost) returns the per-layer time and total energy a
/// decode iteration needs; `execute` returns the same
/// terms as a full [`PimKernelResult`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttentionPlan {
    shape: AttentionSpec,
    units_per_device: f64,
    mac_rate: f64,
    vector_rate: f64,
    element_bytes: f64,
    dram_pj_per_byte: f64,
    energy_model: PimEnergyModel,
}

/// Picojoules to joules, as in [`Energy::from_picojoules`].
const JOULES_PER_PJ: f64 = 1e-12;

/// The per-KV terms of a planned kernel, in base units (seconds, bytes,
/// joules).
struct KvTerms {
    gemv_time: f64,
    softmax_time: f64,
    fetch_bytes: f64,
    macs: f64,
    dram_access: f64,
    transfer: f64,
    compute: f64,
}

impl AttentionPlan {
    /// Plans `requests × heads` units of `queries` speculative tokens
    /// each over `n_devices` copies of `device`.
    ///
    /// # Panics
    ///
    /// Panics if `n_devices` or any dimension is zero, or if a device or
    /// energy constant the kernel reads is out of range (see the type
    /// docs).
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
        // The per-KV formula replaces the placeholder KV length of 1.
        let shape = AttentionSpec::new(requests, heads, head_dim, 1, queries, dtype);
        Self {
            shape,
            units_per_device: plan_attention_heads(requests, heads, n_devices).units_per_device
                as f64,
            mac_rate: device.mac_rate(shape.reuse(), dtype),
            vector_rate: device.vector_op_rate(),
            element_bytes: dtype.size().value(),
            dram_pj_per_byte: device.dram_access_pj_per_byte(),
            energy_model: device.energy_model,
        }
        .checked()
    }

    /// Asserts the range of every constant [`terms`](Self::terms) reads.
    #[track_caller]
    fn checked(self) -> Self {
        for (name, value) in [
            ("MAC rate", self.mac_rate),
            ("vector rate", self.vector_rate),
            ("element size", self.element_bytes),
        ] {
            assert!(
                value.is_finite() && value > 0.0,
                "attention {name} must be finite and positive, got {value}"
            );
        }
        for (name, value) in [
            ("units per device", self.units_per_device),
            ("DRAM energy per byte", self.dram_pj_per_byte),
            (
                "transfer energy per MAC",
                self.energy_model.transfer_pj_per_mac,
            ),
            (
                "compute energy per MAC",
                self.energy_model.compute_pj_per_mac,
            ),
        ] {
            assert!(
                value.is_finite() && value >= 0.0,
                "attention {name} must be finite and non-negative, got {value}"
            );
        }
        self
    }

    /// The kernel's terms with every request attending over `kv_len`
    /// cached tokens: the one per-KV formula.
    #[track_caller]
    #[inline]
    fn terms(&self, kv_len: u64) -> KvTerms {
        assert!(kv_len > 0, "attention dimensions must be positive");
        let spec = AttentionSpec {
            kv_len,
            ..self.shape
        };
        // GEMV phase: busiest device streams its share of KV.
        let macs_per_unit = (2 * spec.queries * kv_len * spec.head_dim) as f64;
        let gemv_time = self.units_per_device * macs_per_unit / self.mac_rate;
        // Softmax phase: runs on the same FPUs, so halved FPU counts
        // (1P2B) pay double here too.
        let softmax_per_unit = (spec.queries * kv_len) as f64 * 5.0;
        let softmax_time = self.units_per_device * softmax_per_unit / self.vector_rate;
        // KV-cache bytes read (K and V, every request and head).
        let fetch_bytes =
            (2 * spec.requests * spec.heads * kv_len * spec.head_dim) as f64 * self.element_bytes;
        let macs = spec.macs();
        let softmax_ops = spec.softmax_ops();
        let model = &self.energy_model;
        KvTerms {
            gemv_time,
            softmax_time,
            fetch_bytes,
            macs,
            dram_access: fetch_bytes * self.dram_pj_per_byte * JOULES_PER_PJ,
            transfer: macs * model.transfer_pj_per_mac * JOULES_PER_PJ,
            // Softmax ops cost compute energy like MACs.
            compute: macs * model.compute_pj_per_mac * JOULES_PER_PJ
                + softmax_ops * model.compute_pj_per_mac * JOULES_PER_PJ,
        }
    }

    /// Per-layer time and total energy of the planned kernel at
    /// `kv_len`: bit for bit `execute`'s `time` and
    /// `energy.total()`, without building the breakdown.
    ///
    /// Every term is an integer product linear in `kv_len`, so
    /// `cost(a + b)` is `cost(a) + cost(b)` up to rounding, up to
    /// [`max_kv_len`](Self::max_kv_len).
    ///
    /// # Panics
    ///
    /// Panics if `kv_len` is zero.
    #[track_caller]
    #[inline]
    pub fn cost(&self, kv_len: u64) -> (Time, Energy) {
        let t = self.terms(kv_len);
        (
            Time::new(t.gemv_time + t.softmax_time),
            Energy::new(t.dram_access + t.transfer + t.compute),
        )
    }

    /// The largest `kv_len` whose integer products in `cost` fit a `u64`.
    pub fn max_kv_len(&self) -> u64 {
        let s = &self.shape;
        u64::MAX / (2 * s.requests * s.heads * s.queries * s.head_dim)
    }

    /// Executes the planned kernel with every request attending over
    /// `kv_len` cached tokens.
    ///
    /// # Panics
    ///
    /// Panics if `kv_len` is zero.
    #[track_caller]
    #[inline]
    pub(crate) fn execute(&self, kv_len: u64) -> PimKernelResult {
        let t = self.terms(kv_len);
        PimKernelResult {
            time: Time::new(t.gemv_time) + Time::new(t.softmax_time),
            energy: PimEnergyBreakdown {
                dram_access: Energy::new(t.dram_access),
                transfer: Energy::new(t.transfer),
                compute: Energy::new(t.compute),
            },
            fetch_bytes: Bytes::new(t.fetch_bytes),
            macs: t.macs,
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
    use papi_types::Frequency;
    use proptest::prelude::*;

    fn llama_attention(requests: u64, queries: u64, kv_len: u64) -> AttentionSpec {
        // LLaMA-65B: 64 heads × 128 head_dim.
        AttentionSpec::new(requests, 64, 128, kv_len, queries, DataType::Fp16)
    }

    #[test]
    fn spec_arithmetic() {
        let s = AttentionSpec::new(2, 4, 8, 100, 3, DataType::Fp16);
        assert_eq!(s.macs(), (2 * 2 * 4 * 3 * 100 * 8) as f64);
        assert_eq!(s.softmax_ops(), (2 * 4 * 3 * 100) as f64 * 5.0);
        assert_eq!(s.reuse(), 3);
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
            (2 * spec.requests * spec.heads * spec.kv_len * spec.head_dim) as f64
                * spec.dtype.size(),
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

    #[test]
    #[should_panic(expected = "positive")]
    fn planned_zero_kv_len_rejected() {
        let plan = AttentionPlan::new(&PimDevice::attn_pim(), 8, 1, 64, 128, 1, DataType::Fp16);
        let _ = plan.cost(0);
    }

    /// The panic message of `f`, which must panic.
    fn panic_message(what: &str, f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err(&format!("{what}: expected a panic"));
        payload
            .downcast_ref::<String>()
            .cloned()
            .expect("range checks panic with a formatted message")
    }

    /// One row per plan-time check: each doctored device or energy
    /// model puts one constant out of that check's range, and planning
    /// must refuse it.
    #[test]
    fn plan_rejects_out_of_range_constants() {
        type Doctor = fn(&mut PimDevice);
        let rows: [(&str, Doctor, &str); 12] = [
            (
                "no FPU lanes",
                |d| d.fpu.lanes = 0,
                "MAC rate must be finite and positive, got 0",
            ),
            (
                "an infinite clock",
                |d| d.fpu.clock = Frequency::new(f64::INFINITY),
                "vector rate must be finite and positive, got inf",
            ),
            (
                "no lanes at an infinite clock",
                |d| {
                    d.fpu.lanes = 0;
                    d.fpu.clock = Frequency::new(f64::INFINITY);
                },
                "vector rate must be finite and positive, got NaN",
            ),
            (
                "a NaN read energy",
                |d| d.hbm.energy.read_pj_per_byte = f64::NAN,
                "DRAM energy per byte must be finite and non-negative, got NaN",
            ),
            (
                "a negative read energy",
                |d| d.hbm.energy.read_pj_per_byte = -70.0,
                "DRAM energy per byte must be finite and non-negative",
            ),
            (
                "zero-byte rows",
                |d| d.hbm.topology.row_bytes = 0,
                "DRAM energy per byte must be finite and non-negative, got inf",
            ),
            (
                "a NaN transfer energy",
                |d| d.energy_model.transfer_pj_per_mac = f64::NAN,
                "transfer energy per MAC must be finite and non-negative, got NaN",
            ),
            (
                "an infinite transfer energy",
                |d| d.energy_model.transfer_pj_per_mac = f64::INFINITY,
                "transfer energy per MAC must be finite and non-negative, got inf",
            ),
            (
                "a negative transfer energy",
                |d| d.energy_model.transfer_pj_per_mac = -2.6,
                "transfer energy per MAC must be finite and non-negative, got -2.6",
            ),
            (
                "a NaN compute energy",
                |d| d.energy_model.compute_pj_per_mac = f64::NAN,
                "compute energy per MAC must be finite and non-negative, got NaN",
            ),
            (
                "an infinite compute energy",
                |d| d.energy_model.compute_pj_per_mac = f64::INFINITY,
                "compute energy per MAC must be finite and non-negative, got inf",
            ),
            (
                "a negative compute energy",
                |d| d.energy_model.compute_pj_per_mac = -1.64,
                "compute energy per MAC must be finite and non-negative, got -1.64",
            ),
        ];
        let base = PimDevice::attn_pim();
        for (what, doctor, expected) in rows {
            let mut device = base.clone();
            doctor(&mut device);
            let message = panic_message(what, || {
                AttentionPlan::new(&device, 8, 4, 64, 128, 2, DataType::Fp16);
            });
            assert!(message.contains(expected), "{what}: {message}");
        }

        // The element size comes from a `DataType` and the units per
        // device from an integer head split, so no device reaches their
        // checks; doctor the plan itself.
        let plan = AttentionPlan::new(&base, 8, 4, 64, 128, 2, DataType::Fp16);
        let rows = [
            (
                "a zero element size",
                AttentionPlan {
                    element_bytes: 0.0,
                    ..plan
                },
                "element size must be finite and positive, got 0",
            ),
            (
                "a NaN element size",
                AttentionPlan {
                    element_bytes: f64::NAN,
                    ..plan
                },
                "element size must be finite and positive, got NaN",
            ),
            (
                "negative units per device",
                AttentionPlan {
                    units_per_device: -1.0,
                    ..plan
                },
                "units per device must be finite and non-negative, got -1",
            ),
            (
                "infinite units per device",
                AttentionPlan {
                    units_per_device: f64::INFINITY,
                    ..plan
                },
                "units per device must be finite and non-negative, got inf",
            ),
        ];
        for (what, doctored, expected) in rows {
            let message = panic_message(what, || {
                doctored.checked();
            });
            assert!(message.contains(expected), "{what}: {message}");
        }
    }

    /// The PIM device presets, built once: each derives its streaming
    /// bandwidth from a cycle-level drain.
    fn presets() -> &'static [PimDevice; 4] {
        static PRESETS: std::sync::OnceLock<[PimDevice; 4]> = std::sync::OnceLock::new();
        PRESETS.get_or_init(|| {
            [
                PimDevice::attacc(),
                PimDevice::hbm_pim(),
                PimDevice::attn_pim(),
                PimDevice::fc_pim(),
            ]
        })
    }

    const DTYPES: [DataType; 5] = [
        DataType::Fp16,
        DataType::Bf16,
        DataType::Fp32,
        DataType::Int8,
        DataType::Int4,
    ];

    /// `(heads, head_dim)` of the evaluated models: LLaMA-65B, GPT-3 66B
    /// and GPT-3 175B.
    const MODEL_HEADS: [(u64, u64); 3] = [(64, 128), (72, 128), (96, 128)];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn cost_is_execute_bit_for_bit(
            preset in 0usize..4,
            dtype in 0usize..5,
            n_devices in 1usize..129,
            requests in 1u64..129,
            model in 0usize..3,
            queries in 1u64..9,
            kv_bits in 0u32..25,
            kv_raw in 0u64..1 << 24,
        ) {
            // KV lengths 1..=2^24, spread over every magnitude.
            let kv_len = 1 + kv_raw % (1 << kv_bits);
            let (heads, head_dim) = MODEL_HEADS[model];
            let plan = AttentionPlan::new(
                &presets()[preset],
                n_devices,
                requests,
                heads,
                head_dim,
                queries,
                DTYPES[dtype],
            );
            let (time, energy) = plan.cost(kv_len);
            let executed = plan.execute(kv_len);
            prop_assert_eq!(time.value().to_bits(), executed.time.value().to_bits());
            prop_assert_eq!(
                energy.value().to_bits(),
                executed.energy.total().value().to_bits()
            );
        }

        /// One call at a summed KV length prices the addends' sum: every
        /// term is linear in the KV length, so the two differ only by
        /// rounding, a few ulps of the total.
        #[test]
        fn cost_is_linear_in_the_kv_length(
            preset in 0usize..4,
            dtype in 0usize..5,
            n_devices in 1usize..129,
            requests in 1u64..129,
            model in 0usize..3,
            queries in 1u64..9,
            a in 1u64..1 << 24,
            b in 1u64..1 << 24,
        ) {
            let (heads, head_dim) = MODEL_HEADS[model];
            let plan = AttentionPlan::new(
                &presets()[preset],
                n_devices,
                requests,
                heads,
                head_dim,
                queries,
                DTYPES[dtype],
            );
            let ((ta, ea), (tb, eb)) = (plan.cost(a), plan.cost(b));
            let (t, e) = plan.cost(a + b);
            for (whole, parts) in [
                (t.value(), ta.value() + tb.value()),
                (e.value(), ea.value() + eb.value()),
            ] {
                prop_assert!(
                    (whole - parts).abs() <= 8.0 * f64::EPSILON * whole,
                    "cost({}) = {whole}, cost({a}) + cost({b}) = {parts}",
                    a + b
                );
            }
        }
    }
}
