//! Decoder kernel shapes and their FLOP/byte arithmetic.

use crate::config::ModelConfig;
use papi_types::{ArithmeticIntensity, Bytes, Flops};
use serde::{Deserialize, Serialize};

/// The decoding-parallelism state of one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Parallelism {
    /// Request-level parallelism (live requests in the batch).
    pub rlp: u64,
    /// Token-level parallelism (speculation length).
    pub tlp: u64,
}

impl Parallelism {
    /// Creates a parallelism state.
    ///
    /// # Panics
    ///
    /// Panics if either level is zero.
    #[track_caller]
    pub fn new(rlp: u64, tlp: u64) -> Self {
        assert!(rlp > 0 && tlp > 0, "parallelism levels must be positive");
        Self { rlp, tlp }
    }

    /// Tokens decoded together this iteration: `RLP × TLP`, the FC
    /// kernel's data-reuse level and the paper's Eq. (2) arithmetic-
    /// intensity estimate.
    pub(crate) fn tokens(&self) -> u64 {
        self.rlp * self.tlp
    }
}

/// Which FC kernel of the decoder layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FcKernelKind {
    /// Fused Q, K and V generation (`h → 3h`).
    QkvGeneration,
    /// Attention output projection (`h → h`).
    Projection,
    /// FFN up projection (`h → ffn`).
    FfnUp,
    /// FFN gate projection (`h → ffn`, gated models only).
    FfnGate,
    /// FFN down projection (`ffn → h`).
    FfnDown,
}

/// One FC kernel's weight shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FcKernel {
    /// Which kernel this is.
    pub kind: FcKernelKind,
    /// Output features.
    pub out_features: u64,
    /// Input features.
    pub in_features: u64,
}

impl FcKernel {
    /// The FC kernels of one decoder layer of `model`, in execution
    /// order.
    pub fn layer_kernels(model: &ModelConfig) -> Vec<FcKernel> {
        let h = model.hidden;
        let f = model.ffn_dim;
        let mut kernels = vec![
            FcKernel {
                kind: FcKernelKind::QkvGeneration,
                out_features: 3 * h,
                in_features: h,
            },
            FcKernel {
                kind: FcKernelKind::Projection,
                out_features: h,
                in_features: h,
            },
            FcKernel {
                kind: FcKernelKind::FfnUp,
                out_features: f,
                in_features: h,
            },
        ];
        if model.gated_ffn {
            kernels.push(FcKernel {
                kind: FcKernelKind::FfnGate,
                out_features: f,
                in_features: h,
            });
        }
        kernels.push(FcKernel {
            kind: FcKernelKind::FfnDown,
            out_features: h,
            in_features: f,
        });
        kernels
    }

    /// Weight elements.
    pub(crate) fn weights(&self) -> u64 {
        self.out_features * self.in_features
    }

    /// FLOPs for `p.tokens()` activation vectors (2 per MAC).
    pub fn flops(&self, p: Parallelism) -> Flops {
        Flops::new(2.0 * self.weights() as f64 * p.tokens() as f64)
    }

    /// Bytes moved: weights once, plus input and output activations per
    /// token — the denominator of the paper's Eq. (1).
    pub fn bytes(&self, model: &ModelConfig, p: Parallelism) -> Bytes {
        let elems = self.weights() + p.tokens() * self.in_features + p.tokens() * self.out_features;
        elems as f64 * model.dtype.size()
    }
}

/// The multi-head attention kernel of one decoder layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct AttentionShape {
    /// Requests attending (RLP).
    pub requests: u64,
    /// Queries per request (TLP).
    pub queries: u64,
    /// Summed KV length across the batch's requests.
    pub total_kv_len: u64,
}

impl AttentionShape {
    /// Creates an attention shape.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero.
    #[track_caller]
    pub(crate) fn new(requests: u64, queries: u64, total_kv_len: u64) -> Self {
        assert!(
            requests > 0 && queries > 0 && total_kv_len > 0,
            "attention shape must be positive"
        );
        Self {
            requests,
            queries,
            total_kv_len,
        }
    }

    /// Uniform-KV constructor: every request has the same cache length.
    pub(crate) fn uniform(requests: u64, queries: u64, kv_len: u64) -> Self {
        Self::new(requests, queries, requests * kv_len)
    }

    /// GEMV FLOPs: `Q·Kᵀ` and `P·V`, each `2 × kv × h` per query, summed
    /// over the batch (heads × head_dim = h).
    pub(crate) fn flops(&self, model: &ModelConfig) -> Flops {
        Flops::new(4.0 * self.queries as f64 * self.total_kv_len as f64 * model.hidden as f64)
    }

    /// Bytes moved: the K and V caches (the dominant term), plus query
    /// and score/context vectors.
    pub(crate) fn bytes(&self, model: &ModelConfig) -> Bytes {
        let kv = 2 * self.total_kv_len * model.hidden;
        let qp = 2 * self.requests * self.queries * model.hidden
            + self.queries * self.total_kv_len * model.heads;
        (kv + qp) as f64 * model.dtype.size()
    }

    /// Arithmetic intensity — ≈ TLP, independent of batch size (the
    /// paper's key attention observation).
    pub(crate) fn arithmetic_intensity(&self, model: &ModelConfig) -> ArithmeticIntensity {
        self.flops(model) / self.bytes(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelPreset;
    use proptest::prelude::*;

    #[test]
    fn layer_kernels_cover_all_weights() {
        for preset in [
            ModelPreset::Opt30B,
            ModelPreset::Llama65B,
            ModelPreset::Gpt3_66B,
            ModelPreset::Gpt3_175B,
        ] {
            let model = preset.config();
            let sum: u64 = FcKernel::layer_kernels(&model)
                .iter()
                .map(FcKernel::weights)
                .sum();
            assert_eq!(sum, model.fc_weights_per_layer(), "{preset}");
        }
    }

    #[test]
    fn gated_models_have_five_fc_kernels() {
        assert_eq!(
            FcKernel::layer_kernels(&ModelPreset::Llama65B.config()).len(),
            5
        );
        assert_eq!(
            FcKernel::layer_kernels(&ModelPreset::Gpt3_175B.config()).len(),
            4
        );
    }

    #[test]
    fn fc_ai_approaches_tokens_for_large_h() {
        // Eq. (2): AI ≈ RLP × TLP when h is large.
        let model = ModelPreset::Gpt3_175B.config();
        let proj = FcKernel {
            kind: FcKernelKind::Projection,
            out_features: model.hidden,
            in_features: model.hidden,
        };
        for tokens in [4u64, 32, 128] {
            let p = Parallelism::new(tokens, 1);
            let ai = (proj.flops(p) / proj.bytes(&model, p)).value();
            let rel = (ai - tokens as f64).abs() / tokens as f64;
            assert!(rel < 0.05, "AI {ai} vs tokens {tokens}");
        }
    }

    #[test]
    fn fc_ai_matches_eq1_exactly() {
        // Eq. (1) for the square projection kernel.
        let model = ModelPreset::Gpt3_66B.config();
        let h = model.hidden as f64;
        let proj = FcKernel {
            kind: FcKernelKind::Projection,
            out_features: model.hidden,
            in_features: model.hidden,
        };
        let p = Parallelism::new(16, 4);
        let b = p.tokens() as f64;
        let expected = (b * h * h * 2.0) / ((2.0 * b * h + h * h) * 2.0);
        let got = (proj.flops(p) / proj.bytes(&model, p)).value();
        assert!((got - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn attention_ai_tracks_tlp_not_rlp() {
        let model = ModelPreset::Opt30B.config();
        let ai = |rlp, tlp| {
            AttentionShape::uniform(rlp, tlp, 512)
                .arithmetic_intensity(&model)
                .value()
        };
        // Batch-independent.
        assert!((ai(4, 1) - ai(128, 1)).abs() < 0.05);
        // Grows sublinearly-with-TLP towards TLP (score traffic eats in).
        assert!(ai(32, 8) > 5.0 && ai(32, 8) < 8.5);
        assert!(ai(32, 8) > ai(32, 2));
    }

    #[test]
    fn paper_motivating_intensities() {
        // §3.3: batch 4, speculation 8 ⇒ FC AI ≈ 31.7, attention ≈ 7.0.
        let model = ModelPreset::Opt30B.config();
        let p = Parallelism::new(4, 8);
        let proj = FcKernel {
            kind: FcKernelKind::Projection,
            out_features: model.hidden,
            in_features: model.hidden,
        };
        let fc_ai = (proj.flops(p) / proj.bytes(&model, p)).value();
        assert!((fc_ai - 31.7).abs() < 1.0, "FC AI {fc_ai}, paper: 31.7");
        let attn_ai = AttentionShape::uniform(4, 8, 512)
            .arithmetic_intensity(&model)
            .value();
        assert!(
            (attn_ai - 7.0).abs() < 1.0,
            "attention AI {attn_ai}, paper: 7.0"
        );
    }

    #[test]
    fn uniform_constructor() {
        let s = AttentionShape::uniform(4, 2, 100);
        assert_eq!(s.total_kv_len, 400);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_parallelism_rejected() {
        Parallelism::new(0, 1);
    }

    proptest! {
        #[test]
        fn fc_ai_monotone_in_tokens(a in 1u64..256, b in 1u64..256) {
            let model = ModelPreset::Llama65B.config();
            let k = FcKernel { kind: FcKernelKind::Projection, out_features: model.hidden, in_features: model.hidden };
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let ai = |tokens| {
                let p = Parallelism::new(tokens, 1);
                (k.flops(p) / k.bytes(&model, p)).value()
            };
            let (ai_lo, ai_hi) = (ai(lo), ai(hi));
            prop_assert!(ai_lo <= ai_hi + 1e-9);
        }

        #[test]
        fn fc_ai_below_tokens(tokens in 1u64..512) {
            // Eq. (1) is strictly below the Eq. (2) estimate.
            let model = ModelPreset::Gpt3_66B.config();
            let k = FcKernel { kind: FcKernelKind::Projection, out_features: model.hidden, in_features: model.hidden };
            let p = Parallelism::new(tokens, 1);
            let ai = (k.flops(p) / k.bytes(&model, p)).value();
            prop_assert!(ai < tokens as f64);
        }

        #[test]
        fn attention_flops_linear_in_kv(kv in 1u64..10_000) {
            let model = ModelPreset::Llama65B.config();
            let s1 = AttentionShape::uniform(2, 2, kv);
            let s2 = AttentionShape::uniform(2, 2, 2 * kv);
            prop_assert!((s2.flops(&model).value() / s1.flops(&model).value() - 2.0).abs() < 1e-9);
        }
    }
}
