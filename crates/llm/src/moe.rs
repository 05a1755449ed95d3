//! Mixture-of-Experts models (paper §6.5, "Deployment of Emerging LLM
//! Models").
//!
//! The paper argues FC-PIM is "particularly well-suited to exploit the
//! sparsity inherent in MoE architectures": each token activates only
//! `top_k` of `experts` FFN experts, so (1) only a fraction of the FFN
//! weights is touched per iteration, and (2) the *per-expert* data-reuse
//! level is `tokens × top_k / distinct_experts` — lower than a dense
//! model's, which is exactly the regime where FC-PIM beats a GPU. This
//! module provides the routing/weight/reuse arithmetic; the executors in
//! `papi-pim` price the resulting GEMVs unchanged.

use crate::config::ModelConfig;
use papi_types::{Bytes, DataType};
use serde::{Deserialize, Serialize};

/// A decoder-only transformer whose FFN is a mixture of experts.
///
/// # Example
///
/// ```
/// use papi_llm::moe::MoeModel;
///
/// let m = MoeModel::mixtral_like();
/// // 8 experts, 2 active: at large batch the FFN touches every expert,
/// // but per-expert reuse is only a quarter of the dense model's.
/// assert!((m.expected_distinct_experts(256) - 8.0).abs() < 0.01);
/// assert!((m.effective_ffn_reuse(256) - 64.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MoeModel {
    /// Attention/backbone geometry (its `ffn_dim` describes one expert).
    pub base: ModelConfig,
    /// Experts per FFN layer.
    pub experts: u64,
    /// Experts each token routes to.
    pub top_k: u64,
}

impl MoeModel {
    /// Builds an MoE model.
    ///
    /// # Panics
    ///
    /// Panics if `top_k` is zero or exceeds `experts`.
    #[track_caller]
    pub(crate) fn new(base: ModelConfig, experts: u64, top_k: u64) -> Self {
        assert!(
            top_k > 0 && top_k <= experts,
            "top_k must be in 1..=experts"
        );
        Self {
            base,
            experts,
            top_k,
        }
    }

    /// A Mixtral-8x22B-class preset: 56 layers, h = 6144, 8 experts,
    /// top-2 routing (~140 B total parameters, ~39 B active).
    pub fn mixtral_like() -> Self {
        Self::new(
            ModelConfig {
                name: "MoE-8x22B".to_owned(),
                layers: 56,
                hidden: 6144,
                heads: 48,
                ffn_dim: 16384,
                gated_ffn: true,
                dtype: DataType::Fp16,
            },
            8,
            2,
        )
    }

    /// Weight elements of one expert's FFN.
    pub fn expert_weights(&self) -> u64 {
        let matrices = if self.base.gated_ffn { 3 } else { 2 };
        matrices * self.base.hidden * self.base.ffn_dim
    }

    /// Dense (attention-side) FC weight elements per layer: QKV + output
    /// projection, shared by every token.
    pub(crate) fn dense_weights_per_layer(&self) -> u64 {
        4 * self.base.hidden * self.base.hidden
    }

    /// Total parameters across all experts and layers.
    pub fn total_parameters(&self) -> u64 {
        self.base.layers * (self.dense_weights_per_layer() + self.experts * self.expert_weights())
    }

    /// Parameters active for a single token (dense + `top_k` experts).
    pub fn active_parameters(&self) -> u64 {
        self.base.layers * (self.dense_weights_per_layer() + self.top_k * self.expert_weights())
    }

    /// Expected number of *distinct* experts hit when `tokens` tokens
    /// each route to `top_k` experts uniformly:
    /// `E (1 - (1 - k/E)^tokens)`.
    pub fn expected_distinct_experts(&self, tokens: u64) -> f64 {
        let e = self.experts as f64;
        let k = self.top_k as f64;
        e * (1.0 - (1.0 - k / e).powi(tokens as i32))
    }

    /// The per-expert data-reuse level the FFN GEMVs see at `tokens`
    /// tokens in flight: total expert activations over distinct experts
    /// fetched, `tokens × top_k / distinct`.
    pub fn effective_ffn_reuse(&self, tokens: u64) -> f64 {
        let distinct = self.expected_distinct_experts(tokens).max(1e-12);
        tokens as f64 * self.top_k as f64 / distinct
    }

    /// FFN weight bytes fetched per layer at `tokens` tokens (only the
    /// distinct experts' weights stream from DRAM).
    pub fn ffn_fetch_bytes_per_layer(&self, tokens: u64) -> Bytes {
        self.expected_distinct_experts(tokens)
            * self.expert_weights() as f64
            * self.base.dtype.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mixtral_like_parameter_counts() {
        let m = MoeModel::mixtral_like();
        let total = m.total_parameters() as f64 / 1e9;
        let active = m.active_parameters() as f64 / 1e9;
        assert!(total > 130.0 && total < 150.0, "total {total} B");
        assert!(active > 35.0 && active < 45.0, "active {active} B");
    }

    #[test]
    fn one_token_touches_top_k_experts() {
        let m = MoeModel::mixtral_like();
        assert!((m.expected_distinct_experts(1) - 2.0).abs() < 1e-9);
        assert!((m.effective_ffn_reuse(1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn large_batches_touch_everything_but_dilute_reuse() {
        let m = MoeModel::mixtral_like();
        let tokens = 256;
        assert!((m.expected_distinct_experts(tokens) - 8.0).abs() < 0.01);
        let moe_reuse = m.effective_ffn_reuse(tokens);
        // Dense reuse would be `tokens`; MoE gets k/E of it.
        assert!((moe_reuse - tokens as f64 * 2.0 / 8.0).abs() < 0.5);
    }

    #[test]
    fn fetch_bytes_bounded_by_all_experts() {
        let m = MoeModel::mixtral_like();
        let all = m.experts as f64 * m.expert_weights() as f64 * 2.0;
        for tokens in [1u64, 4, 16, 64, 1024] {
            let fetched = m.ffn_fetch_bytes_per_layer(tokens).value();
            assert!(fetched <= all * (1.0 + 1e-9));
        }
    }

    #[test]
    #[should_panic(expected = "top_k")]
    fn top_k_above_experts_rejected() {
        MoeModel::new(MoeModel::mixtral_like().base, 4, 5);
    }

    proptest! {
        #[test]
        fn distinct_experts_monotone_in_tokens(a in 1u64..512, b in 1u64..512) {
            let m = MoeModel::mixtral_like();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(
                m.expected_distinct_experts(lo) <= m.expected_distinct_experts(hi) + 1e-9
            );
        }

        #[test]
        fn reuse_never_exceeds_dense(tokens in 1u64..512) {
            let m = MoeModel::mixtral_like();
            prop_assert!(m.effective_ffn_reuse(tokens) <= tokens as f64 + 1e-9);
        }

        #[test]
        fn active_at_most_total(experts in 2u64..64, k in 1u64..4) {
            prop_assume!(k <= experts);
            let m = MoeModel::new(MoeModel::mixtral_like().base, experts, k);
            prop_assert!(m.active_parameters() <= m.total_parameters());
            // Strictly sparse whenever routing is actually selective.
            if k < experts {
                prop_assert!(m.active_parameters() < m.total_parameters());
            }
        }
    }
}
