//! Model configurations and the paper's evaluated presets.

use papi_types::{Bytes, DataType};
use serde::{Deserialize, Serialize};

/// Architecture of one decoder-only transformer.
///
/// # Example
///
/// ```
/// use papi_llm::ModelPreset;
///
/// let gpt3 = ModelPreset::Gpt3_175B.config();
/// assert_eq!(gpt3.hidden, 12288);
/// // ~350 GB of FP16 weights (paper §7.1).
/// let gb = gpt3.weight_bytes().value() / 1e9;
/// assert!(gb > 330.0 && gb < 370.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Model name.
    pub name: String,
    /// Decoder layers.
    pub layers: u64,
    /// Hidden dimension `h`.
    pub hidden: u64,
    /// Attention heads.
    pub heads: u64,
    /// Feed-forward inner dimension.
    pub ffn_dim: u64,
    /// Whether the FFN is gated (SwiGLU-style, three matrices) as in
    /// LLaMA, or classic two-matrix GELU as in GPT/OPT.
    pub gated_ffn: bool,
    /// Weight/activation element type.
    pub dtype: DataType,
}

impl ModelConfig {
    /// Per-head dimension (`hidden / heads`).
    ///
    /// # Panics
    ///
    /// Panics if `heads` does not divide `hidden`.
    #[track_caller]
    pub fn head_dim(&self) -> u64 {
        assert!(
            self.hidden.is_multiple_of(self.heads),
            "heads must divide hidden dimension"
        );
        self.hidden / self.heads
    }

    /// FC weight *elements* in one decoder layer: QKV (3h²), the output
    /// projection (h²), and the FFN (2 or 3 `h × ffn` matrices).
    pub fn fc_weights_per_layer(&self) -> u64 {
        let attn = 4 * self.hidden * self.hidden;
        let ffn_matrices = if self.gated_ffn { 3 } else { 2 };
        attn + ffn_matrices * self.hidden * self.ffn_dim
    }

    /// FC weight elements across all layers.
    pub fn total_fc_weights(&self) -> u64 {
        self.layers * self.fc_weights_per_layer()
    }

    /// Bytes of model weights at the configured dtype.
    pub fn weight_bytes(&self) -> Bytes {
        self.total_fc_weights() as f64 * self.dtype.size()
    }

    /// KV-cache bytes appended per token per request (K and V across all
    /// layers).
    pub fn kv_bytes_per_token(&self) -> Bytes {
        (2 * self.layers * self.hidden) as f64 * self.dtype.size()
    }
}

/// The models the paper evaluates, plus OPT-30B from the motivation
/// study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelPreset {
    /// OPT-30B (Fig. 2 roofline study).
    Opt30B,
    /// LLaMA-65B (gated FFN).
    Llama65B,
    /// GPT-3 66B-class (OPT-66B geometry).
    Gpt3_66B,
    /// GPT-3 175B (h = 12288, §5.1).
    Gpt3_175B,
}

impl ModelPreset {
    /// The three end-to-end evaluation models of Fig. 8.
    pub const EVALUATED: [ModelPreset; 3] = [
        ModelPreset::Llama65B,
        ModelPreset::Gpt3_66B,
        ModelPreset::Gpt3_175B,
    ];

    /// Materializes the architecture.
    pub fn config(self) -> ModelConfig {
        match self {
            ModelPreset::Opt30B => ModelConfig {
                name: "OPT-30B".to_owned(),
                layers: 48,
                hidden: 7168,
                heads: 56,
                ffn_dim: 4 * 7168,
                gated_ffn: false,
                dtype: DataType::Fp16,
            },
            ModelPreset::Llama65B => ModelConfig {
                name: "LLaMA-65B".to_owned(),
                layers: 80,
                hidden: 8192,
                heads: 64,
                ffn_dim: 22016,
                gated_ffn: true,
                dtype: DataType::Fp16,
            },
            ModelPreset::Gpt3_66B => ModelConfig {
                name: "GPT-3 66B".to_owned(),
                layers: 64,
                hidden: 9216,
                heads: 72,
                ffn_dim: 4 * 9216,
                gated_ffn: false,
                dtype: DataType::Fp16,
            },
            ModelPreset::Gpt3_175B => ModelConfig {
                name: "GPT-3 175B".to_owned(),
                layers: 96,
                hidden: 12288,
                heads: 96,
                ffn_dim: 4 * 12288,
                gated_ffn: false,
                dtype: DataType::Fp16,
            },
        }
    }
}

impl core::fmt::Display for ModelPreset {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.config().name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_counts_match_model_names() {
        let check = |preset: ModelPreset, billions: f64, tolerance: f64| {
            let p = preset.config().total_fc_weights() as f64 / 1e9;
            assert!(
                (p - billions).abs() < tolerance,
                "{preset}: {p} B params, expected ~{billions} B"
            );
        };
        check(ModelPreset::Opt30B, 30.0, 2.0);
        check(ModelPreset::Llama65B, 64.5, 2.0);
        check(ModelPreset::Gpt3_66B, 64.5, 3.0);
        check(ModelPreset::Gpt3_175B, 173.9, 4.0);
    }

    #[test]
    fn gpt3_needs_350gb_as_in_paper() {
        let bytes = ModelPreset::Gpt3_175B.config().weight_bytes();
        assert!(bytes.value() / 1e9 > 330.0 && bytes.value() / 1e9 < 370.0);
    }

    #[test]
    fn head_dims_are_exact() {
        for preset in [
            ModelPreset::Opt30B,
            ModelPreset::Llama65B,
            ModelPreset::Gpt3_66B,
            ModelPreset::Gpt3_175B,
        ] {
            let c = preset.config();
            assert_eq!(c.head_dim() * c.heads, c.hidden, "{preset}");
        }
    }

    #[test]
    fn llama_ffn_is_gated() {
        assert!(ModelPreset::Llama65B.config().gated_ffn);
        assert!(!ModelPreset::Gpt3_175B.config().gated_ffn);
    }

    #[test]
    fn kv_bytes_per_token_gpt3_175b() {
        // 2 × 96 layers × 12288 × 2 B = 4.72 MB/token — the number behind
        // the paper's §3.2 memory-capacity argument.
        let kv = ModelPreset::Gpt3_175B.config().kv_bytes_per_token();
        assert!((kv.as_mib() - 4.5).abs() < 0.2);
    }
}
