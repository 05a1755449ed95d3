//! Roofline analysis (the paper's Fig. 2 and §5.1 identification step).

use crate::config::ModelConfig;
use crate::kernels::{AttentionShape, FcKernel, Parallelism};
use papi_types::{ArithmeticIntensity, Bandwidth, FlopsRate};
use serde::{Deserialize, Serialize};

/// Whether a kernel sits left or right of a machine's roofline knee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Boundedness {
    /// Left of the knee: limited by memory bandwidth.
    MemoryBound,
    /// Right of the knee: limited by compute throughput.
    ComputeBound,
}

impl Boundedness {
    /// Classifies an arithmetic intensity against a machine's knee.
    pub(crate) fn classify(ai: ArithmeticIntensity, peak: FlopsRate, bandwidth: Bandwidth) -> Self {
        let knee = peak / bandwidth;
        if ai.value() < knee.value() {
            Boundedness::MemoryBound
        } else {
            Boundedness::ComputeBound
        }
    }
}

impl core::fmt::Display for Boundedness {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Boundedness::MemoryBound => f.write_str("memory-bound"),
            Boundedness::ComputeBound => f.write_str("compute-bound"),
        }
    }
}

/// One point of a roofline plot (Fig. 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RooflinePoint {
    /// Kernel label (`"FC"` or `"Attention"`).
    pub kernel: &'static str,
    /// Batch size (RLP).
    pub batch: u64,
    /// Speculation length (TLP).
    pub speculation: u64,
    /// Arithmetic intensity of the kernel.
    pub ai: f64,
    /// Attainable FLOPs rate on the machine (the roofline height).
    pub attainable_tflops: f64,
    /// Classification against the machine's knee.
    pub boundedness: Boundedness,
}

/// Generates the FC and attention roofline points for one `(batch,
/// speculation)` configuration on a machine with the given `peak` and
/// `bandwidth` (the paper uses a single A100: 312 TFLOPS / 1935 GB/s).
///
/// The FC point aggregates the layer's FC kernels (weights dominate the
/// byte count, so this matches the paper's per-kernel numbers); the
/// attention point uses a 512-token KV context, the paper's motivating
/// sequence regime.
pub fn roofline_points(
    model: &ModelConfig,
    batch: u64,
    speculation: u64,
    kv_len: u64,
    peak: FlopsRate,
    bandwidth: Bandwidth,
) -> Vec<RooflinePoint> {
    let p = Parallelism::new(batch, speculation);
    let kernels = FcKernel::layer_kernels(model);
    let fc_flops: f64 = kernels.iter().map(|k| k.flops(p).value()).sum();
    let fc_bytes: f64 = kernels.iter().map(|k| k.bytes(model, p).value()).sum();
    let fc_ai = ArithmeticIntensity::new(fc_flops / fc_bytes);

    let attn = AttentionShape::uniform(batch, speculation, kv_len);
    let attn_ai = attn.arithmetic_intensity(model);

    [("FC", fc_ai), ("Attention", attn_ai)]
        .into_iter()
        .map(|(kernel, ai)| RooflinePoint {
            kernel,
            batch,
            speculation,
            ai: ai.value(),
            attainable_tflops: peak.value().min(ai.value() * bandwidth.value()) / 1e12,
            boundedness: Boundedness::classify(ai, peak, bandwidth),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelPreset;

    fn a100() -> (FlopsRate, Bandwidth) {
        (
            FlopsRate::from_tflops(312.0),
            Bandwidth::from_gb_per_sec(1935.0),
        )
    }

    /// Fig. 2(a): at speculation 8, FC flips from memory- to
    /// compute-bound as the batch grows past ~32; attention never flips.
    #[test]
    fn fig2a_fc_flips_attention_does_not() {
        let model = ModelPreset::Opt30B.config();
        let (peak, bw) = a100();
        for batch in [4u64, 8, 16] {
            let pts = roofline_points(&model, batch, 8, 512, peak, bw);
            let fc = &pts[0];
            if batch <= 8 {
                assert_eq!(
                    fc.boundedness,
                    Boundedness::MemoryBound,
                    "batch {batch} FC should be memory-bound (AI {})",
                    fc.ai
                );
            }
        }
        for batch in [32u64, 64, 128] {
            let pts = roofline_points(&model, batch, 8, 512, peak, bw);
            assert_eq!(
                pts[0].boundedness,
                Boundedness::ComputeBound,
                "batch {batch}"
            );
            assert_eq!(
                pts[1].boundedness,
                Boundedness::MemoryBound,
                "batch {batch}"
            );
        }
    }

    /// Fig. 2(b): at batch 32, FC becomes compute-bound once speculation
    /// exceeds ~6.
    #[test]
    fn fig2b_speculation_flips_fc() {
        let model = ModelPreset::Opt30B.config();
        let (peak, bw) = a100();
        let at = |spec| roofline_points(&model, 32, spec, 512, peak, bw)[0].boundedness;
        assert_eq!(at(2), Boundedness::MemoryBound);
        assert_eq!(at(4), Boundedness::MemoryBound);
        assert_eq!(at(8), Boundedness::ComputeBound);
    }

    #[test]
    fn attainable_tflops_capped_at_peak() {
        let model = ModelPreset::Opt30B.config();
        let (peak, bw) = a100();
        let pts = roofline_points(&model, 512, 8, 512, peak, bw);
        assert!(pts[0].attainable_tflops <= peak.as_tflops() + 1e-9);
    }

    #[test]
    fn boundedness_classify_at_knee() {
        let (peak, bw) = a100();
        let knee = peak / bw;
        assert_eq!(
            Boundedness::classify(ArithmeticIntensity::new(knee.value() - 1.0), peak, bw),
            Boundedness::MemoryBound
        );
        assert_eq!(
            Boundedness::classify(ArithmeticIntensity::new(knee.value() + 1.0), peak, bw),
            Boundedness::ComputeBound
        );
    }

    #[test]
    fn display_strings() {
        assert_eq!(Boundedness::MemoryBound.to_string(), "memory-bound");
        assert_eq!(Boundedness::ComputeBound.to_string(), "compute-bound");
    }
}
