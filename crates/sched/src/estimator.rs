//! Arithmetic-intensity estimation (paper §5.1, Eq. (1)/(2), Fig. 6).

use papi_llm::{FcKernel, ModelConfig, Parallelism};
use serde::{Deserialize, Serialize};

/// The FC-kernel arithmetic-intensity estimator the PAPI hardware
/// scheduler implements.
///
/// # Example
///
/// ```
/// use papi_sched::AiEstimator;
///
/// // Eq. (1) for GPT-3 175B's hidden dimension sits just below the
/// // Eq. (2) estimate RLP × TLP = 64:
/// let exact = AiEstimator::exact(12288, 16, 4);
/// assert!(exact < 64.0 && exact > 60.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AiEstimator;

impl AiEstimator {
    /// Eq. (1): the exact arithmetic intensity of a square `(h × h)` FC
    /// kernel at `(RLP, TLP)`:
    ///
    /// ```text
    /// AI = RLP·TLP·h²·2 / ((2·RLP·TLP·h + h²)·2)
    /// ```
    pub fn exact(h: u64, rlp: u64, tlp: u64) -> f64 {
        let b = (rlp * tlp) as f64;
        let h = h as f64;
        (b * h * h * 2.0) / ((2.0 * b * h + h * h) * 2.0)
    }

    /// Eq. (2): the runtime estimate `RLP × TLP` — two register reads
    /// and one multiply, the whole cost of the hardware predictor.
    pub(crate) fn estimate(rlp: u64, tlp: u64) -> f64 {
        (rlp * tlp) as f64
    }
}

/// One row of the Fig. 6 comparison: the measured (per-kernel,
/// byte-accurate) arithmetic intensity of a model's FC kernels versus
/// the `RLP × TLP` estimate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AiComparison {
    /// Request-level parallelism.
    pub rlp: u64,
    /// Token-level parallelism.
    pub tlp: u64,
    /// FLOP/byte of the aggregated FC kernels (the "measured" series).
    pub measured: f64,
    /// The Eq. (2) estimate.
    pub estimated: f64,
}

impl AiComparison {
    /// Builds the comparison for `model` at one parallelism point,
    /// aggregating all FC kernels of a layer (as the profiler the paper
    /// measures with would).
    pub(crate) fn for_model(model: &ModelConfig, rlp: u64, tlp: u64) -> Self {
        let p = Parallelism::new(rlp, tlp);
        let kernels = FcKernel::layer_kernels(model);
        let flops: f64 = kernels.iter().map(|k| k.flops(p).value()).sum();
        let bytes: f64 = kernels.iter().map(|k| k.bytes(model, p).value()).sum();
        Self {
            rlp,
            tlp,
            measured: flops / bytes,
            estimated: AiEstimator::estimate(rlp, tlp),
        }
    }

    /// The Fig. 6 grid: RLP ∈ {4, 8, 16, 32, 64, 128} × TLP ∈ {2, 4, 6, 8}.
    pub fn fig6_grid(model: &ModelConfig) -> Vec<AiComparison> {
        let mut rows = Vec::new();
        for tlp in [8u64, 6, 4, 2] {
            for rlp in [128u64, 64, 32, 16, 8, 4] {
                rows.push(Self::for_model(model, rlp, tlp));
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use papi_llm::ModelPreset;
    use proptest::prelude::*;

    /// Relative error of the Eq. (2) estimate versus Eq. (1).
    fn relative_error(h: u64, rlp: u64, tlp: u64) -> f64 {
        let exact = AiEstimator::exact(h, rlp, tlp);
        (AiEstimator::estimate(rlp, tlp) - exact) / exact
    }

    #[test]
    fn estimate_tracks_exact_for_large_h() {
        // §5.1: for GPT-3-scale hidden dims the estimate is within a few
        // percent until parallelism gets very large.
        for (rlp, tlp) in [(4u64, 2u64), (16, 4), (32, 8)] {
            let err = relative_error(12288, rlp, tlp);
            assert!(
                err.abs() < 0.05,
                "rlp={rlp} tlp={tlp}: relative error {err}"
            );
        }
    }

    #[test]
    fn estimate_overshoots_at_extreme_parallelism() {
        // Fig. 6's caveat: at RLP = 128 the estimate is slightly larger
        // than the measured AI — harmless because both sides of the
        // comparison are deep in compute-bound territory.
        let err = relative_error(9216, 128, 8);
        assert!(
            err > 0.05 && err < 0.40,
            "error at extreme parallelism {err}"
        );
    }

    #[test]
    fn fig6_grid_matches_paper_shape() {
        let model = ModelPreset::Gpt3_66B.config();
        let rows = AiComparison::fig6_grid(&model);
        assert_eq!(rows.len(), 24);
        for row in &rows {
            // Estimate is always an over-approximation of measured AI…
            assert!(row.estimated >= row.measured, "{row:?}");
            // …but a close one for moderate parallelism.
            if row.rlp * row.tlp <= 128 {
                let rel = (row.estimated - row.measured) / row.measured;
                assert!(rel < 0.06, "{row:?} rel err {rel}");
            }
        }
    }

    #[test]
    fn exact_matches_eq1_formula() {
        let h = 12288u64;
        let ai = AiEstimator::exact(h, 4, 2);
        let b = 8.0;
        let hf = h as f64;
        let manual = b * hf * hf * 2.0 / ((2.0 * b * hf + hf * hf) * 2.0);
        assert!((ai - manual).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn exact_below_estimate(h in 1024u64..20_000, rlp in 1u64..256, tlp in 1u64..8) {
            prop_assert!(AiEstimator::exact(h, rlp, tlp) < AiEstimator::estimate(rlp, tlp));
        }

        #[test]
        fn error_shrinks_with_h(rlp in 1u64..128, tlp in 1u64..8) {
            let small = relative_error(2048, rlp, tlp);
            let large = relative_error(16384, rlp, tlp);
            prop_assert!(large <= small + 1e-12);
        }
    }
}
