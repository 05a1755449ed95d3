//! Synthetic Dolly-like datasets.
//!
//! The paper evaluates on two categories of the Databricks Dolly
//! instruction dataset. We cannot ship the dataset, so we substitute
//! seeded log-normal length distributions that preserve what the
//! experiments actually consume — the joint distribution of input and
//! output lengths:
//!
//! - **creative-writing**: short-ish prompts, *long and heavy-tailed*
//!   outputs (essays, stories). Long outputs mean many decoding
//!   iterations and strong RLP decay — the regime where PAPI shines
//!   (paper §7.2's explanation of why creative-writing speedups exceed
//!   general-qa's).
//! - **general-qa**: similar prompts, *short* outputs (a sentence or
//!   two), hence fewer iterations and milder dynamics.

use crate::request::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Which request-length category to synthesize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetKind {
    /// Long, heavy-tailed outputs.
    CreativeWriting,
    /// Short outputs.
    GeneralQa,
    /// Long, heavy-tailed *prompts* with moderate outputs — document
    /// QA / summarization-style load, where prefill dominates and the
    /// per-request KV footprint is large at admission (beyond the two
    /// Dolly categories the paper evaluates; the regime the paged KV
    /// cache and chunked prefill target).
    LongContext,
}

impl DatasetKind {
    /// The length distribution for this category.
    pub(crate) fn distribution(self) -> LengthDistribution {
        match self {
            DatasetKind::CreativeWriting => LengthDistribution {
                input_log_mean: (90.0f64).ln(),
                input_log_std: 0.6,
                output_log_mean: (400.0f64).ln(),
                output_log_std: 0.8,
                min_len: 8,
                max_len: 3072,
            },
            DatasetKind::GeneralQa => LengthDistribution {
                input_log_mean: (100.0f64).ln(),
                input_log_std: 0.6,
                output_log_mean: (70.0f64).ln(),
                output_log_std: 0.6,
                min_len: 4,
                max_len: 768,
            },
            DatasetKind::LongContext => LengthDistribution {
                input_log_mean: (1200.0f64).ln(),
                input_log_std: 0.9,
                output_log_mean: (150.0f64).ln(),
                output_log_std: 0.6,
                min_len: 16,
                max_len: 8192,
            },
        }
    }

    /// Generates `n` requests with a seeded RNG (fully reproducible).
    pub(crate) fn generate(self, seed: u64, n: usize) -> Vec<Request> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let dist = self.distribution();
        (0..n)
            .map(|i| {
                let input = dist.sample_input(&mut rng);
                let output = dist.sample_output(&mut rng);
                Request::new(i as u64, input, output)
            })
            .collect()
    }
}

impl core::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DatasetKind::CreativeWriting => f.write_str("creative-writing"),
            DatasetKind::GeneralQa => f.write_str("general-qa"),
            DatasetKind::LongContext => f.write_str("long-context"),
        }
    }
}

/// Log-normal input/output token-length distribution, clamped to
/// `[min_len, max_len]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct LengthDistribution {
    /// Mean of ln(input length).
    pub input_log_mean: f64,
    /// Std-dev of ln(input length).
    pub input_log_std: f64,
    /// Mean of ln(output length).
    pub output_log_mean: f64,
    /// Std-dev of ln(output length).
    pub output_log_std: f64,
    /// Clamp floor.
    pub min_len: u64,
    /// Clamp ceiling.
    pub max_len: u64,
}

impl LengthDistribution {
    fn sample_lognormal(&self, rng: &mut impl Rng, mu: f64, sigma: f64) -> u64 {
        // Box–Muller: two uniforms → one standard normal.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let sample = (mu + sigma * z).exp();
        (sample.round() as u64).clamp(self.min_len, self.max_len)
    }

    /// Samples an input (prompt) length.
    pub(crate) fn sample_input(&self, rng: &mut impl Rng) -> u64 {
        self.sample_lognormal(rng, self.input_log_mean, self.input_log_std)
    }

    /// Samples an output (generation) length.
    pub(crate) fn sample_output(&self, rng: &mut impl Rng) -> u64 {
        self.sample_lognormal(rng, self.output_log_mean, self.output_log_std)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_output(kind: DatasetKind) -> f64 {
        let reqs = kind.generate(42, 2000);
        reqs.iter().map(|r| r.output_len as f64).sum::<f64>() / reqs.len() as f64
    }

    #[test]
    fn creative_writing_outputs_much_longer_than_qa() {
        let cw = mean_output(DatasetKind::CreativeWriting);
        let qa = mean_output(DatasetKind::GeneralQa);
        assert!(
            cw > 3.0 * qa,
            "creative-writing mean {cw} should be ≫ general-qa mean {qa}"
        );
        assert!(cw > 300.0 && cw < 900.0, "creative-writing mean {cw}");
        assert!(qa > 40.0 && qa < 150.0, "general-qa mean {qa}");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = DatasetKind::CreativeWriting.generate(7, 100);
        let b = DatasetKind::CreativeWriting.generate(7, 100);
        let c = DatasetKind::CreativeWriting.generate(8, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn long_context_prompts_dwarf_the_dolly_categories() {
        let mean_input = |kind: DatasetKind| {
            let reqs = kind.generate(42, 2000);
            reqs.iter().map(|r| r.input_len as f64).sum::<f64>() / reqs.len() as f64
        };
        let long = mean_input(DatasetKind::LongContext);
        let qa = mean_input(DatasetKind::GeneralQa);
        assert!(
            long > 8.0 * qa,
            "long-context mean prompt {long} should dwarf general-qa's {qa}"
        );
    }

    #[test]
    fn lengths_respect_clamps() {
        for kind in [
            DatasetKind::CreativeWriting,
            DatasetKind::GeneralQa,
            DatasetKind::LongContext,
        ] {
            let dist = kind.distribution();
            for r in kind.generate(1, 5000) {
                assert!(r.output_len >= dist.min_len && r.output_len <= dist.max_len);
                assert!(r.input_len >= dist.min_len && r.input_len <= dist.max_len);
            }
        }
    }

    #[test]
    fn creative_writing_has_heavy_tail() {
        let reqs = DatasetKind::CreativeWriting.generate(11, 5000);
        let mut lens: Vec<u64> = reqs.iter().map(|r| r.output_len).collect();
        lens.sort_unstable();
        let p50 = lens[lens.len() / 2] as f64;
        let p95 = lens[lens.len() * 95 / 100] as f64;
        assert!(
            p95 / p50 > 2.5,
            "p95/p50 = {} — outputs should be heavy-tailed",
            p95 / p50
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(DatasetKind::CreativeWriting.to_string(), "creative-writing");
        assert_eq!(DatasetKind::GeneralQa.to_string(), "general-qa");
    }
}
