//! Prefill-phase modeling.
//!
//! The paper evaluates the *decoding* phase (its dominant cost), noting
//! that prefill is compute-bound and "is to be executed on the GPU
//! platform" (§7.4). This module makes that explicit and optional: a
//! design with GPUs prefills there; a PIM-only design has nowhere else
//! to go and pays the full compute-bound price on its FPUs — which is
//! precisely why PIM-only systems crater on end-to-end metrics that
//! include prefill, and a big part of the paper's 11.1× AttAcc-only gap.

use crate::config::SystemConfig;
use papi_gpu::{execute_kernel, KernelProfile};
use papi_pim::gemv::execute_gemv;
use papi_pim::GemvSpec;
use papi_sched::Placement;
use papi_types::{Bytes, Energy, Flops, Time};
use papi_workload::DecodeTrace;
use serde::{Deserialize, Serialize};

/// Cost of prefilling a batch of prompts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrefillCost {
    /// Prefill latency.
    pub time: Time,
    /// Prefill energy.
    pub energy: Energy,
    /// Where the prefill FC work ran.
    pub placement: Placement,
}

/// The prompt workload a prefill prices: everything the cost model
/// consumes, independent of where the prompts came from (a whole
/// [`DecodeTrace`], or one continuous-batching admission wave in the
/// serving engine).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PromptStats {
    /// Prompt tokens across the admitted requests.
    pub tokens: u64,
    /// Sum of squared prompt lengths — the prefill attention kernel is
    /// quadratic in each request's prompt.
    pub sum_len_squared: u64,
}

impl PromptStats {
    /// Accumulates one prompt of `len` tokens.
    pub fn add_prompt(&mut self, len: u64) {
        self.add_chunk(0, len);
    }

    /// Accumulates a `chunk`-token slice of a prompt whose first
    /// `context` tokens are already resident (prefilled earlier, or
    /// served from a shared-prefix cache). Each chunk token attends the
    /// whole context before it, so the quadratic attention mass is
    /// `(context + chunk)² − context²` — chunking a prompt (or
    /// discounting its cached prefix) telescopes to exactly the
    /// monolithic cost: total FC work and total attention FLOPs are
    /// conserved.
    pub(crate) fn add_chunk(&mut self, context: u64, chunk: u64) {
        self.tokens += chunk;
        self.sum_len_squared += chunk * chunk + 2 * chunk * context;
    }

    /// The prompt population of a whole decode trace.
    pub fn from_trace(trace: &DecodeTrace) -> Self {
        Self {
            tokens: trace.total_input_tokens,
            sum_len_squared: trace.sum_input_len_squared,
        }
    }
}

/// Prices the prefill of every request admitted in `trace` on `config`.
///
/// Convenience wrapper over [`prefill_cost_for`].
pub fn prefill_cost(config: &SystemConfig, trace: &DecodeTrace) -> PrefillCost {
    prefill_cost_for(config, PromptStats::from_trace(trace))
}

/// Prices the prefill of a prompt population on `config`.
///
/// FC work is `2 × params × tokens` FLOPs with full weight reuse;
/// attention adds the prompt-quadratic term `4 h Σ input_len²` (each
/// prompt token attends its prefix). Designs with GPUs prefill there
/// (compute-bound, the right tool); PIM-only designs run it on their
/// FC/Attn pools at FPU throughput.
pub fn prefill_cost_for(config: &SystemConfig, prompts: PromptStats) -> PrefillCost {
    let model = &config.model;
    let tokens = prompts.tokens.max(1);
    let fc_flops = 2.0 * model.total_fc_weights() as f64 * tokens as f64;
    let attn_flops = 4.0
        * model.hidden as f64
        * prompts.sum_len_squared as f64
        * model.layers as f64
        // Causal mask halves the score matrix.
        / 2.0;
    // KV-cache write-out for every prompt token.
    let kv_bytes = model.kv_bytes_per_token() * tokens as f64;
    // A tensor-parallel group scatters each prompt's KV blocks to the
    // shard that owns them: (tp-1)/tp of the write-out crosses the
    // inter-node fabric.
    let (shard_time, shard_energy) = match &config.tp {
        Some(tp) => (
            tp.fabric.scatter_time(kv_bytes, tp.degree),
            tp.fabric.scatter_energy(kv_bytes, tp.degree),
        ),
        None => (Time::ZERO, Energy::ZERO),
    };

    if let Some(gpus) = &config.gpus {
        let bytes = model.weight_bytes()
            + kv_bytes
            + Bytes::new(2.0 * tokens as f64 * model.hidden as f64 * model.dtype.size().value());
        let kernel = KernelProfile::new(Flops::new(fc_flops + attn_flops), bytes).with_allreduce(
            Bytes::new(tokens as f64 * model.hidden as f64 * model.dtype.size().value()),
        );
        let result = execute_kernel(gpus, &config.gpu_energy, &kernel);
        PrefillCost {
            time: result.time + shard_time,
            energy: result.energy + shard_energy,
            placement: Placement::Pu,
        }
    } else {
        let (device, count) = config
            .fc_pim
            .as_ref()
            .expect("a design must have either GPUs or an FC PIM pool");
        // One lumped GEMM over all layers' weights at maximal reuse.
        let spec = GemvSpec::new(
            model.fc_weights_per_layer() / model.hidden,
            model.hidden,
            tokens,
            model.dtype,
        );
        let fc = execute_gemv(device, *count, &spec);
        let fc_time = fc.time * model.layers as f64;
        let fc_energy = fc.energy.total() * model.layers as f64;
        // Attention prefill on the attention pool, compute-bound at its
        // aggregate FPU throughput.
        let (attn_device, attn_count) = &config.attn_pim;
        let attn_rate = attn_device.peak_flops().value() * *attn_count as f64;
        let attn_time = Time::new(attn_flops / attn_rate);
        let attn_energy =
            Energy::from_picojoules(
                attn_flops / 2.0 * attn_device.energy_model.non_dram_pj_per_mac(),
            ) + Energy::from_picojoules(kv_bytes.value() * attn_device.dram_access_pj_per_byte());
        PrefillCost {
            time: fc_time + attn_time + shard_time,
            energy: fc_energy + attn_energy + shard_energy,
            placement: Placement::FcPim,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use papi_llm::ModelPreset;
    use papi_workload::{DatasetKind, WorkloadSpec};

    fn trace() -> DecodeTrace {
        WorkloadSpec::static_batching(DatasetKind::CreativeWriting, 16, 1)
            .with_seed(4)
            .trace()
    }

    #[test]
    fn gpu_prefill_is_compute_bound_and_fast() {
        let config = SystemConfig::a100_attacc(ModelPreset::Llama65B.config());
        let cost = prefill_cost(&config, &trace());
        assert_eq!(cost.placement, Placement::Pu);
        // ~1500 prompt tokens × 65B params ≈ 0.2 PFLOP on 1.3 PFLOPS.
        assert!(cost.time.as_secs() > 0.01 && cost.time.as_secs() < 2.0);
    }

    #[test]
    fn pim_only_prefill_is_an_order_of_magnitude_slower() {
        let t = trace();
        let gpu = prefill_cost(
            &SystemConfig::a100_attacc(ModelPreset::Llama65B.config()),
            &t,
        );
        let pim = prefill_cost(
            &SystemConfig::attacc_only(ModelPreset::Llama65B.config()),
            &t,
        );
        assert_eq!(pim.placement, Placement::FcPim);
        let ratio = pim.time.value() / gpu.time.value();
        assert!(
            ratio > 8.0,
            "compute-bound prefill on PIM FPUs should be ≫ slower: {ratio:.1}×"
        );
    }

    #[test]
    fn chunked_stats_telescope_to_the_monolithic_prompt() {
        let mut whole = PromptStats::default();
        whole.add_prompt(1000);
        // Uneven chunks, plus a cached 192-token prefix handled as
        // "context already resident".
        let mut chunked = PromptStats::default();
        let mut context = 0;
        for chunk in [192u64, 300, 300, 208] {
            chunked.add_chunk(context, chunk);
            context += chunk;
        }
        assert_eq!(chunked, whole);
        // A cached prefix reduces both the linear and quadratic terms
        // by exactly the prefix's own cost.
        let mut cached = PromptStats::default();
        cached.add_chunk(192, 808);
        let mut prefix_only = PromptStats::default();
        prefix_only.add_prompt(192);
        assert_eq!(cached.tokens + prefix_only.tokens, whole.tokens);
        assert_eq!(
            cached.sum_len_squared + prefix_only.sum_len_squared,
            whole.sum_len_squared
        );
    }

    #[test]
    fn prefill_scales_with_prompt_tokens() {
        let config = SystemConfig::a100_attacc(ModelPreset::Gpt3_66B.config());
        let small = WorkloadSpec::static_batching(DatasetKind::GeneralQa, 4, 1)
            .with_seed(1)
            .trace();
        let large = WorkloadSpec::static_batching(DatasetKind::GeneralQa, 64, 1)
            .with_seed(1)
            .trace();
        let cs = prefill_cost(&config, &small);
        let cl = prefill_cost(&config, &large);
        assert!(cl.time.value() > 4.0 * cs.time.value());
        assert!(cl.energy.value() > cs.energy.value());
    }
}
