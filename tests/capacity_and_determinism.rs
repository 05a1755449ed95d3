//! Integration tests for capacity planning across crates and for
//! end-to-end determinism of the whole stack.

use papi::core::{DecodingSimulator, DesignKind, SystemConfig};
use papi::llm::kvcache::KvCachePlanner;
use papi::llm::ModelPreset;
use papi::types::Bytes;
use papi::workload::{DatasetKind, WorkloadSpec};

/// The KV planner's admissible batch actually decodes within the
/// Attn-PIM pool, and the first inadmissible one is rejected by the
/// engine's capacity check.
#[test]
fn planner_and_engine_agree_on_capacity() {
    let model = ModelPreset::Gpt3_175B.config();
    let planner = KvCachePlanner::new(&model);
    let config = SystemConfig::pim_only_papi(model.clone());
    let pool = Bytes::new(16e9 * 60.0); // 60 × 16 GB Attn-PIM devices

    let seq_len = 4096u64;
    let fits = planner.max_requests(pool, seq_len, false);
    assert!(fits > 0);
    let demand_ok = planner.batch_bytes(fits, seq_len);
    let demand_overflow = planner.batch_bytes(fits + 40, seq_len);
    assert!(config.validate_capacity(demand_ok.value()).is_ok());
    assert!(config.validate_capacity(demand_overflow.value()).is_err());
}

/// §3.2's memory-capacity argument, end to end: the planner's §3.2
/// numbers bound the initial RLP the engine can serve.
#[test]
fn long_sequences_shrink_admissible_batch() {
    let model = ModelPreset::Gpt3_175B.config();
    let planner = KvCachePlanner::new(&model);
    let memory = Bytes::new(960e9);
    let short = planner.max_requests(memory, 256, false);
    let long = planner.max_requests(memory, 4096, false);
    assert!(short / long >= 12, "short {short} vs long {long}");
}

/// Same seed ⇒ identical reports across independently built systems;
/// different seeds ⇒ different workloads.
#[test]
fn whole_stack_is_deterministic() {
    let mk_report = |seed: u64| {
        let workload =
            WorkloadSpec::static_batching(DatasetKind::CreativeWriting, 8, 2).with_seed(seed);
        DecodingSimulator::new(SystemConfig::build(
            DesignKind::PimOnlyPapi,
            ModelPreset::Llama65B.config(),
        ))
        .run(&workload)
    };
    let a = mk_report(99);
    let b = mk_report(99);
    let c = mk_report(100);
    assert_eq!(a.total_latency(), b.total_latency());
    assert_eq!(a.total_energy(), b.total_energy());
    assert_eq!(a.placements, b.placements);
    assert_ne!(a.total_latency(), c.total_latency());
}

/// The facade re-exports compose: every layer is reachable through
/// `papi::*` and the types line up across crate boundaries.
#[test]
fn facade_composes_all_layers() {
    // dram → pim
    let device = papi::pim::PimDevice::attn_pim();
    let bw = papi::dram::derive::pim_streaming_bandwidth(&device.hbm, 8, 16);
    assert!(bw.per_bank.as_gb_per_sec() > 10.0);
    // llm → sched
    let ai =
        papi::sched::AiEstimator::exact(papi::llm::ModelPreset::Gpt3_175B.config().hidden, 16, 2);
    assert!(ai > 0.0 && ai < 32.0);
    // interconnect
    let cost = papi::interconnect::TransferCost::over(
        &papi::interconnect::LinkSpec::cxl(),
        1,
        papi::types::Bytes::from_kib(256.0),
    );
    assert!(cost.time.as_micros() > 1.0);
}
