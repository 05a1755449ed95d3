//! Integration tests for the dynamic scheduler against the whole stack:
//! calibration quality, oracle proximity, and rescheduling behaviour.

use papi::core::pricer::{fc_latency_on_pim, fc_latency_on_pu};
use papi::core::{
    ClusterEngine, ClusterSpec, DecodingSimulator, DesignKind, ExecutionReport, KvTierSpec,
    ServingEngine, ServingReport, SessionTuning, SharedTierSpec, SystemConfig,
};
use papi::gpu::{GpuEnergyModel, GpuSpec, MultiGpu};
use papi::llm::ModelPreset;
use papi::pim::PimDevice;
use papi::sched::Placement;
use papi::workload::{
    ArrivalProcess, ConversationDataset, DatasetKind, PolicySpec, ReplicaRole, ServingWorkload,
    SpeculativeConfig, WorkloadSpec,
};

fn papi_gpus() -> MultiGpu {
    let mut gpus = MultiGpu::dgx6_a100();
    gpus.gpu = GpuSpec::a100_papi_60gb();
    gpus
}

/// The calibrated α reproduces the oracle's decisions across the whole
/// token range: below α the PIM latency really is lower, above it the
/// PU's is.
#[test]
fn alpha_threshold_agrees_with_oracle() {
    let model = ModelPreset::Llama65B.config();
    let calibration = SystemConfig::calibrate(&model);
    let fc_pim = PimDevice::fc_pim();
    let gpus = papi_gpus();
    let energy = GpuEnergyModel::a100();

    let mut disagreements = 0;
    for tokens in 1..=256u64 {
        // The oracle: the argmin of the two true FC latencies.
        let pim = fc_latency_on_pim(&model, &fc_pim, 30, tokens);
        let pu = fc_latency_on_pu(&model, &gpus, &energy, tokens);
        let oracle_says = if pu.value() < pim.value() {
            Placement::Pu
        } else {
            Placement::FcPim
        };
        let alpha_says = if tokens as f64 > calibration.alpha {
            Placement::Pu
        } else {
            Placement::FcPim
        };
        if oracle_says != alpha_says {
            disagreements += 1;
        }
    }
    assert!(
        disagreements <= 2,
        "alpha disagreed with the oracle {disagreements}/256 times"
    );
}

/// Running PAPI with a miscalibrated α costs real performance — the
/// threshold is load-bearing, not decorative.
#[test]
fn miscalibrated_alpha_hurts() {
    let model = ModelPreset::Llama65B.config();
    let good_alpha = SystemConfig::calibrate(&model).alpha;
    let workload = WorkloadSpec::static_batching(DatasetKind::CreativeWriting, 64, 1).with_seed(7);
    let trace = workload.trace();

    let tuned = DecodingSimulator::new(SystemConfig::papi_with_alpha(model.clone(), good_alpha))
        .run_trace(&trace);
    // α = 1: everything (except RLP=1) goes to the GPU, even when
    // memory-bound.
    let all_gpu =
        DecodingSimulator::new(SystemConfig::papi_with_alpha(model.clone(), 1.0)).run_trace(&trace);
    // Huge α: everything stays on FC-PIM, even when compute-bound.
    let all_pim =
        DecodingSimulator::new(SystemConfig::papi_with_alpha(model, 1e9)).run_trace(&trace);

    assert!(
        tuned.total_latency().value() <= all_gpu.total_latency().value(),
        "tuned alpha must beat always-GPU"
    );
    assert!(
        tuned.total_latency().value() <= all_pim.total_latency().value(),
        "tuned alpha must beat always-PIM"
    );
    let worst = all_gpu
        .total_latency()
        .value()
        .max(all_pim.total_latency().value());
    assert!(
        worst / tuned.total_latency().value() > 1.2,
        "the threshold should matter by >20%"
    );
}

/// On a decaying batch, the scheduler's switch count stays small (one
/// crossing per decay through α, not thrashing).
#[test]
fn scheduler_does_not_thrash() {
    let model = ModelPreset::Gpt3_66B.config();
    let workload = WorkloadSpec::static_batching(DatasetKind::CreativeWriting, 64, 1).with_seed(3);
    let report = DecodingSimulator::new(SystemConfig::papi(model)).run(&workload);
    assert!(
        report.scheduler.switches >= 1,
        "should reschedule at least once"
    );
    assert!(
        report.scheduler.switches <= 4,
        "monotone RLP decay should not cause {} switches",
        report.scheduler.switches
    );
    // Once switched to FC-PIM, it stays there: the placement series is
    // monotone (PU-prefix, FC-PIM-suffix).
    let first_pim = report
        .placements
        .iter()
        .position(|p| *p == Placement::FcPim)
        .expect("decay must reach FC-PIM territory");
    assert!(report
        .placements
        .iter()
        .skip(first_pim)
        .all(|p| *p == Placement::FcPim));
}

/// Both decode loops record each run of one placement in the scheduler
/// and in the placement series together (`record` and `push_n` with the
/// same count), and the scheduler counts a switch exactly where the
/// series starts a new run, so a report's placement runs are exactly
/// its rescheduling events plus one.
fn assert_placement_runs_match_switches(label: &str, runs: usize, switches: u64) {
    assert_eq!(
        runs as u64,
        switches + 1,
        "{label}: placement runs vs switches"
    );
}

/// A serving report's RLP changes only when its decoding set gains a
/// member (admission) or loses one (completion or preemption), so its
/// RLP runs grow with requests, not with decode iterations.
fn assert_serving_series_bounded(label: &str, report: &ServingReport) {
    if report.placements.is_empty() {
        assert!(report.rlp_series.is_empty(), "{label}");
        return;
    }
    assert_placement_runs_match_switches(
        label,
        report.placements.runs().len(),
        report.scheduler.switches,
    );
    let requests = report.records.len() as u64;
    let bound = 2 * (requests + report.preemptions) + 1;
    let runs = report.rlp_series.runs().len() as u64;
    assert!(runs <= bound, "{label}: {runs} RLP runs > bound {bound}");
}

/// The Fig. 5(d) batch trace: one PU → FC-PIM switch, two placement
/// runs over hundreds of iterations.
#[test]
fn batch_placement_runs_are_switches_plus_one() {
    let workload = WorkloadSpec::static_batching(DatasetKind::CreativeWriting, 64, 1).with_seed(3);
    let model = ModelPreset::Llama65B.config();
    let report: ExecutionReport = DecodingSimulator::new(SystemConfig::papi(model)).run(&workload);
    assert!(report.scheduler.switches >= 1);
    assert_placement_runs_match_switches(
        "fig5d",
        report.placements.runs().len(),
        report.scheduler.switches,
    );
    assert!(report.placements.runs().len() * 10 < report.placements.len());
}

/// A chunked-prefill replica on a tight pool that preempts.
#[test]
fn chunked_preempting_replica_series_grow_with_requests() {
    let mut config = SystemConfig::build(DesignKind::Papi, ModelPreset::Gpt3_175B.config());
    config.attn_pim.1 = 1;
    let workload = ServingWorkload::poisson(
        ConversationDataset::multi_turn(DatasetKind::GeneralQa, 256, 3),
        8.0,
        48,
    )
    .with_seed(17)
    .with_speculation(SpeculativeConfig::adaptive(32, 8));
    let report = ServingEngine::new(config)
        .with_tuning(
            SessionTuning::new()
                .with_max_batch(16)
                .with_kv_headroom(0.97)
                .with_kv_block_size(16)
                .with_prefix_sharing(true)
                .with_prefill_chunk(128)
                .with_kv_tier(KvTierSpec::new(96)),
        )
        .run(&workload);
    assert!(report.preemptions > 0, "the shape must preempt");
    assert!(report.kv.prefill_chunks > 0, "the shape must chunk");
    assert!(report.scheduler.switches > 0, "the shape must reschedule");
    assert_serving_series_bounded("chunked-preempting", &report);
}

/// A small disaggregated fleet (A100+AttAcc prefill, PAPI decode)
/// sharing a fleet-wide KV tier.
#[test]
fn disaggregated_shared_tier_series_grow_with_requests() {
    let mut roles = vec![ReplicaRole::Prefill; 2];
    roles.extend([ReplicaRole::Decode; 2]);
    let spec = ClusterSpec::new(DesignKind::Papi, ModelPreset::Llama65B.config(), 1, 4)
        .with_roles(roles)
        .with_prefill_design(DesignKind::A100AttAcc)
        .with_routing(PolicySpec::shared_tier_affinity())
        .with_tuning(
            SessionTuning::default()
                .with_max_batch(64)
                .with_kv_block_size(16)
                .with_prefix_sharing(true)
                .with_kv_tier(KvTierSpec::new(6_000)),
        )
        .with_shared_tier(SharedTierSpec::new());
    let workload = ServingWorkload::new(
        ConversationDataset::multi_turn(DatasetKind::GeneralQa, 512, 4),
        ArrivalProcess::Bursty {
            burst_size: 96,
            interval_sec: 30.0,
        },
        192,
    )
    .with_speculation(SpeculativeConfig::fixed(4))
    .with_seed(5);
    let report = ClusterEngine::new(spec)
        .expect("valid disaggregated fleet")
        .run(&workload);
    assert_eq!(report.requests(), 192);
    assert!(report.replicas.iter().any(|r| r.scheduler.switches > 0));
    for (idx, replica) in report.replicas.iter().enumerate() {
        assert_serving_series_bounded(&format!("replica {idx}"), replica);
    }
}
