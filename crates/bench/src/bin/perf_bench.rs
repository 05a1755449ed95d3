//! Machine-readable simulator-performance harness.
//!
//! Times the simulator itself (not the modeled hardware) over a fixed
//! trajectory of scenarios covering every execution path — closed-batch
//! trace pricing, the online serving engine, and the routed
//! multi-replica cluster — and emits one JSON document on stdout for CI
//! trend tracking:
//!
//! ```json
//! {"schema":"papi-perf-bench/1","scenarios":[
//!   {"scenario":"trace_llama65b_b64_s2","wall_ms":12.3,
//!    "tokens":9000,"tokens_per_sec":730000.0,"iterations":220,
//!    "cache_hit_rate":0.0}]}
//! ```
//!
//! `tokens_per_sec` is simulated output tokens per wall-clock second of
//! simulation — the harness's throughput figure of merit.
//! `cache_hit_rate`, `ttft_p99_ms`, `goodput_rps`,
//! `tier_fetch_time_s`, `replica_hours`, and `energy_per_good_token_j`
//! are deterministic simulation *outputs* (the prefix cache's token
//! hit rate, the episode's 99th-percentile simulated
//! time-to-first-token, the scenario's SLO goodput, the simulated
//! seconds spent re-materializing KV from capacity tiers, and the
//! elastic fleet's rented hours and energy per SLO-good token;
//! zero/null for scenarios where they don't apply), gated like
//! `tokens`/`iterations` — `ttft_p99_ms` and `tier_fetch_time_s`
//! within `bench_compare`'s latency tolerance, `goodput_rps` within
//! its goodput tolerance, and the two cost outputs within its cost
//! tolerance. Run with
//! `cargo run --release -p papi-bench --bin perf_bench`.

use papi_core::{
    AutoscalePolicySpec, AutoscaleSpec, ClusterEngine, ClusterSpec, DecodingSimulator, DesignKind,
    KvTierSpec, ServingEngine, SessionTuning, SharedTierSpec, SloSpec, StepMode, SystemConfig,
};
use papi_llm::ModelPreset;
use papi_workload::{
    ArrivalProcess, ConversationDataset, DatasetKind, PolicySpec, ReplicaRole, ServingWorkload,
    WorkloadSpec,
};
use serde::Serialize;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct ScenarioResult {
    scenario: String,
    wall_ms: f64,
    tokens: u64,
    tokens_per_sec: f64,
    iterations: u64,
    cache_hit_rate: f64,
    ttft_p99_ms: f64,
    /// SLO goodput (requests meeting the scenario's SLO per simulated
    /// second) for scenarios that declare one; zero elsewhere. A
    /// deterministic simulation output, gated by `bench_compare`.
    goodput_rps: f64,
    /// Total simulated seconds spent re-materializing KV from a
    /// capacity tier — local DIMM fetches plus remote fabric fetches —
    /// for scenarios that exercise one (`null` elsewhere). A
    /// deterministic simulation output, gated by `bench_compare`
    /// against growth like `ttft_p99_ms`.
    tier_fetch_time_s: Option<f64>,
    /// Replica-hours the fleet provisioned, for elastic scenarios
    /// (`null` elsewhere). A deterministic simulation output, gated by
    /// `bench_compare` against growth through its cost tolerance — an
    /// autoscaler that quietly rents more capacity is a regression even
    /// when wall time and goodput look fine.
    replica_hours: Option<f64>,
    /// Fleet energy per SLO-good output token, J, for elastic scenarios
    /// (`null` elsewhere). Deterministic; gated against growth like
    /// `replica_hours`.
    energy_per_good_token_j: Option<f64>,
    /// Lazy-over-sequential wall-clock ratio, for scenarios that
    /// time both cluster step modes (`null` elsewhere).
    speedup_vs_sequential: Option<f64>,
}

#[derive(Debug, Serialize)]
struct PerfReport {
    schema: String,
    scenarios: Vec<ScenarioResult>,
}

/// What one scenario run produced: deterministic simulation outputs.
struct ScenarioOutputs {
    tokens: u64,
    iterations: u64,
    cache_hit_rate: f64,
    ttft_p99_ms: f64,
    goodput_rps: f64,
    tier_fetch_time_s: Option<f64>,
    replica_hours: Option<f64>,
    energy_per_good_token_j: Option<f64>,
}

impl ScenarioOutputs {
    fn plain(tokens: u64, iterations: u64) -> Self {
        Self {
            tokens,
            iterations,
            cache_hit_rate: 0.0,
            ttft_p99_ms: 0.0,
            goodput_rps: 0.0,
            tier_fetch_time_s: None,
            replica_hours: None,
            energy_per_good_token_j: None,
        }
    }
}

fn time_scenario(name: &str, run: impl Fn() -> ScenarioOutputs) -> ScenarioResult {
    // One warmup, then best-of-5 timed runs: the minimum is the least
    // noisy estimator of the code's cost, which keeps the CI
    // regression gate (`bench_compare`) off scheduler jitter.
    let mut outputs = run();
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        outputs = run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    ScenarioResult {
        scenario: name.to_owned(),
        wall_ms: best * 1e3,
        tokens: outputs.tokens,
        tokens_per_sec: outputs.tokens as f64 / best.max(1e-12),
        iterations: outputs.iterations,
        cache_hit_rate: outputs.cache_hit_rate,
        ttft_p99_ms: outputs.ttft_p99_ms,
        goodput_rps: outputs.goodput_rps,
        tier_fetch_time_s: outputs.tier_fetch_time_s,
        replica_hours: outputs.replica_hours,
        energy_per_good_token_j: outputs.energy_per_good_token_j,
        speedup_vs_sequential: None,
    }
}

fn main() {
    let model = ModelPreset::Llama65B;
    let mut scenarios = Vec::new();

    // Closed-batch trace pricing, low and high parallelism.
    for (batch, speculation) in [(4u64, 1u64), (64, 2)] {
        let name = format!("trace_llama65b_b{batch}_s{speculation}");
        scenarios.push(time_scenario(&name, || {
            let workload =
                WorkloadSpec::static_batching(DatasetKind::CreativeWriting, batch, speculation)
                    .with_seed(42);
            let report = DecodingSimulator::new(SystemConfig::papi(model.config())).run(&workload);
            ScenarioOutputs::plain(report.tokens, report.iterations)
        }));
    }

    // The §5.2.1 offline α calibration (runs the FC latency models).
    scenarios.push(time_scenario("alpha_calibration_llama65b", || {
        let calibration = SystemConfig::calibrate(&model.config());
        ScenarioOutputs::plain(calibration.alpha as u64, 1)
    }));

    // Online serving: moderate and saturating Poisson load.
    for rate in [2.0f64, 16.0] {
        let name = format!("serving_llama65b_poisson_r{rate:.0}");
        scenarios.push(time_scenario(&name, || {
            let workload = ServingWorkload::poisson(DatasetKind::GeneralQa, rate, 96).with_seed(42);
            let report = ServingEngine::new(SystemConfig::build(DesignKind::Papi, model.config()))
                .with_tuning(SessionTuning::new().with_max_batch(32))
                .run(&workload);
            ScenarioOutputs {
                tokens: report.tokens,
                iterations: report.iterations,
                cache_hit_rate: 0.0,
                ttft_p99_ms: report
                    .ttft_summary()
                    .expect("non-empty episode")
                    .p99
                    .as_millis(),
                goodput_rps: 0.0,
                tier_fetch_time_s: None,
                replica_hours: None,
                energy_per_good_token_j: None,
            }
        }));
    }

    // Paged KV with prefix sharing and chunked prefill over a
    // multi-turn conversation workload: exercises the block pool, the
    // prefix tree, and the chunk scheduler, and reports the cache hit
    // rate as a gated deterministic output.
    scenarios.push(time_scenario("prefix_caching_llama65b_chat", || {
        let workload = ServingWorkload::poisson(
            ConversationDataset::multi_turn(DatasetKind::GeneralQa, 512, 4),
            6.0,
            96,
        )
        .with_seed(42);
        let report = ServingEngine::new(SystemConfig::build(DesignKind::Papi, model.config()))
            .with_tuning(
                SessionTuning::new()
                    .with_max_batch(32)
                    .with_kv_block_size(16)
                    .with_prefix_sharing(true)
                    .with_prefill_chunk(512),
            )
            .run(&workload);
        ScenarioOutputs {
            tokens: report.tokens,
            iterations: report.iterations,
            cache_hit_rate: report.kv.hit_rate(),
            ttft_p99_ms: report
                .ttft_summary()
                .expect("non-empty episode")
                .p99
                .as_millis(),
            goodput_rps: 0.0,
            tier_fetch_time_s: None,
            replica_hours: None,
            energy_per_good_token_j: None,
        }
    }));

    // Spill-to-host KV offload under long-context thrash: the capacity
    // tier keeps evicted conversation contexts and fetches them back at
    // DIMM pricing instead of re-prefilling. Exercises the tier's
    // spill/fetch path end to end and gates the two outputs the feature
    // exists for — SLO goodput and the fetch-priced p99 TTFT.
    scenarios.push(time_scenario("long_context_offload", || {
        let workload = ServingWorkload::poisson(
            ConversationDataset::multi_turn(DatasetKind::LongContext, 4096, 3),
            1.0,
            120,
        )
        .with_seed(23);
        let report = ServingEngine::new(SystemConfig::build(
            DesignKind::PimOnlyPapi,
            ModelPreset::Gpt3_175B.config(),
        ))
        .with_tuning(
            SessionTuning::new()
                .with_max_batch(16)
                .with_kv_block_size(16)
                .with_prefix_sharing(true)
                .with_kv_tier(KvTierSpec::new(60_000)),
        )
        .run(&workload);
        // The saturation-scale SLO that separates fetch from recompute
        // on this workload (see `tests/tiered_kv.rs`).
        let slo = SloSpec::interactive(600_000.0, 400.0);
        ScenarioOutputs {
            tokens: report.tokens,
            iterations: report.iterations,
            cache_hit_rate: report.kv.hit_rate(),
            ttft_p99_ms: report
                .ttft_summary()
                .expect("non-empty episode")
                .p99
                .as_millis(),
            goodput_rps: report.goodput(&slo),
            tier_fetch_time_s: Some(report.kv.tier_fetch_time_s),
            replica_hours: None,
            energy_per_good_token_j: None,
        }
    }));

    // Fleet-wide prefix sharing: a 2-replica fleet whose spilled
    // contexts are registered in one global directory, with
    // shared-tier-affinity routing relaxing stickiness whenever the
    // fabric can recover the prefix. Exercises the directory
    // publish/fetch path, the control-plane sync ticks, and the
    // remote-fetch pricing — and gates the fleet hit rate, the SLO
    // goodput, and the total tier fetch time (DIMM + fabric) the
    // feature trades against re-prefill.
    scenarios.push(time_scenario("fleet_prefix_sharing", || {
        let workload = ServingWorkload::poisson(
            ConversationDataset::multi_turn(DatasetKind::LongContext, 8192, 12),
            0.15,
            120,
        )
        .with_seed(23);
        let report = ClusterEngine::new(
            ClusterSpec::new(
                DesignKind::PimOnlyPapi,
                ModelPreset::Gpt3_175B.config(),
                1,
                2,
            )
            .with_routing(PolicySpec::shared_tier_affinity())
            .with_tuning(
                SessionTuning::default()
                    .with_max_batch(16)
                    .with_kv_block_size(16)
                    .with_prefix_sharing(true)
                    .with_kv_tier(KvTierSpec::new(60_000)),
            )
            .with_shared_tier(SharedTierSpec::new()),
        )
        .expect("valid fleet")
        .run(&workload);
        let slo = SloSpec::interactive(600_000.0, 400.0);
        ScenarioOutputs {
            tokens: report.tokens(),
            iterations: report.replicas.iter().map(|r| r.iterations).sum(),
            cache_hit_rate: report.cache_hit_rate(),
            ttft_p99_ms: report
                .ttft_summary()
                .expect("non-empty episode")
                .p99
                .as_millis(),
            goodput_rps: report.goodput(&slo),
            tier_fetch_time_s: Some(
                report
                    .replicas
                    .iter()
                    .map(|r| r.kv.tier_fetch_time_s + r.kv.remote_fetch_time_s)
                    .sum(),
            ),
            replica_hours: None,
            energy_per_good_token_j: None,
        }
    }));

    // Prefix-affinity routing across a 4-replica fleet with private
    // prefix caches: exercises the trait-based control plane (route
    // context construction, per-arrival policy dispatch, co-simulated
    // replica clocks) and gates the *fleet-wide* cache hit rate the
    // policy exists to recover.
    scenarios.push(time_scenario("prefix_affinity_routing", || {
        let workload = ServingWorkload::poisson(
            ConversationDataset::multi_turn(DatasetKind::GeneralQa, 512, 4),
            6.0,
            60,
        )
        .with_seed(42);
        let report = ClusterEngine::new(
            ClusterSpec::new(DesignKind::Papi, model.config(), 1, 4)
                .with_routing(PolicySpec::prefix_affinity())
                .with_tuning(
                    SessionTuning::default()
                        .with_max_batch(16)
                        .with_kv_block_size(16)
                        .with_prefix_sharing(true),
                ),
        )
        .expect("valid fleet")
        .run(&workload);
        ScenarioOutputs {
            tokens: report.tokens(),
            iterations: report.replicas.iter().map(|r| r.iterations).sum(),
            cache_hit_rate: report.cache_hit_rate(),
            ttft_p99_ms: report
                .ttft_summary()
                .expect("non-empty episode")
                .p99
                .as_millis(),
            goodput_rps: 0.0,
            tier_fetch_time_s: None,
            replica_hours: None,
            energy_per_good_token_j: None,
        }
    }));

    // Disaggregated prefill/decode serving on bursty long-context
    // load: exercises the role-aware event loop, prefill export, the
    // fabric-priced migration queue, and decode-side placement — and
    // gates the fleet's p99 TTFT (a deterministic simulated output)
    // through bench_compare's latency tolerance.
    scenarios.push(time_scenario("disaggregated_long_context", || {
        let workload = ServingWorkload::new(
            DatasetKind::LongContext,
            ArrivalProcess::Bursty {
                burst_size: 16,
                interval_sec: 10.0,
            },
            48,
        )
        .with_seed(42);
        let report = ClusterEngine::new(
            ClusterSpec::new(DesignKind::PimOnlyPapi, model.config(), 1, 4)
                .with_roles(vec![
                    ReplicaRole::Prefill,
                    ReplicaRole::Prefill,
                    ReplicaRole::Decode,
                    ReplicaRole::Decode,
                ])
                .with_prefill_design(DesignKind::A100AttAcc)
                .with_tuning(SessionTuning::default().with_max_batch(16)),
        )
        .expect("valid fleet")
        .run(&workload);
        ScenarioOutputs {
            tokens: report.tokens(),
            iterations: report.replicas.iter().map(|r| r.iterations).sum(),
            cache_hit_rate: 0.0,
            ttft_p99_ms: report
                .ttft_summary()
                .expect("non-empty episode")
                .p99
                .as_millis(),
            goodput_rps: 0.0,
            tier_fetch_time_s: None,
            replica_hours: None,
            energy_per_good_token_j: None,
        }
    }));

    // Elastic autoscaling over a compressed diurnal cycle: a
    // queue-depth policy resizes a 4-replica fleet through the full
    // lifecycle machinery (decide ticks, cold spin-up, draining,
    // ring-remapped prefix affinity). Times the elastic event loop and
    // gates the three numbers the subsystem exists for — SLO goodput,
    // the replica-hours rented, and the fleet's energy per SLO-good
    // token (both through `bench_compare`'s cost tolerance).
    scenarios.push(time_scenario("autoscale_diurnal", || {
        let workload = ServingWorkload::new(
            ConversationDataset::multi_turn(DatasetKind::GeneralQa, 256, 2),
            ArrivalProcess::Diurnal {
                base_rate_per_sec: 0.5,
                peak_rate_per_sec: 4.0,
                period_s: 120.0,
                noise: 0.1,
            },
            300,
        )
        .with_seed(29);
        let slo = SloSpec::interactive(2_000.0, 100.0);
        let report = ClusterEngine::new(
            ClusterSpec::new(DesignKind::PimOnlyPapi, model.config(), 1, 4)
                .with_routing(PolicySpec::prefix_affinity())
                .with_tuning(
                    SessionTuning::default()
                        .with_max_batch(8)
                        .with_kv_block_size(16)
                        .with_prefix_sharing(true),
                )
                .with_autoscale(
                    AutoscaleSpec::new(
                        AutoscalePolicySpec::QueueDepthTarget {
                            scale_up_depth: 0.3,
                            scale_down_depth: 0.02,
                        },
                        slo,
                    )
                    .with_min_replicas(1)
                    .with_initial_replicas(2)
                    .with_spin_up(6.0)
                    .with_decide_interval(2.5),
                ),
        )
        .expect("valid elastic fleet")
        .run(&workload);
        let cost = report.fleet_cost.as_ref().expect("elastic cost report");
        ScenarioOutputs {
            tokens: report.tokens(),
            iterations: report.replicas.iter().map(|r| r.iterations).sum(),
            cache_hit_rate: report.cache_hit_rate(),
            ttft_p99_ms: report
                .ttft_summary()
                .expect("non-empty episode")
                .p99
                .as_millis(),
            goodput_rps: report.goodput(&slo),
            tier_fetch_time_s: None,
            replica_hours: Some(cost.provisioned_hours),
            energy_per_good_token_j: Some(cost.energy_per_good_token_j),
        }
    }));

    // 64-replica fleet under bursty multi-turn chat with
    // prefix-affinity routing: the parallel-stepping showcase. Times
    // both step modes (best-of-3 each), asserts their reports are
    // bit-for-bit identical, and gates the parallel path's wall-clock
    // advantage through `speedup_vs_sequential`.
    scenarios.push({
        let workload = ServingWorkload::new(
            ConversationDataset::multi_turn(DatasetKind::GeneralQa, 512, 4),
            ArrivalProcess::Bursty {
                burst_size: 8,
                interval_sec: 1.0,
            },
            2048,
        )
        .with_seed(42);
        let spec = ClusterSpec::new(DesignKind::PimOnlyPapi, model.config(), 1, 64)
            .with_routing(PolicySpec::prefix_affinity())
            .with_tuning(
                SessionTuning::default()
                    .with_max_batch(8)
                    .with_kv_block_size(16)
                    .with_prefix_sharing(true),
            );
        let run_mode = |mode: StepMode| {
            let engine =
                ClusterEngine::new(spec.clone().with_step_mode(mode)).expect("valid fleet");
            let start = Instant::now();
            let report = engine.run(&workload);
            (start.elapsed().as_secs_f64(), report)
        };
        // Warm both paths, then interleave timed runs so machine-load
        // drift hits both modes equally.
        let (_, seq_report) = run_mode(StepMode::Sequential);
        let (_, lazy_report) = run_mode(StepMode::Lazy);
        assert_eq!(
            serde_json::to_string(&seq_report).expect("report serializes"),
            serde_json::to_string(&lazy_report).expect("report serializes"),
            "lazy fleet stepping diverged from the sequential reference"
        );
        let (mut seq_best, mut lazy_best) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            seq_best = seq_best.min(run_mode(StepMode::Sequential).0);
            lazy_best = lazy_best.min(run_mode(StepMode::Lazy).0);
        }
        ScenarioResult {
            scenario: "cluster_fleet_64".to_owned(),
            wall_ms: lazy_best * 1e3,
            tokens: lazy_report.tokens(),
            tokens_per_sec: lazy_report.tokens() as f64 / lazy_best.max(1e-12),
            iterations: lazy_report.replicas.iter().map(|r| r.iterations).sum(),
            cache_hit_rate: lazy_report.cache_hit_rate(),
            ttft_p99_ms: lazy_report
                .ttft_summary()
                .expect("non-empty episode")
                .p99
                .as_millis(),
            goodput_rps: 0.0,
            tier_fetch_time_s: None,
            replica_hours: None,
            energy_per_good_token_j: None,
            speedup_vs_sequential: Some(seq_best / lazy_best),
        }
    });

    let report = PerfReport {
        schema: "papi-perf-bench/1".to_owned(),
        scenarios,
    };
    println!(
        "{}",
        serde_json::to_string(&report).expect("perf report serializes")
    );
}
