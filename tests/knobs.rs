//! Every built-in knob earns its keep.
//!
//! [`LIVE`] has one row per knob a front door moves: the six session
//! tuning fields, the queue-depth band, the four autoscaler fields, the
//! speculation length and the batch path's adaptive TLP. Each row names
//! a non-test file that moves the knob (the test fails once that file
//! no longer names it) and a report field. Moving the knob off its
//! default on a small built-in shape must change that field.
//!
//! [`TEST_ONLY`] lists the knobs only tests move, each with its reason
//! to stay. A knob an example starts to move belongs in [`LIVE`]; one
//! whose definition is gone leaves the table.

mod common;

use papi::core::{
    AutoscalePolicySpec, AutoscaleSpec, ClusterEngine, ClusterSpec, DecodingSimulator, DesignKind,
    KvTierSpec, ServingEngine, SessionTuning, SloSpec, SystemConfig,
};
use papi::llm::ModelPreset;
use papi::workload::{
    ArrivalProcess, ConversationDataset, DatasetKind, PolicySpec, ServingWorkload,
    SpeculativeConfig, WorkloadSpec,
};
use std::fs;
use std::path::Path;

/// `(knob, mover, report field, run)`: `mover` is a non-test file that
/// names the knob's last path segment, and `run(moved)` is the flattened
/// report with the knob at its default (`false`) or moved off it.
type Live = (&'static str, &'static str, &'static str, fn(bool) -> String);

/// `base`, or `knob(base)` when `moved`.
fn apply<T>(moved: bool, base: T, knob: fn(T) -> T) -> T {
    if moved {
        knob(base)
    } else {
        base
    }
}

/// A tight pool on conversations: PIM-only PAPI with one attention PIM
/// device serving GPT-3 175B, so admission, growth and eviction bind.
fn serve(tuning: SessionTuning, speculation: u64) -> String {
    let mut config = SystemConfig::pim_only_papi(ModelPreset::Gpt3_175B.config());
    config.attn_pim.1 = 1;
    let workload = ServingWorkload::poisson(
        ConversationDataset::multi_turn(DatasetKind::GeneralQa, 256, 3),
        6.0,
        48,
    )
    .with_seed(17)
    .with_speculation(SpeculativeConfig::fixed(speculation));
    let engine = ServingEngine::new(config).with_tuning(tuning);
    common::flatten(&engine.run(&workload))
}

/// The tight pool at speculation length 4, its tuning moved by `knob`.
fn session(moved: bool, base: SessionTuning, knob: fn(SessionTuning) -> SessionTuning) -> String {
    serve(apply(moved, base, knob), 4)
}

/// 16-token blocks with prefix sharing: what the tier rides on.
fn paged() -> SessionTuning {
    SessionTuning::new()
        .with_kv_block_size(16)
        .with_prefix_sharing(true)
}

/// A four-replica elastic PIM-only fleet under a flash crowd, its
/// autoscaler moved by `knob`.
fn fleet(moved: bool, base: AutoscaleSpec, knob: fn(AutoscaleSpec) -> AutoscaleSpec) -> String {
    let model = ModelPreset::Llama65B.config();
    let spec = ClusterSpec::new(DesignKind::PimOnlyPapi, model, 1, 4)
        .with_routing(PolicySpec::prefix_affinity())
        .with_tuning(paged().with_max_batch(8))
        .with_autoscale(apply(moved, base, knob));
    let crowd = ArrivalProcess::FlashCrowd {
        base_rate_per_sec: 2.0,
        spike_rate_per_sec: 24.0,
        spike_every_s: 8.0,
        spike_duration_s: 2.0,
    };
    let conversations = ConversationDataset::multi_turn(DatasetKind::GeneralQa, 256, 2);
    let workload = ServingWorkload::new(conversations, crowd, 48).with_seed(5);
    let engine = ClusterEngine::new(spec).expect("valid fleet");
    common::flatten(&engine.run(&workload))
}

/// The default autoscaler.
fn autoscale() -> AutoscaleSpec {
    let slo = SloSpec::interactive(2_000.0, 100.0);
    AutoscaleSpec::new(AutoscalePolicySpec::queue_depth(), slo)
}

/// The default autoscaler deciding every 2 s, so a short episode sees
/// several decisions.
fn deciding() -> AutoscaleSpec {
    autoscale().with_decide_interval(2.0)
}

/// Moves the band to one the flash crowd's queues never reach.
fn high_band(spec: AutoscaleSpec) -> AutoscaleSpec {
    let policy = AutoscalePolicySpec::QueueDepthTarget {
        scale_up_depth: 30.0,
        scale_down_depth: 10.0,
    };
    AutoscaleSpec { policy, ..spec }
}

const LIVE: &[Live] = &[
    (
        "SessionTuning::with_max_batch",
        "examples/load_sweep.rs",
        "peak_rlp",
        |m| session(m, SessionTuning::new(), |t| t.with_max_batch(4)),
    ),
    (
        "SessionTuning::with_kv_headroom",
        "examples/prefix_caching.rs",
        "preemptions",
        |m| session(m, paged(), |t| t.with_kv_headroom(1.0)),
    ),
    (
        "SessionTuning::with_kv_block_size",
        "examples/prefix_routing.rs",
        "kv.peak_fragmentation",
        |m| session(m, SessionTuning::new(), |t| t.with_kv_block_size(16)),
    ),
    (
        "SessionTuning::with_prefix_sharing",
        "examples/prefix_caching.rs",
        "kv.prefix_hits",
        |m| {
            session(m, SessionTuning::new().with_kv_block_size(16), |t| {
                t.with_prefix_sharing(true)
            })
        },
    ),
    (
        "SessionTuning::with_prefill_chunk",
        "examples/prefix_caching.rs",
        "kv.prefill_chunks",
        |m| session(m, paged(), |t| t.with_prefill_chunk(128)),
    ),
    (
        "SessionTuning::with_kv_tier",
        "examples/kv_offload.rs",
        "kv.tier_spills",
        |m| session(m, paged(), |t| t.with_kv_tier(KvTierSpec::new(96))),
    ),
    (
        "AutoscalePolicySpec::QueueDepthTarget",
        "examples/autoscaling.rs",
        "fleet_cost.provisioned_hours",
        |m| fleet(m, deciding(), high_band),
    ),
    (
        "AutoscaleSpec::with_min_replicas",
        "examples/autoscaling.rs",
        "fleet_cost.active_hours",
        |m| fleet(m, deciding(), |s| s.with_min_replicas(3)),
    ),
    (
        "AutoscaleSpec::with_initial_replicas",
        "examples/autoscaling.rs",
        "fleet_cost.provisioned_hours",
        |m| fleet(m, deciding(), |s| s.with_initial_replicas(1)),
    ),
    (
        "AutoscaleSpec::with_spin_up",
        "examples/autoscaling.rs",
        "fleet_cost.warming_hours",
        |m| fleet(m, deciding(), |s| s.with_spin_up(5.0)),
    ),
    (
        "AutoscaleSpec::with_decide_interval",
        "examples/autoscaling.rs",
        "fleet_cost.active_hours",
        |m| fleet(m, autoscale(), |s| s.with_decide_interval(2.0)),
    ),
    (
        "SpeculativeConfig::fixed",
        "perfbench/src/workloads.rs",
        "iterations",
        |m| serve(SessionTuning::new(), if m { 4 } else { 1 }),
    ),
    (
        "WorkloadSpec::with_adaptive_tlp",
        "crates/bench/src/bin/ablation_dynamic_tlp.rs",
        "iterations",
        |m| {
            let fixed = WorkloadSpec::static_batching(DatasetKind::CreativeWriting, 32, 2);
            let workload = apply(m, fixed, |w| w.with_adaptive_tlp(64, 8));
            let config = SystemConfig::papi(ModelPreset::Llama65B.config());
            common::flatten(&DecodingSimulator::new(config).run(&workload))
        },
    ),
];

/// Knobs only tests move, as `(knob, defining file, the name an example
/// would move it by, reason to stay)`.
const TEST_ONLY: &[(&str, &str, &str, &str)] = &[
    (
        "StepMode::Sequential",
        "crates/core/src/cluster.rs",
        "Sequential",
        "the reference schedule the mode-equality tests compare the lazy fleet loop against",
    ),
    (
        "SharedTierSpec::sync_s",
        "crates/core/src/cluster.rs",
        "with_sync_interval",
        "perfbench reads the field",
    ),
    (
        "WorkloadSpec::max_iterations",
        "crates/workload/src/batching.rs",
        "with_max_iterations",
        "truncation holds RLP at the batch size; attacc_only_crossover_with_batch needs it",
    ),
    (
        "ServingWorkload::tlp_policy",
        "crates/workload/src/arrival.rs",
        "with_adaptive_tlp",
        "the paper's runtime TLP (its section 3.2) on the online path",
    ),
    (
        "ClusterSpec::inter_node",
        "crates/core/src/cluster.rs",
        "ethernet_100g",
        "every fleet prices migrations and remote fetches over it; only tests pick 100 GbE",
    ),
];

fn source(path: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Whether `text` names `name` as a whole word.
fn names(text: &str, name: &str) -> bool {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .any(|word| word == name)
}

/// The value on `field`'s line of a flattened report.
fn value<'a>(flat: &'a str, field: &str) -> &'a str {
    flat.lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(" = "))
        .unwrap_or_else(|| panic!("the report has no field {field}"))
}

#[test]
fn every_live_knob_is_moved_by_a_front_door() {
    for &(knob, mover, _, _) in LIVE {
        let name = knob.rsplit("::").next().expect("knob path");
        assert!(
            names(&source(mover), name),
            "{mover} no longer names {name}"
        );
    }
}

#[test]
fn moving_each_live_knob_moves_its_report_field() {
    for &(knob, _, field, run) in LIVE {
        let (default, moved) = (run(false), run(true));
        let (before, after) = (value(&default, field), value(&moved, field));
        assert_ne!(before, after, "{knob}: {field} did not move");
    }
}

#[test]
fn test_only_knobs_still_exist_and_no_example_moves_them() {
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let examples: Vec<String> = fs::read_dir(examples)
        .expect("examples directory")
        .map(|entry| fs::read_to_string(entry.expect("entry").path()).expect("readable example"))
        .collect();
    for &(knob, file, name, reason) in TEST_ONLY {
        let item = knob.rsplit("::").next().expect("knob path");
        assert!(
            names(&source(file), item),
            "{knob} is gone from {file}: drop its row"
        );
        assert!(
            examples.iter().all(|text| !names(text, name)),
            "an example moves {knob}, kept because {reason}: move it to LIVE"
        );
    }
}
