//! The batch path is a special case of serving. A closed batch (or a
//! queue-fed continuous one) decoded by `DecodingSimulator` must equal a
//! `ServingEngine` session that serves the same requests, all present at
//! t = 0, under a batch cap of the same size: the same iterations and
//! tokens, the same RLP and placement series, the same scheduler
//! statistics and the same prefilled tokens, exactly.
//!
//! The session is checked twice: stepped one iteration at a time by
//! `ServingEngine::run`, and in `run_until` leaps through a one-replica
//! `ClusterEngine`. A leap carries the per-request KV length forward
//! over many iterations, which a single step never does.
//!
//! Three fields are compared differently, on purpose:
//!
//! - The four decode phases are compared bit for bit against
//!   `common::per_iteration`, the trace priced one record at a time, as
//!   the session prices each iteration. The batch engine prices a
//!   stretch of records in one closed-form call, so its phase sums
//!   round differently (`tests/run_pricing.rs` holds it to that oracle
//!   within 1e-12).
//! - `energy` is not compared. The batch engine sums four energy parts
//!   over the whole run, the session adds each iteration's total, and
//!   the two summation orders round differently.
//! - `prefill_time` is compared between the paths for static batches
//!   only. The batch path prices every prompt of the trace as one
//!   prefill pass; the session prices each admission wave, and a
//!   continuous batch admits its queue in many waves. So the session's
//!   prefill time is checked against those waves read off the trace
//!   instead: the first `batch` prompts, then after each iteration as
//!   many queued prompts as it finished requests.

mod common;

use papi::core::{
    prefill_cost_for, ClusterEngine, ClusterSpec, DecodingSimulator, DesignKind, ExecutionReport,
    PromptStats, RunLength, ServingEngine, ServingReport, SessionTuning, SystemConfig,
};
use papi::llm::ModelPreset;
use papi::types::Time;
use papi::workload::{
    ArrivalProcess, DatasetKind, DecodeTrace, ServingWorkload, SpeculativeConfig, WorkloadSpec,
};
use proptest::prelude::*;
use std::sync::OnceLock;

const DATASETS: [DatasetKind; 3] = [
    DatasetKind::CreativeWriting,
    DatasetKind::GeneralQa,
    DatasetKind::LongContext,
];

/// The Fig. 8 designs plus PIM-only PAPI, each built (and, for PAPI,
/// α-calibrated) once for the whole file.
fn designs() -> &'static [SystemConfig] {
    static CONFIGS: OnceLock<Vec<SystemConfig>> = OnceLock::new();
    CONFIGS.get_or_init(|| {
        DesignKind::FIG8
            .into_iter()
            .chain([DesignKind::PimOnlyPapi])
            .map(|design| SystemConfig::build(design, ModelPreset::Llama65B.config()))
            .collect()
    })
}

/// One workload, described once and handed to both paths.
#[derive(Debug, Clone)]
struct Shape {
    dataset: DatasetKind,
    batch: u64,
    queue: usize,
    continuous: bool,
    speculation: SpeculativeConfig,
    adaptive: Option<(u64, u64)>,
    seed: u64,
}

impl Shape {
    fn batch_workload(&self) -> WorkloadSpec {
        let spec = if self.continuous {
            WorkloadSpec::continuous_batching(self.dataset, self.batch, 1, self.queue)
        } else {
            WorkloadSpec::static_batching(self.dataset, self.batch, 1)
        }
        .with_speculation(self.speculation)
        .with_seed(self.seed);
        match self.adaptive {
            Some((target, max_length)) => spec.with_adaptive_tlp(target, max_length),
            None => spec,
        }
    }

    fn serving_workload(&self) -> ServingWorkload {
        let queue = if self.continuous { self.queue } else { 0 };
        let workload = ServingWorkload::new(
            self.dataset,
            ArrivalProcess::Immediate,
            self.batch as usize + queue,
        )
        .with_speculation(self.speculation)
        .with_seed(self.seed);
        match self.adaptive {
            Some((target, max_length)) => workload.with_adaptive_tlp(target, max_length),
            None => workload,
        }
    }
}

fn bits(t: Time) -> u64 {
    t.value().to_bits()
}

/// The session's prefill time, priced wave by wave from the trace's
/// admissions and summed in admission order.
fn per_wave_prefill(config: &SystemConfig, workload: &WorkloadSpec, trace: &DecodeTrace) -> Time {
    let mut prompts = workload.requests().into_iter().map(|r| r.input_len);
    let admitted =
        std::iter::once(workload.initial_rlp).chain(trace.iterations.iter().map(|it| it.finished));
    let mut time = Time::ZERO;
    for n in admitted {
        let mut wave = PromptStats::default();
        for len in prompts.by_ref().take(n as usize) {
            wave.add_prompt(len);
        }
        if wave.tokens > 0 {
            time += prefill_cost_for(config, wave).time;
        }
    }
    time
}

fn assert_batch_is_serving(
    label: &str,
    trace: &DecodeTrace,
    waves: Time,
    continuous: bool,
    b: &ExecutionReport,
    oracle: &ExecutionReport,
    s: &ServingReport,
) {
    let rlp: RunLength<u64> = trace.iterations.iter().map(|it| it.rlp).collect();
    assert_eq!(b.iterations, s.iterations, "{label}: iterations");
    assert_eq!(b.tokens, s.tokens, "{label}: tokens");
    assert_eq!(rlp, s.rlp_series, "{label}: RLP series");
    assert_eq!(b.placements, s.placements, "{label}: placements");
    assert_eq!(b.scheduler, s.scheduler, "{label}: scheduler stats");
    assert_eq!(
        trace.total_input_tokens, s.kv.prefilled_tokens,
        "{label}: prefilled tokens"
    );
    let phases = &oracle.phases;
    let mut times = vec![
        ("fc", phases.fc, s.phases.fc),
        ("attention", phases.attention, s.phases.attention),
        (
            "communication",
            phases.communication,
            s.phases.communication,
        ),
        ("other", phases.other, s.phases.other),
        ("per-wave prefill", waves, s.prefill_time),
    ];
    if !continuous {
        times.push(("prefill", b.prefill_time, s.prefill_time));
    }
    for (phase, bt, st) in times {
        assert_eq!(bits(bt), bits(st), "{label}: {phase} time {bt} vs {st}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn batch_decode_equals_a_serving_session(
        dataset in 0usize..3,
        batch in 1u64..65,
        queue in 1usize..33,
        continuous in proptest::bool::ANY,
        length in 1u64..5,
        adaptive in proptest::bool::ANY,
        target in 8u64..65,
        design in 0usize..5,
        seed in 0u64..1 << 32,
    ) {
        let shape = Shape {
            dataset: DATASETS[dataset],
            batch,
            queue,
            continuous,
            speculation: SpeculativeConfig::fixed(length),
            adaptive: adaptive.then_some((target, 8)),
            seed,
        };
        let config = &designs()[design];
        let label = format!("{} {shape:?}", config.design);

        let workload = shape.batch_workload();
        let batch_report = DecodingSimulator::new(config.clone()).run_end_to_end(&workload);
        let tuning = SessionTuning::new().with_max_batch(batch);
        let serving_report = ServingEngine::new(config.clone())
            .with_tuning(tuning.clone())
            .run(&shape.serving_workload());
        let fleet_report = ClusterEngine::new(
            ClusterSpec::new(config.design, ModelPreset::Llama65B.config(), 1, 1)
                .with_tuning(tuning),
        )
        .expect("valid fleet")
        .run(&shape.serving_workload());
        let trace = workload.trace();
        let oracle = common::per_iteration(config, &trace);
        let waves = per_wave_prefill(config, &workload, &trace);
        let sessions = [("stepped", &serving_report), ("leaping", &fleet_report.replicas[0])];
        for (session, report) in sessions {
            assert_batch_is_serving(
                &format!("{label} {session}"),
                &trace,
                waves,
                continuous,
                &batch_report,
                &oracle,
                report,
            );
        }
    }
}
