//! The batch path is a special case of serving. A closed batch (or a
//! queue-fed continuous one) decoded by `DecodingSimulator` must equal a
//! `ServingEngine` session that serves the same requests, all present at
//! t = 0, under a batch cap of the same size: the same iterations and
//! tokens, the same RLP and placement series, the same scheduler
//! statistics, the same four decode phases and the same prefilled
//! tokens, bit for bit.
//!
//! Two fields are compared less widely, on purpose:
//!
//! - `energy` is not compared. The batch engine sums four energy parts
//!   over the whole run, the session adds each iteration's total, and
//!   the two summation orders round differently (up to 4.7e-14
//!   relative on the Fig. 8 grid).
//! - `prefill_time` is compared between the paths for static batches
//!   only. The batch path prices every prompt of the trace as one
//!   prefill pass; the session prices each admission wave, and a
//!   continuous batch admits its queue in many waves. So the session's
//!   prefill time is checked against those waves read off the trace
//!   instead: the first `batch` prompts, then after each iteration as
//!   many queued prompts as it finished requests.

use papi::core::{
    prefill_cost_for, DecodingSimulator, DesignKind, ExecutionReport, PromptStats, RunLength,
    ServingEngine, ServingReport, SessionTuning, SystemConfig,
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
    let mut times = vec![
        ("fc", b.phases.fc, s.phases.fc),
        ("attention", b.phases.attention, s.phases.attention),
        (
            "communication",
            b.phases.communication,
            s.phases.communication,
        ),
        ("other", b.phases.other, s.phases.other),
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
        geometric in proptest::bool::ANY,
        acceptance in 0.3..1.0f64,
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
            speculation: if geometric {
                SpeculativeConfig::geometric(length, acceptance)
            } else {
                SpeculativeConfig::fixed(length)
            },
            adaptive: adaptive.then_some((target, 8)),
            seed,
        };
        let config = &designs()[design];
        let label = format!("{} {shape:?}", config.design);

        let workload = shape.batch_workload();
        let batch_report = DecodingSimulator::new(config.clone()).run_end_to_end(&workload);
        let serving_report = ServingEngine::new(config.clone())
            .with_tuning(SessionTuning::new().with_max_batch(batch))
            .run(&shape.serving_workload());
        let trace = workload.trace();
        assert_batch_is_serving(
            &label,
            &trace,
            per_wave_prefill(config, &workload, &trace),
            continuous,
            &batch_report,
            &serving_report,
        );
    }
}
