//! Model test for `WorkloadSpec::trace`: the generator leaps from one
//! finish to the next in closed form, and every trace it writes must
//! equal the one a plain per-iteration stepping loop writes for the same
//! spec, record for record.

use papi::workload::{
    DatasetKind, DecodeTrace, IterationRecord, Request, SpeculativeConfig, WorkloadSpec,
};
use proptest::prelude::*;
use std::collections::VecDeque;

/// The reference generator: every iteration visits every live request,
/// banking up to `tlp` tokens each, then refills the batch from the queue
/// (empty under static batching).
fn stepped_trace(spec: &WorkloadSpec) -> DecodeTrace {
    let mut queue: VecDeque<Request> = spec.requests().into();
    let mut live: Vec<(Request, u64)> = Vec::new();
    let mut trace = DecodeTrace::default();
    let mut admit = |request: Request, live: &mut Vec<(Request, u64)>| {
        trace.total_input_tokens += request.input_len;
        trace.sum_input_len_squared += request.input_len * request.input_len;
        live.push((request, 0));
    };
    for _ in 0..spec.initial_rlp {
        if let Some(request) = queue.pop_front() {
            admit(request, &mut live);
        }
    }
    let mut iterations = Vec::new();
    let (mut requests, mut total_tokens) = (0, 0);
    let kv_len = |(request, generated): &(Request, u64)| request.input_len + generated;
    while !live.is_empty() {
        let rlp = live.len() as u64;
        let total_kv_len = live.iter().map(kv_len).sum();
        let max_kv_len = live.iter().map(kv_len).max().unwrap();
        let tlp = spec.speculation.tlp_at(rlp);
        let (mut new_tokens, mut finished) = (0, 0);
        live.retain_mut(|(request, generated)| {
            let remaining = request.output_len - *generated;
            let banked = tlp.min(remaining);
            *generated += banked;
            new_tokens += banked;
            finished += u64::from(banked == remaining);
            banked < remaining
        });
        iterations.push(IterationRecord {
            rlp,
            tlp,
            total_kv_len,
            max_kv_len,
            new_tokens,
            finished,
        });
        total_tokens += new_tokens;
        requests += finished;
        while (live.len() as u64) < spec.initial_rlp {
            match queue.pop_front() {
                Some(request) => admit(request, &mut live),
                None => break,
            }
        }
    }
    DecodeTrace {
        iterations,
        requests,
        total_tokens,
        ..trace
    }
}

/// Checks `spec`'s trace against the stepping model and the invariants
/// every trace keeps.
fn check(spec: &WorkloadSpec) {
    let trace = spec.trace();
    assert_eq!(trace, stepped_trace(spec), "{spec:?}");
    assert_eq!(trace.iterations.capacity(), trace.len(), "{spec:?}");
    trace
        .validate()
        .unwrap_or_else(|err| panic!("{err}: {spec:?}"));
    if spec.queue_depth == 0 {
        for pair in trace.iterations.windows(2) {
            assert_eq!(pair[1].rlp, pair[0].rlp - pair[0].finished, "{spec:?}");
        }
    }
}

const DATASETS: [DatasetKind; 3] = [
    DatasetKind::CreativeWriting,
    DatasetKind::GeneralQa,
    DatasetKind::LongContext,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random specs over every generator axis: dataset, batch, length,
    /// adaptive speculation, refill queue (static when empty) and seed.
    #[test]
    fn leaping_trace_matches_the_stepping_model(
        shape in (0usize..3, 1u64..65, 1u64..7, 0u64..u64::MAX),
        adaptive in (proptest::bool::ANY, 1u64..129, 1u64..9),
        continuous in (proptest::bool::ANY, 0usize..65),
    ) {
        let (dataset, batch, length, seed) = shape;
        let queue = if continuous.0 { continuous.1 } else { 0 };
        let speculation = if adaptive.0 {
            SpeculativeConfig::adaptive(adaptive.1, adaptive.2)
        } else {
            SpeculativeConfig::fixed(length)
        };
        let spec = WorkloadSpec::continuous_batching(DATASETS[dataset], batch, length, queue)
            .with_speculation(speculation)
            .with_seed(seed);
        check(&spec);
    }
}
