//! Integration tests for the online serving path: trace and
//! request-lifecycle invariants that must hold across the workload
//! layer, the serving engine, and the metrics aggregation.

use papi::core::{DesignKind, ServingEngine, SessionTuning, SloSpec, SystemConfig};
use papi::llm::ModelPreset;
use papi::workload::{DatasetKind, ServingWorkload, WorkloadSpec};

fn engine(kind: DesignKind, max_batch: u64) -> ServingEngine {
    ServingEngine::new(SystemConfig::build(kind, ModelPreset::Llama65B.config()))
        .with_tuning(SessionTuning::new().with_max_batch(max_batch))
}

/// Closed-batch traces: RLP never exceeds the configured capacity and
/// the per-iteration `finished` counts sum to the served requests —
/// for both batching policies, across seeds.
#[test]
fn decode_trace_invariants() {
    for seed in [1u64, 7, 23] {
        for spec in [
            WorkloadSpec::static_batching(DatasetKind::CreativeWriting, 24, 2),
            WorkloadSpec::continuous_batching(DatasetKind::GeneralQa, 24, 2, 40),
        ] {
            let trace = spec.clone().with_seed(seed).trace();
            trace.validate().expect("internally consistent trace");
            assert!(
                trace.iterations.iter().all(|it| it.rlp <= 24),
                "RLP exceeded the batch capacity"
            );
            let finished: u64 = trace.iterations.iter().map(|it| it.finished).sum();
            assert_eq!(finished, trace.requests);
        }
    }
}

/// At equal demand, continuous refill keeps every iteration's RLP at
/// least as high as static batching's (it can only refill, never drop
/// below the static decay).
#[test]
fn continuous_refill_dominates_static_rlp() {
    let static_spec = WorkloadSpec::static_batching(DatasetKind::GeneralQa, 16, 1).with_seed(13);
    let cont_spec =
        WorkloadSpec::continuous_batching(DatasetKind::GeneralQa, 16, 1, 0).with_seed(13);
    let (ts, tc) = (static_spec.trace(), cont_spec.trace());
    // Same demand (queue depth 0 ⇒ same 16 requests), iteration by
    // iteration while both run.
    for (i, (s, c)) in ts.iterations.iter().zip(&tc.iterations).enumerate() {
        assert!(
            c.rlp >= s.rlp,
            "iteration {i}: continuous RLP {} fell below static {}",
            c.rlp,
            s.rlp
        );
    }
    // And with a queue, the refilled decode sustains strictly more
    // token throughput per iteration.
    let deep = WorkloadSpec::continuous_batching(DatasetKind::GeneralQa, 16, 1, 32)
        .with_seed(13)
        .trace();
    let static_tput = ts.total_tokens as f64 / ts.len() as f64;
    let deep_tput = deep.total_tokens as f64 / deep.len() as f64;
    assert!(deep_tput > static_tput);
}

/// The serving engine respects its admission capacity and finishes
/// every request with a complete, ordered lifecycle.
#[test]
fn serving_lifecycle_invariants() {
    let workload = ServingWorkload::poisson(DatasetKind::GeneralQa, 6.0, 64).with_seed(31);
    for kind in [
        DesignKind::Papi,
        DesignKind::A100AttAcc,
        DesignKind::PimOnlyPapi,
    ] {
        let report = engine(kind, 16).run(&workload);
        assert_eq!(report.records.len(), 64, "{kind}: all requests finish");
        assert!(report.peak_rlp <= 16, "{kind}: RLP exceeded the batch cap");
        assert!(
            report.rlp_series.iter().all(|&r| r <= 16),
            "{kind}: an iteration ran above capacity"
        );
        for r in &report.records {
            // Per-request latencies are non-negative by construction
            // (the Time type rejects negative magnitudes) and ordered.
            assert!(r.queueing_delay().value() >= 0.0);
            assert!(r.tpot().value() >= 0.0);
            assert!(r.ttft().value() > 0.0);
            assert!(
                r.ttft().value() <= r.e2e().value(),
                "{kind}: TTFT exceeded end-to-end latency"
            );
            assert!(r.output_tokens > 0 && r.prompt_tokens > 0);
        }
        // Tokens conservation: the report total equals the per-request sum.
        let per_request: u64 = report.records.iter().map(|r| r.output_tokens).sum();
        assert_eq!(report.tokens, per_request, "{kind}: token accounting drift");
    }
}

/// Under a realistic open-loop load whose tail decays (Poisson
/// arrivals run dry, the live batch drains), PAPI's online scheduler
/// must migrate FC placement at least once — the Fig. 5(d) behaviour
/// in the serving regime. (The closed-batch variant of this property
/// is covered by a unit test in `papi-core`; this one drives the full
/// arrival → queue → decay lifecycle through the facade.)
#[test]
fn online_scheduler_switches_under_decaying_load() {
    let workload = ServingWorkload::poisson(DatasetKind::GeneralQa, 16.0, 128).with_seed(42);
    let report = engine(DesignKind::Papi, 64).run(&workload);
    assert!(report.scheduler.switches >= 1, "no online rescheduling");
    assert!(report.scheduler.pu_decisions > 0 && report.scheduler.fc_pim_decisions > 0);
    // The decay direction: the episode's last iterations run below α,
    // on FC-PIM.
    assert_eq!(
        report.placements.last(),
        Some(&papi::sched::Placement::FcPim)
    );
}

/// Goodput under a fixed SLO degrades (weakly) as offered load grows,
/// and the serving path prices through the same hardware model as the
/// batch path (PAPI ≥ baselines at every load).
#[test]
fn goodput_curve_degrades_gracefully() {
    let slo = SloSpec::interactive(2_000.0, 60.0);
    let mut last_attainment = f64::INFINITY;
    for rate in [0.5, 8.0, 64.0] {
        let workload = ServingWorkload::poisson(DatasetKind::GeneralQa, rate, 48).with_seed(3);
        let report = engine(DesignKind::Papi, 32).run(&workload);
        let attainment = report.slo_attainment(&slo);
        assert!(
            attainment <= last_attainment + 1e-9,
            "attainment rose with load at {rate} req/s"
        );
        last_attainment = attainment;
    }
}
