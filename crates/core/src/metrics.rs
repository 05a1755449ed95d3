//! Execution reports: latency and energy, split by phase — plus the
//! per-request records and percentile aggregation the online serving
//! path produces (TTFT, TPOT, queueing delay, SLO goodput).

use crate::slo::SloSpec;
use papi_kv::KvCacheStats;
use papi_sched::policy::SchedulerStats;
use papi_sched::Placement;
use papi_types::{Energy, Time};
use serde::{Deserialize, Serialize};

/// Latency/energy of one decoding iteration, split the way Fig. 12
/// splits per-token time: attention / FC / communication / other.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationCost {
    /// Where the FC kernels ran.
    pub placement: Placement,
    /// FC-kernel time.
    pub fc_time: Time,
    /// Attention-kernel time.
    pub attn_time: Time,
    /// Interconnect time.
    pub comm_time: Time,
    /// Host dispatch/monitoring time.
    pub other_time: Time,
    /// FC energy.
    pub fc_energy: Energy,
    /// Attention energy.
    pub attn_energy: Energy,
    /// Interconnect energy.
    pub comm_energy: Energy,
    /// Background/static energy of powered device pools.
    pub static_energy: Energy,
    /// Tokens banked this iteration.
    pub new_tokens: u64,
}

impl IterationCost {
    /// Total iteration latency.
    pub fn total_time(&self) -> Time {
        self.fc_time + self.attn_time + self.comm_time + self.other_time
    }

    /// Total iteration energy.
    pub(crate) fn total_energy(&self) -> Energy {
        self.fc_energy + self.attn_energy + self.comm_energy + self.static_energy
    }
}

/// Aggregated per-phase times over a whole decode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// FC-kernel time.
    pub fc: Time,
    /// Attention time.
    pub attention: Time,
    /// Communication time.
    pub communication: Time,
    /// Dispatch/monitoring time.
    pub other: Time,
}

impl PhaseBreakdown {
    /// Sum of all phases.
    pub fn total(&self) -> Time {
        self.fc + self.attention + self.communication + self.other
    }
}

/// A piecewise-constant series stored as `(value, count)` runs.
///
/// A report's per-iteration series (FC placement, RLP) change only when
/// the batch does, so [`push`](Self::push) extends the last run when the
/// value repeats, and memory grows with the changes, not the pushes.
/// Runs are canonical: no zero counts and no two adjacent runs with
/// equal values, so the derived `PartialEq` compares the sequences. In
/// JSON the series is the expanded array, one element per push, as the
/// `Vec` it stands for would print it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunLength<T> {
    runs: Vec<(T, u64)>,
    len: usize,
}

impl<T> Default for RunLength<T> {
    fn default() -> Self {
        Self {
            runs: Vec::new(),
            len: 0,
        }
    }
}

impl<T: PartialEq> RunLength<T> {
    /// Appends `value`, merging it into the last run when equal.
    pub fn push(&mut self, value: T) {
        self.len += 1;
        match self.runs.last_mut() {
            Some((last, count)) if *last == value => *count += 1,
            _ => self.runs.push((value, 1)),
        }
    }
}

impl<T> RunLength<T> {
    /// Elements pushed (the expanded length).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing was pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The canonical `(value, count)` runs, in push order.
    pub fn runs(&self) -> &[(T, u64)] {
        &self.runs
    }

    /// The expanded sequence, one element per push.
    pub fn iter(&self) -> RunLengthIter<'_, T> {
        RunLengthIter {
            runs: self.runs.iter(),
            current: None,
            repeats: 0,
        }
    }

    /// The first element pushed.
    pub fn first(&self) -> Option<&T> {
        self.runs.first().map(|(value, _)| value)
    }

    /// The last element pushed.
    pub fn last(&self) -> Option<&T> {
        self.runs.last().map(|(value, _)| value)
    }
}

impl<T: PartialEq> FromIterator<T> for RunLength<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut series = Self::default();
        for value in iter {
            series.push(value);
        }
        series
    }
}

impl<'a, T> IntoIterator for &'a RunLength<T> {
    type Item = &'a T;
    type IntoIter = RunLengthIter<'a, T>;

    fn into_iter(self) -> RunLengthIter<'a, T> {
        self.iter()
    }
}

/// Iterator over a [`RunLength`]'s expanded sequence.
#[derive(Debug, Clone)]
pub struct RunLengthIter<'a, T> {
    runs: std::slice::Iter<'a, (T, u64)>,
    current: Option<&'a T>,
    repeats: u64,
}

impl<'a, T> Iterator for RunLengthIter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        // Counts are never zero, so one fetch refills an exhausted run.
        if self.repeats == 0 {
            let (value, count) = self.runs.next()?;
            self.current = Some(value);
            self.repeats = *count;
        }
        self.repeats -= 1;
        self.current
    }
}

impl<T: Serialize> Serialize for RunLength<T> {
    fn write_json(&self, out: &mut String) -> Result<(), serde::Error> {
        out.push('[');
        let mut element = String::new();
        for (value, count) in &self.runs {
            element.clear();
            value.write_json(&mut element)?;
            for _ in 0..*count {
                out.push_str(&element);
                out.push(',');
            }
        }
        if !self.runs.is_empty() {
            out.pop(); // the trailing comma
        }
        out.push(']');
        Ok(())
    }
}

impl<T: Deserialize + PartialEq> Deserialize for RunLength<T> {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        value
            .as_array()
            .ok_or_else(|| serde::Error::msg("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

/// The outcome of decoding one workload on one system.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Design label (e.g. `"PAPI"`).
    pub design: String,
    /// Model name.
    pub model: String,
    /// Decoding iterations executed.
    pub iterations: u64,
    /// Output tokens produced.
    pub tokens: u64,
    /// Requests completed.
    pub requests: u64,
    /// Per-phase latency totals.
    pub phases: PhaseBreakdown,
    /// Total energy.
    pub energy: Energy,
    /// Energy split: FC / attention / communication / static.
    pub energy_parts: (Energy, Energy, Energy, Energy),
    /// Scheduler decision statistics.
    pub scheduler: SchedulerStats,
    /// FC placement chosen at each iteration (the Fig. 5(d) series):
    /// run-length in memory, the per-iteration array in JSON.
    pub placements: RunLength<Placement>,
    /// Prefill latency (zero unless the run included the prefill phase).
    pub prefill_time: Time,
    /// Prefill energy (zero unless the run included the prefill phase).
    pub prefill_energy: Energy,
}

impl ExecutionReport {
    /// Total decode latency (prefill excluded, as in the paper's Fig. 8).
    pub fn total_latency(&self) -> Time {
        self.phases.total()
    }

    /// Total energy consumed (decode + prefill if the run included it).
    pub fn total_energy(&self) -> Energy {
        self.energy + self.prefill_energy
    }

    /// Prefill + decode latency (the true end-to-end view; the prefill
    /// part is zero unless produced by
    /// [`DecodingSimulator::run_end_to_end`](crate::DecodingSimulator::run_end_to_end)).
    pub fn end_to_end_latency(&self) -> Time {
        self.prefill_time + self.phases.total()
    }

    /// Generation throughput.
    pub fn tokens_per_second(&self) -> f64 {
        let t = self.total_latency().as_secs();
        if t == 0.0 {
            return 0.0;
        }
        self.tokens as f64 / t
    }

    /// Energy per generated token.
    pub fn energy_per_token(&self) -> Energy {
        if self.tokens == 0 {
            return Energy::ZERO;
        }
        self.energy / self.tokens as f64
    }

    /// This report's speedup over `baseline` (same workload assumed).
    pub fn speedup_over(&self, baseline: &ExecutionReport) -> f64 {
        baseline.total_latency().value() / self.total_latency().value()
    }

    /// This report's energy-efficiency improvement over `baseline`.
    pub fn energy_efficiency_over(&self, baseline: &ExecutionReport) -> f64 {
        baseline.total_energy().value() / self.total_energy().value()
    }
}

// ---------------------------------------------------------------------
// Online-serving metrics
// ---------------------------------------------------------------------

/// The full latency lifecycle of one served request, in simulated time
/// since the serving episode began.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestRecord {
    /// Request identifier.
    pub id: u64,
    /// When the request arrived at the system.
    pub arrival: Time,
    /// When it was first admitted into the running batch (prefill
    /// start).
    pub admitted: Time,
    /// When its first output token was emitted.
    pub first_token: Time,
    /// When it emitted `<|eos|>`.
    pub finished: Time,
    /// Prompt length in tokens.
    pub prompt_tokens: u64,
    /// Output tokens generated.
    pub output_tokens: u64,
    /// Times the request was preempted back to the queue under KV
    /// pressure.
    pub preemptions: u64,
}

impl RequestRecord {
    /// Time spent waiting in the arrival queue before first admission.
    pub fn queueing_delay(&self) -> Time {
        self.admitted - self.arrival
    }

    /// Time to first token, measured from arrival (queueing included —
    /// the user-visible definition).
    pub fn ttft(&self) -> Time {
        self.first_token - self.arrival
    }

    /// Time per output token after the first (steady-state decode
    /// pace). Zero for single-token outputs.
    pub fn tpot(&self) -> Time {
        if self.output_tokens <= 1 {
            return Time::ZERO;
        }
        (self.finished - self.first_token) / (self.output_tokens - 1) as f64
    }

    /// End-to-end latency from arrival to `<|eos|>`.
    pub fn e2e(&self) -> Time {
        self.finished - self.arrival
    }

    /// Whether the request met both halves of `slo`.
    pub fn meets(&self, slo: &SloSpec) -> bool {
        self.ttft().value() <= slo.ttft.value() && self.tpot().value() <= slo.tpot.value()
    }
}

/// Percentile summary of a latency population.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Arithmetic mean.
    pub mean: Time,
    /// Median.
    pub p50: Time,
    /// 95th percentile.
    pub p95: Time,
    /// 99th percentile.
    pub p99: Time,
    /// Worst observation.
    pub max: Time,
}

impl LatencySummary {
    /// Summarizes a sample; `None` when the sample is empty.
    ///
    /// Percentiles use the nearest-rank method on the sorted sample —
    /// p99 of 100 observations is the 99th smallest, matching how
    /// serving papers report tail latency.
    pub(crate) fn from_times(times: &[Time]) -> Option<Self> {
        if times.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = times.iter().map(|t| t.value()).collect();
        sorted.sort_by(f64::total_cmp);
        let rank = |p: f64| {
            let idx = (p * sorted.len() as f64).ceil() as usize;
            sorted[idx.clamp(1, sorted.len()) - 1]
        };
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Some(Self {
            mean: Time::new(mean),
            p50: Time::new(rank(0.50)),
            p95: Time::new(rank(0.95)),
            p99: Time::new(rank(0.99)),
            max: Time::new(sorted[sorted.len() - 1]),
        })
    }
}

/// The outcome of one online serving episode on one system: everything
/// [`ExecutionReport`] aggregates, plus wall-clock structure (makespan,
/// per-iteration RLP) and the per-request lifecycle records that
/// latency SLOs are defined over.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServingReport {
    /// Design label (e.g. `"PAPI"`).
    pub design: String,
    /// Model name.
    pub model: String,
    /// Decoding iterations executed.
    pub iterations: u64,
    /// Output tokens produced.
    pub tokens: u64,
    /// Simulated wall-clock time from first arrival to last completion.
    pub makespan: Time,
    /// Decode-phase latency totals (prefill separate, as in the paper).
    pub phases: PhaseBreakdown,
    /// Total prefill time across all admission waves.
    pub prefill_time: Time,
    /// Total energy (decode + prefill).
    pub energy: Energy,
    /// Scheduler decision statistics.
    pub scheduler: SchedulerStats,
    /// FC placement chosen at each iteration: run-length in memory,
    /// the per-iteration array in JSON.
    pub placements: RunLength<Placement>,
    /// Live RLP observed at each iteration: run-length in memory, the
    /// per-iteration array in JSON.
    pub rlp_series: RunLength<u64>,
    /// Per-request lifecycle records, in completion order.
    pub records: Vec<RequestRecord>,
    /// Requests preempted back to the queue under KV pressure (total
    /// events, not distinct requests).
    pub preemptions: u64,
    /// Largest batch (RLP) ever run.
    pub peak_rlp: u64,
    /// Largest aggregate KV footprint ever resident, in tokens.
    pub peak_kv_tokens: u64,
    /// Paged KV-cache counters: block occupancy, prefix-cache hit
    /// rate, chunked-prefill waves, fragmentation.
    pub kv: KvCacheStats,
}

impl ServingReport {
    /// TTFT percentile summary; `None` if nothing completed.
    pub fn ttft_summary(&self) -> Option<LatencySummary> {
        let times: Vec<Time> = self.records.iter().map(RequestRecord::ttft).collect();
        LatencySummary::from_times(&times)
    }

    /// TPOT percentile summary; `None` if nothing completed.
    pub fn tpot_summary(&self) -> Option<LatencySummary> {
        let times: Vec<Time> = self.records.iter().map(RequestRecord::tpot).collect();
        LatencySummary::from_times(&times)
    }

    /// Queueing-delay percentile summary; `None` if nothing completed.
    pub fn queueing_summary(&self) -> Option<LatencySummary> {
        let times: Vec<Time> = self
            .records
            .iter()
            .map(RequestRecord::queueing_delay)
            .collect();
        LatencySummary::from_times(&times)
    }

    /// Fraction of completed requests meeting `slo`.
    pub fn slo_attainment(&self, slo: &SloSpec) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.meets(slo)).count() as f64 / self.records.len() as f64
    }

    /// SLO goodput: requests completed *within* `slo`, per second of
    /// makespan — the serving-systems headline metric (requests that
    /// blow the SLO earn nothing).
    pub fn goodput(&self, slo: &SloSpec) -> f64 {
        let secs = self.makespan.as_secs();
        if secs == 0.0 {
            return 0.0;
        }
        self.records.iter().filter(|r| r.meets(slo)).count() as f64 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(fc_ms: f64, tokens: u64) -> IterationCost {
        IterationCost {
            placement: Placement::FcPim,
            fc_time: Time::from_millis(fc_ms),
            attn_time: Time::from_millis(0.5),
            comm_time: Time::from_millis(1.0),
            other_time: Time::from_millis(0.1),
            fc_energy: Energy::from_millijoules(10.0),
            attn_energy: Energy::from_millijoules(1.0),
            comm_energy: Energy::from_millijoules(0.5),
            static_energy: Energy::from_millijoules(0.2),
            new_tokens: tokens,
        }
    }

    #[test]
    fn iteration_cost_totals() {
        let c = cost(8.0, 16);
        assert!((c.total_time().as_millis() - 9.6).abs() < 1e-12);
        assert!((c.total_energy().as_millijoules() - 11.7).abs() < 1e-12);
    }

    fn report(latency_ms: f64, energy_mj: f64, tokens: u64) -> ExecutionReport {
        ExecutionReport {
            design: "test".into(),
            model: "m".into(),
            iterations: 1,
            tokens,
            requests: 1,
            phases: PhaseBreakdown {
                fc: Time::from_millis(latency_ms),
                ..Default::default()
            },
            energy: Energy::from_millijoules(energy_mj),
            energy_parts: (
                Energy::from_millijoules(energy_mj),
                Energy::ZERO,
                Energy::ZERO,
                Energy::ZERO,
            ),
            scheduler: SchedulerStats::default(),
            placements: RunLength::default(),
            prefill_time: Time::ZERO,
            prefill_energy: Energy::ZERO,
        }
    }

    #[test]
    fn speedup_and_efficiency_ratios() {
        let fast = report(10.0, 50.0, 100);
        let slow = report(20.0, 200.0, 100);
        assert!((fast.speedup_over(&slow) - 2.0).abs() < 1e-12);
        assert!((fast.energy_efficiency_over(&slow) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn per_token_metrics() {
        let r = report(100.0, 200.0, 50);
        assert!((r.energy_per_token().as_millijoules() - 4.0).abs() < 1e-12);
        assert!((r.tokens_per_second() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn zero_token_report_is_safe() {
        let r = report(1.0, 1.0, 0);
        assert_eq!(r.energy_per_token(), Energy::ZERO);
    }

    fn request(
        arrival_s: f64,
        queued_s: f64,
        ttft_decode_s: f64,
        tpot_s: f64,
        out: u64,
    ) -> RequestRecord {
        let admitted = arrival_s + queued_s;
        let first_token = admitted + ttft_decode_s;
        RequestRecord {
            id: 0,
            arrival: Time::new(arrival_s),
            admitted: Time::new(admitted),
            first_token: Time::new(first_token),
            finished: Time::new(first_token + tpot_s * (out - 1) as f64),
            prompt_tokens: 64,
            output_tokens: out,
            preemptions: 0,
        }
    }

    #[test]
    fn request_record_latency_identities() {
        let r = request(10.0, 0.5, 0.1, 0.02, 11);
        assert!((r.queueing_delay().value() - 0.5).abs() < 1e-12);
        assert!((r.ttft().value() - 0.6).abs() < 1e-12);
        assert!((r.tpot().value() - 0.02).abs() < 1e-12);
        assert!((r.e2e().value() - 0.8).abs() < 1e-12);
        assert!(r.ttft().value() <= r.e2e().value());
    }

    #[test]
    fn single_token_request_has_zero_tpot() {
        let r = request(0.0, 0.0, 0.1, 0.0, 1);
        assert_eq!(r.tpot(), Time::ZERO);
    }

    #[test]
    fn latency_summary_percentiles() {
        let times: Vec<Time> = (1..=100).map(|i| Time::new(i as f64)).collect();
        let s = LatencySummary::from_times(&times).unwrap();
        assert_eq!(s.p50.value(), 50.0);
        assert_eq!(s.p95.value(), 95.0);
        assert_eq!(s.p99.value(), 99.0);
        assert_eq!(s.max.value(), 100.0);
        assert!((s.mean.value() - 50.5).abs() < 1e-12);
        assert!(LatencySummary::from_times(&[]).is_none());
        let one = LatencySummary::from_times(&[Time::new(3.0)]).unwrap();
        assert_eq!(one.p99.value(), 3.0);
    }

    #[test]
    fn slo_goodput_counts_only_meeting_requests() {
        let slo = SloSpec {
            ttft: Time::new(1.0),
            tpot: Time::new(0.05),
        };
        let fast = request(0.0, 0.1, 0.2, 0.02, 10); // meets
        let slow_ttft = request(0.0, 5.0, 0.2, 0.02, 10); // blows TTFT
        let slow_tpot = request(0.0, 0.1, 0.2, 0.5, 10); // blows TPOT
        assert!(fast.meets(&slo));
        assert!(!slow_ttft.meets(&slo));
        assert!(!slow_tpot.meets(&slo));
        let report = ServingReport {
            design: "test".into(),
            model: "m".into(),
            iterations: 30,
            tokens: 30,
            makespan: Time::new(10.0),
            phases: PhaseBreakdown::default(),
            prefill_time: Time::ZERO,
            energy: Energy::ZERO,
            scheduler: SchedulerStats::default(),
            placements: RunLength::default(),
            rlp_series: RunLength::default(),
            records: vec![fast, slow_ttft, slow_tpot],
            preemptions: 0,
            peak_rlp: 3,
            peak_kv_tokens: 0,
            kv: KvCacheStats::default(),
        };
        assert!((report.slo_attainment(&slo) - 1.0 / 3.0).abs() < 1e-12);
        assert!((report.goodput(&slo) - 0.1).abs() < 1e-12);
    }
}
