//! Request arrival processes and the online request lifecycle.
//!
//! The paper's central observation is that runtime parallelism is
//! *unpredictable under online serving*: requests arrive and finish at
//! unknown times (§3.2). The closed-batch [`WorkloadSpec`] path cannot
//! express that — it starts every request at t = 0. This module adds
//! the open-loop side: an [`ArrivalProcess`] stamps each generated
//! request with an arrival time, and a [`ServingRequest`] carries the
//! request through its lifecycle states (`Queued → Prefilling →
//! Decoding → Finished`) as the serving engine advances simulated
//! wall-clock time.
//!
//! [`WorkloadSpec`]: crate::batching::WorkloadSpec

use crate::conversation::ConversationDataset;
use crate::dataset::DatasetKind;
use crate::request::Request;
use crate::speculative::SpeculativeConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// When requests reach the serving system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Open-loop Poisson arrivals at `rate_per_sec` (exponential
    /// inter-arrival gaps) — the standard serving-benchmark load model.
    Poisson {
        /// Mean arrivals per second.
        rate_per_sec: f64,
    },
    /// Every request is present at t = 0 (the closed-batch limit; with
    /// a batch cap this reproduces queue-fed continuous batching).
    Immediate,
    /// Synchronized bursts: `burst_size` requests land together every
    /// `interval_sec` — the thundering-herd pattern (webhook fan-out,
    /// batch-job fan-in) that stresses admission and prefill the
    /// hardest.
    Bursty {
        /// Requests per burst.
        burst_size: usize,
        /// Gap between consecutive bursts, in seconds.
        interval_sec: f64,
    },
    /// Multi-hour production diurnal load: a non-homogeneous Poisson
    /// process whose rate follows a raised sinusoid from
    /// `base_rate_per_sec` (trough) to `peak_rate_per_sec` (crest) over
    /// `period_s`, with per-arrival multiplicative noise of relative
    /// magnitude `noise` (0 disables it). The episode starts at the
    /// trough — day traffic ramps up, peaks at `period_s / 2`, and
    /// falls back.
    Diurnal {
        /// Trough arrival rate, requests per second.
        base_rate_per_sec: f64,
        /// Crest arrival rate, requests per second.
        peak_rate_per_sec: f64,
        /// Seconds per full day/night cycle.
        period_s: f64,
        /// Relative rate jitter in `[0, 1)`: the instantaneous rate is
        /// scaled by `1 ± noise` uniformly.
        noise: f64,
    },
    /// Steady `base_rate_per_sec` Poisson baseline with flash-crowd
    /// spikes: every `spike_every_s` the rate jumps to
    /// `spike_rate_per_sec` for `spike_duration_s` (a viral link, a
    /// retry storm). The first spike starts one full period in, so the
    /// fleet sees the steady state first.
    FlashCrowd {
        /// Baseline arrival rate, requests per second.
        base_rate_per_sec: f64,
        /// Arrival rate during a spike, requests per second.
        spike_rate_per_sec: f64,
        /// Seconds between spike onsets.
        spike_every_s: f64,
        /// Seconds each spike lasts.
        spike_duration_s: f64,
    },
}

/// Draws arrivals from a non-homogeneous Poisson process by thinning:
/// candidate events at the envelope rate `max_rate`, each kept with
/// probability `rate(t) / max_rate`.
fn thinned_arrivals(
    rng: &mut StdRng,
    max_rate: f64,
    n: usize,
    mut rate_at: impl FnMut(&mut StdRng, f64) -> f64,
) -> Vec<f64> {
    let mut clock = 0.0;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        clock += -u.ln() / max_rate;
        let keep: f64 = rng.gen_range(0.0..1.0);
        if keep * max_rate < rate_at(rng, clock) {
            out.push(clock);
        }
    }
    out
}

impl ArrivalProcess {
    /// Arrival times (seconds, non-decreasing, starting at 0) for `n`
    /// requests, deterministically derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if a rate/interval is not positive and finite.
    #[track_caller]
    pub(crate) fn arrival_times(&self, seed: u64, n: usize) -> Vec<f64> {
        match self {
            ArrivalProcess::Poisson { rate_per_sec } => {
                assert!(
                    rate_per_sec.is_finite() && *rate_per_sec > 0.0,
                    "Poisson rate must be positive, got {rate_per_sec}"
                );
                let mut rng = StdRng::seed_from_u64(seed ^ 0xa55a_a55a_0f0f_f0f0);
                let mut clock = 0.0;
                (0..n)
                    .map(|_| {
                        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                        clock += -u.ln() / rate_per_sec;
                        clock
                    })
                    .collect()
            }
            ArrivalProcess::Immediate => vec![0.0; n],
            ArrivalProcess::Bursty {
                burst_size,
                interval_sec,
            } => {
                assert!(*burst_size > 0, "burst size must be positive");
                assert!(
                    interval_sec.is_finite() && *interval_sec > 0.0,
                    "burst interval must be positive, got {interval_sec}"
                );
                (0..n)
                    .map(|i| (i / burst_size) as f64 * interval_sec)
                    .collect()
            }
            ArrivalProcess::Diurnal {
                base_rate_per_sec,
                peak_rate_per_sec,
                period_s,
                noise,
            } => {
                assert!(
                    base_rate_per_sec.is_finite() && *base_rate_per_sec > 0.0,
                    "diurnal base rate must be positive, got {base_rate_per_sec}"
                );
                assert!(
                    peak_rate_per_sec.is_finite() && *peak_rate_per_sec >= *base_rate_per_sec,
                    "diurnal peak rate must be >= base, got {peak_rate_per_sec}"
                );
                assert!(
                    period_s.is_finite() && *period_s > 0.0,
                    "diurnal period must be positive, got {period_s}"
                );
                assert!(
                    noise.is_finite() && (0.0..1.0).contains(noise),
                    "diurnal noise must be in [0, 1), got {noise}"
                );
                let mut rng = StdRng::seed_from_u64(seed ^ 0xa55a_a55a_0f0f_f0f0);
                let base = *base_rate_per_sec;
                let swing = peak_rate_per_sec - base;
                let period = *period_s;
                let noise = *noise;
                // Envelope: peak rate times the worst-case noise boost.
                let max_rate = *peak_rate_per_sec * (1.0 + noise);
                thinned_arrivals(&mut rng, max_rate, n, |rng, t| {
                    let phase = core::f64::consts::TAU * t / period;
                    let rate = base + swing * 0.5 * (1.0 - phase.cos());
                    if noise > 0.0 {
                        rate * rng.gen_range(1.0 - noise..1.0 + noise)
                    } else {
                        rate
                    }
                })
            }
            ArrivalProcess::FlashCrowd {
                base_rate_per_sec,
                spike_rate_per_sec,
                spike_every_s,
                spike_duration_s,
            } => {
                assert!(
                    base_rate_per_sec.is_finite() && *base_rate_per_sec > 0.0,
                    "flash-crowd base rate must be positive, got {base_rate_per_sec}"
                );
                assert!(
                    spike_rate_per_sec.is_finite() && *spike_rate_per_sec >= *base_rate_per_sec,
                    "flash-crowd spike rate must be >= base, got {spike_rate_per_sec}"
                );
                assert!(
                    spike_every_s.is_finite() && *spike_every_s > 0.0,
                    "spike interval must be positive, got {spike_every_s}"
                );
                assert!(
                    spike_duration_s.is_finite()
                        && *spike_duration_s > 0.0
                        && spike_duration_s <= spike_every_s,
                    "spike duration must be positive and <= the interval, got {spike_duration_s}"
                );
                let mut rng = StdRng::seed_from_u64(seed ^ 0xa55a_a55a_0f0f_f0f0);
                let base = *base_rate_per_sec;
                let spike = *spike_rate_per_sec;
                let every = *spike_every_s;
                let duration = *spike_duration_s;
                thinned_arrivals(&mut rng, spike, n, |_, t| {
                    // First spike one full period in: [every, every+duration).
                    if t >= every && (t % every) < duration {
                        spike
                    } else {
                        base
                    }
                })
            }
        }
    }
}

/// Where an open-loop workload's requests come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestSource {
    /// Independent requests drawn from one length category.
    Dataset(DatasetKind),
    /// Prefix-structured requests (shared system prompt or multi-turn
    /// conversations).
    Conversations(ConversationDataset),
}

impl RequestSource {
    /// Generates `n` requests with a seeded RNG (fully reproducible).
    pub(crate) fn generate(&self, seed: u64, n: usize) -> Vec<Request> {
        match self {
            RequestSource::Dataset(kind) => kind.generate(seed, n),
            RequestSource::Conversations(dataset) => dataset.generate(seed, n),
        }
    }

    /// Display label for reports and sweeps.
    pub(crate) fn label(&self) -> String {
        match self {
            RequestSource::Dataset(kind) => kind.to_string(),
            RequestSource::Conversations(dataset) => dataset.label(),
        }
    }
}

impl From<DatasetKind> for RequestSource {
    fn from(kind: DatasetKind) -> Self {
        RequestSource::Dataset(kind)
    }
}

impl From<ConversationDataset> for RequestSource {
    fn from(dataset: ConversationDataset) -> Self {
        RequestSource::Conversations(dataset)
    }
}

impl core::fmt::Display for RequestSource {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Lifecycle state of an online request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestState {
    /// Arrived, waiting for a batch slot.
    Queued,
    /// Admitted; its prompt is being prefetched into the KV cache.
    Prefilling,
    /// Generating output tokens.
    Decoding,
    /// Emitted `<|eos|>`.
    Finished,
}

/// One request flowing through the online serving system: the static
/// [`Request`] plus its arrival stamp, lifecycle state, and progress.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingRequest {
    /// The underlying prompt/output-length pair.
    pub request: Request,
    /// Arrival time, seconds since the episode began.
    pub arrival_s: f64,
    /// Current lifecycle state.
    pub state: RequestState,
    /// Output tokens banked so far.
    pub generated: u64,
    /// Times this request was preempted back to the queue.
    pub preemptions: u64,
}

impl ServingRequest {
    /// A freshly arrived request.
    pub fn new(request: Request, arrival_s: f64) -> Self {
        Self {
            request,
            arrival_s,
            state: RequestState::Queued,
            generated: 0,
            preemptions: 0,
        }
    }

    /// Output tokens still to generate.
    pub fn remaining(&self) -> u64 {
        self.request.output_len - self.generated
    }

    /// Current KV-cache footprint in tokens (prompt + banked output).
    pub fn kv_len(&self) -> u64 {
        self.request.input_len + self.generated
    }

    /// Prompt tokens a (re-)admission must prefill: the prompt plus any
    /// output generated before a preemption (recompute-style
    /// preemption rebuilds the whole context).
    pub fn prefill_len(&self) -> u64 {
        self.kv_len()
    }
}

/// An open-loop serving workload: who arrives, when, and how the
/// decoder speculates.
///
/// # Example
///
/// ```
/// use papi_workload::{DatasetKind, ServingWorkload};
///
/// let workload = ServingWorkload::poisson(DatasetKind::GeneralQa, 2.0, 64).with_seed(7);
/// let requests = workload.requests();
/// assert_eq!(requests.len(), 64);
/// assert!(requests.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingWorkload {
    /// Where requests come from (a plain dataset category, or a
    /// prefix-structured conversation population).
    pub source: RequestSource,
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// Number of requests in the episode.
    pub num_requests: usize,
    /// Speculative-decoding configuration (TLP, fixed or co-optimized
    /// with the live batch).
    pub speculation: SpeculativeConfig,
    /// RNG seed for dataset generation and arrivals.
    pub seed: u64,
}

impl ServingWorkload {
    /// Poisson arrivals at `rate_per_sec` over `num_requests` requests,
    /// no speculation.
    pub fn poisson(
        source: impl Into<RequestSource>,
        rate_per_sec: f64,
        num_requests: usize,
    ) -> Self {
        Self::new(
            source,
            ArrivalProcess::Poisson { rate_per_sec },
            num_requests,
        )
    }

    /// A workload over an explicit arrival process.
    pub fn new(
        source: impl Into<RequestSource>,
        arrivals: ArrivalProcess,
        num_requests: usize,
    ) -> Self {
        Self {
            source: source.into(),
            arrivals,
            num_requests,
            speculation: SpeculativeConfig::fixed(1),
            seed: 0xC0FFEE,
        }
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the speculation configuration
    /// ([`SpeculativeConfig::adaptive`] co-optimizes it with the live
    /// batch).
    pub fn with_speculation(mut self, speculation: SpeculativeConfig) -> Self {
        self.speculation = speculation;
        self
    }

    /// The episode's requests, stamped with arrival times and sorted by
    /// arrival (ties keep generation order).
    pub fn requests(&self) -> Vec<ServingRequest> {
        let requests = self.source.generate(self.seed, self.num_requests);
        let times = self.arrivals.arrival_times(self.seed, self.num_requests);
        let mut serving: Vec<ServingRequest> = requests
            .into_iter()
            .zip(times)
            .map(|(request, arrival_s)| ServingRequest::new(request, arrival_s))
            .collect();
        serving.sort_by(|a, b| {
            a.arrival_s
                .total_cmp(&b.arrival_s)
                .then(a.request.id.cmp(&b.request.id))
        });
        serving
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_sets_mean_gap() {
        for rate in [0.5f64, 2.0, 10.0] {
            let times = ArrivalProcess::Poisson { rate_per_sec: rate }.arrival_times(9, 4000);
            assert_eq!(times.len(), 4000);
            assert!(times.windows(2).all(|w| w[0] <= w[1]));
            let span = times.last().unwrap() - times.first().unwrap();
            let mean_gap = span / (times.len() - 1) as f64;
            assert!(
                (mean_gap * rate - 1.0).abs() < 0.1,
                "rate {rate}: mean gap {mean_gap}"
            );
        }
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let p = ArrivalProcess::Poisson { rate_per_sec: 3.0 };
        assert_eq!(p.arrival_times(4, 100), p.arrival_times(4, 100));
        assert_ne!(p.arrival_times(4, 100), p.arrival_times(5, 100));
    }

    #[test]
    fn immediate_arrivals_land_at_zero() {
        let i = ArrivalProcess::Immediate.arrival_times(0, 3);
        assert_eq!(i, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn bursts_land_together() {
        let t = ArrivalProcess::Bursty {
            burst_size: 3,
            interval_sec: 2.0,
        }
        .arrival_times(0, 8);
        assert_eq!(t, vec![0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 4.0, 4.0]);
    }

    #[test]
    fn diurnal_rate_tracks_the_sinusoid() {
        let p = ArrivalProcess::Diurnal {
            base_rate_per_sec: 2.0,
            peak_rate_per_sec: 20.0,
            period_s: 1000.0,
            noise: 0.1,
        };
        let times = p.arrival_times(11, 8000);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(times, p.arrival_times(11, 8000), "seeded determinism");
        // Count arrivals in the trough vs the crest of the first cycle:
        // the crest must see several times the trough's traffic.
        let in_window = |lo: f64, hi: f64| times.iter().filter(|&&t| t >= lo && t < hi).count();
        let trough = in_window(0.0, 100.0);
        let crest = in_window(450.0, 550.0);
        assert!(
            crest > trough * 3,
            "crest {crest} should dwarf trough {trough}"
        );
    }

    #[test]
    fn flash_crowd_spikes_after_a_quiet_period() {
        let p = ArrivalProcess::FlashCrowd {
            base_rate_per_sec: 1.0,
            spike_rate_per_sec: 30.0,
            spike_every_s: 100.0,
            spike_duration_s: 10.0,
        };
        let times = p.arrival_times(3, 2000);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(times, p.arrival_times(3, 2000), "seeded determinism");
        let in_window = |lo: f64, hi: f64| times.iter().filter(|&&t| t >= lo && t < hi).count();
        // The first period is all baseline — no spike at t = 0.
        let quiet = in_window(0.0, 100.0);
        let spike = in_window(100.0, 110.0);
        assert!(
            spike > quiet,
            "a 10 s spike ({spike}) should outdraw 100 s of baseline ({quiet})"
        );
    }

    #[test]
    #[should_panic(expected = "peak rate must be >= base")]
    fn inverted_diurnal_rejected() {
        ArrivalProcess::Diurnal {
            base_rate_per_sec: 5.0,
            peak_rate_per_sec: 1.0,
            period_s: 100.0,
            noise: 0.0,
        }
        .arrival_times(0, 1);
    }

    #[test]
    #[should_panic(expected = "spike duration")]
    fn overlong_spike_rejected() {
        ArrivalProcess::FlashCrowd {
            base_rate_per_sec: 1.0,
            spike_rate_per_sec: 5.0,
            spike_every_s: 10.0,
            spike_duration_s: 20.0,
        }
        .arrival_times(0, 1);
    }

    #[test]
    #[should_panic(expected = "burst size")]
    fn empty_burst_rejected() {
        ArrivalProcess::Bursty {
            burst_size: 0,
            interval_sec: 1.0,
        }
        .arrival_times(0, 1);
    }

    #[test]
    fn conversation_source_flows_through_the_workload() {
        use crate::conversation::ConversationDataset;
        let w = ServingWorkload::poisson(
            ConversationDataset::multi_turn(DatasetKind::GeneralQa, 128, 3),
            4.0,
            24,
        )
        .with_seed(5);
        let requests = w.requests();
        assert_eq!(requests.len(), 24);
        assert!(requests.iter().all(|r| r.request.prefix.is_some()));
        assert_eq!(w.source.label(), "general-qa-chat3x-sys128");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        ArrivalProcess::Poisson { rate_per_sec: 0.0 }.arrival_times(0, 1);
    }

    #[test]
    fn serving_request_lifecycle_accounting() {
        let mut r = ServingRequest::new(Request::new(1, 100, 40), 2.5);
        assert_eq!(r.state, RequestState::Queued);
        assert_eq!(r.remaining(), 40);
        assert_eq!(r.kv_len(), 100);
        r.generated = 15;
        assert_eq!(r.remaining(), 25);
        assert_eq!(r.kv_len(), 115);
        assert_eq!(r.prefill_len(), 115);
        assert_eq!(r.arrival_s, 2.5);
    }

    #[test]
    fn workload_requests_sorted_and_reproducible() {
        let w = ServingWorkload::poisson(DatasetKind::CreativeWriting, 4.0, 128).with_seed(3);
        let a = w.requests();
        let b = w.requests();
        assert_eq!(a, b);
        assert_eq!(a.len(), 128);
        assert!(a.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        assert!(a.iter().all(|r| r.state == RequestState::Queued));
    }
}
