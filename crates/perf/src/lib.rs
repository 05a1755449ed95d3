//! Phase-scoped wall-clock profiling for the simulator itself.
//!
//! The serving and cluster engines are instrumented with lightweight
//! named phases ([`phase!`]`("route")`, `phase!("step")`,
//! `phase!("price")`, `phase!("snapshot")`, …). Profiling is **off by
//! default**: a disabled phase costs one relaxed atomic load and
//! constructs no timer, so instrumented hot paths stay hot. Enable it
//! programmatically with [`enable`] or by exporting `PAPI_PROFILE=1`,
//! run the workload, then collect a [`Profile`]:
//!
//! ```
//! papi_perf::enable();
//! {
//!     papi_perf::phase!("outer");
//!     {
//!         papi_perf::phase!("inner");
//!     }
//! }
//! let profile = papi_perf::report();
//! assert_eq!(profile.phase("outer").unwrap().count, 1);
//! println!("{}", profile.table());
//! papi_perf::disable();
//! papi_perf::reset();
//! ```
//!
//! A profile offers three consumers:
//!
//! - **terminal table** ([`Profile::table`]): per-phase count and
//!   inclusive/self wall time with min/median/mean/stddev/max;
//! - **JSON baselines** ([`Profile::to_json`] /
//!   [`Profile::compare`]): save a run's profile, diff a later run
//!   against it with a configurable regression threshold
//!   ([`ProfileDiff`]);
//! - **folded stacks** ([`Profile::folded`]): `outer;inner 1234`
//!   lines (self-time microseconds) consumable by standard flamegraph
//!   tooling (`flamegraph.pl`, inferno, speedscope).
//!
//! Phases nest: samples are recorded per leaf name for the breakdown
//! table and per full stack path for the folded output. Every thread
//! that enters a phase registers itself; [`report`] merges all
//! threads, so rayon fan-outs profile transparently.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// JSON schema tag of a serialized [`Profile`].
pub const PROFILE_SCHEMA: &str = "papi-perf-profile/1";

// ---------------------------------------------------------------------
// Global enable state
// ---------------------------------------------------------------------

/// 0 = undetermined (consult `PAPI_PROFILE`), 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether phase timing is currently on. The first call (per process)
/// consults the `PAPI_PROFILE` environment variable (`1` / `true` /
/// `on` enable); afterwards this is one relaxed atomic load, inlined
/// into every instrumented call site.
#[inline(always)]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => enabled_from_env(),
    }
}

/// The first call's path: reads `PAPI_PROFILE` and latches the answer.
#[cold]
#[inline(never)]
fn enabled_from_env() -> bool {
    let on = std::env::var("PAPI_PROFILE")
        .map(|v| matches!(v.as_str(), "1" | "true" | "on"))
        .unwrap_or(false);
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Turns phase timing on for the whole process.
pub fn enable() {
    STATE.store(2, Ordering::Relaxed);
}

/// Turns phase timing off (already-open guards still record on drop).
pub fn disable() {
    STATE.store(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Per-thread collection
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct ThreadData {
    /// Inclusive-duration samples per leaf phase name, in seconds.
    samples: HashMap<&'static str, Vec<f64>>,
    /// Self time per full stack path (`outer;inner`), in seconds.
    folded: HashMap<String, f64>,
}

struct Frame {
    name: &'static str,
    path: String,
    start: Instant,
    /// Inclusive time of already-closed children, subtracted from this
    /// frame's inclusive time to get its self time.
    child_s: f64,
}

#[derive(Default)]
struct ThreadState {
    stack: Vec<Frame>,
    data: Arc<Mutex<ThreadData>>,
    registered: bool,
}

fn registry() -> &'static Mutex<Vec<Arc<Mutex<ThreadData>>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Mutex<ThreadData>>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static THREAD: std::cell::RefCell<ThreadState> =
        std::cell::RefCell::new(ThreadState::default());
}

/// RAII timer for one phase. Construct through [`phase!`] (or
/// [`PhaseGuard::enter`] directly); the sample is recorded when the
/// guard drops. A guard created while profiling is disabled records
/// nothing.
#[must_use = "a phase guard times the scope it is bound to"]
#[derive(Debug)]
pub struct PhaseGuard {
    active: bool,
}

impl PhaseGuard {
    /// Opens a phase named `name` (a no-op unless [`enabled`]).
    #[inline]
    pub fn enter(name: &'static str) -> Self {
        if !enabled() {
            return Self { active: false };
        }
        THREAD.with(|cell| {
            let mut state = cell.borrow_mut();
            if !state.registered {
                registry().lock().unwrap().push(Arc::clone(&state.data));
                state.registered = true;
            }
            let path = match state.stack.last() {
                Some(parent) => format!("{};{}", parent.path, name),
                None => name.to_owned(),
            };
            state.stack.push(Frame {
                name,
                path,
                start: Instant::now(),
                child_s: 0.0,
            });
        });
        Self { active: true }
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        THREAD.with(|cell| {
            let mut state = cell.borrow_mut();
            let Some(frame) = state.stack.pop() else {
                return;
            };
            let inclusive = frame.start.elapsed().as_secs_f64();
            let self_s = (inclusive - frame.child_s).max(0.0);
            if let Some(parent) = state.stack.last_mut() {
                parent.child_s += inclusive;
            }
            let mut data = state.data.lock().unwrap();
            data.samples.entry(frame.name).or_default().push(inclusive);
            *data.folded.entry(frame.path).or_default() += self_s;
        });
    }
}

/// Times the lexical scope it is invoked in under `name`:
///
/// ```
/// papi_perf::enable();
/// {
///     papi_perf::phase!("route");
///     // ... the timed work ...
/// }
/// papi_perf::disable();
/// ```
///
/// Expands to a [`PhaseGuard`] binding, so nothing is measured (and no
/// timer is constructed) unless profiling is enabled.
#[macro_export]
macro_rules! phase {
    ($name:expr) => {
        let _papi_perf_phase = $crate::PhaseGuard::enter($name);
    };
}

/// Clears every thread's recorded samples (open guards keep timing and
/// will record into the cleared store on drop).
pub fn reset() {
    for data in registry().lock().unwrap().iter() {
        let mut data = data.lock().unwrap();
        data.samples.clear();
        data.folded.clear();
    }
}

/// Aggregates every thread's samples into a [`Profile`] snapshot.
pub fn report() -> Profile {
    let mut samples: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut folded: HashMap<String, f64> = HashMap::new();
    for data in registry().lock().unwrap().iter() {
        let data = data.lock().unwrap();
        for (&name, s) in &data.samples {
            samples.entry(name).or_default().extend_from_slice(s);
        }
        for (path, s) in &data.folded {
            *folded.entry(path.clone()).or_default() += s;
        }
    }
    let mut phases: Vec<PhaseStats> = samples
        .into_iter()
        .map(|(name, mut s)| {
            let self_s = folded
                .iter()
                .filter(|(path, _)| path.rsplit(';').next() == Some(name))
                .map(|(_, v)| v)
                .sum();
            PhaseStats::from_samples(name.to_owned(), &mut s, self_s)
        })
        .collect();
    phases.sort_by(|a, b| b.total_s.total_cmp(&a.total_s).then(a.name.cmp(&b.name)));
    let mut folded: Vec<(String, f64)> = folded.into_iter().collect();
    folded.sort_by(|a, b| a.0.cmp(&b.0));
    Profile {
        schema: PROFILE_SCHEMA.to_owned(),
        phases,
        folded,
    }
}

// ---------------------------------------------------------------------
// Profile
// ---------------------------------------------------------------------

/// Wall-time statistics of one phase (all samples with its leaf name,
/// summed across threads and call paths). Times in seconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseStats {
    /// The phase name (`phase!("name")`).
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Total inclusive wall time.
    pub total_s: f64,
    /// Total self wall time (inclusive minus nested phases).
    pub self_s: f64,
    /// Smallest sample.
    pub min_s: f64,
    /// Median sample.
    pub median_s: f64,
    /// Mean sample.
    pub mean_s: f64,
    /// Population standard deviation of the samples.
    pub stddev_s: f64,
    /// Largest sample.
    pub max_s: f64,
}

impl PhaseStats {
    fn from_samples(name: String, samples: &mut [f64], self_s: f64) -> Self {
        samples.sort_by(f64::total_cmp);
        let count = samples.len() as u64;
        let total: f64 = samples.iter().sum();
        let mean = if count == 0 {
            0.0
        } else {
            total / count as f64
        };
        let variance = if count == 0 {
            0.0
        } else {
            samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / count as f64
        };
        let median = match count as usize {
            0 => 0.0,
            n if n % 2 == 1 => samples[n / 2],
            n => (samples[n / 2 - 1] + samples[n / 2]) / 2.0,
        };
        Self {
            name,
            count,
            total_s: total,
            self_s,
            min_s: samples.first().copied().unwrap_or(0.0),
            median_s: median,
            mean_s: mean,
            stddev_s: variance.sqrt(),
            max_s: samples.last().copied().unwrap_or(0.0),
        }
    }
}

/// A snapshot of every phase's statistics plus the folded call paths —
/// what [`report`] returns and what the JSON baseline stores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Profile {
    /// Always [`PROFILE_SCHEMA`].
    pub schema: String,
    /// Per-phase statistics, sorted by descending total time.
    pub phases: Vec<PhaseStats>,
    /// `(stack path, self seconds)` pairs, sorted by path.
    pub folded: Vec<(String, f64)>,
}

impl Profile {
    /// The stats of phase `name`, if it was ever entered.
    pub fn phase(&self, name: &str) -> Option<&PhaseStats> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Total inclusive seconds across top-level phases (each folded
    /// root path's self time plus its descendants' — i.e. the sum of
    /// root-phase totals).
    pub fn total_s(&self) -> f64 {
        self.folded.iter().map(|(_, s)| s).sum()
    }

    /// The formatted per-phase breakdown table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:>9} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
            "phase",
            "count",
            "total ms",
            "self ms",
            "min µs",
            "median µs",
            "mean µs",
            "std µs",
            "max µs"
        ));
        let total = self.total_s().max(f64::MIN_POSITIVE);
        for p in &self.phases {
            out.push_str(&format!(
                "{:<12} {:>9} {:>10.2} {:>10.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}  {:>5.1}%\n",
                p.name,
                p.count,
                p.total_s * 1e3,
                p.self_s * 1e3,
                p.min_s * 1e6,
                p.median_s * 1e6,
                p.mean_s * 1e6,
                p.stddev_s * 1e6,
                p.max_s * 1e6,
                p.self_s / total * 100.0,
            ));
        }
        out
    }

    /// Folded-stack lines (`outer;inner 1234`, self-time microseconds
    /// as the sample weight) for flamegraph tooling.
    pub fn folded_stacks(&self) -> String {
        let mut out = String::new();
        for (path, self_s) in &self.folded {
            let micros = (self_s * 1e6).round() as u64;
            if micros > 0 {
                out.push_str(&format!("{path} {micros}\n"));
            }
        }
        out
    }

    /// Serializes the profile as one JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("profile serializes")
    }

    /// Parses a profile saved by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not valid profile JSON or
    /// carries a different schema tag.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let profile: Profile =
            serde_json::from_str(text.trim()).map_err(|e| format!("invalid profile: {e:?}"))?;
        if profile.schema != PROFILE_SCHEMA {
            return Err(format!("unsupported profile schema {}", profile.schema));
        }
        Ok(profile)
    }

    /// Diffs `self` (the current run) against `baseline` with the given
    /// fractional regression `threshold` (0.25 = a phase may grow 25 %
    /// over baseline before it is flagged). Phase totals below
    /// [`ProfileDiff::NOISE_FLOOR_S`] never flag.
    pub fn compare(&self, baseline: &Profile, threshold: f64) -> ProfileDiff {
        let mut rows = Vec::new();
        for base in &baseline.phases {
            let cur = self.phase(&base.name);
            let cur_total = cur.map_or(0.0, |c| c.total_s);
            let ratio = cur_total / base.total_s.max(f64::MIN_POSITIVE);
            rows.push(PhaseDiff {
                name: base.name.clone(),
                baseline_s: base.total_s,
                current_s: cur_total,
                ratio,
                regressed: ratio > 1.0 + threshold && cur_total > ProfileDiff::NOISE_FLOOR_S,
            });
        }
        for cur in &self.phases {
            if baseline.phase(&cur.name).is_none() {
                rows.push(PhaseDiff {
                    name: cur.name.clone(),
                    baseline_s: 0.0,
                    current_s: cur.total_s,
                    ratio: f64::INFINITY,
                    regressed: false, // new phases inform, never gate
                });
            }
        }
        ProfileDiff { threshold, rows }
    }
}

/// One phase's baseline-vs-current comparison row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseDiff {
    /// The phase name.
    pub name: String,
    /// Baseline total seconds.
    pub baseline_s: f64,
    /// Current total seconds.
    pub current_s: f64,
    /// `current / baseline` (∞ for a phase new in the current run).
    pub ratio: f64,
    /// Whether the phase exceeded the diff's threshold.
    pub regressed: bool,
}

/// The result of [`Profile::compare`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileDiff {
    /// The fractional growth allowed before a phase flags.
    pub threshold: f64,
    /// One row per phase in either profile.
    pub rows: Vec<PhaseDiff>,
}

impl ProfileDiff {
    /// Phases totalling less than this never flag: micro-phase wall
    /// times are scheduler noise, not signal.
    pub const NOISE_FLOOR_S: f64 = 1e-3;

    /// The phases that regressed past the threshold.
    pub fn regressions(&self) -> impl Iterator<Item = &PhaseDiff> {
        self.rows.iter().filter(|r| r.regressed)
    }

    /// Whether no phase regressed.
    pub fn passed(&self) -> bool {
        self.regressions().next().is_none()
    }

    /// The formatted comparison table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:>12} {:>12} {:>8}  verdict (threshold {:.0}%)\n",
            "phase",
            "base ms",
            "cur ms",
            "ratio",
            self.threshold * 100.0
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<12} {:>12.2} {:>12.2} {:>8.3}  {}\n",
                row.name,
                row.baseline_s * 1e3,
                row.current_s * 1e3,
                row.ratio,
                if row.regressed {
                    "REGRESSED"
                } else if row.baseline_s == 0.0 {
                    "new"
                } else {
                    "ok"
                }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The profiler is process-global and Rust runs tests on parallel
    /// threads, so every test that enables, resets, or reads it holds
    /// this lock for its whole body.
    static PROFILER: Mutex<()> = Mutex::new(());

    fn exclusive_profiler() -> std::sync::MutexGuard<'static, ()> {
        PROFILER
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn phases_record_nest_serialize_and_compare() {
        let _profiler = exclusive_profiler();
        enable();
        reset();
        {
            phase!("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            for _ in 0..3 {
                phase!("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let profile = report();
        disable();

        let outer = profile.phase("outer").expect("outer recorded");
        let inner = profile.phase("inner").expect("inner recorded");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 3);
        assert!(outer.total_s >= inner.total_s, "outer includes inner");
        assert!(inner.min_s <= inner.median_s && inner.median_s <= inner.max_s);
        assert!(inner.mean_s > 0.0);
        // Self time excludes children: outer self < outer inclusive.
        assert!(outer.self_s < outer.total_s);
        // Folded paths carry the nesting.
        let folded = profile.folded_stacks();
        assert!(folded.contains("outer;inner "), "folded: {folded}");
        // Table renders every phase.
        let table = profile.table();
        assert!(table.contains("outer") && table.contains("inner"));

        // JSON round trip.
        let parsed = Profile::from_json(&profile.to_json()).expect("round trips");
        assert_eq!(parsed, profile);
        assert!(Profile::from_json("{}").is_err());

        // Comparison: identical profiles pass, a 10× slower phase
        // flags, and the noise floor suppresses micro-phases.
        let diff = profile.compare(&profile, 0.25);
        assert!(diff.passed(), "{}", diff.table());
        let mut slower = profile.clone();
        slower.phases[0].total_s *= 10.0;
        for p in &mut slower.phases {
            p.total_s *= 10.0;
        }
        let diff = slower.compare(&profile, 0.25);
        assert!(!diff.passed());
        assert!(diff.regressions().next().is_some());
        assert!(diff.table().contains("REGRESSED"));

        // A disabled phase records nothing.
        reset();
        {
            phase!("dark");
        }
        assert!(report().phase("dark").is_none());
    }

    /// Samples from rayon-style helper threads merge into the report.
    #[test]
    fn cross_thread_samples_merge() {
        let _profiler = exclusive_profiler();
        enable();
        reset();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(|| {
                    phase!("worker");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let profile = report();
        disable();
        let worker = profile.phase("worker").expect("worker threads recorded");
        assert!(worker.count >= 2);
    }
}
