//! Phase-scoped wall-clock profiling for the simulator itself.
//!
//! The serving and cluster engines are instrumented with named phases
//! ([`phase!`]`("route")`, `phase!("step")`, `phase!("price")`,
//! `phase!("snapshot")`, `phase!("migrate")`). Profiling is **off by
//! default**: a disabled phase costs one relaxed atomic load and
//! constructs no timer, so instrumented hot paths stay hot. Turn it on
//! with [`enable`], run the workload, then collect a [`Profile`]:
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
//! papi_perf::disable();
//! papi_perf::reset();
//! ```
//!
//! Phases nest: a phase's self time excludes the phases opened inside
//! it. Every thread that enters a phase registers its totals, and
//! [`report`] merges all threads, so rayon fan-outs profile
//! transparently. The benchmark's traced pass (`perfbench --trace 1`)
//! reads each phase's call count and self-time share from [`report`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether phase timing is on: one relaxed atomic load, inlined into
/// every instrumented call site.
#[inline(always)]
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns phase timing on for the whole process.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns phase timing off (already-open guards still record on drop).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// One phase's accumulated count and wall time, in seconds.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    count: u64,
    total_s: f64,
    self_s: f64,
}

impl Totals {
    fn add(&mut self, other: Totals) {
        self.count += other.count;
        self.total_s += other.total_s;
        self.self_s += other.self_s;
    }
}

/// One thread's totals per phase name, shared with the registry so
/// [`report`] can read them.
type ThreadTotals = Arc<Mutex<HashMap<&'static str, Totals>>>;

struct Frame {
    name: &'static str,
    calls: u64,
    start: Instant,
    /// Inclusive time of already-closed children, subtracted from this
    /// frame's inclusive time to get its self time.
    child_s: f64,
}

#[derive(Default)]
struct ThreadState {
    stack: Vec<Frame>,
    /// `Some` once the thread has registered its totals.
    totals: Option<ThreadTotals>,
}

fn registry() -> &'static Mutex<Vec<ThreadTotals>> {
    static REGISTRY: OnceLock<Mutex<Vec<ThreadTotals>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static THREAD: std::cell::RefCell<ThreadState> =
        std::cell::RefCell::new(ThreadState::default());
}

/// RAII timer for one phase. Construct through [`phase!`] (or
/// [`PhaseGuard::enter`] directly); the time is recorded when the
/// guard drops. A guard created while profiling is disabled records
/// nothing.
#[must_use = "a phase guard times the scope it is bound to"]
#[derive(Debug)]
pub struct PhaseGuard {
    active: bool,
}

impl PhaseGuard {
    /// Opens a phase that counts as `calls` calls of `name` (a no-op
    /// unless profiling is [enabled](enable)). A loop that runs the
    /// phase's work back to back can time it once, as all its calls.
    #[inline]
    pub fn enter(name: &'static str, calls: u64) -> Self {
        if !enabled() {
            return Self { active: false };
        }
        THREAD.with(|cell| {
            let mut state = cell.borrow_mut();
            if state.totals.is_none() {
                let totals = ThreadTotals::default();
                registry().lock().unwrap().push(Arc::clone(&totals));
                state.totals = Some(totals);
            }
            state.stack.push(Frame {
                name,
                calls,
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
            if let Some(parent) = state.stack.last_mut() {
                parent.child_s += inclusive;
            }
            let totals = state.totals.as_ref().expect("registered at enter");
            totals
                .lock()
                .unwrap()
                .entry(frame.name)
                .or_default()
                .add(Totals {
                    count: frame.calls,
                    total_s: inclusive,
                    self_s: (inclusive - frame.child_s).max(0.0),
                });
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
/// timer is constructed) unless profiling is enabled. A second argument,
/// `phase!("price", n)`, times the scope once as `n` calls.
#[macro_export]
macro_rules! phase {
    ($name:expr) => {
        $crate::phase!($name, 1);
    };
    ($name:expr, $calls:expr) => {
        let _papi_perf_phase = $crate::PhaseGuard::enter($name, $calls);
    };
}

/// Clears every thread's recorded totals (open guards keep timing and
/// will record into the cleared store on drop).
pub fn reset() {
    for totals in registry().lock().unwrap().iter() {
        totals.lock().unwrap().clear();
    }
}

/// Merges every thread's totals into a [`Profile`] snapshot.
pub fn report() -> Profile {
    let mut merged: HashMap<&'static str, Totals> = HashMap::new();
    for totals in registry().lock().unwrap().iter() {
        for (&name, &t) in totals.lock().unwrap().iter() {
            merged.entry(name).or_default().add(t);
        }
    }
    let mut phases: Vec<PhaseStats> = merged
        .into_iter()
        .map(|(name, t)| PhaseStats {
            name: name.to_owned(),
            count: t.count,
            total_s: t.total_s,
            self_s: t.self_s,
        })
        .collect();
    phases.sort_by(|a, b| b.total_s.total_cmp(&a.total_s).then(a.name.cmp(&b.name)));
    Profile { phases }
}

/// Wall-time totals of one phase (every entry with its name, summed
/// across threads and call paths). Times in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStats {
    /// The phase name (`phase!("name")`).
    pub name: String,
    /// Times the phase was entered.
    pub count: u64,
    /// Total inclusive wall time.
    pub total_s: f64,
    /// Total self wall time (inclusive minus nested phases).
    pub self_s: f64,
}

/// A snapshot of every phase's totals — what [`report`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Per-phase totals, sorted by descending total time.
    pub phases: Vec<PhaseStats>,
}

impl Profile {
    /// The totals of phase `name`, if it was ever entered.
    pub fn phase(&self, name: &str) -> Option<&PhaseStats> {
        self.phases.iter().find(|p| p.name == name)
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
    fn phases_record_and_nest() {
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
        {
            phase!("batched", 5); // a loop timed once, as all its calls
        }
        let profile = report();
        disable();

        assert_eq!(profile.phase("batched").expect("batched").count, 5);
        let outer = profile.phase("outer").expect("outer recorded");
        let inner = profile.phase("inner").expect("inner recorded");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 3);
        assert!(outer.total_s >= inner.total_s, "outer includes inner");
        assert_eq!(
            inner.self_s, inner.total_s,
            "a leaf's self time is its total"
        );
        // Self time excludes children: outer's inclusive time is its
        // own plus its children's.
        assert!(outer.self_s < outer.total_s);
        assert!((outer.self_s + inner.total_s - outer.total_s).abs() < 1e-9);
        assert_eq!(profile.phases[0].name, "outer", "sorted by total time");

        // A disabled phase records nothing.
        reset();
        {
            phase!("dark");
        }
        assert!(report().phase("dark").is_none());
    }

    /// Totals from rayon-style helper threads merge into the report.
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
