//! CI perf-regression gate over `papi-perf-bench/1` JSON reports.
//!
//! Compares a current [`perf_bench`](../perf_bench.rs) report against a
//! committed baseline (`BENCH_baseline.json` at the repo root) and
//! exits non-zero if the simulator got slower or drifted:
//!
//! - **throughput**: a scenario whose `tokens_per_sec` fell more than
//!   the tolerance (default 15 %) below baseline fails the gate; with
//!   `--normalize`, ratios are first divided by the median ratio across
//!   scenarios, so a uniformly slower/faster *machine* cancels out and
//!   only relative regressions gate (CI runs this mode, because the
//!   committed baseline was produced on a different host);
//! - **determinism**: `tokens` / `iterations` are simulation *outputs*
//!   and machine-independent — any mismatch fails (an intentional model
//!   change should refresh the baseline, see README);
//! - **cache hit rate**: for scenarios whose baseline exercises the
//!   prefix cache (`cache_hit_rate > 0`, including the fleet-wide rate
//!   of the `prefix_affinity_routing` scenario), a current hit rate
//!   more than the hit-rate tolerance (default 15 %) below baseline
//!   fails — a quietly colder cache is a performance regression even
//!   when wall time looks fine. Tighten or loosen with
//!   `--hit-rate-tolerance <fraction>`;
//! - **serving latency**: for scenarios whose baseline reports a
//!   simulated tail latency (`ttft_p99_ms > 0`, e.g. the
//!   `disaggregated_long_context` fleet), a current p99 TTFT more than
//!   the latency tolerance (default 15 %) *above* baseline fails —
//!   simulated latency is deterministic and machine-independent, so
//!   growth is a modeled-performance regression, not noise. Tune with
//!   `--latency-tolerance <fraction>`;
//! - **tier fetch time**: for scenarios whose baseline reports time
//!   re-materializing KV from capacity tiers (`tier_fetch_time_s > 0`,
//!   e.g. `long_context_offload` and `fleet_prefix_sharing`), growth
//!   beyond the latency tolerance fails — fetch seconds are simulated
//!   and deterministic, so growth is modeled regression;
//! - **SLO goodput**: for scenarios whose baseline reports a goodput
//!   (`goodput_rps > 0`, e.g. `long_context_offload`), a current
//!   goodput more than the goodput tolerance (default 15 %) *below*
//!   baseline fails — the tiered-KV scenario exists to hold that
//!   number up. Tune with `--goodput-tolerance <fraction>`;
//! - **provisioning cost**: for scenarios whose baseline reports
//!   elastic-fleet cost (`replica_hours > 0` /
//!   `energy_per_good_token_j > 0`, e.g. `autoscale_diurnal`), growth
//!   beyond the cost tolerance (default 15 %) fails — replica-hours
//!   and energy per SLO-good token are the numbers autoscaling exists
//!   to minimize, and both are deterministic simulation outputs. Tune
//!   with `--cost-tolerance <fraction>`;
//! - **coverage**: a baseline scenario missing from the current report
//!   fails; new scenarios are reported but pass.
//!
//! ```sh
//! cargo run --release -p papi-bench --bin perf_bench > perf_bench.json
//! cargo run --release -p papi-bench --bin bench_compare -- \
//!     [--normalize] [--hit-rate-tolerance 0.05] [--latency-tolerance 0.05] \
//!     [--cost-tolerance 0.05] BENCH_baseline.json perf_bench.json [tolerance]
//! ```

use serde::Deserialize;
use std::process::ExitCode;

#[derive(Debug, Deserialize)]
struct ScenarioResult {
    scenario: String,
    wall_ms: f64,
    tokens: u64,
    tokens_per_sec: f64,
    iterations: u64,
    cache_hit_rate: f64,
    /// `None` (pre-disaggregation reports) or zero both mean "not a
    /// latency-gated scenario".
    ttft_p99_ms: Option<f64>,
    /// `None` (pre-tiered-KV reports) or zero both mean "not a
    /// goodput-gated scenario".
    goodput_rps: Option<f64>,
    /// Simulated seconds re-materializing KV from capacity tiers
    /// (local DIMM + remote fabric); `None` (pre-shared-tier reports)
    /// or zero both mean "not a tier-gated scenario".
    tier_fetch_time_s: Option<f64>,
    /// Replica-hours an elastic fleet rented; `None` (pre-autoscaling
    /// reports) or zero both mean "not a cost-gated scenario".
    replica_hours: Option<f64>,
    /// Fleet energy per SLO-good output token, J; `None` or zero both
    /// mean "not a cost-gated scenario".
    energy_per_good_token_j: Option<f64>,
    /// Lazy-over-sequential wall-clock ratio for scenarios timing
    /// both cluster step modes; `None` elsewhere (and in old reports).
    speedup_vs_sequential: Option<f64>,
}

impl ScenarioResult {
    fn ttft_p99_ms(&self) -> f64 {
        self.ttft_p99_ms.unwrap_or(0.0)
    }

    fn goodput_rps(&self) -> f64 {
        self.goodput_rps.unwrap_or(0.0)
    }

    fn tier_fetch_time_s(&self) -> f64 {
        self.tier_fetch_time_s.unwrap_or(0.0)
    }

    fn replica_hours(&self) -> f64 {
        self.replica_hours.unwrap_or(0.0)
    }

    fn energy_per_good_token_j(&self) -> f64 {
        self.energy_per_good_token_j.unwrap_or(0.0)
    }
}

/// Hit rates are deterministic, but gate by default with the same 15 %
/// band as throughput so an intentional small model change doesn't
/// demand a baseline refresh twice over (`--hit-rate-tolerance`
/// overrides).
const DEFAULT_HIT_RATE_TOLERANCE: f64 = 0.15;

/// Same rationale for simulated tail latency (`--latency-tolerance`
/// overrides; it gates growth *above* baseline).
const DEFAULT_LATENCY_TOLERANCE: f64 = 0.15;

/// Same rationale for SLO goodput (`--goodput-tolerance` overrides; it
/// gates decay *below* baseline).
const DEFAULT_GOODPUT_TOLERANCE: f64 = 0.15;

/// Same rationale for elastic provisioning cost — replica-hours rented
/// and energy per SLO-good token (`--cost-tolerance` overrides; it
/// gates growth *above* baseline).
const DEFAULT_COST_TOLERANCE: f64 = 0.15;

#[derive(Debug, Deserialize)]
struct PerfReport {
    schema: String,
    scenarios: Vec<ScenarioResult>,
}

fn load(path: &str) -> PerfReport {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read perf report {path}: {e}"));
    let report: PerfReport = serde_json::from_str(text.trim())
        .unwrap_or_else(|e| panic!("cannot parse perf report {path}: {e:?}"));
    assert_eq!(
        report.schema, "papi-perf-bench/1",
        "{path}: unsupported schema {}",
        report.schema
    );
    report
}

/// Parses `<flag> <fraction>` out of `args` (removing both tokens),
/// returning `default` when the flag is absent, or an exit code (with
/// the error already printed) when the value is missing or outside
/// `[0, 1)`.
fn parse_fraction_flag(args: &mut Vec<String>, flag: &str, default: f64) -> Result<f64, ExitCode> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(default);
    };
    args.remove(pos);
    if pos >= args.len() {
        eprintln!("{flag} needs a value");
        return Err(ExitCode::from(2));
    }
    let value = args.remove(pos);
    match value.parse::<f64>() {
        Ok(parsed) if (0.0..1.0).contains(&parsed) => Ok(parsed),
        _ => {
            eprintln!("{flag} must be a number in [0, 1), got {value:?}");
            Err(ExitCode::from(2))
        }
    }
}

/// Median of a non-empty slice (averaging the middle pair).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // --normalize: divide every scenario's throughput ratio by the
    // median ratio across scenarios before gating. The median captures
    // the machine-speed difference between the baseline host and this
    // one, so the gate fires on *relative* regressions (one scenario
    // got slower than the rest) instead of on hardware. Use it whenever
    // the baseline was produced on a different machine — CI does.
    let normalize = if let Some(pos) = args.iter().position(|a| a == "--normalize") {
        args.remove(pos);
        true
    } else {
        false
    };
    // --hit-rate-tolerance <fraction>: how far a prefix-cache hit rate
    // may fall below baseline before gating. --latency-tolerance
    // <fraction>: how far a scenario's simulated p99 TTFT may rise
    // above baseline. Both gate deterministic simulation outputs, so
    // routing/caching/disaggregation PRs can tighten either to 0 for
    // exact-match gating without touching the wall-clock tolerance.
    let hit_rate_tolerance = match parse_fraction_flag(
        &mut args,
        "--hit-rate-tolerance",
        DEFAULT_HIT_RATE_TOLERANCE,
    ) {
        Ok(tolerance) => tolerance,
        Err(code) => return code,
    };
    let latency_tolerance =
        match parse_fraction_flag(&mut args, "--latency-tolerance", DEFAULT_LATENCY_TOLERANCE) {
            Ok(tolerance) => tolerance,
            Err(code) => return code,
        };
    let goodput_tolerance =
        match parse_fraction_flag(&mut args, "--goodput-tolerance", DEFAULT_GOODPUT_TOLERANCE) {
            Ok(tolerance) => tolerance,
            Err(code) => return code,
        };
    let cost_tolerance =
        match parse_fraction_flag(&mut args, "--cost-tolerance", DEFAULT_COST_TOLERANCE) {
            Ok(tolerance) => tolerance,
            Err(code) => return code,
        };
    let (Some(baseline_path), Some(current_path)) = (args.first(), args.get(1)) else {
        eprintln!(
            "usage: bench_compare [--normalize] [--hit-rate-tolerance <f>] \
             [--latency-tolerance <f>] [--goodput-tolerance <f>] \
             [--cost-tolerance <f>] <baseline.json> <current.json> [tolerance]"
        );
        return ExitCode::from(2);
    };
    let tolerance: f64 = args
        .get(2)
        .map(|t| t.parse().expect("tolerance must be a number"))
        .unwrap_or(0.15);
    assert!(
        (0.0..1.0).contains(&tolerance),
        "tolerance must be in [0, 1), got {tolerance}"
    );

    let baseline = load(baseline_path);
    let current = load(current_path);
    let mut failures = Vec::new();

    let ratio_of = |base: &ScenarioResult, cur: &ScenarioResult| {
        cur.tokens_per_sec / base.tokens_per_sec.max(f64::MIN_POSITIVE)
    };
    let machine_factor = if normalize {
        let mut ratios: Vec<f64> = baseline
            .scenarios
            .iter()
            .filter_map(|base| {
                current
                    .scenarios
                    .iter()
                    .find(|c| c.scenario == base.scenario)
                    .map(|cur| ratio_of(base, cur))
            })
            .collect();
        if ratios.is_empty() {
            1.0
        } else {
            median(&mut ratios).max(f64::MIN_POSITIVE)
        }
    } else {
        1.0
    };
    if normalize {
        println!("machine-speed factor (median throughput ratio): {machine_factor:.3}");
    }

    println!(
        "{:<32} {:>12} {:>12} {:>8}  verdict",
        "scenario", "base tok/s", "cur tok/s", "ratio"
    );
    for base in &baseline.scenarios {
        let Some(cur) = current
            .scenarios
            .iter()
            .find(|c| c.scenario == base.scenario)
        else {
            failures.push(format!(
                "{}: present in baseline but missing from the current report",
                base.scenario
            ));
            continue;
        };
        if (cur.tokens, cur.iterations) != (base.tokens, base.iterations) {
            failures.push(format!(
                "{}: deterministic outputs drifted (tokens {} -> {}, iterations {} -> {}); \
                 if the model change is intentional, refresh BENCH_baseline.json",
                base.scenario, base.tokens, cur.tokens, base.iterations, cur.iterations
            ));
        }
        if base.cache_hit_rate > 0.0
            && cur.cache_hit_rate < base.cache_hit_rate * (1.0 - hit_rate_tolerance)
        {
            failures.push(format!(
                "{}: prefix-cache hit rate regressed {:.1}% (baseline {:.3}, current {:.3}); \
                 gate allows {:.0}%",
                base.scenario,
                (1.0 - cur.cache_hit_rate / base.cache_hit_rate) * 100.0,
                base.cache_hit_rate,
                cur.cache_hit_rate,
                hit_rate_tolerance * 100.0
            ));
        }
        // Scenarios that time both cluster step modes must keep the
        // parallel path ahead of the sequential reference. The ratio is
        // same-process and same-machine, so it needs no normalization —
        // but it is noisy on loaded runners, so the gate only fires
        // when the advantage is *gone*, not merely reduced.
        if base.speedup_vs_sequential.unwrap_or(0.0) > 1.0 {
            match cur.speedup_vs_sequential {
                Some(speedup) if speedup < 1.0 => failures.push(format!(
                    "{}: parallel stepping lost its advantage (speedup {:.2}x, baseline {:.2}x)",
                    base.scenario,
                    speedup,
                    base.speedup_vs_sequential.unwrap_or(0.0)
                )),
                Some(speedup) => println!(
                    "{:<32} parallel speedup {speedup:.2}x (baseline {:.2}x)",
                    base.scenario,
                    base.speedup_vs_sequential.unwrap_or(0.0)
                ),
                None => failures.push(format!(
                    "{}: baseline gates parallel speedup but the current report omits it",
                    base.scenario
                )),
            }
        }
        if base.goodput_rps() > 0.0
            && cur.goodput_rps() < base.goodput_rps() * (1.0 - goodput_tolerance)
        {
            failures.push(format!(
                "{}: SLO goodput regressed {:.1}% (baseline {:.4} req/s, current {:.4} req/s); \
                 gate allows {:.0}%",
                base.scenario,
                (1.0 - cur.goodput_rps() / base.goodput_rps()) * 100.0,
                base.goodput_rps(),
                cur.goodput_rps(),
                goodput_tolerance * 100.0
            ));
        }
        // Tier fetch time is deterministic like simulated latency and
        // gates the same direction: growth means the scenario is
        // spending more simulated time re-materializing KV than the
        // baseline did.
        if base.tier_fetch_time_s() > 0.0
            && cur.tier_fetch_time_s() > base.tier_fetch_time_s() * (1.0 + latency_tolerance)
        {
            failures.push(format!(
                "{}: tier fetch time regressed {:.1}% (baseline {:.2} s, current {:.2} s); \
                 gate allows {:.0}%",
                base.scenario,
                (cur.tier_fetch_time_s() / base.tier_fetch_time_s() - 1.0) * 100.0,
                base.tier_fetch_time_s(),
                cur.tier_fetch_time_s(),
                latency_tolerance * 100.0
            ));
        }
        // Elastic provisioning cost gates growth: an autoscaler that
        // starts renting more replica-hours — or burning more joules
        // per SLO-good token — than the committed baseline has
        // regressed on the numbers the subsystem exists to minimize,
        // even when throughput and goodput hold.
        if base.replica_hours() > 0.0
            && cur.replica_hours() > base.replica_hours() * (1.0 + cost_tolerance)
        {
            failures.push(format!(
                "{}: replica-hours rented grew {:.1}% (baseline {:.4} h, current {:.4} h); \
                 gate allows {:.0}%",
                base.scenario,
                (cur.replica_hours() / base.replica_hours() - 1.0) * 100.0,
                base.replica_hours(),
                cur.replica_hours(),
                cost_tolerance * 100.0
            ));
        }
        if base.energy_per_good_token_j() > 0.0
            && cur.energy_per_good_token_j()
                > base.energy_per_good_token_j() * (1.0 + cost_tolerance)
        {
            failures.push(format!(
                "{}: energy per SLO-good token grew {:.1}% (baseline {:.3} J, current {:.3} J); \
                 gate allows {:.0}%",
                base.scenario,
                (cur.energy_per_good_token_j() / base.energy_per_good_token_j() - 1.0) * 100.0,
                base.energy_per_good_token_j(),
                cur.energy_per_good_token_j(),
                cost_tolerance * 100.0
            ));
        }
        if base.ttft_p99_ms() > 0.0
            && cur.ttft_p99_ms() > base.ttft_p99_ms() * (1.0 + latency_tolerance)
        {
            failures.push(format!(
                "{}: simulated p99 TTFT regressed {:.1}% (baseline {:.0} ms, current {:.0} ms); \
                 gate allows {:.0}%",
                base.scenario,
                (cur.ttft_p99_ms() / base.ttft_p99_ms() - 1.0) * 100.0,
                base.ttft_p99_ms(),
                cur.ttft_p99_ms(),
                latency_tolerance * 100.0
            ));
        }
        let ratio = ratio_of(base, cur) / machine_factor;
        let regressed = ratio < 1.0 - tolerance;
        println!(
            "{:<32} {:>12.0} {:>12.0} {:>8.3}  {}",
            base.scenario,
            base.tokens_per_sec,
            cur.tokens_per_sec,
            ratio,
            if regressed { "REGRESSED" } else { "ok" }
        );
        if regressed {
            failures.push(format!(
                "{}: tokens_per_sec fell {:.1}% (baseline {:.0}, current {:.0}, wall {:.2} ms{}); \
                 gate allows {:.0}%",
                base.scenario,
                (1.0 - ratio) * 100.0,
                base.tokens_per_sec,
                cur.tokens_per_sec,
                cur.wall_ms,
                if normalize {
                    format!(", machine factor {machine_factor:.3}")
                } else {
                    String::new()
                },
                tolerance * 100.0
            ));
        }
    }
    for cur in &current.scenarios {
        if !baseline
            .scenarios
            .iter()
            .any(|b| b.scenario == cur.scenario)
        {
            println!(
                "{:<32} {:>12} {:>12.0} {:>8}  new (not gated)",
                cur.scenario, "-", cur.tokens_per_sec, "-"
            );
        }
    }

    if failures.is_empty() {
        println!(
            "\nperf gate passed: {} scenarios within {:.0}% of baseline",
            baseline.scenarios.len(),
            tolerance * 100.0
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("\nperf gate FAILED:");
        for failure in &failures {
            eprintln!("  - {failure}");
        }
        ExitCode::FAILURE
    }
}
