//! The PAPI simulator benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size tiny]
//! ```
//!
//! With `--trace 0` it re-runs itself pinned to one CPU, sets the
//! workload up several times (reporting the median set-up time), runs
//! each of the run's seeded days once (checking and pooling their
//! simulated outputs), then repeats days for `--seconds` seconds and
//! reports the median host time per simulated request. Host times are
//! scaled to a reference machine speed (see `stats::ReferenceClock`).
//! With `--trace 1` it runs the traced pass instead (see `layers.rs`) and
//! reports the per-layer metrics. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

// Fixtures and outcomes are built a handful of times per run; boxing
// their large variants would buy nothing.
#![allow(clippy::large_enum_variant)]

mod layers;
mod stats;
mod workloads;

use papi_core::experiments::EndToEndRow;
use stats::{geomean, median, percentile, result_line, Metrics, ReferenceClock};
use std::time::Instant;
use workloads::{
    check, fig8_papi_cells, fingerprint, static_batch_ttft_s, Checked, Fig8Fixture, Fixture,
    Outcome, Size, WorkloadKind, PAPER_ENERGY_EFF, PAPER_SPEEDUP, PAPER_SPEEDUP_OVER,
};

#[derive(Debug)]
pub struct Args {
    pub workload: WorkloadKind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Run day 0 once and print `<fingerprint> <wall seconds>` (the
    /// traced pass re-runs itself this way pinned to one CPU).
    pub single_episode: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut single_episode = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(WorkloadKind::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    other => return Err(format!("--size takes full or tiny, not {other:?}")),
                }
            }
            "--single-episode" => single_episode = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(15.0),
        trace: trace.unwrap_or(false),
        size,
        single_episode,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(2);
        }
    };
    if args.single_episode {
        let fixture = Fixture::setup(args.workload, args.seed, args.size);
        let start = Instant::now();
        let outcome = fixture.run(0);
        let wall = start.elapsed().as_secs_f64();
        println!("{} {wall}", fingerprint(&outcome));
        return;
    }
    // The end-to-end pass measures on one CPU: the vendored rayon then
    // runs inline, so host time is the simulator's own cost whatever the
    // core count, and no other CPU's stalls reach it. The traced pass
    // reports thread scaling apart.
    if !args.trace && cpus() > 1 {
        let status = layers::pinned_to_one_cpu(std::env::args().skip(1))
            .status()
            .unwrap_or_else(|e| {
                eprintln!("perfbench: cannot run pinned to one CPU: {e}");
                std::process::exit(2);
            });
        std::process::exit(status.code().unwrap_or(2));
    }
    eprintln!(
        "perfbench: {} seed {} ({:?}, {} s, trace {}) on {} CPUs",
        args.workload.name(),
        args.seed,
        args.size,
        args.seconds,
        u8::from(args.trace),
        cpus()
    );
    let (checked, metrics) = if args.trace {
        layers::traced_run(&args)
    } else {
        untraced_run(&args)
    };
    println!("{}", args.workload.name());
    print!("{}", metrics.table());
    for problem in &checked.problems {
        println!("  check failed: {problem}");
    }
    println!(
        "{}",
        result_line(
            checked.failed == 0,
            checked.attempted,
            checked.failed,
            &metrics
        )
    );
}

/// Sets the workload up repeatedly (at least five times, at most 25)
/// until `budget_s` of wall time is spent, recording each set-up time on
/// `clock`; returns the last fixture.
fn timed_setups(
    kind: WorkloadKind,
    seed: u64,
    size: Size,
    budget_s: f64,
    clock: &mut ReferenceClock,
) -> Fixture {
    let start = Instant::now();
    let mut reps = 0;
    loop {
        let t = Instant::now();
        let fixture = Fixture::setup(kind, seed, size);
        clock.record(t.elapsed().as_secs_f64());
        reps += 1;
        if reps >= 25 || (reps >= 5 && start.elapsed().as_secs_f64() >= budget_s) {
            return fixture;
        }
    }
}

/// The end-to-end pass: tracing off. Cycles through the run's days
/// until every day ran once and `seconds` have passed; the first run of
/// each day is checked and summarized, repeats must reproduce it. Host
/// times are reported at reference machine speed (see `ReferenceClock`).
fn untraced_run(args: &Args) -> (Checked, Metrics) {
    let mut setup_clock = ReferenceClock::new();
    let fixture = timed_setups(
        args.workload,
        args.seed,
        args.size,
        args.seconds * 0.1,
        &mut setup_clock,
    );
    let (setups, _) = setup_clock.finish();
    let days = fixture.days();
    let mut checked = Checked::default();
    let mut outcomes = Vec::new();
    let mut fingerprints = Vec::new();
    let mut wall_us_per_request = Vec::new();
    let mut clock = ReferenceClock::new();
    let start = Instant::now();
    let mut episode = 0;
    while episode < days.max(3) || start.elapsed().as_secs_f64() < args.seconds {
        let day = episode % days;
        let t = Instant::now();
        let outcome = fixture.run(day);
        let us = t.elapsed().as_secs_f64() / fixture.requests(day) as f64 * 1e6;
        wall_us_per_request.push(us);
        clock.record(us);
        let digest = fingerprint(&outcome);
        if episode < days {
            checked.merge(check(&fixture, day, &outcome));
            fingerprints.push(digest);
            outcomes.push(outcome);
        } else if digest != fingerprints[day] {
            checked.fail(
                fixture.requests(day),
                format!("a repeat of day {day} simulated different outputs"),
            );
        }
        episode += 1;
    }
    let (us_per_request, probes) = clock.finish();
    eprintln!(
        "perfbench: {episode} episodes over {days} days: {:.3} us/request wall, {:.3} at \
         reference speed (probe median {:.4} s over {} probes)",
        median(&wall_us_per_request),
        median(&us_per_request),
        median(&probes),
        probes.len()
    );

    let mut m = Metrics::default();
    m.lower("host_us_per_request", median(&us_per_request), "us");
    m.lower("setup_s", median(&setups), "s");
    m.lower("peak_rss_mb", peak_rss_mib(), "MiB");
    m.higher(
        "request_success_ratio",
        (checked.attempted - checked.failed.min(checked.attempted)) as f64
            / checked.attempted as f64,
        "ratio",
    );
    simulated_metrics(&fixture, &outcomes, args.size, &mut m);
    (checked, m)
}

/// The simulated-system metrics of a run, pooled over its days
/// (deterministic for a seed: a change that only speeds the simulator
/// up leaves them bit-identical).
pub fn simulated_metrics(fixture: &Fixture, outcomes: &[Outcome], size: Size, m: &mut Metrics) {
    let mut ttft = Vec::new();
    let mut tpot = Vec::new();
    // Pooled totals: simulated seconds, requests meeting the SLO, output
    // tokens, joules, and provisioned replica-hours.
    let (mut secs, mut good, mut tokens, mut joules, mut hours) = (0.0, 0u64, 0u64, 0.0, 0.0);
    for (day, outcome) in outcomes.iter().enumerate() {
        match (fixture, outcome) {
            (Fixture::Serving(f), Outcome::Serving(report)) => {
                for r in report.records() {
                    ttft.push(r.ttft().as_millis());
                    tpot.push(r.tpot().as_millis());
                    good += u64::from(r.meets(&f.slo));
                }
                secs += report.makespan().as_secs();
                tokens += report.tokens();
                joules += report.energy().as_joules();
                hours += report.fleet_cost.as_ref().map_or_else(
                    || report.replicas.len() as f64 * report.makespan().as_secs() / 3600.0,
                    |cost| cost.provisioned_hours,
                );
            }
            (Fixture::Fig8(f), Outcome::Fig8(out)) => {
                // A static batch has no arrivals and no SLO: TTFT is its
                // prefill plus first iteration, TPOT its decode time per
                // request token, and every request counts as good.
                for (report, cell, config) in fig8_papi_cells(f, day, out) {
                    let latency = report.total_latency().as_secs();
                    ttft.push(static_batch_ttft_s(config, &cell.trace) * 1e3);
                    tpot.push(latency * report.requests as f64 / report.tokens as f64 * 1e3);
                    secs += latency;
                    good += report.requests;
                    tokens += report.tokens;
                    joules += report.total_energy().as_joules();
                    hours += latency / 3600.0;
                }
            }
            _ => unreachable!("outcome of another workload"),
        }
    }
    m.lower("sim_ttft_p50_ms", percentile(&ttft, 0.50), "ms");
    m.lower("sim_ttft_p99_ms", percentile(&ttft, 0.99), "ms");
    m.lower("sim_tpot_p50_ms", percentile(&tpot, 0.50), "ms");
    m.lower("sim_tpot_p99_ms", percentile(&tpot, 0.99), "ms");
    m.higher("sim_goodput_rps", good as f64 / secs, "req/s");
    m.higher("sim_tokens_per_s", tokens as f64 / secs, "tok/s");
    m.lower("sim_j_per_token", joules / tokens as f64, "J/tok");
    m.lower("sim_replica_hours", hours / outcomes.len() as f64, "h");

    // The paper check: the canonical Fig. 8 grid, every simulated ratio
    // printed beside the paper's.
    let check = Fig8Fixture::paper_check(size);
    let rows = check.run(0).rows;
    print_fig8(&rows);
    let (speedup, energy_eff) = paper_geomeans(&rows);
    println!(
        "paper check: geomean PAPI over A100+AttAcc speedup {speedup:.4} (paper {PAPER_SPEEDUP}), \
         energy efficiency {energy_eff:.4} (paper {PAPER_ENERGY_EFF})"
    );
    m.lower(
        "paper_speedup_error",
        (speedup - PAPER_SPEEDUP).abs() / PAPER_SPEEDUP,
        "ratio",
    );
    m.lower(
        "paper_energy_eff_error",
        (energy_eff - PAPER_ENERGY_EFF).abs() / PAPER_ENERGY_EFF,
        "ratio",
    );
}

/// Geomean PAPI speed-up and energy efficiency over A100+AttAcc.
fn paper_geomeans(rows: &[EndToEndRow]) -> (f64, f64) {
    let papi: Vec<_> = rows.iter().filter(|r| r.design == "PAPI").collect();
    (
        geomean(&papi.iter().map(|r| r.speedup).collect::<Vec<_>>()),
        geomean(&papi.iter().map(|r| r.energy_efficiency).collect::<Vec<_>>()),
    )
}

/// Prints every simulated Fig. 8 ratio beside the paper's reference
/// (the paper reports per-design geomeans, so each cell's reference is
/// its design's geomean).
fn print_fig8(rows: &[EndToEndRow]) {
    let reference = |design: &str| {
        PAPER_SPEEDUP_OVER
            .iter()
            .find(|(d, _)| d.label() == design)
            .map(|&(_, s)| s)
    };
    println!("paper check, Fig. 8 cells: PAPI over each design (simulated vs paper geomean)");
    let cells: Vec<_> = rows.chunks(papi_core::DesignKind::FIG8.len()).collect();
    for cell in &cells {
        let papi = cell.iter().find(|r| r.design == "PAPI").expect("PAPI row");
        for row in cell.iter().filter(|r| r.design != "PAPI") {
            let speedup = papi.latency_s.recip() / row.latency_s.recip();
            let energy = row.energy_j / papi.energy_j;
            let ref_energy = if row.design == "A100+AttAcc" {
                format!("{PAPER_ENERGY_EFF}")
            } else {
                "-".to_owned()
            };
            println!(
                "  {} spec {} batch {:>2} vs {:<12} speedup {:>7.3} (paper {}) energy eff {:>7.3} (paper {})",
                papi.model,
                papi.speculation,
                papi.batch,
                row.design,
                speedup,
                reference(&row.design).map_or("-".to_owned(), |s| format!("{s}")),
                energy,
                ref_energy
            );
        }
    }
}

/// CPUs this process may run on.
fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
