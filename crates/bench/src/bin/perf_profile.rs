//! Phase-level profiler for the fleet simulator.
//!
//! Runs the `cluster_fleet_64` perf scenario (64 prefix-affinity
//! replicas, bursty multi-turn chat) with the `papi-perf` timers
//! enabled and prints the per-phase breakdown — where a fleet episode
//! actually spends wall time (`step`, `price`, `snapshot`, `route`,
//! `migrate`). Optionally persists the profile for CI artifacts and
//! gates against a saved baseline:
//!
//! ```text
//! cargo run --release -p papi-bench --bin perf_profile -- \
//!     --json profile.json --folded profile.folded \
//!     [--baseline old-profile.json] [--threshold 0.5]
//! ```
//!
//! `--folded` writes `outer;inner <self µs>` lines for flamegraph
//! tooling (`inferno`, `flamegraph.pl`). With `--baseline`, exits
//! non-zero if any phase's total grew past `1 + threshold` times the
//! baseline (default threshold 0.5 — phase walls on a shared CI runner
//! are noisy, so the gate is loose; the artifact trend is the signal).

use papi_core::{ClusterEngine, ClusterSpec, DesignKind, SessionTuning, StepMode};
use papi_llm::ModelPreset;
use papi_perf::Profile;
use papi_workload::{
    ArrivalProcess, ConversationDataset, DatasetKind, PolicySpec, ServingWorkload,
};
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: perf_profile [--json FILE] [--folded FILE] [--baseline FILE] [--threshold F]"
    );
    std::process::exit(2);
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut folded_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut threshold = 0.5f64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--json" => json_path = Some(value()),
            "--folded" => folded_path = Some(value()),
            "--baseline" => baseline_path = Some(value()),
            "--threshold" => {
                threshold = value().parse().unwrap_or_else(|e| {
                    eprintln!("invalid --threshold: {e}");
                    std::process::exit(2);
                })
            }
            _ => usage(),
        }
    }

    // The same shape perf_bench's cluster_fleet_64 scenario times.
    let workload = ServingWorkload::new(
        ConversationDataset::multi_turn(DatasetKind::GeneralQa, 512, 4),
        ArrivalProcess::Bursty {
            burst_size: 8,
            interval_sec: 1.0,
        },
        2048,
    )
    .with_seed(42);
    let spec = ClusterSpec::new(
        DesignKind::PimOnlyPapi,
        ModelPreset::Llama65B.config(),
        1,
        64,
    )
    .with_routing(PolicySpec::prefix_affinity())
    .with_tuning(
        SessionTuning::default()
            .with_max_batch(8)
            .with_kv_block_size(16)
            .with_prefix_sharing(true),
    )
    .with_step_mode(StepMode::Parallel);

    // Warm (JIT-free in Rust, but it pages in the binary and warms the
    // allocator), then profile one clean episode.
    let engine = ClusterEngine::new(spec).expect("valid fleet");
    engine.run(&workload);
    papi_perf::enable();
    papi_perf::reset();
    let wall = Instant::now();
    let report = engine.run(&workload);
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    papi_perf::disable();
    let profile = papi_perf::report();

    let iterations: u64 = report.replicas.iter().map(|r| r.iterations).sum();
    eprintln!(
        "cluster_fleet_64: {wall_ms:.1} ms wall, {iterations} replica iterations, \
         {:.1} ms instrumented",
        profile.total_s() * 1e3
    );
    print!("{}", profile.table());

    if let Some(path) = &json_path {
        std::fs::write(path, profile.to_json()).expect("write profile JSON");
        eprintln!("profile JSON -> {path}");
    }
    if let Some(path) = &folded_path {
        std::fs::write(path, profile.folded_stacks()).expect("write folded stacks");
        eprintln!("folded stacks -> {path}");
    }
    if let Some(path) = &baseline_path {
        let text = std::fs::read_to_string(path).expect("read baseline profile");
        let baseline = Profile::from_json(&text).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        });
        let diff = profile.compare(&baseline, threshold);
        print!("{}", diff.table());
        if !diff.passed() {
            eprintln!(
                "phase regression(s) past {:.0}% over baseline",
                threshold * 100.0
            );
            std::process::exit(1);
        }
        eprintln!("profile within {:.0}% of baseline", threshold * 100.0);
    }
}
