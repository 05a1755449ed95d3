//! The traced pass: per-layer metrics, measured from outside the program.
//!
//! Every layer is timed by calling its public functions: decorators
//! around the `RoutePolicy`, `MigrationPolicy` and `AutoscalePolicy`
//! seams, a timer around each `ServingSession::step`, and bulk replays
//! of the device models and the iteration pricer on the shapes the
//! workload prices. The only in-program timers read are the existing
//! `papi-perf` phases. Every traced, decorated and one-CPU episode must
//! simulate exactly what the untraced episode did; any difference fails
//! the run.
//!
//! Each pass uses the run's first day. Metrics of a layer a workload
//! does not exercise read 0 (with a call count of 0).

use crate::stats::{median, percentile, Metrics};
use crate::workloads::{
    check, day_seed, drive_session, fig8_papi_cells, fingerprint, single_replica_report, Checked,
    Engine, Fig8Fixture, Fixture, Outcome, ServingFixture, Size, StepView,
};
use crate::Args;
use papi_core::experiments::end_to_end_cell;
use papi_core::pricer::SharedIterationCache;
use papi_core::{
    AutoscalePolicy, AutoscaleView, ClusterEngine, ClusterReport, DesignKind, IterationPricer,
    PromptStats, ScaleAction, ServingEngine, SystemConfig,
};
use papi_gpu::KernelProfile;
use papi_llm::{FcKernel, FcKernelKind, ModelPreset, Parallelism};
use papi_pim::{AttentionSpec, GemvSpec};
use papi_workload::{
    DatasetKind, IterationRecord, MigrationContext, MigrationPolicy, RouteContext, RoutePolicy,
    Router,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Times every call into a route policy.
#[derive(Debug)]
struct TimedRoute<'a> {
    inner: &'a mut dyn RoutePolicy,
    ns: Vec<f64>,
}

impl RoutePolicy for TimedRoute<'_> {
    fn route(&mut self, ctx: &RouteContext<'_>) -> usize {
        let start = Instant::now();
        let pick = self.inner.route(ctx);
        self.ns.push(start.elapsed().as_nanos() as f64);
        pick
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// Times every call into a migration policy.
#[derive(Debug)]
struct TimedMigrate<'a> {
    inner: &'a mut dyn MigrationPolicy,
    ns: Vec<f64>,
}

impl MigrationPolicy for TimedMigrate<'_> {
    fn place(&mut self, ctx: &MigrationContext<'_>) -> usize {
        let start = Instant::now();
        let pick = self.inner.place(ctx);
        self.ns.push(start.elapsed().as_nanos() as f64);
        pick
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// Times every call into an autoscale policy.
#[derive(Debug)]
struct TimedAutoscale {
    inner: Box<dyn AutoscalePolicy>,
    ns: Vec<f64>,
}

impl AutoscalePolicy for TimedAutoscale {
    fn decide(&mut self, view: &AutoscaleView<'_>) -> Vec<ScaleAction> {
        let start = Instant::now();
        let actions = self.inner.decide(view);
        self.ns.push(start.elapsed().as_nanos() as f64);
        actions
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// Calls `f` over `items` in passes until at least `budget_s` has
/// passed (one pass at least); returns ns per call.
fn bulk_ns<T>(items: &[T], budget_s: f64, mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        for item in items {
            f(item);
        }
        calls += items.len() as u64;
        if start.elapsed().as_secs_f64() >= budget_s {
            return start.elapsed().as_nanos() as f64 / calls as f64;
        }
    }
}

/// p50, p99 and count of a sample, under `<name>_p50`, `_p99`, `_calls`.
fn distribution(m: &mut Metrics, name: &str, unit: &'static str, samples: &[f64]) {
    m.lower(format!("{name}_p50"), median(samples), unit);
    m.lower(format!("{name}_p99"), percentile(samples, 0.99), unit);
    m.higher(format!("{name}_calls"), samples.len() as f64, "count");
}

/// One iteration shape a workload prices, on the config that prices it.
struct Shape<'a> {
    config: &'a SystemConfig,
    it: IterationRecord,
}

/// Collects fingerprint mismatches as failed requests of day 0.
struct Identity {
    expected: u64,
    requests: u64,
    checked: Checked,
}

impl Identity {
    fn assert_same(&mut self, what: &str, digest: u64) {
        if digest != self.expected {
            self.checked.fail(
                self.requests,
                format!("the {what} episode simulated different outputs"),
            );
        }
    }
}

pub fn traced_run(spec: &Args) -> (Checked, Metrics) {
    let budget = spec.seconds / 40.0;
    let mut m = Metrics::default();

    // sched: the offline α calibration, repeated.
    let llama = ModelPreset::Llama65B.config();
    let mut calibrations = Vec::new();
    let start = Instant::now();
    while calibrations.len() < 5 || start.elapsed().as_secs_f64() < budget {
        let t = Instant::now();
        black_box(SystemConfig::calibrate(black_box(&llama)));
        calibrations.push(t.elapsed().as_secs_f64());
    }

    let fixture = Fixture::setup(spec.workload, spec.seed, spec.size);
    let t = Instant::now();
    let plain = fixture.run(0);
    let untraced_s = t.elapsed().as_secs_f64();
    let mut id = Identity {
        expected: fingerprint(&plain),
        requests: fixture.requests(0),
        checked: check(&fixture, 0, &plain),
    };

    // The existing papi-perf phases.
    papi_perf::reset();
    papi_perf::enable();
    let t = Instant::now();
    let traced = fixture.run(0);
    let traced_s = t.elapsed().as_secs_f64();
    papi_perf::disable();
    let profile = papi_perf::report();
    papi_perf::reset();
    id.assert_same("phase-traced", fingerprint(&traced));
    drop(traced);

    // Thread scaling: the same episode in a child pinned to one CPU.
    let thread_speedup = match single_cpu_episode(spec) {
        Ok((digest, wall)) => {
            id.assert_same("one-CPU", digest);
            wall / untraced_s
        }
        Err(problem) => {
            id.checked.fail(id.requests, problem);
            0.0
        }
    };

    m.lower("sched.calibrate_s", median(&calibrations), "s");
    match &fixture {
        Fixture::Serving(f) => {
            let Outcome::Serving(report) = &plain else {
                unreachable!("serving fixture")
            };
            serving_layers(f, report, untraced_s, budget, &mut id, &mut m);
        }
        Fixture::Fig8(f) => {
            let Outcome::Fig8(out) = &plain else {
                unreachable!("Fig. 8 fixture")
            };
            fig8_layers(spec, f, out, budget, &mut id, &mut m);
        }
    }
    m.higher("cluster.thread_speedup", thread_speedup, "ratio");
    m.lower("trace.overhead_ratio", traced_s / untraced_s, "ratio");
    let self_total: f64 = profile.phases.iter().map(|p| p.self_s).sum();
    for phase in ["step", "price", "snapshot", "route", "migrate"] {
        let stats = profile.phase(phase);
        m.lower(
            format!("trace.{phase}_share"),
            stats.map_or(0.0, |p| p.self_s / self_total.max(f64::MIN_POSITIVE)),
            "ratio",
        );
        m.higher(
            format!("trace.{phase}_calls"),
            stats.map_or(0.0, |p| p.count as f64),
            "count",
        );
    }
    (id.checked, m)
}

/// This executable with `args`, run through `taskset` on the last CPU
/// this process may use. The vendored rayon sizes its fan-out from
/// `available_parallelism`, so the pin is the only outside control.
pub fn pinned_to_one_cpu(args: impl IntoIterator<Item = String>) -> std::process::Command {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut cmd = std::process::Command::new("taskset");
    cmd.arg("-c").arg(last_allowed_cpu()).arg(exe).args(args);
    cmd
}

/// Runs day 0 in a child process pinned to one CPU; returns its
/// fingerprint and wall time.
fn single_cpu_episode(spec: &Args) -> Result<(u64, f64), String> {
    let mut args = vec![
        "--single-episode".to_owned(),
        "--workload".to_owned(),
        spec.workload.name().to_owned(),
        "--seed".to_owned(),
        spec.seed.to_string(),
    ];
    if spec.size == Size::Tiny {
        args.extend(["--size".to_owned(), "tiny".to_owned()]);
    }
    let out = pinned_to_one_cpu(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("could not run the one-CPU episode: {e}"))?;
    if !out.status.success() {
        return Err(format!("the one-CPU episode failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut fields = text.split_whitespace();
    match (
        fields.next().and_then(|f| f.parse::<u64>().ok()),
        fields.next().and_then(|f| f.parse::<f64>().ok()),
    ) {
        (Some(digest), Some(wall)) => Ok((digest, wall)),
        _ => Err(format!("unreadable one-CPU episode output {text:?}")),
    }
}

/// The last CPU this process may run on (`Cpus_allowed_list` reads e.g.
/// `0-1` or `2,5-7`): the first CPU usually takes most interrupts. CPU 0
/// when the list is unreadable.
fn last_allowed_cpu() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let list = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
            let last = list.trim().rsplit([',', '-']).next()?;
            last.parse::<usize>().ok().map(|cpu| cpu.to_string())
        })
        .unwrap_or_else(|| "0".to_owned())
}

fn serving_layers(
    f: &ServingFixture,
    report: &ClusterReport,
    untraced_s: f64,
    budget: f64,
    id: &mut Identity,
    m: &mut Metrics,
) {
    let day = &f.days[0];
    // Routing, migration and autoscaling, through decorators.
    let (mut route_ns, mut migrate_ns, mut decide_ns) = (Vec::new(), Vec::new(), Vec::new());
    if let Engine::Fleet(engine) = &f.engine {
        let mut router = Router::new(engine.spec().routing);
        let mut migration = engine.spec().migration.build();
        let mut route = TimedRoute {
            inner: &mut router,
            ns: Vec::new(),
        };
        let mut migrate = TimedMigrate {
            inner: migration.as_mut(),
            ns: Vec::new(),
        };
        let decorated = engine.run_with_policies(&day.workload, &mut route, &mut migrate);
        id.assert_same(
            "route/migrate-decorated",
            fingerprint(&Outcome::Serving(decorated)),
        );
        route_ns = route.ns;
        migrate_ns = migrate.ns;
        if let Some(autoscale) = &engine.spec().autoscale {
            let mut timed = TimedAutoscale {
                inner: autoscale.policy.build(),
                ns: Vec::new(),
            };
            let elastic = engine.run_elastic(&day.workload, &mut timed);
            id.assert_same(
                "autoscale-decorated",
                fingerprint(&Outcome::Serving(elastic)),
            );
            decide_ns = timed.ns;
        }
    }
    distribution(m, "routing.route_ns", "ns", &route_ns);
    distribution(m, "routing.migrate_ns", "ns", &migrate_ns);
    distribution(m, "autoscale.decide_ns", "ns", &decide_ns);
    m.higher(
        "autoscale.scale_events",
        report
            .fleet_cost
            .as_ref()
            .map_or(0.0, |c| c.scale_events.len() as f64),
        "count",
    );

    // The fleet loop's cost per unit of work.
    let iterations: u64 = report.replicas.iter().map(|r| r.iterations).sum();
    let (events, loop_ns) = match &f.engine {
        Engine::Fleet(engine) => (fleet_events(engine, report), untraced_s * 1e9),
        Engine::Replica(_) => (0, 0.0),
    };
    m.lower(
        "cluster.ns_per_replica_iteration",
        loop_ns / iterations.max(1) as f64,
        "ns",
    );
    m.lower("cluster.ns_per_event", loop_ns / events.max(1) as f64, "ns");

    // Session steps. The replica workload times its own session; a fleet
    // replays its first decode-capable replica's traffic (the requests
    // it finished) through a standalone session of that replica's
    // design and tuning.
    let (engine, requests) = match &f.engine {
        Engine::Replica(engine) => (engine.clone(), day.requests.clone()),
        Engine::Fleet(engine) => {
            let (idx, replica) = report
                .replicas
                .iter()
                .enumerate()
                .find(|(_, r)| !r.records.is_empty())
                .expect("some replica finished requests");
            let ids: std::collections::HashSet<u64> =
                replica.records.iter().map(|r| r.id).collect();
            let config = engine
                .replica_configs()
                .nth(idx)
                .expect("replica index in range")
                .clone();
            (
                ServingEngine::new(config).with_tuning(engine.spec().tuning.clone()),
                day.requests
                    .iter()
                    .filter(|r| ids.contains(&r.request.id))
                    .cloned()
                    .collect(),
            )
        }
    };
    let arrivals: Vec<f64> = requests.iter().map(|r| r.arrival_s).collect();
    let tlp = day.workload.speculation.tlp();
    let (mut admit_ns, mut decode_ns, mut shapes) = (Vec::new(), Vec::new(), Vec::new());
    let mut on_step = |before: StepView, ns: u64| {
        // An admit step starts with an arrived request not yet admitted
        // (or an empty batch); the rest are decode steps.
        let arrived = arrivals.partition_point(|&a| a <= before.clock);
        if before.live == 0 || arrived > before.live + before.finished {
            admit_ns.push(ns as f64);
        } else {
            decode_ns.push(ns as f64);
        }
        if before.live > 0 {
            shapes.push(IterationRecord {
                rlp: before.live as u64,
                tlp,
                total_kv_len: before.kv_tokens,
                max_kv_len: before.kv_tokens,
                new_tokens: before.live as u64,
                finished: 0,
            });
        }
    };
    let replayed = drive_session(&engine, &day.workload, &requests, Some(&mut on_step));
    if let Engine::Replica(_) = f.engine {
        id.assert_same(
            "step-timed",
            fingerprint(&Outcome::Serving(single_replica_report(replayed))),
        );
    }
    distribution(m, "serving.step_decode_ns", "ns", &decode_ns);
    distribution(m, "serving.step_admit_ns", "ns", &admit_ns);
    let rlp: Vec<f64> = report
        .replicas
        .iter()
        .flat_map(|r| r.rlp_series.iter().map(|&x| x as f64))
        .collect();
    m.higher(
        "serving.rlp_mean",
        rlp.iter().sum::<f64>() / rlp.len().max(1) as f64,
        "requests",
    );

    // Device models and the pricer, on the replayed shapes.
    let shapes: Vec<Shape> = thin(&shapes, 20_000)
        .into_iter()
        .map(|it| Shape {
            config: engine.config(),
            it,
        })
        .collect();
    // Prefill is priced on the GPU design that runs it: the prefill pool
    // of a disaggregated fleet, else the replica's own design.
    let prefill_config = match &f.engine {
        Engine::Fleet(engine) => engine.replica_configs().find(|c| c.gpus.is_some()).cloned(),
        Engine::Replica(engine) => engine
            .config()
            .gpus
            .is_some()
            .then(|| engine.config().clone()),
    };
    let prefills: Vec<(&SystemConfig, PromptStats)> = match &prefill_config {
        Some(config) => thin(&day.requests, 20_000)
            .into_iter()
            .map(|r| {
                let mut stats = PromptStats::default();
                stats.add_prompt(r.request.input_len);
                (config, stats)
            })
            .collect(),
        None => Vec::new(),
    };
    device_and_pricer(&shapes, &prefills, budget, id, m);
    kv_sched_sim(report, m);
}

/// Arrivals, migration deliveries, decide ticks and gossip ticks of a
/// fleet episode. Gossip ticks are counted as the sync intervals the
/// episode spans.
fn fleet_events(engine: &ClusterEngine, report: &ClusterReport) -> u64 {
    let end = report
        .records()
        .map(|r| r.finished.value())
        .fold(0.0, f64::max);
    let gossip = engine
        .spec()
        .shared_tier
        .as_ref()
        .map_or(0, |t| (end / t.sync_s) as u64);
    report.requests()
        + report.migration.migrations
        + report.fleet_cost.as_ref().map_or(0, |c| c.decisions)
        + gossip
}

/// At most `limit` items, evenly spaced, in order.
fn thin<T: Clone>(items: &[T], limit: usize) -> Vec<T> {
    let step = items.len().div_ceil(limit).max(1);
    items.iter().step_by(step).cloned().collect()
}

fn device_and_pricer(
    shapes: &[Shape],
    prefills: &[(&SystemConfig, PromptStats)],
    budget: f64,
    id: &mut Identity,
    m: &mut Metrics,
) {
    // dram: the streaming micro-simulation every PIM device build runs.
    let hbm = papi_dram::HbmDevice::hbm3_16gb();
    let banks = hbm.topology.banks_per_pseudo_channel();
    let derive_ns = bulk_ns(&[()], budget, |_| {
        black_box(papi_dram::derive::pim_streaming_bandwidth(
            black_box(&hbm),
            banks,
            32,
        ));
    });
    m.lower("dram.derive_us", derive_ns / 1e3, "us");

    // pim: attention on the Attn-PIM pool, FC GEMVs on the FC-PIM pool.
    let attention: Vec<_> = shapes
        .iter()
        .map(|s| {
            let model = &s.config.model;
            let spec = AttentionSpec::new(
                s.it.rlp,
                model.heads,
                model.head_dim(),
                s.it.total_kv_len.div_ceil(s.it.rlp).max(1),
                s.it.tlp,
                model.dtype,
            );
            (&s.config.attn_pim, spec)
        })
        .collect();
    m.lower(
        "pim.attention_ns",
        bulk_ns(&attention, budget, |((device, count), spec)| {
            black_box(papi_pim::attention::execute_attention(device, *count, spec));
        }),
        "ns",
    );
    let gemvs: Vec<_> = shapes
        .iter()
        .filter_map(|s| {
            let model = &s.config.model;
            let pool = s.config.fc_pim.as_ref()?;
            let tokens = s.it.tokens_in_flight();
            Some(FcKernel::layer_kernels(model).into_iter().map(move |k| {
                (
                    pool,
                    GemvSpec::new(k.out_features, k.in_features, tokens, model.dtype),
                )
            }))
        })
        .flatten()
        .collect();
    m.lower(
        "pim.gemv_ns",
        bulk_ns(&gemvs, budget, |((device, count), spec)| {
            black_box(papi_pim::gemv::execute_gemv(device, *count, spec));
        }),
        "ns",
    );

    // gpu: FC kernels as the pricer builds them, and prefill.
    let fc: Vec<_> = shapes
        .iter()
        .filter_map(|s| {
            let model = &s.config.model;
            let gpus = s.config.gpus.as_ref()?;
            let tokens = s.it.tokens_in_flight();
            let p = Parallelism::new(tokens, 1);
            Some(FcKernel::layer_kernels(model).into_iter().map(move |k| {
                let mut profile = KernelProfile::new(k.flops(p), k.bytes(model, p));
                if matches!(k.kind, FcKernelKind::Projection | FcKernelKind::FfnDown) {
                    profile =
                        profile.with_allreduce((tokens * model.hidden) as f64 * model.dtype.size());
                }
                (gpus, &s.config.gpu_energy, profile)
            }))
        })
        .flatten()
        .collect();
    m.lower(
        "gpu.fc_ns",
        bulk_ns(&fc, budget, |(gpus, energy, profile)| {
            black_box(papi_gpu::execute_kernel(gpus, energy, profile));
        }),
        "ns",
    );
    m.lower(
        "gpu.prefill_ns",
        bulk_ns(prefills, budget, |(config, stats)| {
            black_box(papi_core::prefill_cost_for(config, *stats));
        }),
        "ns",
    );

    // pricer: cold (each session's own pricer) and through a fresh
    // fleet-shared memo; both must price every shape identically.
    let placements: Vec<_> = shapes
        .iter()
        .map(|s| {
            let mut scheduler = s.config.scheduler.build();
            scheduler.decide(s.it.rlp, s.it.tlp)
        })
        .collect();
    // One pricer per config, as each session has; with `memo`, each
    // config also gets its own fresh fleet-shared cache, as the cluster
    // engine installs one per distinct design.
    let price_all = |memo: bool| {
        let mut pricers: Vec<(&SystemConfig, IterationPricer, Arc<SharedIterationCache>)> =
            Vec::new();
        let which: Vec<usize> = shapes
            .iter()
            .map(|s| {
                pricers
                    .iter()
                    .position(|(c, ..)| std::ptr::eq(*c, s.config))
                    .unwrap_or_else(|| {
                        let mut pricer = IterationPricer::new(s.config);
                        let cache = Arc::new(SharedIterationCache::new());
                        if memo {
                            pricer.set_shared_cache(Arc::clone(&cache));
                        }
                        pricers.push((s.config, pricer, cache));
                        pricers.len() - 1
                    })
            })
            .collect();
        let start = Instant::now();
        let costs: Vec<_> = shapes
            .iter()
            .zip(&placements)
            .zip(&which)
            .map(|((s, &placement), &idx)| pricers[idx].1.price_iteration(placement, &s.it))
            .collect();
        let elapsed = start.elapsed().as_nanos() as f64;
        let distinct: usize = pricers.iter().map(|(_, _, cache)| cache.len()).sum();
        (elapsed, costs, distinct)
    };
    let mut cold = Vec::new();
    let mut memo = Vec::new();
    let mut hit_ratio = 0.0;
    let calls = shapes.len().max(1) as f64;
    let start = Instant::now();
    while !shapes.is_empty() && (cold.is_empty() || start.elapsed().as_secs_f64() < 2.0 * budget) {
        let (cold_ns, cold_costs, _) = price_all(false);
        let (memo_ns, memo_costs, distinct) = price_all(true);
        if cold_costs != memo_costs {
            id.checked.fail(
                id.requests,
                "memoized pricing differs from cold pricing".to_owned(),
            );
        }
        cold.push(cold_ns / calls);
        memo.push(memo_ns / calls);
        hit_ratio = 1.0 - distinct as f64 / calls;
    }
    m.lower("pricer.cold_ns", median(&cold), "ns");
    m.lower("pricer.memo_ns", median(&memo), "ns");
    m.higher("pricer.memo_hit_ratio", hit_ratio, "ratio");
    m.higher("pricer.calls", shapes.len() as f64, "count");
}

/// The simulated per-layer counts of one fleet (or replica) episode.
fn kv_sched_sim(report: &ClusterReport, m: &mut Metrics) {
    let sum = |f: &dyn Fn(&papi_core::ServingReport) -> u64| -> f64 {
        report.replicas.iter().map(f).sum::<u64>() as f64
    };
    m.higher("kv.hit_ratio", report.cache_hit_rate(), "ratio");
    m.lower("kv.tier_spills", sum(&|r| r.kv.tier_spills), "count");
    m.lower("kv.tier_fetches", sum(&|r| r.kv.tier_fetches), "count");
    m.lower("kv.remote_fetches", sum(&|r| r.kv.remote_fetches), "count");
    m.lower("kv.evictions", sum(&|r| r.kv.prefix_evictions), "count");
    m.lower(
        "kv.peak_pool_share",
        report
            .replicas
            .iter()
            .map(|r| r.kv.peak_blocks_in_use as f64 / r.kv.total_blocks.max(1) as f64)
            .fold(0.0, f64::max),
        "ratio",
    );

    let decisions = sum(&|r| r.scheduler.decisions);
    let iterations = sum(&|r| r.iterations);
    m.higher(
        "sched.fc_pim_share",
        sum(&|r| r.scheduler.fc_pim_decisions) / decisions.max(1.0),
        "ratio",
    );
    m.lower(
        "sched.switches_per_kiter",
        sum(&|r| r.scheduler.switches) / iterations.max(1.0) * 1e3,
        "count",
    );

    let queue = report.queueing_summary().map_or(0.0, |q| q.p99.as_millis());
    let prefill: f64 = report
        .replicas
        .iter()
        .map(|r| r.prefill_time.as_secs())
        .sum();
    let fc: f64 = report.replicas.iter().map(|r| r.phases.fc.as_secs()).sum();
    let attn: f64 = report
        .replicas
        .iter()
        .map(|r| r.phases.attention.as_secs())
        .sum();
    let comm: f64 = report
        .replicas
        .iter()
        .map(|r| r.phases.communication.as_secs())
        .sum();
    let other: f64 = report
        .replicas
        .iter()
        .map(|r| r.phases.other.as_secs())
        .sum();
    sim_breakdown(m, queue, [prefill, fc, attn, comm, other]);
    m.lower(
        "sim.tier_fetch_s",
        report.replicas.iter().map(|r| r.kv.tier_fetch_time_s).sum(),
        "s",
    );
    m.lower(
        "sim.remote_fetch_s",
        report
            .replicas
            .iter()
            .map(|r| r.kv.remote_fetch_time_s)
            .sum(),
        "s",
    );
    m.lower(
        "sim.migration_p99_ms",
        report.migration.latency.map_or(0.0, |l| l.p99.as_millis()),
        "ms",
    );
    m.lower("engine.cell_ms_p50", 0.0, "ms");
    m.lower("engine.cell_ms_max", 0.0, "ms");
}

/// Shares of simulated busy time: `[prefill, fc, attention, comm, other]`.
fn sim_breakdown(m: &mut Metrics, queue_p99_ms: f64, parts: [f64; 5]) {
    let total: f64 = parts.iter().sum::<f64>().max(f64::MIN_POSITIVE);
    m.lower("sim.queue_p99_ms", queue_p99_ms, "ms");
    m.lower("sim.prefill_share", parts[0] / total, "ratio");
    m.lower("sim.fc_share", parts[1] / total, "ratio");
    m.lower("sim.attn_share", parts[2] / total, "ratio");
    m.lower("sim.comm_share", parts[3] / total, "ratio");
}

fn fig8_layers(
    spec: &Args,
    f: &Fig8Fixture,
    out: &crate::workloads::Fig8Outcome,
    budget: f64,
    id: &mut Identity,
    m: &mut Metrics,
) {
    // The grid must reproduce the library's Fig. 8 cells bit for bit.
    let seed = day_seed(spec.seed, 0);
    let mut library = Vec::new();
    for cell in &f.days[0] {
        library.extend(end_to_end_cell(
            cell.model,
            DatasetKind::CreativeWriting,
            cell.speculation,
            cell.batch,
            &DesignKind::FIG8,
            seed,
        ));
    }
    let digest = |rows: &Vec<papi_core::experiments::EndToEndRow>| {
        crate::workloads::fnv1a(
            serde_json::to_string(rows)
                .expect("rows serialize")
                .as_bytes(),
        )
    };
    if digest(&library) != digest(&out.rows) {
        id.checked.fail(
            id.requests,
            "the grid differs from experiments::end_to_end_cell".to_owned(),
        );
    }

    for name in [
        "routing.route_ns",
        "routing.migrate_ns",
        "autoscale.decide_ns",
    ] {
        distribution(m, name, "ns", &[]);
    }
    m.higher("autoscale.scale_events", 0.0, "count");
    m.lower("cluster.ns_per_replica_iteration", 0.0, "ns");
    m.lower("cluster.ns_per_event", 0.0, "ns");
    distribution(m, "serving.step_decode_ns", "ns", &[]);
    distribution(m, "serving.step_admit_ns", "ns", &[]);

    let papi: Vec<_> = fig8_papi_cells(f, 0, out).collect();
    let rlp: Vec<f64> = papi
        .iter()
        .flat_map(|(_, cell, _)| cell.trace.iterations.iter().map(|it| it.rlp as f64))
        .collect();
    m.higher(
        "serving.rlp_mean",
        rlp.iter().sum::<f64>() / rlp.len().max(1) as f64,
        "requests",
    );
    let shapes: Vec<Shape> = papi
        .iter()
        .flat_map(|(_, cell, config)| {
            cell.trace
                .iterations
                .iter()
                .map(move |&it| Shape { config, it })
        })
        .collect();
    let prefills: Vec<(&SystemConfig, PromptStats)> = papi
        .iter()
        .map(|(_, cell, config)| (*config, PromptStats::from_trace(&cell.trace)))
        .collect();
    device_and_pricer(&shapes, &prefills, budget, id, m);

    m.higher("kv.hit_ratio", 0.0, "ratio");
    for name in [
        "kv.tier_spills",
        "kv.tier_fetches",
        "kv.remote_fetches",
        "kv.evictions",
    ] {
        m.lower(name, 0.0, "count");
    }
    m.lower("kv.peak_pool_share", 0.0, "ratio");
    let decisions: u64 = papi.iter().map(|(r, ..)| r.scheduler.decisions).sum();
    let iterations: u64 = papi.iter().map(|(r, ..)| r.iterations).sum();
    m.higher(
        "sched.fc_pim_share",
        papi.iter()
            .map(|(r, ..)| r.scheduler.fc_pim_decisions)
            .sum::<u64>() as f64
            / decisions.max(1) as f64,
        "ratio",
    );
    m.lower(
        "sched.switches_per_kiter",
        papi.iter().map(|(r, ..)| r.scheduler.switches).sum::<u64>() as f64
            / iterations.max(1) as f64
            * 1e3,
        "count",
    );
    let part = |f: &dyn Fn(&papi_core::ExecutionReport) -> f64| -> f64 {
        papi.iter().map(|(r, ..)| f(r)).sum()
    };
    sim_breakdown(
        m,
        0.0,
        [
            part(&|r| r.prefill_time.as_secs()),
            part(&|r| r.phases.fc.as_secs()),
            part(&|r| r.phases.attention.as_secs()),
            part(&|r| r.phases.communication.as_secs()),
            part(&|r| r.phases.other.as_secs()),
        ],
    );
    m.lower("sim.tier_fetch_s", 0.0, "s");
    m.lower("sim.remote_fetch_s", 0.0, "s");
    m.lower("sim.migration_p99_ms", 0.0, "ms");
    m.lower("engine.cell_ms_p50", median(&out.cell_ms), "ms");
    m.lower(
        "engine.cell_ms_max",
        out.cell_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
}
