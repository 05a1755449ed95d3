//! The four benchmark workloads: how each is set up from a seed, how one
//! episode runs, what it reports, and how its outputs are checked.
//!
//! All four are open-loop in simulated time (arrivals follow a schedule
//! whatever the backlog; the Fig. 8 grid is a closed batch per cell). On
//! the host each is a batch job that runs one episode at a time.

use papi_core::experiments::EndToEndRow;
use papi_core::{
    AutoscalePolicySpec, AutoscaleSpec, ClusterEngine, ClusterReport, ClusterSpec,
    DecodingSimulator, DesignKind, ExecutionReport, IterationPricer, KvTierSpec, MigrationReport,
    RequestRecord, ServingEngine, ServingReport, SessionStatus, SessionTuning, SharedTierSpec,
    SloSpec, SystemConfig,
};
use papi_llm::ModelPreset;
use papi_types::Energy;
use papi_workload::{
    ArrivalProcess, ConversationDataset, DatasetKind, DecodeTrace, PolicySpec, ReplicaRole,
    ServingRequest, ServingWorkload, SpeculativeConfig, WorkloadSpec,
};
use std::collections::HashSet;

/// The paper's headline Fig. 8 results (§7.2): PAPI over A100+AttAcc.
pub const PAPER_SPEEDUP: f64 = 1.8;
/// The paper's headline Fig. 8 energy-efficiency gain over A100+AttAcc.
pub const PAPER_ENERGY_EFF: f64 = 3.4;
/// The paper's geomean speed-up of PAPI over each Fig. 8 design.
pub const PAPER_SPEEDUP_OVER: [(DesignKind, f64); 3] = [
    (DesignKind::A100AttAcc, 1.8),
    (DesignKind::A100HbmPim, 1.9),
    (DesignKind::AttAccOnly, 11.1),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    FleetDay,
    ReplicaChatTier,
    FleetDisaggTier,
    PaperFig8,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::FleetDay,
        WorkloadKind::ReplicaChatTier,
        WorkloadKind::FleetDisaggTier,
        WorkloadKind::PaperFig8,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::FleetDay => "fleet_day",
            WorkloadKind::ReplicaChatTier => "replica_chat_tier",
            WorkloadKind::FleetDisaggTier => "fleet_disagg_tier",
            WorkloadKind::PaperFig8 => "paper_fig8",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `Full` is the benchmark; `Tiny` is the smoke-test shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// How many independent days (distinct seeds) one run simulates, and
/// the seed of each: pooling several days is what keeps the simulated
/// metrics of one run steady from seed to seed.
pub fn days(kind: WorkloadKind, size: Size) -> u64 {
    match (kind, size) {
        (_, Size::Tiny) => 2,
        (WorkloadKind::FleetDay, Size::Full) => 10,
        (WorkloadKind::ReplicaChatTier, Size::Full) => 8,
        (WorkloadKind::FleetDisaggTier, Size::Full) => 4,
        (WorkloadKind::PaperFig8, Size::Full) => 64,
    }
}

/// The seed of day `day` of a run seeded `seed` (runs with different
/// seeds share no day).
pub fn day_seed(seed: u64, day: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(day)
}

/// The seed of the canonical Fig. 8 grid the paper check compares
/// against the paper (the seed `fig08_end_to_end` prints).
pub const PAPER_CHECK_SEED: u64 = 42;

/// One day of a served workload: its generated request list.
pub struct Day {
    pub workload: ServingWorkload,
    pub requests: Vec<ServingRequest>,
}

/// A served workload ready to run: the engine, each day's request
/// list, and the SLO its goodput is judged against.
pub struct ServingFixture {
    pub engine: Engine,
    pub days: Vec<Day>,
    pub slo: SloSpec,
}

pub enum Engine {
    Fleet(ClusterEngine),
    /// One replica driven through `ServingSession::step` by the
    /// benchmark itself.
    Replica(ServingEngine),
}

/// One Fig. 8 cell: a decode trace priced on every design.
pub struct Fig8Cell {
    pub model: ModelPreset,
    pub speculation: u64,
    pub batch: u64,
    pub trace: DecodeTrace,
    /// Index into `Fig8Fixture::sims` of each design's simulator, in
    /// `DesignKind::FIG8` order (A100+AttAcc first: the baseline).
    pub sims: Vec<usize>,
}

/// The Fig. 8 grid: one simulator per (model, design), and one grid of
/// decode traces per day.
pub struct Fig8Fixture {
    pub sims: Vec<DecodingSimulator>,
    pub days: Vec<Vec<Fig8Cell>>,
}

pub enum Fixture {
    Serving(ServingFixture),
    Fig8(Fig8Fixture),
}

/// What one day produced.
pub enum Outcome {
    Serving(ClusterReport),
    Fig8(Fig8Outcome),
}

pub struct Fig8Outcome {
    pub rows: Vec<EndToEndRow>,
    /// The raw report of every (cell, design), cell-major.
    pub reports: Vec<ExecutionReport>,
    /// Host wall time of each cell (all designs), milliseconds.
    pub cell_ms: Vec<f64>,
}

impl Fixture {
    /// Builds the workload: configurations (α calibration included),
    /// engines, and every day's request list or decode traces.
    pub fn setup(kind: WorkloadKind, seed: u64, size: Size) -> Fixture {
        let tiny = size == Size::Tiny;
        let seeds: Vec<u64> = (0..days(kind, size)).map(|d| day_seed(seed, d)).collect();
        let llama = ModelPreset::Llama65B.config();
        let serving = |engine, slo, workload: &dyn Fn(u64) -> ServingWorkload| {
            Fixture::Serving(ServingFixture {
                engine,
                days: seeds
                    .iter()
                    .map(|&s| {
                        let workload = workload(s);
                        Day {
                            requests: workload.requests(),
                            workload,
                        }
                    })
                    .collect(),
                slo,
            })
        };
        match kind {
            WorkloadKind::FleetDay => {
                let (n, max, min, initial) = if tiny {
                    (600, 8, 2, 4)
                } else {
                    (16_000, 64, 8, 16)
                };
                let slo = SloSpec::interactive(2_000.0, 100.0);
                let spec = ClusterSpec::new(DesignKind::Papi, llama, 1, max)
                    .with_routing(PolicySpec::prefix_affinity())
                    .with_tuning(
                        SessionTuning::default()
                            .with_kv_block_size(16)
                            .with_prefix_sharing(true),
                    )
                    .with_autoscale(
                        AutoscaleSpec::new(
                            AutoscalePolicySpec::QueueDepthTarget {
                                scale_up_depth: 0.25,
                                scale_down_depth: 0.05,
                            },
                            slo,
                        )
                        .with_min_replicas(min)
                        .with_initial_replicas(initial)
                        .with_spin_up(1.0)
                        .with_decide_interval(0.5),
                    );
                let engine = ClusterEngine::new(spec).expect("valid elastic fleet");
                serving(Engine::Fleet(engine), slo, &|s| {
                    ServingWorkload::new(
                        ConversationDataset::multi_turn(DatasetKind::GeneralQa, 512, 4),
                        ArrivalProcess::Diurnal {
                            base_rate_per_sec: 20.0,
                            peak_rate_per_sec: 120.0,
                            period_s: n as f64 / 70.0,
                            noise: 0.1,
                        },
                        n,
                    )
                    .with_seed(s)
                })
            }
            WorkloadKind::ReplicaChatTier => {
                let (conversations, turns) = if tiny { (30, 10) } else { (600, 50) };
                let engine = ServingEngine::new(SystemConfig::build(DesignKind::Papi, llama))
                    .with_tuning(
                        SessionTuning::default()
                            .with_kv_block_size(16)
                            .with_prefix_sharing(true)
                            .with_prefill_chunk(2048)
                            .with_kv_tier(KvTierSpec::new(if tiny { 4_000 } else { 400_000 })),
                    );
                serving(
                    Engine::Replica(engine),
                    SloSpec::interactive(2_000.0, 100.0),
                    &|s| {
                        ServingWorkload::poisson(
                            ConversationDataset::multi_turn(DatasetKind::GeneralQa, 512, turns),
                            1.0,
                            conversations * turns,
                        )
                        .with_speculation(SpeculativeConfig::fixed(4))
                        .with_seed(s)
                    },
                )
            }
            WorkloadKind::FleetDisaggTier => {
                let (n, tier) = if tiny { (240, 6_000) } else { (6_000, 60_000) };
                let mut roles = vec![ReplicaRole::Prefill; 4];
                roles.extend([ReplicaRole::Decode; 4]);
                let spec = ClusterSpec::new(DesignKind::PimOnlyPapi, llama, 1, 8)
                    .with_roles(roles)
                    .with_prefill_design(DesignKind::A100AttAcc)
                    .with_routing(PolicySpec::shared_tier_affinity())
                    .with_tuning(
                        SessionTuning::default()
                            .with_kv_block_size(16)
                            .with_prefix_sharing(true)
                            .with_kv_tier(KvTierSpec::new(tier)),
                    )
                    .with_shared_tier(SharedTierSpec::new());
                let engine = ClusterEngine::new(spec).expect("valid disaggregated fleet");
                serving(
                    Engine::Fleet(engine),
                    SloSpec::interactive(10_000.0, 100.0),
                    &|s| {
                        ServingWorkload::poisson(
                            ConversationDataset::multi_turn(DatasetKind::LongContext, 2048, 12),
                            1.5,
                            n,
                        )
                        .with_seed(s)
                    },
                )
            }
            WorkloadKind::PaperFig8 => Fixture::Fig8(Fig8Fixture::new(&seeds, tiny)),
        }
    }

    pub fn days(&self) -> usize {
        match self {
            Fixture::Serving(f) => f.days.len(),
            Fixture::Fig8(f) => f.days.len(),
        }
    }

    /// Runs day `day` to completion.
    pub fn run(&self, day: usize) -> Outcome {
        match self {
            Fixture::Serving(f) => Outcome::Serving(f.run(day)),
            Fixture::Fig8(f) => Outcome::Fig8(f.run(day)),
        }
    }

    /// Requests day `day` simulates (for Fig. 8: every request of every
    /// cell on every design).
    pub fn requests(&self, day: usize) -> u64 {
        match self {
            Fixture::Serving(f) => f.days[day].requests.len() as u64,
            Fixture::Fig8(f) => f.days[day]
                .iter()
                .map(|c| c.trace.requests * c.sims.len() as u64)
                .sum(),
        }
    }
}

impl ServingFixture {
    pub fn run(&self, day: usize) -> ClusterReport {
        let day = &self.days[day];
        match &self.engine {
            Engine::Fleet(engine) => engine.run(&day.workload),
            Engine::Replica(engine) => {
                single_replica_report(drive_session(engine, &day.workload, &day.requests, None))
            }
        }
    }
}

/// Drives one replica through `ServingSession::step` — exactly what
/// `ServingEngine::run` does. With `on_step`, each step that advanced is
/// timed and reported with the state it started from.
pub fn drive_session(
    engine: &ServingEngine,
    workload: &ServingWorkload,
    requests: &[ServingRequest],
    on_step: Option<&mut dyn FnMut(StepView, u64)>,
) -> ServingReport {
    let mut session = engine.open_session(workload);
    for request in requests {
        session.push(request.clone());
    }
    match on_step {
        None => while session.step() == SessionStatus::Advanced {},
        Some(on_step) => loop {
            let before = StepView::of(&session);
            let start = std::time::Instant::now();
            let status = session.step();
            let ns = start.elapsed().as_nanos() as u64;
            if status != SessionStatus::Advanced {
                break;
            }
            on_step(before, ns);
        },
    }
    session.into_report()
}

/// Session state sampled before a step: the iteration shape the step
/// will price if it decodes.
#[derive(Debug, Clone, Copy)]
pub struct StepView {
    pub live: usize,
    pub finished: usize,
    pub kv_tokens: u64,
    pub clock: f64,
}

impl StepView {
    fn of(session: &papi_core::ServingSession<'_>) -> Self {
        StepView {
            live: session.snapshot().live,
            finished: session.completed_records().len(),
            kv_tokens: session.kv_resident_tokens(),
            clock: session.clock(),
        }
    }
}

/// Wraps one replica's report in a one-replica fleet report, so every
/// serving workload is measured and checked by the same code.
pub fn single_replica_report(report: ServingReport) -> ClusterReport {
    ClusterReport {
        design: report.design.clone(),
        model: report.model.clone(),
        tp_degree: 1,
        routing: "none".to_owned(),
        routing_decisions: 0,
        roles: vec![ReplicaRole::Colocated],
        migration: MigrationReport {
            policy: "none".to_owned(),
            pricing: "none".to_owned(),
            migrations: 0,
            bytes: 0.0,
            energy: Energy::ZERO,
            latency: None,
        },
        global_tier: None,
        fleet_cost: None,
        replicas: vec![report],
    }
}

impl Fig8Fixture {
    /// One Fig. 8 grid per seed in `seeds`.
    pub fn new(seeds: &[u64], tiny: bool) -> Self {
        let (models, speculations, batches): (&[ModelPreset], &[u64], &[u64]) = if tiny {
            (&[ModelPreset::Llama65B], &[1, 4], &[4, 16])
        } else {
            (
                &ModelPreset::EVALUATED,
                &papi_core::experiments::SPECULATION_LENGTHS,
                &papi_core::experiments::BATCHES,
            )
        };
        let sims: Vec<DecodingSimulator> = models
            .iter()
            .flat_map(|&model| {
                DesignKind::FIG8.iter().map(move |&kind| {
                    DecodingSimulator::new(SystemConfig::build(kind, model.config()))
                })
            })
            .collect();
        let designs = DesignKind::FIG8.len();
        let days = seeds
            .iter()
            .map(|&seed| {
                let mut cells = Vec::new();
                for (m, &model) in models.iter().enumerate() {
                    for &speculation in speculations {
                        for &batch in batches {
                            let trace = WorkloadSpec::static_batching(
                                DatasetKind::CreativeWriting,
                                batch,
                                speculation,
                            )
                            .with_seed(seed)
                            .trace();
                            cells.push(Fig8Cell {
                                model,
                                speculation,
                                batch,
                                trace,
                                sims: (m * designs..(m + 1) * designs).collect(),
                            });
                        }
                    }
                }
                cells
            })
            .collect();
        Fig8Fixture { sims, days }
    }

    /// The canonical grid every workload's paper check runs: exact, so
    /// it moves only when the modelled system does.
    pub fn paper_check(size: Size) -> Self {
        Self::new(&[PAPER_CHECK_SEED], size == Size::Tiny)
    }

    /// Prices every cell on every design, cells fanned out over threads
    /// as `experiments::fig8_end_to_end` does.
    pub fn run(&self, day: usize) -> Fig8Outcome {
        use rayon::prelude::*;
        let cells = &self.days[day];
        let per_cell: Vec<(Vec<ExecutionReport>, f64)> = cells
            .par_iter()
            .map(|cell| {
                let start = std::time::Instant::now();
                let reports: Vec<ExecutionReport> = cell
                    .sims
                    .iter()
                    .map(|&i| self.sims[i].run_trace(&cell.trace))
                    .collect();
                (reports, start.elapsed().as_secs_f64() * 1e3)
            })
            .collect();
        let mut rows = Vec::new();
        let mut reports = Vec::new();
        let mut cell_ms = Vec::new();
        for (cell, (cell_reports, ms)) in cells.iter().zip(per_cell) {
            let base = &cell_reports[0];
            for (&kind, report) in DesignKind::FIG8.iter().zip(&cell_reports) {
                rows.push(EndToEndRow {
                    model: cell.model.to_string(),
                    dataset: DatasetKind::CreativeWriting.to_string(),
                    speculation: cell.speculation,
                    batch: cell.batch,
                    design: kind.label().to_owned(),
                    speedup: report.speedup_over(base),
                    energy_efficiency: report.energy_efficiency_over(base),
                    latency_s: report.total_latency().as_secs(),
                    energy_j: report.total_energy().as_joules(),
                });
            }
            reports.extend(cell_reports);
            cell_ms.push(ms);
        }
        Fig8Outcome {
            rows,
            reports,
            cell_ms,
        }
    }
}

/// Failed outputs, counted in requests.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Checked {
    pub fn merge(&mut self, other: Checked) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for problem in other.problems {
            if self.problems.len() < 8 {
                self.problems.push(problem);
            }
        }
    }

    pub fn fail(&mut self, requests: u64, problem: String) {
        self.failed += requests;
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }
}

/// The output checks behind `request_success_ratio`, on day `day`.
pub fn check(fixture: &Fixture, day: usize, outcome: &Outcome) -> Checked {
    match (fixture, outcome) {
        (Fixture::Serving(f), Outcome::Serving(report)) => check_serving(&f.days[day], report),
        (Fixture::Fig8(f), Outcome::Fig8(out)) => check_fig8(&f.days[day], out),
        _ => unreachable!("outcome of another workload"),
    }
}

fn record_in_order(r: &RequestRecord) -> bool {
    r.arrival.value() <= r.admitted.value()
        && r.admitted.value() < r.first_token.value()
        && r.first_token.value() <= r.finished.value()
}

fn check_serving(f: &Day, report: &ClusterReport) -> Checked {
    let mut c = Checked {
        attempted: f.requests.len() as u64,
        ..Checked::default()
    };
    // Every request finishes, exactly once.
    let expected: HashSet<u64> = f.requests.iter().map(|r| r.request.id).collect();
    let mut seen = HashSet::new();
    for record in report.records() {
        if !expected.contains(&record.id) || !seen.insert(record.id) {
            c.fail(1, format!("record {} is unknown or duplicated", record.id));
        } else if !record_in_order(record) {
            c.fail(
                1,
                format!(
                    "record {}: arrival {} admitted {} first token {} finished {} out of order",
                    record.id,
                    record.arrival.value(),
                    record.admitted.value(),
                    record.first_token.value(),
                    record.finished.value()
                ),
            );
        }
    }
    let missing = expected.len() - seen.len();
    if missing > 0 {
        c.fail(missing as u64, format!("{missing} requests never finished"));
    }
    // Report tokens equal the records' output tokens, replica by replica.
    for (i, replica) in report.replicas.iter().enumerate() {
        let tokens: u64 = replica.records.iter().map(|r| r.output_tokens).sum();
        if tokens != replica.tokens {
            c.fail(
                replica.records.len() as u64,
                format!(
                    "replica {i}: report tokens {} != records' {tokens}",
                    replica.tokens
                ),
            );
        }
    }
    // Every migration is delivered: each request crosses from a prefill
    // replica to a decode replica once, and finishes on the decode side.
    if report.roles.contains(&ReplicaRole::Prefill) {
        let on_prefill: u64 = report
            .roles
            .iter()
            .zip(&report.replicas)
            .filter(|(role, _)| **role == ReplicaRole::Prefill)
            .map(|(_, r)| r.records.len() as u64)
            .sum();
        if on_prefill > 0 {
            c.fail(
                on_prefill,
                format!("{on_prefill} requests finished on a prefill replica"),
            );
        }
        let migrations = report.migration.migrations;
        if migrations != f.requests.len() as u64 {
            let lost = (f.requests.len() as u64).abs_diff(migrations);
            c.fail(
                lost,
                format!("{migrations} migrations for {} requests", f.requests.len()),
            );
        }
    }
    c.failed = c.failed.min(c.attempted);
    c
}

fn check_fig8(cells: &[Fig8Cell], out: &Fig8Outcome) -> Checked {
    let mut c = Checked::default();
    let designs = DesignKind::FIG8.len();
    for (i, cell) in cells.iter().enumerate() {
        for d in 0..designs {
            let report = &out.reports[i * designs + d];
            let row = &out.rows[i * designs + d];
            let requests = cell.trace.requests;
            c.attempted += requests;
            let ok = report.tokens == cell.trace.total_tokens
                && report.requests == cell.batch
                && report.iterations == cell.trace.len() as u64
                && row.speedup.is_finite()
                && row.speedup > 0.0
                && row.energy_efficiency.is_finite()
                && row.energy_efficiency > 0.0
                && (d > 0 || (row.speedup == 1.0 && row.energy_efficiency == 1.0));
            if !ok {
                c.fail(
                    requests,
                    format!(
                        "{} spec {} batch {} {}: tokens {} of {}, speedup {}",
                        row.model,
                        row.speculation,
                        row.batch,
                        row.design,
                        report.tokens,
                        cell.trace.total_tokens,
                        row.speedup
                    ),
                );
            }
        }
    }
    c
}

/// A stable digest of everything an episode simulated: equal digests
/// mean bit-identical simulated outputs.
pub fn fingerprint(outcome: &Outcome) -> u64 {
    let text = match outcome {
        Outcome::Serving(report) => serde_json::to_string(report),
        Outcome::Fig8(out) => serde_json::to_string(&out.rows),
    }
    .expect("reports serialize");
    fnv1a(text.as_bytes())
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The Fig. 8 PAPI cells the simulated-system metrics summarize:
/// `(report, cell, config)` for every cell's PAPI run on day `day`.
pub fn fig8_papi_cells<'a>(
    f: &'a Fig8Fixture,
    day: usize,
    out: &'a Fig8Outcome,
) -> impl Iterator<Item = (&'a ExecutionReport, &'a Fig8Cell, &'a SystemConfig)> {
    let designs = DesignKind::FIG8.len();
    let papi = DesignKind::FIG8
        .iter()
        .position(|&d| d == DesignKind::Papi)
        .expect("Fig. 8 compares PAPI");
    f.days[day].iter().enumerate().map(move |(i, cell)| {
        (
            &out.reports[i * designs + papi],
            cell,
            f.sims[cell.sims[papi]].config(),
        )
    })
}

/// Time to first token of a static batch on `config`: its prefill plus
/// its first decode iteration, priced as the engine prices them.
pub fn static_batch_ttft_s(config: &SystemConfig, trace: &DecodeTrace) -> f64 {
    let prefill = papi_core::prefill_cost(config, trace).time.as_secs();
    let first = trace.iterations.first().map_or(0.0, |it| {
        let placement = config.scheduler.build().decide(it.rlp, it.tlp);
        IterationPricer::new(config)
            .price_iteration(placement, it)
            .total_time()
            .as_secs()
    });
    prefill + first
}
