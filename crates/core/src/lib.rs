//! `papi-core` — the PAPI heterogeneous system simulator.
//!
//! This crate assembles every substrate into the computing systems the
//! paper evaluates, and drives them over serving workloads:
//!
//! | Design | FC kernels | Attention | paper role |
//! |---|---|---|---|
//! | **PAPI** | dynamic: PU or FC-PIM (α-threshold) | Attn-PIM (1P2B) | the contribution |
//! | A100+AttAcc | always 6×A100 | AttAcc (1P1B) | SOTA heterogeneous baseline |
//! | A100+HBM-PIM | always 6×A100 | HBM-PIM (1P2B) | commercial-PIM baseline |
//! | AttAcc-only | AttAcc PIM | AttAcc PIM | SOTA PIM-only baseline |
//! | PIM-only PAPI | always FC-PIM (4P1B) | Attn-PIM | hybrid-PIM ablation (Fig. 11/12) |
//!
//! Every system exposes the same 90-HBM-device budget (30 for FC
//! weights, 60 for attention KV), per the paper's §7.1 fairness setup.
//!
//! - [`config`] — system assembly and α calibration (plus
//!   tensor-parallel sharding across nodes).
//! - [`cluster`] — fleet simulation: TP groups replicated
//!   data-parallel behind a request router, with fleet-wide metrics —
//!   including role-disaggregated fleets (prefill pool → priced KV
//!   migration → decode pool).
//! - [`autoscale`] — elastic fleet scaling: the replica lifecycle
//!   (`Warming → Active → Draining → Retired`), the
//!   [`AutoscalePolicy`] decision seam, and replica-hour /
//!   energy-per-SLO-good-token cost accounting.
//! - [`pricer`] — the shared hardware cost model (one implementation,
//!   used by every execution path).
//! - [`engine`] — the batch-mode decoding simulator (paper figures).
//! - [`serving`] — the online event-driven serving engine (arrivals,
//!   continuous batching, per-request latency).
//! - [`metrics`] — execution and serving reports (latency/energy
//!   breakdowns, TTFT/TPOT percentiles, SLO goodput).
//! - [`slo`] — latency objectives (TTFT and TPOT budgets).
//! - [`experiments`] — one function per paper figure (Fig. 2–12), plus
//!   [`sweep`](experiments::sweep) over `(ClusterSpec, ServingWorkload)`
//!   points for the serving and fleet comparisons, summarized by
//!   [`SweepRow`](experiments::SweepRow).
//!
//! # Example
//!
//! ```
//! use papi_core::{DecodingSimulator, SystemConfig};
//! use papi_llm::ModelPreset;
//! use papi_workload::{DatasetKind, WorkloadSpec};
//!
//! let model = ModelPreset::Llama65B.config();
//! let workload = WorkloadSpec::static_batching(DatasetKind::CreativeWriting, 8, 1);
//! let papi = DecodingSimulator::new(SystemConfig::papi(model.clone()));
//! let baseline = DecodingSimulator::new(SystemConfig::a100_attacc(model));
//! let (r_papi, r_base) = (papi.run(&workload), baseline.run(&workload));
//! // At batch 8 the FC kernel is memory-bound: PAPI's FC-PIM wins.
//! assert!(r_papi.total_latency().value() < r_base.total_latency().value());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod autoscale;
pub mod cluster;
pub mod config;
pub mod engine;
pub mod experiments;
pub mod interconnect;
pub mod metrics;
pub mod prefill;
pub mod pricer;
pub mod serving;
pub mod slo;

pub use autoscale::{
    AutoscalePolicy, AutoscalePolicySpec, AutoscaleSpec, AutoscaleView, FleetCostReport,
    ScaleAction, ScaleEvent,
};
pub use cluster::{
    ClusterEngine, ClusterReport, ClusterSpec, GlobalTierReport, MigrationReport, SharedTierSpec,
    StepMode,
};
pub use config::{DesignKind, SystemConfig, TpGroup};
pub use engine::DecodingSimulator;
pub use metrics::{
    ExecutionReport, IterationCost, LatencySummary, PhaseBreakdown, RequestRecord, RunLength,
    ServingReport,
};
pub use papi_kv::KvCacheStats;
pub use papi_sched::SchedulerKind;
pub use prefill::{prefill_cost, prefill_cost_for, PrefillCost, PromptStats};
pub use pricer::IterationPricer;
pub use serving::{KvTierSpec, ServingEngine, ServingSession, SessionStatus, SessionTuning};
pub use slo::SloSpec;
