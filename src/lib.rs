//! # PAPI — PArallel Decoding with PIM
//!
//! A comprehensive Rust reproduction of *"PAPI: Exploiting Dynamic
//! Parallelism in Large Language Model Decoding with a
//! Processing-In-Memory-Enabled Computing System"* (ASPLOS 2025).
//!
//! This crate is a facade that re-exports the whole workspace:
//!
//! - [`types`] — quantity newtypes (time, energy, bandwidth, FLOPs, …)
//! - [`dram`] — cycle-level per-bank PIM stream model of an HBM3 die
//! - [`pim`] — near-bank PIM compute units (FC-PIM, Attn-PIM, AttAcc, HBM-PIM)
//! - [`gpu`] — roofline model of computation-centric accelerators (A100)
//! - [`interconnect`] — NVLink / CXL / DIMM / inter-node link models (a `papi-core` module)
//! - [`llm`] — transformer kernel FLOP/byte math and model presets
//! - [`kv`] — paged KV cache: refcounted block pool, prefix sharing
//! - [`workload`] — serving workloads: datasets, batching, speculative decoding
//! - [`sched`] — the PAPI dynamic scheduler and static baselines
//! - [`core`] — the heterogeneous system simulator and paper experiments
//!
//! `docs/ARCHITECTURE.md` in the repository maps the whole workspace:
//! the dependency graph over these crates (plus `papi-perf` and
//! `papi-bench`, which this facade does not re-export), the pluggable
//! trait seams, and the life of a request through the serving stack.
//!
//! # Quickstart
//!
//! ```
//! use papi::core::{DecodingSimulator, SystemConfig};
//! use papi::llm::ModelPreset;
//! use papi::workload::{DatasetKind, WorkloadSpec};
//!
//! let workload = WorkloadSpec::static_batching(DatasetKind::CreativeWriting, 16, 1)
//!     .with_seed(7);
//! let papi = DecodingSimulator::new(
//!     SystemConfig::papi(ModelPreset::Llama65B.config()),
//! );
//! let report = papi.run(&workload);
//! assert!(report.total_latency().as_secs() > 0.0);
//! ```

pub use papi_core as core;
pub use papi_core::interconnect;
pub use papi_dram as dram;
pub use papi_gpu as gpu;
pub use papi_kv as kv;
pub use papi_llm as llm;
pub use papi_pim as pim;
pub use papi_sched as sched;
pub use papi_types as types;
pub use papi_workload as workload;
