//! `papi-pim` — near-bank processing-in-memory compute units.
//!
//! This crate models the PIM side of the PAPI system: AttAcc-style FPUs
//! placed next to HBM banks, in the four configurations the paper
//! evaluates:
//!
//! | Device | Config | Banks | Capacity | Role |
//! |---|---|---|---|---|
//! | AttAcc      | 1P1B | 128 | 16 GB | baseline PIM (attention + FC in AttAcc-only) |
//! | HBM-PIM     | 1P2B | 128 | 16 GB | Samsung-style commercial PIM baseline |
//! | FC-PIM      | 4P1B |  96 | 12 GB | PAPI's compute-dense PIM for FC kernels |
//! | Attn-PIM    | 1P2B | 128 | 16 GB | PAPI's capacity-dense PIM for attention |
//!
//! ## Execution model
//!
//! Weight streaming follows the batched-broadcast dataflow of AttAcc: one
//! column access (16 FP16 weights) is broadcast to FPU groups that each
//! apply it to a different token's activation vector. With data-reuse
//! level `r` (the number of tokens, `RLP × TLP`), a bank with `n` FPUs
//! needs `ceil(n / r)` parallel weight streams to keep every FPU busy;
//! each stream sustains the row-turnaround-limited bandwidth *derived
//! from the cycle-level DRAM model* (`papi-dram::derive`). This single
//! rule reproduces the paper's Fig. 7(c): 4P1B draws ~390 W with no reuse
//! and drops under the 116 W HBM3 budget exactly at reuse ≥ 4, while 1P1B
//! sits just above budget without reuse and 1P2B just below it.
//!
//! ## Modules
//!
//! - [`fpu`] — the 16-lane FP16 MAC unit (666 MHz, 0.1025 mm²).
//! - [`config`] — `xPyB` processing-unit-per-bank configurations.
//! - [`area`] — the CACTI-derived die-area model and the paper's Eq. (3)
//!   bank-count solver (4P1B ⇒ 96 banks).
//! - [`device`] — assembled PIM devices with derived bandwidths.
//! - [`energy`] — the DRAM-access / transfer / computation energy split
//!   of Fig. 7(a)/(b).
//! - [`power`] — power draw versus data-reuse level and the 116 W budget
//!   check of Fig. 7(c).
//! - [`partition`] — the AttAcc data-partitioning scheme (§6.4) across
//!   pseudo-channels, bank groups and banks.
//! - [`gemv`] — fully-connected (GEMV/GEMM) kernel execution.
//! - [`attention`] — multi-head attention kernel execution over the KV
//!   cache.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod area;
pub mod attention;
pub mod config;
pub mod device;
pub mod energy;
pub mod fpu;
pub mod gemv;
pub mod partition;
pub mod power;

pub use area::AreaParams;
pub use attention::{AttentionPlan, AttentionSpec};
pub use config::PimConfig;
pub use device::PimDevice;
pub use energy::{PimEnergyBreakdown, PimEnergyModel};
pub use fpu::FpuSpec;
pub use gemv::{Bottleneck, GemvSpec, PimKernelResult};
pub use power::{power_draw, PowerBudget};
