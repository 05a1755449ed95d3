//! `papi-sched` — PAPI's dynamic parallelism-aware scheduling.
//!
//! The paper's central mechanism (§5): a lightweight runtime predictor
//! estimates the FC kernel's arithmetic intensity as `RLP × TLP`
//! (Eq. (2), a provably tight approximation of Eq. (1) for large hidden
//! dimensions), compares it against an offline-calibrated threshold `α`,
//! and places the FC kernel on the GPU's processing units when
//! compute-bound or on the FC-PIM devices when memory-bound. Attention
//! always runs on Attn-PIM.
//!
//! - [`estimator`] — Eq. (1) exact arithmetic intensity, the Eq. (2)
//!   estimate, and the Fig. 6 accuracy comparison.
//! - [`policy`] — [`SchedulerKind`], the PAPI dynamic policy or one of
//!   the paper's static baselines (AttAcc, IANUS, PIM-only), and the
//!   [`FcScheduler`] it builds for one decode.
//! - [`calibration`] — the §5.2.1 offline iterative evaluation that
//!   picks `α` from measured PU/PIM latencies.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod calibration;
pub mod estimator;
pub mod policy;

pub use calibration::calibrate_alpha;
pub use estimator::AiEstimator;
pub use policy::{FcScheduler, Placement, SchedulerKind};
