//! `papi-dram` — a cycle-level per-bank PIM stream model of an HBM3 die.
//!
//! The PAPI paper evaluates its designs on a simulator built on
//! Ramulator 2.0 extended with the AttAcc PIM model. This crate is the
//! part of that substrate the PIM devices rest on, written from scratch:
//!
//! - [`timing`] — JEDEC-style HBM3 timing parameters (tRCD, tRP, tRAS,
//!   tCCD, tRRD, tFAW, tRFC, tREFI, …) expressed in integer command-clock
//!   cycles, with internal-consistency validation.
//! - [`organization`] — the channel → pseudo-channel → bank-group → bank
//!   hierarchy and row/column geometry.
//! - [`bank`] — a per-bank state machine that enforces every timing
//!   constraint on ACT/PRE/RD/REF command sequences.
//! - [`controller`] — per-bank PIM read streams: each bank streams into
//!   its near-bank processing unit, and only the activation window
//!   (tRRD/tFAW) and refresh are shared.
//! - [`energy`] — the activation, column-read and background energy
//!   parameters the PIM energy and power models read.
//! - [`device`] — assembled HBM3 stack presets (16 GB / 128-bank PIM
//!   devices and the 12 GB / 96-bank FC-PIM die of the paper's Eq. (4)).
//! - [`derive`](mod@crate::derive) — micro-simulations that *derive* the effective streaming
//!   bandwidths used by the analytical PIM kernel model, so the end-to-end
//!   experiments rest on the cycle-level model rather than on datasheet
//!   constants.
//!
//! # Example: derive the per-bank PIM streaming bandwidth
//!
//! ```
//! use papi_dram::{derive, HbmDevice};
//!
//! let device = HbmDevice::hbm3_16gb();
//! let bw = derive::pim_streaming_bandwidth(&device, 8, 32);
//! // One 32-byte column every 1.5 ns minus row-turnaround overhead:
//! assert!(bw.per_bank.as_gb_per_sec() > 12.0);
//! assert!(bw.per_bank.as_gb_per_sec() < 21.4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bank;
pub mod command;
pub mod controller;
pub mod derive;
pub mod device;
pub mod energy;
pub mod organization;
pub mod timing;

pub use command::MemRequest;
pub use controller::{Controller, ControllerStats};
pub use device::HbmDevice;
pub use energy::EnergyParams;
pub use organization::Topology;
pub use timing::TimingParams;
