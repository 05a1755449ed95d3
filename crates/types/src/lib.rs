//! `papi-types` — foundational quantity types shared by every PAPI crate.
//!
//! The PAPI simulator manipulates physical quantities (time, energy, power,
//! bandwidth, silicon area) and computational quantities (FLOPs, bytes,
//! arithmetic intensity). Mixing those up as bare `f64`s is the classic way
//! an architecture simulator silently produces garbage, so this crate wraps
//! each quantity in a newtype with checked constructors, the arithmetic that
//! is physically meaningful (`Energy / Time = Power`,
//! `Bytes / Time = Bandwidth`, `Flops / Bytes = ArithmeticIntensity`, …),
//! and human-readable `Display` implementations.
//!
//! # Example
//!
//! ```
//! use papi_types::{Bytes, Flops, Time};
//!
//! let flops = Flops::new(2.0e12);
//! let bytes = Bytes::from_gib(128.0);
//! let ai = flops / bytes; // FLOPs/byte
//! assert!(ai.value() > 14.0 && ai.value() < 15.0);
//!
//! let bw = Bytes::from_gib(1.0) / Time::from_millis(1.0);
//! assert!(bw.as_gb_per_sec() > 1073.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dtype;
mod stats;
mod units;

pub use dtype::DataType;
pub use stats::geometric_mean;
pub use units::{
    Area, ArithmeticIntensity, Bandwidth, Bytes, Energy, Flops, FlopsRate, Frequency, Power, Time,
};
