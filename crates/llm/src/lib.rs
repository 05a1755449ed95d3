//! `papi-llm` — analytical transformer kernel model.
//!
//! The PAPI paper reasons about LLM decoding at the granularity of two
//! kernel families per decoder layer (Fig. 1(a)):
//!
//! - **FC kernels** — QKV generation, attention output projection, and
//!   the feed-forward network: weight-stationary GEMVs whose data reuse
//!   grows with `RLP × TLP` (batch × speculation length);
//! - **the multi-head attention kernel** — per-request KV-cache
//!   streaming whose reuse grows only with `TLP`.
//!
//! This crate provides the FLOP/byte arithmetic for both families
//! ([`kernels`]), the roofline and arithmetic-intensity analysis behind
//! the paper's Fig. 2 and Eq. (1)/(2) ([`roofline`]), KV-cache capacity
//! math ([`kvcache`]), and the model presets the paper evaluates
//! ([`config`]): OPT-30B, LLaMA-65B, GPT-3 66B and GPT-3 175B.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod kernels;
pub mod kvcache;
pub mod moe;
pub mod roofline;

pub use config::{ModelConfig, ModelPreset};
pub use kernels::{FcKernel, FcKernelKind, Parallelism};
pub use roofline::{Boundedness, RooflinePoint};
