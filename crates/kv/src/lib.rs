//! `papi-kv` — the paged KV-cache subsystem.
//!
//! PAPI prices decode attention off each request's resident KV
//! footprint, so *how* that footprint is managed is a first-class
//! scaling axis (L3 and PIM-AI both make KV capacity the central
//! resource of PIM serving). This crate models the management layer the
//! serving engine allocates through, vLLM-style:
//!
//! - [`KvBlockPool`] — a fixed-size pool of KV-cache *blocks* (each
//!   holding `block_size` token slots) that blocks can be shared from.
//!   Blocks are handed out in allocation segments, and each segment
//!   counts its holders per run of equally-held blocks (almost always
//!   one run), so fork, publish, release, evict and export cost per
//!   span a holder has, not per block. The free count is
//!   `total − in use`; the pool is pure bookkeeping — no tensor data
//!   exists in the simulator, only occupancy, and no report carries a
//!   block identity.
//! - [`KvSeq`] — one request's spans of segments plus its block and
//!   logical token counts. Sequences grow by appending tokens
//!   ([`KvBlockPool::append`], which extends the tail segment in place
//!   when the sequence holds its end and transparently copies a shared
//!   tail block on write), and can be forked from another holder's
//!   leading blocks without copying ([`KvBlockPool::fork`]).
//! - [`PrefixTree`] — a prefix cache keyed by workload-level prefix
//!   ids (a shared system prompt, a multi-turn conversation's context).
//!   Entries hold references on *full* blocks of a completed context;
//!   later requests carrying the same key fork those blocks instead of
//!   re-prefilling, and an LRU eviction path (the first entry of an
//!   ordered `(last_use, key)` index) returns cold prefixes to the pool
//!   under pressure.
//! - [`KvTier`] — a host-DRAM / DIMM-PIM *capacity tier* below the
//!   pool. When configured, eviction becomes a spill: the cold prefix's
//!   hot blocks are freed but the tier remembers its logical length, so
//!   a request that re-lands on the key can fetch it back (at a
//!   transfer cost the serving layer prices) instead of re-prefilling.
//! - [`GlobalKvTier`] — the *fleet-wide* directory over those private
//!   tiers: every replica's spilled records registered under one
//!   conversation-prefix key space (first-writer-wins owner,
//!   extend-only length, no invalidation), so a request that re-lands
//!   on the wrong replica can re-materialize its context from the
//!   owner across the inter-node fabric instead of re-prefilling.
//!
//! Degenerate configuration — `block_size == 1` with no prefix tree —
//! reproduces scalar token counting exactly (one block per token, no
//! internal fragmentation, no sharing), which is how the serving
//! engine's pre-paging behaviour stays equality-pinned.
//!
//! # Example: pool → sequence → export/import round-trip
//!
//! The [`KvSeqExport`] seam is how KV state crosses boundaries —
//! prefill→decode migration, and the capacity tier's spill/fetch path.
//! An export releases the source blocks and keeps only the logical
//! record; an import re-materializes it at the destination's block
//! granularity:
//!
//! ```
//! use papi_kv::KvBlockPool;
//!
//! let mut prefill = KvBlockPool::new(16, 64);
//! let mut seq = prefill.new_seq();
//! assert!(prefill.append(&mut seq, 40)); // 3 blocks at size 16
//! assert_eq!(prefill.blocks_in_use(), 3);
//!
//! let export = prefill.export_seq(seq); // frees the source blocks
//! assert_eq!(prefill.blocks_in_use(), 0);
//! assert_eq!(export.tokens, 40);
//!
//! let mut decode = KvBlockPool::new(8, 64); // different granularity
//! let imported = decode.import_seq(export).expect("room at the dest");
//! assert_eq!(imported.tokens(), 40);
//! assert_eq!(decode.blocks_in_use(), 5); // reblocked at size 8
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod global;
pub mod pool;
pub mod prefix;
pub mod tier;

pub use global::{GlobalEntry, GlobalKvTier, GlobalTierStats, PublishOutcome};
pub use pool::{BlockId, KvBlockPool, KvPoolStats, KvSeq, KvSeqExport};
pub use prefix::{EvictedPrefix, KvCacheStats, PrefixHint, PrefixTree};
pub use tier::{KvTier, SpillOutcome, TierStats};
