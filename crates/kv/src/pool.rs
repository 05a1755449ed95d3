//! The span-refcounted KV block pool and per-request sequences.

use serde::{Deserialize, Serialize};

/// Opaque identity of one physical KV-cache block: its allocation
/// segment in the high 32 bits, its offset in the segment in the low
/// 32. Only [`KvBlockPool::refcount`] and test models read it; every
/// pool operation works on whole spans.
pub type BlockId = u64;

/// Blocks `lo..hi` of allocation segment `seg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    seg: u32,
    lo: u32,
    hi: u32,
}

impl Span {
    fn len(self) -> u64 {
        u64::from(self.hi - self.lo)
    }
}

/// One request's view of its KV cache: the blocks it holds (possibly
/// shared with other holders), as spans of allocation segments, and
/// the logical tokens written so far.
///
/// Invariant maintained by every pool operation: the sequence holds
/// exactly `ceil(tokens / block_size)` blocks — capacity never strays
/// more than one partial block ahead of the logical length.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KvSeq {
    spans: Vec<Span>,
    blocks: u64,
    tokens: u64,
}

impl KvSeq {
    /// Logical tokens resident in this sequence.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// Blocks this sequence holds.
    pub fn block_count(&self) -> u64 {
        self.blocks
    }

    /// Token slots allocated (blocks × block size).
    pub(crate) fn capacity(&self, block_size: u64) -> u64 {
        self.blocks * block_size
    }

    /// Allocated-but-unwritten token slots (internal fragmentation of
    /// this sequence's tail block).
    pub fn slack(&self, block_size: u64) -> u64 {
        self.capacity(block_size) - self.tokens
    }

    /// The identities of the blocks this sequence holds, in token order
    /// (for test models; O(blocks)).
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.spans
            .iter()
            .flat_map(|s| (s.lo..s.hi).map(|off| u64::from(s.seg) << 32 | u64::from(off)))
    }

    /// The spans covering block positions `from..to`, in token order.
    fn range(&self, from: u64, to: u64) -> impl Iterator<Item = Span> + '_ {
        let mut start = 0;
        self.spans.iter().filter_map(move |&s| {
            let (s_lo, s_hi) = (start, start + s.len());
            start = s_hi;
            let (lo, hi) = (from.max(s_lo), to.min(s_hi));
            (lo < hi).then(|| Span {
                seg: s.seg,
                lo: s.lo + (lo - s_lo) as u32,
                hi: s.lo + (hi - s_lo) as u32,
            })
        })
    }

    /// Appends `span` after the last block, coalescing contiguous spans.
    fn push(&mut self, span: Span) {
        self.blocks += span.len();
        match self.spans.last_mut() {
            Some(tail) if tail.seg == span.seg && tail.hi == span.lo => tail.hi = span.hi,
            _ => self.spans.push(span),
        }
    }

    /// Detaches the last block.
    fn pop_block(&mut self) -> Span {
        let tail = self.spans.last_mut().expect("a held block");
        let block = Span {
            seg: tail.seg,
            lo: tail.hi - 1,
            hi: tail.hi,
        };
        tail.hi -= 1;
        if tail.lo == tail.hi {
            self.spans.pop();
        }
        self.blocks -= 1;
        block
    }
}

/// A sequence detached from its pool for migration: the logical state
/// another pool needs to re-materialize it, with no block identity.
///
/// Produced by [`KvBlockPool::export_seq`], consumed by
/// [`KvBlockPool::import_seq`]. The physical blocks were released at
/// export (shared blocks keep their other holders), so an exported
/// sequence occupies *no* pool while in flight — exactly the
/// wire-transit state of a prefill→decode KV migration. `blocks`
/// records the source pool's footprint so the transfer can be priced
/// in source-granularity block units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KvSeqExport {
    /// Logical tokens the sequence held.
    pub tokens: u64,
    /// Blocks the sequence occupied in the *source* pool (its priced
    /// payload size, in source block units).
    pub blocks: u64,
}

/// Aggregate pool occupancy at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KvPoolStats {
    /// Tokens per block.
    pub block_size: u64,
    /// Physical blocks in the pool.
    pub total_blocks: u64,
    /// Blocks with at least one holder.
    pub blocks_in_use: u64,
    /// Blocks available for allocation.
    pub free_blocks: u64,
}

/// Holder state of the blocks from the previous run's `end` up to
/// `end`: `rc` holders, `cached` of them prefix-cache entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    end: u32,
    rc: u32,
    cached: u32,
}

impl Run {
    /// Whether the cache is the only holder — eviction would free it.
    fn exclusive(&self) -> bool {
        self.rc == 1 && self.cached == 1
    }
}

/// Blocks handed out together, with their holder state as runs (almost
/// always one). Trailing free blocks are trimmed, so a segment's length
/// is the end of its last held block.
#[derive(Debug, Clone, Default)]
struct Segment {
    runs: Vec<Run>,
}

impl Segment {
    fn len(&self) -> u32 {
        self.runs.last().map_or(0, |r| r.end)
    }

    /// Ensures a run boundary at offset `at`; returns the index of the
    /// first run starting there.
    fn split(&mut self, at: u32) -> usize {
        let i = self.runs.partition_point(|r| r.end <= at);
        let start = i.checked_sub(1).map_or(0, |p| self.runs[p].end);
        if i < self.runs.len() && start < at {
            let head = Run {
                end: at,
                ..self.runs[i]
            };
            self.runs.insert(i, head);
            return i + 1;
        }
        i
    }
}

/// A fixed pool of KV-cache blocks with span-granular reference counts.
///
/// The pool tracks *which* blocks are held and by *how many* holders —
/// enough to model paged allocation, prefix sharing, fragmentation,
/// and capacity pressure — without storing any cache contents.
///
/// Blocks are handed out in allocation segments and counted per run of
/// equally-held blocks, so every operation costs per span a sequence
/// holds, not per block: a context of thousands of blocks forks,
/// publishes, releases and exports in a handful of steps. A pool sized
/// for millions of blocks (a whole Attn-PIM pool at block size 1) costs
/// nothing until blocks are actually allocated.
#[derive(Debug, Clone)]
pub struct KvBlockPool {
    block_size: u64,
    total_blocks: u64,
    /// Allocation segments by id; a fully released one is recycled.
    segments: Vec<Segment>,
    /// Ids of segments holding no block, reused LIFO.
    free_segments: Vec<u32>,
    blocks_in_use: u64,
    /// Cache-held blocks whose only holder is the cache — maintained
    /// incrementally so "how much could eviction reclaim right now"
    /// is O(1) in the serving engine's admission loop.
    tracked_exclusive: u64,
}

impl KvBlockPool {
    /// A pool of `total_blocks` blocks, each holding `block_size`
    /// token slots.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    #[track_caller]
    pub fn new(block_size: u64, total_blocks: u64) -> Self {
        assert!(block_size > 0, "block size must be positive");
        assert!(
            total_blocks <= u32::MAX as u64,
            "pool of {total_blocks} blocks exceeds the id space"
        );
        Self {
            block_size,
            total_blocks,
            segments: Vec::new(),
            free_segments: Vec::new(),
            blocks_in_use: 0,
            tracked_exclusive: 0,
        }
    }

    /// Tokens per block.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Physical blocks in the pool.
    pub fn total_blocks(&self) -> u64 {
        self.total_blocks
    }

    /// Blocks currently held by at least one sequence or cache entry.
    pub fn blocks_in_use(&self) -> u64 {
        self.blocks_in_use
    }

    /// Blocks available for allocation.
    pub fn free_blocks(&self) -> u64 {
        self.total_blocks - self.blocks_in_use
    }

    /// Holders of `block` right now.
    pub fn refcount(&self, block: BlockId) -> u32 {
        let off = block as u32;
        self.segments
            .get((block >> 32) as usize)
            .and_then(|s| s.runs.iter().find(|r| off < r.end))
            .map_or(0, |r| r.rc)
    }

    /// Blocks needed to hold `tokens` logical tokens.
    pub fn blocks_for(&self, tokens: u64) -> u64 {
        tokens.div_ceil(self.block_size)
    }

    /// Extra blocks a sequence of `tokens` logical tokens needs to
    /// grow by `extra` more.
    pub fn growth_blocks(&self, tokens: u64, extra: u64) -> u64 {
        self.blocks_for(tokens + extra) - self.blocks_for(tokens)
    }

    /// Occupancy snapshot.
    pub fn stats(&self) -> KvPoolStats {
        KvPoolStats {
            block_size: self.block_size,
            total_blocks: self.total_blocks,
            blocks_in_use: self.blocks_in_use,
            free_blocks: self.free_blocks(),
        }
    }

    /// An empty sequence (holds no blocks until tokens are appended).
    pub fn new_seq(&self) -> KvSeq {
        KvSeq::default()
    }

    /// Forks the first `blocks` blocks of `seq` into a new sequence
    /// without copying: every block gains a holder and the fork starts
    /// at `blocks × block_size` logical tokens.
    ///
    /// # Panics
    ///
    /// Panics if `seq` holds fewer than `blocks` blocks.
    #[track_caller]
    pub fn fork(&mut self, seq: &KvSeq, blocks: u64) -> KvSeq {
        assert!(blocks <= seq.blocks, "forked past the held blocks");
        let mut fork = KvSeq::default();
        for span in seq.range(0, blocks) {
            self.adjust(span, 1, false);
            fork.push(span);
        }
        fork.tokens = blocks * self.block_size;
        fork
    }

    /// Appends `tokens` logical tokens to `seq`, allocating blocks as
    /// needed. If the partially-filled tail block is shared with
    /// another holder, it is copied on write: a fresh block replaces it
    /// in this sequence and the shared original loses one holder.
    ///
    /// Returns `false` (leaving `seq` untouched) if the free blocks
    /// cannot cover the allocation.
    #[must_use = "allocation can fail when the pool is exhausted"]
    pub fn append(&mut self, seq: &mut KvSeq, tokens: u64) -> bool {
        if tokens == 0 {
            return true;
        }
        let tail_shared = self.tail_shared(seq);
        let new_blocks = self.blocks_for(seq.tokens + tokens) - seq.blocks + u64::from(tail_shared);
        if self.free_blocks() < new_blocks {
            return false;
        }
        if tail_shared {
            // Copy-on-write: the divergent tail moves to a private
            // block; the shared original keeps its other holders.
            let tail = seq.pop_block();
            self.adjust(tail, -1, false);
        }
        self.grow(seq, new_blocks);
        seq.tokens += tokens;
        debug_assert_eq!(seq.blocks, self.blocks_for(seq.tokens));
        true
    }

    /// Whether the next [`append`](Self::append) to `seq` copies on
    /// write: its partially-filled tail block has another holder, so
    /// the append takes one block more than
    /// [`growth_blocks`](Self::growth_blocks) counts.
    pub fn tail_shared(&self, seq: &KvSeq) -> bool {
        seq.slack(self.block_size) > 0
            && seq
                .spans
                .last()
                .is_some_and(|t| self.refcount(u64::from(t.seg) << 32 | u64::from(t.hi - 1)) > 1)
    }

    /// Releases every block `seq` holds. Blocks shared with other
    /// holders stay allocated; exclusively-held blocks become free.
    /// Returns how many blocks became free.
    ///
    /// # Panics
    ///
    /// Panics if a block is already free (a double release is a
    /// bookkeeping bug, not a workload condition).
    #[track_caller]
    pub fn release_seq(&mut self, seq: KvSeq) -> u64 {
        seq.spans.iter().map(|&s| self.adjust(s, -1, false)).sum()
    }

    /// Detaches `seq` from this pool for migration: every block loses
    /// this sequence's hold (shared blocks keep their other holders,
    /// exactly like [`release_seq`](Self::release_seq)), and the
    /// returned [`KvSeqExport`] carries the logical state a destination
    /// pool re-materializes with [`import_seq`](Self::import_seq).
    pub fn export_seq(&mut self, seq: KvSeq) -> KvSeqExport {
        let export = KvSeqExport {
            tokens: seq.tokens,
            blocks: seq.blocks,
        };
        self.release_seq(seq);
        export
    }

    /// Re-materializes an exported sequence in this pool: allocates
    /// fresh blocks for its logical tokens (at *this* pool's block
    /// granularity, which may differ from the source's) and returns the
    /// live sequence. Returns `None`, allocating nothing, if the free
    /// blocks cannot cover it — the caller keeps the export and retries
    /// after eviction or preemption frees capacity.
    #[must_use = "allocation can fail when the pool is exhausted"]
    pub fn import_seq(&mut self, export: KvSeqExport) -> Option<KvSeq> {
        let mut seq = self.new_seq();
        self.append(&mut seq, export.tokens).then_some(seq)
    }

    /// Cache-held blocks whose only holder is the cache — exactly what
    /// eviction could return to the free pool right now.
    pub fn tracked_exclusive_blocks(&self) -> u64 {
        self.tracked_exclusive
    }

    /// Adds a prefix-cache hold on blocks `from..to` of `src` and
    /// appends them to the cache entry `entry` (a full-block sequence).
    pub(crate) fn cache_range(&mut self, src: &KvSeq, from: u64, to: u64, entry: &mut KvSeq) {
        for span in src.range(from, to) {
            self.adjust(span, 1, true);
            entry.push(span);
        }
        entry.tokens = entry.blocks * self.block_size;
    }

    /// Drops a prefix-cache entry's holds; returns the blocks freed.
    pub(crate) fn release_cached(&mut self, entry: KvSeq) -> u64 {
        entry.spans.iter().map(|&s| self.adjust(s, -1, true)).sum()
    }

    /// Hands `n` fresh blocks to `seq`, extending its tail segment in
    /// place when `seq` holds that segment's end, else opening a new one.
    fn grow(&mut self, seq: &mut KvSeq, n: u64) {
        if n == 0 {
            return;
        }
        self.blocks_in_use += n;
        let n = n as u32; // at most `total_blocks`, which fits
        let seg = match seq.spans.last() {
            Some(t) if t.hi == self.segments[t.seg as usize].len() => t.seg,
            _ => self.free_segments.pop().unwrap_or_else(|| {
                self.segments.push(Segment::default());
                (self.segments.len() - 1) as u32
            }),
        };
        let runs = &mut self.segments[seg as usize].runs;
        let lo = runs.last().map_or(0, |r| r.end);
        match runs.last_mut() {
            Some(r) if (r.rc, r.cached) == (1, 0) => r.end += n,
            _ => runs.push(Run {
                end: lo + n,
                rc: 1,
                cached: 0,
            }),
        }
        seq.push(Span {
            seg,
            lo,
            hi: lo + n,
        });
    }

    /// Adds (`delta = 1`) or drops (`-1`) one holder — a prefix-cache
    /// holder when `cached` — on every block of `span`; returns how
    /// many blocks became free.
    #[track_caller]
    fn adjust(&mut self, span: Span, delta: i32, cached: bool) -> u64 {
        const MISUSE: &str = "double-released (or retained) a free block";
        let seg = &mut self.segments[span.seg as usize];
        // Blocks past the trimmed end are free.
        assert!(span.hi <= seg.len(), "{MISUSE}");
        let first = seg.split(span.lo);
        let last = seg.split(span.hi);
        let mut start = first.checked_sub(1).map_or(0, |p| seg.runs[p].end);
        let (mut freed, mut exclusive) = (0, 0i64);
        for run in &mut seg.runs[first..last] {
            let n = u64::from(run.end - start);
            assert!(run.rc > 0, "{MISUSE}");
            start = run.end;
            let was = run.exclusive();
            run.rc = run.rc.wrapping_add_signed(delta);
            if cached {
                run.cached = run.cached.wrapping_add_signed(delta);
            }
            exclusive += (i64::from(run.exclusive()) - i64::from(was)) * n as i64;
            if run.rc == 0 {
                freed += n;
            }
        }
        // Coalesce equally-held neighbours and trim the free tail.
        seg.runs.dedup_by(|next, prev| {
            let same = (next.rc, next.cached) == (prev.rc, prev.cached);
            if same {
                prev.end = next.end;
            }
            same
        });
        if seg.runs.last().is_some_and(|r| r.rc == 0) {
            seg.runs.pop();
        }
        if seg.runs.is_empty() {
            self.free_segments.push(span.seg);
        }
        self.blocks_in_use -= freed;
        self.tracked_exclusive = self.tracked_exclusive.wrapping_add_signed(exclusive);
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_roundtrip_conserves_blocks() {
        let mut pool = KvBlockPool::new(16, 8);
        let mut seq = pool.new_seq();
        assert!(pool.append(&mut seq, 40)); // 3 blocks (ceil 40/16)
        assert_eq!(seq.block_count(), 3);
        assert_eq!(seq.tokens(), 40);
        assert_eq!(seq.slack(16), 8);
        assert_eq!(pool.blocks_in_use(), 3);
        assert_eq!(pool.free_blocks(), 5);
        assert_eq!(pool.release_seq(seq), 3);
        assert_eq!(pool.blocks_in_use(), 0);
        assert_eq!(pool.free_blocks(), 8);
    }

    #[test]
    fn block_size_one_counts_tokens_exactly() {
        let mut pool = KvBlockPool::new(1, 100);
        let mut seq = pool.new_seq();
        assert!(pool.append(&mut seq, 37));
        assert_eq!(pool.blocks_in_use(), 37);
        assert_eq!(seq.slack(1), 0);
        assert!(pool.append(&mut seq, 5));
        assert_eq!(pool.blocks_in_use(), 42);
    }

    #[test]
    fn construction_is_lazy_for_huge_pools() {
        // A pool sized like a whole attention pool at block size 1
        // materializes nothing up front.
        let mut pool = KvBlockPool::new(1, 3_000_000_000);
        assert_eq!(pool.free_blocks(), 3_000_000_000);
        let mut seq = pool.new_seq();
        assert!(pool.append(&mut seq, 3));
        assert_eq!(pool.blocks_in_use(), 3);
        assert_eq!(pool.free_blocks(), 3_000_000_000 - 3);
        assert_eq!(pool.refcount(7 << 32), 0); // never allocated
        pool.release_seq(seq);
    }

    #[test]
    fn exhaustion_fails_cleanly_without_partial_allocation() {
        let mut pool = KvBlockPool::new(4, 2);
        let mut seq = pool.new_seq();
        assert!(!pool.append(&mut seq, 9)); // needs 3 blocks, has 2
        assert_eq!(seq.tokens(), 0);
        assert_eq!(pool.blocks_in_use(), 0);
        assert!(pool.append(&mut seq, 8));
        assert!(!pool.append(&mut seq, 1));
        assert_eq!(seq.tokens(), 8);
    }

    #[test]
    fn fork_shares_until_release() {
        let mut pool = KvBlockPool::new(8, 10);
        let mut a = pool.new_seq();
        assert!(pool.append(&mut a, 16)); // 2 full blocks
        let b = pool.fork(&a, 2);
        assert_eq!(b.tokens(), 16);
        assert_eq!(pool.blocks_in_use(), 2); // shared, not duplicated
        assert!(a.block_ids().all(|blk| pool.refcount(blk) == 2));
        assert_eq!(pool.release_seq(a), 0); // b still holds both
        assert_eq!(pool.blocks_in_use(), 2);
        assert_eq!(pool.release_seq(b), 2);
        assert_eq!(pool.free_blocks(), 10);
    }

    #[test]
    fn append_to_shared_partial_tail_copies_on_write() {
        let mut pool = KvBlockPool::new(8, 10);
        let mut a = pool.new_seq();
        assert!(pool.append(&mut a, 12)); // 2 blocks, tail half full

        // Share the *partial* tail deliberately (b believes it holds 16
        // token slots) and append, which must trigger the copy.
        let mut b = pool.fork(&a, 2);
        let tail_before = a.block_ids().last().unwrap();
        assert_eq!(pool.refcount(tail_before), 2);
        assert!(pool.tail_shared(&a));
        assert!(!pool.tail_shared(&b), "b's 16 tokens fill its tail block");
        assert!(pool.append(&mut a, 2));
        assert!(!pool.tail_shared(&a), "the copy is private");
        let tail_after = a.block_ids().last().unwrap();
        assert_ne!(tail_before, tail_after, "divergent tail was not copied");
        assert_eq!(pool.refcount(tail_before), 1); // b keeps the original
        assert_eq!(pool.refcount(tail_after), 1);
        assert_eq!(a.tokens(), 14);
        assert!(pool.append(&mut b, 0));
        // Three distinct blocks live: the shared head, b's original
        // tail, and a's private copy.
        assert_eq!(pool.blocks_in_use(), 3);
        assert_eq!(pool.release_seq(a) + pool.release_seq(b), 3);
    }

    #[test]
    fn tracked_exclusive_follows_holder_transitions() {
        let mut pool = KvBlockPool::new(8, 8);
        let mut seq = pool.new_seq();
        assert!(pool.append(&mut seq, 16));
        // The cache takes its own hold on the first block only.
        let mut entry = pool.new_seq();
        pool.cache_range(&seq, 0, 1, &mut entry);
        assert_eq!(pool.tracked_exclusive_blocks(), 0); // seq still holds
        pool.release_seq(seq);
        assert_eq!(pool.tracked_exclusive_blocks(), 1); // cache-only now
        assert_eq!(pool.blocks_in_use(), 1);
        // A fork pins it again…
        let fork = pool.fork(&entry, 1);
        assert_eq!(pool.tracked_exclusive_blocks(), 0);
        pool.release_seq(fork);
        assert_eq!(pool.tracked_exclusive_blocks(), 1);
        // …and eviction frees it.
        assert_eq!(pool.release_cached(entry), 1);
        assert_eq!(pool.tracked_exclusive_blocks(), 0);
        assert_eq!(pool.free_blocks(), 8);
    }

    #[test]
    #[should_panic(expected = "double-released")]
    fn double_release_is_a_bug() {
        let mut pool = KvBlockPool::new(4, 4);
        let mut seq = pool.new_seq();
        assert!(pool.append(&mut seq, 4));
        pool.release_seq(seq.clone());
        pool.release_seq(seq);
    }

    #[test]
    fn growth_blocks_matches_ceil_arithmetic() {
        let pool = KvBlockPool::new(16, 4);
        assert_eq!(pool.growth_blocks(0, 1), 1);
        assert_eq!(pool.growth_blocks(15, 1), 0);
        assert_eq!(pool.growth_blocks(16, 1), 1);
        assert_eq!(pool.growth_blocks(30, 40), 3);
        let unit = KvBlockPool::new(1, 4);
        assert_eq!(unit.growth_blocks(7, 3), 3);
    }

    #[test]
    fn export_import_round_trip_restores_occupancy() {
        let mut pool = KvBlockPool::new(16, 8);
        let mut seq = pool.new_seq();
        assert!(pool.append(&mut seq, 40)); // 3 blocks
        let export = pool.export_seq(seq);
        assert_eq!(
            export,
            KvSeqExport {
                tokens: 40,
                blocks: 3
            }
        );
        // In flight: the sequence occupies nothing.
        assert_eq!(pool.blocks_in_use(), 0);
        assert_eq!(pool.free_blocks(), 8);
        let imported = pool.import_seq(export).expect("room for the import");
        assert_eq!(imported.tokens(), 40);
        assert_eq!(imported.block_count(), 3);
        assert_eq!(pool.blocks_in_use(), 3);
        assert_eq!(pool.release_seq(imported), 3);
        assert_eq!(pool.free_blocks(), 8);
    }

    #[test]
    fn export_keeps_shared_blocks_alive() {
        let mut pool = KvBlockPool::new(8, 10);
        let mut a = pool.new_seq();
        assert!(pool.append(&mut a, 16)); // 2 full blocks
        let b = pool.fork(&a, 2);
        let shared: Vec<_> = a.block_ids().collect();
        let export = pool.export_seq(a);
        assert_eq!(export.blocks, 2);
        // b still holds both blocks: exporting dropped only a's holds.
        assert_eq!(pool.blocks_in_use(), 2);
        for &blk in &shared {
            assert_eq!(pool.refcount(blk), 1);
        }
        assert_eq!(pool.release_seq(b), 2);
    }

    #[test]
    fn import_into_a_different_granularity_reblocks() {
        let mut coarse = KvBlockPool::new(16, 8);
        let mut fine = KvBlockPool::new(4, 32);
        let mut seq = coarse.new_seq();
        assert!(coarse.append(&mut seq, 40));
        let export = coarse.export_seq(seq);
        assert_eq!(export.blocks, 3); // source-granularity payload
        let imported = fine.import_seq(export).expect("room");
        assert_eq!(imported.tokens(), 40);
        assert_eq!(imported.block_count(), 10); // ceil(40 / 4)
        fine.release_seq(imported);
    }

    #[test]
    fn import_fails_cleanly_when_the_destination_is_full() {
        let mut pool = KvBlockPool::new(4, 2);
        let export = KvSeqExport {
            tokens: 12,
            blocks: 3,
        };
        assert!(pool.import_seq(export).is_none());
        assert_eq!(pool.blocks_in_use(), 0);
        // The export is Copy: the caller can retry once room appears.
        let mut pool = KvBlockPool::new(4, 3);
        assert!(pool.import_seq(export).is_some());
    }

    #[test]
    fn decode_appends_extend_one_segment_in_place() {
        let mut pool = KvBlockPool::new(4, 64);
        let mut seq = pool.new_seq();
        for _ in 0..40 {
            assert!(pool.append(&mut seq, 1));
        }
        assert_eq!(seq.block_count(), 10);
        assert_eq!(seq.spans.len(), 1);
        assert_eq!(pool.segments.len(), 1);
        // A fork shares the head; each side's appends stay private.
        let mut fork = pool.fork(&seq, 6);
        assert!(pool.append(&mut fork, 9));
        assert!(pool.append(&mut seq, 5));
        assert_eq!(fork.spans.len(), 2);
        assert_eq!(seq.spans.len(), 1);
        assert_eq!(pool.blocks_in_use(), 12 + 3);
        assert_eq!(pool.release_seq(seq), 6);
        assert_eq!(pool.release_seq(fork), 9);
        assert_eq!(pool.free_segments.len(), pool.segments.len());
    }

    #[test]
    #[should_panic(expected = "forked past")]
    fn forking_past_the_held_blocks_is_a_bug() {
        let mut pool = KvBlockPool::new(4, 4);
        let mut seq = pool.new_seq();
        assert!(pool.append(&mut seq, 4));
        pool.fork(&seq, 2);
    }

    #[test]
    fn stats_count_used_and_free_blocks() {
        let mut pool = KvBlockPool::new(2, 4);
        let mut seq = pool.new_seq();
        assert!(pool.append(&mut seq, 3));
        let stats = pool.stats();
        assert_eq!(stats.blocks_in_use, 2);
        assert_eq!(stats.free_blocks, 2);
    }
}
