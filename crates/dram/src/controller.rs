//! Per-bank PIM read-stream controller.
//!
//! One [`Controller`] models a whole PIM die's command sequencing in
//! near-bank mode: every bank streams into its own processing unit, so
//! there is no shared data bus and each bank has its own sequencer. Only
//! the activation window (tRRD/tFAW) and refresh are shared. This is what
//! gives PIM its bandwidth advantage, and deriving *how much* is the
//! whole point of [`crate::derive`].
//!
//! Each bank serves its queue in FIFO order with an open-page row policy:
//! a head request whose row is open reads, one on an idle bank activates,
//! and one that conflicts precharges. Refresh pre-empts everything: when
//! it falls due, every open bank precharges as soon as it may, and all
//! banks refresh together. A drain costs O(banks) per cycle plus O(1) per
//! command: linear in the requests queued.

use crate::bank::{Bank, BankState};
use crate::command::{DramCommand, MemRequest};
use crate::timing::{Cycle, TimingParams};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Aggregate statistics for a controller run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControllerStats {
    /// Requests completed (data transferred).
    pub completed: u64,
    /// Requests that hit an open row.
    pub row_hits: u64,
    /// Requests that found their bank idle.
    pub row_misses: u64,
    /// Requests that had to close another row first.
    pub row_conflicts: u64,
    /// Total DRAM commands issued.
    pub commands_issued: u64,
    /// All-bank refresh operations performed.
    pub refreshes: u64,
    /// Bytes moved by completed requests.
    pub bytes_transferred: u64,
}

#[derive(Debug, Clone)]
struct Pending {
    req: MemRequest,
    classified: bool,
}

/// Error returned when a drain exceeds its cycle budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainTimeout {
    /// Cycles simulated before giving up.
    pub cycles: Cycle,
    /// Requests still outstanding.
    pub outstanding: usize,
}

impl core::fmt::Display for DrainTimeout {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "controller failed to drain within {} cycles ({} requests left)",
            self.cycles, self.outstanding
        )
    }
}

impl std::error::Error for DrainTimeout {}

/// A cycle-level DRAM command scheduler over a set of banks.
///
/// # Example
///
/// ```
/// use papi_dram::{Controller, MemRequest, TimingParams};
///
/// let mut ctrl = Controller::new(TimingParams::hbm3(), 8, 32);
/// // Stream two full rows on every bank.
/// for bank in 0..8 {
///     for row in 0..2 {
///         for column in 0..64 {
///             ctrl.enqueue(MemRequest::read(bank, row, column));
///         }
///     }
/// }
/// let cycles = ctrl.run_until_drained(1_000_000).unwrap();
/// assert!(cycles > 0);
/// assert_eq!(ctrl.stats().completed, 8 * 2 * 64);
/// ```
#[derive(Debug, Clone)]
pub struct Controller {
    timing: TimingParams,
    banks: Vec<Bank>,
    queues: Vec<VecDeque<Pending>>,
    outstanding: usize,
    now: Cycle,
    act_history: VecDeque<Cycle>,
    next_refresh_due: Cycle,
    refreshing_until: Option<Cycle>,
    column_bytes: u64,
    last_completion: Cycle,
    stats: ControllerStats,
}

impl Controller {
    /// Creates a controller over `banks` banks with `column_bytes` moved
    /// per request.
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0`, `column_bytes == 0`, or the timing set is
    /// internally inconsistent.
    #[track_caller]
    pub fn new(timing: TimingParams, banks: usize, column_bytes: u64) -> Self {
        assert!(banks > 0, "controller needs at least one bank");
        assert!(column_bytes > 0, "column_bytes must be non-zero");
        timing.validate().expect("invalid timing parameters");
        let next_refresh_due = timing.t_refi;
        Self {
            timing,
            banks: (0..banks).map(|_| Bank::new()).collect(),
            queues: (0..banks).map(|_| VecDeque::new()).collect(),
            outstanding: 0,
            now: 0,
            act_history: VecDeque::new(),
            next_refresh_due,
            refreshing_until: None,
            column_bytes,
            last_completion: 0,
            stats: ControllerStats::default(),
        }
    }

    /// Current simulated cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Adds a request to its bank's queue.
    ///
    /// # Panics
    ///
    /// Panics if the request's bank index is out of range.
    #[track_caller]
    pub fn enqueue(&mut self, req: MemRequest) {
        assert!(
            req.bank < self.banks.len(),
            "bank {} out of range ({} banks)",
            req.bank,
            self.banks.len()
        );
        self.queues[req.bank].push_back(Pending {
            req,
            classified: false,
        });
        self.outstanding += 1;
    }

    /// Enqueues sequential reads covering `columns` columns of one row —
    /// the access pattern of a PIM GEMV streaming a weight row.
    pub(crate) fn enqueue_row_stream(&mut self, bank: usize, row: u64, columns: u64) {
        for col in 0..columns {
            self.enqueue(MemRequest::read(bank, row, col));
        }
    }

    fn can_activate_shared(&self, now: Cycle) -> bool {
        // tRRD: distance from the most recent ACT anywhere in the set.
        if let Some(&last) = self.act_history.back() {
            if now < last + self.timing.t_rrd {
                return false;
            }
        }
        // tFAW: at most 4 ACTs in any rolling window.
        let window_start = now.saturating_sub(self.timing.t_faw - 1);
        let in_window = self
            .act_history
            .iter()
            .filter(|&&t| t >= window_start)
            .count();
        in_window < 4
    }

    fn record_activate(&mut self, now: Cycle) {
        self.act_history.push_back(now);
        // Keep only what tFAW can still see.
        while let Some(&front) = self.act_history.front() {
            if front + self.timing.t_faw <= now {
                self.act_history.pop_front();
            } else {
                break;
            }
        }
    }

    /// The next command the head request of `bank`'s queue needs, if any.
    fn needed_command(&self, bank: usize) -> Option<DramCommand> {
        let head = self.queues[bank].front()?;
        Some(match self.banks[bank].state() {
            BankState::Idle => DramCommand::Activate { row: head.req.row },
            BankState::Active { row } if row == head.req.row => DramCommand::Read {
                column: head.req.column,
            },
            BankState::Active { .. } => DramCommand::Precharge,
        })
    }

    fn classify(&mut self, bank: usize, cmd: &DramCommand) {
        let Some(head) = self.queues[bank].front_mut() else {
            return;
        };
        if head.classified {
            return;
        }
        head.classified = true;
        match cmd {
            DramCommand::Read { .. } => self.stats.row_hits += 1,
            DramCommand::Activate { .. } => self.stats.row_misses += 1,
            DramCommand::Precharge => self.stats.row_conflicts += 1,
            DramCommand::Refresh => {}
        }
    }

    /// Issues `cmd` on `bank` at the current cycle, with all shared-state
    /// bookkeeping. Caller must have verified issuability.
    fn issue(&mut self, bank: usize, cmd: DramCommand) {
        self.classify(bank, &cmd);
        let completion = self.banks[bank]
            .issue(cmd, self.now, &self.timing)
            .expect("scheduler picked an illegal command; this is a bug");
        self.stats.commands_issued += 1;
        match cmd {
            DramCommand::Activate { .. } => self.record_activate(self.now),
            DramCommand::Read { .. } => {
                // Request completes.
                self.queues[bank].pop_front();
                self.outstanding -= 1;
                self.stats.completed += 1;
                self.stats.bytes_transferred += self.column_bytes;
                self.last_completion = self.last_completion.max(completion);
            }
            DramCommand::Precharge | DramCommand::Refresh => {}
        }
    }

    /// Whether `cmd` may issue on `bank` right now, including the shared
    /// activation window.
    fn issuable(&self, bank: usize, cmd: &DramCommand) -> bool {
        self.banks[bank].can_issue(cmd, self.now)
            && (!matches!(cmd, DramCommand::Activate { .. }) || self.can_activate_shared(self.now))
    }

    /// Advances the refresh state machine. Returns `true` if refresh is in
    /// control of this cycle.
    fn refresh_tick(&mut self) -> bool {
        if let Some(until) = self.refreshing_until {
            if self.now < until {
                return true;
            }
            self.refreshing_until = None;
        }
        if self.now < self.next_refresh_due {
            return false;
        }
        // Close every open bank that may precharge now.
        let mut all_idle = true;
        for i in 0..self.banks.len() {
            if matches!(self.banks[i].state(), BankState::Active { .. }) {
                all_idle = false;
                if self.banks[i].can_issue(&DramCommand::Precharge, self.now) {
                    self.issue(i, DramCommand::Precharge);
                }
            }
        }
        if !all_idle {
            return true;
        }
        // All banks idle: refresh together if every bank is ready.
        if self
            .banks
            .iter()
            .all(|b| b.can_issue(&DramCommand::Refresh, self.now))
        {
            for bank in &mut self.banks {
                bank.issue(DramCommand::Refresh, self.now, &self.timing)
                    .expect("refresh on idle bank must succeed");
            }
            self.stats.refreshes += 1;
            self.stats.commands_issued += self.banks.len() as u64;
            self.refreshing_until = Some(self.now + self.timing.t_rfc);
            self.next_refresh_due += self.timing.t_refi;
        }
        true
    }

    /// Simulates one cycle: refresh if it is due, else every bank issues
    /// its head request's next command if it may.
    pub fn tick(&mut self) {
        if !self.refresh_tick() {
            for bank in 0..self.banks.len() {
                if let Some(cmd) = self.needed_command(bank) {
                    if self.issuable(bank, &cmd) {
                        self.issue(bank, cmd);
                    }
                }
            }
        }
        self.now += 1;
    }

    /// Runs until every request has completed.
    ///
    /// # Errors
    ///
    /// Returns [`DrainTimeout`] if the queues fail to drain within
    /// `max_cycles` — which indicates either an unreasonably small budget
    /// or a scheduler deadlock (a bug the tests would catch).
    pub fn run_until_drained(&mut self, max_cycles: Cycle) -> Result<Cycle, DrainTimeout> {
        let start = self.now;
        while self.outstanding > 0 {
            if self.now - start >= max_cycles {
                return Err(DrainTimeout {
                    cycles: self.now - start,
                    outstanding: self.outstanding,
                });
            }
            self.tick();
        }
        Ok(self.last_completion.max(self.now) - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn streaming_controller(banks: usize) -> Controller {
        Controller::new(TimingParams::hbm3(), banks, 32)
    }

    #[test]
    fn single_read_completes() {
        let mut c = streaming_controller(4);
        c.enqueue(MemRequest::read(2, 10, 0));
        let cycles = c.run_until_drained(10_000).unwrap();
        let t = TimingParams::hbm3();
        // ACT at 0 (first schedulable cycle), RD at tRCD, data at +tCL+tBUS.
        assert_eq!(c.stats().completed, 1);
        assert_eq!(c.stats().row_misses, 1);
        assert!(cycles >= t.t_rcd + t.t_cl);
    }

    #[test]
    fn row_hits_and_conflicts_are_counted() {
        let mut c = streaming_controller(2);
        // Two to the same row (miss + hit), one conflict after.
        c.enqueue(MemRequest::read(0, 5, 0));
        c.enqueue(MemRequest::read(0, 5, 1));
        c.enqueue(MemRequest::read(0, 9, 0));
        c.run_until_drained(100_000).unwrap();
        let s = c.stats();
        assert_eq!(s.completed, 3);
        assert_eq!(s.row_misses, 1);
        assert_eq!(s.row_hits, 1);
        assert_eq!(s.row_conflicts, 1);
    }

    #[test]
    fn refresh_fires_and_blocks_progress() {
        let t = TimingParams::hbm3();
        let mut c = Controller::new(t.clone(), 2, 32);
        // Enough work to cross a refresh interval.
        let rows = (2 * t.t_refi / (t.t_rcd + 64 * t.t_ccd)) + 2;
        for row in 0..rows {
            c.enqueue_row_stream(0, row, 64);
        }
        c.run_until_drained(100_000_000).unwrap();
        assert!(c.stats().refreshes >= 1, "no refresh in a long run");
    }

    #[test]
    fn drain_timeout_reports_outstanding() {
        let mut c = streaming_controller(1);
        for row in 0..64 {
            c.enqueue_row_stream(0, row, 64);
        }
        let err = c.run_until_drained(10).unwrap_err();
        assert!(err.outstanding > 0);
        assert!(err.to_string().contains("drain"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn enqueue_bad_bank_panics() {
        let mut c = streaming_controller(2);
        c.enqueue(MemRequest::read(2, 0, 0));
    }

    #[test]
    fn faw_limits_activation_burst() {
        // 8 banks all wanting to activate at once: with tFAW=16 and
        // tRRD=4, the 5th ACT must wait for the window.
        let t = TimingParams::hbm3();
        let mut c = Controller::new(t.clone(), 8, 32);
        for bank in 0..8 {
            c.enqueue(MemRequest::read(bank, 0, 0));
        }
        // Simulate until all ACTs would have been issued.
        for _ in 0..t.t_faw {
            c.tick();
        }
        let acts = c.stats().row_misses;
        assert!(
            acts <= 4,
            "tFAW violated: {acts} activations inside one window"
        );
    }

    #[test]
    fn completed_bytes_match_requests() {
        let mut c = streaming_controller(4);
        for bank in 0..4 {
            c.enqueue_row_stream(bank, 0, 16);
        }
        c.run_until_drained(1_000_000).unwrap();
        assert_eq!(c.stats().bytes_transferred, 4 * 16 * 32);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Any random request stream drains — no schedule deadlocks —
            /// and every request is classified exactly once.
            #[test]
            fn random_streams_always_drain(
                reqs in proptest::collection::vec((0usize..4, 0u64..8, 0u64..16), 1..128),
            ) {
                let mut c = Controller::new(TimingParams::hbm3(), 4, 32);
                for &(bank, row, col) in &reqs {
                    c.enqueue(MemRequest::read(bank, row, col));
                }
                let cycles = c.run_until_drained(50_000_000).unwrap();
                let s = c.stats();
                prop_assert_eq!(s.completed as usize, reqs.len());
                prop_assert_eq!(
                    s.row_hits + s.row_misses + s.row_conflicts,
                    reqs.len() as u64
                );
                prop_assert!(cycles > 0);
            }

            /// More banks never make a fixed-size PIM workload slower.
            #[test]
            fn more_banks_never_slower(banks in 1usize..8) {
                let run = |n: usize| {
                    let mut c = Controller::new(TimingParams::hbm3(), n, 32);
                    // Fixed 8 row-streams spread round-robin.
                    for i in 0..8u64 {
                        c.enqueue_row_stream(i as usize % n, i, 32);
                    }
                    c.run_until_drained(50_000_000).unwrap()
                };
                prop_assert!(run(banks + 1) <= run(banks) + 1);
            }
        }
    }
}
