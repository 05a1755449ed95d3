//! FR-FCFS memory controller.
//!
//! One [`Controller`] models the command sequencer of a pseudo-channel (or
//! of a whole PIM die in [`BusModel::PerBankPim`] mode) and the set of
//! banks behind it. Scheduling is first-ready, first-come-first-served
//! with an open-page row policy: row-buffer hits issue ahead of older
//! misses, conflicts precharge, and refresh pre-empts everything.
//!
//! Age is an arrival stamp: [`Controller::enqueue`] numbers each request
//! from a monotone counter, and each bank serves its queue in FIFO order,
//! so a bank's age is the stamp of its queue head. The shared-bus
//! scheduler picks the oldest head among the banks that can issue, and
//! completing a request pops its bank's queue in O(1). A drain therefore
//! costs O(banks) per cycle plus O(1) per command: linear in the
//! requests queued, not in their square.
//!
//! Two bus models are supported:
//!
//! - [`BusModel::SharedDataBus`] — conventional host access: one command
//!   per cycle, and read/write bursts serialize on the shared data bus.
//!   This is how a GPU sees HBM.
//! - [`BusModel::PerBankPim`] — near-bank PIM execution: every bank
//!   streams into its own processing unit, so there is no shared data
//!   bus; only the activation window (tRRD/tFAW) and refresh are shared.
//!   This is what gives PIM its bandwidth advantage, and deriving *how
//!   much* is the whole point of [`crate::derive`].

use crate::bank::{Bank, BankState};
use crate::command::{DramCommand, MemRequest, RequestKind};
use crate::energy::EnergyCounter;
use crate::timing::{Cycle, TimingParams};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// How read/write data leaves the banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BusModel {
    /// Conventional shared data bus (one burst at a time, one command per
    /// cycle across the whole controller).
    SharedDataBus,
    /// Near-bank PIM: each bank streams to its own consumer; no shared
    /// data bus and per-bank command sequencing.
    PerBankPim,
}

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
    /// Arrival stamp; FR-FCFS ages by it.
    seq: u64,
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
/// use papi_dram::{BusModel, Controller, MemRequest, TimingParams};
///
/// let mut ctrl = Controller::new(TimingParams::hbm3(), 8, 32, BusModel::PerBankPim);
/// // Stream two full rows on every bank.
/// for bank in 0..8 {
///     for row in 0..2 {
///         ctrl.enqueue_row_stream(bank, row, 64);
///     }
/// }
/// let cycles = ctrl.run_until_drained(1_000_000).unwrap();
/// assert!(cycles > 0);
/// assert_eq!(ctrl.stats().completed, 8 * 2 * 64);
/// ```
#[derive(Debug, Clone)]
pub struct Controller {
    timing: TimingParams,
    bus: BusModel,
    banks: Vec<Bank>,
    queues: Vec<VecDeque<Pending>>,
    /// Stamp the next enqueued request receives.
    next_seq: u64,
    outstanding: usize,
    now: Cycle,
    data_bus_free_at: Cycle,
    act_history: VecDeque<Cycle>,
    next_refresh_due: Cycle,
    refreshing_until: Option<Cycle>,
    refresh_enabled: bool,
    column_bytes: u64,
    last_completion: Cycle,
    energy: EnergyCounter,
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
    pub fn new(timing: TimingParams, banks: usize, column_bytes: u64, bus: BusModel) -> Self {
        assert!(banks > 0, "controller needs at least one bank");
        assert!(column_bytes > 0, "column_bytes must be non-zero");
        timing.validate().expect("invalid timing parameters");
        let next_refresh_due = timing.t_refi;
        Self {
            timing,
            bus,
            banks: (0..banks).map(|_| Bank::new()).collect(),
            queues: (0..banks).map(|_| VecDeque::new()).collect(),
            next_seq: 0,
            outstanding: 0,
            now: 0,
            data_bus_free_at: 0,
            act_history: VecDeque::new(),
            next_refresh_due,
            refreshing_until: None,
            refresh_enabled: true,
            column_bytes,
            last_completion: 0,
            energy: EnergyCounter::default(),
            stats: ControllerStats::default(),
        }
    }

    /// Disables periodic refresh (useful for isolating timing effects in
    /// unit tests; real derivations keep it on).
    pub fn set_refresh_enabled(&mut self, enabled: bool) {
        self.refresh_enabled = enabled;
    }

    /// Number of banks behind this controller.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Current simulated cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Cycle at which the last data beat completed.
    pub fn last_completion(&self) -> Cycle {
        self.last_completion
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Energy event counters gathered so far.
    pub fn energy(&self) -> EnergyCounter {
        self.energy
    }

    /// Requests not yet completed.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Adds a request to the controller's queues.
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
            seq: self.next_seq,
        });
        self.next_seq += 1;
        self.outstanding += 1;
    }

    /// Enqueues sequential reads covering `columns` columns of one row —
    /// the access pattern of a PIM GEMV streaming a weight row.
    pub fn enqueue_row_stream(&mut self, bank: usize, row: u64, columns: u64) {
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
            BankState::Active { row } if row == head.req.row => match head.req.kind {
                RequestKind::Read => DramCommand::Read {
                    column: head.req.column,
                },
                RequestKind::Write => DramCommand::Write {
                    column: head.req.column,
                },
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
            DramCommand::Read { .. } | DramCommand::Write { .. } => self.stats.row_hits += 1,
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
            DramCommand::Activate { .. } => {
                self.energy.activations += 1;
                self.record_activate(self.now);
            }
            DramCommand::Read { .. } | DramCommand::Write { .. } => {
                match cmd {
                    DramCommand::Read { .. } => self.energy.read_bytes += self.column_bytes,
                    _ => self.energy.write_bytes += self.column_bytes,
                }
                if self.bus == BusModel::SharedDataBus {
                    self.energy.io_bytes += self.column_bytes;
                    // Bursts pipeline behind CAS latency: two reads t_bus
                    // apart occupy back-to-back bus slots, so occupancy is
                    // tracked in command-issue coordinates.
                    self.data_bus_free_at = self.now + self.timing.t_bus;
                }
                // Request completes.
                self.queues[bank].pop_front();
                self.outstanding -= 1;
                self.stats.completed += 1;
                self.stats.bytes_transferred += self.column_bytes;
                self.last_completion = self.last_completion.max(completion);
            }
            DramCommand::Precharge => {}
            DramCommand::Refresh => {}
        }
    }

    /// Whether `cmd` may issue on `bank` right now, including shared
    /// constraints (activation window, data bus).
    fn issuable(&self, bank: usize, cmd: &DramCommand) -> bool {
        if !self.banks[bank].can_issue(cmd, self.now) {
            return false;
        }
        match cmd {
            DramCommand::Activate { .. } => self.can_activate_shared(self.now),
            DramCommand::Read { .. } | DramCommand::Write { .. } => {
                self.bus == BusModel::PerBankPim || self.now >= self.data_bus_free_at
            }
            _ => true,
        }
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
        if !self.refresh_enabled || self.now < self.next_refresh_due {
            return false;
        }
        // Close any open banks first (one PRE per cycle on the shared bus,
        // all at once in PIM mode).
        let mut all_idle = true;
        for i in 0..self.banks.len() {
            if matches!(self.banks[i].state(), BankState::Active { .. }) {
                all_idle = false;
                if self.banks[i].can_issue(&DramCommand::Precharge, self.now) {
                    self.issue(i, DramCommand::Precharge);
                    if self.bus == BusModel::SharedDataBus {
                        break;
                    }
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
            for i in 0..self.banks.len() {
                self.banks[i]
                    .issue(DramCommand::Refresh, self.now, &self.timing)
                    .expect("refresh on idle bank must succeed");
                self.energy.bank_refreshes += 1;
            }
            self.stats.refreshes += 1;
            self.stats.commands_issued += self.banks.len() as u64;
            self.refreshing_until = Some(self.now + self.timing.t_rfc);
            self.next_refresh_due += self.timing.t_refi;
        }
        true
    }

    /// Simulates one cycle.
    pub fn tick(&mut self) {
        if self.refresh_tick() {
            self.now += 1;
            return;
        }
        match self.bus {
            BusModel::SharedDataBus => self.tick_shared(),
            BusModel::PerBankPim => self.tick_pim(),
        }
        self.now += 1;
    }

    /// Shared bus: one command per cycle. Row hits first (FR), then the
    /// oldest request's needed command (FCFS).
    fn tick_shared(&mut self) {
        if let Some((bank, cmd)) = self
            .oldest_issuable(true)
            .or_else(|| self.oldest_issuable(false))
        {
            self.issue(bank, cmd);
        }
    }

    /// The issuable command of the bank whose queue head arrived first,
    /// counting only row hits when `hits_only` is set.
    fn oldest_issuable(&self, hits_only: bool) -> Option<(usize, DramCommand)> {
        (0..self.banks.len())
            .filter_map(|bank| Some((bank, self.needed_command(bank)?)))
            .filter(|(bank, cmd)| {
                let hit = matches!(cmd, DramCommand::Read { .. } | DramCommand::Write { .. });
                (hit || !hits_only) && self.issuable(*bank, cmd)
            })
            .min_by_key(|&(bank, _)| self.queues[bank][0].seq)
    }

    /// PIM mode: every bank has its own sequencer; shared constraints are
    /// the activation window and refresh.
    fn tick_pim(&mut self) {
        for bank in 0..self.banks.len() {
            if let Some(cmd) = self.needed_command(bank) {
                if self.issuable(bank, &cmd) {
                    self.issue(bank, cmd);
                }
            }
        }
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

    fn streaming_controller(bus: BusModel, banks: usize) -> Controller {
        Controller::new(TimingParams::hbm3(), banks, 32, bus)
    }

    #[test]
    fn single_read_completes() {
        let mut c = streaming_controller(BusModel::SharedDataBus, 4);
        c.enqueue(MemRequest::read(2, 10, 0));
        let cycles = c.run_until_drained(10_000).unwrap();
        let t = TimingParams::hbm3();
        // ACT at 0 (first schedulable cycle), RD at tRCD, data at +tCL+tBUS.
        assert_eq!(c.stats().completed, 1);
        assert_eq!(c.stats().row_misses, 1);
        assert!(cycles >= t.t_rcd + t.t_cl);
    }

    #[test]
    fn row_hits_are_prioritized_and_counted() {
        let mut c = streaming_controller(BusModel::SharedDataBus, 2);
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
    fn pim_mode_outperforms_shared_bus_on_parallel_streams() {
        let t = TimingParams::hbm3();
        let rows = 4u64;
        let cols = 64u64;
        let mk = |bus| {
            let mut c = Controller::new(t.clone(), 8, 32, bus);
            for bank in 0..8 {
                for row in 0..rows {
                    c.enqueue_row_stream(bank, row, cols);
                }
            }
            c.run_until_drained(10_000_000).unwrap()
        };
        let shared = mk(BusModel::SharedDataBus);
        let pim = mk(BusModel::PerBankPim);
        // 8 banks streaming near-bank should be several times faster than
        // the same pattern serialized over one data bus.
        assert!(
            pim * 3 < shared,
            "pim={pim} cycles vs shared={shared} cycles"
        );
    }

    #[test]
    fn refresh_fires_and_blocks_progress() {
        let t = TimingParams::hbm3();
        let mut c = Controller::new(t.clone(), 2, 32, BusModel::PerBankPim);
        // Enough work to cross a refresh interval.
        let rows = (2 * t.t_refi / (t.t_rcd + 64 * t.t_ccd)) + 2;
        for row in 0..rows {
            c.enqueue_row_stream(0, row, 64);
        }
        c.run_until_drained(100_000_000).unwrap();
        assert!(c.stats().refreshes >= 1, "no refresh in a long run");
        assert_eq!(c.energy().bank_refreshes, c.stats().refreshes * 2);
    }

    #[test]
    fn refresh_can_be_disabled() {
        let t = TimingParams::hbm3();
        let mut c = Controller::new(t, 1, 32, BusModel::PerBankPim);
        c.set_refresh_enabled(false);
        for row in 0..400 {
            c.enqueue_row_stream(0, row, 64);
        }
        c.run_until_drained(100_000_000).unwrap();
        assert_eq!(c.stats().refreshes, 0);
    }

    #[test]
    fn energy_counters_track_io_only_on_shared_bus() {
        let run = |bus| {
            let mut c = streaming_controller(bus, 2);
            c.enqueue_row_stream(0, 0, 8);
            c.run_until_drained(1_000_000).unwrap();
            c.energy()
        };
        let shared = run(BusModel::SharedDataBus);
        let pim = run(BusModel::PerBankPim);
        assert_eq!(shared.io_bytes, 8 * 32);
        assert_eq!(pim.io_bytes, 0);
        assert_eq!(shared.read_bytes, pim.read_bytes);
    }

    #[test]
    fn writes_complete_and_count() {
        let mut c = streaming_controller(BusModel::SharedDataBus, 2);
        c.enqueue(MemRequest::write(1, 3, 0));
        c.enqueue(MemRequest::write(1, 3, 1));
        c.run_until_drained(100_000).unwrap();
        assert_eq!(c.stats().completed, 2);
        assert_eq!(c.energy().write_bytes, 64);
    }

    #[test]
    fn drain_timeout_reports_outstanding() {
        let mut c = streaming_controller(BusModel::SharedDataBus, 1);
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
        let mut c = streaming_controller(BusModel::SharedDataBus, 2);
        c.enqueue(MemRequest::read(2, 0, 0));
    }

    #[test]
    fn faw_limits_activation_burst() {
        // 8 banks all wanting to activate at once: with tFAW=16 and
        // tRRD=4, the 5th ACT must wait for the window.
        let t = TimingParams::hbm3();
        let mut c = Controller::new(t.clone(), 8, 32, BusModel::PerBankPim);
        for bank in 0..8 {
            c.enqueue(MemRequest::read(bank, 0, 0));
        }
        // Simulate until all ACTs would have been issued.
        for _ in 0..t.t_faw {
            c.tick();
        }
        let acts = c.energy().activations;
        assert!(
            acts <= 4,
            "tFAW violated: {acts} activations inside one window"
        );
    }

    #[test]
    fn completed_bytes_match_requests() {
        let mut c = streaming_controller(BusModel::PerBankPim, 4);
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
                reqs in proptest::collection::vec((0usize..4, 0u64..8, 0u64..16, proptest::bool::ANY), 1..128),
                pim in proptest::bool::ANY,
            ) {
                let bus = if pim { BusModel::PerBankPim } else { BusModel::SharedDataBus };
                let mut c = Controller::new(TimingParams::hbm3(), 4, 32, bus);
                for (bank, row, col, write) in &reqs {
                    c.enqueue(if *write {
                        MemRequest::write(*bank, *row, *col)
                    } else {
                        MemRequest::read(*bank, *row, *col)
                    });
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

            /// PIM mode never loses to the shared bus on the same stream.
            #[test]
            fn pim_never_slower_than_shared(
                rows in 1u64..6,
                banks in 1usize..8,
            ) {
                let run = |bus| {
                    let mut c = Controller::new(TimingParams::hbm3(), banks, 32, bus);
                    for bank in 0..banks {
                        for row in 0..rows {
                            c.enqueue_row_stream(bank, row, 32);
                        }
                    }
                    c.run_until_drained(50_000_000).unwrap()
                };
                prop_assert!(run(BusModel::PerBankPim) <= run(BusModel::SharedDataBus));
            }

            /// More banks never make a fixed-size PIM workload slower.
            #[test]
            fn more_banks_never_slower(banks in 1usize..8) {
                let run = |n: usize| {
                    let mut c = Controller::new(TimingParams::hbm3(), n, 32, BusModel::PerBankPim);
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
