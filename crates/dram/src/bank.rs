//! Single-bank command-legal timing state machine.

use crate::{AddressMap, DramTiming};

/// Row-buffer state of a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankState {
    /// All rows closed; an ACT is required before column access.
    Precharged,
    /// A row is latched in the row buffer.
    Active {
        /// The open row index.
        row: u32,
    },
}

/// A DRAM command issued to one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankCmd {
    /// Activate (open) a row.
    Act(u32),
    /// Precharge (close) the open row.
    Pre,
    /// Column read of the open row (column index in 16-byte units).
    Rd(u32),
    /// Column write of the open row.
    Wr(u32),
    /// Refresh (bank-level).
    Ref,
}

/// One DRAM bank's row-buffer state, timing constraints and command
/// counters. It holds no contents: timing never depends on them.
///
/// The bank enforces intra-bank constraints (`tRCD`, `tRP`, `tRAS`, `tCCD`,
/// `tRTP`, `tWR`, `tRFC`); inter-bank constraints (`tRRD`, `tFAW`) live in
/// the per-process-group [`MemController`](crate::MemController).
#[derive(Debug, Clone)]
pub struct Bank {
    timing: DramTiming,
    map: AddressMap,
    state: BankState,
    next_act: u64,
    next_pre: u64,
    next_col: u64,
    /// Command counters for the energy model and row-locality statistics.
    pub stats: BankStats,
}

/// Activity counters of one bank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankStats {
    /// Activate commands issued.
    pub acts: u64,
    /// Precharge commands issued.
    pub pres: u64,
    /// Column reads issued.
    pub reads: u64,
    /// Column writes issued.
    pub writes: u64,
    /// Refresh commands issued.
    pub refs: u64,
}

impl std::ops::AddAssign for BankStats {
    fn add_assign(&mut self, o: Self) {
        self.acts += o.acts;
        self.pres += o.pres;
        self.reads += o.reads;
        self.writes += o.writes;
        self.refs += o.refs;
    }
}

impl std::ops::Sub for BankStats {
    type Output = Self;

    fn sub(self, o: Self) -> Self {
        Self {
            acts: self.acts - o.acts,
            pres: self.pres - o.pres,
            reads: self.reads - o.reads,
            writes: self.writes - o.writes,
            refs: self.refs - o.refs,
        }
    }
}

impl Bank {
    /// Creates a precharged bank with no command issued.
    pub fn new(timing: DramTiming, map: AddressMap) -> Self {
        Self {
            timing,
            map,
            state: BankState::Precharged,
            next_act: 0,
            next_pre: 0,
            next_col: 0,
            stats: BankStats::default(),
        }
    }

    /// Current row-buffer state.
    pub fn state(&self) -> BankState {
        self.state
    }

    /// The address map describing this bank's geometry.
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    /// Earliest cycle at which `cmd` may legally issue, or `None` if the
    /// command is illegal in the current state (e.g. `Rd` while precharged).
    pub fn earliest(&self, cmd: BankCmd) -> Option<u64> {
        match (cmd, self.state) {
            (BankCmd::Act(_), BankState::Precharged) => Some(self.next_act),
            (BankCmd::Act(_), BankState::Active { .. }) => None,
            (BankCmd::Pre, BankState::Active { .. }) => Some(self.next_pre),
            // PRE on a precharged bank is a legal NOP in real DRAM; we forbid
            // it so scheduler bugs surface in tests.
            (BankCmd::Pre, BankState::Precharged) => None,
            (BankCmd::Rd(_) | BankCmd::Wr(_), BankState::Active { .. }) => Some(self.next_col),
            (BankCmd::Rd(_) | BankCmd::Wr(_), BankState::Precharged) => None,
            (BankCmd::Ref, BankState::Precharged) => Some(self.next_act),
            (BankCmd::Ref, BankState::Active { .. }) => None,
        }
    }

    /// Issues `cmd` at cycle `now`, updating timing state.
    ///
    /// For column commands the return value is the cycle at which the data
    /// burst completes (read data available / write data absorbed).
    ///
    /// # Panics
    ///
    /// Panics if the command is illegal at `now` — the memory controller is
    /// responsible for only issuing legal commands, so a violation here is a
    /// simulator bug, not a recoverable condition.
    pub fn issue(&mut self, cmd: BankCmd, now: u64) -> u64 {
        let earliest = self
            .earliest(cmd)
            .unwrap_or_else(|| panic!("illegal {cmd:?} in state {:?}", self.state));
        assert!(now >= earliest, "{cmd:?} issued at {now} before earliest legal cycle {earliest}");
        let t = &self.timing;
        match cmd {
            BankCmd::Act(row) => {
                assert!(row < self.map.rows(), "row {row} out of range");
                self.state = BankState::Active { row };
                self.next_col = now + t.t_rcd;
                self.next_pre = self.next_pre.max(now + t.t_ras);
                self.stats.acts += 1;
                now + t.t_rcd
            }
            BankCmd::Pre => {
                self.state = BankState::Precharged;
                self.next_act = self.next_act.max(now + t.t_rp);
                self.stats.pres += 1;
                now + t.t_rp
            }
            BankCmd::Rd(_col) => {
                self.next_col = now + t.t_ccd;
                self.next_pre = self.next_pre.max(now + t.t_rtp);
                self.stats.reads += 1;
                now + t.cl + 1
            }
            BankCmd::Wr(_col) => {
                self.next_col = now + t.t_ccd;
                self.next_pre = self.next_pre.max(now + t.cwl + 1 + t.t_wr);
                self.stats.writes += 1;
                now + t.cwl + 1
            }
            BankCmd::Ref => {
                self.next_act = self.next_act.max(now + t.t_rfc);
                self.stats.refs += 1;
                now + t.t_rfc
            }
        }
    }

    /// Earliest cycle at which *any* legal command could issue to this bank
    /// — the bank's `next_event` lower bound for the skip-ahead engine. No
    /// bank state transition can occur strictly before the returned cycle,
    /// because every legal command's [`earliest`](Self::earliest) is at
    /// least this value.
    pub fn next_event(&self) -> u64 {
        match self.state {
            BankState::Precharged => self.next_act,
            BankState::Active { .. } => self.next_pre.min(self.next_col),
        }
    }

    /// The row currently open, if any.
    pub fn open_row(&self) -> Option<u32> {
        match self.state {
            BankState::Active { row } => Some(row),
            BankState::Precharged => None,
        }
    }

    /// Takes over `other`'s row-buffer state and timing constraints,
    /// keeping its own counters.
    pub(crate) fn adopt_timing(&mut self, other: &Bank) {
        self.state = other.state;
        self.next_act = other.next_act;
        self.next_pre = other.next_pre;
        self.next_col = other.next_col;
    }

    /// Whether every command is legal at the same cycles on both banks from
    /// `after` on: the same row state, and each constraint either equal or
    /// already met at `after` on both (a met constraint only gates a
    /// command through `<=`, and a new command raises it by `max`).
    pub(crate) fn timing_matches(&self, other: &Bank, after: u64) -> bool {
        let same = |a: u64, b: u64| a == b || (a <= after && b <= after);
        self.state == other.state
            && same(self.next_act, other.next_act)
            && same(self.next_pre, other.next_pre)
            && same(self.next_col, other.next_col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> Bank {
        Bank::new(DramTiming::default(), AddressMap::default())
    }

    #[test]
    fn fresh_bank_is_precharged() {
        let b = bank();
        assert_eq!(b.state(), BankState::Precharged);
        assert_eq!(b.open_row(), None);
        assert_eq!(b.earliest(BankCmd::Act(0)), Some(0));
        assert_eq!(b.earliest(BankCmd::Rd(0)), None);
        assert_eq!(b.earliest(BankCmd::Pre), None);
    }

    #[test]
    fn act_then_read_respects_trcd() {
        let mut b = bank();
        b.issue(BankCmd::Act(5), 0);
        assert_eq!(b.open_row(), Some(5));
        assert_eq!(b.earliest(BankCmd::Rd(0)), Some(14)); // tRCD
        let done = b.issue(BankCmd::Rd(0), 14);
        assert_eq!(done, 14 + 14 + 1); // CL + burst
    }

    #[test]
    fn back_to_back_reads_respect_tccd() {
        let mut b = bank();
        b.issue(BankCmd::Act(0), 0);
        b.issue(BankCmd::Rd(0), 14);
        assert_eq!(b.earliest(BankCmd::Rd(1)), Some(16)); // + tCCD
    }

    #[test]
    fn precharge_respects_tras_and_trtp() {
        let mut b = bank();
        b.issue(BankCmd::Act(0), 0);
        // tRAS=33 dominates read's tRTP here.
        assert_eq!(b.earliest(BankCmd::Pre), Some(33));
        b.issue(BankCmd::Rd(0), 14);
        assert_eq!(b.earliest(BankCmd::Pre), Some(33));
        // A late read pushes PRE out by tRTP.
        b.issue(BankCmd::Rd(1), 40);
        assert_eq!(b.earliest(BankCmd::Pre), Some(44));
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let mut b = bank();
        b.issue(BankCmd::Act(0), 0);
        b.issue(BankCmd::Wr(0), 14);
        // PRE must wait CWL + burst + tWR after the write command.
        assert_eq!(b.earliest(BankCmd::Pre), Some(14 + 10 + 1 + 15).map(|v: u64| v.max(33)));
    }

    #[test]
    fn precharge_to_act_respects_trp() {
        let mut b = bank();
        b.issue(BankCmd::Act(0), 0);
        b.issue(BankCmd::Pre, 33);
        assert_eq!(b.earliest(BankCmd::Act(1)), Some(33 + 14));
        b.issue(BankCmd::Act(1), 47);
        assert_eq!(b.open_row(), Some(1));
    }

    #[test]
    fn refresh_blocks_activation_for_trfc() {
        let mut b = bank();
        b.issue(BankCmd::Ref, 0);
        assert_eq!(b.earliest(BankCmd::Act(0)), Some(350));
        assert_eq!(b.stats.refs, 1);
    }

    #[test]
    #[should_panic(expected = "illegal")]
    fn read_while_precharged_panics() {
        let mut b = bank();
        b.issue(BankCmd::Rd(0), 0);
    }

    #[test]
    #[should_panic(expected = "before earliest legal cycle")]
    fn premature_command_panics() {
        let mut b = bank();
        b.issue(BankCmd::Act(0), 0);
        b.issue(BankCmd::Rd(0), 5); // violates tRCD
    }

    #[test]
    fn stats_count_commands() {
        let mut b = bank();
        b.issue(BankCmd::Act(0), 0);
        b.issue(BankCmd::Rd(0), 14);
        b.issue(BankCmd::Wr(1), 16);
        let pre_at = b.earliest(BankCmd::Pre).unwrap();
        b.issue(BankCmd::Pre, pre_at);
        assert_eq!(b.stats, BankStats { acts: 1, pres: 1, reads: 1, writes: 1, refs: 0 });
    }
}
