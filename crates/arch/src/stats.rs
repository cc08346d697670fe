//! Execution statistics: dynamic instruction mix, stall accounting,
//! component utilization and IPC — the raw material of Figs. 11–13.

use ipim_isa::Category;
use ipim_trace::MetricsRegistry;

/// Why the control core could not issue on a given cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// RAW/WAR/WAW hazard against an in-flight instruction.
    Hazard,
    /// Issued-instruction queue full.
    QueueFull,
    /// TSV broadcast slot taken this cycle.
    Tsv,
    /// Taken-branch refetch bubble.
    Branch,
    /// Waiting at a `sync` barrier.
    Sync,
    /// Conservative VSM interlock against in-flight `req`s.
    VsmInterlock,
}

impl StallReason {
    /// Every stall cause, in the order `StallCounts` stores them. The single
    /// source of truth for iterating the stall taxonomy — reports and metrics
    /// exporters walk this instead of hand-listing the fields.
    pub const ALL: [StallReason; 6] = [
        StallReason::Hazard,
        StallReason::QueueFull,
        StallReason::Tsv,
        StallReason::Branch,
        StallReason::Sync,
        StallReason::VsmInterlock,
    ];

    /// Stable lower-case label, usable as a metrics/trace key.
    pub fn name(self) -> &'static str {
        match self {
            StallReason::Hazard => "hazard",
            StallReason::QueueFull => "queue_full",
            StallReason::Tsv => "tsv",
            StallReason::Branch => "branch",
            StallReason::Sync => "sync",
            StallReason::VsmInterlock => "vsm_interlock",
        }
    }
}

/// Per-vault execution counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VaultStats {
    /// Cycles this vault was active (until halt).
    pub cycles: u64,
    /// Dynamic instructions issued.
    pub issued: u64,
    /// Dynamic instruction mix by Table I category.
    pub by_category: CategoryCounts,
    /// Stall cycles by cause.
    pub stalls: StallCounts,
    /// SIMD operations executed (instruction × active PE).
    pub simd_ops: u64,
    /// Integer-ALU operations executed (instruction × active PE).
    pub int_alu_ops: u64,
    /// PE-cycles each SIMD unit was busy (summed over PEs).
    pub simd_busy: u64,
    /// PE-cycles each integer ALU was busy.
    pub int_alu_busy: u64,
    /// PE-cycles each memory unit had an outstanding bank access.
    pub mem_busy: u64,
    /// AddrRF accesses (reads + writes).
    pub addr_rf_accesses: u64,
    /// DataRF accesses (reads + writes).
    pub data_rf_accesses: u64,
    /// PGSM accesses.
    pub pgsm_accesses: u64,
    /// VSM accesses.
    pub vsm_accesses: u64,
    /// TSV transfer slots consumed (broadcasts + data).
    pub tsv_transfers: u64,
    /// Remote requests initiated by this vault.
    pub remote_reqs: u64,
    /// DRAM 16-byte accesses (reads + writes) across the vault's banks.
    pub dram_accesses: u64,
}

/// Dynamic instruction counts by ISA category.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CategoryCounts {
    /// `comp` instructions.
    pub computation: u64,
    /// `calc arf` / `mov` instructions.
    pub index_calc: u64,
    /// Intra-vault data movement.
    pub intra_vault: u64,
    /// `req` instructions.
    pub inter_vault: u64,
    /// Control flow.
    pub control_flow: u64,
    /// `sync` instructions.
    pub synchronization: u64,
}

impl CategoryCounts {
    /// Every ISA category, in field order — for iterating the mix.
    pub const ALL: [Category; 6] = [
        Category::Computation,
        Category::IndexCalc,
        Category::IntraVault,
        Category::InterVault,
        Category::ControlFlow,
        Category::Synchronization,
    ];

    /// The count for one category.
    pub fn get(&self, cat: Category) -> u64 {
        match cat {
            Category::Computation => self.computation,
            Category::IndexCalc => self.index_calc,
            Category::IntraVault => self.intra_vault,
            Category::InterVault => self.inter_vault,
            Category::ControlFlow => self.control_flow,
            Category::Synchronization => self.synchronization,
        }
    }

    /// Increments the counter for `cat`.
    pub fn bump(&mut self, cat: Category) {
        self.bump_by(cat, 1);
    }

    /// Adds `n` to the counter for `cat`.
    pub fn bump_by(&mut self, cat: Category, n: u64) {
        match cat {
            Category::Computation => self.computation += n,
            Category::IndexCalc => self.index_calc += n,
            Category::IntraVault => self.intra_vault += n,
            Category::InterVault => self.inter_vault += n,
            Category::ControlFlow => self.control_flow += n,
            Category::Synchronization => self.synchronization += n,
        }
    }

    /// Total dynamic instructions.
    pub fn total(&self) -> u64 {
        self.computation
            + self.index_calc
            + self.intra_vault
            + self.inter_vault
            + self.control_flow
            + self.synchronization
    }

    /// Fraction of instructions in `part` out of the total (0 when empty).
    pub fn fraction(&self, part: u64) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            part as f64 / t as f64
        }
    }
}

impl std::ops::Add for CategoryCounts {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Self {
            computation: self.computation + rhs.computation,
            index_calc: self.index_calc + rhs.index_calc,
            intra_vault: self.intra_vault + rhs.intra_vault,
            inter_vault: self.inter_vault + rhs.inter_vault,
            control_flow: self.control_flow + rhs.control_flow,
            synchronization: self.synchronization + rhs.synchronization,
        }
    }
}

/// Stall-cycle counts by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallCounts {
    /// Data-hazard stalls.
    pub hazard: u64,
    /// Issued-inst-queue-full stalls.
    pub queue_full: u64,
    /// TSV contention stalls.
    pub tsv: u64,
    /// Branch bubbles.
    pub branch: u64,
    /// Barrier waits.
    pub sync: u64,
    /// VSM/req interlock stalls.
    pub vsm_interlock: u64,
}

impl StallCounts {
    /// Records one stall cycle of the given kind.
    pub fn bump(&mut self, reason: StallReason) {
        self.bump_by(reason, 1);
    }

    /// Records `n` stall cycles of the given kind (skip-ahead accrual: the
    /// engine proves the stall reason constant across a jumped window and
    /// accounts the whole span at once).
    pub fn bump_by(&mut self, reason: StallReason, n: u64) {
        match reason {
            StallReason::Hazard => self.hazard += n,
            StallReason::QueueFull => self.queue_full += n,
            StallReason::Tsv => self.tsv += n,
            StallReason::Branch => self.branch += n,
            StallReason::Sync => self.sync += n,
            StallReason::VsmInterlock => self.vsm_interlock += n,
        }
    }

    /// The count for one stall cause.
    pub fn get(&self, reason: StallReason) -> u64 {
        match reason {
            StallReason::Hazard => self.hazard,
            StallReason::QueueFull => self.queue_full,
            StallReason::Tsv => self.tsv,
            StallReason::Branch => self.branch,
            StallReason::Sync => self.sync,
            StallReason::VsmInterlock => self.vsm_interlock,
        }
    }

    /// Accumulates another vault's stall counts into this one.
    pub fn merge(&mut self, other: &StallCounts) {
        for reason in StallReason::ALL {
            self.bump_by(reason, other.get(reason));
        }
    }

    /// Total stall cycles.
    pub fn total(&self) -> u64 {
        StallReason::ALL.iter().map(|&r| self.get(r)).sum()
    }
}

impl VaultStats {
    /// Instructions per cycle (the paper's Fig. 13 metric, avg 0.63).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.issued as f64 / self.cycles as f64
        }
    }

    /// Accumulates another vault's counters into this one. `cycles` takes
    /// the max rather than the sum: an aggregate over vaults runs for as
    /// long as its slowest member, not the sum of their lifetimes.
    pub fn absorb(&mut self, other: &VaultStats) {
        self.cycles = self.cycles.max(other.cycles);
        self.issued += other.issued;
        self.by_category = self.by_category + other.by_category;
        self.stalls.merge(&other.stalls);
        self.simd_ops += other.simd_ops;
        self.int_alu_ops += other.int_alu_ops;
        self.simd_busy += other.simd_busy;
        self.int_alu_busy += other.int_alu_busy;
        self.mem_busy += other.mem_busy;
        self.addr_rf_accesses += other.addr_rf_accesses;
        self.data_rf_accesses += other.data_rf_accesses;
        self.pgsm_accesses += other.pgsm_accesses;
        self.vsm_accesses += other.vsm_accesses;
        self.tsv_transfers += other.tsv_transfers;
        self.remote_reqs += other.remote_reqs;
        self.dram_accesses += other.dram_accesses;
    }

    /// Records every counter into `reg` under `prefix` (e.g. `vault3`).
    /// This is the single path from per-vault counters to exported metrics,
    /// so stall causes and instruction categories appear under one naming
    /// scheme instead of being re-listed by each reporter.
    pub fn record_into(&self, reg: &mut MetricsRegistry, prefix: &str) {
        reg.counter_add(&format!("{prefix}/cycles"), self.cycles);
        reg.counter_add(&format!("{prefix}/issued"), self.issued);
        for cat in CategoryCounts::ALL {
            reg.counter_add(&format!("{prefix}/inst/{}", cat.name()), self.by_category.get(cat));
        }
        for reason in StallReason::ALL {
            reg.counter_add(&format!("{prefix}/stall/{}", reason.name()), self.stalls.get(reason));
        }
        reg.counter_add(&format!("{prefix}/simd_ops"), self.simd_ops);
        reg.counter_add(&format!("{prefix}/int_alu_ops"), self.int_alu_ops);
        reg.counter_add(&format!("{prefix}/spad/pgsm"), self.pgsm_accesses);
        reg.counter_add(&format!("{prefix}/spad/vsm"), self.vsm_accesses);
        reg.counter_add(&format!("{prefix}/tsv_transfers"), self.tsv_transfers);
        reg.counter_add(&format!("{prefix}/remote_reqs"), self.remote_reqs);
        reg.counter_add(&format!("{prefix}/dram_accesses"), self.dram_accesses);
        reg.gauge_set(&format!("{prefix}/ipc"), self.ipc());
    }

    /// Utilization of a component given its busy PE-cycles and PE count.
    pub fn utilization(&self, busy: u64, pes: usize) -> f64 {
        if self.cycles == 0 || pes == 0 {
            0.0
        } else {
            busy as f64 / (self.cycles as f64 * pes as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_bump_and_total() {
        let mut c = CategoryCounts::default();
        c.bump(Category::Computation);
        c.bump(Category::Computation);
        c.bump(Category::IndexCalc);
        c.bump(Category::InterVault);
        assert_eq!(c.total(), 4);
        assert!((c.fraction(c.index_calc) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_fractions_are_zero() {
        let c = CategoryCounts::default();
        assert_eq!(c.fraction(c.computation), 0.0);
        let s = VaultStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.utilization(10, 4), 0.0);
    }

    #[test]
    fn stall_accounting() {
        let mut s = StallCounts::default();
        s.bump(StallReason::Hazard);
        s.bump(StallReason::Hazard);
        s.bump(StallReason::Tsv);
        s.bump(StallReason::Sync);
        assert_eq!(s.total(), 4);
        assert_eq!(s.hazard, 2);
    }

    #[test]
    fn ipc_and_utilization() {
        let s = VaultStats { cycles: 100, issued: 63, simd_busy: 160, ..VaultStats::default() };
        assert!((s.ipc() - 0.63).abs() < 1e-12);
        assert!((s.utilization(s.simd_busy, 32) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn absorb_sums_counters_and_maxes_cycles() {
        let mut a =
            VaultStats { cycles: 100, issued: 10, pgsm_accesses: 3, ..VaultStats::default() };
        a.stalls.bump(StallReason::Tsv);
        let mut b = VaultStats { cycles: 80, issued: 5, pgsm_accesses: 4, ..VaultStats::default() };
        b.stalls.bump_by(StallReason::Tsv, 2);
        b.stalls.bump(StallReason::Hazard);
        a.absorb(&b);
        assert_eq!(a.cycles, 100);
        assert_eq!(a.issued, 15);
        assert_eq!(a.pgsm_accesses, 7);
        assert_eq!(a.stalls.tsv, 3);
        assert_eq!(a.stalls.hazard, 1);
        assert_eq!(a.stalls.total(), 4);
    }

    #[test]
    fn record_into_registry_covers_stalls_and_categories() {
        let mut s = VaultStats { cycles: 10, issued: 5, ..VaultStats::default() };
        s.by_category.bump(Category::Computation);
        s.stalls.bump_by(StallReason::Sync, 7);
        let mut reg = MetricsRegistry::default();
        s.record_into(&mut reg, "vault0");
        assert_eq!(reg.counter("vault0/inst/computation"), 1);
        assert_eq!(reg.counter("vault0/stall/sync"), 7);
        assert_eq!(reg.counter("vault0/stall/hazard"), 0);
        assert_eq!(reg.counter("vault0/cycles"), 10);
        // One entry per stall cause, per category, plus the scalar counters
        // and the IPC gauge.
        assert_eq!(reg.len(), 2 + 6 + 6 + 7 + 1);
    }

    #[test]
    fn stall_get_matches_fields_for_all_reasons() {
        let mut s = StallCounts::default();
        for (i, reason) in StallReason::ALL.into_iter().enumerate() {
            s.bump_by(reason, i as u64 + 1);
        }
        assert_eq!(s.get(StallReason::Hazard), 1);
        assert_eq!(s.get(StallReason::VsmInterlock), 6);
        assert_eq!(s.total(), 21);
        let mut names: Vec<&str> = StallReason::ALL.iter().map(|r| r.name()).collect();
        names.dedup();
        assert_eq!(names.len(), 6, "stall names must be distinct");
    }

    #[test]
    fn category_counts_add() {
        let a = CategoryCounts { computation: 1, index_calc: 2, ..Default::default() };
        let b = CategoryCounts { computation: 3, inter_vault: 4, ..Default::default() };
        let c = a + b;
        assert_eq!(c.computation, 4);
        assert_eq!(c.index_calc, 2);
        assert_eq!(c.inter_vault, 4);
    }
}
