//! Machine configuration (paper Table III).

use ipim_dram::{AddressMap, DramTiming, PagePolicy, SchedPolicy};

/// Where the compute logic sits relative to the DRAM banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// iPIM: compute logic beside each bank on the PIM dies (near-bank).
    #[default]
    NearBank,
    /// Process-on-base-die baseline: all PE logic on the base logic die, so
    /// every bank access crosses the vault's shared TSVs (paper Sec. VII-C1).
    BaseDie,
}

/// Which cycle engine [`Machine::run`](crate::Machine::run) uses.
///
/// The two [`Fidelity::BitExact`] engines produce bit-identical results
/// (cycles, statistics, energy, bank contents) — `tests/engine_equivalence.rs`
/// enforces this across the full workload suite. The legacy engine exists
/// for differential testing and as the reference semantics. The analytic
/// engine is the third tier: an [`Fidelity::Approximate`] model
/// ([`crate::analytic::predict`]) that predicts a run's report without
/// simulating — callers must check [`Engine::fidelity`] before treating its
/// output as ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Tick every component every cycle (the reference semantics).
    Legacy,
    /// Advance time directly to the next scheduled event when every
    /// component proves itself quiescent via its `next_event` bound,
    /// replaying per-cycle accounting (stall/busy/idle counters) in bulk.
    #[default]
    SkipAhead,
    /// Predict cycles/energy from one analytic walk of the instruction
    /// stream ([`crate::analytic`]) without simulating. Approximate:
    /// results carry bounded, continuously-measured error vs `SkipAhead`
    /// and produce no output image. Driving [`Machine::run`](crate::Machine::run)
    /// directly with this engine falls back to `SkipAhead` semantics (the
    /// machine API is bit-exact by contract); `ipim_core::Session::simulate`
    /// is the analytic entry point.
    Analytic,
}

/// How much a result from an [`Engine`] can be trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Cycle-exact: bit-identical cycles, statistics, energy and output
    /// across engines of this fidelity.
    BitExact,
    /// Modelled: cycles/energy carry a measured error envelope and the
    /// output image is not computed.
    Approximate,
}

impl Fidelity {
    /// Canonical report spelling (`"bit_exact"` / `"approximate"`).
    pub fn name(self) -> &'static str {
        match self {
            Fidelity::BitExact => "bit_exact",
            Fidelity::Approximate => "approximate",
        }
    }
}

impl Engine {
    /// The fidelity class of results this engine produces.
    pub fn fidelity(self) -> Fidelity {
        match self {
            Engine::Legacy | Engine::SkipAhead => Fidelity::BitExact,
            Engine::Analytic => Fidelity::Approximate,
        }
    }
}

/// Trace-capture configuration.
///
/// Tracing defaults to off; a disabled config leaves every instrumented
/// component with a detached [`Tracer`](ipim_trace::Tracer), whose emit
/// path is a single branch (see `crates/trace` docs for the overhead
/// contract). `ipim_core::Session` reads this to decide whether to wire a
/// ring sink through the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Whether to capture structured trace events during the run.
    pub enabled: bool,
    /// Ring-buffer capacity in records; the oldest records are evicted
    /// once the buffer fills (the `dropped` count in the capture reports
    /// how many).
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self { enabled: false, ring_capacity: 1 << 20 }
    }
}

/// Functional-unit and interconnect latencies in cycles (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyParams {
    /// FP/INT SIMD add or subtract.
    pub add: u64,
    /// SIMD multiply.
    pub mul: u64,
    /// SIMD multiply-accumulate.
    pub mac: u64,
    /// SIMD logical operation (also min/max/compare/convert).
    pub logic: u64,
    /// SIMD divide (extension; two dependent multiplies' worth).
    pub div: u64,
    /// AddrRF / DataRF access.
    pub rf: u64,
    /// PGSM access.
    pub pgsm: u64,
    /// VSM access.
    pub vsm: u64,
    /// PE-internal bus hop.
    pub pe_bus: u64,
    /// TSV crossing.
    pub tsv: u64,
    /// NoC hop.
    pub noc_hop: u64,
    /// Taken-branch refetch penalty at the control core.
    pub branch_penalty: u64,
}

impl Default for LatencyParams {
    #[inline]
    fn default() -> Self {
        Self {
            add: 4,
            mul: 5,
            mac: 8,
            logic: 1,
            div: 10,
            rf: 1,
            pgsm: 1,
            vsm: 1,
            pe_bus: 1,
            tsv: 1,
            noc_hop: 1,
            branch_penalty: 2,
        }
    }
}

/// Full machine shape and policy configuration.
///
/// The default is the paper's Table III machine: 8 cubes × 16 vaults ×
/// 8 process groups × 4 process engines, 64-entry instruction queue,
/// 16-entry DRAM request queue, 64-entry register files, 8 KiB PGSM and
/// 256 KiB VSM.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of 3D-stacked cubes.
    pub cubes: usize,
    /// Vaults per cube.
    pub vaults_per_cube: usize,
    /// Process groups (PIM dies) per vault.
    pub pgs_per_vault: usize,
    /// Process engines (banks) per process group.
    pub pes_per_pg: usize,
    /// Issued-instruction-queue entries in each control core.
    pub inst_queue: usize,
    /// DRAM request queue entries in each PG memory controller.
    pub dram_req_queue: usize,
    /// DataRF entries per PE (each 128 bits).
    pub data_rf_entries: usize,
    /// AddrRF entries per PE (each 32 bits).
    pub addr_rf_entries: usize,
    /// CtrlRF entries in the control core.
    pub ctrl_rf_entries: usize,
    /// PGSM bytes per process group.
    pub pgsm_bytes: u32,
    /// VSM bytes per vault.
    pub vsm_bytes: u32,
    /// DRAM bank geometry.
    pub bank: AddressMap,
    /// DRAM timing.
    pub timing: DramTiming,
    /// Row-buffer policy (paper default: open page).
    pub page_policy: PagePolicy,
    /// DRAM scheduling policy (paper default: FR-FCFS).
    pub sched_policy: SchedPolicy,
    /// Near-bank (iPIM) or base-die (PonB) compute placement.
    pub placement: Placement,
    /// Functional-unit latencies.
    pub latency: LatencyParams,
    /// Whether DRAM refresh is simulated.
    pub refresh: bool,
    /// Cycle-engine selection (skip-ahead by default; legacy for
    /// differential testing).
    pub engine: Engine,
    /// Structured trace capture (off by default).
    pub trace: TraceConfig,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            cubes: 8,
            vaults_per_cube: 16,
            pgs_per_vault: 8,
            pes_per_pg: 4,
            inst_queue: 64,
            dram_req_queue: 16,
            data_rf_entries: 64,
            addr_rf_entries: 64,
            ctrl_rf_entries: 32,
            pgsm_bytes: 8 * 1024,
            vsm_bytes: 256 * 1024,
            bank: AddressMap::default(),
            timing: DramTiming::default(),
            page_policy: PagePolicy::Open,
            sched_policy: SchedPolicy::FrFcfs,
            placement: Placement::NearBank,
            latency: LatencyParams::default(),
            refresh: true,
            engine: Engine::default(),
            trace: TraceConfig::default(),
        }
    }
}

impl MachineConfig {
    /// A reduced machine for fast simulation: one cube slice of `vaults`
    /// vaults with the full per-vault resources. Used by tests and the
    /// scaled experiments (see DESIGN.md §2 on lockstep scale-out).
    pub fn vault_slice(vaults: usize) -> Self {
        Self { cubes: 1, vaults_per_cube: vaults, ..Self::default() }
    }

    /// PEs per vault — the SIMB mask width (default 32).
    pub fn pes_per_vault(&self) -> usize {
        self.pgs_per_vault * self.pes_per_pg
    }

    /// Total PEs in the machine (default 4096).
    pub fn total_pes(&self) -> usize {
        self.cubes * self.vaults_per_cube * self.pes_per_vault()
    }

    /// Total vaults in the machine.
    pub fn total_vaults(&self) -> usize {
        self.cubes * self.vaults_per_cube
    }

    /// Peak aggregate bank bandwidth in bytes/cycle.
    ///
    /// Near-bank: every PE can move 16 B/cycle from its bank. Base-die: all
    /// traffic in a vault crosses its shared TSV bundle (16 B/cycle/vault) —
    /// the ~10× gap the paper reports (Sec. VII-C1, with ~32 PEs/vault the
    /// raw ratio is 32; queuing brings the realized gap to ~10×).
    pub fn peak_bank_bytes_per_cycle(&self) -> u64 {
        match self.placement {
            Placement::NearBank => (self.total_pes() * 16) as u64,
            Placement::BaseDie => (self.total_vaults() * 16) as u64,
        }
    }

    /// The per-cube mesh, `(width, height)`: the narrowest near-square grid
    /// with a node for every vault of a cube.
    pub(crate) fn mesh_shape(&self) -> (usize, usize) {
        let width = ((self.vaults_per_cube as f64).sqrt().ceil() as usize).max(1);
        (width, self.vaults_per_cube.div_ceil(width))
    }

    /// Cycles from the last vault parking at a barrier to its release: the
    /// master vault gathers the others' signals and broadcasts the release
    /// (Sec. IV-D), two traversals of the mesh's diameter plus bookkeeping.
    pub(crate) fn barrier_delay(&self) -> u64 {
        let (width, height) = self.mesh_shape();
        2 * (width + height) as u64 + 4
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.cubes == 0
            || self.vaults_per_cube == 0
            || self.pgs_per_vault == 0
            || self.pes_per_pg == 0
        {
            return Err("machine dimensions must be non-zero".into());
        }
        if self.cubes > 256 || self.vaults_per_cube > 256 {
            return Err("at most 256 cubes of 256 vaults (8-bit remote chip and vault ids)".into());
        }
        if self.pes_per_vault() > 64 {
            return Err(format!(
                "{} PEs per vault exceeds the 64-bit SIMB mask",
                self.pes_per_vault()
            ));
        }
        if self.data_rf_entries > 256 || self.addr_rf_entries > 256 || self.ctrl_rf_entries > 256 {
            return Err("register files are limited to 256 entries (8-bit names)".into());
        }
        if self.pgsm_bytes == 0 || self.vsm_bytes == 0 {
            return Err("scratchpads must be non-empty".into());
        }
        if self.inst_queue == 0 || self.dram_req_queue == 0 {
            return Err("queues must be non-empty".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table3() {
        let c = MachineConfig::default();
        assert_eq!(c.cubes, 8);
        assert_eq!(c.vaults_per_cube, 16);
        assert_eq!(c.pgs_per_vault, 8);
        assert_eq!(c.pes_per_pg, 4);
        assert_eq!(c.pes_per_vault(), 32);
        assert_eq!(c.total_pes(), 4096);
        assert_eq!(c.inst_queue, 64);
        assert_eq!(c.dram_req_queue, 16);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn near_bank_bandwidth_dwarfs_base_die() {
        let near = MachineConfig::default();
        let ponb = MachineConfig { placement: Placement::BaseDie, ..MachineConfig::default() };
        assert_eq!(near.peak_bank_bytes_per_cycle() / ponb.peak_bank_bytes_per_cycle(), 32);
    }

    #[test]
    fn vault_slice_shrinks_machine() {
        let c = MachineConfig::vault_slice(2);
        assert_eq!(c.total_vaults(), 2);
        assert_eq!(c.pes_per_vault(), 32);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_oversized_mask() {
        let c = MachineConfig { pgs_per_vault: 20, ..MachineConfig::default() };
        assert!(c.validate().is_err());
        let c = MachineConfig { cubes: 0, ..MachineConfig::default() };
        assert!(c.validate().is_err());
        let c = MachineConfig { inst_queue: 0, ..MachineConfig::default() };
        assert!(c.validate().is_err());
    }
}
