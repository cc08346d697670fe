//! One vault: a decoupled control core on the base logic die driving the
//! SIMB-parallel process engines on the PIM dies (paper Sec. IV-B).
//!
//! Functional semantics execute *at issue* (issue is sequential and the
//! Issued-Inst-Queue hazard interlock guarantees operands are final), while
//! timing is shadowed by the fixed-latency SIMB units, per-PE VSM ports and
//! memory queues, the per-PG memory controllers, and the shared TSV arbiter.
//! Bank contents follow the same rule: each PE keeps its bank's bytes, which
//! `ld_rf`, `st_rf`, `ld_pgsm` and `st_pgsm` read and write at issue, in
//! program order, while the controllers only time the accesses. This
//! "execute-at-issue, timing-shadow" split is exact for hazard-free in-order
//! machines and keeps the simulator fast.
//!
//! A broadcast executes the way the control core issues it: once, for every
//! PE of its SIMB mask. The vault keeps all its PEs' DataRFs and AddrRFs in
//! two register-major files (register `r` of PE `g` at entry `r * pes + g`),
//! the vertical layout in which one command touches a register of every
//! PE. A register-only broadcast (`comp`, `calc_arf`, `mov`, `reset`,
//! `seti_drf`) runs as one kernel over its mask: the kernel resolves the
//! opcode, data type, mode and lane mask once, then walks the masked PEs.
//! The lane semantics are defined once, in `apply_comp` and
//! [`ArfOp::apply`], and instantiated once per opcode. The SIMD and ALU
//! busy integrators read the masks of the unit ops in flight: a tick's busy
//! count is one OR per in-flight op and one popcount per unit.

use std::collections::VecDeque;
use std::sync::Arc;

use ipim_dram::{
    AccessKind, Bank, BankArray, BankStats, Completion, Counters, LoggedEvent, MemController,
    Request, RequestId, RowLocality, ACCESS_BYTES,
};
use ipim_isa::{
    AddrOperand, ArfOp, ArfSrc, CompMode, CompOp, CrfSrc, DataReg, DataType, Instruction, Program,
    RemoteTarget, SimbMask, VecMask, ARF_CHIP_ID, ARF_PE_ID, ARF_PG_ID, ARF_VAULT_ID,
};
use ipim_trace::{CompId, CompRegistry, SpadKind, TraceEvent, Tracer};

use crate::cost::{CostTable, ExecUnit, InstCost};
use crate::stats::{StallReason, VaultStats};
use crate::{Engine, MachineConfig, Placement, Scratchpad};

/// Map keyed by a simulator-assigned id.
type IdMap<V> = ipim_dram::IdMap<u64, V>;

/// Global identity of a vault within the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VaultId {
    /// Cube (chip) index.
    pub cube: usize,
    /// Vault index within the cube.
    pub vault: usize,
}

/// Message a vault sends to the machine's interconnect.
#[derive(Debug, Clone, PartialEq)]
pub enum OutMsg {
    /// Forward a remote read request to `target`'s vault.
    ReqForward {
        /// Requesting vault.
        origin: VaultId,
        /// Remote bank location to read.
        target: RemoteTarget,
        /// Byte address in the remote bank.
        dram_addr: u32,
        /// Tag matching the response to the in-flight `req`.
        tag: u64,
    },
    /// Data response back to the requesting vault.
    ReqResponse {
        /// The vault that issued the original `req`.
        origin: VaultId,
        /// Tag of the original request.
        tag: u64,
    },
}

/// Message delivered to a vault by the machine's interconnect.
#[derive(Debug, Clone, PartialEq)]
pub enum InMsg {
    /// Serve a remote read against this vault's banks.
    ServeReq {
        /// Requesting vault.
        origin: VaultId,
        /// Local process group to read from.
        pg: usize,
        /// Local PE (bank) within the process group.
        pe: usize,
        /// Byte address in the bank.
        dram_addr: u32,
        /// Tag to echo in the response.
        tag: u64,
    },
    /// A previously issued `req` completed; its data is now in the VSM.
    ReqDone {
        /// Tag of the completed request.
        tag: u64,
    },
}

/// One 128-bit DataRF entry.
pub type Vector = [u32; 4];

/// A PE's pipelined VSM port: initiation interval of one operation per
/// cycle, completion after the operation's latency. It starts an op only
/// when the vault's TSV arbiter grants it the cycle's slot.
#[derive(Debug, Clone, Default)]
struct Unit {
    queue: VecDeque<(u64, u64)>,     // (inflight id, latency)
    in_flight: VecDeque<(u64, u64)>, // (inflight id, done_at)
    last_start: Option<u64>,
}

impl Unit {
    /// Drains operations completing at or before `now` into `out`, one
    /// `(inflight id, 1)` completion each.
    fn complete(&mut self, now: u64, out: &mut Vec<(u64, u32)>) {
        // Completions may be out of order when latencies differ; scan.
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].1 <= now {
                let (id, _) = self.in_flight.remove(i).expect("index checked");
                out.push((id, 1));
            } else {
                i += 1;
            }
        }
    }

    /// Starts the next queued op if the pipeline can initiate this cycle;
    /// returns whether an op started.
    fn start(&mut self, now: u64) -> bool {
        if self.last_start == Some(now) {
            return false;
        }
        if let Some((id, lat)) = self.queue.pop_front() {
            self.in_flight.push_back((id, now + lat));
            self.last_start = Some(now);
            return true;
        }
        false
    }
}

#[derive(Debug, Clone, Default)]
struct MemUnit {
    queue: VecDeque<Request>,
    outstanding: usize,
}

/// One process engine's own state: its VSM port, its memory queue and the
/// contents of its bank. Its registers are columns of the vault's
/// [`RegFiles`].
#[derive(Debug, Clone, Default)]
struct Pe {
    vsm_port: Unit,
    mem: MemUnit,
    bank: BankArray,
}

/// Every PE's DataRF and AddrRF, register-major: register `r` of PE `g` is
/// entry `r * pes + g`, so each operand of a broadcast is one run of the
/// vault's PEs. Register-only broadcasts run as one kernel each
/// ([`execute`](Self::execute)).
#[derive(Debug, Clone)]
struct RegFiles {
    pes: usize,
    data: Vec<Vector>,
    addr: Vec<i32>,
}

impl RegFiles {
    fn new(pes: usize, data_entries: usize, addr_entries: usize) -> Self {
        Self { pes, data: vec![[0; 4]; data_entries * pes], addr: vec![0; addr_entries * pes] }
    }

    fn clear(&mut self) {
        self.data.fill([0; 4]);
        self.addr.fill(0);
    }

    /// The first entry of data register `r`'s column.
    fn col(&self, r: DataReg) -> usize {
        r.index() * self.pes
    }

    /// Resolves an address operand on PE `g`.
    fn resolve(&self, g: usize, a: AddrOperand) -> u32 {
        match a {
            AddrOperand::Imm(v) => v,
            AddrOperand::Indirect(r) => self.addr[r.index() * self.pes + g] as u32,
        }
    }

    /// Runs a register-only broadcast (`comp`, `calc_arf`, `mov`, `reset`
    /// or `seti_drf`) on the PEs of `mask` as one kernel. The opcode, data
    /// type, mode and lane mask are resolved here, once; each PE reads its
    /// operands before it writes its destination, which may alias one of
    /// them. PEs outside `mask`, and lanes outside the lane mask, keep their
    /// values.
    fn execute(&mut self, inst: &Instruction, mask: SimbMask) {
        let pes = self.pes;
        match *inst {
            Instruction::Comp { op, dtype, mode, dst, src1, src2, vec_mask, .. } => {
                let cols = [dst, src1, src2].map(|r| self.col(r));
                let scalar = mode == CompMode::ScalarVector;
                let keep = kept_lanes(vec_mask);
                let data = &mut self.data;
                // One kernel per opcode and data type, each with its lane
                // semantics fixed.
                macro_rules! by_opcode {
                    ($($op:ident)*) => {
                        match (op, dtype) {
                            $(
                                (CompOp::$op, DataType::F32) => comp_kernel(
                                    data, mask, cols, scalar, keep,
                                    |a, b, d| apply_comp(CompOp::$op, DataType::F32, a, b, d),
                                ),
                                (CompOp::$op, DataType::I32) => comp_kernel(
                                    data, mask, cols, scalar, keep,
                                    |a, b, d| apply_comp(CompOp::$op, DataType::I32, a, b, d),
                                ),
                            )*
                        }
                    };
                }
                by_opcode!(
                    Add Sub Mul Mac Div Min Max Shl Shr And Or Xor CropLsb CropMsb CmpLt CmpLe CmpEq
                    CvtI2F CvtF2I
                );
            }
            Instruction::CalcArf { op, dst, src1, src2, .. } => {
                let cols = [dst, src1].map(|r| r.index() * pes);
                let addr = &mut self.addr;
                macro_rules! by_opcode {
                    ($($op:ident)*) => {
                        match op {
                            $(
                                ArfOp::$op => calc_kernel(
                                    addr, pes, mask, cols, src2,
                                    |a, b| ArfOp::$op.apply(a, b),
                                ),
                            )*
                        }
                    };
                }
                by_opcode!(Add Sub Mul Div Rem Shl Shr And Or Min Max);
            }
            Instruction::Mov { to_arf, arf, drf, lane, .. } => {
                let (a, d, l) = (arf.index() * pes, self.col(drf), lane as usize & 3);
                if to_arf {
                    for g in mask.iter() {
                        self.addr[a + g] = self.data[d + g][l] as i32;
                    }
                } else {
                    for g in mask.iter() {
                        self.data[d + g][l] = self.addr[a + g] as u32;
                    }
                }
            }
            Instruction::Reset { drf, .. } => self.set_lanes(mask, drf, 0, VecMask::ALL),
            Instruction::SetiDrf { drf, imm, vec_mask, .. } => {
                self.set_lanes(mask, drf, imm, vec_mask)
            }
            _ => unreachable!("{inst} is not a register-only broadcast"),
        }
    }

    /// Sets the lanes of `vec_mask` of register `drf` to `imm` on the PEs
    /// of `mask` (`seti_drf`; `reset` sets every lane to 0).
    fn set_lanes(&mut self, mask: SimbMask, drf: DataReg, imm: u32, vec_mask: VecMask) {
        let (d, keep) = (self.col(drf), kept_lanes(vec_mask));
        for g in mask.iter() {
            let old = self.data[d + g];
            self.data[d + g] = std::array::from_fn(|l| imm & !keep[l] | old[l] & keep[l]);
        }
    }
}

/// All-ones for each lane outside `vec_mask`: the lanes a vector write
/// keeps.
fn kept_lanes(vec_mask: VecMask) -> [u32; 4] {
    std::array::from_fn(|l| if vec_mask.lane(l) { 0 } else { u32::MAX })
}

/// `comp` on the PEs of `mask`, with `[dst, src1, src2]` given by the first
/// entries of their columns and `lane` one opcode's lane semantics from
/// `(src1, src2, dst)`. Every lane is computed and the lanes in `keep`
/// are restored, so the loop carries no per-lane branch.
#[inline(always)]
fn comp_kernel(
    data: &mut [Vector],
    mask: SimbMask,
    [d, a, b]: [usize; 3],
    scalar: bool,
    keep: [u32; 4],
    lane: impl Fn(u32, u32, u32) -> u32,
) {
    for g in mask.iter() {
        let (x, mut y, z) = (data[a + g], data[b + g], data[d + g]);
        if scalar {
            y = [y[0]; 4];
        }
        data[d + g] = std::array::from_fn(|l| lane(x[l], y[l], z[l]) & !keep[l] | z[l] & keep[l]);
    }
}

/// `calc_arf` on the PEs of `mask`, with `[dst, src1]` given by the first
/// entries of their columns and `op` one opcode's semantics.
#[inline(always)]
fn calc_kernel(
    addr: &mut [i32],
    pes: usize,
    mask: SimbMask,
    [d, a]: [usize; 2],
    src2: ArfSrc,
    op: impl Fn(i32, i32) -> i32,
) {
    for g in mask.iter() {
        let b = match src2 {
            ArfSrc::Imm(v) => v,
            ArfSrc::Reg(r) => addr[r.index() * pes + g],
        };
        addr[d + g] = op(addr[a + g], b);
    }
}

/// One SIMB instruction on a fixed-latency unit (SIMD, integer ALU or
/// PGSM port), standing for that unit on every masked PE. The core issues
/// at most one instruction per tick and each unit starts one op per tick,
/// so a PE's unit queue never holds more than the op issued on the
/// previous tick: the op starts at `issue + 1` on every masked PE at once
/// and completes there at `done`, where all `n` completions retire
/// together. Until then it keeps the SIMD unit or ALU of each PE of `mask`
/// busy (a PGSM port's busy time is not integrated).
#[derive(Debug, Clone, Copy)]
struct UnitOp {
    start: u64,
    done: u64,
    inst_id: u64,
    n: u32,
    unit: ExecUnit,
    mask: u64,
}

/// An entry of the Issued-Inst-Queue.
#[derive(Debug, Clone, Copy)]
struct InFlightInst {
    /// PE-side completions still outstanding.
    pending: u32,
    /// Static index of the instruction, whose register sets the
    /// scoreboard counts; `None` for a remote `req`, which holds none.
    pc: Option<usize>,
    /// Post-DRAM latency (PE bus, PGSM) of each memory completion.
    mem_extra: u64,
}

/// Control-core + barrier state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoreState {
    Running,
    /// Reached `sync phase` and waits for the machine-wide barrier release.
    AtBarrier(u32),
    Halted,
}

/// What the control core would do on a given cycle, computed without side
/// effects. [`Vault::try_issue`] acts on it; the skip-ahead engine uses the
/// same classification to prove a stall reason constant across a jumped
/// window, so the two can never disagree on which counter a cycle bumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IssueDecision {
    /// Core halted: the issue stage does nothing.
    Halted,
    /// Program exhausted but in-flight work remains: no counter moves.
    Drained,
    /// Exactly one stall counter would be bumped.
    Stall(StallReason),
    /// `sync` is ready: the core would park at barrier `phase`.
    Park(u32),
    /// The instruction at `pc` would issue.
    Issue,
}

/// Lockstep process groups (DESIGN.md §5b): the control core broadcasts
/// every memory instruction to all PGs, so while each PG's PEs ask for the
/// same addresses, PG 0's controller (the leader) is ticked alone and the
/// others (the followers) are derived from it. Skip-ahead only: the legacy
/// engine ticks every controller and stays the oracle.
#[derive(Debug, Clone, Default)]
struct Lockstep {
    /// Whether the engine may attach the followers at all.
    enabled: bool,
    /// Bit `p * pes_per_pg` set for every PG `p`: a PG-0 PE mask times this
    /// is the mask of those PEs and their twins in every PG.
    spread: u64,
    /// The leader's counters when the followers last attached.
    base: Counters,
    // The events the leader emitted on one tick, buffer reused.
    events: Vec<LoggedEvent>,
}

/// One vault of the iPIM machine.
#[derive(Debug, Clone)]
pub struct Vault {
    id: VaultId,
    config: MachineConfig,
    program: Arc<Program>,
    // Costs and register sets of `program`, shared by every vault that
    // runs it.
    costs: Arc<CostTable>,
    pc: usize,
    state: CoreState,
    branch_bubble_until: u64,
    ctrl_rf: Vec<i32>,
    issued: IdMap<InFlightInst>,
    // Register scoreboard: in-flight readers and writers per flat register
    // (see `CostTable`), counted over `issued`.
    readers: Vec<u32>,
    writers: Vec<u32>,
    next_inst_id: u64,
    // Fixed-latency ops in flight; their masks are the PEs whose SIMD unit
    // or ALU is busy.
    unit_ops: Vec<UnitOp>,
    // Bit `pe` set: the PE's memory queue holds requests / the PE has
    // requests outstanding at its MC / its VSM port holds an op.
    mem_queued: u64,
    mem_outstanding: u64,
    vsm_active: u64,
    // Completions collected during a tick: (inflight id, count).
    finished: Vec<(u64, u32)>,
    // Memory-controller completions of one tick, buffer reused.
    mc_done: Vec<Completion>,
    // Every PE's registers, register-major (see `RegFiles`).
    regs: RegFiles,
    pes: Vec<Pe>,
    mcs: Vec<MemController>,
    // While attached, `mcs[0]` leads and the other controllers are frozen:
    // their PEs' memory queues stay empty and PG 0's stand for them.
    attached: bool,
    lockstep: Lockstep,
    pgsms: Vec<Scratchpad>,
    vsm: Scratchpad,
    // TSV arbiter: one 128-bit slot per cycle, shared by instruction
    // broadcast and data transfers (paper Sec. IV-C).
    tsv_free: bool,
    // Completions that finish a fixed delay after their MC completion.
    delayed: Vec<(u64, u64, u32)>, // (done_at, inst_id, count)
    // PonB: MC completions waiting for a TSV slot.
    ponb_wait: VecDeque<u64>, // inst ids
    // Remote requests this vault has issued, not yet answered.
    reqs_in_flight: IdMap<u32 /* local vsm addr */>,
    next_req_tag: u64,
    // Remote requests this vault is serving for others.
    serving: IdMap<(VaultId, u64)>, // local serve-id -> (origin, tag)
    next_serve_id: u64,
    outbox: Vec<OutMsg>,
    // Remote serves that found the MC queue full and must retry.
    pending_serves: Vec<(usize, Request)>,
    // (tag, target, dram_addr, vsm_addr) of reqs whose functional fill the
    // machine performs at service time.
    pending_req_fills: Vec<(u64, RemoteTarget, u32, u32)>,
    /// Execution counters.
    pub stats: VaultStats,
    halted_at: Option<u64>,
    tracer: Tracer,
    comp_core: CompId,
    // Last stall classification the issue stage reported, for
    // edge-triggered `SimbStall` emission (see `TraceEvent::SimbStall`).
    last_stall: Option<StallReason>,
}

impl Vault {
    /// Creates an idle vault with an empty program.
    pub fn new(id: VaultId, config: &MachineConfig) -> Self {
        let n = config.pes_per_vault();
        let regs = RegFiles::new(n, config.data_rf_entries, config.addr_rf_entries);
        let pes = vec![Pe::default(); n];
        let mcs = (0..config.pgs_per_vault)
            .map(|_| {
                let banks =
                    (0..config.pes_per_pg).map(|_| Bank::new(config.timing, config.bank)).collect();
                let mut mc = MemController::new(
                    banks,
                    config.timing,
                    config.dram_req_queue,
                    config.page_policy,
                    config.sched_policy,
                );
                mc.set_refresh_enabled(config.refresh);
                mc
            })
            .collect();
        let pgsms = (0..config.pgs_per_vault).map(|_| Scratchpad::new(config.pgsm_bytes)).collect();
        let lockstep = Lockstep {
            enabled: config.engine != Engine::Legacy && config.pgs_per_vault > 1,
            spread: (0..config.pgs_per_vault).map(|p| 1 << (p * config.pes_per_pg)).sum(),
            ..Lockstep::default()
        };
        let mut vault = Self {
            id,
            config: config.clone(),
            program: Arc::default(),
            costs: Arc::new(CostTable::decode(&[], config)),
            pc: 0,
            state: CoreState::Halted,
            branch_bubble_until: 0,
            ctrl_rf: vec![0; config.ctrl_rf_entries],
            issued: IdMap::default(),
            readers: vec![0; CostTable::space(config)],
            writers: vec![0; CostTable::space(config)],
            next_inst_id: 0,
            unit_ops: Vec::new(),
            mem_queued: 0,
            mem_outstanding: 0,
            vsm_active: 0,
            finished: Vec::new(),
            mc_done: Vec::new(),
            regs,
            pes,
            mcs,
            attached: false,
            lockstep,
            pgsms,
            vsm: Scratchpad::new(config.vsm_bytes),
            tsv_free: true,
            delayed: Vec::new(),
            ponb_wait: VecDeque::new(),
            reqs_in_flight: IdMap::default(),
            next_req_tag: 0,
            serving: IdMap::default(),
            next_serve_id: 0,
            outbox: Vec::new(),
            pending_serves: Vec::new(),
            pending_req_fills: Vec::new(),
            stats: VaultStats::default(),
            halted_at: None,
            tracer: Tracer::default(),
            comp_core: CompId::default(),
            last_stall: None,
        };
        vault.reset_identity_registers();
        // Fresh controllers are drained and alike.
        if vault.lockstep.enabled {
            vault.attach();
        }
        vault
    }

    /// Attaches a tracer, registering this vault's components (core, one
    /// memory controller and its banks per process group) under `prefix`.
    pub(crate) fn attach_trace(
        &mut self,
        tracer: &Tracer,
        registry: &mut CompRegistry,
        prefix: &str,
    ) {
        self.tracer = tracer.clone();
        self.comp_core = registry.register(&format!("{prefix}/core"));
        for (pg, mc) in self.mcs.iter_mut().enumerate() {
            let mc_comp = registry.register(&format!("{prefix}/pg{pg}/mc"));
            let bank_comps = (0..self.config.pes_per_pg)
                .map(|b| registry.register(&format!("{prefix}/pg{pg}/bank{b}")))
                .collect();
            mc.attach_trace(tracer.clone(), mc_comp, bank_comps);
        }
    }

    fn reset_identity_registers(&mut self) {
        let ppg = self.config.pes_per_pg;
        let ids = [ARF_PE_ID, ARF_PG_ID, ARF_VAULT_ID, ARF_CHIP_ID];
        let (vault, cube) = (self.id.vault as i32, self.id.cube as i32);
        for g in 0..self.pes.len() {
            let values = [(g % ppg) as i32, (g / ppg) as i32, vault, cube];
            for (r, v) in ids.iter().zip(values) {
                self.regs.addr[r.index() * self.regs.pes + g] = v;
            }
        }
    }

    /// This vault's machine-wide identity.
    pub fn id(&self) -> VaultId {
        self.id
    }

    /// Loads a program, with its cost table `costs`, and resets execution
    /// state (registers and scratchpads are cleared; bank contents are
    /// preserved, matching a host that uploads data once and launches
    /// several kernels).
    pub(crate) fn load_program(&mut self, program: Arc<Program>, costs: Arc<CostTable>) {
        self.program = program;
        self.costs = costs;
        self.pc = 0;
        self.state = CoreState::Running;
        self.branch_bubble_until = 0;
        self.ctrl_rf.iter_mut().for_each(|c| *c = 0);
        self.issued.clear();
        self.readers.iter_mut().for_each(|c| *c = 0);
        self.writers.iter_mut().for_each(|c| *c = 0);
        self.unit_ops.clear();
        self.mem_queued = 0;
        self.mem_outstanding = 0;
        self.vsm_active = 0;
        self.delayed.clear();
        self.ponb_wait.clear();
        self.reqs_in_flight.clear();
        self.serving.clear();
        self.outbox.clear();
        self.pending_serves.clear();
        self.pending_req_fills.clear();
        self.regs.clear();
        for pe in &mut self.pes {
            pe.vsm_port = Unit::default();
            pe.mem = MemUnit::default();
        }
        self.halted_at = None;
        self.last_stall = None;
        self.reset_identity_registers();
    }

    /// Whether the control core has executed the whole program and all
    /// in-flight work (including remote serves) has drained.
    pub fn is_halted(&self) -> bool {
        matches!(self.state, CoreState::Halted)
            && self.issued.is_empty()
            && self.serving.is_empty()
            && self.mcs[..self.ticking()].iter().all(|m| m.is_idle())
    }

    /// Cycle at which the control core retired its last instruction.
    pub fn halted_at(&self) -> Option<u64> {
        self.halted_at
    }

    /// Whether the core is parked at barrier `phase`.
    pub fn at_barrier(&self) -> Option<u32> {
        match self.state {
            CoreState::AtBarrier(p) => Some(p),
            _ => None,
        }
    }

    /// Releases the vault from its barrier (machine-wide sync reached).
    pub fn release_barrier(&mut self, now: u64) {
        if matches!(self.state, CoreState::AtBarrier(_)) {
            self.state = CoreState::Running;
            self.tracer.emit(now, self.comp_core, || TraceEvent::BarrierRelease);
        }
    }

    /// Host access: bank array of (pg, pe).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn bank_array(&self, pg: usize, pe: usize) -> &BankArray {
        &self.pes[self.pe_index(pg, pe)].bank
    }

    /// Host access: mutable bank array of (pg, pe).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn bank_array_mut(&mut self, pg: usize, pe: usize) -> &mut BankArray {
        let g = self.pe_index(pg, pe);
        &mut self.pes[g].bank
    }

    /// The vault-wide index of PE `pe` of process group `pg`.
    fn pe_index(&self, pg: usize, pe: usize) -> usize {
        assert!(pe < self.config.pes_per_pg, "PE {pe} out of range");
        pg * self.config.pes_per_pg + pe
    }

    /// Host access: DataRF register `reg` of PE `pe` (tests and debugging).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn data_rf(&self, pe: usize, reg: usize) -> Vector {
        assert!(pe < self.pes.len(), "PE {pe} out of range");
        self.regs.data[reg * self.regs.pes + pe]
    }

    /// Host access: AddrRF register `reg` of PE `pe` (tests and debugging).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn addr_rf(&self, pe: usize, reg: usize) -> i32 {
        assert!(pe < self.pes.len(), "PE {pe} out of range");
        self.regs.addr[reg * self.regs.pes + pe]
    }

    /// Host access: the vault scratchpad.
    pub fn vsm(&mut self) -> &mut Scratchpad {
        &mut self.vsm
    }

    /// Host access: a process group's scratchpad.
    pub fn pgsm(&mut self, pg: usize) -> &mut Scratchpad {
        &mut self.pgsms[pg]
    }

    /// Delivers an interconnect message.
    pub fn deliver(&mut self, msg: InMsg, now: u64) {
        match msg {
            InMsg::ServeReq { origin, pg, pe, dram_addr, tag } => {
                let serve_id = self.next_serve_id;
                self.next_serve_id += 1;
                self.serving.insert(serve_id, (origin, tag));
                // The read is buffered in this vault's VSM before the link
                // traversal (paper Sec. IV-D): count the access.
                self.stats.vsm_accesses += 1;
                self.tracer.emit(now, self.comp_core, || TraceEvent::SpadAccess {
                    kind: SpadKind::Vsm,
                    count: 1,
                });
                let req = Request {
                    id: RequestId(REMOTE_SERVE_BASE + serve_id),
                    bank: pe,
                    addr: dram_addr & !(ACCESS_BYTES as u32 - 1),
                    kind: AccessKind::Read,
                };
                // A serve reaches one PG's controller alone.
                if self.attached {
                    self.detach();
                }
                // Remote serves bypass queue back-pressure modelling: the
                // NIC retries internally. If full, park it.
                if !self.mcs[pg].enqueue(req, now) {
                    self.pending_serves.push((pg, req));
                }
            }
            InMsg::ReqDone { tag } => {
                // Find the in-flight `req` with this tag and finish it.
                if let Some(_vsm_addr) = self.reqs_in_flight.remove(&tag) {
                    let inst_id = REQ_TAG_BASE + tag;
                    self.finish(inst_id, 1);
                    self.stats.vsm_accesses += 1;
                    self.tracer.emit(now, self.comp_core, || TraceEvent::SpadAccess {
                        kind: SpadKind::Vsm,
                        count: 1,
                    });
                }
            }
        }
    }

    /// Drains queued outbound messages.
    pub fn take_outbox(&mut self) -> Vec<OutMsg> {
        std::mem::take(&mut self.outbox)
    }

    /// Advances the vault one cycle.
    ///
    /// Returns whether the cycle did observable work (an op started or
    /// completed, a request moved, an instruction issued, the core halted).
    /// The skip-ahead engine uses a `false` return as its cue to compute
    /// `next_event` — purely a scheduling heuristic, so
    /// a pessimistic `true` is always safe.
    pub fn tick(&mut self, now: u64) -> bool {
        if self.is_halted() && self.outbox.is_empty() && self.pending_serves.is_empty() {
            return false;
        }
        self.stats.cycles += 1;
        self.tsv_free = true;
        let mut progress = false;

        // Retry parked remote serves.
        if !self.pending_serves.is_empty() {
            progress = true;
            let mut parked = std::mem::take(&mut self.pending_serves);
            parked.retain(|(pg, req)| !self.mcs[*pg].enqueue(*req, now));
            self.pending_serves = parked;
        }

        // 1. Pipelined unit completions and starts. A fixed-latency op
        // completes on all its masked PEs at once; the VSM port needs the
        // TSV slot to start.
        let mut finished = std::mem::take(&mut self.finished);
        let mut i = 0;
        while i < self.unit_ops.len() {
            let op = self.unit_ops[i];
            if op.done <= now {
                self.unit_ops.swap_remove(i);
                finished.push((op.inst_id, op.n));
            } else {
                progress |= op.start == now;
                i += 1;
            }
        }
        let mut active = self.vsm_active;
        while active != 0 {
            let g = active.trailing_zeros() as usize;
            active &= active - 1;
            let port = &mut self.pes[g].vsm_port;
            port.complete(now, &mut finished);
            if port.queue.is_empty() && port.in_flight.is_empty() {
                self.vsm_active &= !(1 << g);
            }
        }
        // TSV arbitration for VSM ports: one grant per cycle, round-robin by
        // PE index (the queue order provides fairness enough for SIMB code).
        if self.tsv_free {
            let mut active = self.vsm_active;
            while active != 0 {
                let g = active.trailing_zeros() as usize;
                active &= active - 1;
                let port = &mut self.pes[g].vsm_port;
                if !port.queue.is_empty() {
                    port.start(now);
                    self.tsv_free = false;
                    self.stats.tsv_transfers += 1;
                    progress = true;
                    break;
                }
            }
        }

        // 2. Memory controllers. A refresh sequence steps every cycle, so
        // it keeps the vault hot: probing for a jump mid-refresh is wasted
        // work (the bound is always `now`).
        let mut mc_done = std::mem::take(&mut self.mc_done);
        if self.attached {
            self.mcs[0].tick_into(now, &mut mc_done);
            progress |= !mc_done.is_empty() || self.mcs[0].is_refreshing();
            self.follow_leader(now);
            // Each leader completion stands for its twins in every PG; PonB
            // queues the followers' copies PG by PG behind the leader's.
            let pgs = self.mcs.len();
            let ponb_from = self.ponb_wait.len();
            for c in mc_done.drain(..) {
                self.on_mc_completion(c, pgs as u32, now);
            }
            let ponb_to = self.ponb_wait.len();
            for _ in 1..pgs {
                for i in ponb_from..ponb_to {
                    let id = self.ponb_wait[i];
                    self.ponb_wait.push_back(id);
                }
            }
        } else {
            for pg in 0..self.mcs.len() {
                self.mcs[pg].tick_into(now, &mut mc_done);
                progress |= !mc_done.is_empty() || self.mcs[pg].is_refreshing();
                for c in mc_done.drain(..) {
                    self.on_mc_completion(c, 1, now);
                }
            }
            if self.lockstep.enabled {
                self.try_attach(now);
            }
        }
        self.mc_done = mc_done;

        // 3. Issue new DRAM requests from PE mem queues (the MC's request
        // queue provides the real back-pressure; the per-PE cap only
        // bounds bookkeeping).
        let max_outstanding = self.config.dram_req_queue.max(1);
        let mut queued = self.mem_queued & self.mem_lanes();
        while queued != 0 {
            let g = queued.trailing_zeros() as usize;
            queued &= queued - 1;
            let pg = g / self.config.pes_per_pg;
            while self.pes[g].mem.outstanding < max_outstanding {
                let Some(&req) = self.pes[g].mem.queue.front() else { break };
                if !self.mcs[pg].enqueue(req, now) {
                    break;
                }
                self.pes[g].mem.queue.pop_front();
                self.pes[g].mem.outstanding += 1;
                self.mem_outstanding |= self.twins(g);
                progress = true;
            }
            if self.pes[g].mem.queue.is_empty() {
                self.mem_queued &= !self.twins(g);
            }
        }

        // 4. Delayed completions (post-DRAM PE-bus / PGSM latency).
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].0 <= now {
                let (_, id, n) = self.delayed.swap_remove(i);
                finished.push((id, n));
            } else {
                i += 1;
            }
        }

        // 5. PonB: drain one TSV-blocked DRAM completion per cycle.
        if self.tsv_free {
            if let Some(id) = self.ponb_wait.pop_front() {
                self.tsv_free = false;
                self.stats.tsv_transfers += 1;
                finished.push((id, 1));
            }
        }

        progress |= !finished.is_empty();
        for &(id, n) in &finished {
            self.finish(id, n);
        }
        finished.clear();
        self.finished = finished;

        // 6. Busy accounting.
        self.account_busy(now, 1);

        // 7. Control core issue.
        progress |= self.try_issue(now);

        // 8. Halt detection.
        if matches!(self.state, CoreState::Running)
            && self.pc >= self.program.len()
            && self.issued.is_empty()
        {
            self.state = CoreState::Halted;
            self.halted_at = Some(now);
            progress = true;
        }
        progress
    }

    /// Sound lower bound on the next cycle `>= now` at which
    /// [`tick`](Self::tick) could change vault state (beyond the per-cycle
    /// counters that [`skip`](Self::skip) replays in bulk), assuming no
    /// interconnect message is delivered in between — the machine folds
    /// message arrival times into its own minimum. While the process groups
    /// run in lockstep, the leader's controller bounds them all.
    ///
    /// Contract (see DESIGN.md §"Two-engine architecture"): returning a
    /// bound earlier than the true next event is always safe; returning a
    /// later one is a bug. `None` means the vault will never act again
    /// without outside input.
    pub(crate) fn next_event(&self, now: u64) -> Option<u64> {
        // Mirror of tick()'s early return: a drained vault is clock-gated.
        if self.is_halted() && self.outbox.is_empty() && self.pending_serves.is_empty() {
            return None;
        }
        // Work that tick() acts on unconditionally forces a live tick.
        if !self.pending_serves.is_empty() || !self.outbox.is_empty() || !self.ponb_wait.is_empty()
        {
            return Some(now);
        }
        let mut t = u64::MAX;
        for op in &self.unit_ops {
            if op.start >= now {
                // Issued on the last tick: it starts on this one.
                return Some(now);
            }
            t = t.min(op.done);
        }
        let max_outstanding = self.config.dram_req_queue.max(1);
        let mut active = self.vsm_active | (self.mem_queued & self.mem_lanes());
        while active != 0 {
            let g = active.trailing_zeros() as usize;
            active &= active - 1;
            let pe = &self.pes[g];
            if !pe.vsm_port.queue.is_empty() {
                // A queued op can start on the very next tick (the VSM port
                // always wins arbitration when nothing else moves).
                return Some(now);
            }
            for &(_, done_at) in &pe.vsm_port.in_flight {
                t = t.min(done_at);
            }
            if let Some(req) = pe.mem.queue.front() {
                // The queued request moves only when the MC can take it;
                // while back-pressured (MC queue full, or the per-PE
                // outstanding cap hit) the next chance to move is an MC
                // state change — a command issue or a completion — and the
                // MC bound below covers both.
                let pg = g / self.config.pes_per_pg;
                if pe.mem.outstanding < max_outstanding && self.mcs[pg].can_accept(req.kind) {
                    return Some(now);
                }
            }
        }
        for &(done_at, ..) in &self.delayed {
            t = t.min(done_at);
        }
        for mc in &self.mcs[..self.ticking()] {
            if t <= now {
                // The bound below is clamped to `now`; nothing can lower it.
                return Some(now);
            }
            if let Some(e) = mc.next_event(now) {
                t = t.min(e);
            }
        }
        if t <= now {
            return Some(now);
        }
        // The issue stage: with every queue above empty the TSV slot is
        // provably free, so probe the decision with `tsv_free = true`.
        match self.issue_decision(now, true) {
            IssueDecision::Issue | IssueDecision::Park(_) => return Some(now),
            IssueDecision::Stall(StallReason::Branch) => t = t.min(self.branch_bubble_until),
            IssueDecision::Drained => {
                if self.issued.is_empty() {
                    // The halt transition in tick() step 8 fires this cycle.
                    return Some(now);
                }
            }
            // Remaining stalls clear only when one of the completion events
            // already folded into `t` (or a machine-level event: barrier
            // release, `ReqDone` delivery) fires.
            IssueDecision::Halted | IssueDecision::Stall(_) => {}
        }
        if t == u64::MAX {
            None
        } else {
            Some(t.max(now))
        }
    }

    /// Replays the per-cycle accounting of `delta` ticks skipped under the
    /// [`next_event`](Self::next_event) contract, covering cycles
    /// `now..now + delta`. In such a window every queue is empty and no
    /// completion fires, so each legacy tick would only have advanced the
    /// cycle counter, the busy/idle integrators, and exactly one stall
    /// counter — all replayed here in O(1) per component.
    pub(crate) fn skip(&mut self, now: u64, delta: u64) {
        if self.is_halted() && self.outbox.is_empty() && self.pending_serves.is_empty() {
            return;
        }
        self.stats.cycles += delta;
        self.account_busy(now, delta);
        let ticking = self.ticking();
        for mc in &mut self.mcs[..ticking] {
            mc.skip_idle(delta);
        }
        // The stall classification is constant across the window: every
        // state it reads (pc, issued set, in-flight requests, barrier state,
        // branch bubble) only changes at an event `next_event` reports.
        if let IssueDecision::Stall(reason) = self.issue_decision(now, true) {
            self.stats.stalls.bump_by(reason, delta);
        }
    }

    /// Adds `cycles` cycles of the busy state at `now` to the per-PE busy
    /// integrators: a PE's SIMD unit or ALU is busy while a unit op that
    /// masks it is in flight (every op still listed completes after `now`),
    /// and its memory path while requests are queued or outstanding.
    fn account_busy(&mut self, now: u64, cycles: u64) {
        let (mut simd, mut alu) = (0u64, 0u64);
        for op in &self.unit_ops {
            debug_assert!(op.done > now, "unit op done at {} still in flight at {now}", op.done);
            match op.unit {
                ExecUnit::Simd => simd |= op.mask,
                ExecUnit::Alu => alu |= op.mask,
                _ => {}
            }
        }
        self.stats.simd_busy += u64::from(simd.count_ones()) * cycles;
        self.stats.int_alu_busy += u64::from(alu.count_ones()) * cycles;
        self.stats.mem_busy +=
            u64::from((self.mem_queued | self.mem_outstanding).count_ones()) * cycles;
    }

    /// Handles a controller completion standing for `n` PEs' requests (its
    /// twins in every PG while in lockstep; PonB queues it once).
    fn on_mc_completion(&mut self, c: Completion, n: u32, now: u64) {
        let raw = c.id.0;
        if raw >= REMOTE_SERVE_BASE {
            // Finished serving a remote read: send the response.
            let serve_id = raw - REMOTE_SERVE_BASE;
            if let Some((origin, tag)) = self.serving.remove(&serve_id) {
                self.outbox.push(OutMsg::ReqResponse { origin, tag });
            }
            return;
        }
        let pe = (raw >> 40) as usize;
        let inst_id = raw & ((1 << 40) - 1);
        self.pes[pe].mem.outstanding -= 1;
        if self.pes[pe].mem.outstanding == 0 {
            self.mem_outstanding &= !self.twins(pe);
        }
        self.stats.dram_accesses += u64::from(n);
        match self.config.placement {
            Placement::BaseDie => self.ponb_wait.push_back(inst_id),
            Placement::NearBank => {
                let extra = self.issued.get(&inst_id).map_or(0, |e| e.mem_extra);
                if extra == 0 {
                    self.finish(inst_id, n);
                } else {
                    self.delayed.push((now + extra, inst_id, n));
                }
            }
        }
    }

    /// Marks `n` PE-side completions of instruction `inst_id`; the last one
    /// retires it from the Issued-Inst-Queue and the scoreboard.
    fn finish(&mut self, inst_id: u64, n: u32) {
        let Some(e) = self.issued.get_mut(&inst_id) else { return };
        e.pending = e.pending.saturating_sub(n);
        if e.pending > 0 {
            return;
        }
        if let Some(pc) = e.pc {
            for &r in self.costs.reads(pc) {
                self.readers[r as usize] -= 1;
            }
            for &w in self.costs.writes(pc) {
                self.writers[w as usize] -= 1;
            }
        }
        self.issued.remove(&inst_id);
    }

    /// Enters instruction `inst_id` into the Issued-Inst-Queue and counts
    /// its register sets on the scoreboard.
    fn track(&mut self, inst_id: u64, entry: InFlightInst) {
        if let Some(pc) = entry.pc {
            for &r in self.costs.reads(pc) {
                self.readers[r as usize] += 1;
            }
            for &w in self.costs.writes(pc) {
                self.writers[w as usize] += 1;
            }
        }
        self.issued.insert(inst_id, entry);
    }

    /// Classifies what the issue stage would do at `now`, without side
    /// effects. `tsv_free` is passed in because during a real tick the TSV
    /// slot may already have been consumed by a VSM-port grant or a PonB
    /// drain, while the skip-ahead engine only probes windows in which both
    /// are provably idle (so the slot is free).
    fn issue_decision(&self, now: u64, tsv_free: bool) -> IssueDecision {
        match self.state {
            CoreState::Halted => return IssueDecision::Halted,
            CoreState::AtBarrier(_) => return IssueDecision::Stall(StallReason::Sync),
            CoreState::Running => {}
        }
        if self.pc >= self.program.len() {
            return IssueDecision::Drained;
        }
        if now < self.branch_bubble_until {
            return IssueDecision::Stall(StallReason::Branch);
        }
        let inst = self.program.instructions()[self.pc];

        // Structural hazard: issued-inst-queue capacity.
        if self.issued.len() >= self.config.inst_queue {
            return IssueDecision::Stall(StallReason::QueueFull);
        }
        // Data hazards against in-flight instructions (paper Sec. IV-B 2):
        // RAW, WAR or WAW with any of them, read off the scoreboard.
        let raw = self.costs.reads(self.pc).iter().any(|&r| self.writers[r as usize] > 0);
        let war_waw = self
            .costs
            .writes(self.pc)
            .iter()
            .any(|&w| self.writers[w as usize] > 0 || self.readers[w as usize] > 0);
        if raw || war_waw {
            return IssueDecision::Stall(StallReason::Hazard);
        }
        // Conservative VSM interlock: reads of the VSM wait for pending
        // remote requests (their data lands in the VSM asynchronously).
        if matches!(inst, Instruction::RdVsm { .. }) && !self.reqs_in_flight.is_empty() {
            return IssueDecision::Stall(StallReason::VsmInterlock);
        }
        // `sync` waits for the vault to quiesce, then parks at the barrier.
        if let Instruction::Sync { phase_id } = inst {
            if !self.issued.is_empty() || !self.reqs_in_flight.is_empty() {
                return IssueDecision::Stall(StallReason::Sync);
            }
            return IssueDecision::Park(phase_id);
        }
        // Broadcast instructions need this cycle's TSV slot.
        if inst.simb_mask().is_some() && !tsv_free {
            return IssueDecision::Stall(StallReason::Tsv);
        }
        IssueDecision::Issue
    }

    /// Attempts to issue the instruction at `pc`; returns whether the core
    /// made progress (issued or parked at a barrier).
    fn try_issue(&mut self, now: u64) -> bool {
        let decision = self.issue_decision(now, self.tsv_free);
        match decision {
            IssueDecision::Halted | IssueDecision::Drained => return false,
            IssueDecision::Stall(reason) => {
                self.stats.stalls.bump(reason);
                if self.last_stall != Some(reason) {
                    self.last_stall = Some(reason);
                    self.tracer.emit(now, self.comp_core, || TraceEvent::SimbStall {
                        reason: reason.name(),
                    });
                }
                return false;
            }
            IssueDecision::Park(phase_id) => {
                self.last_stall = None;
                self.state = CoreState::AtBarrier(phase_id);
                self.stats.issued += 1;
                self.stats.by_category.bump(self.costs.cost(self.pc).category);
                self.pc += 1;
                self.tracer
                    .emit(now, self.comp_core, || TraceEvent::BarrierEnter { phase: phase_id });
                return true;
            }
            IssueDecision::Issue => {
                self.last_stall = None;
            }
        }
        let inst = self.program.instructions()[self.pc];
        let cost = *self.costs.cost(self.pc);

        // --- Issue. ---
        if cost.unit != ExecUnit::Core {
            // Broadcasts take the cycle's TSV slot.
            self.tsv_free = false;
            self.stats.tsv_transfers += 1;
        }
        self.stats.issued += 1;
        self.stats.by_category.bump(cost.category);
        if self.tracer.enabled() {
            let pc = self.pc as u32;
            let category = cost.category.name();
            self.tracer.emit(now, self.comp_core, || TraceEvent::SimbIssue { pc, category });
        }
        cost.add_accesses(&mut self.stats, 1);
        if let Some((kind, count)) = cost.spad {
            let count = u32::from(count);
            self.tracer.emit(now, self.comp_core, || TraceEvent::SpadAccess { kind, count });
        }

        let mut next_pc = self.pc + 1;
        match inst {
            Instruction::Jump { target } => {
                next_pc = self.crf_value(target) as usize;
                self.branch_bubble_until = now + 1 + self.config.latency.branch_penalty;
            }
            Instruction::CJump { cond, target } => {
                if self.ctrl_rf[cond.index()] != 0 {
                    next_pc = self.crf_value(target) as usize;
                    self.branch_bubble_until = now + 1 + self.config.latency.branch_penalty;
                }
            }
            Instruction::CalcCrf { op, dst, src1, src2 } => {
                let b = self.crf_value(src2);
                let a = self.ctrl_rf[src1.index()];
                self.ctrl_rf[dst.index()] = op.apply(a, b);
            }
            Instruction::SetiCrf { dst, imm } => {
                self.ctrl_rf[dst.index()] = imm;
            }
            Instruction::SetiVsm { vsm_addr, imm } => {
                self.vsm.write_u32(vsm_addr, imm);
            }
            Instruction::Req { target, dram_addr, vsm_addr } => {
                let tag = self.next_req_tag;
                self.next_req_tag += 1;
                let daddr = self.crf_value(dram_addr) as u32;
                let vaddr = self.crf_value(vsm_addr) as u32;
                self.reqs_in_flight.insert(tag, vaddr);
                self.track(REQ_TAG_BASE + tag, InFlightInst { pending: 1, pc: None, mem_extra: 0 });
                self.outbox.push(OutMsg::ReqForward {
                    origin: self.id,
                    target,
                    dram_addr: daddr,
                    tag,
                });
                self.stats.remote_reqs += 1;
                // Functional effect happens when the remote vault serves the
                // read; the VSM interlock keeps readers ordered behind it.
                self.pending_req_fills.push((tag, target, daddr, vaddr));
            }
            _ => {
                // SIMB-broadcast instruction: functional execution across
                // the masked PEs, then timing dispatch.
                let inst_id = self.next_inst_id;
                self.next_inst_id += 1;
                debug_assert!(inst_id < REQ_TAG_BASE);
                let mask = inst.simb_mask().expect("broadcast instruction");
                self.execute_functional(&inst, mask);
                self.dispatch(&inst, mask, inst_id, now);
            }
        }
        self.pc = next_pc;
        true
    }

    fn crf_value(&self, src: CrfSrc) -> i32 {
        match src {
            CrfSrc::Imm(v) => v,
            CrfSrc::Reg(r) => self.ctrl_rf[r.index()],
        }
    }

    /// Applies the functional semantics of a broadcast instruction: one
    /// decode, then the masked PEs in ascending order. Register-only
    /// instructions run as one kernel over the mask (`RegFiles::execute`).
    fn execute_functional(&mut self, inst: &Instruction, mask: SimbMask) {
        let pes_per_pg = self.config.pes_per_pg;
        let regs = &mut self.regs;
        match *inst {
            Instruction::LdRf { dram_addr, drf, .. } => {
                let d = regs.col(drf);
                for g in mask.iter() {
                    let mut buf = [0u8; 16];
                    self.pes[g].bank.read(regs.resolve(g, dram_addr), &mut buf);
                    regs.data[d + g] = bytes_to_vector(&buf);
                }
            }
            Instruction::StRf { dram_addr, drf, .. } => {
                let d = regs.col(drf);
                for g in mask.iter() {
                    let addr = regs.resolve(g, dram_addr);
                    self.pes[g].bank.write(addr, &vector_to_bytes(&regs.data[d + g]));
                }
            }
            Instruction::LdPgsm { dram_addr, pgsm_addr, .. } => {
                for g in mask.iter() {
                    let da = regs.resolve(g, dram_addr);
                    let pa = regs.resolve(g, pgsm_addr);
                    let mut buf = [0u8; 16];
                    self.pes[g].bank.read(da, &mut buf);
                    self.pgsms[g / pes_per_pg].write(pa, &buf);
                }
            }
            Instruction::StPgsm { dram_addr, pgsm_addr, .. } => {
                for g in mask.iter() {
                    let da = regs.resolve(g, dram_addr);
                    let pa = regs.resolve(g, pgsm_addr);
                    let mut buf = [0u8; 16];
                    self.pgsms[g / pes_per_pg].read(pa, &mut buf);
                    self.pes[g].bank.write(da, &buf);
                }
            }
            Instruction::RdPgsm { pgsm_addr, drf, .. } => {
                let d = regs.col(drf);
                for g in mask.iter() {
                    let mut buf = [0u8; 16];
                    self.pgsms[g / pes_per_pg].read(regs.resolve(g, pgsm_addr), &mut buf);
                    regs.data[d + g] = bytes_to_vector(&buf);
                }
            }
            Instruction::WrPgsm { pgsm_addr, drf, .. } => {
                let d = regs.col(drf);
                for g in mask.iter() {
                    let pa = regs.resolve(g, pgsm_addr);
                    self.pgsms[g / pes_per_pg].write(pa, &vector_to_bytes(&regs.data[d + g]));
                }
            }
            Instruction::RdVsm { vsm_addr, drf, .. } => {
                let d = regs.col(drf);
                for g in mask.iter() {
                    let mut buf = [0u8; 16];
                    self.vsm.read(regs.resolve(g, vsm_addr), &mut buf);
                    regs.data[d + g] = bytes_to_vector(&buf);
                }
            }
            Instruction::WrVsm { vsm_addr, drf, .. } => {
                let d = regs.col(drf);
                for g in mask.iter() {
                    let va = regs.resolve(g, vsm_addr);
                    self.vsm.write(va, &vector_to_bytes(&regs.data[d + g]));
                }
            }
            _ => regs.execute(inst, mask),
        }
    }

    /// Sends the timing work of a broadcast instruction to its unit on each
    /// masked PE and enters the instruction into the Issued-Inst-Queue
    /// (unless it masks no PE, so that nothing would complete).
    fn dispatch(&mut self, inst: &Instruction, mask: SimbMask, inst_id: u64, now: u64) {
        let InstCost { unit, latency, .. } = *self.costs.cost(self.pc);
        let n = mask.count() as u32;
        if n == 0 {
            return;
        }

        let mut mem_extra = 0;
        match unit {
            ExecUnit::Simd | ExecUnit::Alu | ExecUnit::PgsmPort => {
                // A unit collects completions before it starts the tick's op,
                // so an op completes no earlier than the tick after its start.
                let start = now + 1;
                let done = start + latency.max(1);
                let mask = mask.bits();
                self.unit_ops.push(UnitOp { start, done, inst_id, n, unit, mask });
            }
            ExecUnit::VsmPort => {
                for g in mask.iter() {
                    self.pes[g].vsm_port.queue.push_back((inst_id, latency));
                    self.vsm_active |= 1 << g;
                }
            }
            ExecUnit::Mem(kind) => {
                // A read's data crosses the path after the bank access; a
                // write completes when the bank takes it.
                if kind == AccessKind::Read {
                    mem_extra = latency;
                }
                let dram_addr = match *inst {
                    Instruction::LdRf { dram_addr, .. }
                    | Instruction::StRf { dram_addr, .. }
                    | Instruction::LdPgsm { dram_addr, .. }
                    | Instruction::StPgsm { dram_addr, .. } => dram_addr,
                    _ => unreachable!(),
                };
                if self.attached && !self.congruent(dram_addr, mask) {
                    self.detach();
                }
                // In lockstep PG 0's PEs queue for their twins too.
                let mut lanes = mask.bits() & self.mem_lanes();
                while lanes != 0 {
                    let g = lanes.trailing_zeros() as usize;
                    lanes &= lanes - 1;
                    let req = Request {
                        id: RequestId(((g as u64) << 40) | inst_id),
                        bank: g % self.config.pes_per_pg,
                        addr: self.regs.resolve(g, dram_addr) & !(ACCESS_BYTES as u32 - 1),
                        kind,
                    };
                    self.mem_queued |= self.twins(g);
                    self.pes[g].mem.queue.push_back(req);
                }
            }
            ExecUnit::Core => unreachable!("control-core instruction in dispatch"),
        }
        self.track(inst_id, InFlightInst { pending: n, pc: Some(self.pc), mem_extra });
    }

    /// PG 0's PEs: the ones that queue memory requests in lockstep.
    fn leader_lanes(&self) -> u64 {
        u64::MAX >> (64 - self.config.pes_per_pg)
    }

    /// The PEs whose memory queues are live.
    fn mem_lanes(&self) -> u64 {
        if self.attached {
            self.leader_lanes()
        } else {
            u64::MAX
        }
    }

    /// The PEs PE `g`'s memory queue stands for: its twins in every PG while
    /// in lockstep, itself otherwise.
    fn twins(&self, g: usize) -> u64 {
        if self.attached {
            self.lockstep.spread << g
        } else {
            1 << g
        }
    }

    /// How many controllers tick, from PG 0 on: the leader alone while in
    /// lockstep.
    fn ticking(&self) -> usize {
        if self.attached {
            1
        } else {
            self.mcs.len()
        }
    }

    /// Whether a memory instruction keeps the vault in lockstep: its mask
    /// selects the same PEs in every PG, and each selected PE's aligned
    /// bank address equals its PG-0 twin's.
    fn congruent(&self, dram_addr: AddrOperand, mask: SimbMask) -> bool {
        let lead = mask.bits() & self.leader_lanes();
        if mask.bits() != lead * self.lockstep.spread {
            return false;
        }
        let AddrOperand::Indirect(r) = dram_addr else { return true };
        let ppg = self.config.pes_per_pg;
        // PG 0's column of the register, then every other PG's.
        let column = &self.regs.addr[r.index() * self.regs.pes..][..self.regs.pes];
        let line = |g: usize| column[g] as u32 & !(ACCESS_BYTES as u32 - 1);
        (ppg..self.pes.len())
            .filter(|g| lead >> (g % ppg) & 1 == 1)
            .all(|g| line(g) == line(g % ppg))
    }

    /// Enters lockstep: the leader logs its trace events for its followers
    /// from now on.
    fn attach(&mut self) {
        self.attached = true;
        self.mcs[0].set_leading(true);
        self.mcs[0].counters_into(&mut self.lockstep.base);
    }

    /// Re-enters lockstep once every controller has drained and would act
    /// alike from the next cycle on, with no request queued or parked.
    fn try_attach(&mut self, now: u64) {
        if self.mem_queued != 0 || self.mem_outstanding != 0 || !self.pending_serves.is_empty() {
            return;
        }
        let (lead, rest) = self.mcs.split_first().expect("a vault has a process group");
        if lead.is_idle() && rest.iter().all(|mc| mc.in_step_with(lead, now)) {
            self.attach();
        }
    }

    /// Leaves lockstep: every follower takes over the leader's controller
    /// state and its PEs take over their PG-0 twins' memory queues, each
    /// with its own request ids.
    fn detach(&mut self) {
        self.attached = false;
        let ppg = self.config.pes_per_pg;
        let (lead, rest) = self.mcs.split_at_mut(1);
        let lead = &mut lead[0];
        lead.set_leading(false);
        let (lead_pes, rest_pes) = self.pes.split_at_mut(ppg);
        for (i, mc) in rest.iter_mut().enumerate() {
            let p = i + 1;
            // PE `b`'s request `b << 40 | inst` is its twin's `(p * ppg + b) << 40 | inst`.
            let twin = |id: RequestId| RequestId(id.0 + (((p * ppg) as u64) << 40));
            mc.adopt(lead, &self.lockstep.base, twin);
            for (b, pe) in lead_pes.iter().enumerate() {
                let follower = &mut rest_pes[i * ppg + b].mem;
                let queue = pe.mem.queue.iter().map(|r| Request { id: twin(r.id), ..*r });
                follower.outstanding = pe.mem.outstanding;
                follower.queue.clear();
                follower.queue.extend(queue);
            }
        }
    }

    /// Applies the leader's tick to its followers: each event it emitted is
    /// replayed on every follower's components, PG by PG, as the followers'
    /// own ticks would have emitted them.
    fn follow_leader(&mut self, now: u64) {
        let events = &mut self.lockstep.events;
        self.mcs[0].take_log(events);
        if !events.is_empty() {
            for mc in &self.mcs[1..] {
                mc.replay_events(now, events);
            }
            events.clear();
        }
    }

    /// Adds this vault's DRAM command and row-locality counters to
    /// `bank_stats` and `locality`.
    pub(crate) fn add_dram_totals(&self, bank_stats: &mut BankStats, locality: &mut RowLocality) {
        for mc in &self.mcs {
            *bank_stats += mc.total_bank_stats();
            *locality += mc.locality;
        }
        if self.attached {
            // Each frozen follower did what the leader did since attaching.
            let (bank, rows) = self.mcs[0].growth_since(&self.lockstep.base);
            for _ in 1..self.mcs.len() {
                *bank_stats += bank;
                *locality += rows;
            }
        }
    }

    /// Completes the functional effect of a served remote request: called by
    /// the machine when it routes the `ReqForward` (the remote read value is
    /// snapshotted at service time; see module docs).
    pub(crate) fn take_pending_req_fills(&mut self) -> Vec<(u64, RemoteTarget, u32, u32)> {
        std::mem::take(&mut self.pending_req_fills)
    }

    /// Host/machine helper: write 16 bytes into this vault's VSM (remote
    /// response data landing).
    pub(crate) fn fill_vsm(&mut self, addr: u32, data: [u8; 16]) {
        self.vsm.write(addr, &data);
    }

    /// Reads 16 bytes from a bank (machine-level remote service).
    pub(crate) fn read_bank16(&self, pg: usize, pe: usize, addr: u32) -> [u8; 16] {
        let mut buf = [0u8; 16];
        self.bank_array(pg, pe).read(addr, &mut buf);
        buf
    }
}

/// Base of the inflight-id space reserved for `req` instructions.
const REQ_TAG_BASE: u64 = 1 << 39;
/// Base of the MC request-id space reserved for remote serves.
const REMOTE_SERVE_BASE: u64 = 1 << 62;

fn bytes_to_vector(b: &[u8; 16]) -> Vector {
    let mut v = [0u32; 4];
    for (i, lane) in v.iter_mut().enumerate() {
        *lane = u32::from_le_bytes(b[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
    }
    v
}

fn vector_to_bytes(v: &Vector) -> [u8; 16] {
    let mut b = [0u8; 16];
    for (i, lane) in v.iter().enumerate() {
        b[i * 4..i * 4 + 4].copy_from_slice(&lane.to_le_bytes());
    }
    b
}

/// Lane semantics of the SIMD `comp` operations. Always inlined: each
/// `comp` kernel instantiates it for one constant opcode and data type.
#[inline(always)]
fn apply_comp(op: CompOp, dtype: DataType, a: u32, b: u32, d: u32) -> u32 {
    use CompOp::*;
    match dtype {
        DataType::F32 => {
            let (fa, fb, fd) = (f32::from_bits(a), f32::from_bits(b), f32::from_bits(d));
            match op {
                Add => (fa + fb).to_bits(),
                Sub => (fa - fb).to_bits(),
                Mul => (fa * fb).to_bits(),
                Mac => (fd + fa * fb).to_bits(),
                Div => (fa / fb).to_bits(),
                Min => fa.min(fb).to_bits(),
                Max => fa.max(fb).to_bits(),
                CmpLt => ((fa < fb) as u32 as f32).to_bits(),
                CmpLe => ((fa <= fb) as u32 as f32).to_bits(),
                CmpEq => ((fa == fb) as u32 as f32).to_bits(),
                CvtI2F => (a as i32 as f32).to_bits(),
                CvtF2I => (fa as i32) as u32,
                Shl => a.wrapping_shl(b & 31),
                Shr => a.wrapping_shr(b & 31),
                And => a & b,
                Or => a | b,
                Xor => a ^ b,
                CropLsb => a & 0xFFFF,
                CropMsb => a >> 16,
            }
        }
        DataType::I32 => {
            let (ia, ib, id) = (a as i32, b as i32, d as i32);
            match op {
                Add => ia.wrapping_add(ib) as u32,
                Sub => ia.wrapping_sub(ib) as u32,
                Mul => ia.wrapping_mul(ib) as u32,
                Mac => id.wrapping_add(ia.wrapping_mul(ib)) as u32,
                Div => {
                    if ib == 0 {
                        0
                    } else {
                        ia.wrapping_div(ib) as u32
                    }
                }
                Min => ia.min(ib) as u32,
                Max => ia.max(ib) as u32,
                CmpLt => (ia < ib) as u32,
                CmpLe => (ia <= ib) as u32,
                CmpEq => (ia == ib) as u32,
                CvtI2F => (ia as f32).to_bits(),
                CvtF2I => (f32::from_bits(a) as i32) as u32,
                Shl => a.wrapping_shl(b & 31),
                Shr => (ia.wrapping_shr(b & 31)) as u32,
                And => a & b,
                Or => a | b,
                Xor => a ^ b,
                CropLsb => a & 0xFFFF,
                CropMsb => a >> 16,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vault() -> Vault {
        Vault::new(VaultId { cube: 0, vault: 0 }, &MachineConfig::vault_slice(1))
    }

    #[test]
    fn identity_registers_initialized() {
        let v = vault();
        // PE 13 = PG 3, PE-in-PG 1.
        assert_eq!(v.addr_rf(13, ARF_PE_ID.index()), 1);
        assert_eq!(v.addr_rf(13, ARF_PG_ID.index()), 3);
        assert_eq!(v.addr_rf(13, ARF_VAULT_ID.index()), 0);
        assert_eq!(v.addr_rf(13, ARF_CHIP_ID.index()), 0);
    }

    #[test]
    fn fresh_vault_is_halted() {
        let v = vault();
        assert!(v.is_halted());
        assert_eq!(v.at_barrier(), None);
    }

    #[test]
    fn vector_byte_round_trip() {
        let v: Vector = [1, 0xDEAD_BEEF, u32::MAX, 42];
        assert_eq!(bytes_to_vector(&vector_to_bytes(&v)), v);
    }

    #[test]
    fn comp_semantics_float_and_int() {
        let two = 2.0f32.to_bits();
        let three = 3.0f32.to_bits();
        assert_eq!(f32::from_bits(apply_comp(CompOp::Add, DataType::F32, two, three, 0)), 5.0);
        assert_eq!(
            f32::from_bits(apply_comp(CompOp::Mac, DataType::F32, two, three, 1.0f32.to_bits())),
            7.0
        );
        assert_eq!(apply_comp(CompOp::Mul, DataType::I32, 7u32, (-3i32) as u32, 0) as i32, -21);
        assert_eq!(apply_comp(CompOp::Div, DataType::I32, 7, 0, 0), 0);
        assert_eq!(apply_comp(CompOp::CmpLt, DataType::I32, (-1i32) as u32, 1, 0), 1);
        assert_eq!(f32::from_bits(apply_comp(CompOp::CvtI2F, DataType::F32, 5, 0, 0)), 5.0);
        assert_eq!(apply_comp(CompOp::CvtF2I, DataType::I32, 5.9f32.to_bits(), 0, 0), 5);
        assert_eq!(apply_comp(CompOp::CropLsb, DataType::I32, 0xABCD_1234, 0, 0), 0x1234);
        assert_eq!(apply_comp(CompOp::CropMsb, DataType::I32, 0xABCD_1234, 0, 0), 0xABCD);
    }

    /// One PE's registers laid out as a per-PE register file: the state the
    /// kernel property checks the register-major kernels against.
    #[derive(Debug, Clone, Copy)]
    struct PeRegs {
        data: [Vector; 4],
        addr: [i32; 4],
    }

    /// A register-only broadcast applied the per-PE, per-lane way: each PE
    /// of `mask` in turn, each lane through `apply_comp` or `ArfOp::apply`.
    fn per_pe_reference(pes: &mut [PeRegs], inst: &Instruction, mask: SimbMask) {
        for (g, rf) in pes.iter_mut().enumerate().filter(|&(g, _)| mask.contains(g)) {
            match *inst {
                Instruction::Comp { op, dtype, mode, dst, src1, src2, vec_mask, .. } => {
                    let (a, b, d0) =
                        (rf.data[src1.index()], rf.data[src2.index()], rf.data[dst.index()]);
                    let mut d = d0;
                    for l in (0..4).filter(|&l| vec_mask.lane(l)) {
                        let rhs = match mode {
                            CompMode::VectorVector => b[l],
                            CompMode::ScalarVector => b[0],
                        };
                        d[l] = apply_comp(op, dtype, a[l], rhs, d0[l]);
                    }
                    rf.data[dst.index()] = d;
                }
                Instruction::CalcArf { op, dst, src1, src2, .. } => {
                    let b = match src2 {
                        ArfSrc::Imm(v) => v,
                        ArfSrc::Reg(r) => rf.addr[r.index()],
                    };
                    rf.addr[dst.index()] = op.apply(rf.addr[src1.index()], b);
                }
                Instruction::Mov { to_arf: true, arf, drf, lane, .. } => {
                    rf.addr[arf.index()] = rf.data[drf.index()][lane as usize & 3] as i32;
                }
                Instruction::Mov { to_arf: false, arf, drf, lane, .. } => {
                    rf.data[drf.index()][lane as usize & 3] = rf.addr[arf.index()] as u32;
                }
                Instruction::Reset { drf, .. } => rf.data[drf.index()] = [0; 4],
                Instruction::SetiDrf { drf, imm, vec_mask, .. } => {
                    for l in (0..4).filter(|&l| vec_mask.lane(l)) {
                        rf.data[drf.index()][l] = imm;
                    }
                }
                _ => unreachable!("{g}: not a register-only broadcast"),
            }
        }
    }

    /// Every register-only broadcast a case runs: each `comp` opcode × data
    /// type × mode × lane mask, each `calc_arf` opcode with an immediate and
    /// a register operand, `mov` both ways, `seti_drf` under every lane mask
    /// and `reset`. `r` picks registers among four, so the destination often
    /// aliases a source.
    fn register_broadcasts(
        simb: SimbMask,
        r: [u8; 3],
        imm: i32,
        bits: u32,
        lane: u8,
    ) -> Vec<Instruction> {
        use ipim_isa::AddrReg;
        use CompOp::*;
        let [dst, src1, src2] = r;
        let ops = [
            Add, Sub, Mul, Mac, Div, Min, Max, Shl, Shr, And, Or, Xor, CropLsb, CropMsb, CmpLt,
            CmpLe, CmpEq, CvtI2F, CvtF2I,
        ];
        let mut all = Vec::new();
        for op in ops {
            for dtype in [DataType::F32, DataType::I32] {
                for mode in [CompMode::VectorVector, CompMode::ScalarVector] {
                    for lanes in 0..16 {
                        all.push(Instruction::Comp {
                            op,
                            dtype,
                            mode,
                            dst: DataReg::new(dst),
                            src1: DataReg::new(src1),
                            src2: DataReg::new(src2),
                            vec_mask: VecMask::from_bits(lanes),
                            simb_mask: simb,
                        });
                    }
                }
            }
        }
        use ArfOp as A;
        for op in
            [A::Add, A::Sub, A::Mul, A::Div, A::Rem, A::Shl, A::Shr, A::And, A::Or, A::Min, A::Max]
        {
            for src2 in [ArfSrc::Imm(imm), ArfSrc::Reg(AddrReg::new(src2))] {
                let (dst, src1) = (AddrReg::new(dst), AddrReg::new(src1));
                all.push(Instruction::CalcArf { op, dst, src1, src2, simb_mask: simb });
            }
        }
        for to_arf in [true, false] {
            let (arf, drf) = (AddrReg::new(dst), DataReg::new(src1));
            all.push(Instruction::Mov { to_arf, arf, drf, lane, simb_mask: simb });
        }
        for lanes in 0..16 {
            let vec_mask = VecMask::from_bits(lanes);
            all.push(Instruction::SetiDrf {
                drf: DataReg::new(dst),
                imm: bits,
                vec_mask,
                simb_mask: simb,
            });
        }
        all.push(Instruction::Reset { drf: DataReg::new(dst), simb_mask: simb });
        all
    }

    /// Whether a `calc_arf` division or remainder meets `i32::MIN / -1` on a
    /// PE of `mask`: `ArfOp::apply` panics there, in the kernel and in the
    /// per-PE loop alike, so the property leaves such a case out.
    fn division_overflows(pes: &[PeRegs], inst: &Instruction, mask: SimbMask) -> bool {
        let Instruction::CalcArf { op: ArfOp::Div | ArfOp::Rem, src1, src2, .. } = *inst else {
            return false;
        };
        pes.iter().enumerate().any(|(g, rf)| {
            let b = match src2 {
                ArfSrc::Imm(v) => v,
                ArfSrc::Reg(r) => rf.addr[r.index()],
            };
            mask.contains(g) && rf.addr[src1.index()] == i32::MIN && b == -1
        })
    }

    #[test]
    fn simb_kernels_match_the_per_pe_lane_semantics() {
        use ipim_simkit::{check, Gen};
        const PES: usize = 32;
        // Lane values that exercise the edges of every opcode: NaNs (quiet,
        // negative, signalling), infinities, signed zeros, a denormal, the
        // i32 extremes, zero divisors and shift counts past 31.
        const EDGES: [u32; 16] = [
            0x7FC0_0000,
            0xFFC0_0001,
            0x7F80_0001,
            0x7F80_0000,
            0xFF80_0000,
            0,
            0x8000_0000,
            1,
            0x3F80_0000,
            0xBFC0_0000,
            0x8000_0000 - 1,
            0xFFFF_FFFF,
            0x8000_0001,
            31,
            32,
            0x4B00_0001,
        ];
        let gen = Gen::from_fn(|rng| {
            let value = |rng: &mut ipim_simkit::Rng| {
                if rng.next_bool() {
                    *rng.choose(&EDGES)
                } else {
                    rng.next_u32()
                }
            };
            let data: Vec<[u32; 4]> =
                (0..4 * PES).map(|_| std::array::from_fn(|_| value(rng))).collect();
            let addr: Vec<i32> = (0..4 * PES).map(|_| value(rng) as i32).collect();
            // Full, one process group, sparse, or empty.
            let mask = match rng.range_u64(4) {
                0 => (1u64 << PES) - 1,
                1 => 0xF << (4 * rng.range_u64(8)),
                2 => rng.next_u64() & rng.next_u64() & ((1 << PES) - 1),
                _ => 0,
            };
            let r: [u8; 3] = std::array::from_fn(|_| rng.range_u32(0, 4) as u8);
            (data, addr, mask, r, value(rng), rng.range_u32(0, 8) as u8)
        });
        check("simb_kernels_match_per_pe_lanes", &gen, |(data, addr, mask, r, imm, lane)| {
            let mut start = RegFiles::new(PES, 4, 4);
            start.data.copy_from_slice(data);
            start.addr.copy_from_slice(addr);
            // The same state, one register file per PE.
            let per_pe: Vec<PeRegs> = (0..PES)
                .map(|g| PeRegs {
                    data: std::array::from_fn(|i| start.data[i * PES + g]),
                    addr: std::array::from_fn(|i| start.addr[i * PES + g]),
                })
                .collect();
            let simb = SimbMask::from_bits(PES, *mask);
            for inst in register_broadcasts(simb, *r, *imm as i32, *imm, *lane) {
                if division_overflows(&per_pe, &inst, simb) {
                    continue;
                }
                let mut regs = start.clone();
                regs.execute(&inst, simb);
                let mut want = per_pe.clone();
                per_pe_reference(&mut want, &inst, simb);
                for (g, pe) in want.iter().enumerate() {
                    for i in 0..4 {
                        let (got, exp) = (regs.data[i * PES + g], pe.data[i]);
                        assert_eq!(got, exp, "{inst}: DataRF {i} of PE {g}");
                        let (got, exp) = (regs.addr[i * PES + g], pe.addr[i]);
                        assert_eq!(got, exp, "{inst}: AddrRF {i} of PE {g}");
                    }
                }
            }
        });
    }

    #[test]
    fn busy_integrators_match_per_pe_stamps() {
        use ipim_isa::{AddrReg, ProgramBuilder};
        use ipim_simkit::{check, Gen};
        // Per op: the opcode (SIMD add, mul, mac, div, logic or seti; ALU
        // calc_arf or mov, each with its own latency), a PE mask, and a
        // register among four, so ops overlap and some wait on hazards.
        let gen = Gen::from_fn(|rng| {
            (0..rng.range_usize(1, 24))
                .map(|_| {
                    (rng.range_u32(0, 8), rng.next_u32() & rng.next_u32(), rng.range_u32(0, 4))
                })
                .collect::<Vec<_>>()
        });
        check("busy_integrators_equal_per_pe_stamps", &gen, |ops| {
            let config = MachineConfig::vault_slice(1);
            let mut b = ProgramBuilder::new();
            for &(kind, bits, r) in ops {
                let simb_mask = SimbMask::from_bits(32, u64::from(bits));
                let (drf, arf) = (DataReg::new(r as u8), AddrReg::new(4 + r as u8));
                let comp = |op| Instruction::Comp {
                    op,
                    dtype: DataType::F32,
                    mode: CompMode::VectorVector,
                    dst: drf,
                    src1: DataReg::new(4),
                    src2: DataReg::new(5),
                    vec_mask: VecMask::ALL,
                    simb_mask,
                };
                b.push(match kind {
                    0 => comp(CompOp::Add),
                    1 => comp(CompOp::Mul),
                    2 => comp(CompOp::Mac),
                    3 => comp(CompOp::Div),
                    4 => comp(CompOp::And),
                    5 => Instruction::SetiDrf { drf, imm: 1, vec_mask: VecMask::ALL, simb_mask },
                    6 => Instruction::CalcArf {
                        op: ArfOp::Add,
                        dst: arf,
                        src1: AddrReg::new(9),
                        src2: ArfSrc::Imm(3),
                        simb_mask,
                    },
                    _ => Instruction::Mov {
                        to_arf: false,
                        arf: AddrReg::new(9),
                        drf,
                        lane: 1,
                        simb_mask,
                    },
                });
            }
            let program = Arc::new(b.seal().expect("straight-line program"));
            let costs = Arc::new(CostTable::decode(program.instructions(), &config));
            // Ticked every cycle (legacy) and jumping `next_event` windows
            // (skip-ahead).
            for skipping in [false, true] {
                let mut v = Vault::new(VaultId { cube: 0, vault: 0 }, &config);
                v.load_program(Arc::clone(&program), Arc::clone(&costs));
                // Per PE: the cycle its SIMD unit / ALU stops being busy.
                let (mut simd, mut alu) = ([0u64; 32], [0u64; 32]);
                let (mut want_simd, mut want_alu) = (0u64, 0u64);
                let busy =
                    |until: &[u64; 32], c: u64| until.iter().filter(|&&t| c < t).count() as u64;
                let mut now = 0;
                while !v.is_halted() {
                    let next = if skipping { v.next_event(now).unwrap_or(now) } else { now };
                    if next > now {
                        v.skip(now, next - now);
                        for c in now..next {
                            want_simd += busy(&simd, c);
                            want_alu += busy(&alu, c);
                        }
                        now = next;
                    } else {
                        let (pc, issued) = (v.pc, v.stats.issued);
                        want_simd += busy(&simd, now);
                        want_alu += busy(&alu, now);
                        v.tick(now);
                        if v.stats.issued > issued {
                            let cost = costs.cost(pc);
                            let until = match cost.unit {
                                ExecUnit::Simd => &mut simd,
                                ExecUnit::Alu => &mut alu,
                                unit => unreachable!("{unit:?}"),
                            };
                            let mask = program.instructions()[pc].simb_mask().expect("broadcast");
                            for g in mask.iter() {
                                until[g] = until[g].max(now + 1 + cost.latency.max(1));
                            }
                        }
                        now += 1;
                    }
                    assert_eq!(v.stats.simd_busy, want_simd, "SIMD busy PE-cycles by cycle {now}");
                    assert_eq!(v.stats.int_alu_busy, want_alu, "ALU busy PE-cycles by cycle {now}");
                    assert!(now < 100_000, "the program never drained");
                }
            }
        });
    }

    #[test]
    fn unit_pipelines_one_start_per_cycle() {
        let mut u = Unit::default();
        u.queue.push_back((1, 4));
        u.queue.push_back((2, 4));
        u.start(10);
        u.start(10); // same cycle: second start refused
        assert_eq!(u.in_flight.len(), 1);
        u.start(11);
        assert_eq!(u.in_flight.len(), 2);
        let mut done = Vec::new();
        u.complete(13, &mut done);
        assert!(done.is_empty());
        u.complete(14, &mut done);
        assert_eq!(done, vec![(1, 1)]);
        u.complete(15, &mut done);
        assert_eq!(done, vec![(1, 1), (2, 1)]);
        assert!(u.in_flight.is_empty() && u.queue.is_empty());
    }
}
