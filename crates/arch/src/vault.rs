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

use std::collections::VecDeque;
use std::sync::Arc;

use ipim_dram::{
    AccessKind, Bank, BankArray, BankStats, Completion, Counters, LoggedEvent, MemController,
    Request, RequestId, RowLocality, ACCESS_BYTES,
};
use ipim_isa::{
    AddrOperand, ArfSrc, CompMode, CompOp, CrfSrc, DataType, Instruction, Program, RemoteTarget,
    SimbMask, ARF_CHIP_ID, ARF_PE_ID, ARF_PG_ID, ARF_VAULT_ID,
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

/// One process engine: register files, its VSM port, its memory queue and
/// the contents of its bank.
#[derive(Debug, Clone)]
struct Pe {
    data_rf: Vec<Vector>,
    addr_rf: Vec<i32>,
    vsm_port: Unit,
    mem: MemUnit,
    bank: BankArray,
}

impl Pe {
    fn new(config: &MachineConfig) -> Self {
        Self {
            data_rf: vec![[0; 4]; config.data_rf_entries],
            addr_rf: vec![0; config.addr_rf_entries],
            vsm_port: Unit::default(),
            mem: MemUnit::default(),
            bank: BankArray::new(),
        }
    }
}

/// One SIMB instruction on a fixed-latency unit (SIMD, integer ALU or
/// PGSM port), standing for that unit on every masked PE. The core issues
/// at most one instruction per tick and each unit starts one op per tick,
/// so a PE's unit queue never holds more than the op issued on the
/// previous tick: the op starts at `issue + 1` on every masked PE at once
/// and completes there at `done`, where all `n` completions retire
/// together.
#[derive(Debug, Clone, Copy)]
struct UnitOp {
    start: u64,
    done: u64,
    inst_id: u64,
    n: u32,
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

/// Per-PE busy stamps of one fixed-latency unit (SIMD or integer ALU): a
/// PE's unit is busy at tick `c` exactly when `c < until[pe]`. The mask of
/// busy PEs is kept alongside and recounted only once the earliest stamp
/// in it may have expired, so the per-tick busy count is one popcount.
#[derive(Debug, Clone)]
struct BusyStamps {
    until: Vec<u64>,
    // PEs busy at the last recount, plus those stamped since.
    busy: u64,
    // Lower bound on the earliest stamp in `busy` (`u64::MAX` when empty).
    expires: u64,
}

impl BusyStamps {
    fn new(pes: usize) -> Self {
        Self { until: vec![0; pes], busy: 0, expires: u64::MAX }
    }

    fn clear(&mut self) {
        self.until.iter_mut().for_each(|t| *t = 0);
        self.busy = 0;
        self.expires = u64::MAX;
    }

    /// Keeps every PE of `mask` busy until at least `done`.
    fn stamp(&mut self, mask: SimbMask, done: u64) {
        for g in mask.iter() {
            self.until[g] = self.until[g].max(done);
        }
        self.busy |= mask.bits();
        self.expires = self.expires.min(done);
    }

    /// PEs busy at `now`; `now` never decreases between calls.
    fn count(&mut self, now: u64) -> u64 {
        if now >= self.expires {
            let (mut busy, mut expires) = (0, u64::MAX);
            let mut pes = self.busy;
            while pes != 0 {
                let g = pes.trailing_zeros() as usize;
                pes &= pes - 1;
                if now < self.until[g] {
                    busy |= 1 << g;
                    expires = expires.min(self.until[g]);
                }
            }
            (self.busy, self.expires) = (busy, expires);
        }
        u64::from(self.busy.count_ones())
    }
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
    unit_ops: Vec<UnitOp>,
    // Per PE: when its SIMD unit and its integer ALU stop being busy; see
    // `UnitOp`.
    simd_busy: BusyStamps,
    alu_busy: BusyStamps,
    // Bit `pe` set: the PE's memory queue holds requests / the PE has
    // requests outstanding at its MC / its VSM port holds an op.
    mem_queued: u64,
    mem_outstanding: u64,
    vsm_active: u64,
    // Completions collected during a tick: (inflight id, count).
    finished: Vec<(u64, u32)>,
    // Memory-controller completions of one tick, buffer reused.
    mc_done: Vec<Completion>,
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
        let pes: Vec<Pe> = (0..config.pes_per_vault()).map(|_| Pe::new(config)).collect();
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
            simd_busy: BusyStamps::new(config.pes_per_vault()),
            alu_busy: BusyStamps::new(config.pes_per_vault()),
            mem_queued: 0,
            mem_outstanding: 0,
            vsm_active: 0,
            finished: Vec::new(),
            mc_done: Vec::new(),
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
        for pg in 0..self.config.pgs_per_vault {
            for pe in 0..self.config.pes_per_pg {
                let g = pg * self.config.pes_per_pg + pe;
                self.pes[g].addr_rf[ARF_PE_ID.index()] = pe as i32;
                self.pes[g].addr_rf[ARF_PG_ID.index()] = pg as i32;
                self.pes[g].addr_rf[ARF_VAULT_ID.index()] = self.id.vault as i32;
                self.pes[g].addr_rf[ARF_CHIP_ID.index()] = self.id.cube as i32;
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
        self.simd_busy.clear();
        self.alu_busy.clear();
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
        for pe in &mut self.pes {
            pe.data_rf.iter_mut().for_each(|v| *v = [0; 4]);
            pe.addr_rf.iter_mut().for_each(|v| *v = 0);
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

    /// Host access: a PE's DataRF (tests and debugging).
    pub fn data_rf(&self, pe: usize) -> &[Vector] {
        &self.pes[pe].data_rf
    }

    /// Host access: a PE's AddrRF (tests and debugging).
    pub fn addr_rf(&self, pe: usize) -> &[i32] {
        &self.pes[pe].addr_rf
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
    /// integrators: a PE's SIMD unit or ALU is busy before its stamp, and
    /// its memory path while requests are queued or outstanding.
    fn account_busy(&mut self, now: u64, cycles: u64) {
        self.stats.simd_busy += self.simd_busy.count(now) * cycles;
        self.stats.int_alu_busy += self.alu_busy.count(now) * cycles;
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

    /// Resolves an address operand on a specific PE.
    fn resolve(&self, pe: usize, a: AddrOperand) -> u32 {
        match a {
            AddrOperand::Imm(v) => v,
            AddrOperand::Indirect(r) => self.pes[pe].addr_rf[r.index()] as u32,
        }
    }

    /// Applies the functional semantics of a broadcast instruction: one
    /// decode, then the masked PEs in ascending order.
    fn execute_functional(&mut self, inst: &Instruction, mask: SimbMask) {
        let pes_per_pg = self.config.pes_per_pg;
        match *inst {
            Instruction::Comp { op, dtype, mode, dst, src1, src2, vec_mask, .. } => {
                for g in mask.iter() {
                    let rf = &mut self.pes[g].data_rf;
                    let (a, b, d0) = (rf[src1.index()], rf[src2.index()], rf[dst.index()]);
                    let mut d = d0;
                    for l in 0..4 {
                        if !vec_mask.lane(l) {
                            continue;
                        }
                        let rhs = match mode {
                            CompMode::VectorVector => b[l],
                            CompMode::ScalarVector => b[0],
                        };
                        d[l] = apply_comp(op, dtype, a[l], rhs, d0[l]);
                    }
                    rf[dst.index()] = d;
                }
            }
            Instruction::CalcArf { op, dst, src1, src2, .. } => {
                for g in mask.iter() {
                    let rf = &mut self.pes[g].addr_rf;
                    let b = match src2 {
                        ArfSrc::Imm(v) => v,
                        ArfSrc::Reg(r) => rf[r.index()],
                    };
                    rf[dst.index()] = op.apply(rf[src1.index()], b);
                }
            }
            Instruction::Mov { to_arf, arf, drf, lane, .. } => {
                for g in mask.iter() {
                    let pe = &mut self.pes[g];
                    if to_arf {
                        pe.addr_rf[arf.index()] = pe.data_rf[drf.index()][lane as usize & 3] as i32;
                    } else {
                        pe.data_rf[drf.index()][lane as usize & 3] = pe.addr_rf[arf.index()] as u32;
                    }
                }
            }
            Instruction::LdRf { dram_addr, drf, .. } => {
                for g in mask.iter() {
                    let addr = self.resolve(g, dram_addr);
                    let pe = &mut self.pes[g];
                    let mut buf = [0u8; 16];
                    pe.bank.read(addr, &mut buf);
                    pe.data_rf[drf.index()] = bytes_to_vector(&buf);
                }
            }
            Instruction::StRf { dram_addr, drf, .. } => {
                for g in mask.iter() {
                    let addr = self.resolve(g, dram_addr);
                    let pe = &mut self.pes[g];
                    pe.bank.write(addr, &vector_to_bytes(&pe.data_rf[drf.index()]));
                }
            }
            Instruction::LdPgsm { dram_addr, pgsm_addr, .. } => {
                for g in mask.iter() {
                    let da = self.resolve(g, dram_addr);
                    let pa = self.resolve(g, pgsm_addr);
                    let mut buf = [0u8; 16];
                    self.pes[g].bank.read(da, &mut buf);
                    self.pgsms[g / pes_per_pg].write(pa, &buf);
                }
            }
            Instruction::StPgsm { dram_addr, pgsm_addr, .. } => {
                for g in mask.iter() {
                    let da = self.resolve(g, dram_addr);
                    let pa = self.resolve(g, pgsm_addr);
                    let mut buf = [0u8; 16];
                    self.pgsms[g / pes_per_pg].read(pa, &mut buf);
                    self.pes[g].bank.write(da, &buf);
                }
            }
            Instruction::RdPgsm { pgsm_addr, drf, .. } => {
                for g in mask.iter() {
                    let pa = self.resolve(g, pgsm_addr);
                    let mut buf = [0u8; 16];
                    self.pgsms[g / pes_per_pg].read(pa, &mut buf);
                    self.pes[g].data_rf[drf.index()] = bytes_to_vector(&buf);
                }
            }
            Instruction::WrPgsm { pgsm_addr, drf, .. } => {
                for g in mask.iter() {
                    let pa = self.resolve(g, pgsm_addr);
                    let buf = vector_to_bytes(&self.pes[g].data_rf[drf.index()]);
                    self.pgsms[g / pes_per_pg].write(pa, &buf);
                }
            }
            Instruction::RdVsm { vsm_addr, drf, .. } => {
                for g in mask.iter() {
                    let va = self.resolve(g, vsm_addr);
                    let mut buf = [0u8; 16];
                    self.vsm.read(va, &mut buf);
                    self.pes[g].data_rf[drf.index()] = bytes_to_vector(&buf);
                }
            }
            Instruction::WrVsm { vsm_addr, drf, .. } => {
                for g in mask.iter() {
                    let va = self.resolve(g, vsm_addr);
                    let buf = vector_to_bytes(&self.pes[g].data_rf[drf.index()]);
                    self.vsm.write(va, &buf);
                }
            }
            Instruction::Reset { drf, .. } => {
                for g in mask.iter() {
                    self.pes[g].data_rf[drf.index()] = [0; 4];
                }
            }
            Instruction::SetiDrf { drf, imm, vec_mask, .. } => {
                for g in mask.iter() {
                    let d = &mut self.pes[g].data_rf[drf.index()];
                    for (l, lane) in d.iter_mut().enumerate() {
                        if vec_mask.lane(l) {
                            *lane = imm;
                        }
                    }
                }
            }
            _ => unreachable!("non-broadcast instruction in execute_functional"),
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
                // The PGSM port's busy time is not integrated.
                match unit {
                    ExecUnit::Simd => self.simd_busy.stamp(mask, done),
                    ExecUnit::Alu => self.alu_busy.stamp(mask, done),
                    _ => {}
                }
                self.unit_ops.push(UnitOp { start, done, inst_id, n });
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
                        addr: self.resolve(g, dram_addr) & !(ACCESS_BYTES as u32 - 1),
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
        let line = |g: usize| self.pes[g].addr_rf[r.index()] as u32 & !(ACCESS_BYTES as u32 - 1);
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

/// Lane semantics of the SIMD `comp` operations.
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
        assert_eq!(v.addr_rf(13)[ARF_PE_ID.index()], 1);
        assert_eq!(v.addr_rf(13)[ARF_PG_ID.index()], 3);
        assert_eq!(v.addr_rf(13)[ARF_VAULT_ID.index()], 0);
        assert_eq!(v.addr_rf(13)[ARF_CHIP_ID.index()], 0);
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

    #[test]
    fn busy_stamps_count_matches_a_scan_of_every_stamp() {
        use ipim_simkit::{check, Gen};
        // Per step: cycles to advance, then a mask and latency to stamp.
        let gen = Gen::from_fn(|rng| {
            (0..64)
                .map(|_| (rng.next_u64() % 4, rng.next_u64() as u32, 1 + rng.next_u64() % 12))
                .collect::<Vec<_>>()
        });
        check("busy_count_equals_stamp_scan", &gen, |steps| {
            let mut stamps = BusyStamps::new(32);
            let mut now = 0;
            for &(advance, bits, latency) in steps {
                now += advance;
                let scan = stamps.until.iter().filter(|&&t| now < t).count() as u64;
                assert_eq!(stamps.count(now), scan, "busy PEs at cycle {now}");
                stamps.stamp(SimbMask::from_bits(32, u64::from(bits)), now + latency);
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
