//! The third engine tier: an analytic fast-forward model.
//!
//! [`predict`] produces an [`ExecutionReport`]-shaped estimate of a
//! program's run — cycles, per-category issue/stall accounting, DRAM
//! locality and the full Table III energy book — **without simulating**.
//! It is the [`Fidelity::Approximate`](crate::Fidelity) tier behind
//! [`Engine::Analytic`](crate::Engine): 100–1000× faster than the
//! skip-ahead engine, with a bounded, continuously measured error
//! (`tests/analytic_accuracy.rs` pins per-workload envelopes and fails on
//! drift above the `skip_ahead`/`analytic` cell pairs committed in
//! `results/matrix.jsonl`).
//!
//! # How it works
//!
//! The model exploits a structural property of SIMB programs: control flow
//! depends only on the control register file (written exclusively by
//! `SetiCrf`/`CalcCrf`, read by `Jump`/`CJump`), which is *data
//! independent* and — because `load_program_all` is SPMD — identical in
//! every vault. So one exact interpretation of `pc`/CtrlRF replays the
//! true dynamic instruction stream of every vault in a single pass, and
//! per-vault counters simply scale by the vault count.
//!
//! Along that exact stream, timing is composed from intervals instead of
//! ticks. A monotone *issue cursor* advances at most one instruction per
//! cycle (the control core's issue bandwidth) and is pushed back by the
//! same constraints `Vault::issue_decision` enforces, each tracked as a
//! scalar horizon rather than per-cycle state:
//!
//! * **branch bubble** — taken `Jump`/`CJump` refetch penalty, exact;
//! * **data hazards** — a completion-time scoreboard per architectural
//!   register (RAW/WAR/WAW collapse to "issue after the last in-flight
//!   instruction touching the register completes");
//! * **issued-queue capacity** — a min-heap of in-flight completion
//!   times bounded by `inst_queue`;
//! * **TSV slot** — broadcasts consume one slot per issue; `RdVsm`/`WrVsm`
//!   additionally serialize one port grant per masked PE per cycle;
//! * **DRAM service** — a representative per-PG memory-controller cursor
//!   with an open-row register: addresses are recovered by abstractly
//!   interpreting PE 0's AddrRF (identity registers and `CalcArf` chains
//!   are exact; a `Mov` from the data RF poisons the target register),
//!   classified hit/miss/conflict against [`DramTiming`]'s latencies, and
//!   periodically displaced by refresh windows;
//! * **barriers** — `Sync` parks when the in-flight window drains and
//!   releases after the machine's `2 × mesh diameter + 4` coordination
//!   delay, exactly as `Machine::coordinate_barrier` does.
//!
//! Counter accounting (issue counts, categories, RF/PGSM/VSM accesses,
//! TSV transfers, DRAM accesses) mirrors `Vault::account_accesses`
//! instruction for instruction, so the energy book — composed by the same
//! `compose_energy` the cycle engines use — inherits near-exact activity
//! counts; only the *cycles* term (background + control-core energy) and
//! the modelled DRAM row behaviour are approximate.
//!
//! # Calibration
//!
//! Every fudged constant lives in the [`cal`] module below with the
//! measurement that justifies it; the procedure (replay the Table II
//! suite, compare against SkipAhead, adjust, re-run the divergence table)
//! is documented in DESIGN.md §11. Everything not in [`cal`] is either
//! exact (instruction stream, counters) or taken directly from
//! [`MachineConfig`]/[`DramTiming`] (latencies).

use std::collections::BinaryHeap;

use ipim_isa::{
    AddrOperand, ArfSrc, CompOp, CrfSrc, Instruction, Program, ARF_CHIP_ID, ARF_PE_ID, ARF_PG_ID,
    ARF_VAULT_ID,
};

use crate::config::MachineConfig;
use crate::machine::{compose_energy, ExecutionReport, SimTimeout};
use crate::regs::RegTable;
use crate::stats::{StallReason, VaultStats};
use crate::EnergyParams;

/// Calibration constants — the **only** tuned numbers in the model.
///
/// Fitted (PR 7) by replaying the Table II workloads at 32²/64²/128²
/// against the SkipAhead engine (`tests/analytic_accuracy.rs` pins the
/// resulting per-workload envelopes and re-measures them on every test
/// run). Change a constant here only together with a re-recorded
/// `results/matrix.jsonl`, whose cell pairs are the divergence baseline.
pub mod cal {
    /// Cycles between issuing an instruction and its functional unit
    /// starting (dispatch queues are drained at the *next* tick).
    pub const UNIT_START: u64 = 1;
    /// Cycles between issuing a memory instruction and the request
    /// reaching the memory controller (PE mem queue → MC enqueue happens
    /// one tick after issue, MC serves from the following tick).
    pub const MEM_ENQUEUE: u64 = 2;
    /// Command-bus occupancy per request: a row hit is one CAS.
    pub const CMDS_HIT: u64 = 1;
    /// Commands per row miss (ACT + CAS).
    pub const CMDS_MISS: u64 = 2;
    /// Commands per row conflict (PRE + ACT + CAS).
    pub const CMDS_CONFLICT: u64 = 3;
    /// Every k-th DRAM access whose address the abstract AddrRF cannot
    /// recover (a data-dependent gather) is charged as a row miss; the
    /// rest count as hits. Fitted against the Resample/BilateralGrid
    /// gather workloads.
    pub const UNKNOWN_MISS_EVERY: u64 = 8;
    /// Round-trip cycles for a remote `Req` (forward hop, remote bank
    /// read, response hop, VSM landing), at mesh-average distance.
    pub const REQ_ROUND_TRIP: u64 = 48;
    /// Mesh flit-hops charged per `Req` (forward + response at average
    /// distance).
    pub const REQ_FLIT_HOPS: u64 = 4;
    /// Cycles between the last completion and halt detection (drain +
    /// halt-transition tick).
    pub const TAIL: u64 = 2;
    /// Read-idle cycles before the MC starts draining posted writes into
    /// command-bus gaps (the controller's hysteresis constant; the
    /// machine cannot halt until the write buffer empties, so a leftover
    /// backlog pays this once at the end of the run).
    pub const WRITE_DRAIN_IDLE: u64 = 150;
}

/// Classification of one modelled DRAM access against the open row.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RowClass {
    Hit,
    Miss,
    Conflict,
}

/// Per-static-instruction facts hoisted out of the dynamic walk so the hot
/// loop touches no allocator: the SIMB mask population and the busiest-PG
/// request count. The register sets come from the shared [`RegTable`].
struct Decoded {
    /// Masked-PE count (0 for control-core instructions).
    n: u64,
    /// Requests the busiest per-PG memory controller sees.
    m: u64,
}

fn decode(insts: &[Instruction], config: &MachineConfig) -> Vec<Decoded> {
    insts
        .iter()
        .map(|inst| {
            let (n, m) = match inst.simb_mask() {
                Some(mask) => {
                    let mut per_pg = vec![0u64; config.pgs_per_vault.max(1)];
                    for g in mask.iter() {
                        let pg = (g / config.pes_per_pg).min(per_pg.len() - 1);
                        per_pg[pg] += 1;
                    }
                    (mask.count() as u64, per_pg.into_iter().max().unwrap_or(0))
                }
                None => (0, 0),
            };
            Decoded { n, m }
        })
        .collect()
}

/// The walk's mutable state for one (representative) vault.
struct Walk<'a> {
    config: &'a MachineConfig,
    /// Exact control state.
    pc: usize,
    ctrl_rf: Vec<i32>,
    /// Abstract AddrRF of PE 0 (`None` = data-dependent, unrecoverable).
    addr0: Vec<Option<i32>>,
    /// Issue-time cursor: the cycle the previous instruction issued.
    cursor: u64,
    branch_bubble_until: u64,
    /// Completion horizons per architectural register (flat data ‖ addr ‖
    /// ctrl index space): the latest in-flight *writer* and *reader* of
    /// each register. RAW checks `write_done` of reads; WAR/WAW check
    /// both horizons of writes; read-after-read never stalls.
    write_done: Vec<u64>,
    read_done: Vec<u64>,
    /// Completion times of in-flight instructions (min-heap via Reverse),
    /// bounded by `inst_queue`.
    inflight: BinaryHeap<std::cmp::Reverse<u64>>,
    /// First cycle the TSV slot is free for a broadcast issue.
    tsv_free_at: u64,
    /// Representative per-PG memory controller: next free command slot.
    mc_free: u64,
    /// Posted writes buffered at the representative MC, not yet drained.
    write_backlog: u64,
    /// Open row in the representative bank.
    open_row: Option<u64>,
    /// Next refresh window start (when refresh is enabled).
    next_refresh: u64,
    /// Unresolved-address access counter (drives `UNKNOWN_MISS_EVERY`).
    unknown_accesses: u64,
    /// Completion horizon of outstanding remote `Req`s (blocks `RdVsm`).
    req_ready: u64,
    /// Latest completion time seen (the drain horizon).
    last_completion: u64,
    /// Per-vault statistics (single-vault; scaled by the caller).
    stats: VaultStats,
    /// Modelled bank-row classification counts (representative bank).
    row_hits: u64,
    row_misses: u64,
    row_conflicts: u64,
    /// Modelled DRAM read/write completions (per-PE requests, one vault).
    bank_reads: u64,
    bank_writes: u64,
    /// Mesh flit-hops (whole machine).
    flit_hops: u64,
}

impl<'a> Walk<'a> {
    fn new(config: &'a MachineConfig) -> Self {
        let mut addr0 = vec![Some(0i32); config.addr_rf_entries];
        // PE 0 of PG 0 of vault 0 of cube 0: every identity register is 0,
        // which `reset_identity_registers` also writes — kept explicit so a
        // different representative would be a one-line change.
        addr0[ARF_PE_ID.index()] = Some(0);
        addr0[ARF_PG_ID.index()] = Some(0);
        addr0[ARF_VAULT_ID.index()] = Some(0);
        addr0[ARF_CHIP_ID.index()] = Some(0);
        Self {
            config,
            pc: 0,
            ctrl_rf: vec![0; config.ctrl_rf_entries],
            addr0,
            cursor: 0,
            branch_bubble_until: 0,
            write_done: vec![0; RegTable::space(config)],
            read_done: vec![0; RegTable::space(config)],
            inflight: BinaryHeap::new(),
            tsv_free_at: 0,
            mc_free: 0,
            write_backlog: 0,
            open_row: None,
            next_refresh: config.timing.t_refi,
            unknown_accesses: 0,
            req_ready: 0,
            last_completion: 0,
            stats: VaultStats::default(),
            row_hits: 0,
            row_misses: 0,
            row_conflicts: 0,
            bank_reads: 0,
            bank_writes: 0,
            flit_hops: 0,
        }
    }

    fn crf(&self, src: CrfSrc) -> i32 {
        match src {
            CrfSrc::Imm(v) => v,
            CrfSrc::Reg(r) => self.ctrl_rf[r.index()],
        }
    }

    /// Abstractly resolves a DRAM/scratchpad address operand on PE 0.
    fn resolve0(&self, a: AddrOperand) -> Option<u32> {
        match a {
            AddrOperand::Imm(v) => Some(v),
            AddrOperand::Indirect(r) => self.addr0[r.index()].map(|v| v as u32),
        }
    }

    /// Classifies and journals one representative DRAM access.
    fn classify_row(&mut self, addr: Option<u32>, n: u64) -> RowClass {
        let class = match addr {
            Some(a) => {
                let row = u64::from(a) / u64::from(self.config.bank.row_bytes);
                let class = match self.open_row {
                    Some(open) if open == row => RowClass::Hit,
                    Some(_) => RowClass::Conflict,
                    None => RowClass::Miss,
                };
                self.open_row = Some(row);
                class
            }
            None => {
                // Data-dependent gather: the address stream is invisible to
                // the abstract AddrRF. Charge a calibrated miss fraction and
                // leave the open row untouched (the next resolvable access
                // re-anchors it).
                self.unknown_accesses += 1;
                if self.unknown_accesses.is_multiple_of(cal::UNKNOWN_MISS_EVERY) {
                    RowClass::Miss
                } else {
                    RowClass::Hit
                }
            }
        };
        match class {
            RowClass::Hit => self.row_hits += n,
            RowClass::Miss => self.row_misses += n,
            RowClass::Conflict => self.row_conflicts += n,
        }
        class
    }

    /// Advances the MC cursor over a refresh window if one is due.
    fn refresh_displace(&mut self, start: u64) -> u64 {
        let mut start = start;
        if self.config.refresh {
            let t = &self.config.timing;
            while start >= self.next_refresh {
                start = start.max(self.next_refresh) + t.t_rfc;
                self.next_refresh += t.t_refi;
            }
        }
        start
    }

    /// Models one memory instruction's DRAM service; returns the last
    /// PE's completion time.
    fn serve_dram(&mut self, issue_t: u64, inst: &Instruction, n: u64, m: u64, extra: u64) -> u64 {
        let t = &self.config.timing;
        let is_read = matches!(inst, Instruction::LdRf { .. } | Instruction::LdPgsm { .. });
        let arrival = issue_t + cal::MEM_ENQUEUE;
        self.stats.dram_accesses += n;
        if !is_read {
            // The MC posts writes: they are acknowledged on entry into a
            // deep write buffer and drained lazily, so a store completes
            // almost immediately and rarely disturbs the read stream's
            // open rows (measured: Shift 64² real locality is 94% hits on
            // its write stream). The drains do consume command-bus slots
            // eventually, though: when the MC is already contended the
            // slots come out of the read stream's budget; when it is
            // idle the backlog drains in the gaps for free (modelled in
            // the read path and at end of run).
            self.bank_writes += n;
            self.row_hits += n;
            if arrival <= self.mc_free {
                self.mc_free += m;
            } else {
                self.write_backlog += m;
            }
            let done = arrival + 1;
            self.stats.mem_busy += n * (done - arrival);
            return done;
        }
        // Command-bus gaps since the last read first drain backlogged
        // writes (after the controller's read-idle hysteresis).
        if self.write_backlog > 0 {
            let gap = arrival.saturating_sub(self.mc_free);
            let drained = gap.saturating_sub(cal::WRITE_DRAIN_IDLE).min(self.write_backlog);
            self.write_backlog -= drained;
        }
        let addr = match *inst {
            Instruction::LdRf { dram_addr, .. } | Instruction::LdPgsm { dram_addr, .. } => {
                self.resolve0(dram_addr)
            }
            _ => None,
        };
        let class = self.classify_row(addr, n);
        let (lat, cmds) = match class {
            RowClass::Hit => (t.hit_read_latency(), cal::CMDS_HIT),
            RowClass::Miss => (t.miss_read_latency(), cal::CMDS_MISS),
            RowClass::Conflict => (t.conflict_read_latency(), cal::CMDS_CONFLICT),
        };
        let start = self.refresh_displace(arrival.max(self.mc_free));
        // The MC's command bus issues one command per cycle; back-to-back
        // same-bank service is additionally bounded by t_ccd.
        let gap = cmds.max(if m <= 1 { t.t_ccd } else { cmds });
        let done_last = start + m.saturating_sub(1) * cmds + lat + extra;
        self.mc_free = start + (m * gap).max(t.t_ccd);
        self.bank_reads += n;
        self.stats.mem_busy += n * done_last.saturating_sub(arrival);
        done_last
    }

    /// Mirrors `Vault::account_accesses` for one issued instruction.
    fn account(&mut self, inst: &Instruction) {
        let n = inst.simb_mask().map_or(0, |m| m.count() as u64);
        let indirect = |a: &AddrOperand| matches!(a, AddrOperand::Indirect(_));
        match inst {
            Instruction::Comp { .. } => {
                self.stats.simd_ops += n;
                self.stats.data_rf_accesses += 3 * n;
            }
            Instruction::CalcArf { .. } => {
                self.stats.int_alu_ops += n;
                self.stats.addr_rf_accesses += 3 * n;
            }
            Instruction::Mov { .. } => {
                self.stats.int_alu_ops += n;
                self.stats.addr_rf_accesses += n;
                self.stats.data_rf_accesses += n;
            }
            Instruction::LdRf { dram_addr, .. } | Instruction::StRf { dram_addr, .. } => {
                self.stats.data_rf_accesses += n;
                if indirect(dram_addr) {
                    self.stats.addr_rf_accesses += n;
                }
            }
            Instruction::LdPgsm { dram_addr, pgsm_addr, .. }
            | Instruction::StPgsm { dram_addr, pgsm_addr, .. } => {
                self.stats.pgsm_accesses += n;
                let ind = u64::from(indirect(dram_addr)) + u64::from(indirect(pgsm_addr));
                self.stats.addr_rf_accesses += ind * n;
            }
            Instruction::RdPgsm { pgsm_addr, .. } | Instruction::WrPgsm { pgsm_addr, .. } => {
                self.stats.pgsm_accesses += n;
                self.stats.data_rf_accesses += n;
                if indirect(pgsm_addr) {
                    self.stats.addr_rf_accesses += n;
                }
            }
            Instruction::RdVsm { vsm_addr, .. } | Instruction::WrVsm { vsm_addr, .. } => {
                self.stats.vsm_accesses += n;
                self.stats.data_rf_accesses += n;
                if indirect(vsm_addr) {
                    self.stats.addr_rf_accesses += n;
                }
            }
            Instruction::Reset { .. } | Instruction::SetiDrf { .. } => {
                self.stats.data_rf_accesses += n;
            }
            Instruction::SetiVsm { .. } => {
                self.stats.vsm_accesses += 1;
            }
            _ => {}
        }
    }

    /// Applies the abstract (PE 0) functional semantics that address
    /// recovery needs; everything else is timing-only.
    fn interpret0(&mut self, inst: &Instruction) {
        match *inst {
            Instruction::CalcArf { op, dst, src1, src2, .. } => {
                let a = self.addr0[src1.index()];
                let b = match src2 {
                    ArfSrc::Imm(v) => Some(v),
                    ArfSrc::Reg(r) => self.addr0[r.index()],
                };
                self.addr0[dst.index()] = match (a, b) {
                    (Some(a), Some(b)) => Some(op.apply(a, b)),
                    _ => None,
                };
            }
            Instruction::Mov { to_arf, arf, .. } if to_arf => {
                // Loaded from the data RF: data dependent, unrecoverable.
                self.addr0[arf.index()] = None;
            }
            _ => {}
        }
    }
}

/// Predicts the execution report of `program` on `config` without
/// simulating. See the module docs for the model; the result is marked
/// [`Fidelity::Approximate`](crate::Fidelity) via
/// [`Engine::fidelity`](crate::Engine).
///
/// # Errors
///
/// Returns [`SimTimeout`] when the predicted run exceeds `max_cycles` —
/// the same failure a simulating engine would report.
pub fn predict(
    program: &Program,
    config: &MachineConfig,
    max_cycles: u64,
) -> Result<ExecutionReport, SimTimeout> {
    let lat = &config.latency;
    let insts = program.instructions();
    let decoded = decode(insts, config);
    let regs = RegTable::decode(insts, config);
    let mut w = Walk::new(config);
    let n_vaults = config.total_vaults();
    let timeout = || SimTimeout { max_cycles, stuck_vaults: (0..n_vaults).collect() };

    // The mesh the barrier delay depends on (mirrors Machine::new).
    let mesh_w = ((config.vaults_per_cube as f64).sqrt().ceil() as usize).max(1);
    let mesh_h = config.vaults_per_cube.div_ceil(mesh_w);
    let barrier_delay = 2 * (mesh_w + mesh_h) as u64 + 4;

    let mut issued_dynamic: u64 = 0;
    while w.pc < insts.len() {
        // Every issue occupies at least one cycle, so the dynamic count is
        // a lower bound on cycles: exceeding the budget here is the same
        // timeout a simulating engine would hit.
        issued_dynamic += 1;
        if issued_dynamic > max_cycles || w.cursor > max_cycles {
            return Err(timeout());
        }
        let inst = &insts[w.pc];
        let dec = &decoded[w.pc];

        // ---- Issue-time constraints (mirrors issue_decision). ----
        let next = w.cursor + 1;
        let mut issue_t = next;
        let mut binding: Option<StallReason> = None;
        let mut push = |t: u64, reason: StallReason, issue_t: &mut u64| {
            if t > *issue_t {
                *issue_t = t;
                binding = Some(reason);
            }
        };
        if w.branch_bubble_until > issue_t {
            push(w.branch_bubble_until, StallReason::Branch, &mut issue_t);
        }
        // Queue capacity: pop completions that free slots before `issue_t`;
        // while full, wait for the earliest retirement.
        while let Some(&std::cmp::Reverse(done)) = w.inflight.peek() {
            if done <= issue_t {
                w.inflight.pop();
            } else if w.inflight.len() >= config.inst_queue {
                push(done, StallReason::QueueFull, &mut issue_t);
                w.inflight.pop();
            } else {
                break;
            }
        }
        // Register hazards vs in-flight completions: RAW (my reads vs
        // their writes), WAR (my writes vs their reads), WAW (my writes vs
        // their writes) — exactly `issue_decision`'s rule; concurrent
        // readers never stall each other.
        for &r in regs.reads(w.pc) {
            let ready = w.write_done[r as usize];
            if ready > issue_t {
                push(ready, StallReason::Hazard, &mut issue_t);
            }
        }
        for &r in regs.writes(w.pc) {
            let ready = w.write_done[r as usize].max(w.read_done[r as usize]);
            if ready > issue_t {
                push(ready, StallReason::Hazard, &mut issue_t);
            }
        }
        // VSM interlock: reads of the VSM wait for outstanding remote reqs.
        if matches!(inst, Instruction::RdVsm { .. }) && w.req_ready > issue_t {
            push(w.req_ready, StallReason::VsmInterlock, &mut issue_t);
        }
        // Sync waits for the whole in-flight window to drain.
        if matches!(inst, Instruction::Sync { .. }) {
            let drain = w.last_completion.max(w.req_ready);
            if drain > issue_t {
                push(drain, StallReason::Sync, &mut issue_t);
            }
        }
        // Broadcasts need the cycle's TSV slot.
        if dec.n > 0 && w.tsv_free_at > issue_t {
            push(w.tsv_free_at, StallReason::Tsv, &mut issue_t);
        }
        if let Some(reason) = binding {
            w.stats.stalls.bump_by(reason, issue_t - next);
        }

        // ---- Issue (mirrors try_issue + account_accesses). ----
        w.stats.issued += 1;
        w.stats.by_category.bump(inst.category());
        w.account(inst);
        w.cursor = issue_t;

        let mut next_pc = w.pc + 1;
        match *inst {
            Instruction::Jump { target } => {
                next_pc = w.crf(target) as usize;
                w.branch_bubble_until = issue_t + 1 + lat.branch_penalty;
            }
            Instruction::CJump { cond, target } => {
                if w.ctrl_rf[cond.index()] != 0 {
                    next_pc = w.crf(target) as usize;
                    w.branch_bubble_until = issue_t + 1 + lat.branch_penalty;
                }
            }
            Instruction::CalcCrf { op, dst, src1, src2 } => {
                let b = w.crf(src2);
                let a = w.ctrl_rf[src1.index()];
                w.ctrl_rf[dst.index()] = op.apply(a, b);
            }
            Instruction::SetiCrf { dst, imm } => {
                w.ctrl_rf[dst.index()] = imm;
            }
            Instruction::SetiVsm { .. } => {}
            Instruction::Req { .. } => {
                w.stats.remote_reqs += 1;
                // Forward + remote bank read + response, at mesh-average
                // distance; the served read lands in this vault's DRAM
                // accounting symmetrically (each vault serves what it
                // sends under SPMD).
                let done = issue_t + cal::REQ_ROUND_TRIP;
                w.req_ready = w.req_ready.max(done);
                w.last_completion = w.last_completion.max(done);
                w.inflight.push(std::cmp::Reverse(done));
                w.flit_hops += cal::REQ_FLIT_HOPS;
                w.stats.dram_accesses += 1;
                w.bank_reads += 1;
                w.row_misses += 1;
            }
            Instruction::Sync { .. } => {
                // Park, coordinate, release: every vault runs the same
                // stream, so they all park at `issue_t` and resume
                // together after the coordination delay.
                let release = issue_t + barrier_delay;
                w.stats.stalls.bump_by(StallReason::Sync, barrier_delay);
                w.cursor = release;
                w.tsv_free_at = w.tsv_free_at.max(release);
                // The in-flight window drained before parking; scoreboard
                // entries are all ≤ release, so they can stay as-is.
                w.inflight.clear();
            }
            _ => {
                // Broadcast instruction: timing dispatch (mirrors
                // Vault::dispatch's latency table) + abstract semantics.
                let n = dec.n;
                w.stats.tsv_transfers += 1;
                w.tsv_free_at = w.tsv_free_at.max(issue_t + 1);
                let done = match inst {
                    Instruction::Comp { op, .. } => {
                        let l = match op {
                            CompOp::Add | CompOp::Sub => lat.add,
                            CompOp::Mul => lat.mul,
                            CompOp::Mac => lat.mac,
                            CompOp::Div => lat.div,
                            _ => lat.logic,
                        };
                        w.stats.simd_busy += n * (l + lat.rf);
                        issue_t + cal::UNIT_START + l + lat.rf
                    }
                    Instruction::CalcArf { .. } | Instruction::Mov { .. } => {
                        w.stats.int_alu_busy += n * (lat.logic + lat.rf);
                        issue_t + cal::UNIT_START + lat.logic + lat.rf
                    }
                    Instruction::Reset { .. } | Instruction::SetiDrf { .. } => {
                        w.stats.simd_busy += n * lat.rf;
                        issue_t + cal::UNIT_START + lat.rf
                    }
                    Instruction::LdRf { .. } => w.serve_dram(issue_t, inst, n, dec.m, lat.pe_bus),
                    Instruction::StRf { .. } => w.serve_dram(issue_t, inst, n, dec.m, 0),
                    Instruction::LdPgsm { .. } => {
                        w.serve_dram(issue_t, inst, n, dec.m, lat.pe_bus + lat.pgsm)
                    }
                    Instruction::StPgsm { .. } => w.serve_dram(issue_t, inst, n, dec.m, 0),
                    Instruction::RdPgsm { .. } | Instruction::WrPgsm { .. } => {
                        issue_t + cal::UNIT_START + lat.pgsm + lat.pe_bus
                    }
                    Instruction::RdVsm { .. } | Instruction::WrVsm { .. } => {
                        // One TSV grant per masked PE per cycle; grants
                        // block broadcast issue while they drain.
                        w.stats.tsv_transfers += n;
                        w.tsv_free_at = w.tsv_free_at.max(issue_t + 1 + n);
                        issue_t + n + lat.tsv + lat.vsm + lat.pe_bus
                    }
                    _ => issue_t + 1,
                };
                w.interpret0(inst);
                w.last_completion = w.last_completion.max(done);
                w.inflight.push(std::cmp::Reverse(done));
                for &r in regs.reads(w.pc) {
                    let e = &mut w.read_done[r as usize];
                    *e = (*e).max(done);
                }
                for &r in regs.writes(w.pc) {
                    let e = &mut w.write_done[r as usize];
                    *e = (*e).max(done);
                }
            }
        }
        w.pc = next_pc;
    }

    // Drain + halt-detection tail: the machine cannot halt until the MCs
    // empty their write buffers, which starts after the read-idle
    // hysteresis and retires roughly one write per command slot.
    let mut end = w.cursor.max(w.last_completion).max(w.mc_free);
    if w.write_backlog > 0 {
        end += cal::WRITE_DRAIN_IDLE + w.write_backlog;
    }
    let cycles = end + cal::TAIL;
    if cycles > max_cycles {
        return Err(timeout());
    }
    w.stats.cycles = cycles;

    // ---- Scale the representative vault to the whole machine. ----
    let pes = config.total_pes();
    let mut stats = VaultStats::default();
    for _ in 0..n_vaults {
        stats.absorb(&w.stats);
    }
    let n_banks = pes as u64;
    let per_bank_refs =
        if config.refresh { cycles / (config.timing.t_refi + config.timing.t_rfc) } else { 0 };
    let bank_stats = ipim_dram::BankStats {
        // One representative bank's row behaviour, mirrored across every
        // masked bank (row classes were journalled ×n) and every vault.
        acts: (w.row_misses + w.row_conflicts) * n_vaults as u64,
        pres: w.row_conflicts * n_vaults as u64,
        reads: w.bank_reads * n_vaults as u64,
        writes: w.bank_writes * n_vaults as u64,
        refs: per_bank_refs * n_banks,
    };
    let locality = ipim_dram::RowLocality {
        row_hits: w.row_hits * n_vaults as u64,
        row_misses: w.row_misses * n_vaults as u64,
        row_conflicts: w.row_conflicts * n_vaults as u64,
    };
    let energy = compose_energy(
        &EnergyParams::default(),
        config,
        &stats,
        &bank_stats,
        cycles,
        w.flit_hops * n_vaults as u64,
        0,
        n_vaults,
    );
    Ok(ExecutionReport { cycles, stats, bank_stats, locality, energy, vaults: n_vaults, pes })
}

/// Relative cycle divergence of an analytic prediction from a measured
/// report, in percent (`|predicted − measured| / measured × 100`). The
/// canonical spelling every divergence gate and report uses.
pub fn divergence_pct(predicted_cycles: u64, measured_cycles: u64) -> f64 {
    if measured_cycles == 0 {
        return if predicted_cycles == 0 { 0.0 } else { f64::INFINITY };
    }
    (predicted_cycles as f64 - measured_cycles as f64).abs() / measured_cycles as f64 * 100.0
}
