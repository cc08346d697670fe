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
//! * **issued-queue capacity** — the in-flight completion times, bounded
//!   by `inst_queue`;
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
//! Everything the walk reads about a static instruction is decoded once
//! per program into a [`Decoded`] record: the masked-PE count, the busiest
//! PG's request count (popcounts over each PG's field of the SIMB mask),
//! how the instruction issues and what it occupies, its read and write
//! register sets held inline (at most three reads and one write, asserted
//! at decode), and its exact CtrlRF or abstract AddrRF update. The walk
//! never goes back to the [`Instruction`] or the [`RegTable`]. AddrRF
//! updates are kept only for the registers a DRAM read's address depends
//! on, directly or through other `calc_arf`s; no other register's value
//! can reach a row class.
//!
//! # Fast-forwarding counted loops
//!
//! Walked one instruction at a time, prediction would cost as much as the
//! dynamic stream is long, and most of that stream is the same loop
//! iteration repeated a fixed number of cycles apart. Because the CtrlRF
//! is data independent, every trip count is known exactly, so the walk
//! skips such repeats without changing a single number:
//!
//! * **Where.** At every taken back edge of a *plain* loop: a `cjump` to
//!   an immediate target at or before it, whose body holds no other
//!   branch, no `sync`, no `req` and no `rd_vsm`.
//! * **Detect.** The walk state at the back edge is normalised to the
//!   issue cursor and compared with the previous iteration's, or with the
//!   steady state an earlier instance of the same loop reached. That state
//!   is the body registers' `write_done`/`read_done` horizons, the
//!   in-flight completions, and the branch-bubble, TSV and last-completion
//!   horizons. A horizon at or below the cursor can never bind again, so
//!   all such values count as equal. Equal states mean the next iteration
//!   repeats the last one Δ cycles later, provided its data-independent
//!   decisions repeat too (the guards below). When the kept steady state
//!   matches but its row classes let no iteration be jumped (this
//!   instance's reads fall in other rows), the last two iterations derive
//!   a fresh one and the jump is tried with that.
//! * **Jump.** The remaining iterations are replayed without timing: only
//!   the body's CtrlRF and kept AddrRF updates and the row class of every
//!   DRAM read. That gives the exact trip count, the CtrlRF and AddrRF
//!   values and the open row; an iteration whose replay fails a guard
//!   restores the few registers the replay writes. The cursor and every
//!   horizon then move by *k*·Δcycles and every counter by *k*·Δcount in
//!   one step. The exit iteration differs only in its not-taken back edge,
//!   which sets no branch bubble, so it is folded into the jump.
//! * **Guards.** The jump stops before the first iteration in which a
//!   read's hit/miss/conflict class would change, a read's service would
//!   start at or past the next refresh window, or the cursor would pass
//!   the cycle budget. It never starts from an iteration that met a
//!   refresh, from one in which a read drained posted writes while the
//!   write backlog moved, or when the memory controller's cursor is
//!   neither unchanged and behind the issue cursor nor at a fixed offset
//!   from it.
//!
//! The plain walk resumes wherever a jump stops, and an instance that has
//! not become periodic after `MAX_TRIES` (six) iterations is walked to its
//! end. Every report field and every [`SimTimeout`] therefore equals the
//! instruction-by-instruction walk's; the unit tests check this on random
//! loop nests.
//!
//! # Calibration
//!
//! Every fudged constant lives in the [`cal`] module below with the
//! measurement that justifies it; the procedure (replay the Table II
//! suite, compare against SkipAhead, adjust, re-run the divergence table)
//! is documented in DESIGN.md §11. Everything not in [`cal`] is either
//! exact (instruction stream, counters) or taken directly from
//! [`MachineConfig`]/[`DramTiming`] (latencies).

use ipim_isa::{
    AddrOperand, AddrReg, ArfOp, ArfSrc, Category, CompOp, CrfOp, CrfSrc, CtrlReg, Instruction,
    Program, SimbMask, ARF_CHIP_ID, ARF_PE_ID, ARF_PG_ID, ARF_VAULT_ID,
};

use crate::config::{LatencyParams, MachineConfig};
use crate::machine::{compose_energy, ExecutionReport, SimTimeout};
use crate::regs::RegTable;
use crate::stats::{StallCounts, StallReason, VaultStats};
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

/// Back edges at which a loop instance is checked for a steady state
/// before the rest of the instance is walked without checking.
const MAX_TRIES: u32 = 6;

/// Classification of one modelled DRAM access against the open row.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RowClass {
    Hit,
    Miss,
    Conflict,
}

/// How the walk issues one static instruction.
#[derive(Clone, Copy)]
enum Kind {
    Jump(CrfSrc),
    CJump(CtrlReg, CrfSrc),
    /// `calc_crf`/`seti_crf`.
    Ctrl(CtrlEffect),
    /// `seti_vsm`: counted, but takes no unit.
    SetiVsm,
    Req,
    Sync,
    /// A broadcast to the masked PEs.
    Pe(Unit),
}

/// What a broadcast occupies, and so when it completes (mirrors
/// `Vault::dispatch`'s latency table).
#[derive(Clone, Copy)]
enum Unit {
    /// Completes a fixed number of cycles after issue.
    Fixed(u64),
    /// `calc_arf`/`mov`: fixed latency, and PE 0's AddrRF may change.
    Arf(u64, ArfEffect),
    /// A DRAM read; `extra` cycles carry the data from the bank onward.
    Read { addr: AddrOperand, extra: u64 },
    /// A posted DRAM write.
    Write,
    /// `rd_vsm` (`read`) or `wr_vsm`: one TSV grant per masked PE.
    Vsm { read: bool },
}

/// The exact CtrlRF update of a `calc_crf` (`op` is `Some`) or `seti_crf`
/// (`dst = src2`, which is then an immediate).
#[derive(Clone, Copy)]
struct CtrlEffect {
    op: Option<CrfOp>,
    dst: CtrlReg,
    src1: CtrlReg,
    src2: CrfSrc,
}

/// The abstract PE-0 AddrRF update of a `calc_arf` or `mov`.
#[derive(Clone, Copy)]
enum ArfEffect {
    /// `calc_arf`: `dst = op(src1, src2)`, unknown if an operand is.
    Calc { op: ArfOp, dst: AddrReg, src1: AddrReg, src2: ArfSrc },
    /// `mov` into the AddrRF: loaded from the data RF, so unrecoverable.
    Poison(AddrReg),
    /// `mov` into the data RF, or an update of a register no DRAM read
    /// address depends on (see [`tracked_addr_regs`]).
    None,
}

/// Most registers one instruction reads: a `comp` whose op reads its
/// destination reads three (`Instruction::for_each_read`). An
/// instruction writes at most one (`Instruction::written`).
const MAX_READS: usize = 3;

/// Per-static-instruction facts hoisted out of the dynamic walk, so the
/// hot loop touches no allocator, never goes back to the [`Instruction`]
/// or the [`RegTable`], and dispatches once: the SIMB mask population,
/// the busiest-PG request count, how the instruction issues, its register
/// sets and the loop it closes.
struct Decoded {
    /// Masked-PE count (0 for control-core instructions).
    n: u64,
    /// Requests the busiest per-PG memory controller sees.
    m: u64,
    kind: Kind,
    /// Index into the loop table when this is a plain loop's back edge.
    lp: Option<u32>,
    /// Registers read (flat index space, sorted, deduplicated):
    /// `reads[..n_reads]`.
    reads: [u16; MAX_READS],
    n_reads: u8,
    /// The register written, if any.
    write: Option<u16>,
}

impl Decoded {
    fn reads(&self) -> &[u16] {
        &self.reads[..usize::from(self.n_reads)]
    }
}

/// SIMD-unit latency of a `comp` operation.
fn comp_latency(op: CompOp, lat: &LatencyParams) -> u64 {
    match op {
        CompOp::Add | CompOp::Sub => lat.add,
        CompOp::Mul => lat.mul,
        CompOp::Mac => lat.mac,
        CompOp::Div => lat.div,
        _ => lat.logic,
    }
}

/// The SIMB mask bits of each PG's memory controller: PE `g` belongs to
/// PG `min(g / pes_per_pg, pgs − 1)`. A mask has at most
/// `SimbMask::MAX_WIDTH` PEs, so no more PGs than that can be busy.
fn pg_fields(config: &MachineConfig) -> Vec<u64> {
    let pgs = config.pgs_per_vault.clamp(1, SimbMask::MAX_WIDTH);
    let below = |pe: usize| if pe >= 64 { u64::MAX } else { (1u64 << pe) - 1 };
    (0..pgs)
        .map(|pg| {
            let hi = if pg + 1 == pgs { u64::MAX } else { below((pg + 1) * config.pes_per_pg) };
            hi & !below(pg * config.pes_per_pg)
        })
        .filter(|&field| field != 0)
        .collect()
}

/// The AddrRF registers PE 0's abstract AddrRF has to track: those a DRAM
/// read's address names and, transitively, those a `calc_arf` into a
/// tracked register reads. No other register's value can reach a row
/// class, so their updates are left out of the walk.
fn tracked_addr_regs(insts: &[Instruction], config: &MachineConfig) -> Vec<bool> {
    let mut tracked = vec![false; config.addr_rf_entries];
    for inst in insts {
        if let Instruction::LdRf { dram_addr: AddrOperand::Indirect(r), .. }
        | Instruction::LdPgsm { dram_addr: AddrOperand::Indirect(r), .. } = *inst
        {
            tracked[r.index()] = true;
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for inst in insts {
            if let Instruction::CalcArf { dst, src1, src2, .. } = *inst {
                if tracked[dst.index()] {
                    let src2 = match src2 {
                        ArfSrc::Reg(r) => Some(r),
                        ArfSrc::Imm(_) => None,
                    };
                    for r in std::iter::once(src1).chain(src2) {
                        changed |= !std::mem::replace(&mut tracked[r.index()], true);
                    }
                }
            }
        }
    }
    tracked
}

fn decode(insts: &[Instruction], config: &MachineConfig) -> Vec<Decoded> {
    let lat = &config.latency;
    let fields = pg_fields(config);
    let regs = RegTable::decode(insts, config);
    let tracked = tracked_addr_regs(insts, config);
    insts
        .iter()
        .enumerate()
        .map(|(pc, inst)| {
            let (n, m) = match inst.simb_mask() {
                Some(mask) => {
                    let per_pg = fields.iter().map(|f| u64::from((mask.bits() & f).count_ones()));
                    (mask.count() as u64, per_pg.max().unwrap_or(0))
                }
                None => (0, 0),
            };
            let unit = |l| Kind::Pe(Unit::Fixed(cal::UNIT_START + l));
            let arf = |effect| Kind::Pe(Unit::Arf(cal::UNIT_START + lat.logic + lat.rf, effect));
            let ctrl = |op, dst, src1, src2| Kind::Ctrl(CtrlEffect { op, dst, src1, src2 });
            let kind = match *inst {
                Instruction::Jump { target } => Kind::Jump(target),
                Instruction::CJump { cond, target } => Kind::CJump(cond, target),
                Instruction::CalcCrf { op, dst, src1, src2 } => ctrl(Some(op), dst, src1, src2),
                Instruction::SetiCrf { dst, imm } => ctrl(None, dst, dst, CrfSrc::Imm(imm)),
                Instruction::SetiVsm { .. } => Kind::SetiVsm,
                Instruction::Req { .. } => Kind::Req,
                Instruction::Sync { .. } => Kind::Sync,
                Instruction::Comp { op, .. } => unit(comp_latency(op, lat) + lat.rf),
                Instruction::CalcArf { op, dst, src1, src2, .. } if tracked[dst.index()] => {
                    arf(ArfEffect::Calc { op, dst, src1, src2 })
                }
                Instruction::Mov { to_arf: true, arf: dst, .. } if tracked[dst.index()] => {
                    arf(ArfEffect::Poison(dst))
                }
                Instruction::CalcArf { .. } | Instruction::Mov { .. } => arf(ArfEffect::None),
                Instruction::Reset { .. } | Instruction::SetiDrf { .. } => unit(lat.rf),
                Instruction::RdPgsm { .. } | Instruction::WrPgsm { .. } => {
                    unit(lat.pgsm + lat.pe_bus)
                }
                Instruction::LdRf { dram_addr, .. } => {
                    Kind::Pe(Unit::Read { addr: dram_addr, extra: lat.pe_bus })
                }
                Instruction::LdPgsm { dram_addr, .. } => {
                    Kind::Pe(Unit::Read { addr: dram_addr, extra: lat.pe_bus + lat.pgsm })
                }
                Instruction::StRf { .. } | Instruction::StPgsm { .. } => Kind::Pe(Unit::Write),
                Instruction::RdVsm { .. } => Kind::Pe(Unit::Vsm { read: true }),
                Instruction::WrVsm { .. } => Kind::Pe(Unit::Vsm { read: false }),
            };
            let (read_set, write_set) = (regs.reads(pc), regs.writes(pc));
            assert!(read_set.len() <= MAX_READS && write_set.len() <= 1, "{inst}: operand count");
            let mut reads = [0; MAX_READS];
            reads[..read_set.len()].copy_from_slice(read_set);
            let (n_reads, write) = (read_set.len() as u8, write_set.first().copied());
            Decoded { n, m, kind, lp: None, reads, n_reads, write }
        })
        .collect()
}

/// A plain counted loop: the body `top..=edge` ends in a `cjump` back to
/// `top` and holds no other branch, `sync`, `req` or `rd_vsm`, so every
/// iteration issues exactly the body and only the CtrlRF decides how
/// many iterations run.
struct Loop {
    top: usize,
    edge: usize,
    /// The back edge's condition register.
    cond: usize,
    /// Every register the body reads or writes (flat index space), sorted.
    regs: Vec<u16>,
    /// What a jump replays of each iteration without timing, in program
    /// order: the body's CtrlRF and AddrRF updates and DRAM reads.
    replay: Vec<Kind>,
    /// The CtrlRF and AddrRF registers the replay writes, each once: all
    /// of the register files a failed replay must restore.
    ctrl_writes: Vec<usize>,
    addr_writes: Vec<usize>,
    /// The steady state the loop last reached (kept across instances).
    steady: Option<Steady>,
}

/// Finds every plain loop of `insts` and marks its back edge in `decoded`.
fn find_loops(insts: &[Instruction], decoded: &mut [Decoded]) -> Vec<Loop> {
    let mut loops = Vec::new();
    for (edge, inst) in insts.iter().enumerate() {
        let Instruction::CJump { cond, target: CrfSrc::Imm(top) } = *inst else { continue };
        let Ok(top) = usize::try_from(top) else { continue };
        if top > edge {
            continue;
        }
        let body = &insts[top..edge];
        if body.iter().any(|i| {
            matches!(
                i,
                Instruction::Jump { .. }
                    | Instruction::CJump { .. }
                    | Instruction::Sync { .. }
                    | Instruction::Req { .. }
                    | Instruction::RdVsm { .. }
            )
        }) {
            continue;
        }
        let mut body_regs: Vec<u16> = decoded[top..=edge]
            .iter()
            .flat_map(|d| d.reads().iter().copied().chain(d.write))
            .collect();
        body_regs.sort_unstable();
        body_regs.dedup();
        let replay: Vec<Kind> = decoded[top..edge]
            .iter()
            .map(|d| d.kind)
            .filter(|kind| {
                matches!(
                    kind,
                    Kind::Ctrl(_)
                        | Kind::Pe(Unit::Read { .. })
                        | Kind::Pe(Unit::Arf(_, ArfEffect::Calc { .. } | ArfEffect::Poison(_)))
                )
            })
            .collect();
        let (mut ctrl_writes, mut addr_writes) = (Vec::new(), Vec::new());
        for kind in &replay {
            match *kind {
                Kind::Ctrl(e) => ctrl_writes.push(e.dst.index()),
                Kind::Pe(Unit::Arf(_, ArfEffect::Calc { dst, .. } | ArfEffect::Poison(dst))) => {
                    addr_writes.push(dst.index());
                }
                _ => {}
            }
        }
        for writes in [&mut ctrl_writes, &mut addr_writes] {
            writes.sort_unstable();
            writes.dedup();
        }
        decoded[edge].lp = Some(loops.len() as u32);
        loops.push(Loop {
            top,
            edge,
            cond: cond.index(),
            regs: body_regs,
            replay,
            ctrl_writes,
            addr_writes,
            steady: None,
        });
    }
    loops
}

/// Number of timing-dependent counters in the walk (see
/// [`Walk::counters`]).
const COUNTERS: usize = 11;

/// The walk's state at one back edge: the normalised part a steady state
/// must repeat, plus the absolute values a template is derived from.
#[derive(Default)]
struct Snapshot {
    /// Horizons relative to the cursor (see [`Walk::snapshot`]).
    state: Vec<u64>,
    cursor: u64,
    mc_free: u64,
    write_backlog: u64,
    next_refresh: u64,
    counters: [u64; COUNTERS],
}

/// One steady iteration of a loop: the normalised state it starts and
/// ends in, what it adds, and the decisions a jump must see repeated.
#[derive(Default)]
struct Steady {
    state: Vec<u64>,
    /// The memory controller's cursor relative to the issue cursor, or
    /// `None` when the body issues no read and the MC cursor sits,
    /// unchanged, at or behind the issue cursor.
    mc_offset: Option<u64>,
    /// The write backlog the iteration needs: `Some` when one of its
    /// reads saw a gap long enough to drain posted writes.
    write_backlog: Option<u64>,
    /// Cycles per iteration (≥ 1: every issue takes a cycle).
    dt: u64,
    /// Posted writes each iteration adds to the backlog.
    dbacklog: u64,
    dcount: [u64; COUNTERS],
    /// Row class of every DRAM read, in issue order.
    classes: Vec<RowClass>,
    /// Latest read service start, relative to the iteration's first
    /// cursor (`None`: the body reads no DRAM).
    last_read: Option<u64>,
}

impl Steady {
    /// Whether `s` is this steady state, so the iteration that follows
    /// repeats it.
    fn matches(&self, s: &Snapshot) -> bool {
        self.state == s.state
            && match self.mc_offset {
                Some(offset) => s.mc_free.wrapping_sub(s.cursor) == offset,
                None => s.mc_free <= s.cursor,
            }
            && self.write_backlog.is_none_or(|b| b == s.write_backlog)
    }

    /// The steady iteration `a → b` if `b` repeats `a`; `rec` is what the
    /// walk recorded between them. Rebuilds `into` in place.
    fn derive(a: &Snapshot, b: &Snapshot, rec: &Recording, into: &mut Option<Steady>) -> bool {
        if a.state != b.state || a.next_refresh != b.next_refresh {
            return false;
        }
        let mc_offset = if b.mc_free == a.mc_free && a.mc_free <= a.cursor {
            None
        } else if b.mc_free.wrapping_sub(b.cursor) == a.mc_free.wrapping_sub(a.cursor) {
            Some(b.mc_free.wrapping_sub(b.cursor))
        } else {
            return false;
        };
        // A drain takes min(gap, backlog): with the backlog moving, the
        // next iteration's drain could differ.
        if rec.drain && a.write_backlog != b.write_backlog {
            return false;
        }
        let s = into.get_or_insert_with(Steady::default);
        s.state.clone_from(&b.state);
        s.mc_offset = mc_offset;
        s.write_backlog = rec.drain.then_some(b.write_backlog);
        s.dt = b.cursor - a.cursor;
        s.dbacklog = b.write_backlog - a.write_backlog;
        for ((d, x), y) in s.dcount.iter_mut().zip(&b.counters).zip(&a.counters) {
            *d = x - y;
        }
        s.classes.clone_from(&rec.classes);
        s.last_read = rec.last_start.map(|t| t - a.cursor);
        true
    }
}

/// What the walk records about the DRAM reads of one tracked iteration.
#[derive(Default)]
struct Recording {
    on: bool,
    classes: Vec<RowClass>,
    last_start: Option<u64>,
    /// Whether a read saw a gap over [`cal::WRITE_DRAIN_IDLE`].
    drain: bool,
}

impl Recording {
    fn restart(&mut self) {
        self.on = true;
        self.classes.clear();
        self.last_start = None;
        self.drain = false;
    }
}

/// Fast-forward bookkeeping for the loop instance being walked.
#[derive(Default)]
struct Tracker {
    /// The loop whose instance is being tracked.
    lp: Option<usize>,
    /// Back edges of this instance checked without a jump.
    tries: u32,
    /// Whether `prev` holds the previous back edge of this instance.
    have_prev: bool,
    prev: Snapshot,
    cur: Snapshot,
    /// The loop's [`Loop::ctrl_writes`] and [`Loop::addr_writes`] before
    /// the iteration being replayed.
    undo_ctrl: Vec<i32>,
    undo_addr: Vec<Option<i32>>,
    /// Dynamic instructions jumped over rather than walked.
    skipped: u64,
}

impl Tracker {
    /// Handles the back edge of loop `lp`, just issued: detects a steady
    /// state and, once one holds, jumps as far as it stays valid.
    fn back_edge(
        &mut self,
        w: &mut Walk,
        loops: &mut [Loop],
        lp: usize,
        taken: bool,
        max_cycles: u64,
    ) {
        if !taken {
            if self.lp == Some(lp) {
                self.lp = None;
                w.rec.on = false;
            }
            return;
        }
        if self.lp != Some(lp) {
            self.lp = Some(lp);
            self.tries = 0;
            self.have_prev = false;
        } else if self.tries >= MAX_TRIES {
            return;
        }
        let l = &mut loops[lp];
        w.snapshot(l, &mut self.cur);
        // The kept steady state first; when it does not hold, or holds but
        // its row classes let nothing be jumped, the last two iterations
        // derive a fresh one.
        let (mut n, mut exited) = match &l.steady {
            Some(s) if s.matches(&self.cur) => self.jump(w, l, s, max_cycles),
            _ => (0, false),
        };
        if n == 0 && self.have_prev && Steady::derive(&self.prev, &self.cur, &w.rec, &mut l.steady)
        {
            let s = l.steady.as_ref().expect("derive keeps the steady state it returns");
            (n, exited) = self.jump(w, l, s, max_cycles);
        }
        if exited {
            self.lp = None;
            w.rec.on = false;
        } else if n > 0 {
            // Stopped early: re-detect from the state the jump left.
            self.tries = 0;
            self.have_prev = false;
            w.rec.restart();
        } else {
            self.tries += 1;
            std::mem::swap(&mut self.prev, &mut self.cur);
            self.have_prev = true;
            if self.tries < MAX_TRIES {
                w.rec.restart();
            } else {
                w.rec.on = false;
            }
        }
    }

    /// Advances `w`, which sits at a back edge in steady state `s`, over
    /// as many further iterations of `l` as repeat `s` exactly. Returns
    /// the iterations jumped and whether the last was the loop's exit.
    fn jump(&mut self, w: &mut Walk, l: &Loop, s: &Steady, max_cycles: u64) -> (u64, bool) {
        // Iteration i (from 1) ends at cursor + i·dt and starts its last
        // read at cursor + (i−1)·dt + last_read.
        let mut limit = max_cycles.saturating_sub(w.cursor) / s.dt;
        if let (true, Some(last)) = (w.config.refresh, s.last_read) {
            let first = w.cursor + last;
            limit = limit.min(match w.next_refresh.checked_sub(first + 1) {
                Some(room) => room / s.dt + 1,
                None => 0,
            });
        }
        let mut n = 0;
        let mut exited = false;
        while n < limit {
            self.undo_ctrl.clear();
            self.undo_ctrl.extend(l.ctrl_writes.iter().map(|&r| w.ctrl_rf[r]));
            self.undo_addr.clear();
            self.undo_addr.extend(l.addr_writes.iter().map(|&r| w.addr0[r]));
            let (open_row, unknown) = (w.open_row, w.unknown_accesses);
            if !w.replay(l, &s.classes) {
                for (&r, &v) in l.ctrl_writes.iter().zip(&self.undo_ctrl) {
                    w.ctrl_rf[r] = v;
                }
                for (&r, &v) in l.addr_writes.iter().zip(&self.undo_addr) {
                    w.addr0[r] = v;
                }
                (w.open_row, w.unknown_accesses) = (open_row, unknown);
                break;
            }
            n += 1;
            if w.ctrl_rf[l.cond] == 0 {
                exited = true;
                break;
            }
        }
        if n > 0 {
            w.advance(l, s, n, exited);
            self.skipped += n * (l.edge + 1 - l.top) as u64;
        }
        (n, exited)
    }
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
    /// Completion times of in-flight instructions, unordered. An entry at
    /// or before an issue's cycle has freed its queue slot; such entries
    /// are dropped only when the queue looks full, the one time the count
    /// matters.
    inflight: Vec<u64>,
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
    /// Issues of each static instruction: every counter that does not
    /// depend on timing follows from these (see [`Walk::account`]).
    issues: Vec<u64>,
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
    /// The reads of the loop iteration being tracked.
    rec: Recording,
}

impl<'a> Walk<'a> {
    fn new(config: &'a MachineConfig, program_len: usize) -> Self {
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
            inflight: Vec::with_capacity(config.inst_queue + 1),
            tsv_free_at: 0,
            mc_free: 0,
            write_backlog: 0,
            open_row: None,
            next_refresh: config.timing.t_refi,
            unknown_accesses: 0,
            req_ready: 0,
            last_completion: 0,
            issues: vec![0; program_len],
            stats: VaultStats::default(),
            row_hits: 0,
            row_misses: 0,
            row_conflicts: 0,
            bank_reads: 0,
            bank_writes: 0,
            flit_hops: 0,
            rec: Recording::default(),
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

    /// Classifies one representative DRAM access against the open row,
    /// which it then opens.
    fn row_class(&mut self, addr: Option<u32>) -> RowClass {
        match addr {
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
        }
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

    /// Models one DRAM read's service for `n` masked PEs, `m` of them
    /// behind the busiest PG controller; returns the last PE's completion.
    fn serve_read(&mut self, issue_t: u64, addr: AddrOperand, n: u64, m: u64, extra: u64) -> u64 {
        let t = &self.config.timing;
        let arrival = issue_t + cal::MEM_ENQUEUE;
        // Command-bus gaps since the last read first drain backlogged
        // writes (after the controller's read-idle hysteresis).
        let gap = arrival.saturating_sub(self.mc_free);
        if self.write_backlog > 0 {
            let drained = gap.saturating_sub(cal::WRITE_DRAIN_IDLE).min(self.write_backlog);
            self.write_backlog -= drained;
        }
        let class = self.row_class(self.resolve0(addr));
        let (lat, cmds) = match class {
            RowClass::Hit => {
                self.row_hits += n;
                (t.hit_read_latency(), cal::CMDS_HIT)
            }
            RowClass::Miss => {
                self.row_misses += n;
                (t.miss_read_latency(), cal::CMDS_MISS)
            }
            RowClass::Conflict => {
                self.row_conflicts += n;
                (t.conflict_read_latency(), cal::CMDS_CONFLICT)
            }
        };
        let start = self.refresh_displace(arrival.max(self.mc_free));
        if self.rec.on {
            self.rec.classes.push(class);
            self.rec.last_start = self.rec.last_start.max(Some(start));
            self.rec.drain |= gap > cal::WRITE_DRAIN_IDLE;
        }
        // The MC's command bus issues one command per cycle; back-to-back
        // same-bank service is additionally bounded by t_ccd.
        let gap = cmds.max(if m <= 1 { t.t_ccd } else { cmds });
        let done_last = start + m.saturating_sub(1) * cmds + lat + extra;
        self.mc_free = start + (m * gap).max(t.t_ccd);
        self.stats.mem_busy += n * done_last.saturating_sub(arrival);
        done_last
    }

    /// Models one posted DRAM write; returns its completion.
    fn serve_write(&mut self, issue_t: u64, m: u64) -> u64 {
        // The MC posts writes: they are acknowledged on entry into a deep
        // write buffer and drained lazily, so a store completes almost
        // immediately and rarely disturbs the read stream's open rows
        // (measured: Shift 64² real locality is 94% hits on its write
        // stream). The drains do consume command-bus slots eventually,
        // though: when the MC is already contended the slots come out of
        // the read stream's budget; when it is idle the backlog drains in
        // the gaps for free (modelled in the read path and at end of run).
        let arrival = issue_t + cal::MEM_ENQUEUE;
        if arrival <= self.mc_free {
            self.mc_free += m;
        } else {
            self.write_backlog += m;
        }
        arrival + 1
    }

    /// Adds what `times` issues of `inst` on `n` masked PEs contribute to
    /// the counters that do not depend on timing: the instruction mix, the
    /// RF/scratchpad accesses `Vault::account_accesses` counts, unit busy
    /// time, TSV slots, and DRAM requests (posted writes always hit and
    /// complete one cycle after reaching the controller).
    fn account(&mut self, inst: &Instruction, n: u64, times: u64) {
        let lat = &self.config.latency;
        let s = &mut self.stats;
        let c = &mut s.by_category;
        *match inst.category() {
            Category::Computation => &mut c.computation,
            Category::IndexCalc => &mut c.index_calc,
            Category::IntraVault => &mut c.intra_vault,
            Category::InterVault => &mut c.inter_vault,
            Category::ControlFlow => &mut c.control_flow,
            Category::Synchronization => &mut c.synchronization,
        } += times;
        let tn = times * n;
        let indirect = |a: &AddrOperand| u64::from(matches!(a, AddrOperand::Indirect(_)));
        // Every broadcast takes the cycle's TSV slot.
        if inst.simb_mask().is_some() {
            s.tsv_transfers += times;
        }
        match inst {
            Instruction::Comp { op, .. } => {
                s.simd_ops += tn;
                s.data_rf_accesses += 3 * tn;
                s.simd_busy += tn * (comp_latency(*op, lat) + lat.rf);
            }
            Instruction::CalcArf { .. } => {
                s.int_alu_ops += tn;
                s.addr_rf_accesses += 3 * tn;
                s.int_alu_busy += tn * (lat.logic + lat.rf);
            }
            Instruction::Mov { .. } => {
                s.int_alu_ops += tn;
                s.addr_rf_accesses += tn;
                s.data_rf_accesses += tn;
                s.int_alu_busy += tn * (lat.logic + lat.rf);
            }
            Instruction::LdRf { dram_addr, .. } => {
                s.data_rf_accesses += tn;
                s.addr_rf_accesses += indirect(dram_addr) * tn;
                s.dram_accesses += tn;
                self.bank_reads += tn;
            }
            Instruction::StRf { dram_addr, .. } => {
                s.data_rf_accesses += tn;
                s.addr_rf_accesses += indirect(dram_addr) * tn;
                s.dram_accesses += tn;
                s.mem_busy += tn;
                self.bank_writes += tn;
                self.row_hits += tn;
            }
            Instruction::LdPgsm { dram_addr, pgsm_addr, .. } => {
                s.pgsm_accesses += tn;
                s.addr_rf_accesses += (indirect(dram_addr) + indirect(pgsm_addr)) * tn;
                s.dram_accesses += tn;
                self.bank_reads += tn;
            }
            Instruction::StPgsm { dram_addr, pgsm_addr, .. } => {
                s.pgsm_accesses += tn;
                s.addr_rf_accesses += (indirect(dram_addr) + indirect(pgsm_addr)) * tn;
                s.dram_accesses += tn;
                s.mem_busy += tn;
                self.bank_writes += tn;
                self.row_hits += tn;
            }
            Instruction::RdPgsm { pgsm_addr, .. } | Instruction::WrPgsm { pgsm_addr, .. } => {
                s.pgsm_accesses += tn;
                s.data_rf_accesses += tn;
                s.addr_rf_accesses += indirect(pgsm_addr) * tn;
            }
            Instruction::RdVsm { vsm_addr, .. } | Instruction::WrVsm { vsm_addr, .. } => {
                s.vsm_accesses += tn;
                s.data_rf_accesses += tn;
                s.addr_rf_accesses += indirect(vsm_addr) * tn;
                // One TSV grant per masked PE on top of the broadcast.
                s.tsv_transfers += tn;
            }
            Instruction::Reset { .. } | Instruction::SetiDrf { .. } => {
                s.data_rf_accesses += tn;
                s.simd_busy += tn * lat.rf;
            }
            Instruction::SetiVsm { .. } => {
                s.vsm_accesses += times;
            }
            Instruction::Req { .. } => {
                // The served read lands in this vault's DRAM accounting
                // symmetrically (each vault serves what it sends under
                // SPMD), charged as a row miss.
                s.remote_reqs += times;
                s.dram_accesses += times;
                self.bank_reads += times;
                self.row_misses += times;
                self.flit_hops += times * cal::REQ_FLIT_HOPS;
            }
            Instruction::Jump { .. }
            | Instruction::CJump { .. }
            | Instruction::CalcCrf { .. }
            | Instruction::SetiCrf { .. }
            | Instruction::Sync { .. } => {}
        }
    }

    /// Applies the exact CtrlRF semantics of `calc_crf`/`seti_crf`.
    fn interpret_ctrl(&mut self, e: CtrlEffect) {
        let b = self.crf(e.src2);
        self.ctrl_rf[e.dst.index()] = match e.op {
            Some(op) => op.apply(self.ctrl_rf[e.src1.index()], b),
            None => b,
        };
    }

    /// Applies the abstract (PE 0) functional semantics that address
    /// recovery needs; everything else is timing-only.
    fn interpret0(&mut self, e: ArfEffect) {
        match e {
            ArfEffect::Calc { op, dst, src1, src2 } => {
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
            ArfEffect::Poison(dst) => self.addr0[dst.index()] = None,
            ArfEffect::None => {}
        }
    }

    /// The counters the walk itself keeps, because they depend on timing,
    /// in one fixed order: what a jump advances by a multiple of the
    /// steady iteration's delta. The destructuring is exhaustive, so a
    /// new statistic must be placed on one side or the other.
    fn counters(&mut self) -> [&mut u64; COUNTERS] {
        let VaultStats {
            issued,
            stalls,
            mem_busy,
            // Timing-independent: `account` derives them from `issues`.
            cycles: _,
            by_category: _,
            simd_ops: _,
            int_alu_ops: _,
            simd_busy: _,
            int_alu_busy: _,
            addr_rf_accesses: _,
            data_rf_accesses: _,
            pgsm_accesses: _,
            vsm_accesses: _,
            tsv_transfers: _,
            remote_reqs: _,
            dram_accesses: _,
        } = &mut self.stats;
        let StallCounts { hazard, queue_full, tsv, branch, sync, vsm_interlock } = stalls;
        [
            issued,
            hazard,
            queue_full,
            tsv,
            branch,
            sync,
            vsm_interlock,
            mem_busy,
            &mut self.row_hits,
            &mut self.row_misses,
            &mut self.row_conflicts,
        ]
    }

    /// Records the state at a back edge of `l` into `s`. Horizons are
    /// stored relative to the cursor, and every horizon at or below it
    /// reads as 0 (it can never delay an issue or extend the run again).
    fn snapshot(&mut self, l: &Loop, s: &mut Snapshot) {
        let c = self.cursor;
        let rel = |t: u64| t.saturating_sub(c);
        s.state.clear();
        s.state.extend([
            rel(self.branch_bubble_until),
            rel(self.tsv_free_at),
            rel(self.last_completion),
        ]);
        s.state.extend(l.regs.iter().map(|&r| rel(self.write_done[r as usize])));
        s.state.extend(l.regs.iter().map(|&r| rel(self.read_done[r as usize])));
        let inflight = s.state.len();
        s.state.extend(self.inflight.iter().filter(|&&t| t > c).map(|t| t - c));
        s.state[inflight..].sort_unstable();
        s.cursor = c;
        s.mc_free = self.mc_free;
        s.write_backlog = self.write_backlog;
        s.next_refresh = self.next_refresh;
        for (d, x) in s.counters.iter_mut().zip(self.counters()) {
            *d = *x;
        }
    }

    /// Replays one iteration of `l` without timing: the CtrlRF and AddrRF
    /// updates and the row class of each read, which must equal
    /// `classes`. Returns `false` (leaving the state part-way) at the
    /// first read whose class differs.
    fn replay(&mut self, l: &Loop, classes: &[RowClass]) -> bool {
        let mut reads = classes.iter();
        for kind in &l.replay {
            match *kind {
                Kind::Ctrl(e) => self.interpret_ctrl(e),
                Kind::Pe(Unit::Read { addr, .. }) => {
                    let class = self.row_class(self.resolve0(addr));
                    if reads.next() != Some(&class) {
                        return false;
                    }
                }
                Kind::Pe(Unit::Arf(_, e)) => self.interpret0(e),
                _ => {}
            }
        }
        true
    }

    /// Applies `n` replayed iterations of steady state `s` to the timing
    /// state and counters (the last one the loop's exit when `exited`).
    fn advance(&mut self, l: &Loop, s: &Steady, n: u64, exited: bool) {
        // A horizon at or below the cursor stays at or below it when both
        // move by `d`, so shifting every one of them is exact.
        let d = n * s.dt;
        self.cursor += d;
        self.tsv_free_at += d;
        self.last_completion += d;
        // The exit's back edge is not taken and sets no bubble.
        self.branch_bubble_until += (n - u64::from(exited)) * s.dt;
        for &r in &l.regs {
            self.write_done[r as usize] += d;
            self.read_done[r as usize] += d;
        }
        for t in &mut self.inflight {
            *t += d;
        }
        if s.mc_offset.is_some() {
            self.mc_free += d;
        }
        self.write_backlog += n * s.dbacklog;
        for (c, dc) in self.counters().into_iter().zip(&s.dcount) {
            *c += n * dc;
        }
        for issues in &mut self.issues[l.top..=l.edge] {
            *issues += n;
        }
        self.pc = if exited { l.edge + 1 } else { l.top };
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
    walk(program, config, max_cycles, true).0
}

/// The model behind [`predict`]; `fast_forward` off walks every dynamic
/// instruction (the reference the tests compare against). Also returns
/// how many dynamic instructions were jumped rather than walked.
fn walk(
    program: &Program,
    config: &MachineConfig,
    max_cycles: u64,
    fast_forward: bool,
) -> (Result<ExecutionReport, SimTimeout>, u64) {
    let lat = &config.latency;
    let insts = program.instructions();
    let mut decoded = decode(insts, config);
    let mut loops = if fast_forward { find_loops(insts, &mut decoded) } else { Vec::new() };
    let mut ff = Tracker::default();
    let mut w = Walk::new(config, insts.len());
    let n_vaults = config.total_vaults();
    let timeout = || SimTimeout { max_cycles, stuck_vaults: (0..n_vaults).collect() };

    // The mesh the barrier delay depends on (mirrors Machine::new).
    let mesh_w = ((config.vaults_per_cube as f64).sqrt().ceil() as usize).max(1);
    let mesh_h = config.vaults_per_cube.div_ceil(mesh_w);
    let barrier_delay = 2 * (mesh_w + mesh_h) as u64 + 4;

    while w.pc < insts.len() {
        // Every issue occupies at least one cycle, so the dynamic count is
        // a lower bound on cycles: exceeding the budget here is the same
        // timeout a simulating engine would hit.
        if w.stats.issued >= max_cycles || w.cursor > max_cycles {
            return (Err(timeout()), ff.skipped);
        }
        let pc = w.pc;
        let dec = &decoded[pc];

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
        // Queue capacity: completions by `issue_t` free their slots; while
        // the queue is still full, wait for the earliest retirements.
        // (An empty queue and a one-entry queue behave alike.)
        let slots = config.inst_queue.max(1);
        if w.inflight.len() >= slots {
            w.inflight.retain(|&done| done > issue_t);
            if w.inflight.len() >= slots {
                // The (len − slots + 1)-th earliest completion frees the
                // slot this issue needs.
                let nth = w.inflight.len() - slots;
                let (_, &mut free, _) = w.inflight.select_nth_unstable(nth);
                push(free, StallReason::QueueFull, &mut issue_t);
                w.inflight.retain(|&done| done > free);
            }
        }
        // Register hazards vs in-flight completions: RAW (my reads vs
        // their writes), WAR (my writes vs their reads), WAW (my writes vs
        // their writes) — exactly `issue_decision`'s rule; concurrent
        // readers never stall each other.
        // Every operand binds as a hazard, so one push of the latest
        // horizon decides the issue cycle and the reason alike.
        let mut ready = dec.reads().iter().map(|&r| w.write_done[r as usize]).max().unwrap_or(0);
        if let Some(r) = dec.write {
            ready = ready.max(w.write_done[r as usize]).max(w.read_done[r as usize]);
        }
        if ready > issue_t {
            push(ready, StallReason::Hazard, &mut issue_t);
        }
        match dec.kind {
            // VSM interlock: reads of the VSM wait for outstanding remote
            // reqs.
            Kind::Pe(Unit::Vsm { read: true }) if w.req_ready > issue_t => {
                push(w.req_ready, StallReason::VsmInterlock, &mut issue_t);
            }
            // Sync waits for the whole in-flight window to drain.
            Kind::Sync => {
                let drain = w.last_completion.max(w.req_ready);
                if drain > issue_t {
                    push(drain, StallReason::Sync, &mut issue_t);
                }
            }
            _ => {}
        }
        // Broadcasts need the cycle's TSV slot.
        if dec.n > 0 && w.tsv_free_at > issue_t {
            push(w.tsv_free_at, StallReason::Tsv, &mut issue_t);
        }
        if let Some(reason) = binding {
            w.stats.stalls.bump_by(reason, issue_t - next);
        }

        // ---- Issue (mirrors try_issue; `account` adds the rest). ----
        w.stats.issued += 1;
        w.issues[pc] += 1;
        w.cursor = issue_t;

        let mut next_pc = pc + 1;
        let mut back_edge = None;
        match dec.kind {
            Kind::Jump(target) => {
                next_pc = w.crf(target) as usize;
                w.branch_bubble_until = issue_t + 1 + lat.branch_penalty;
            }
            Kind::CJump(cond, target) => {
                let taken = w.ctrl_rf[cond.index()] != 0;
                if taken {
                    next_pc = w.crf(target) as usize;
                    w.branch_bubble_until = issue_t + 1 + lat.branch_penalty;
                }
                back_edge = dec.lp.map(|lp| (lp as usize, taken));
            }
            Kind::Ctrl(e) => w.interpret_ctrl(e),
            Kind::SetiVsm => {}
            Kind::Req => {
                // Forward + remote bank read + response, at mesh-average
                // distance.
                let done = issue_t + cal::REQ_ROUND_TRIP;
                w.req_ready = w.req_ready.max(done);
                w.last_completion = w.last_completion.max(done);
                w.inflight.push(done);
            }
            Kind::Sync => {
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
            Kind::Pe(unit) => {
                // Broadcast instruction: timing dispatch + abstract
                // semantics.
                let n = dec.n;
                w.tsv_free_at = w.tsv_free_at.max(issue_t + 1);
                let done = match unit {
                    Unit::Fixed(l) => issue_t + l,
                    Unit::Arf(l, e) => {
                        w.interpret0(e);
                        issue_t + l
                    }
                    Unit::Read { addr, extra } => w.serve_read(issue_t, addr, n, dec.m, extra),
                    Unit::Write => w.serve_write(issue_t, dec.m),
                    Unit::Vsm { .. } => {
                        // One TSV grant per masked PE per cycle; grants
                        // block broadcast issue while they drain.
                        w.tsv_free_at = w.tsv_free_at.max(issue_t + 1 + n);
                        issue_t + n + lat.tsv + lat.vsm + lat.pe_bus
                    }
                };
                w.last_completion = w.last_completion.max(done);
                w.inflight.push(done);
                for &r in dec.reads() {
                    let e = &mut w.read_done[r as usize];
                    *e = (*e).max(done);
                }
                if let Some(r) = dec.write {
                    let e = &mut w.write_done[r as usize];
                    *e = (*e).max(done);
                }
            }
        }
        w.pc = next_pc;
        if let Some((lp, taken)) = back_edge {
            ff.back_edge(&mut w, &mut loops, lp, taken, max_cycles);
        }
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
        return (Err(timeout()), ff.skipped);
    }
    w.stats.cycles = cycles;
    for (pc, inst) in insts.iter().enumerate() {
        let times = w.issues[pc];
        if times > 0 {
            w.account(inst, decoded[pc].n, times);
        }
    }

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
    (
        Ok(ExecutionReport { cycles, stats, bank_stats, locality, energy, vaults: n_vaults, pes }),
        ff.skipped,
    )
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

#[cfg(test)]
mod tests {
    use super::*;
    use ipim_isa::{
        AddrReg, ArfOp, CompMode, CrfOp, CtrlReg, DataReg, DataType, ProgramBuilder, VecMask,
    };
    use ipim_simkit::{check, Gen, Rng};

    /// One instruction (a gather: two; a chain: `len`) of a generated
    /// loop body.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Comp {
            op: u8,
            dst: u8,
            a: u8,
            b: u8,
        },
        /// `len` dependent divides: an idle gap long enough for the
        /// memory controller to drain posted writes.
        Chain {
            d: u8,
            len: u8,
        },
        /// Steps an address induction: a8 (loads), a9 (stores), a12 (PGSM).
        Step {
            reg: u8,
            stride: i32,
        },
        /// Recomputes a10 as a8 plus an offset.
        Offset {
            off: i32,
        },
        /// Loads through a10 (`temp`) or a8.
        Load {
            d: u8,
            temp: bool,
        },
        Store {
            d: u8,
        },
        LdPgsm,
        RdPgsm {
            d: u8,
        },
        /// `mov` a data lane into a11, then load through it.
        Gather {
            d: u8,
        },
        WrVsm {
            d: u8,
        },
        Reset {
            d: u8,
        },
    }

    /// A counted inner loop; `count_first` bumps its counter at the top
    /// of the body instead of the bottom.
    #[derive(Clone, Debug)]
    struct Inner {
        trip: i32,
        body: Vec<Op>,
        count_first: bool,
    }

    /// A random loop nest: an outer counted loop around `between` (and a
    /// `sync` when asked) and up to three inner loops.
    #[derive(Clone, Debug)]
    struct Case {
        outer: i32,
        between: Vec<Op>,
        sync: bool,
        loops: Vec<Inner>,
        refresh: bool,
        inst_queue: usize,
        /// SIMB mask bits (0: every PE).
        mask: u64,
        /// A budget inside the run, in permille of its cycles.
        budget: u64,
    }

    fn gen_op(rng: &mut Rng) -> Op {
        let mut d = || rng.range_u32(0, 8) as u8;
        let (a, b, c) = (d(), d(), d());
        match rng.range_u32(0, 12) {
            0 | 1 => Op::Comp { op: rng.range_u32(0, 5) as u8, dst: a, a: b, b: c },
            2 | 3 => Op::Step {
                reg: *rng.choose(&[8, 9, 12]),
                stride: *rng.choose(&[16, 64, 272, 2048, 4112, -16]),
            },
            4 => Op::Offset { off: 16 * rng.range_i32(0, 200) },
            5 => Op::Load { d: a, temp: rng.next_bool() },
            6 => Op::Store { d: a },
            7 => Op::LdPgsm,
            8 => Op::RdPgsm { d: a },
            9 => Op::Gather { d: a },
            10 => Op::Chain { d: a, len: rng.range_u32(1, 17) as u8 },
            _ if rng.next_bool() => Op::WrVsm { d: a },
            _ => Op::Reset { d: a },
        }
    }

    fn gen_case() -> Gen<Case> {
        let ops =
            |rng: &mut Rng, lo, hi| (0..rng.range_usize(lo, hi)).map(|_| gen_op(rng)).collect();
        Gen::from_fn(move |rng| Case {
            outer: rng.range_i32(1, 5),
            between: ops(rng, 0, 5),
            sync: rng.range_u32(0, 4) == 0,
            loops: (0..rng.range_usize(1, 4))
                .map(|_| Inner {
                    trip: rng.range_i32(1, 201),
                    body: ops(rng, 1, 13),
                    count_first: rng.next_bool(),
                })
                .collect(),
            refresh: rng.next_bool(),
            inst_queue: rng.range_usize(4, 65),
            mask: if rng.next_bool() { 0 } else { rng.next_u64() & 0xFFFF_FFFF },
            budget: rng.range_u64(1000),
        })
        .with_shrink(|c: &Case| {
            let mut out = Vec::new();
            let mut push = |f: &dyn Fn(&mut Case)| {
                let mut s = c.clone();
                f(&mut s);
                out.push(s);
            };
            if c.outer > 1 {
                push(&|s| s.outer = 1);
            }
            if c.loops.len() > 1 {
                push(&|s| drop(s.loops.pop()));
            }
            for i in 0..c.between.len() {
                push(&|s| {
                    s.between.remove(i);
                });
            }
            for l in 0..c.loops.len() {
                if c.loops[l].trip > 1 {
                    push(&|s| s.loops[l].trip = (s.loops[l].trip + 1) / 2);
                }
                for i in 0..c.loops[l].body.len() {
                    if c.loops[l].body.len() > 1 {
                        push(&|s| {
                            s.loops[l].body.remove(i);
                        });
                    }
                }
            }
            out
        })
    }

    fn emit(b: &mut ProgramBuilder, op: Op, simb_mask: SimbMask) {
        let (d, a) = (DataReg::new, AddrReg::new);
        let at = |r| AddrOperand::Indirect(a(r));
        let calc = |dst, src1, imm| Instruction::CalcArf {
            op: ArfOp::Add,
            dst: a(dst),
            src1: a(src1),
            src2: ArfSrc::Imm(imm),
            simb_mask,
        };
        let comp = |op, dst, x, y| Instruction::Comp {
            op,
            dtype: DataType::F32,
            mode: CompMode::VectorVector,
            dst: d(dst),
            src1: d(x),
            src2: d(y),
            vec_mask: VecMask::ALL,
            simb_mask,
        };
        let inst = match op {
            Op::Comp { op, dst, a: x, b: y } => comp(
                [CompOp::Add, CompOp::Sub, CompOp::Mul, CompOp::Mac, CompOp::Div][op as usize],
                dst,
                x,
                y,
            ),
            Op::Chain { d: x, len } => {
                for _ in 1..len {
                    b.push(comp(CompOp::Div, x, x, x));
                }
                comp(CompOp::Div, x, x, x)
            }
            Op::Step { reg, stride } => calc(reg, reg, stride),
            Op::Offset { off } => calc(10, 8, off),
            Op::Load { d: x, temp } => {
                Instruction::LdRf { dram_addr: at(if temp { 10 } else { 8 }), drf: d(x), simb_mask }
            }
            Op::Store { d: x } => Instruction::StRf { dram_addr: at(9), drf: d(x), simb_mask },
            Op::LdPgsm => Instruction::LdPgsm { dram_addr: at(8), pgsm_addr: at(12), simb_mask },
            Op::RdPgsm { d: x } => Instruction::RdPgsm { pgsm_addr: at(12), drf: d(x), simb_mask },
            Op::Gather { d: x } => {
                b.push(Instruction::Mov {
                    to_arf: true,
                    arf: a(11),
                    drf: d(x),
                    lane: 0,
                    simb_mask,
                });
                Instruction::LdRf { dram_addr: at(11), drf: d(x), simb_mask }
            }
            Op::WrVsm { d: x } => {
                Instruction::WrVsm { vsm_addr: AddrOperand::Imm(64), drf: d(x), simb_mask }
            }
            Op::Reset { d: x } => Instruction::Reset { drf: d(x), simb_mask },
        };
        b.push(inst);
    }

    fn build(c: &Case) -> Program {
        let mask = if c.mask == 0 { SimbMask::all(32) } else { SimbMask::from_bits(32, c.mask) };
        let mut b = ProgramBuilder::new();
        let cond = CtrlReg::new(9);
        let bump = |b: &mut ProgramBuilder, ctr: CtrlReg| {
            let src2 = CrfSrc::Imm(1);
            b.push(Instruction::CalcCrf { op: CrfOp::Add, dst: ctr, src1: ctr, src2 });
        };
        let test = |b: &mut ProgramBuilder, ctr: CtrlReg, trip: i32| {
            let src2 = CrfSrc::Imm(trip);
            b.push(Instruction::CalcCrf { op: CrfOp::Lt, dst: cond, src1: ctr, src2 });
        };
        for (r, base) in [(8u8, 4096), (9, 1 << 20), (12, 0)] {
            let r = AddrReg::new(r);
            for (op, imm) in [(ArfOp::Mul, 0), (ArfOp::Add, base)] {
                let src2 = ArfSrc::Imm(imm);
                b.push(Instruction::CalcArf { op, dst: r, src1: r, src2, simb_mask: mask });
            }
        }
        let outer_ctr = CtrlReg::new(0);
        b.push(Instruction::SetiCrf { dst: outer_ctr, imm: 0 });
        let outer = b.new_label();
        b.bind(outer).unwrap();
        for &op in &c.between {
            emit(&mut b, op, mask);
        }
        if c.sync {
            b.push(Instruction::Sync { phase_id: 1 });
        }
        for (i, inner) in c.loops.iter().enumerate() {
            let ctr = CtrlReg::new(1 + i as u8);
            b.push(Instruction::SetiCrf { dst: ctr, imm: 0 });
            let top = b.new_label();
            b.bind(top).unwrap();
            if inner.count_first {
                bump(&mut b, ctr);
            }
            for &op in &inner.body {
                emit(&mut b, op, mask);
            }
            if !inner.count_first {
                bump(&mut b, ctr);
            }
            test(&mut b, ctr, inner.trip);
            b.push_cjump_to(cond, top);
        }
        bump(&mut b, outer_ctr);
        test(&mut b, outer_ctr, c.outer);
        b.push_cjump_to(cond, outer);
        b.seal().unwrap()
    }

    #[test]
    fn fast_forward_matches_the_plain_walk() {
        // Every report field, and every timeout, including budgets that
        // run out inside a jumped span.
        check("analytic_fast_forward_matches_the_plain_walk", &gen_case(), |c| {
            let program = build(c);
            let config = MachineConfig {
                refresh: c.refresh,
                inst_queue: c.inst_queue,
                ..MachineConfig::vault_slice(1)
            };
            let plain = walk(&program, &config, 1 << 40, false).0;
            let cycles = plain.as_ref().expect("generated loops terminate").cycles;
            for budget in [1 << 40, cycles, cycles - 1, cycles * c.budget / 1000] {
                let fast = walk(&program, &config, budget, true).0;
                assert_eq!(fast, walk(&program, &config, budget, false).0, "budget {budget}");
            }
        });
    }

    /// Walks the hand schedule of suite workload `name` at `side`² on a
    /// 1-vault slice, with and without fast-forwarding; checks that both
    /// agree and returns the jumped and the issued instruction counts.
    fn jumped(name: &str, side: u32) -> (u64, u64) {
        let w = ipim_core::workload_by_name(
            name,
            ipim_core::WorkloadScale { width: side, height: side },
        )
        .unwrap();
        let compiled = ipim_core::compile(
            &w.pipeline,
            &ipim_core::MachineConfig::vault_slice(1),
            &ipim_core::CompileOptions::opt(),
        )
        .unwrap();
        let config = MachineConfig::vault_slice(1);
        let (fast, skipped) = walk(&compiled.program, &config, 4_000_000_000, true);
        let (plain, none) = walk(&compiled.program, &config, 4_000_000_000, false);
        assert_eq!(none, 0);
        assert_eq!(fast, plain, "{name} {side}²");
        (skipped, plain.unwrap().stats.issued)
    }

    #[test]
    fn only_registers_a_read_address_depends_on_are_tracked() {
        // a2 addresses a DRAM read; a3 and a6 feed a2, and a5 feeds a3 (a
        // second pass finds it); a4 addresses only the PGSM.
        let mask = SimbMask::all(32);
        let (a, at) = (AddrReg::new, |r| AddrOperand::Indirect(AddrReg::new(r)));
        let calc = |dst, src1, src2| Instruction::CalcArf {
            op: ArfOp::Add,
            dst: a(dst),
            src1: a(src1),
            src2,
            simb_mask: mask,
        };
        let insts = [
            calc(3, 5, ArfSrc::Imm(4)),
            calc(2, 3, ArfSrc::Reg(a(6))),
            calc(4, 2, ArfSrc::Imm(16)),
            Instruction::LdPgsm { dram_addr: at(2), pgsm_addr: at(4), simb_mask: mask },
        ];
        let tracked = tracked_addr_regs(&insts, &MachineConfig::vault_slice(1));
        let regs: Vec<usize> = (0..tracked.len()).filter(|&r| tracked[r]).collect();
        assert_eq!(regs, [2, 3, 5, 6]);
    }

    #[test]
    fn stencil_chain_32_fast_forwards() {
        // The optimisation must not silently switch off: the tuner's
        // heaviest space jumps over most of its column loops.
        let (skipped, issued) = jumped("StencilChain", 32);
        assert!(
            skipped > 0 && skipped < issued,
            "fast-forwarded {skipped} of {issued} instructions"
        );
    }

    #[test]
    fn row_softmax_128_rederives_a_blocked_steady_state() {
        // RowSoftmax's loops meet a kept steady state whose row classes
        // differ from the next iteration's, so it jumps nothing; the last
        // two iterations must then derive one that does.
        let (skipped, issued) = jumped("RowSoftmax", 128);
        assert!(skipped * 100 > issued * 45, "fast-forwarded {skipped} of {issued} instructions");
    }
}
