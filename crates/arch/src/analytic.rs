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
//!   classified hit/miss/conflict against
//!   [`DramTiming`](ipim_dram::DramTiming)'s latencies, and periodically
//!   displaced by refresh windows;
//! * **barriers** — `Sync` parks when the in-flight window drains and
//!   releases `MachineConfig::barrier_delay` cycles later, the delay the
//!   machine's barrier coordination reads too.
//!
//! Each instruction's unit, latency, category and RF/scratchpad/SIMD/ALU
//! counters come from the program's cost table (`CostTable`), the one the
//! cycle engines' issue stage reads, so the energy book — composed by the
//! same `compose_energy` the cycle engines use — inherits near-exact
//! activity counts; only the *cycles* term (background + control-core
//! energy) and the modelled DRAM row behaviour are approximate.
//!
//! Everything the walk reads about a static instruction is decoded once
//! per program into a `Decoded` record: the masked-PE count, the busiest
//! PG's request count (popcounts over each PG's field of the SIMB mask),
//! how the instruction issues and what it occupies, its read and write
//! register sets held inline (at most three reads and one write, asserted
//! at decode), and its exact CtrlRF or abstract AddrRF update. The walk
//! never goes back to the [`Instruction`] or the cost table. AddrRF
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
//! * **Where.** At every taken back edge of a counted loop: a `cjump` to
//!   an immediate target at or before it, whose body holds no `jump`,
//!   `sync`, `req` or `rd_vsm`, and whose other `cjump`s all close loops
//!   nested inside it, at any depth. One tracker level per active loop
//!   instance, kept as a stack, so inner loops keep jumping while an
//!   outer one is being detected.
//! * **Detect.** The walk state at the back edge is normalised to the
//!   issue cursor: the body registers' `write_done`/`read_done` horizons,
//!   the in-flight completions, and the branch-bubble, TSV and
//!   last-completion horizons. A horizon at or below the cursor can never
//!   bind again, so all such values count as equal. A walked iteration
//!   that starts and ends in the same state becomes the loop's steady
//!   iteration for its class sequence: the row class of every read it
//!   made, those of inner iterations that were themselves jumped
//!   included, and the path it took (each inner instance's trip count).
//!   A loop keeps up to `MAX_STEADY` (eight) of them across instances, so
//!   rows that straddle a DRAM row, each repeating with classes and a
//!   cycle count of their own, do not evict one another.
//! * **Jump.** Each further iteration is replayed without timing: its
//!   CtrlRF and kept AddrRF updates, following inner back edges through
//!   the CtrlRF, and the row class of each read, held against the steady
//!   iterations that start in this state as they come. The one with the
//!   same classes and path is applied: the cursor and every horizon move
//!   by its Δcycles, every counter and each body instruction's issue
//!   count by its per-iteration amount. With none, the replay's writes
//!   are undone and the jump stops. The exit iteration differs only in
//!   its not-taken back edge, which sets no branch bubble, so it is
//!   folded into the jump.
//! * **Closed forms.** A body without inner loops whose register updates
//!   only add, subtract and scale by constants, every register either
//!   stepped by a constant per iteration or a linear function of stepped
//!   and untouched ones, is replayed in closed form:
//!   its trip count is a division, each read's address a linear function
//!   of the iteration, and `t` iterations of register updates a few
//!   multiplications, exact in the machine's wrapping arithmetic. An
//!   outer loop replays such an inner loop in one step.
//! * **Guards.** The jump stops before the first iteration whose reads'
//!   classes or inner path no steady iteration repeats, whose reads would
//!   start at or past the next refresh window, or that would end past the
//!   cycle budget. A steady iteration never comes from one that met a
//!   refresh. The memory controller's cursor must sit at a fixed offset
//!   from the issue cursor, or, for an iteration that reads nothing, stay
//!   unchanged behind it, and no jump may move a backlog that a read
//!   drains: with a drain, the backlog an iteration starts with is pinned.
//!   When the cursor starts behind the issue cursor, writes cannot move it
//!   and the first read starts as it arrives, so only what that read
//!   drains depends on where the cursor was: such an iteration is
//!   admitted wherever the cursor is, and its pin holds the backlog that
//!   first read leaves.
//!
//! The plain walk resumes wherever a jump stops, and an instance that has
//! not become periodic after `MAX_TRIES` (six) back edges is walked to its
//! end, its inner loops still jumping. Every report field and every
//! [`SimTimeout`] therefore equals the instruction-by-instruction walk's;
//! the unit tests check this on random loops and on row-shaped nests.
//! [`predict_counted`] also reports how much was walked and jumped.
//!
//! # Calibration
//!
//! Every fudged constant lives in the [`cal`] module below with the
//! measurement that justifies it; the procedure (replay the Table II
//! suite, compare against SkipAhead, adjust, re-run the divergence table)
//! is documented in DESIGN.md §11. Everything not in [`cal`] is either
//! exact (instruction stream, counters) or taken directly from
//! [`MachineConfig`]/[`DramTiming`](ipim_dram::DramTiming) (latencies).

use ipim_dram::AccessKind;
use ipim_isa::{
    AddrOperand, AddrReg, ArfOp, ArfSrc, Category, CrfOp, CrfSrc, CtrlReg, Instruction, Program,
    SimbMask, ARF_CHIP_ID, ARF_PE_ID, ARF_PG_ID, ARF_VAULT_ID,
};

use crate::config::MachineConfig;
use crate::cost::{CostTable, ExecUnit, InstCost};
use crate::machine::{compose_energy, ExecutionReport, SimTimeout};
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
/// before the rest of the instance is walked without checking. Each
/// check costs a snapshot of the loop's state and a log of its reads.
const MAX_TRIES: u32 = 6;

/// Steady iterations kept per loop, one per read-class sequence. Rows
/// that straddle a DRAM row boundary repeat with a few sequences of
/// their own; each kept iteration holds a state vector, its classes and
/// an issue count per body instruction, and a jump looks its next
/// iteration up among them one by one.
const MAX_STEADY: usize = 8;

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

/// What a broadcast occupies, and so when it completes, with the unit
/// latency of its [`InstCost`].
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
    /// `rd_vsm` (`read`) or `wr_vsm`: one TSV grant per masked PE, then
    /// `latency` cycles.
    Vsm { read: bool, latency: u64 },
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
/// or the [`CostTable`], and dispatches once: the SIMB mask population,
/// the busiest-PG request count, how the instruction issues, its register
/// sets and the loop it closes.
struct Decoded {
    /// Masked-PE count (0 for control-core instructions).
    n: u64,
    /// Requests the busiest per-PG memory controller sees.
    m: u64,
    kind: Kind,
    /// Index into the loop table when this is a loop's back edge.
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

fn decode(insts: &[Instruction], costs: &CostTable, config: &MachineConfig) -> Vec<Decoded> {
    let fields = pg_fields(config);
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
            let InstCost { unit, latency, .. } = *costs.cost(pc);
            let arf = |effect| Kind::Pe(Unit::Arf(cal::UNIT_START + latency, effect));
            let ctrl = |op, dst, src1, src2| Kind::Ctrl(CtrlEffect { op, dst, src1, src2 });
            let kind = match *inst {
                Instruction::Jump { target } => Kind::Jump(target),
                Instruction::CJump { cond, target } => Kind::CJump(cond, target),
                Instruction::CalcCrf { op, dst, src1, src2 } => ctrl(Some(op), dst, src1, src2),
                Instruction::SetiCrf { dst, imm } => ctrl(None, dst, dst, CrfSrc::Imm(imm)),
                Instruction::SetiVsm { .. } => Kind::SetiVsm,
                Instruction::Req { .. } => Kind::Req,
                Instruction::Sync { .. } => Kind::Sync,
                Instruction::CalcArf { op, dst, src1, src2, .. } if tracked[dst.index()] => {
                    arf(ArfEffect::Calc { op, dst, src1, src2 })
                }
                Instruction::Mov { to_arf: true, arf: dst, .. } if tracked[dst.index()] => {
                    arf(ArfEffect::Poison(dst))
                }
                Instruction::LdRf { dram_addr, .. } | Instruction::LdPgsm { dram_addr, .. } => {
                    Kind::Pe(Unit::Read { addr: dram_addr, extra: latency })
                }
                _ => match unit {
                    ExecUnit::Simd | ExecUnit::PgsmPort => {
                        Kind::Pe(Unit::Fixed(cal::UNIT_START + latency))
                    }
                    ExecUnit::Alu => arf(ArfEffect::None),
                    ExecUnit::Mem(_) => Kind::Pe(Unit::Write),
                    ExecUnit::VsmPort => {
                        let read = matches!(inst, Instruction::RdVsm { .. });
                        Kind::Pe(Unit::Vsm { read, latency })
                    }
                    ExecUnit::Core => unreachable!("{inst}: every control instruction is matched"),
                },
            };
            let (read_set, write_set) = (costs.reads(pc), costs.writes(pc));
            assert!(read_set.len() <= MAX_READS && write_set.len() <= 1, "{inst}: operand count");
            let mut reads = [0; MAX_READS];
            reads[..read_set.len()].copy_from_slice(read_set);
            let (n_reads, write) = (read_set.len() as u8, write_set.first().copied());
            Decoded { n, m, kind, lp: None, reads, n_reads, write }
        })
        .collect()
}

/// A counted loop: the body `top..=edge` ends in a `cjump` back to `top`,
/// holds no `jump`, `sync`, `req` or `rd_vsm`, and every other `cjump` in
/// it is the back edge of a loop nested inside it. So an iteration leaves
/// the body only through its back edge, and only the CtrlRF decides the
/// path it takes and how many iterations run.
struct Loop {
    top: usize,
    edge: usize,
    /// The back edge's condition register.
    cond: usize,
    /// Every register the body reads or writes (flat index space), sorted.
    regs: Vec<u16>,
    /// The back edges of the loops nested in it, at any depth, in program
    /// order.
    inner: Vec<usize>,
    /// What a jump needs of the body: built once the loop first repeats
    /// an iteration, as most loops never do.
    body: Option<Body>,
    /// The distinct normalised states steady iterations start in.
    states: Vec<Vec<u64>>,
    /// The steady iterations the loop reached, kept across instances: at
    /// most [`MAX_STEADY`], one per class sequence.
    steady: Vec<Steady>,
    /// Ticks at every derive and jump; [`Steady::used`] reads it.
    clock: u64,
}

/// What a jump replays of a loop's iterations, and how it counts them.
struct Body {
    /// Each iteration without timing, in program order: the body's CtrlRF
    /// and AddrRF updates, DRAM reads and inner loops.
    replay: Vec<ReplayOp>,
    /// Inner back edges in `replay`, each with a trip-count slot.
    branches: usize,
    /// For each body instruction, the innermost inner loop it sits in
    /// ([`NO_LOOP`]: the body's own code, issued once per iteration).
    owner: Vec<u32>,
    /// The closed form of the body, when it reads no DRAM, holds no inner
    /// loop and only adds, subtracts and scales ([`Form`]).
    form: Option<Form>,
    /// The closed forms of the inner loops `replay` runs in one step
    /// ([`ReplayOp::Closed`]).
    forms: Vec<Form>,
}

/// [`Body::owner`] of an instruction outside every inner loop.
const NO_LOOP: u32 = u32::MAX;

/// One step of a loop iteration's replay.
#[derive(Clone, Copy)]
enum ReplayOp {
    Ctrl(CtrlEffect),
    Addr(ArfEffect),
    /// A DRAM read, replayed for its row class.
    Read(AddrOperand),
    /// The back edge of inner loop `lp`: back to op `to` while `cond`
    /// holds. `slot` counts the trips of the inner instance.
    Branch {
        cond: u32,
        to: u32,
        lp: u32,
        slot: u32,
    },
    /// A whole instance of inner loop `lp`, run by its closed form
    /// [`Body::forms`]`[form]`.
    Closed {
        form: u32,
        lp: u32,
    },
}

/// A register of the exact CtrlRF (its index) or of PE 0's abstract
/// AddrRF ([`ADDR`] plus its index).
type Reg = u32;
const ADDR: Reg = 1 << 16;

/// A linear function of the register values an iteration starts with:
/// `konst` plus each term's coefficient times its register, unknown when
/// a term's register is or a `mov` made it. A term whose coefficient
/// cancels stays, since its register's being unknown still reaches the
/// result.
#[derive(Clone, Copy, Default)]
struct Lin {
    terms: [(Reg, i64); LIN_TERMS],
    n_terms: u8,
    konst: i64,
    unknown: bool,
}

/// Most registers a [`Lin`] holds; a longer sum is left to the ops.
const LIN_TERMS: usize = 4;

impl Lin {
    fn konst(k: i32) -> Self {
        Lin { konst: k.into(), ..Lin::default() }
    }

    fn reg(r: Reg) -> Self {
        let mut lin = Lin { n_terms: 1, ..Lin::default() };
        lin.terms[0] = (r, 1);
        lin
    }

    fn terms(&self) -> &[(Reg, i64)] {
        &self.terms[..usize::from(self.n_terms)]
    }

    /// `self + k·other`, if it has at most [`LIN_TERMS`] registers.
    fn add(mut self, other: &Lin, k: i64) -> Option<Self> {
        for &(r, c) in other.terms() {
            let n = usize::from(self.n_terms);
            match self.terms[..n].iter_mut().find(|t| t.0 == r) {
                Some(t) => t.1 = t.1.wrapping_add(k.wrapping_mul(c)),
                None if n < LIN_TERMS => {
                    self.terms[n] = (r, k.wrapping_mul(c));
                    self.n_terms += 1;
                }
                None => return None,
            }
        }
        self.konst = self.konst.wrapping_add(k.wrapping_mul(other.konst));
        self.unknown |= other.unknown;
        Some(self)
    }

    fn scale(mut self, k: i64) -> Self {
        for t in &mut self.terms {
            t.1 = t.1.wrapping_mul(k);
        }
        self.konst = self.konst.wrapping_mul(k);
        self
    }

    /// The constant, when no register reaches the value.
    fn constant(&self) -> Option<i64> {
        (self.n_terms == 0 && !self.unknown).then_some(self.konst)
    }
}

/// The closed form of a loop whose body reads no DRAM and holds no inner
/// loop, so its iterations differ only in register values, and whose
/// CtrlRF and AddrRF updates only add, subtract and scale. Every register
/// the body writes either moves by a constant per iteration or is a
/// linear function of registers that do or that the body never writes;
/// the back edge tests one such function against a constant. `t`
/// iterations are then a few multiplications, exact in the registers'
/// wrapping 32-bit arithmetic, and the trip count a division.
#[derive(Clone)]
struct Form {
    /// The address of each read, in order, as of its iteration's start.
    reads: Vec<Lin>,
    /// Registers stepped by a constant per iteration.
    steps: Vec<(Reg, i64)>,
    /// The other registers written, as of the end of an iteration.
    sets: Vec<(Reg, Lin)>,
    /// The back edge's condition register, and its test after an
    /// iteration: `lin < bound` (`lt`) or `lin >= bound`.
    cond: Reg,
    test: Lin,
    lt: bool,
    bound: i64,
}

impl Form {
    /// The closed form of a loop body replayed by `ops` whose back edge
    /// tests CtrlRF register `cond`, if it has one.
    fn of(ops: &[ReplayOp], cond: usize) -> Option<Form> {
        enum Val {
            Lin(Lin),
            /// A comparison of a linear value with a constant.
            Test(Lin, bool, i64),
        }
        let mut vals: Vec<(Reg, Val)> = Vec::new();
        let mut reads = Vec::new();
        let get = |vals: &[(Reg, Val)], r: Reg| match vals.iter().find(|v| v.0 == r) {
            None => Some(Lin::reg(r)),
            Some((_, Val::Lin(l))) => Some(*l),
            Some((_, Val::Test(..))) => None,
        };
        for op in ops {
            let (dst, val) = match *op {
                ReplayOp::Ctrl(e) => {
                    let b = match e.src2 {
                        CrfSrc::Imm(v) => Lin::konst(v),
                        CrfSrc::Reg(r) => get(&vals, r.index() as Reg)?,
                    };
                    let a = || get(&vals, e.src1.index() as Reg);
                    let val = match e.op {
                        None => Val::Lin(b),
                        Some(CrfOp::Add) => Val::Lin(a()?.add(&b, 1)?),
                        Some(CrfOp::Sub) => Val::Lin(a()?.add(&b, -1)?),
                        Some(CrfOp::Mul) => Val::Lin(product(a()?, b)?),
                        Some(CrfOp::Lt) => Val::Test(a()?, true, b.constant()?),
                        Some(CrfOp::Ge) => Val::Test(a()?, false, b.constant()?),
                        Some(_) => return None,
                    };
                    (e.dst.index() as Reg, val)
                }
                ReplayOp::Addr(ArfEffect::Calc { op, dst, src1, src2 }) => {
                    let a = get(&vals, ADDR | src1.index() as Reg)?;
                    let b = match src2 {
                        ArfSrc::Imm(v) => Lin::konst(v),
                        ArfSrc::Reg(r) => get(&vals, ADDR | r.index() as Reg)?,
                    };
                    let val = match op {
                        ArfOp::Add => a.add(&b, 1)?,
                        ArfOp::Sub => a.add(&b, -1)?,
                        ArfOp::Mul => product(a, b)?,
                        _ => return None,
                    };
                    (ADDR | dst.index() as Reg, Val::Lin(val))
                }
                ReplayOp::Addr(ArfEffect::Poison(dst)) => {
                    (ADDR | dst.index() as Reg, Val::Lin(Lin { unknown: true, ..Lin::default() }))
                }
                ReplayOp::Addr(ArfEffect::None) => continue,
                ReplayOp::Read(AddrOperand::Imm(a)) => {
                    reads.push(Lin { konst: a.into(), ..Lin::default() });
                    continue;
                }
                ReplayOp::Read(AddrOperand::Indirect(r)) => {
                    reads.push(get(&vals, ADDR | r.index() as Reg)?);
                    continue;
                }
                ReplayOp::Branch { .. } | ReplayOp::Closed { .. } => return None,
            };
            match vals.iter_mut().find(|v| v.0 == dst) {
                Some(v) => v.1 = val,
                None => vals.push((dst, val)),
            }
        }
        let cond = cond as Reg;
        let (mut steps, mut sets, mut test) = (Vec::new(), Vec::new(), None);
        for (r, val) in vals {
            match val {
                Val::Test(lin, lt, bound) if r == cond => test = Some((lin, lt, bound)),
                Val::Test(..) => return None,
                Val::Lin(lin) => match *lin.terms() {
                    [(t, 1)] if t == r && !lin.unknown => steps.push((r, lin.konst)),
                    _ => sets.push((r, lin)),
                },
            }
        }
        let (test, lt, bound) = test?;
        // A value an iteration starts with must be known in closed form:
        // a register the body never writes, or one it steps.
        let written = |r: Reg| r == cond || sets.iter().any(|s| s.0 == r);
        let lins = sets.iter().map(|s| &s.1).chain(&reads).chain([&test]);
        if lins.flat_map(|l| l.terms()).any(|&(r, _)| written(r)) {
            return None;
        }
        Some(Form { reads, steps, sets, cond, test, lt, bound })
    }

    /// The step of register `r` per iteration (0: the body leaves it).
    fn step(&self, r: Reg) -> i64 {
        self.steps.iter().find(|s| s.0 == r).map_or(0, |s| s.1)
    }

    /// `lin` in iteration `t` (from 1) of an instance that starts from
    /// the registers of `w`: each stepped register has moved `t − 1` steps.
    fn eval(&self, lin: &Lin, t: u64, w: &Walk) -> Option<i128> {
        if lin.unknown {
            return None;
        }
        let mut v = i128::from(lin.konst);
        for &(r, c) in lin.terms() {
            let x = i128::from(w.reg(r)?) + i128::from(t - 1) * i128::from(self.step(r));
            v += i128::from(c) * x;
        }
        Some(v)
    }

    /// The iterations an instance that starts from the registers of `w`
    /// runs, exit included; `None` when the test's value is unknown, would
    /// leave the 32-bit range before the exit, or never fails.
    fn trips(&self, w: &Walk) -> Option<u64> {
        let first = self.eval(&self.test, 1, w)?;
        let d = self.eval(&self.test, 2, w)? - first;
        let bound = i128::from(self.bound);
        let fits = |v: i128| i32::try_from(v).is_ok();
        let holds = |v: i128| if self.lt { v < bound } else { v >= bound };
        if !fits(first) {
            return None;
        }
        if !holds(first) {
            return Some(1);
        }
        // The iterations after the first until the test fails.
        let more = match (self.lt, d) {
            (true, d) if d > 0 => (bound - first + d - 1) / d,
            (false, d) if d < 0 => (first - bound) / -d + 1,
            _ => return None,
        };
        fits(first + more * d).then(|| u64::try_from(more + 1).ok()).flatten()
    }

    /// Every register the body writes.
    fn writes(&self) -> impl Iterator<Item = Reg> + '_ {
        self.steps.iter().map(|s| s.0).chain(self.sets.iter().map(|s| s.0)).chain([self.cond])
    }

    /// Runs `t` iterations from the registers of `w`.
    fn apply(&self, t: u64, w: &mut Walk) {
        // Every value reads the registers as the instance started.
        let sets: Vec<Option<i128>> = self.sets.iter().map(|s| self.eval(&s.1, t, w)).collect();
        let holds = self.eval(&self.test, t, w).map(|v| {
            let bound = i128::from(self.bound);
            if self.lt {
                v < bound
            } else {
                v >= bound
            }
        });
        for &(r, step) in &self.steps {
            let v = w.reg(r).map(|x| (i128::from(x) + i128::from(t) * i128::from(step)) as i32);
            w.set_reg(r, v);
        }
        for (s, v) in self.sets.iter().zip(sets) {
            w.set_reg(s.0, v.map(|v| v as i32));
        }
        w.set_reg(self.cond, holds.map(i32::from));
    }
}

/// `a · b` when one side is a constant.
fn product(a: Lin, b: Lin) -> Option<Lin> {
    match (a.constant(), b.constant()) {
        (_, Some(k)) => Some(a.scale(k)),
        (Some(k), _) => Some(b.scale(k)),
        _ => None,
    }
}

/// Finds every loop of `insts` and marks its back edge in `decoded`.
/// Back edges come in program order, so an inner loop is found, and
/// marked, before any loop around it. `space` is the size of the flat
/// register index space.
fn find_loops(insts: &[Instruction], decoded: &mut [Decoded], space: usize) -> Vec<Loop> {
    let mut loops: Vec<Loop> = Vec::new();
    // Instructions no loop body may hold, counted before each pc; every
    // `cjump` so far, in program order; the loop that last listed each
    // register.
    let mut blocked = vec![0u32; insts.len() + 1];
    for (pc, inst) in insts.iter().enumerate() {
        let no = matches!(
            inst,
            Instruction::Jump { .. }
                | Instruction::Sync { .. }
                | Instruction::Req { .. }
                | Instruction::RdVsm { .. }
        );
        blocked[pc + 1] = blocked[pc] + u32::from(no);
    }
    let mut cjumps: Vec<usize> = Vec::new();
    let mut listed = vec![u32::MAX; space];
    for (edge, inst) in insts.iter().enumerate() {
        let Instruction::CJump { cond, target } = *inst else { continue };
        cjumps.push(edge);
        let top = match target {
            CrfSrc::Imm(top) => usize::try_from(top).unwrap_or(usize::MAX),
            CrfSrc::Reg(_) => usize::MAX,
        };
        if top > edge || blocked[edge] != blocked[top] {
            continue;
        }
        let inner = &cjumps[cjumps.partition_point(|&pc| pc < top)..cjumps.len() - 1];
        if !inner.iter().all(|&pc| decoded[pc].lp.is_some_and(|j| loops[j as usize].top >= top)) {
            continue;
        }
        let id = loops.len() as u32;
        let mut body_regs = Vec::new();
        for d in &decoded[top..=edge] {
            for &r in d.reads().iter().chain(&d.write) {
                if std::mem::replace(&mut listed[usize::from(r)], id) != id {
                    body_regs.push(r);
                }
            }
        }
        body_regs.sort_unstable();
        decoded[edge].lp = Some(loops.len() as u32);
        loops.push(Loop {
            top,
            edge,
            cond: cond.index(),
            regs: body_regs,
            inner: inner.to_vec(),
            body: None,
            states: Vec::new(),
            steady: Vec::new(),
            clock: 0,
        });
    }
    loops
}

/// Builds the [`Body`] of loop `lp`, and first those of the loops nested
/// in it, unless built.
fn build_body(loops: &mut [Loop], lp: usize, decoded: &[Decoded]) {
    if loops[lp].body.is_some() {
        return;
    }
    // Inner back edges come in program order, innermost loops first.
    for i in 0..loops[lp].inner.len() {
        let inner = decoded[loops[lp].inner[i]].lp.expect("an inner cjump closes an inner loop");
        build_body(loops, inner as usize, decoded);
    }
    let (loops, rest) = loops.split_at_mut(lp);
    let l = &mut rest[0];
    let (top, edge, inner) = (l.top, l.edge, &l.inner[..]);
    // `at[pc − top]`: the replay position of the body's pc, where an
    // inner back edge to it resumes. Inner loops come innermost first,
    // so each instruction's owner is the first inner loop to claim it.
    let mut owner = vec![NO_LOOP; edge + 1 - top];
    for &pc in inner {
        let lp = decoded[pc].lp.expect("an inner cjump closes an inner loop");
        let from = loops[lp as usize].top - top;
        for o in owner[from..=pc - top].iter_mut().filter(|o| **o == NO_LOOP) {
            *o = lp;
        }
    }
    // An inner loop with a closed form is replayed in one step.
    let formed: Vec<(usize, u32)> = inner
        .iter()
        .filter_map(|&pc| {
            let lp = decoded[pc].lp?;
            let l = &loops[lp as usize];
            l.body.as_ref().and_then(|b| b.form.as_ref()).map(|_| (l.top, lp))
        })
        .collect();
    let mut formed = formed.into_iter().peekable();
    let mut at = Vec::with_capacity(edge - top);
    let (mut replay, mut forms) = (Vec::new(), Vec::new());
    let mut branches = 0;
    let mut pc = top;
    while pc < edge {
        if let Some((_, lp)) = formed.next_if(|&(first, _)| first == pc) {
            let l = &loops[lp as usize];
            at.resize(l.edge + 1 - top, replay.len() as u32);
            forms.push(l.body.as_ref().and_then(|b| b.form.clone()).expect("a closed form"));
            replay.push(ReplayOp::Closed { form: forms.len() as u32 - 1, lp });
            pc = l.edge + 1;
            continue;
        }
        at.push(replay.len() as u32);
        let d = &decoded[pc];
        pc += 1;
        let op = match d.kind {
            Kind::Ctrl(e) => ReplayOp::Ctrl(e),
            Kind::Pe(Unit::Read { addr, .. }) => ReplayOp::Read(addr),
            Kind::Pe(Unit::Arf(_, e @ (ArfEffect::Calc { .. } | ArfEffect::Poison(_)))) => {
                ReplayOp::Addr(e)
            }
            Kind::CJump(cond, _) => {
                let lp = d.lp.expect("an inner cjump closes an inner loop");
                let inner = loops[lp as usize].top - top;
                branches += 1;
                let cond = cond.index() as u32;
                ReplayOp::Branch { cond, to: at[inner], lp, slot: branches - 1 }
            }
            _ => continue,
        };
        replay.push(op);
    }
    let form = if inner.is_empty() { Form::of(&replay, l.cond) } else { None };
    l.body = Some(Body { replay, branches: branches as usize, owner, form, forms });
}

/// Number of timing-dependent counters in the walk (see
/// [`Walk::counters`]).
const COUNTERS: usize = 11;

/// The walk's state at one back edge: the normalised part a steady state
/// must repeat, plus the absolute values a steady iteration is derived
/// from.
#[derive(Default)]
struct Snapshot {
    /// Horizons relative to the cursor (see [`Walk::snapshot`]).
    state: Vec<u64>,
    cursor: u64,
    mc_free: u64,
    write_backlog: u64,
    next_refresh: u64,
    counters: [u64; COUNTERS],
    /// Where the walk's logs stood ([`Recording`]).
    reads: usize,
    path: usize,
    firsts: usize,
    drains: u64,
    last_start: u64,
}

/// How a steady iteration meets the memory controller: what its MC cursor
/// and write backlog must be at the start, and what it leaves.
#[derive(Clone, Copy, Default)]
enum McRule {
    /// The body issues no read: the MC cursor sits, unchanged, at or
    /// behind the issue cursor, and posted writes only add to the backlog.
    #[default]
    Idle,
    /// The MC cursor starts and ends `offset` (wrapping) from the issue
    /// cursor. With `backlog`, a read saw a gap long enough to drain
    /// posted writes, so the iteration needs that backlog: a drain takes
    /// min(gap, backlog).
    Offset { offset: u64, backlog: Option<u64> },
    /// The MC cursor starts at or behind the issue cursor, where posted
    /// writes cannot move it, so the first read starts as it arrives and
    /// only what it drains depends on where the cursor was; the iteration
    /// leaves the MC cursor `end` (wrapping) from the issue cursor. With
    /// `backlog`, a read saw a gap long enough to drain, so the iteration
    /// needs its first read to leave the first backlog, and leaves the
    /// second.
    Behind { end: u64, backlog: Option<(u64, u64)> },
}

/// The first read of an iteration, as logged.
#[derive(Clone, Copy, Default)]
struct FirstRead {
    arrival: u64,
    /// The write backlog it found, and how much of that it drained.
    found: u64,
    drained: u64,
    /// Whether it saw a gap over [`cal::WRITE_DRAIN_IDLE`].
    drain: bool,
}

/// One steady iteration of a loop: the normalised state it starts and
/// ends in, what it adds, and the decisions a jump must see repeated.
#[derive(Default)]
struct Steady {
    /// Its normalised state, an index into [`Loop::states`].
    state: usize,
    mc: McRule,
    /// The first read, relative to the iteration: `arrival` cycles after
    /// its first cursor, finding `found` posted writes more than the
    /// iteration started with (the default when it reads nothing).
    first: FirstRead,
    /// Whether any read saw a gap over [`cal::WRITE_DRAIN_IDLE`].
    drain: bool,
    /// Cycles per iteration (≥ 1: every issue takes a cycle).
    dt: u64,
    /// Posted writes each iteration adds to the backlog (without a pin).
    dbacklog: u64,
    dcount: [u64; COUNTERS],
    /// Issues of each body instruction per iteration.
    dissues: Vec<u64>,
    /// Row class of every DRAM read, in issue order, inner iterations
    /// included.
    classes: Vec<RowClass>,
    /// The inner loop instances the iteration completes, in order, as
    /// (loop, trips): the path it takes through the body.
    path: Vec<(u32, u64)>,
    /// Inner back edges taken per iteration.
    takes: u64,
    /// Latest read service start, relative to the iteration's first
    /// cursor (`None`: the body reads no DRAM).
    last_read: Option<u64>,
    /// The loop's [`Loop::clock`] when the iteration was last derived or
    /// jumped: a full set replaces its least recently used iteration.
    used: u64,
}

impl Steady {
    /// Whether an iteration of this kind can start at issue cursor
    /// `cursor`, with the memory controller's cursor at `mc` and `backlog`
    /// posted writes, once the normalised state is known to match.
    fn admits(&self, cursor: u64, mc: u64, backlog: u64) -> bool {
        match self.mc {
            McRule::Idle => mc <= cursor,
            McRule::Offset { offset, backlog: need } => {
                mc.wrapping_sub(cursor) == offset && need.is_none_or(|b| b == backlog)
            }
            McRule::Behind { backlog: need, .. } => {
                mc <= cursor && {
                    let first = self.first_read(cursor, mc, backlog);
                    match need {
                        Some((left, _)) => first.found - first.drained == left,
                        None => first.drained == 0,
                    }
                }
            }
        }
    }

    /// The first read of an iteration that starts at issue cursor `cursor`
    /// with the MC cursor at `mc` and `backlog` posted writes, once
    /// [`admits`](Self::admits) holds.
    fn first_read(&self, cursor: u64, mc: u64, backlog: u64) -> FirstRead {
        let (f, arrival) = (self.first, cursor + self.first.arrival);
        let found = backlog + f.found;
        match self.mc {
            McRule::Behind { .. } => {
                let gap = arrival - mc;
                let drained = drain(gap, found);
                FirstRead { arrival, found, drained, drain: gap > cal::WRITE_DRAIN_IDLE }
            }
            _ => FirstRead { arrival, found, ..f },
        }
    }

    /// The MC cursor and the backlog after an iteration that started
    /// with `mc` and `backlog` and ended at issue cursor `cursor`.
    fn leaves(&self, cursor: u64, mc: u64, backlog: u64) -> (u64, u64) {
        match self.mc {
            McRule::Idle => (mc, backlog + self.dbacklog),
            McRule::Offset { offset, .. } => (cursor.wrapping_add(offset), backlog + self.dbacklog),
            McRule::Behind { end, backlog: need } => {
                (cursor.wrapping_add(end), need.map_or(backlog + self.dbacklog, |(_, after)| after))
            }
        }
    }

    /// Keeps the walked iteration `a → b` of `l` as the steady iteration
    /// for its class sequence and path if `b` repeats `a`; `rec` holds
    /// what the walk logged between them.
    fn derive(l: &mut Loop, a: &Snapshot, b: &Snapshot, rec: &Recording) {
        if a.state != b.state || a.next_refresh != b.next_refresh {
            return;
        }
        let (classes, path) = (&rec.classes[a.reads..b.reads], &rec.path[a.path..b.path]);
        let first = (!classes.is_empty()).then(|| rec.firsts[a.firsts]);
        let drain = b.drains > a.drains;
        let end = b.mc_free.wrapping_sub(b.cursor);
        let mc = if a.mc_free > a.cursor {
            if end != a.mc_free.wrapping_sub(a.cursor)
                || drain && a.write_backlog != b.write_backlog
            {
                return;
            }
            McRule::Offset { offset: end, backlog: drain.then_some(b.write_backlog) }
        } else if classes.is_empty() {
            McRule::Idle
        } else if let (Some(f), true) = (first, b.mc_free <= b.cursor) {
            McRule::Behind { end, backlog: drain.then_some((f.found - f.drained, b.write_backlog)) }
        } else {
            return;
        };
        let slot = match l.steady.iter().position(|s| s.classes == classes && s.path == path) {
            Some(i) => i,
            None if l.steady.len() < MAX_STEADY => {
                l.steady.push(Steady::default());
                l.steady.len() - 1
            }
            None => (0..MAX_STEADY).min_by_key(|&i| l.steady[i].used).expect("a full set"),
        };
        // The state's index: an equal one, or one no other steady
        // iteration uses, which a set of at most MAX_STEADY always has once
        // it holds MAX_STEADY states.
        let unused = |i: usize| l.steady.iter().enumerate().all(|(j, s)| j == slot || s.state != i);
        let state = match l.states.iter().position(|s| *s == b.state) {
            Some(i) => i,
            None if l.states.len() < MAX_STEADY => {
                l.states.push(b.state.clone());
                l.states.len() - 1
            }
            None => {
                let i = (0..MAX_STEADY).find(|&i| unused(i)).expect("a state no iteration uses");
                l.states[i].clone_from(&b.state);
                i
            }
        };
        // Per iteration, the body's own code issues once and an inner
        // loop's body once per trip of each instance.
        let mut trips: Vec<(u32, u64)> = Vec::new();
        for &(lp, t) in path {
            match trips.iter_mut().find(|e| e.0 == lp) {
                Some(e) => e.1 += t,
                None => trips.push((lp, t)),
            }
        }
        l.clock += 1;
        let s = &mut l.steady[slot];
        s.state = state;
        s.mc = mc;
        s.first = first.map_or(FirstRead::default(), |f| FirstRead {
            arrival: f.arrival - a.cursor,
            found: f.found - a.write_backlog,
            ..f
        });
        s.drain = drain;
        s.dt = b.cursor - a.cursor;
        // A drain can only shrink a backlog pinned to its value.
        s.dbacklog = b.write_backlog.saturating_sub(a.write_backlog);
        for ((d, x), y) in s.dcount.iter_mut().zip(&b.counters).zip(&a.counters) {
            *d = x - y;
        }
        s.dissues.clear();
        let owner = &l.body.as_ref().expect("built before a derive").owner;
        s.dissues.extend(owner.iter().map(|&o| match o {
            NO_LOOP => 1,
            lp => trips.iter().find(|e| e.0 == lp).map_or(0, |e| e.1),
        }));
        s.classes.clear();
        s.classes.extend_from_slice(classes);
        s.path.clear();
        s.path.extend_from_slice(path);
        s.takes = path.iter().map(|&(_, trips)| trips - 1).sum();
        // Service starts only grow, so the latest read started last.
        s.last_read = first.map(|_| b.last_start - a.cursor);
        s.used = l.clock;
    }
}

/// What the walk logs while some tracked iteration is being recorded;
/// each level of the tracker reads its iteration as the span between two
/// of its snapshots.
#[derive(Default)]
struct Recording {
    on: bool,
    /// The row class of each read.
    classes: Vec<RowClass>,
    /// The loop instances completed, as (loop, trips).
    path: Vec<(u32, u64)>,
    /// The first read after each snapshot, by its index in `classes`.
    firsts: Vec<FirstRead>,
    /// Whether no read has been logged since the last snapshot.
    pending: bool,
    /// Reads that saw a gap over [`cal::WRITE_DRAIN_IDLE`], counted.
    drains: u64,
    /// Service start of the latest read.
    last_start: u64,
}

impl Recording {
    fn clear(&mut self) {
        self.classes.clear();
        self.path.clear();
        self.firsts.clear();
    }

    /// Logs one read that started service at `start`.
    fn read(&mut self, class: RowClass, start: u64, first: FirstRead) {
        if std::mem::take(&mut self.pending) {
            self.firsts.push(first);
        }
        self.classes.push(class);
        self.drains += u64::from(first.drain);
        self.last_start = start;
    }

    /// Logs a jumped iteration of steady iteration `s` that started at
    /// cursor `c` with the MC cursor at `mc` and `backlog` posted writes:
    /// its first read as it happened, its latest start, and a drain when
    /// any read may have seen the gap.
    fn jumped(&mut self, s: &Steady, c: u64, mc: u64, backlog: u64) {
        if let Some(last) = s.last_read {
            let first = s.first_read(c, mc, backlog);
            if std::mem::take(&mut self.pending) {
                self.firsts.push(first);
            }
            self.classes.extend_from_slice(&s.classes);
            self.drains += u64::from(first.drain || s.drain);
            self.last_start = c + last;
        }
        self.path.extend_from_slice(&s.path);
    }
}

/// Fast-forward bookkeeping for one active loop instance.
#[derive(Default)]
struct Level {
    lp: usize,
    /// Iterations of the instance so far.
    iters: u64,
    /// Back edges of this instance checked without a jump.
    tries: u32,
    /// Whether `prev` holds the previous back edge of this instance.
    have_prev: bool,
    prev: Snapshot,
    cur: Snapshot,
}

impl Level {
    /// Whether the instance is still checked, and so recorded.
    fn recording(&self) -> bool {
        self.tries < MAX_TRIES
    }
}

/// Scratch space for replaying iterations, and what a failed replay
/// restores.
#[derive(Default)]
struct Replayed {
    /// Trips so far of each inner instance, by [`ReplayOp::Branch`] slot.
    trips: Vec<u64>,
    /// Each register the iteration being replayed wrote, with the value
    /// it held before, in write order.
    undo: Vec<(Reg, Option<i32>)>,
    /// The row classes of an iteration in closed form.
    classes: Vec<RowClass>,
}

/// Fast-forward bookkeeping: one level per active loop instance.
#[derive(Default)]
struct Tracker {
    /// The active loop instances, outermost first; each level's loop is
    /// nested in the one below it.
    stack: Vec<Level>,
    /// Popped levels, kept for their buffers.
    spare: Vec<Level>,
    replayed: Replayed,
}

impl Tracker {
    /// Handles the back edge of loop `lp`, just issued: detects a steady
    /// state and, once one holds, jumps as far as it stays valid.
    fn back_edge(
        &mut self,
        w: &mut Walk,
        loops: &mut [Loop],
        decoded: &[Decoded],
        lp: usize,
        taken: bool,
        max_cycles: u64,
    ) {
        // An instance is on the stack from its first taken back edge; its
        // inner instances have all exited by the time it branches again.
        let on_top = self.stack.last().is_some_and(|l| l.lp == lp);
        debug_assert!(on_top || self.stack.iter().all(|l| l.lp != lp));
        if !taken {
            let trips = if on_top { self.pop().iters + 1 } else { 1 };
            self.completed(w, lp, trips);
            return;
        }
        if !on_top {
            let mut level = self.spare.pop().unwrap_or_default();
            (level.lp, level.iters, level.tries, level.have_prev) = (lp, 0, 0, false);
            self.stack.push(level);
        }
        let k = self.stack.len() - 1;
        // Whether a level around this one records: it then logs what this
        // level jumps over.
        let below = self.stack[..k].iter().any(Level::recording);
        let level = &mut self.stack[k];
        level.iters += 1;
        if !level.recording() {
            return;
        }
        w.snapshot(&loops[lp], &mut level.cur);
        let (a, b) = (&level.prev, &level.cur);
        if level.have_prev && a.state == b.state && a.next_refresh == b.next_refresh {
            build_body(loops, lp, decoded);
            Steady::derive(&mut loops[lp], a, b, &w.rec);
        }
        let l = &mut loops[lp];
        let (n, exited) = self.replayed.jump(w, l, &level.cur, below, max_cycles);
        level.iters += n;
        if exited {
            let trips = self.pop().iters;
            self.completed(w, lp, trips);
            return;
        }
        if n > 0 {
            // Stopped early: re-detect from the back edge the jump reached.
            level.tries = 0;
            w.snapshot(l, &mut level.prev);
        } else {
            level.tries += 1;
            std::mem::swap(&mut level.prev, &mut level.cur);
        }
        level.have_prev = true;
        if !below {
            // No level around this one needs the logs before this back
            // edge.
            w.rec.clear();
            (level.prev.reads, level.prev.path, level.prev.firsts) = (0, 0, 0);
        }
        w.rec.on = self.stack.iter().any(Level::recording);
    }

    fn pop(&mut self) -> &Level {
        let level = self.stack.pop().expect("an active loop instance");
        self.spare.push(level);
        self.spare.last().expect("just pushed")
    }

    /// Records that an instance of loop `lp` ran `trips` iterations, for
    /// the levels around it.
    fn completed(&mut self, w: &mut Walk, lp: usize, trips: u64) {
        w.rec.on = self.stack.iter().any(Level::recording);
        if w.rec.on {
            w.rec.path.push((lp as u32, trips));
        } else {
            w.rec.clear();
        }
    }
}

impl Replayed {
    /// Advances `w`, which sits at a back edge of `l` in state `cur`, over
    /// as many further iterations as each repeat one of the loop's steady
    /// iterations exactly: each is replayed, then the steady iteration
    /// with its class sequence and path is applied. With `log`, the
    /// jumped iterations are logged for the levels around `l`. Returns the
    /// iterations jumped and whether the last was the loop's exit.
    fn jump(
        &mut self,
        w: &mut Walk,
        l: &mut Loop,
        cur: &Snapshot,
        log: bool,
        max_cycles: u64,
    ) -> (u64, bool) {
        // The candidates start, and so end, in this state; the one applied
        // last is tried first.
        let Some(state) = l.states.iter().position(|s| *s == cur.state) else {
            return (0, false);
        };
        let mut cands = [0; MAX_STEADY];
        let mut n_cands = 0;
        for (i, s) in l.steady.iter().enumerate() {
            if s.state == state {
                cands[n_cands] = i;
                n_cands += 1;
            }
        }
        let cands = &mut cands[..n_cands];
        cands.sort_unstable_by_key(|&i| std::cmp::Reverse(l.steady[i].used));
        let Some(max_takes) = cands.iter().map(|&i| l.steady[i].takes).max() else {
            return (0, false);
        };
        let body = l.body.take().expect("a loop with steady iterations has its body");
        // Iteration by iteration: the cursor, the MC cursor and the
        // backlog at its start, and how often each steady iteration ran.
        let (mut c, mut mc, mut backlog) = (w.cursor, w.mc_free, w.write_backlog);
        let mut counts = [0u64; MAX_STEADY];
        let (mut n, mut exit_dt) = (0, None);
        self.trips.clear();
        self.trips.resize(body.branches, 0);
        let (refresh, next_refresh) = (w.config.refresh, w.next_refresh);
        let closed = body.form.as_ref().and_then(|f| Some((f, f.trips(w)?)));
        if let Some((f, trips)) = closed {
            // A body without inner loops, in closed form: each iteration's
            // reads are at addresses in closed form, and its updates wait
            // for the end of the jump.
            while n < trips {
                if f.reads.is_empty() && n > 0 {
                    // Without reads, an iteration that repeated the steady
                    // one leaves it able to start again: only the budget
                    // stops the rest.
                    let s = &l.steady[cands[0]];
                    let k = (trips - n).min((max_cycles - c) / s.dt);
                    c += k * s.dt;
                    (mc, backlog) = match s.mc {
                        McRule::Offset { offset, .. } => (c.wrapping_add(offset), backlog),
                        _ => (mc, backlog),
                    };
                    backlog += k * s.dbacklog;
                    counts[cands[0]] += k;
                    n += k;
                    if n == trips {
                        exit_dt = Some(s.dt);
                    }
                    break;
                }
                let (open_row, unknown) = (w.open_row, w.unknown_accesses);
                self.classes.clear();
                for lin in &f.reads {
                    let class = w.row_class(f.eval(lin, n + 1, w).map(|a| a as u32));
                    self.classes.push(class);
                }
                let fits = |s: &Steady| {
                    s.classes == self.classes
                        && s.admits(c, mc, backlog)
                        && c + s.dt <= max_cycles
                        && !(refresh && s.last_read.is_some_and(|r| c + r >= next_refresh))
                };
                let Some(at) = cands.iter().position(|&i| fits(&l.steady[i])) else {
                    (w.open_row, w.unknown_accesses) = (open_row, unknown);
                    break;
                };
                if at > 0 {
                    cands[..=at].rotate_right(1);
                }
                let s = &l.steady[cands[0]];
                if log {
                    w.rec.jumped(s, c, mc, backlog);
                }
                c += s.dt;
                (mc, backlog) = s.leaves(c, mc, backlog);
                counts[cands[0]] += 1;
                n += 1;
                if n == trips {
                    exit_dt = Some(s.dt);
                }
            }
            if n > 0 {
                f.apply(n, w);
            }
        }
        while closed.is_none() {
            // Only a candidate that can start here may be replayed against:
            // the guards read nothing of the iteration itself.
            let fits = |s: &Steady| {
                s.admits(c, mc, backlog)
                    && c + s.dt <= max_cycles
                    && !(refresh && s.last_read.is_some_and(|r| c + r >= next_refresh))
            };
            let Some(first) = cands.iter().position(|&i| fits(&l.steady[i])) else { break };
            let Some(at) = w.replay(&body, &l.steady, cands, first, &fits, self, max_takes) else {
                break;
            };
            if at > 0 {
                cands[..=at].rotate_right(1);
            }
            let s = &l.steady[cands[0]];
            if log {
                w.rec.jumped(s, c, mc, backlog);
            }
            c += s.dt;
            (mc, backlog) = s.leaves(c, mc, backlog);
            counts[cands[0]] += 1;
            n += 1;
            if w.ctrl_rf[l.cond] == 0 {
                exit_dt = Some(s.dt);
                break;
            }
        }
        if n > 0 {
            l.clock += 1;
            for (s, &k) in l.steady.iter_mut().zip(&counts) {
                if k > 0 {
                    s.used = l.clock;
                }
            }
            w.advance(l, &counts, c, mc, backlog, exit_dt);
        }
        l.body = Some(body);
        (n, exit_dt.is_some())
    }
}

/// The posted writes a read drains from `backlog` when it reaches the
/// memory controller `gap` cycles after its last command: the
/// controller drains into the gap after its read-idle hysteresis.
fn drain(gap: u64, backlog: u64) -> u64 {
    gap.saturating_sub(cal::WRITE_DRAIN_IDLE).min(backlog)
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
    /// log2 of the row size when it is a power of two (the row of an
    /// address is then a shift, not a division).
    row_shift: Option<u32>,
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
    /// What the tracked loop iterations read and which paths they took.
    rec: Recording,
    /// Dynamic instructions jumped over rather than walked.
    jumped: u64,
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
            write_done: vec![0; CostTable::space(config)],
            read_done: vec![0; CostTable::space(config)],
            inflight: Vec::with_capacity(config.inst_queue + 1),
            tsv_free_at: 0,
            mc_free: 0,
            write_backlog: 0,
            open_row: None,
            row_shift: {
                let bytes = config.bank.row_bytes;
                bytes.is_power_of_two().then(|| bytes.trailing_zeros())
            },
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
            jumped: 0,
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
                let row = u64::from(match self.row_shift {
                    Some(shift) => a >> shift,
                    None => a / self.config.bank.row_bytes,
                });
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
        let backlog = self.write_backlog;
        let drained = drain(gap, backlog);
        self.write_backlog -= drained;
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
            let drain = gap > cal::WRITE_DRAIN_IDLE;
            self.rec.read(class, start, FirstRead { arrival, found: backlog, drained, drain });
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

    /// Adds what `times` issues of an instruction of cost `cost` on `n`
    /// masked PEs contribute to the counters that do not depend on timing:
    /// the instruction mix and access counters the cost table gives, unit
    /// busy time, TSV slots, and DRAM requests (posted writes always hit
    /// and complete one cycle after reaching the controller).
    fn account(&mut self, cost: &InstCost, n: u64, times: u64) {
        let s = &mut self.stats;
        s.by_category.bump_by(cost.category, times);
        cost.add_accesses(s, times);
        let tn = times * n;
        if cost.unit != ExecUnit::Core {
            // Every broadcast takes the cycle's TSV slot.
            s.tsv_transfers += times;
        }
        match cost.unit {
            ExecUnit::Simd => s.simd_busy += tn * cost.latency,
            ExecUnit::Alu => s.int_alu_busy += tn * cost.latency,
            ExecUnit::Mem(AccessKind::Read) => {
                s.dram_accesses += tn;
                self.bank_reads += tn;
            }
            ExecUnit::Mem(AccessKind::Write) => {
                s.dram_accesses += tn;
                s.mem_busy += tn;
                self.bank_writes += tn;
                self.row_hits += tn;
            }
            // One TSV grant per masked PE on top of the broadcast.
            ExecUnit::VsmPort => s.tsv_transfers += tn,
            // A `req`: the served read lands in this vault's DRAM accounting
            // symmetrically (each vault serves what it sends under SPMD),
            // charged as a row miss.
            ExecUnit::Core if cost.category == Category::InterVault => {
                s.remote_reqs += times;
                s.dram_accesses += times;
                self.bank_reads += times;
                self.row_misses += times;
                self.flit_hops += times * cal::REQ_FLIT_HOPS;
            }
            ExecUnit::PgsmPort | ExecUnit::Core => {}
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
        let rec = &mut self.rec;
        (s.reads, s.path, s.firsts) = (rec.classes.len(), rec.path.len(), rec.firsts.len());
        (s.drains, s.last_start) = (rec.drains, rec.last_start);
        rec.pending = true;
    }

    /// Replays one iteration of `l` without timing, following its inner
    /// back edges through the CtrlRF: the CtrlRF and AddrRF updates, the
    /// row class of each read and the trips of each inner instance, held
    /// against the steady iterations `cands` that `fits`, from `cands[at]`
    /// on, as they come. Returns the position in `cands` of the one whose
    /// class sequence and path the iteration repeats (keys are unique), or
    /// `None`, with the state restored, as soon as none can (more than
    /// `max_takes` inner back edges taken means none).
    #[allow(clippy::too_many_arguments)]
    fn replay(
        &mut self,
        l: &Body,
        steady: &[Steady],
        cands: &[usize],
        mut at: usize,
        fits: &dyn Fn(&Steady) -> bool,
        scratch: &mut Replayed,
        max_takes: u64,
    ) -> Option<usize> {
        let (open_row, unknown) = (self.open_row, self.unknown_accesses);
        scratch.undo.clear();
        let (trips, undo) = (&mut scratch.trips[..], &mut scratch.undo);
        // The iteration so far is `at`'s prefix; on a mismatch, the next
        // candidate that fits, with that prefix and the new element, takes
        // over.
        let steady = |at: usize| &steady[cands[at]];
        let next = |at: usize, reads: usize, done: usize, same: &dyn Fn(&Steady) -> bool| {
            let s = steady(at);
            (at + 1..cands.len()).find(|&j| {
                let t = steady(j);
                same(t)
                    && t.classes.get(..reads) == Some(&s.classes[..reads])
                    && t.path.get(..done) == Some(&s.path[..done])
                    && fits(t)
            })
        };
        let (mut reads, mut done, mut takes, mut i) = (0, 0, 0, 0);
        let (mut classes, mut path) = (&steady(at).classes[..], &steady(at).path[..]);
        // Holds the next read's class, or the next inner instance, against
        // the candidates: whether one still repeats the iteration so far.
        macro_rules! holds {
            ($list:ident[$k:expr] == $item:expr) => {{
                let (k, item) = ($k, $item);
                $list.get(k) == Some(&item)
                    || match next(at, reads, done, &|t: &Steady| t.$list.get(k) == Some(&item)) {
                        Some(j) => {
                            at = j;
                            (classes, path) = (&steady(j).classes[..], &steady(j).path[..]);
                            true
                        }
                        None => false,
                    }
            }};
        }
        let found = 'replay: loop {
            let Some(&op) = l.replay.get(i) else {
                let whole = |t: &Steady| t.classes.len() == reads && t.path.len() == done;
                break if whole(steady(at)) { Some(at) } else { next(at, reads, done, &whole) };
            };
            i += 1;
            match op {
                ReplayOp::Ctrl(e) => {
                    let r = e.dst.index();
                    undo.push((r as Reg, Some(self.ctrl_rf[r])));
                    self.interpret_ctrl(e);
                }
                ReplayOp::Addr(e) => {
                    if let ArfEffect::Calc { dst, .. } | ArfEffect::Poison(dst) = e {
                        undo.push((ADDR | dst.index() as Reg, self.addr0[dst.index()]));
                    }
                    self.interpret0(e);
                }
                ReplayOp::Read(addr) => {
                    let class = self.row_class(self.resolve0(addr));
                    if !holds!(classes[reads] == class) {
                        break None;
                    }
                    reads += 1;
                }
                ReplayOp::Closed { form, lp } => {
                    let f = &l.forms[form as usize];
                    let Some(t) = f.trips(self) else { break None };
                    takes += t - 1;
                    if takes > max_takes {
                        break None;
                    }
                    // Each iteration's reads, at addresses in closed form.
                    for it in 1..=if f.reads.is_empty() { 0 } else { t } {
                        for lin in &f.reads {
                            let class = self.row_class(f.eval(lin, it, self).map(|a| a as u32));
                            if !holds!(classes[reads] == class) {
                                break 'replay None;
                            }
                            reads += 1;
                        }
                    }
                    undo.extend(f.writes().map(|r| (r, self.reg(r))));
                    f.apply(t, self);
                    if !holds!(path[done] == (lp, t)) {
                        break None;
                    }
                    done += 1;
                }
                ReplayOp::Branch { cond, to, lp, slot } => {
                    let trip = &mut trips[slot as usize];
                    *trip += 1;
                    if self.ctrl_rf[cond as usize] != 0 {
                        takes += 1;
                        if takes > max_takes {
                            break None;
                        }
                        i = to as usize;
                    } else {
                        if !holds!(path[done] == (lp, std::mem::take(trip))) {
                            break None;
                        }
                        done += 1;
                    }
                }
            }
        };
        if found.is_none() {
            trips.fill(0);
            for &(r, v) in undo.iter().rev() {
                self.set_reg(r, v);
            }
            (self.open_row, self.unknown_accesses) = (open_row, unknown);
        }
        found
    }

    /// The value of register `r` (`None`: an AddrRF value no read can
    /// recover).
    fn reg(&self, r: Reg) -> Option<i32> {
        if r & ADDR != 0 {
            self.addr0[(r & !ADDR) as usize]
        } else {
            Some(self.ctrl_rf[r as usize])
        }
    }

    fn set_reg(&mut self, r: Reg, v: Option<i32>) {
        if r & ADDR != 0 {
            self.addr0[(r & !ADDR) as usize] = v;
        } else {
            self.ctrl_rf[r as usize] = v.expect("the CtrlRF is exact");
        }
    }

    /// Applies replayed iterations of `l` to the timing state and the
    /// counters: `counts[i]` of steady iteration `i`, ending with the issue
    /// cursor at `cursor`, the memory controller's at `mc_free` and
    /// `write_backlog` posted writes. `exit_dt` is the last iteration's
    /// length when it was the loop's exit.
    fn advance(
        &mut self,
        l: &Loop,
        counts: &[u64],
        cursor: u64,
        mc_free: u64,
        write_backlog: u64,
        exit_dt: Option<u64>,
    ) {
        // Every steady iteration starts and ends in one normalised state,
        // so each horizon above the cursor moves with it; one at or below
        // the cursor stays at or below it, so shifting every one is exact.
        let d = cursor - self.cursor;
        self.cursor = cursor;
        self.tsv_free_at += d;
        self.last_completion += d;
        // The exit's back edge is not taken and sets no bubble: the one
        // before it, at or below the cursor, stays.
        self.branch_bubble_until += d - exit_dt.unwrap_or(0);
        for &r in &l.regs {
            self.write_done[r as usize] += d;
            self.read_done[r as usize] += d;
        }
        for t in &mut self.inflight {
            *t += d;
        }
        self.mc_free = mc_free;
        self.write_backlog = write_backlog;
        for (s, &n) in l.steady.iter().zip(counts) {
            if n == 0 {
                continue;
            }
            for (c, dc) in self.counters().into_iter().zip(&s.dcount) {
                *c += n * dc;
            }
            for (issues, di) in self.issues[l.top..=l.edge].iter_mut().zip(&s.dissues) {
                *issues += n * di;
            }
            self.jumped += n * s.dcount[0];
        }
        self.pc = if exit_dt.is_some() { l.edge + 1 } else { l.top };
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

/// How much of its dynamic instruction stream a prediction stepped
/// through and how much it fast-forwarded over. Both depend only on the
/// program, the configuration and the budget.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalkCounts {
    /// Dynamic instructions walked one at a time.
    pub walked: u64,
    /// Dynamic instructions jumped over in steady loop iterations.
    pub jumped: u64,
}

/// [`predict`], also returning the prediction's [`WalkCounts`] (on a
/// timeout, up to where the budget ran out).
///
/// # Errors
///
/// As [`predict`].
pub fn predict_counted(
    program: &Program,
    config: &MachineConfig,
    max_cycles: u64,
) -> (Result<ExecutionReport, SimTimeout>, WalkCounts) {
    walk(program, config, max_cycles, true)
}

/// The model behind [`predict`]; `fast_forward` off walks every dynamic
/// instruction (the reference the tests compare against).
fn walk(
    program: &Program,
    config: &MachineConfig,
    max_cycles: u64,
    fast_forward: bool,
) -> (Result<ExecutionReport, SimTimeout>, WalkCounts) {
    let lat = &config.latency;
    let insts = program.instructions();
    let costs = CostTable::decode(insts, config);
    let mut decoded = decode(insts, &costs, config);
    let mut loops = if fast_forward {
        find_loops(insts, &mut decoded, CostTable::space(config))
    } else {
        Vec::new()
    };
    let mut ff = Tracker::default();
    let mut w = Walk::new(config, insts.len());
    let n_vaults = config.total_vaults();
    let timeout = || SimTimeout { max_cycles, stuck_vaults: (0..n_vaults).collect() };
    let barrier_delay = config.barrier_delay();
    let counts = |w: &Walk| WalkCounts { walked: w.stats.issued - w.jumped, jumped: w.jumped };

    while w.pc < insts.len() {
        // Every issue occupies at least one cycle, so the dynamic count is
        // a lower bound on cycles: exceeding the budget here is the same
        // timeout a simulating engine would hit.
        if w.stats.issued >= max_cycles || w.cursor > max_cycles {
            return (Err(timeout()), counts(&w));
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
            Kind::Pe(Unit::Vsm { read: true, .. }) if w.req_ready > issue_t => {
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
                    Unit::Vsm { latency, .. } => {
                        // One TSV grant per masked PE per cycle; grants
                        // block broadcast issue while they drain.
                        w.tsv_free_at = w.tsv_free_at.max(issue_t + 1 + n);
                        issue_t + n + latency
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
            ff.back_edge(&mut w, &mut loops, &decoded, lp, taken, max_cycles);
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
        return (Err(timeout()), counts(&w));
    }
    w.stats.cycles = cycles;
    let counts = counts(&w);
    for (pc, dec) in decoded.iter().enumerate() {
        let times = w.issues[pc];
        if times > 0 {
            w.account(costs.cost(pc), dec.n, times);
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
        counts,
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
        AddrReg, ArfOp, CompMode, CompOp, CrfOp, CtrlReg, DataReg, DataType, ProgramBuilder,
        VecMask,
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

    /// A counted loop of a nest case. It counts down when `down`, and runs
    /// as many iterations as the outer loop's counter (at least one) when
    /// `by_outer`, so each outer iteration takes its own path.
    #[derive(Clone, Debug)]
    struct NestLoop {
        trip: i32,
        by_outer: bool,
        down: bool,
        body: Vec<Op>,
    }

    /// A loop nest of the shape the compiler emits for a row loop: an outer
    /// loop whose body is a straight-line burst of loads at offsets that
    /// cross DRAM rows, inner loops, and a middle loop holding more inner
    /// loops (a second nesting level).
    #[derive(Clone, Debug)]
    struct Nest {
        outer: i32,
        /// Load offsets from a8, which moves by `stride` each outer
        /// iteration; `scale` multiplies a12 by a constant there.
        burst: Vec<i32>,
        stride: i32,
        scale: Option<i32>,
        loops: Vec<NestLoop>,
        middle: Option<(i32, Vec<NestLoop>)>,
        refresh: bool,
        inst_queue: usize,
        mask: u64,
        /// Budgets inside the run, in permille of its cycles.
        budgets: [u64; 3],
    }

    fn gen_nest() -> Gen<Nest> {
        let nest_loop = |rng: &mut Rng| NestLoop {
            trip: rng.range_i32(1, 13),
            by_outer: rng.range_u32(0, 4) == 0,
            down: rng.next_bool(),
            // Reads, address steps, or both.
            body: (0..rng.range_usize(1, 6))
                .map(|_| match rng.range_u32(0, 3) {
                    0 => Op::Step { reg: 8, stride: *rng.choose(&[16, 272, 2064]) },
                    _ => gen_op(rng),
                })
                .collect(),
        };
        Gen::from_fn(move |rng| Nest {
            outer: rng.range_i32(1, 41),
            burst: (0..rng.range_usize(0, 13)).map(|_| 16 * rng.range_i32(0, 200)).collect(),
            stride: *rng.choose(&[16, 64, 272, 2048, 4112, -16]),
            scale: rng.next_bool().then(|| *rng.choose(&[0, 1, 2, 3])),
            loops: (0..rng.range_usize(0, 3)).map(|_| nest_loop(rng)).collect(),
            middle: rng.next_bool().then(|| {
                (rng.range_i32(1, 4), (0..rng.range_usize(1, 3)).map(|_| nest_loop(rng)).collect())
            }),
            refresh: rng.next_bool(),
            inst_queue: rng.range_usize(4, 65),
            mask: if rng.next_bool() { 0 } else { rng.next_u64() & 0xFFFF_FFFF },
            budgets: [rng.range_u64(1000), rng.range_u64(1000), rng.range_u64(1000)],
        })
        .with_shrink(|c: &Nest| {
            let mut out = Vec::new();
            let mut push = |f: &dyn Fn(&mut Nest)| {
                let mut s = c.clone();
                f(&mut s);
                out.push(s);
            };
            if c.outer > 1 {
                push(&|s| s.outer = (s.outer + 1) / 2);
            }
            if c.middle.is_some() {
                push(&|s| s.middle = None);
            }
            if !c.loops.is_empty() {
                push(&|s| drop(s.loops.pop()));
            }
            if !c.burst.is_empty() {
                push(&|s| {
                    s.burst.pop();
                });
            }
            for l in 0..c.loops.len() {
                if c.loops[l].trip > 1 {
                    push(&|s| s.loops[l].trip = (s.loops[l].trip + 1) / 2);
                }
                if c.loops[l].body.len() > 1 {
                    push(&|s| {
                        s.loops[l].body.pop();
                    });
                }
            }
            out
        })
    }

    fn build_nest(c: &Nest) -> Program {
        let mask = if c.mask == 0 { SimbMask::all(32) } else { SimbMask::from_bits(32, c.mask) };
        let mut b = ProgramBuilder::new();
        let (ctr, cond) = (CtrlReg::new, CtrlReg::new(9));
        let ctrl = |b: &mut ProgramBuilder, op, dst, src1, src2| {
            b.push(Instruction::CalcCrf { op, dst, src1, src2 });
        };
        let arf = |b: &mut ProgramBuilder, op, r: u8, imm| {
            let (r, src2) = (AddrReg::new(r), ArfSrc::Imm(imm));
            b.push(Instruction::CalcArf { op, dst: r, src1: r, src2, simb_mask: mask });
        };
        for (r, base) in [(8u8, 4096), (9, 1 << 20), (12, 0)] {
            arf(&mut b, ArfOp::Mul, r, 0);
            arf(&mut b, ArfOp::Add, r, base);
        }
        let emit_loop = |b: &mut ProgramBuilder, l: &NestLoop, c: CtrlReg| {
            let trip = if l.by_outer { CrfSrc::Reg(ctr(0)) } else { CrfSrc::Imm(l.trip) };
            if l.down && l.by_outer {
                // Counts the outer counter (at least one) down to zero.
                ctrl(b, CrfOp::Max, c, ctr(0), CrfSrc::Imm(1));
            } else if l.down {
                b.push(Instruction::SetiCrf { dst: c, imm: l.trip });
            } else {
                b.push(Instruction::SetiCrf { dst: c, imm: 0 });
            }
            let top = b.new_label();
            b.bind(top).unwrap();
            for &op in &l.body {
                emit(b, op, mask);
            }
            if l.down {
                ctrl(b, CrfOp::Sub, c, c, CrfSrc::Imm(1));
                ctrl(b, CrfOp::Ge, cond, c, CrfSrc::Imm(1));
            } else {
                ctrl(b, CrfOp::Add, c, c, CrfSrc::Imm(1));
                ctrl(b, CrfOp::Lt, cond, c, trip);
            }
            b.push_cjump_to(cond, top);
        };
        b.push(Instruction::SetiCrf { dst: ctr(0), imm: 0 });
        let outer = b.new_label();
        b.bind(outer).unwrap();
        for &off in &c.burst {
            emit(&mut b, Op::Offset { off }, mask);
            emit(&mut b, Op::Load { d: 1, temp: true }, mask);
        }
        for (i, l) in c.loops.iter().enumerate() {
            emit_loop(&mut b, l, ctr(1 + i as u8));
        }
        if let Some((trip, loops)) = &c.middle {
            b.push(Instruction::SetiCrf { dst: ctr(4), imm: 0 });
            let middle = b.new_label();
            b.bind(middle).unwrap();
            for (i, l) in loops.iter().enumerate() {
                emit_loop(&mut b, l, ctr(5 + i as u8));
            }
            ctrl(&mut b, CrfOp::Add, ctr(4), ctr(4), CrfSrc::Imm(1));
            ctrl(&mut b, CrfOp::Lt, cond, ctr(4), CrfSrc::Imm(*trip));
            b.push_cjump_to(cond, middle);
        }
        arf(&mut b, ArfOp::Add, 8, c.stride);
        if let Some(k) = c.scale {
            arf(&mut b, ArfOp::Mul, 12, k);
        }
        ctrl(&mut b, CrfOp::Add, ctr(0), ctr(0), CrfSrc::Imm(1));
        ctrl(&mut b, CrfOp::Lt, cond, ctr(0), CrfSrc::Imm(c.outer));
        b.push_cjump_to(cond, outer);
        b.seal().unwrap()
    }

    #[test]
    fn nested_fast_forward_matches_the_plain_walk() {
        // Whole row-shaped loop nests jumped at every level: every report
        // field, and every timeout, including budgets that run out inside
        // a nested jump.
        check("analytic_nested_fast_forward_matches_the_plain_walk", &gen_nest(), |c| {
            let program = build_nest(c);
            let config = MachineConfig {
                refresh: c.refresh,
                inst_queue: c.inst_queue,
                ..MachineConfig::vault_slice(1)
            };
            let plain = walk(&program, &config, 1 << 40, false).0;
            let cycles = plain.as_ref().expect("generated loops terminate").cycles;
            let inside = c.budgets.map(|p| cycles * p / 1000);
            for budget in [1 << 40, cycles, cycles - 1].into_iter().chain(inside) {
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
        let (fast, counts) = walk(&compiled.program, &config, 4_000_000_000, true);
        let (plain, none) = walk(&compiled.program, &config, 4_000_000_000, false);
        assert_eq!(none.jumped, 0);
        let skipped = counts.jumped;
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
        // heaviest space jumps whole rows (a staging burst around a column
        // loop), keeping one steady row per class sequence. It walks
        // 197,843 of 1,169,288 instructions; column loops alone left
        // 379,400 to walk.
        let (skipped, issued) = jumped("StencilChain", 32);
        assert!(issued - skipped <= 200_000, "fast-forwarded {skipped} of {issued} instructions");
    }

    #[test]
    fn blur_128_jumps_its_tile_rows() {
        // Blur's column loop runs once per tile row, so only jumping the
        // row loop around it saves anything: 8,853 of 10,448 instructions.
        let (skipped, issued) = jumped("Blur", 128);
        assert!(skipped * 100 >= issued * 80, "fast-forwarded {skipped} of {issued} instructions");
    }

    #[test]
    fn row_softmax_128_rederives_a_blocked_steady_state() {
        // RowSoftmax's loops meet kept steady iterations whose row classes
        // differ from the next iteration's, so they jump nothing; the
        // walked iteration must then become the steady one for its own
        // class sequence (32,218 of 54,408 instructions jumped).
        let (skipped, issued) = jumped("RowSoftmax", 128);
        assert!(skipped * 100 > issued * 55, "fast-forwarded {skipped} of {issued} instructions");
    }
}
