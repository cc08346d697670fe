//! Lockstep process groups (DESIGN.md §5b): the skip-ahead engine ticks PG
//! 0's memory controller alone while every PG asks for the same addresses,
//! and derives the other PGs' controllers from it. The legacy engine ticks
//! all of them, so random SIMB programs run on both must agree on the
//! report, the bank contents, the metrics and the trace.
//!
//! The programs mix broadcast loads and stores (`ld_rf`, `st_rf`,
//! `ld_pgsm`, `st_pgsm`) at shared addresses, a load and a store to one
//! address in both orders, per-PE and per-PG addresses, gathers through
//! the AddrRF from per-PE data, and masks that cover only some PGs, with
//! refresh on (at several intervals) or off, near-bank or on the base die.
//! CI reruns it with `IPIM_PROP_CASES=2000`.

use std::cell::RefCell;
use std::rc::Rc;

use ipim_arch::{Engine, Machine, MachineConfig, Placement};
use ipim_isa::{
    AddrOperand, AddrReg, ArfOp, ArfSrc, CompMode, CompOp, DataReg, DataType, Instruction, Program,
    ProgramBuilder, SimbMask, VecMask, ARF_PE_ID, ARF_PG_ID,
};
use ipim_simkit::{check, Gen, Rng};
use ipim_trace::{Record, RingSink, TraceEvent};

const PGS: usize = 8;
const PES_PER_PG: usize = 4;
const PES: usize = PGS * PES_PER_PG;
/// Rows 0..3 of each bank, eight lines of each: few enough addresses that
/// same-address reads and writes meet often, across enough rows for hits,
/// misses and conflicts.
const ROWS: u32 = 3;
const LINES: u32 = 8;
const ROW_BYTES: u32 = 2048;
/// Per-PE line (`ARF_PE_ID * 16`), congruent across PGs.
const A_PE: AddrReg = AddrReg::new(8);
/// Per-PG line (`ARF_PG_ID * 16`), different in every PG.
const A_PG: AddrReg = AddrReg::new(9);
/// Gathered line, from per-PE data.
const A_GATHER: AddrReg = AddrReg::new(10);

/// Which PEs an instruction masks.
#[derive(Debug, Clone, Copy)]
enum Mask {
    All,
    /// The same PEs (bits of one PG) in every PG.
    SamePerPg(u8),
    /// The same PEs in the PGs whose bit is set.
    SomePgs(u8, u8),
    /// Any PEs.
    Any(u32),
}

/// Where a memory instruction points.
#[derive(Debug, Clone, Copy)]
enum Addr {
    /// One immediate address for every PE.
    Shared { row: u32, line: u32 },
    /// `row + 16 * PE-in-PG`: per PE, the same in every PG.
    PerPe { row: u32 },
    /// `row + 16 * PG`: per PG.
    PerPg { row: u32 },
    /// `row + 16 * (data & 7)`, data moved from the DataRF: a gather.
    Gathered { row: u32 },
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Ld {
        addr: Addr,
        drf: u8,
        mask: Mask,
    },
    St {
        addr: Addr,
        drf: u8,
        mask: Mask,
    },
    LdPgsm {
        addr: Addr,
        slot: u8,
        mask: Mask,
    },
    StPgsm {
        addr: Addr,
        slot: u8,
        mask: Mask,
    },
    /// A load and a store to one address, in either order.
    LoadStore {
        addr: Addr,
        drf: u8,
        store_first: bool,
        mask: Mask,
    },
    /// Moves lane `lane` of `drf` into the gather register.
    Gather {
        drf: u8,
        lane: u8,
        mask: Mask,
    },
    /// Adds an immediate into `drf` on the masked PEs (keeps data moving).
    Mix {
        drf: u8,
        imm: u32,
        mask: Mask,
    },
    /// A chain of dependent adds: time for the controllers to drain.
    Wait(u8),
}

#[derive(Debug, Clone)]
struct Case {
    base_die: bool,
    /// `None`: refresh off; else the refresh interval tREFI.
    refresh: Option<u64>,
    traced: bool,
    ops: Vec<Op>,
}

fn mask_bits(mask: Mask) -> u64 {
    let spread = |pe_bits: u8, pgs: u8| {
        (0..PGS)
            .filter(|p| pgs >> p & 1 == 1)
            .map(|p| u64::from(pe_bits & 0xF) << (p * PES_PER_PG))
            .sum()
    };
    match mask {
        Mask::All => (1 << PES) - 1,
        Mask::SamePerPg(b) => spread(b, 0xFF),
        Mask::SomePgs(b, pgs) => spread(b, pgs),
        Mask::Any(bits) => u64::from(bits),
    }
}

fn arb_mask(rng: &mut Rng) -> Mask {
    match rng.range_u64(6) {
        0 | 1 => Mask::All,
        2 => Mask::SamePerPg(rng.next_u32() as u8),
        3 | 4 => Mask::SomePgs(rng.next_u32() as u8, rng.next_u32() as u8),
        _ => Mask::Any(rng.next_u32()),
    }
}

fn arb_addr(rng: &mut Rng) -> Addr {
    let row = rng.range_u32(0, ROWS);
    match rng.range_u64(8) {
        0..=3 => Addr::Shared { row, line: rng.range_u32(0, LINES) },
        4 => Addr::PerPe { row },
        5 => Addr::PerPg { row },
        _ => Addr::Gathered { row },
    }
}

fn arb_op(rng: &mut Rng) -> Op {
    let drf = rng.range_u32(0, 4) as u8;
    let slot = rng.range_u32(0, 4) as u8;
    let (addr, mask) = (arb_addr(rng), arb_mask(rng));
    match rng.range_u64(16) {
        0..=2 => Op::Ld { addr, drf, mask },
        3..=5 => Op::St { addr, drf, mask },
        6 => Op::LdPgsm { addr, slot, mask },
        7 => Op::StPgsm { addr, slot, mask },
        8..=9 => Op::LoadStore { addr, drf, store_first: rng.next_bool(), mask },
        10..=11 => Op::Gather { drf, lane: rng.range_u32(0, 4) as u8, mask },
        12..=13 => Op::Mix { drf, imm: rng.next_u32(), mask },
        _ => Op::Wait(rng.range_u32(1, 40) as u8),
    }
}

fn arb_case() -> Gen<Case> {
    Gen::from_fn(|rng| Case {
        base_die: rng.range_u64(4) == 0,
        refresh: match rng.range_u64(4) {
            0 => None,
            1 => Some(500),
            2 => Some(1200),
            _ => Some(3900),
        },
        traced: rng.next_bool(),
        ops: (0..rng.range_usize(1, 48)).map(|_| arb_op(rng)).collect(),
    })
    .with_shrink(|case| {
        let mut out = Vec::new();
        for i in 0..case.ops.len() {
            let mut smaller = case.clone();
            smaller.ops.remove(i);
            out.push(smaller);
        }
        if case.traced {
            out.push(Case { traced: false, ..case.clone() });
        }
        out
    })
}

fn program(case: &Case) -> Program {
    let all = SimbMask::all(PES);
    let mut b = ProgramBuilder::new();
    let arf = |op, dst, src1, src2| Instruction::CalcArf { op, dst, src1, src2, simb_mask: all };
    b.push(arf(ArfOp::Shl, A_PE, ARF_PE_ID, ArfSrc::Imm(4)));
    b.push(arf(ArfOp::Shl, A_PG, ARF_PG_ID, ArfSrc::Imm(4)));
    // DataRF 0..3 start per PE: lane 0 the PE-in-PG, lane 1 the PG.
    for drf in 0..4 {
        for (lane, id) in [(0, ARF_PE_ID), (1, ARF_PG_ID)] {
            let drf = DataReg::new(drf);
            b.push(Instruction::Mov { to_arf: false, arf: id, drf, lane, simb_mask: all });
        }
    }
    for &op in &case.ops {
        match op {
            Op::Ld { addr: a, drf, mask } | Op::St { addr: a, drf, mask } => {
                let m = SimbMask::from_bits(PES, mask_bits(mask));
                let dram_addr = addr(&mut b, a, m);
                let drf = DataReg::new(drf);
                b.push(match op {
                    Op::Ld { .. } => Instruction::LdRf { dram_addr, drf, simb_mask: m },
                    _ => Instruction::StRf { dram_addr, drf, simb_mask: m },
                });
            }
            Op::LdPgsm { addr: a, slot, mask } | Op::StPgsm { addr: a, slot, mask } => {
                let m = SimbMask::from_bits(PES, mask_bits(mask));
                let dram_addr = addr(&mut b, a, m);
                let pgsm_addr = AddrOperand::Imm(u32::from(slot) * 16);
                b.push(match op {
                    Op::LdPgsm { .. } => Instruction::LdPgsm { dram_addr, pgsm_addr, simb_mask: m },
                    _ => Instruction::StPgsm { dram_addr, pgsm_addr, simb_mask: m },
                });
            }
            Op::LoadStore { addr: a, drf, store_first, mask } => {
                let m = SimbMask::from_bits(PES, mask_bits(mask));
                let dram_addr = addr(&mut b, a, m);
                let (drf, other) = (DataReg::new(drf), DataReg::new((drf + 1) % 4));
                let ld = Instruction::LdRf { dram_addr, drf, simb_mask: m };
                let st = Instruction::StRf { dram_addr, drf: other, simb_mask: m };
                let (first, second) = if store_first { (st, ld) } else { (ld, st) };
                b.push(first);
                b.push(second);
            }
            Op::Gather { drf, lane, mask } => {
                let m = SimbMask::from_bits(PES, mask_bits(mask));
                let drf = DataReg::new(drf);
                b.push(Instruction::Mov { to_arf: true, arf: A_GATHER, drf, lane, simb_mask: m });
                b.push(arf_m(ArfOp::And, A_GATHER, ArfSrc::Imm(7), m));
                b.push(arf_m(ArfOp::Shl, A_GATHER, ArfSrc::Imm(4), m));
            }
            Op::Mix { drf, imm, mask } => {
                let m = SimbMask::from_bits(PES, mask_bits(mask));
                let drf = DataReg::new(drf);
                let tmp = DataReg::new(5);
                b.push(Instruction::SetiDrf {
                    drf: tmp,
                    imm,
                    vec_mask: VecMask::ALL,
                    simb_mask: m,
                });
                b.push(add(drf, drf, tmp, m));
            }
            Op::Wait(n) => {
                let acc = DataReg::new(6);
                for _ in 0..n {
                    b.push(add(acc, acc, acc, all));
                }
            }
        }
    }
    b.seal().expect("straight-line program")
}

/// The address operand of `a` for the PEs of `mask`, pushing the add that
/// puts a register address's row base into a scratch register.
fn addr(b: &mut ProgramBuilder, a: Addr, mask: SimbMask) -> AddrOperand {
    let (row, reg) = match a {
        Addr::Shared { row, line } => return AddrOperand::Imm(row * ROW_BYTES + line * 16),
        Addr::PerPe { row } => (row, A_PE),
        Addr::PerPg { row } => (row, A_PG),
        Addr::Gathered { row } => (row, A_GATHER),
    };
    let dst = AddrReg::new(11);
    let src2 = ArfSrc::Imm((row * ROW_BYTES) as i32);
    b.push(Instruction::CalcArf { op: ArfOp::Add, dst, src1: reg, src2, simb_mask: mask });
    AddrOperand::Indirect(dst)
}

fn arf_m(op: ArfOp, reg: AddrReg, src2: ArfSrc, simb_mask: SimbMask) -> Instruction {
    Instruction::CalcArf { op, dst: reg, src1: reg, src2, simb_mask }
}

fn add(dst: DataReg, src1: DataReg, src2: DataReg, simb_mask: SimbMask) -> Instruction {
    Instruction::Comp {
        op: CompOp::Add,
        dtype: DataType::I32,
        mode: CompMode::VectorVector,
        dst,
        src1,
        src2,
        vec_mask: VecMask::ALL,
        simb_mask,
    }
}

/// What one engine's run of `case` shows: the report's `Debug`, every
/// bank's lines the programs can touch, the metrics, and the trace.
struct Observed {
    report: String,
    banks: Vec<u8>,
    metrics: ipim_trace::MetricsRegistry,
    trace: Vec<Record>,
}

fn run(case: &Case, engine: Engine) -> Observed {
    let mut config = MachineConfig { engine, ..MachineConfig::vault_slice(1) };
    config.placement = if case.base_die { Placement::BaseDie } else { Placement::NearBank };
    config.refresh = case.refresh.is_some();
    config.timing.t_refi = case.refresh.unwrap_or(config.timing.t_refi);
    let mut m = Machine::new(config);
    // Per-PE bank contents, so gathers and loads see different data.
    for pg in 0..PGS {
        for pe in 0..PES_PER_PG {
            let bank = m.vault_mut(0, 0).bank_array_mut(pg, pe);
            for row in 0..ROWS {
                for word in 0..LINES * 4 {
                    let v = (pg * 131 + pe * 17) as u32 ^ (row * 1000 + word * 7);
                    bank.write_u32(row * ROW_BYTES + word * 4, v);
                }
            }
        }
    }
    let sink = Rc::new(RefCell::new(RingSink::new(1 << 20)));
    if case.traced {
        m.attach_trace(sink.clone());
    }
    m.load_program_all(&program(case));
    let report = m.run(1_000_000).unwrap_or_else(|e| panic!("{engine:?}: {e}"));
    let mut banks = Vec::new();
    for pg in 0..PGS {
        for pe in 0..PES_PER_PG {
            let bank = m.vault(0, 0).bank_array(pg, pe);
            for row in 0..ROWS {
                let mut line = [0u8; 16];
                for l in 0..LINES {
                    bank.read(row * ROW_BYTES + l * 16, &mut line);
                    banks.extend_from_slice(&line);
                }
            }
        }
    }
    assert_eq!(sink.borrow().dropped(), 0, "trace ring overflowed");
    let trace = sink
        .borrow()
        .records()
        .filter(|r| !matches!(r.event, TraceEvent::SkipWindow { .. }))
        .copied()
        .collect();
    Observed { report: format!("{report:?}"), banks, metrics: m.metrics(), trace }
}

#[test]
fn lockstep_matches_every_controller_ticked() {
    check("lockstep_matches_every_controller_ticked", &arb_case(), |case| {
        let legacy = run(case, Engine::Legacy);
        let skip = run(case, Engine::SkipAhead);
        assert_eq!(legacy.report, skip.report, "reports diverge");
        assert!(legacy.banks == skip.banks, "bank contents diverge");
        assert_eq!(legacy.metrics, skip.metrics, "metrics diverge");
        assert_eq!(legacy.trace.len(), skip.trace.len(), "trace lengths diverge");
        if let Some(i) = (0..legacy.trace.len()).find(|&i| legacy.trace[i] != skip.trace[i]) {
            panic!("traces diverge at record {i}: {:?} vs {:?}", legacy.trace[i], skip.trace[i]);
        }
    });
}
