//! Register allocation (paper Sec. V-C, "Register Allocation").
//!
//! Codegen emits *virtual* data registers: indices `>= pinned` within each
//! straight-line region, in SSA-like ascending order. This pass maps them to
//! the physical DataRF under one of two policies:
//!
//! * [`RegAllocPolicy::Min`] — reuse the lowest-numbered free register, the
//!   textbook minimize-register-count allocation. On iPIM's in-order core
//!   this creates WAR/WAW dependences against long-latency in-flight
//!   instructions and stalls issue (the paper's `baseline2`).
//! * [`RegAllocPolicy::Max`] — scatter allocations round-robin over the
//!   whole file so a freed register is reused as late as possible,
//!   eliminating output- and anti-dependences (the paper's `opt`, 2.59×
//!   faster).
//!
//! When a region needs more registers than the file provides, the longest
//! live ranges are *demoted* to DRAM spill slots (`st rf`/`ld rf` to
//! reserved bank addresses), which is how the paper's RF-size sensitivity
//! (Fig. 10(a)) loses performance at 16–32 registers.

use std::collections::{BTreeSet, VecDeque};
use std::ops::Range;

use ipim_isa::{AddrOperand, DataReg, Instruction, RegRef};

use crate::kb::{straight_regions, Item, MemTag};

/// Allocation policy (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RegAllocPolicy {
    /// Minimize register count (maximal immediate reuse).
    Min,
    /// Maximize reuse distance (the paper's optimization).
    #[default]
    Max,
}

/// Error produced by register allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegAllocError {
    /// A virtual register is used before being defined in its region.
    UseBeforeDef {
        /// The virtual register index.
        vreg: u8,
    },
    /// Even after spilling, the region cannot fit the register file.
    TooFewRegisters {
        /// Registers available for temporaries.
        available: usize,
    },
}

impl std::fmt::Display for RegAllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegAllocError::UseBeforeDef { vreg } => {
                write!(f, "virtual register v{vreg} used before definition")
            }
            RegAllocError::TooFewRegisters { available } => {
                write!(f, "register file too small: only {available} temporaries available")
            }
        }
    }
}

impl std::error::Error for RegAllocError {}

/// Runs register allocation over every straight region of `items`.
///
/// `pinned` low registers are identity-mapped (long-lived constants and
/// accumulators managed by codegen); `rf_size` is the DataRF entry count;
/// `spill_base` is the bank byte address where spill slots may be placed
/// (16 bytes each).
///
/// Returns the number of spill slots used.
///
/// # Errors
///
/// Returns [`RegAllocError`] on malformed virtual code or an impossibly
/// small register file.
pub fn allocate(
    items: &mut Vec<Item>,
    pinned: u8,
    rf_size: usize,
    spill_base: u32,
    policy: RegAllocPolicy,
) -> Result<u32, RegAllocError> {
    let mut spill_slots = 0u32;
    // Regions are found once. Spill code inserted into one region moves
    // every later region down by the same number of items.
    let mut shift = 0;
    for range in straight_regions(items) {
        let range = range.start + shift..range.end + shift;
        shift +=
            allocate_region(items, range, pinned, rf_size, spill_base, &mut spill_slots, policy)?;
    }
    Ok(spill_slots)
}

/// Marks an unset entry of the per-vreg index tables.
const NONE: usize = usize::MAX;

/// The virtual data registers (index >= pinned) of one instruction: the
/// ones it reads, in [`Instruction::for_each_read`] order with repeats, and
/// the one it writes.
struct VRegs {
    reads: [u8; 3],
    n_reads: usize,
    write: Option<u8>,
}

impl VRegs {
    fn of(inst: &Instruction, pinned: u8) -> Self {
        let virt = |r: RegRef| match r {
            RegRef::Data(d) if d.index() >= pinned as usize => Some(d.index() as u8),
            _ => None,
        };
        let mut out = VRegs { reads: [0; 3], n_reads: 0, write: inst.written().and_then(virt) };
        inst.for_each_read(|r| {
            if let Some(v) = virt(r) {
                out.reads[out.n_reads] = v;
                out.n_reads += 1;
            }
        });
        out
    }

    fn reads(&self) -> &[u8] {
        &self.reads[..self.n_reads]
    }

    /// Every read, then the write.
    fn all(&self) -> impl Iterator<Item = u8> + '_ {
        self.reads().iter().copied().chain(self.write)
    }
}

/// Rewrites the virtual data-register fields of an instruction.
fn map_regs(inst: &mut Instruction, pinned: u8, map: &[Option<u8>; 256]) {
    let f = |r: &mut DataReg| {
        if r.index() >= pinned as usize {
            let v = r.index() as u8;
            let p = map[v as usize].unwrap_or(v);
            *r = DataReg::new(p);
        }
    };
    match inst {
        Instruction::Comp { dst, src1, src2, .. } => {
            f(dst);
            f(src1);
            f(src2);
        }
        Instruction::StRf { drf, .. }
        | Instruction::LdRf { drf, .. }
        | Instruction::RdPgsm { drf, .. }
        | Instruction::WrPgsm { drf, .. }
        | Instruction::RdVsm { drf, .. }
        | Instruction::WrVsm { drf, .. }
        | Instruction::Mov { drf, .. }
        | Instruction::Reset { drf, .. }
        | Instruction::SetiDrf { drf, .. } => f(drf),
        _ => {}
    }
}

/// Allocates one region in place; returns how many spill items it
/// inserted.
#[allow(clippy::too_many_arguments)]
fn allocate_region(
    items: &mut Vec<Item>,
    mut range: Range<usize>,
    pinned: u8,
    rf_size: usize,
    spill_base: u32,
    spill_slots: &mut u32,
    policy: RegAllocPolicy,
) -> Result<usize, RegAllocError> {
    let available = rf_size.saturating_sub(pinned as usize);
    if available == 0 {
        return Err(RegAllocError::TooFewRegisters { available });
    }

    // 1. Liveness (last use per vreg), and the spill pre-pass: demote one
    // long live range at a time, growing the region by the spill code,
    // until max pressure fits.
    let original_len = range.len();
    let last_use = loop {
        let last_use = last_uses(items, range.clone(), pinned);
        if max_pressure(items, range.clone(), pinned, &last_use)? <= available {
            break last_use;
        }
        range.end += demote_one(items, range.clone(), pinned, spill_base, spill_slots)
            .ok_or(RegAllocError::TooFewRegisters { available })?;
    };

    // 2. Linear scan.
    let mut free_min: BTreeSet<u8> = (pinned..rf_size as u8).collect();
    let mut free_max: VecDeque<u8> = (pinned..rf_size as u8).collect();
    let mut map = [None::<u8>; 256];
    for i in range.clone() {
        let Item::Inst(inst, _) = &mut items[i] else { continue };
        let vr = VRegs::of(inst, pinned);
        if let Some(&v) = vr.reads().iter().find(|&&v| map[v as usize].is_none()) {
            return Err(RegAllocError::UseBeforeDef { vreg: v });
        }
        // Release registers of reads dying at this instruction *before*
        // allocating the destination: under the Min policy the destination
        // then reuses a just-dead source (maximal reuse); under Max the
        // freed register goes to the back of the rotation.
        for (k, &v) in vr.reads().iter().enumerate() {
            if last_use[v as usize] == i && vr.write != Some(v) && !vr.reads()[..k].contains(&v) {
                if let Some(p) = map[v as usize] {
                    free_min.insert(p);
                    free_max.push_back(p);
                }
            }
        }
        if let Some(v) = vr.write {
            if map[v as usize].is_none() {
                let phys = match policy {
                    RegAllocPolicy::Min => {
                        let p = *free_min.iter().next().expect("pressure checked");
                        free_min.remove(&p);
                        p
                    }
                    RegAllocPolicy::Max => free_max.pop_front().expect("pressure checked"),
                };
                // Keep both structures consistent.
                match policy {
                    RegAllocPolicy::Min => {
                        free_max.retain(|&r| r != phys);
                    }
                    RegAllocPolicy::Max => {
                        free_min.remove(&phys);
                    }
                }
                map[v as usize] = Some(phys);
            }
        }
        map_regs(inst, pinned, &map);
        // Release the written register if its last use is here (dead
        // stores and read+write operands, which the reads above skip).
        if let Some(v) = vr.write {
            if last_use[v as usize] == i {
                if let Some(p) = map[v as usize] {
                    free_min.insert(p);
                    free_max.push_back(p);
                }
            }
        }
    }
    Ok(range.len() - original_len)
}

/// The index of each vreg's last read or write in the region.
fn last_uses(items: &[Item], range: Range<usize>, pinned: u8) -> [usize; 256] {
    let mut last_use = [NONE; 256];
    for i in range {
        if let Item::Inst(inst, _) = &items[i] {
            for v in VRegs::of(inst, pinned).all() {
                last_use[v as usize] = i;
            }
        }
    }
    last_use
}

/// Maximum simultaneous live virtual registers in the region, given each
/// vreg's [`last_uses`] index.
fn max_pressure(
    items: &[Item],
    range: Range<usize>,
    pinned: u8,
    last_use: &[usize; 256],
) -> Result<usize, RegAllocError> {
    let mut live = 0usize;
    let mut max = 0usize;
    let mut defined = [false; 256];
    for i in range {
        if let Item::Inst(inst, _) = &items[i] {
            let vr = VRegs::of(inst, pinned);
            if let Some(&v) = vr.reads().iter().find(|&&v| !defined[v as usize]) {
                return Err(RegAllocError::UseBeforeDef { vreg: v });
            }
            if let Some(v) = vr.write {
                if !defined[v as usize] {
                    defined[v as usize] = true;
                    live += 1;
                    max = max.max(live);
                }
            }
            for v in vr.all() {
                if last_use[v as usize] == i && defined[v as usize] {
                    defined[v as usize] = false;
                    live -= 1;
                }
            }
        }
    }
    Ok(max)
}

/// Rewrites *read* occurrences of virtual data register `from` to `to`.
fn rename_reads(inst: &mut Instruction, from: u8, to: u8) {
    let f = |r: &mut DataReg| {
        if r.index() == from as usize {
            *r = DataReg::new(to);
        }
    };
    match inst {
        Instruction::Comp { op, dst, src1, src2, .. } => {
            f(src1);
            f(src2);
            if op.reads_dst() {
                f(dst);
            }
        }
        Instruction::StRf { drf, .. }
        | Instruction::WrPgsm { drf, .. }
        | Instruction::WrVsm { drf, .. } => f(drf),
        Instruction::Mov { to_arf: true, drf, .. } => f(drf),
        _ => {}
    }
}

/// Demotes the single-def virtual register with the longest live range to a
/// spill slot; returns how many items it inserted, or `None` when nothing
/// can be demoted. Equal ranges go to the highest virtual id.
///
/// Each use site reloads into a *fresh* virtual id, so the victim's long
/// live range is replaced by short def→store and reload→use segments.
fn demote_one(
    items: &mut Vec<Item>,
    range: Range<usize>,
    pinned: u8,
    spill_base: u32,
    spill_slots: &mut u32,
) -> Option<usize> {
    let mut def = [NONE; 256];
    let mut multi_def = [false; 256];
    let mut last = [NONE; 256];
    let mut max_vreg = pinned;
    for i in range.clone() {
        if let Item::Inst(inst, _) = &items[i] {
            let vr = VRegs::of(inst, pinned);
            if let Some(v) = vr.write {
                max_vreg = max_vreg.max(v);
                multi_def[v as usize] |= def[v as usize] != NONE;
                def[v as usize] = i;
            }
            for &v in vr.reads() {
                max_vreg = max_vreg.max(v);
                last[v as usize] = i;
            }
        }
    }
    // Longest single-def range with a use beyond def+1 (otherwise demotion
    // gains nothing). Multi-def vregs (MAC accumulators) stay in registers.
    let victim = (0..256)
        .filter(|&v| def[v] != NONE && !multi_def[v] && last[v] != NONE && last[v] > def[v] + 1)
        .max_by_key(|&v| last[v] - def[v])?;
    let d = def[victim];
    let victim = victim as u8;
    // One use site per read occurrence, in program order.
    let mut use_sites: Vec<usize> = Vec::new();
    for i in range {
        if let Item::Inst(inst, _) = &items[i] {
            let vr = VRegs::of(inst, pinned);
            use_sites.extend(vr.reads().iter().filter(|&&v| v == victim).map(|_| i));
        }
    }
    if max_vreg as usize + use_sites.len() >= 255 {
        return None; // virtual id space exhausted
    }
    let slot = *spill_slots;
    *spill_slots += 1;
    let addr = spill_base + slot * 16;
    // Mask for the spill traffic: copy the def instruction's mask.
    let mask = match &items[d] {
        Item::Inst(inst, _) => inst.simb_mask().expect("virtual defs are SIMB ops"),
        _ => unreachable!(),
    };

    // Rename each use to a fresh vreg and plan a reload before it. Process
    // insertions back-to-front so indices stay valid.
    let mut insertions: Vec<(usize, Item)> = Vec::new();
    for (fresh, &u) in (max_vreg + 1..).zip(use_sites.iter().rev()) {
        if let Item::Inst(inst, _) = &mut items[u] {
            rename_reads(inst, victim, fresh);
        }
        insertions.push((
            u,
            Item::Inst(
                Instruction::LdRf {
                    dram_addr: AddrOperand::Imm(addr),
                    drf: DataReg::new(fresh),
                    simb_mask: mask,
                },
                Some(MemTag::DramSpill(slot)),
            ),
        ));
    }
    insertions.push((
        d + 1,
        Item::Inst(
            Instruction::StRf {
                dram_addr: AddrOperand::Imm(addr),
                drf: DataReg::new(victim),
                simb_mask: mask,
            },
            Some(MemTag::DramSpill(slot)),
        ),
    ));
    insertions.sort_by_key(|(i, _)| std::cmp::Reverse(*i));
    let inserted = insertions.len();
    for (i, item) in insertions {
        items.insert(i, item);
    }
    Some(inserted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::KernelBuilder;
    use ipim_isa::{CompMode, CompOp, DataType, SimbMask, VecMask};

    const PINNED: u8 = 4;

    fn comp(dst: u8, a: u8, b: u8) -> Instruction {
        Instruction::Comp {
            op: CompOp::Add,
            dtype: DataType::F32,
            mode: CompMode::VectorVector,
            dst: DataReg::new(dst),
            src1: DataReg::new(a),
            src2: DataReg::new(b),
            vec_mask: VecMask::ALL,
            simb_mask: SimbMask::all(32),
        }
    }

    fn seti(dst: u8) -> Instruction {
        Instruction::SetiDrf {
            drf: DataReg::new(dst),
            imm: 0,
            vec_mask: VecMask::ALL,
            simb_mask: SimbMask::all(32),
        }
    }

    fn region(insts: Vec<Instruction>) -> Vec<Item> {
        let mut kb = KernelBuilder::new();
        kb.begin_straight();
        for i in insts {
            kb.push(i);
        }
        kb.end_straight();
        kb.finish()
    }

    fn insts(items: &[Item]) -> Vec<Instruction> {
        items
            .iter()
            .filter_map(|i| match i {
                Item::Inst(inst, _) => Some(*inst),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn min_policy_reuses_lowest_register() {
        // v4 = ..., v5 = ..., v6 = v4 + v5 ; v4,v5 die, v6 is the result.
        let mut items = region(vec![seti(4), seti(5), comp(6, 4, 5)]);
        allocate(&mut items, PINNED, 64, 0x1000, RegAllocPolicy::Min).unwrap();
        let out = insts(&items);
        // v4 -> p4, v5 -> p5, v6 -> p4 (reused immediately after v4 dies).
        match out[2] {
            Instruction::Comp { dst, .. } => assert_eq!(dst.index(), 4),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn max_policy_scatters_registers() {
        let mut items = region(vec![seti(4), seti(5), comp(6, 4, 5)]);
        allocate(&mut items, PINNED, 64, 0x1000, RegAllocPolicy::Max).unwrap();
        let out = insts(&items);
        match out[2] {
            Instruction::Comp { dst, .. } => {
                assert_eq!(dst.index(), 6, "round-robin should not reuse p4 yet")
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pinned_registers_untouched() {
        // Reads pinned p0 and p1.
        let mut items = region(vec![comp(4, 0, 1)]);
        allocate(&mut items, PINNED, 64, 0x1000, RegAllocPolicy::Max).unwrap();
        match insts(&items)[0] {
            Instruction::Comp { src1, src2, .. } => {
                assert_eq!(src1.index(), 0);
                assert_eq!(src2.index(), 1);
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn use_before_def_rejected() {
        let mut items = region(vec![comp(5, 4, 4)]);
        assert!(matches!(
            allocate(&mut items, PINNED, 64, 0x1000, RegAllocPolicy::Max),
            Err(RegAllocError::UseBeforeDef { vreg: 4 })
        ));
    }

    #[test]
    fn spills_when_pressure_exceeds_file() {
        // 8 temporaries alive at once in a 4+4 register file.
        let mut prog = Vec::new();
        for v in 4..12 {
            prog.push(seti(v));
        }
        // Use them all afterwards so they're simultaneously live.
        for v in 4..12 {
            prog.push(comp(12 + (v - 4), v, v));
        }
        let mut items = region(prog);
        let spills = allocate(&mut items, PINNED, 8, 0x1000, RegAllocPolicy::Max).unwrap();
        assert!(spills > 0, "must spill");
        let out = insts(&items);
        assert!(out.iter().any(|i| matches!(i, Instruction::StRf { .. })));
        assert!(out.iter().any(|i| matches!(i, Instruction::LdRf { .. })));
        // All register indices now fit the file.
        let fits = |r: RegRef| {
            if let RegRef::Data(d) = r {
                assert!(d.index() < 8, "register {d:?} exceeds file");
            }
        };
        for inst in &out {
            inst.for_each_read(fits);
            inst.written().into_iter().for_each(fits);
        }
    }

    #[test]
    fn impossible_pressure_errors() {
        // Two registers needed at once with zero temporaries available.
        let mut items = region(vec![seti(4), comp(5, 4, 4), comp(6, 4, 5)]);
        assert!(matches!(
            allocate(&mut items, 64, 64, 0x1000, RegAllocPolicy::Max),
            Err(RegAllocError::TooFewRegisters { .. })
        ));
    }

    /// One straight region that holds three temporaries across three
    /// stores: `v4`'s long range must be demoted on a 2-temporary file.
    fn spilling_region(kb: &mut KernelBuilder, out: u32) {
        let st = |kb: &mut KernelBuilder, addr: u32, v: u8| {
            kb.push_mem(
                Instruction::StRf {
                    dram_addr: AddrOperand::Imm(addr),
                    drf: DataReg::new(v),
                    simb_mask: SimbMask::all(32),
                },
                MemTag::DramBuffer(ipim_frontend::SourceId(0)),
            );
        };
        kb.begin_straight();
        kb.push(seti(4));
        kb.push(seti(5));
        kb.push(seti(6));
        st(kb, out, 5);
        st(kb, out + 16, 6);
        st(kb, out + 32, 4);
        kb.end_straight();
    }

    #[test]
    fn spill_code_shifts_later_regions() {
        // Region 1's spill code moves region 2 two items down; region 2
        // must still be allocated where it now sits, and its spill slot
        // numbered after region 1's.
        let mut kb = KernelBuilder::new();
        spilling_region(&mut kb, 0x100);
        kb.push(Instruction::Sync { phase_id: 0 });
        spilling_region(&mut kb, 0x200);
        let mut items = kb.finish();
        let spills = allocate(&mut items, PINNED, 6, 0x1000, RegAllocPolicy::Max).unwrap();
        let got: Vec<String> = items
            .iter()
            .map(|item| match item {
                Item::Inst(inst, Some(tag)) => format!("{inst} @{tag:?}"),
                Item::Inst(inst, None) => inst.to_string(),
                other => format!("{other:?}"),
            })
            .collect();
        let want = [
            "BeginStraight",
            "seti_drf d4, #0x0 (vec=all, simb=all)",
            "st_rf 0x1000, d4 (simb=all) @DramSpill(0)",
            "seti_drf d5, #0x0 (vec=all, simb=all)",
            "seti_drf d4, #0x0 (vec=all, simb=all)",
            "st_rf 0x100, d5 (simb=all) @DramBuffer(SourceId(0))",
            "st_rf 0x110, d4 (simb=all) @DramBuffer(SourceId(0))",
            "ld_rf 0x1000, d5 (simb=all) @DramSpill(0)",
            "st_rf 0x120, d5 (simb=all) @DramBuffer(SourceId(0))",
            "EndStraight",
            "sync 0",
            "BeginStraight",
            "seti_drf d4, #0x0 (vec=all, simb=all)",
            "st_rf 0x1010, d4 (simb=all) @DramSpill(1)",
            "seti_drf d5, #0x0 (vec=all, simb=all)",
            "seti_drf d4, #0x0 (vec=all, simb=all)",
            "st_rf 0x200, d5 (simb=all) @DramBuffer(SourceId(0))",
            "st_rf 0x210, d4 (simb=all) @DramBuffer(SourceId(0))",
            "ld_rf 0x1010, d5 (simb=all) @DramSpill(1)",
            "st_rf 0x220, d5 (simb=all) @DramBuffer(SourceId(0))",
            "EndStraight",
        ];
        assert_eq!(spills, 2);
        assert_eq!(got, want);
    }

    #[test]
    fn multiple_regions_allocated_independently() {
        let mut kb = KernelBuilder::new();
        kb.begin_straight();
        kb.push(seti(4));
        kb.push(comp(5, 4, 4));
        kb.end_straight();
        kb.push(Instruction::Sync { phase_id: 0 });
        kb.begin_straight();
        kb.push(seti(4));
        kb.push(comp(5, 4, 4));
        kb.end_straight();
        let mut items = kb.finish();
        allocate(&mut items, PINNED, 64, 0x1000, RegAllocPolicy::Min).unwrap();
        let out = insts(&items);
        // Both regions use the same low registers under Min.
        match (out[0], out[3]) {
            (Instruction::SetiDrf { drf: a, .. }, Instruction::SetiDrf { drf: b, .. }) => {
                assert_eq!(a, b);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
