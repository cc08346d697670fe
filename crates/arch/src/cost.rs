//! What each static instruction of a program costs, decoded once into one
//! table: the unit it occupies and its latency there, its Table I
//! category, the activity counters one issue adds, and its read and write
//! register sets. The cycle engines' issue stage and the analytic tier both
//! read the table, and Algorithm 1's `T(v)` weights come from the same
//! [`LatencyParams::unit_latency`], so each cost is stated once.

use ipim_dram::AccessKind;
use ipim_isa::{AddrOperand, Category, CompOp, Instruction, RegRef};
use ipim_trace::SpadKind;

use crate::stats::VaultStats;
use crate::{LatencyParams, MachineConfig};

/// Where an instruction's work executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecUnit {
    /// The control core alone: control flow, CtrlRF updates, `seti_vsm`,
    /// `req` and `sync`.
    Core,
    /// Each masked PE's SIMD unit.
    Simd,
    /// Each masked PE's integer ALU.
    Alu,
    /// The process-group scratchpad's port.
    PgsmPort,
    /// Each masked PE's VSM port, across the vault's TSVs.
    VsmPort,
    /// Each masked PE's bank.
    Mem(AccessKind),
}

impl LatencyParams {
    /// The unit `inst` occupies and its latency there, in cycles. For a
    /// DRAM access the latency is the path its data crosses besides the
    /// bank: the PE bus, and the PGSM for `ld_pgsm`/`st_pgsm`. A
    /// control-core instruction takes its one issue cycle.
    ///
    /// The one statement of Table III's unit latencies: the cycle engines
    /// and the analytic tier read it through each program's cost table,
    /// and the compiler weighs Algorithm 1's dependence edges with it.
    #[inline]
    pub fn unit_latency(&self, inst: &Instruction) -> (ExecUnit, u64) {
        use ExecUnit::*;
        use Instruction::*;
        match inst {
            Comp { op: CompOp::Add | CompOp::Sub, .. } => (Simd, self.add + self.rf),
            Comp { op: CompOp::Mul, .. } => (Simd, self.mul + self.rf),
            Comp { op: CompOp::Mac, .. } => (Simd, self.mac + self.rf),
            Comp { op: CompOp::Div, .. } => (Simd, self.div + self.rf),
            Comp { .. } => (Simd, self.logic + self.rf),
            CalcArf { .. } | Mov { .. } => (Alu, self.logic + self.rf),
            Reset { .. } | SetiDrf { .. } => (Simd, self.rf),
            LdRf { .. } => (Mem(AccessKind::Read), self.pe_bus),
            StRf { .. } => (Mem(AccessKind::Write), self.pe_bus),
            LdPgsm { .. } => (Mem(AccessKind::Read), self.pe_bus + self.pgsm),
            StPgsm { .. } => (Mem(AccessKind::Write), self.pe_bus + self.pgsm),
            RdPgsm { .. } | WrPgsm { .. } => (PgsmPort, self.pgsm + self.pe_bus),
            RdVsm { .. } | WrVsm { .. } => (VsmPort, self.tsv + self.vsm + self.pe_bus),
            Jump { .. } | CJump { .. } | CalcCrf { .. } | SetiCrf { .. } => (Core, 1),
            SetiVsm { .. } | Req { .. } | Sync { .. } => (Core, 1),
        }
    }
}

/// What one static instruction costs: where it executes and for how long,
/// its Table I category, and the activity counters one issue adds, summed
/// over its masked PEs, from which the energy book is composed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InstCost {
    pub(crate) unit: ExecUnit,
    /// See [`LatencyParams::unit_latency`].
    pub(crate) latency: u64,
    pub(crate) category: Category,
    simd_ops: u8,
    int_alu_ops: u8,
    data_rf: u8,
    addr_rf: u8,
    /// The scratchpad the instruction reads or writes, and how often.
    pub(crate) spad: Option<(SpadKind, u8)>,
}

impl InstCost {
    fn of(inst: &Instruction, lat: &LatencyParams) -> Self {
        use Instruction::*;
        use SpadKind::{Pgsm, Vsm};
        // At most 64 PEs, so every count fits 8 bits (3 × 64 = 192).
        let n = inst.simb_mask().map_or(0, |m| m.count() as u8);
        // Per masked PE: a `comp` reads two DataRF entries and writes one,
        // a `calc_arf` the same in the AddrRF, and an indirect address
        // operand reads its AddrRF entry.
        let ind = |a: AddrOperand| u8::from(a.addr_reg().is_some());
        let (simd_ops, int_alu_ops, data_rf, addr_rf, spad) = match *inst {
            Comp { .. } => (n, 0, 3 * n, 0, None),
            CalcArf { .. } => (0, n, 0, 3 * n, None),
            Mov { .. } => (0, n, n, n, None),
            LdRf { dram_addr: a, .. } | StRf { dram_addr: a, .. } => (0, 0, n, ind(a) * n, None),
            LdPgsm { dram_addr: a, pgsm_addr: b, .. }
            | StPgsm { dram_addr: a, pgsm_addr: b, .. } => {
                (0, 0, 0, (ind(a) + ind(b)) * n, Some((Pgsm, n)))
            }
            RdPgsm { pgsm_addr: a, .. } | WrPgsm { pgsm_addr: a, .. } => {
                (0, 0, n, ind(a) * n, Some((Pgsm, n)))
            }
            RdVsm { vsm_addr: a, .. } | WrVsm { vsm_addr: a, .. } => {
                (0, 0, n, ind(a) * n, Some((Vsm, n)))
            }
            Reset { .. } | SetiDrf { .. } => (0, 0, n, 0, None),
            SetiVsm { .. } => (0, 0, 0, 0, Some((Vsm, 1))),
            Jump { .. } | CJump { .. } | CalcCrf { .. } | SetiCrf { .. } => (0, 0, 0, 0, None),
            Req { .. } | Sync { .. } => (0, 0, 0, 0, None),
        };
        let (unit, latency) = lat.unit_latency(inst);
        let category = inst.category();
        Self { unit, latency, category, simd_ops, int_alu_ops, data_rf, addr_rf, spad }
    }

    /// Adds `times` issues' worth of the activity counters to `stats`.
    #[inline]
    pub(crate) fn add_accesses(&self, stats: &mut VaultStats, times: u64) {
        stats.simd_ops += times * u64::from(self.simd_ops);
        stats.int_alu_ops += times * u64::from(self.int_alu_ops);
        stats.data_rf_accesses += times * u64::from(self.data_rf);
        stats.addr_rf_accesses += times * u64::from(self.addr_rf);
        match self.spad {
            Some((SpadKind::Pgsm, count)) => stats.pgsm_accesses += times * u64::from(count),
            Some((SpadKind::Vsm, count)) => stats.vsm_accesses += times * u64::from(count),
            None => {}
        }
    }
}

/// The cost of every static instruction of a program, with its read and
/// write sets as indices into the flat `data ‖ addr ‖ ctrl` register
/// space, each set sorted and deduplicated. Decoded once per
/// `load_program_all`, shared by every vault, and once per analytic
/// prediction. Two flat vectors hold the register sets of the whole
/// program, so no instruction owns an allocation.
#[derive(Debug, Clone)]
pub(crate) struct CostTable {
    costs: Vec<InstCost>,
    /// Instruction `i` reads `regs[bounds[2i]..bounds[2i + 1]]` and writes
    /// `regs[bounds[2i + 1]..bounds[2i + 2]]`.
    bounds: Vec<u32>,
    regs: Vec<u16>,
}

impl CostTable {
    /// Decodes `insts` under `config`'s latencies and register-file sizes.
    pub(crate) fn decode(insts: &[Instruction], config: &MachineConfig) -> Self {
        let (data, addr) = (config.data_rf_entries, config.addr_rf_entries);
        let flat = |r: RegRef| {
            (match r {
                RegRef::Data(x) => x.index(),
                RegRef::Addr(x) => data + x.index(),
                RegRef::Ctrl(x) => data + addr + x.index(),
            }) as u16
        };
        let mut table = Self {
            costs: Vec::with_capacity(insts.len()),
            bounds: Vec::with_capacity(2 * insts.len() + 1),
            regs: Vec::with_capacity(2 * insts.len()),
        };
        table.bounds.push(0);
        for inst in insts {
            table.costs.push(InstCost::of(inst, &config.latency));
            let start = table.regs.len();
            inst.for_each_read(|r| table.regs.push(flat(r)));
            table.regs[start..].sort_unstable();
            // Drop repeats from the sorted run in place.
            let mut end = start;
            for i in start..table.regs.len() {
                if end == start || table.regs[i] != table.regs[end - 1] {
                    table.regs[end] = table.regs[i];
                    end += 1;
                }
            }
            table.regs.truncate(end);
            table.bounds.push(end as u32);
            table.regs.extend(inst.written().map(flat));
            table.bounds.push(table.regs.len() as u32);
        }
        table
    }

    /// Size of the flat register space `config` defines.
    pub(crate) fn space(config: &MachineConfig) -> usize {
        config.data_rf_entries + config.addr_rf_entries + config.ctrl_rf_entries
    }

    /// What instruction `i` costs.
    pub(crate) fn cost(&self, i: usize) -> &InstCost {
        &self.costs[i]
    }

    /// Registers instruction `i` reads.
    pub(crate) fn reads(&self, i: usize) -> &[u16] {
        &self.regs[self.bounds[2 * i] as usize..self.bounds[2 * i + 1] as usize]
    }

    /// Registers instruction `i` writes.
    pub(crate) fn writes(&self, i: usize) -> &[u16] {
        &self.regs[self.bounds[2 * i + 1] as usize..self.bounds[2 * i + 2] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipim_isa::{AddrReg, DataReg, SimbMask};

    #[test]
    fn sets_are_flat_sorted_and_deduplicated() {
        let config = MachineConfig::vault_slice(1);
        let mask = SimbMask::all(config.pes_per_vault());
        let a = AddrOperand::Indirect(AddrReg::new(3));
        let insts = [
            Instruction::StRf { dram_addr: a, drf: DataReg::new(7), simb_mask: mask },
            Instruction::LdPgsm { dram_addr: a, pgsm_addr: a, simb_mask: mask },
            Instruction::Reset { drf: DataReg::new(2), simb_mask: mask },
        ];
        let t = CostTable::decode(&insts, &config);
        let addr3 = (config.data_rf_entries + 3) as u16;
        assert_eq!((t.reads(0), t.writes(0)), (&[7, addr3][..], &[][..]));
        assert_eq!((t.reads(1), t.writes(1)), (&[addr3][..], &[][..]));
        assert_eq!((t.reads(2), t.writes(2)), (&[][..], &[2][..]));
    }
}
