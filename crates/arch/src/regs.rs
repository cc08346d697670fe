//! Register sets of a program's static instructions, decoded once into one
//! flat table. The analytic tier's completion-time scoreboard and the
//! control core's in-flight reader/writer counts both index it, so one
//! function defines which registers an instruction reads and writes.

use ipim_isa::{Instruction, RegRef};

use crate::MachineConfig;

/// The read and write sets of every static instruction, as indices into
/// the flat `data ‖ addr ‖ ctrl` register space, each set sorted and
/// deduplicated. Two flat vectors hold the whole program, so no
/// instruction owns an allocation, and decoding allocates nothing else.
#[derive(Debug, Clone)]
pub(crate) struct RegTable {
    /// Instruction `i` reads `regs[bounds[2i]..bounds[2i + 1]]` and writes
    /// `regs[bounds[2i + 1]..bounds[2i + 2]]`.
    bounds: Vec<u32>,
    regs: Vec<u16>,
}

impl RegTable {
    /// Decodes the register sets of `insts` under `config`'s register-file
    /// sizes.
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
            bounds: Vec::with_capacity(2 * insts.len() + 1),
            regs: Vec::with_capacity(2 * insts.len()),
        };
        table.bounds.push(0);
        for inst in insts {
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
    use ipim_isa::{AddrOperand, AddrReg, DataReg, SimbMask};

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
        let t = RegTable::decode(&insts, &config);
        let addr3 = (config.data_rf_entries + 3) as u16;
        assert_eq!((t.reads(0), t.writes(0)), (&[7, addr3][..], &[][..]));
        assert_eq!((t.reads(1), t.writes(1)), (&[addr3][..], &[][..]));
        assert_eq!((t.reads(2), t.writes(2)), (&[][..], &[2][..]));
    }
}
