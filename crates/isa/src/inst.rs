//! The SIMB instruction set: one variant per row of the paper's Table I,
//! plus two documented codegen extensions (`seti drf`, immediates).

use std::fmt;

use crate::{
    AddrReg, ArfOp, ArfSrc, CompMode, CompOp, CrfOp, CtrlReg, DataReg, DataType, SimbMask, VecMask,
};

/// A memory address operand resolved per-PE.
///
/// Table I supports *indirect addressing* for bank, PGSM and VSM addresses:
/// when indirect, the operand names an AddrRF entry whose value (computed by
/// `calc arf`) is used as the address, letting different PEs of one SIMB
/// instruction touch different locations (paper Sec. IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddrOperand {
    /// A literal byte address, identical on every PE.
    Imm(u32),
    /// Indirect: the byte address is read from this AddrRF entry on each PE.
    Indirect(AddrReg),
}

impl AddrOperand {
    /// The AddrRF register read by this operand, if indirect.
    pub fn addr_reg(self) -> Option<AddrReg> {
        match self {
            AddrOperand::Imm(_) => None,
            AddrOperand::Indirect(r) => Some(r),
        }
    }
}

impl fmt::Display for AddrOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddrOperand::Imm(v) => write!(f, "{v:#x}"),
            AddrOperand::Indirect(r) => write!(f, "[{r}]"),
        }
    }
}

/// Source operand of control-flow instructions: a CtrlRF register or an
/// immediate (immediates are a documented extension; see [`ArfSrc`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrfSrc {
    /// Read from the control register file.
    Reg(CtrlReg),
    /// Immediate constant.
    Imm(i32),
}

impl CrfSrc {
    /// The CtrlRF register read by this operand, if any.
    pub fn ctrl_reg(self) -> Option<CtrlReg> {
        match self {
            CrfSrc::Reg(r) => Some(r),
            CrfSrc::Imm(_) => None,
        }
    }
}

impl fmt::Display for CrfSrc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrfSrc::Reg(r) => write!(f, "{r}"),
            CrfSrc::Imm(v) => write!(f, "#{v}"),
        }
    }
}

/// Destination of a remote-vault access (`req` instruction operands
/// `dst_chip_id, dst_vault_id, dst_pg_id, dst_pe_id`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RemoteTarget {
    /// Cube (chip) index.
    pub chip: u8,
    /// Vault index within the cube.
    pub vault: u8,
    /// Process-group index within the vault.
    pub pg: u8,
    /// Process-engine index within the process group.
    pub pe: u8,
}

impl fmt::Display for RemoteTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chip{}.v{}.pg{}.pe{}", self.chip, self.vault, self.pg, self.pe)
    }
}

/// Instruction category, used for the Fig. 11 instruction-breakdown
/// experiment and for issue routing in the control core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// SIMD `comp` instructions.
    Computation,
    /// Per-PE integer index calculation (`calc arf`, `mov drf/arf`).
    IndexCalc,
    /// Intra-vault data movement (bank, PGSM, VSM, DataRF transfers).
    IntraVault,
    /// Inter-vault data movement (`req`).
    InterVault,
    /// Control flow (`jump`, `cjump`, `calc crf`, `seti crf`).
    ControlFlow,
    /// Inter-vault synchronization (`sync`).
    Synchronization,
}

impl Category {
    /// Stable lower-case label, usable as a metrics/trace key.
    pub fn name(self) -> &'static str {
        match self {
            Category::Computation => "computation",
            Category::IndexCalc => "index-calc",
            Category::IntraVault => "intra-vault",
            Category::InterVault => "inter-vault",
            Category::ControlFlow => "control-flow",
            Category::Synchronization => "synchronization",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A register name qualified with its register file, used for hazard
/// detection by both the control core's Issued-Inst-Queue model and the
/// compiler's dependency-graph construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegRef {
    /// A DataRF entry.
    Data(DataReg),
    /// An AddrRF entry.
    Addr(AddrReg),
    /// A CtrlRF entry.
    Ctrl(CtrlReg),
}

impl fmt::Display for RegRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegRef::Data(r) => write!(f, "{r}"),
            RegRef::Addr(r) => write!(f, "{r}"),
            RegRef::Ctrl(r) => write!(f, "{r}"),
        }
    }
}

/// One SIMB instruction (paper Table I).
///
/// Every bank-parallel variant carries a [`SimbMask`]; the instruction
/// retires only once all masked PEs have completed it (paper Sec. IV-B,
/// step 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instruction {
    /// `comp`: SIMD computation on DataRF vectors.
    Comp {
        /// Arithmetic/logical operation.
        op: CompOp,
        /// Lane element type.
        dtype: DataType,
        /// Vector-vector or scalar-vector mode.
        mode: CompMode,
        /// Destination DataRF entry.
        dst: DataReg,
        /// First source DataRF entry.
        src1: DataReg,
        /// Second source DataRF entry (scalar lane 0 in `sv` mode).
        src2: DataReg,
        /// Active SIMD lanes.
        vec_mask: VecMask,
        /// Active PEs.
        simb_mask: SimbMask,
    },
    /// `calc arf`: per-PE integer address calculation on the AddrRF.
    CalcArf {
        /// Integer operation.
        op: ArfOp,
        /// Destination AddrRF entry.
        dst: AddrReg,
        /// First source AddrRF entry.
        src1: AddrReg,
        /// Second source (register or immediate).
        src2: ArfSrc,
        /// Active PEs.
        simb_mask: SimbMask,
    },
    /// `st rf`: store a DataRF vector to the PE's local DRAM bank.
    StRf {
        /// Bank byte address (vector-aligned).
        dram_addr: AddrOperand,
        /// Source DataRF entry.
        drf: DataReg,
        /// Active PEs.
        simb_mask: SimbMask,
    },
    /// `ld rf`: load a vector from the PE's local DRAM bank into the DataRF.
    LdRf {
        /// Bank byte address (vector-aligned).
        dram_addr: AddrOperand,
        /// Destination DataRF entry.
        drf: DataReg,
        /// Active PEs.
        simb_mask: SimbMask,
    },
    /// `st pgsm`: store a vector from the PGSM to the PE's local bank.
    StPgsm {
        /// Bank byte address.
        dram_addr: AddrOperand,
        /// PGSM byte address.
        pgsm_addr: AddrOperand,
        /// Active PEs.
        simb_mask: SimbMask,
    },
    /// `ld pgsm`: load a vector from the PE's local bank into the PGSM.
    LdPgsm {
        /// Bank byte address.
        dram_addr: AddrOperand,
        /// PGSM byte address.
        pgsm_addr: AddrOperand,
        /// Active PEs.
        simb_mask: SimbMask,
    },
    /// `rd pgsm`: read a vector from the PGSM into the DataRF.
    RdPgsm {
        /// PGSM byte address.
        pgsm_addr: AddrOperand,
        /// Destination DataRF entry.
        drf: DataReg,
        /// Active PEs.
        simb_mask: SimbMask,
    },
    /// `wr pgsm`: write a DataRF vector into the PGSM.
    WrPgsm {
        /// PGSM byte address.
        pgsm_addr: AddrOperand,
        /// Source DataRF entry.
        drf: DataReg,
        /// Active PEs.
        simb_mask: SimbMask,
    },
    /// `rd vsm`: read a vector from the vault scratchpad into the DataRF
    /// (traverses the shared TSV bus).
    RdVsm {
        /// VSM byte address.
        vsm_addr: AddrOperand,
        /// Destination DataRF entry.
        drf: DataReg,
        /// Active PEs.
        simb_mask: SimbMask,
    },
    /// `wr vsm`: write a DataRF vector into the vault scratchpad.
    WrVsm {
        /// VSM byte address.
        vsm_addr: AddrOperand,
        /// Source DataRF entry.
        drf: DataReg,
        /// Active PEs.
        simb_mask: SimbMask,
    },
    /// `mov drf/arf`: move a scalar between the DataRF and the AddrRF,
    /// enabling data-dependent addressing (gathers).
    Mov {
        /// Direction of the move.
        to_arf: bool,
        /// AddrRF side of the transfer.
        arf: AddrReg,
        /// DataRF side of the transfer.
        drf: DataReg,
        /// Which SIMD lane of the DataRF entry participates.
        lane: u8,
        /// Active PEs.
        simb_mask: SimbMask,
    },
    /// `seti vsm`: set an immediate 32-bit value at a VSM location
    /// (vault-level; no SIMB mask).
    SetiVsm {
        /// VSM byte address.
        vsm_addr: u32,
        /// Raw 32-bit immediate.
        imm: u32,
    },
    /// `reset`: zero a DataRF entry.
    Reset {
        /// DataRF entry to clear.
        drf: DataReg,
        /// Active PEs.
        simb_mask: SimbMask,
    },
    /// `seti drf` (extension): broadcast an immediate into the active lanes
    /// of a DataRF entry. See [`ArfSrc`] for the rationale for immediates.
    SetiDrf {
        /// Destination DataRF entry.
        drf: DataReg,
        /// Raw 32-bit immediate (bit pattern; may encode f32 or i32).
        imm: u32,
        /// Lanes to write.
        vec_mask: VecMask,
        /// Active PEs.
        simb_mask: SimbMask,
    },
    /// `req`: asynchronously fetch one vector from a remote vault's bank
    /// into the local VSM (paper Sec. IV-D).
    Req {
        /// Remote bank location.
        target: RemoteTarget,
        /// Byte address in the remote bank.
        dram_addr: CrfSrc,
        /// Local VSM byte address that receives the data.
        vsm_addr: CrfSrc,
    },
    /// `jump`: unconditional jump to the instruction index in `target`.
    Jump {
        /// Jump target (CtrlRF register or immediate instruction index).
        target: CrfSrc,
    },
    /// `cjump`: jump when `cond` is non-zero.
    CJump {
        /// Condition register.
        cond: CtrlReg,
        /// Jump target.
        target: CrfSrc,
    },
    /// `calc crf`: integer calculation on the control register file.
    CalcCrf {
        /// Integer operation.
        op: CrfOp,
        /// Destination CtrlRF entry.
        dst: CtrlReg,
        /// First source CtrlRF entry.
        src1: CtrlReg,
        /// Second source (register or immediate).
        src2: CrfSrc,
    },
    /// `seti crf`: set an immediate value in the control register file.
    SetiCrf {
        /// Destination CtrlRF entry.
        dst: CtrlReg,
        /// Immediate value.
        imm: i32,
    },
    /// `sync`: inter-vault barrier identified by a phase id (Sec. IV-D).
    Sync {
        /// Phase identifier of the barrier.
        phase_id: u32,
    },
}

impl Instruction {
    /// The Table I category of this instruction.
    pub fn category(&self) -> Category {
        use Instruction::*;
        match self {
            Comp { .. } => Category::Computation,
            CalcArf { .. } | Mov { .. } => Category::IndexCalc,
            StRf { .. }
            | LdRf { .. }
            | StPgsm { .. }
            | LdPgsm { .. }
            | RdPgsm { .. }
            | WrPgsm { .. }
            | RdVsm { .. }
            | WrVsm { .. }
            | SetiVsm { .. }
            | Reset { .. }
            | SetiDrf { .. } => Category::IntraVault,
            Req { .. } => Category::InterVault,
            Jump { .. } | CJump { .. } | CalcCrf { .. } | SetiCrf { .. } => Category::ControlFlow,
            Sync { .. } => Category::Synchronization,
        }
    }

    /// Whether this instruction accesses a DRAM bank (locally or remotely);
    /// the compiler's memory-order-enforcement pass orders these.
    pub fn accesses_dram(&self) -> bool {
        matches!(
            self,
            Instruction::StRf { .. }
                | Instruction::LdRf { .. }
                | Instruction::StPgsm { .. }
                | Instruction::LdPgsm { .. }
                | Instruction::Req { .. }
        )
    }

    /// Whether this instruction writes to a DRAM bank.
    pub fn writes_dram(&self) -> bool {
        matches!(self, Instruction::StRf { .. } | Instruction::StPgsm { .. })
    }

    /// Whether this instruction reads or writes the PGSM.
    pub fn accesses_pgsm(&self) -> bool {
        matches!(
            self,
            Instruction::StPgsm { .. }
                | Instruction::LdPgsm { .. }
                | Instruction::RdPgsm { .. }
                | Instruction::WrPgsm { .. }
        )
    }

    /// Whether this instruction reads or writes the VSM.
    pub fn accesses_vsm(&self) -> bool {
        matches!(
            self,
            Instruction::RdVsm { .. }
                | Instruction::WrVsm { .. }
                | Instruction::SetiVsm { .. }
                | Instruction::Req { .. }
        )
    }

    /// The SIMB mask, for instructions that broadcast to PEs.
    pub fn simb_mask(&self) -> Option<SimbMask> {
        use Instruction::*;
        match self {
            Comp { simb_mask, .. }
            | CalcArf { simb_mask, .. }
            | StRf { simb_mask, .. }
            | LdRf { simb_mask, .. }
            | StPgsm { simb_mask, .. }
            | LdPgsm { simb_mask, .. }
            | RdPgsm { simb_mask, .. }
            | WrPgsm { simb_mask, .. }
            | RdVsm { simb_mask, .. }
            | WrVsm { simb_mask, .. }
            | Mov { simb_mask, .. }
            | Reset { simb_mask, .. }
            | SetiDrf { simb_mask, .. } => Some(*simb_mask),
            _ => None,
        }
    }

    /// Calls `f` on each register this instruction reads (for hazard
    /// detection), in operand order and without allocating. A register
    /// named by two operands is passed twice.
    pub fn for_each_read(&self, mut f: impl FnMut(RegRef)) {
        use Instruction::*;
        fn addr(f: &mut impl FnMut(RegRef), a: &AddrOperand) {
            if let Some(r) = a.addr_reg() {
                f(RegRef::Addr(r));
            }
        }
        match self {
            Comp { op, mode: _, dst, src1, src2, .. } => {
                f(RegRef::Data(*src1));
                if op.uses_src2() {
                    f(RegRef::Data(*src2));
                }
                if op.reads_dst() {
                    f(RegRef::Data(*dst));
                }
            }
            CalcArf { src1, src2, .. } => {
                f(RegRef::Addr(*src1));
                if let ArfSrc::Reg(r) = src2 {
                    f(RegRef::Addr(*r));
                }
            }
            StRf { dram_addr, drf, .. } => {
                addr(&mut f, dram_addr);
                f(RegRef::Data(*drf));
            }
            LdRf { dram_addr, .. } => addr(&mut f, dram_addr),
            StPgsm { dram_addr, pgsm_addr, .. } | LdPgsm { dram_addr, pgsm_addr, .. } => {
                addr(&mut f, dram_addr);
                addr(&mut f, pgsm_addr);
            }
            RdPgsm { pgsm_addr, .. } => addr(&mut f, pgsm_addr),
            WrPgsm { pgsm_addr, drf, .. } => {
                addr(&mut f, pgsm_addr);
                f(RegRef::Data(*drf));
            }
            RdVsm { vsm_addr, .. } => addr(&mut f, vsm_addr),
            WrVsm { vsm_addr, drf, .. } => {
                addr(&mut f, vsm_addr);
                f(RegRef::Data(*drf));
            }
            Mov { to_arf, arf, drf, .. } => {
                if *to_arf {
                    f(RegRef::Data(*drf));
                } else {
                    f(RegRef::Addr(*arf));
                }
            }
            SetiVsm { .. } | Reset { .. } | SetiDrf { .. } | SetiCrf { .. } | Sync { .. } => {}
            Req { dram_addr, vsm_addr, .. } => {
                if let Some(r) = dram_addr.ctrl_reg() {
                    f(RegRef::Ctrl(r));
                }
                if let Some(r) = vsm_addr.ctrl_reg() {
                    f(RegRef::Ctrl(r));
                }
            }
            Jump { target } => {
                if let Some(r) = target.ctrl_reg() {
                    f(RegRef::Ctrl(r));
                }
            }
            CJump { cond, target } => {
                f(RegRef::Ctrl(*cond));
                if let Some(r) = target.ctrl_reg() {
                    f(RegRef::Ctrl(r));
                }
            }
            CalcCrf { src1, src2, .. } => {
                f(RegRef::Ctrl(*src1));
                if let Some(r) = src2.ctrl_reg() {
                    f(RegRef::Ctrl(r));
                }
            }
        }
    }

    /// The register this instruction writes (for hazard detection), if
    /// any: an instruction writes at most one.
    pub fn written(&self) -> Option<RegRef> {
        use Instruction::*;
        match self {
            Comp { dst, .. } => Some(RegRef::Data(*dst)),
            CalcArf { dst, .. } => Some(RegRef::Addr(*dst)),
            LdRf { drf, .. } | RdPgsm { drf, .. } | RdVsm { drf, .. } => Some(RegRef::Data(*drf)),
            Mov { to_arf, arf, drf, .. } => {
                if *to_arf {
                    Some(RegRef::Addr(*arf))
                } else {
                    Some(RegRef::Data(*drf))
                }
            }
            Reset { drf, .. } | SetiDrf { drf, .. } => Some(RegRef::Data(*drf)),
            CalcCrf { dst, .. } | SetiCrf { dst, .. } => Some(RegRef::Ctrl(*dst)),
            StRf { .. }
            | StPgsm { .. }
            | LdPgsm { .. }
            | WrPgsm { .. }
            | WrVsm { .. }
            | SetiVsm { .. }
            | Req { .. }
            | Jump { .. }
            | CJump { .. }
            | Sync { .. } => None,
        }
    }

    /// Whether the instruction may redirect the program counter.
    pub fn is_branch(&self) -> bool {
        matches!(self, Instruction::Jump { .. } | Instruction::CJump { .. })
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instruction::*;
        match self {
            Comp { op, dtype, mode, dst, src1, src2, vec_mask, simb_mask } => {
                if op.uses_src2() {
                    write!(
                        f,
                        "comp.{dtype}.{mode} {op} {dst}, {src1}, {src2} ({vec_mask}, {simb_mask})"
                    )
                } else {
                    write!(f, "comp.{dtype}.{mode} {op} {dst}, {src1} ({vec_mask}, {simb_mask})")
                }
            }
            CalcArf { op, dst, src1, src2, simb_mask } => {
                write!(f, "calc_arf {op} {dst}, {src1}, {src2} ({simb_mask})")
            }
            StRf { dram_addr, drf, simb_mask } => {
                write!(f, "st_rf {dram_addr}, {drf} ({simb_mask})")
            }
            LdRf { dram_addr, drf, simb_mask } => {
                write!(f, "ld_rf {dram_addr}, {drf} ({simb_mask})")
            }
            StPgsm { dram_addr, pgsm_addr, simb_mask } => {
                write!(f, "st_pgsm {dram_addr}, {pgsm_addr} ({simb_mask})")
            }
            LdPgsm { dram_addr, pgsm_addr, simb_mask } => {
                write!(f, "ld_pgsm {dram_addr}, {pgsm_addr} ({simb_mask})")
            }
            RdPgsm { pgsm_addr, drf, simb_mask } => {
                write!(f, "rd_pgsm {pgsm_addr}, {drf} ({simb_mask})")
            }
            WrPgsm { pgsm_addr, drf, simb_mask } => {
                write!(f, "wr_pgsm {pgsm_addr}, {drf} ({simb_mask})")
            }
            RdVsm { vsm_addr, drf, simb_mask } => {
                write!(f, "rd_vsm {vsm_addr}, {drf} ({simb_mask})")
            }
            WrVsm { vsm_addr, drf, simb_mask } => {
                write!(f, "wr_vsm {vsm_addr}, {drf} ({simb_mask})")
            }
            Mov { to_arf, arf, drf, lane, simb_mask } => {
                if *to_arf {
                    write!(f, "mov_arf {arf}, {drf}.{lane} ({simb_mask})")
                } else {
                    write!(f, "mov_drf {drf}.{lane}, {arf} ({simb_mask})")
                }
            }
            SetiVsm { vsm_addr, imm } => write!(f, "seti_vsm {vsm_addr:#x}, #{imm}"),
            Reset { drf, simb_mask } => write!(f, "reset {drf} ({simb_mask})"),
            SetiDrf { drf, imm, vec_mask, simb_mask } => {
                write!(f, "seti_drf {drf}, #{imm:#x} ({vec_mask}, {simb_mask})")
            }
            Req { target, dram_addr, vsm_addr } => {
                write!(f, "req {target}, {dram_addr}, {vsm_addr}")
            }
            Jump { target } => write!(f, "jump {target}"),
            CJump { cond, target } => write!(f, "cjump {cond}, {target}"),
            CalcCrf { op, dst, src1, src2 } => write!(f, "calc_crf {op} {dst}, {src1}, {src2}"),
            SetiCrf { dst, imm } => write!(f, "seti_crf {dst}, #{imm}"),
            Sync { phase_id } => write!(f, "sync {phase_id}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask() -> SimbMask {
        SimbMask::all(32)
    }

    /// The registers `inst` reads, in [`Instruction::for_each_read`] order.
    fn reads(inst: &Instruction) -> Vec<RegRef> {
        let mut out = Vec::new();
        inst.for_each_read(|r| out.push(r));
        out
    }

    #[test]
    fn categories_cover_table1() {
        let c = Instruction::Comp {
            op: CompOp::Add,
            dtype: DataType::F32,
            mode: CompMode::VectorVector,
            dst: DataReg::new(0),
            src1: DataReg::new(1),
            src2: DataReg::new(2),
            vec_mask: VecMask::ALL,
            simb_mask: mask(),
        };
        assert_eq!(c.category(), Category::Computation);
        let i = Instruction::CalcArf {
            op: ArfOp::Add,
            dst: AddrReg::new(4),
            src1: AddrReg::new(5),
            src2: ArfSrc::Imm(16),
            simb_mask: mask(),
        };
        assert_eq!(i.category(), Category::IndexCalc);
        assert_eq!(Instruction::Sync { phase_id: 1 }.category(), Category::Synchronization);
        assert_eq!(
            Instruction::Req {
                target: RemoteTarget { chip: 0, vault: 1, pg: 2, pe: 3 },
                dram_addr: CrfSrc::Imm(0),
                vsm_addr: CrfSrc::Imm(0),
            }
            .category(),
            Category::InterVault
        );
    }

    #[test]
    fn mac_reads_its_destination() {
        let mac = Instruction::Comp {
            op: CompOp::Mac,
            dtype: DataType::F32,
            mode: CompMode::VectorVector,
            dst: DataReg::new(9),
            src1: DataReg::new(1),
            src2: DataReg::new(2),
            vec_mask: VecMask::ALL,
            simb_mask: mask(),
        };
        assert!(reads(&mac).contains(&RegRef::Data(DataReg::new(9))));
        assert_eq!(mac.written(), Some(RegRef::Data(DataReg::new(9))));
    }

    #[test]
    fn indirect_addressing_reads_addr_reg() {
        let ld = Instruction::LdRf {
            dram_addr: AddrOperand::Indirect(AddrReg::new(8)),
            drf: DataReg::new(3),
            simb_mask: mask(),
        };
        assert_eq!(reads(&ld), vec![RegRef::Addr(AddrReg::new(8))]);
        assert_eq!(ld.written(), Some(RegRef::Data(DataReg::new(3))));
        assert!(ld.accesses_dram());
        assert!(!ld.writes_dram());
    }

    #[test]
    fn store_reads_data_and_writes_dram() {
        let st = Instruction::StRf {
            dram_addr: AddrOperand::Imm(64),
            drf: DataReg::new(5),
            simb_mask: mask(),
        };
        assert!(st.writes_dram());
        assert!(reads(&st).contains(&RegRef::Data(DataReg::new(5))));
        assert!(st.written().is_none());
    }

    #[test]
    fn mov_direction_controls_dataflow() {
        let to_arf = Instruction::Mov {
            to_arf: true,
            arf: AddrReg::new(10),
            drf: DataReg::new(2),
            lane: 1,
            simb_mask: mask(),
        };
        assert_eq!(reads(&to_arf), vec![RegRef::Data(DataReg::new(2))]);
        assert_eq!(to_arf.written(), Some(RegRef::Addr(AddrReg::new(10))));
        let to_drf = Instruction::Mov {
            to_arf: false,
            arf: AddrReg::new(10),
            drf: DataReg::new(2),
            lane: 0,
            simb_mask: mask(),
        };
        assert_eq!(reads(&to_drf), vec![RegRef::Addr(AddrReg::new(10))]);
        assert_eq!(to_drf.written(), Some(RegRef::Data(DataReg::new(2))));
    }

    #[test]
    fn control_flow_reads_ctrl_regs() {
        let cj = Instruction::CJump { cond: CtrlReg::new(1), target: CrfSrc::Reg(CtrlReg::new(2)) };
        assert!(cj.is_branch());
        assert_eq!(reads(&cj), vec![RegRef::Ctrl(CtrlReg::new(1)), RegRef::Ctrl(CtrlReg::new(2))]);
    }

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let insts = vec![
            Instruction::SetiVsm { vsm_addr: 0x10, imm: 42 },
            Instruction::Reset { drf: DataReg::new(0), simb_mask: mask() },
            Instruction::Jump { target: CrfSrc::Imm(5) },
            Instruction::Sync { phase_id: 3 },
        ];
        for inst in insts {
            assert!(!inst.to_string().is_empty());
        }
    }

    #[test]
    fn pgsm_and_vsm_classification() {
        let ldp = Instruction::LdPgsm {
            dram_addr: AddrOperand::Imm(0),
            pgsm_addr: AddrOperand::Imm(0),
            simb_mask: mask(),
        };
        assert!(ldp.accesses_pgsm());
        assert!(ldp.accesses_dram());
        let rdv = Instruction::RdVsm {
            vsm_addr: AddrOperand::Imm(0),
            drf: DataReg::new(0),
            simb_mask: mask(),
        };
        assert!(rdv.accesses_vsm());
        assert!(!rdv.accesses_dram());
    }
}
