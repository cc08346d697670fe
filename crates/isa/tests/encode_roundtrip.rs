//! Property tests: binary encode/decode round-trips for arbitrary
//! instructions, and assembly text is total.

use ipim_isa::{
    decode, encode, AddrOperand, AddrReg, ArfOp, ArfSrc, CompMode, CompOp, CrfOp, CrfSrc, CtrlReg,
    DataReg, DataType, Instruction, RemoteTarget, SimbMask, VecMask,
};
use ipim_simkit::check_with;
use ipim_simkit::prop::{
    bool_any, i32_any, tuple2, tuple4, tuple5, tuple6, tuple7, tuple8, u32_any, u64_any, u8_any,
    u8_in, usize_in, Config, Gen,
};

/// Matches the proptest default of 256 cases; encode/decode is cheap.
fn config() -> Config {
    Config { cases: 256, ..Config::default() }
}

fn arb_simb() -> Gen<SimbMask> {
    tuple2(usize_in(1, 65), u64_any()).map(|(w, bits)| SimbMask::from_bits(w, bits))
}

fn arb_vec_mask() -> Gen<VecMask> {
    u8_in(0, 16).map(VecMask::from_bits)
}

fn arb_comp_op() -> Gen<CompOp> {
    Gen::one_of(
        [
            CompOp::Add,
            CompOp::Sub,
            CompOp::Mul,
            CompOp::Mac,
            CompOp::Div,
            CompOp::Min,
            CompOp::Max,
            CompOp::Shl,
            CompOp::Shr,
            CompOp::And,
            CompOp::Or,
            CompOp::Xor,
            CompOp::CropLsb,
            CompOp::CropMsb,
            CompOp::CmpLt,
            CompOp::CmpLe,
            CompOp::CmpEq,
            CompOp::CvtI2F,
            CompOp::CvtF2I,
        ]
        .into_iter()
        .map(Gen::just)
        .collect(),
    )
}

fn arb_arf_op() -> Gen<ArfOp> {
    Gen::one_of(
        [
            ArfOp::Add,
            ArfOp::Sub,
            ArfOp::Mul,
            ArfOp::Div,
            ArfOp::Rem,
            ArfOp::Shl,
            ArfOp::Shr,
            ArfOp::And,
            ArfOp::Or,
            ArfOp::Min,
            ArfOp::Max,
        ]
        .into_iter()
        .map(Gen::just)
        .collect(),
    )
}

fn arb_crf_op() -> Gen<CrfOp> {
    Gen::one_of(
        [
            CrfOp::Add,
            CrfOp::Sub,
            CrfOp::Mul,
            CrfOp::Div,
            CrfOp::Rem,
            CrfOp::Lt,
            CrfOp::Ge,
            CrfOp::Eq,
            CrfOp::Min,
            CrfOp::Max,
        ]
        .into_iter()
        .map(Gen::just)
        .collect(),
    )
}

fn arb_addr_operand() -> Gen<AddrOperand> {
    Gen::one_of(vec![
        u32_any().map(AddrOperand::Imm),
        u8_any().map(|r| AddrOperand::Indirect(AddrReg::new(r))),
    ])
}

fn arb_crf_src() -> Gen<CrfSrc> {
    Gen::one_of(vec![i32_any().map(CrfSrc::Imm), u8_any().map(|r| CrfSrc::Reg(CtrlReg::new(r)))])
}

fn arb_instruction() -> Gen<Instruction> {
    Gen::one_of(vec![
        tuple8(
            arb_comp_op(),
            bool_any(),
            bool_any(),
            u8_any(),
            u8_any(),
            u8_any(),
            arb_vec_mask(),
            arb_simb(),
        )
        .map(|(op, int, sv, d, s1, s2, vm, sm)| Instruction::Comp {
            op,
            dtype: if int { DataType::I32 } else { DataType::F32 },
            mode: if sv { CompMode::ScalarVector } else { CompMode::VectorVector },
            dst: DataReg::new(d),
            src1: DataReg::new(s1),
            src2: DataReg::new(s2),
            vec_mask: vm,
            simb_mask: sm,
        }),
        tuple7(arb_arf_op(), u8_any(), u8_any(), i32_any(), bool_any(), u8_any(), arb_simb()).map(
            |(op, d, s1, imm, use_reg, r2, sm)| Instruction::CalcArf {
                op,
                dst: AddrReg::new(d),
                src1: AddrReg::new(s1),
                src2: if use_reg { ArfSrc::Reg(AddrReg::new(r2)) } else { ArfSrc::Imm(imm) },
                simb_mask: sm,
            },
        ),
        tuple4(arb_addr_operand(), u8_any(), arb_simb(), bool_any()).map(|(a, d, sm, st)| {
            if st {
                Instruction::StRf { dram_addr: a, drf: DataReg::new(d), simb_mask: sm }
            } else {
                Instruction::LdRf { dram_addr: a, drf: DataReg::new(d), simb_mask: sm }
            }
        }),
        tuple4(arb_addr_operand(), arb_addr_operand(), arb_simb(), bool_any()).map(
            |(a, p, sm, st)| {
                if st {
                    Instruction::StPgsm { dram_addr: a, pgsm_addr: p, simb_mask: sm }
                } else {
                    Instruction::LdPgsm { dram_addr: a, pgsm_addr: p, simb_mask: sm }
                }
            },
        ),
        tuple4(arb_addr_operand(), u8_any(), arb_simb(), bool_any()).map(|(p, d, sm, rd)| {
            if rd {
                Instruction::RdPgsm { pgsm_addr: p, drf: DataReg::new(d), simb_mask: sm }
            } else {
                Instruction::WrPgsm { pgsm_addr: p, drf: DataReg::new(d), simb_mask: sm }
            }
        }),
        tuple4(arb_addr_operand(), u8_any(), arb_simb(), bool_any()).map(|(v, d, sm, rd)| {
            if rd {
                Instruction::RdVsm { vsm_addr: v, drf: DataReg::new(d), simb_mask: sm }
            } else {
                Instruction::WrVsm { vsm_addr: v, drf: DataReg::new(d), simb_mask: sm }
            }
        }),
        tuple5(bool_any(), u8_any(), u8_any(), u8_in(0, 4), arb_simb()).map(
            |(to_arf, a, d, lane, sm)| Instruction::Mov {
                to_arf,
                arf: AddrReg::new(a),
                drf: DataReg::new(d),
                lane,
                simb_mask: sm,
            },
        ),
        tuple2(u32_any(), u32_any()).map(|(a, v)| Instruction::SetiVsm { vsm_addr: a, imm: v }),
        tuple2(u8_any(), arb_simb())
            .map(|(d, sm)| Instruction::Reset { drf: DataReg::new(d), simb_mask: sm }),
        tuple4(u8_any(), u32_any(), arb_vec_mask(), arb_simb()).map(|(d, imm, vm, sm)| {
            Instruction::SetiDrf { drf: DataReg::new(d), imm, vec_mask: vm, simb_mask: sm }
        }),
        tuple6(u8_any(), u8_any(), u8_any(), u8_any(), arb_crf_src(), arb_crf_src()).map(
            |(c, v, g, p, da, va)| Instruction::Req {
                target: RemoteTarget { chip: c, vault: v, pg: g, pe: p },
                dram_addr: da,
                vsm_addr: va,
            },
        ),
        arb_crf_src().map(|t| Instruction::Jump { target: t }),
        tuple2(u8_any(), arb_crf_src())
            .map(|(c, t)| Instruction::CJump { cond: CtrlReg::new(c), target: t }),
        tuple4(arb_crf_op(), u8_any(), u8_any(), arb_crf_src()).map(|(op, d, s1, s2)| {
            Instruction::CalcCrf { op, dst: CtrlReg::new(d), src1: CtrlReg::new(s1), src2: s2 }
        }),
        tuple2(u8_any(), i32_any())
            .map(|(d, imm)| Instruction::SetiCrf { dst: CtrlReg::new(d), imm }),
        u32_any().map(|p| Instruction::Sync { phase_id: p }),
    ])
}

#[test]
fn encode_decode_round_trip() {
    check_with(config(), "encode_decode_round_trip", &arb_instruction(), |inst| {
        let word = encode(inst);
        let back = decode(&word).expect("decode");
        assert_eq!(&back, inst);
    });
}

#[test]
fn assembly_text_is_total_and_nonempty() {
    check_with(config(), "assembly_text_is_total_and_nonempty", &arb_instruction(), |inst| {
        assert!(!inst.to_string().is_empty());
    });
}

#[test]
fn reads_and_writes_are_disjoint_unless_mac() {
    check_with(config(), "reads_and_writes_are_disjoint_unless_mac", &arb_instruction(), |inst| {
        // Only `mac` legitimately reads its own destination.
        let written = inst.written();
        let mut overlaps = false;
        inst.for_each_read(|r| overlaps |= written == Some(r));
        if overlaps {
            let is_mac = matches!(inst, Instruction::Comp { op: CompOp::Mac, .. });
            let same_reg_alias = match *inst {
                // e.g. calc_arf a1, a1, ... or comp d0, d0, d0 alias freely.
                Instruction::CalcArf { dst, src1, src2, .. } => {
                    dst == src1 || matches!(src2, ArfSrc::Reg(r) if r == dst)
                }
                Instruction::Comp { dst, src1, src2, .. } => dst == src1 || dst == src2,
                Instruction::CalcCrf { dst, src1, src2, .. } => {
                    dst == src1 || matches!(src2, CrfSrc::Reg(r) if r == dst)
                }
                Instruction::Mov { .. } => false,
                _ => false,
            };
            assert!(is_mac || same_reg_alias, "unexpected read/write overlap in {inst}");
        }
    });
}
