//! Operation codes for the computation, index-calculation and control-flow
//! instructions.

use std::fmt;

/// Element type of a SIMD computation (`comp` instructions operate on either
/// FP32 or INT32 lanes; paper Sec. IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 32-bit IEEE-754 floating point lanes.
    F32,
    /// 32-bit two's-complement integer lanes.
    I32,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::F32 => write!(f, "f32"),
            DataType::I32 => write!(f, "i32"),
        }
    }
}

/// Vector-shape mode of a `comp` instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompMode {
    /// `dst[l] = src1[l] op src2[l]` for every active lane.
    VectorVector,
    /// `dst[l] = src1[l] op src2[0]`: the scalar operand is lane 0 of `src2`.
    ScalarVector,
}

impl fmt::Display for CompMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompMode::VectorVector => write!(f, "vv"),
            CompMode::ScalarVector => write!(f, "sv"),
        }
    }
}

/// Arithmetic/logical operation of a `comp` instruction.
///
/// The paper's Table I lists FP/INT `add, subtract, multiply, mac` and logical
/// `shift, and, or, xor, crop-lsb, crop-msb`. The Table II workloads
/// additionally require `min`/`max` (pyramid remapping, clamping), `div`
/// (bilateral-grid normalization), compare ops (Halide `select`), and
/// int↔float conversion (index-from-data gathers and histogram binning); we
/// include those as documented extensions of the SIMD unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompOp {
    /// Lane-wise addition.
    Add,
    /// Lane-wise subtraction.
    Sub,
    /// Lane-wise multiplication.
    Mul,
    /// Multiply-accumulate: `dst += src1 * src2`.
    Mac,
    /// Lane-wise division (extension; see type-level docs).
    Div,
    /// Lane-wise minimum (extension).
    Min,
    /// Lane-wise maximum (extension).
    Max,
    /// Logical left shift (integer lanes).
    Shl,
    /// Logical right shift (integer lanes).
    Shr,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Keep the least-significant 16 bits of each lane (`crop-lsb`).
    CropLsb,
    /// Keep the most-significant 16 bits of each lane (`crop-msb`).
    CropMsb,
    /// Compare less-than, producing 1 (or 1.0) / 0 per lane (extension).
    CmpLt,
    /// Compare less-or-equal, producing 1 / 0 per lane (extension).
    CmpLe,
    /// Compare equality, producing 1 / 0 per lane (extension).
    CmpEq,
    /// Convert integer lanes to float (`src2` ignored; extension).
    CvtI2F,
    /// Convert float lanes to integer, truncating toward zero (extension).
    CvtF2I,
}

impl CompOp {
    /// Whether the operation reads the destination register (only `mac`).
    pub fn reads_dst(self) -> bool {
        matches!(self, CompOp::Mac)
    }

    /// Whether the operation uses its second source operand.
    pub fn uses_src2(self) -> bool {
        !matches!(self, CompOp::CvtI2F | CompOp::CvtF2I)
    }

    /// Mnemonic used by the assembly printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CompOp::Add => "add",
            CompOp::Sub => "sub",
            CompOp::Mul => "mul",
            CompOp::Mac => "mac",
            CompOp::Div => "div",
            CompOp::Min => "min",
            CompOp::Max => "max",
            CompOp::Shl => "shl",
            CompOp::Shr => "shr",
            CompOp::And => "and",
            CompOp::Or => "or",
            CompOp::Xor => "xor",
            CompOp::CropLsb => "croplsb",
            CompOp::CropMsb => "cropmsb",
            CompOp::CmpLt => "cmplt",
            CompOp::CmpLe => "cmple",
            CompOp::CmpEq => "cmpeq",
            CompOp::CvtI2F => "cvti2f",
            CompOp::CvtF2I => "cvtf2i",
        }
    }
}

impl fmt::Display for CompOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Integer operation of a `calc arf` (per-PE index calculation) instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArfOp {
    /// `dst = src1 + src2`.
    Add,
    /// `dst = src1 - src2`.
    Sub,
    /// `dst = src1 * src2`.
    Mul,
    /// `dst = src1 / src2` (floor division, matching Halide coordinate
    /// semantics; division by zero yields zero).
    Div,
    /// `dst = src1 % src2` (euclidean remainder; modulo zero yields zero).
    Rem,
    /// `dst = src1 << src2`.
    Shl,
    /// `dst = src1 >> src2` (arithmetic).
    Shr,
    /// `dst = src1 & src2`.
    And,
    /// `dst = src1 | src2`.
    Or,
    /// `dst = min(src1, src2)` (used for index clamping at image borders).
    Min,
    /// `dst = max(src1, src2)`.
    Max,
}

impl ArfOp {
    /// Mnemonic used by the assembly printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            ArfOp::Add => "add",
            ArfOp::Sub => "sub",
            ArfOp::Mul => "mul",
            ArfOp::Div => "div",
            ArfOp::Rem => "rem",
            ArfOp::Shl => "shl",
            ArfOp::Shr => "shr",
            ArfOp::And => "and",
            ArfOp::Or => "or",
            ArfOp::Min => "min",
            ArfOp::Max => "max",
        }
    }

    /// Applies the operation to two scalar values (the architectural
    /// semantics used by both the simulator and compiler constant folding).
    /// Inlinable across crates, so a caller that fixes the opcode gets that
    /// operation alone.
    #[inline]
    pub fn apply(self, a: i32, b: i32) -> i32 {
        match self {
            ArfOp::Add => a.wrapping_add(b),
            ArfOp::Sub => a.wrapping_sub(b),
            ArfOp::Mul => a.wrapping_mul(b),
            ArfOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.div_euclid(b)
                }
            }
            ArfOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.rem_euclid(b)
                }
            }
            ArfOp::Shl => a.wrapping_shl(b as u32 & 31),
            ArfOp::Shr => a.wrapping_shr(b as u32 & 31),
            ArfOp::And => a & b,
            ArfOp::Or => a | b,
            ArfOp::Min => a.min(b),
            ArfOp::Max => a.max(b),
        }
    }
}

impl fmt::Display for ArfOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Second source operand of `calc arf` / `calc crf`: a register or an
/// immediate.
///
/// Table I lists register operands only; immediates are a documented encoding
/// extension that every practical codegen needs for strides and constants
/// (the alternative — materializing each constant through the VSM — would
/// serialize on the shared TSV bus).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArfSrc {
    /// Read the operand from an AddrRF register.
    Reg(crate::AddrReg),
    /// Use an immediate constant.
    Imm(i32),
}

impl fmt::Display for ArfSrc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArfSrc::Reg(r) => write!(f, "{r}"),
            ArfSrc::Imm(v) => write!(f, "#{v}"),
        }
    }
}

/// Integer operation of a `calc crf` (control-flow calculation) instruction.
///
/// Identical operation set to [`ArfOp`]; kept as a distinct type because the
/// two execute on different hardware (control core vs. per-PE integer ALU)
/// with different energy/latency accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrfOp {
    /// `dst = src1 + src2`.
    Add,
    /// `dst = src1 - src2`.
    Sub,
    /// `dst = src1 * src2`.
    Mul,
    /// `dst = src1 / src2` (floor division; division by zero yields zero).
    Div,
    /// `dst = src1 % src2` (euclidean remainder; modulo zero yields zero).
    Rem,
    /// `dst = 1` if `src1 < src2` else `0`.
    Lt,
    /// `dst = 1` if `src1 >= src2` else `0`.
    Ge,
    /// `dst = 1` if `src1 == src2` else `0`.
    Eq,
    /// `dst = min(src1, src2)`.
    Min,
    /// `dst = max(src1, src2)`.
    Max,
}

impl CrfOp {
    /// Mnemonic used by the assembly printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CrfOp::Add => "add",
            CrfOp::Sub => "sub",
            CrfOp::Mul => "mul",
            CrfOp::Div => "div",
            CrfOp::Rem => "rem",
            CrfOp::Lt => "lt",
            CrfOp::Ge => "ge",
            CrfOp::Eq => "eq",
            CrfOp::Min => "min",
            CrfOp::Max => "max",
        }
    }

    /// Applies the operation to two scalar values.
    pub fn apply(self, a: i32, b: i32) -> i32 {
        match self {
            CrfOp::Add => a.wrapping_add(b),
            CrfOp::Sub => a.wrapping_sub(b),
            CrfOp::Mul => a.wrapping_mul(b),
            CrfOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.div_euclid(b)
                }
            }
            CrfOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.rem_euclid(b)
                }
            }
            CrfOp::Lt => (a < b) as i32,
            CrfOp::Ge => (a >= b) as i32,
            CrfOp::Eq => (a == b) as i32,
            CrfOp::Min => a.min(b),
            CrfOp::Max => a.max(b),
        }
    }
}

impl fmt::Display for CrfOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arf_op_semantics() {
        assert_eq!(ArfOp::Add.apply(3, 4), 7);
        assert_eq!(ArfOp::Sub.apply(3, 4), -1);
        assert_eq!(ArfOp::Mul.apply(-3, 4), -12);
        assert_eq!(ArfOp::Div.apply(9, 2), 4);
        assert_eq!(ArfOp::Div.apply(9, 0), 0);
        assert_eq!(ArfOp::Rem.apply(9, 4), 1);
        assert_eq!(ArfOp::Rem.apply(9, 0), 0);
        assert_eq!(ArfOp::Shl.apply(1, 5), 32);
        assert_eq!(ArfOp::Shr.apply(-8, 1), -4);
        assert_eq!(ArfOp::Min.apply(2, -3), -3);
        assert_eq!(ArfOp::Max.apply(2, -3), 2);
    }

    #[test]
    fn crf_op_semantics() {
        assert_eq!(CrfOp::Lt.apply(1, 2), 1);
        assert_eq!(CrfOp::Lt.apply(2, 2), 0);
        assert_eq!(CrfOp::Ge.apply(2, 2), 1);
        assert_eq!(CrfOp::Eq.apply(5, 5), 1);
        assert_eq!(CrfOp::Div.apply(7, 0), 0);
        assert_eq!(CrfOp::Rem.apply(7, 0), 0);
    }

    #[test]
    fn wrapping_behaviour() {
        assert_eq!(ArfOp::Add.apply(i32::MAX, 1), i32::MIN);
        assert_eq!(ArfOp::Mul.apply(i32::MAX, 2), -2);
    }

    #[test]
    fn comp_op_dst_and_src2_usage() {
        assert!(CompOp::Mac.reads_dst());
        assert!(!CompOp::Add.reads_dst());
        assert!(!CompOp::CvtI2F.uses_src2());
        assert!(CompOp::Mul.uses_src2());
    }

    #[test]
    fn mnemonics_are_distinct() {
        use std::collections::HashSet;
        let comp: HashSet<_> = [
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
        .iter()
        .map(|o| o.mnemonic())
        .collect();
        assert_eq!(comp.len(), 19);
    }
}
