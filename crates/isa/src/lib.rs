//! SIMB (Single-Instruction-Multiple-Bank) instruction set architecture.
//!
//! This crate implements Table I of the iPIM paper (ISCA 2020): a RISC-like
//! SIMD ISA in which every bank-parallel instruction carries a `simb_mask`
//! selecting the process engines (PEs) of a vault that execute it in lockstep.
//!
//! The crate provides:
//!
//! * typed register names ([`DataReg`], [`AddrReg`], [`CtrlReg`]),
//! * execution masks ([`SimbMask`], [`VecMask`]),
//! * the [`Instruction`] enum with one variant per Table I row,
//! * a [`Program`] container with label resolution,
//! * a binary encoder/decoder ([`encode()`], [`decode`]) with round-trip
//!   guarantees, and
//! * a human-readable assembly [`std::fmt::Display`] form for every
//!   instruction.
//!
//! # Example
//!
//! ```
//! use ipim_isa::{Instruction, CompOp, DataType, CompMode, DataReg, VecMask, SimbMask};
//!
//! // Brighten: out = alpha * in, on all PEs of the vault.
//! let inst = Instruction::Comp {
//!     op: CompOp::Mul,
//!     dtype: DataType::F32,
//!     mode: CompMode::ScalarVector,
//!     dst: DataReg::new(2),
//!     src1: DataReg::new(1),
//!     src2: DataReg::new(0),
//!     vec_mask: VecMask::ALL,
//!     simb_mask: SimbMask::all(32),
//! };
//! assert_eq!(inst.category(), ipim_isa::Category::Computation);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod encode;
mod inst;
mod mask;
mod ops;
mod program;
mod reg;

pub use encode::{decode, encode, DecodeError};
pub use inst::{AddrOperand, Category, CrfSrc, Instruction, RegRef, RemoteTarget};
pub use mask::{MaskError, SimbMask, VecMask};
pub use ops::{ArfOp, ArfSrc, CompMode, CompOp, CrfOp, DataType};
pub use program::{Label, Program, ProgramBuilder, ProgramError};
pub use reg::{AddrReg, CtrlReg, DataReg, ARF_CHIP_ID, ARF_PE_ID, ARF_PG_ID, ARF_VAULT_ID};

/// Number of 32-bit lanes in one SIMD vector (matches the 128-bit bank
/// interface and TSV transfer width; paper Sec. IV-C).
pub const SIMD_LANES: usize = 4;

/// Width in bytes of one SIMD vector / one bank column access (128 bits).
pub const VECTOR_BYTES: usize = SIMD_LANES * 4;
