//! iPIM near-bank microarchitecture model (paper Sec. IV).
//!
//! The machine is a hierarchy of *cubes* → *vaults* → *process groups (PGs)*
//! → *process engines (PEs)*. Each vault pairs an in-order control core on
//! the base logic die with SIMB-parallel near-bank PEs on the PIM dies —
//! the decoupled control-execution architecture that gives iPIM
//! programmability at ~10.7 % area overhead per DRAM die.
//!
//! Main entry points:
//!
//! * [`MachineConfig`] — Table III machine shape and policies,
//! * [`Machine`] — builds the machine, loads [`ipim_isa::Program`]s, runs
//!   them cycle-accurately and produces an [`ExecutionReport`],
//! * [`EnergyBook`] / [`EnergyParams`] — the Table III energy model,
//! * [`area`] — the Table IV area model,
//! * [`power`] — peak-power / thermal estimates (Sec. VII-B).
//!
//! # Example
//!
//! ```
//! use ipim_arch::{Machine, MachineConfig};
//! use ipim_isa::{Instruction, ProgramBuilder, DataReg, SimbMask, VecMask};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = MachineConfig::vault_slice(1);
//! let mut machine = Machine::new(config.clone());
//! let mut b = ProgramBuilder::new();
//! b.push(Instruction::SetiDrf {
//!     drf: DataReg::new(0),
//!     imm: 2.5f32.to_bits(),
//!     vec_mask: VecMask::ALL,
//!     simb_mask: SimbMask::all(config.pes_per_vault()),
//! });
//! machine.load_program_all(&b.seal()?);
//! let report = machine.run(10_000)?;
//! assert!(report.cycles > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod area;
mod config;
mod cost;
mod energy;
mod machine;
pub mod power;
mod scratchpad;
mod stats;
mod vault;

pub use config::{Engine, Fidelity, LatencyParams, MachineConfig, Placement, TraceConfig};
pub use cost::ExecUnit;
pub use energy::{EnergyBook, EnergyParams};
pub use machine::{ExecutionReport, Machine, SimTimeout};
pub use scratchpad::Scratchpad;
pub use stats::{CategoryCounts, StallCounts, StallReason, VaultStats};
pub use vault::{InMsg, OutMsg, Vault, VaultId, Vector};
