//! # iPIM — programmable in-memory image processing accelerator
//!
//! A from-scratch Rust reproduction of *iPIM: Programmable In-Memory Image
//! Processing Accelerator Using Near-Bank Architecture* (ISCA 2020): the
//! SIMB ISA, the decoupled control-execution near-bank microarchitecture
//! (cycle-accurate), the Halide-style compilation flow with the paper's
//! `ipim_tile`/`load_pgsm` schedules and backend optimizations, the
//! Table II workload suite, and the GPU / process-on-base-die baselines.
//!
//! This crate is the public facade: it re-exports the subsystem crates and
//! provides the [`Session`] compile-and-run API plus the [`experiments`]
//! golden-verification oracle. The paper's tables and figures are rendered
//! by `ipim-report` from the benchmark matrix.
//!
//! ## Quickstart
//!
//! ```
//! use ipim_core::{Session, MachineConfig};
//! use ipim_core::frontend::{PipelineBuilder, Image, x, y};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Algorithm: a 3-tap blur. Schedule: tile 8×8 across the PE hierarchy,
//! // stage tiles in the process-group scratchpad.
//! let mut p = PipelineBuilder::new();
//! let input = p.input("in", 64, 64);
//! let blur = p.func("blur", 64, 64);
//! p.define(
//!     blur,
//!     (input.at(x() - 1, y()) + input.at(x(), y()) + input.at(x() + 1, y())) / 3.0,
//! );
//! p.schedule(blur).compute_root().ipim_tile(8, 8).load_pgsm();
//! let pipeline = p.build(blur)?;
//!
//! // Compile and run on a cycle-accurate one-vault slice.
//! let session = Session::new(MachineConfig::vault_slice(1));
//! let outcome = session.run_pipeline(
//!     &pipeline,
//!     &[(input.id(), Image::gradient(64, 64))],
//!     50_000_000,
//! )?;
//! println!(
//!     "{} cycles, IPC {:.2}, {:.1} pJ/pixel",
//!     outcome.report.cycles,
//!     outcome.report.stats.ipc(),
//!     outcome.energy_pj_per_pixel(),
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod lru;
mod progcache;
mod session;

pub use lru::Lru;
pub use progcache::{program_key, CompiledProgram, ProgramCache};
pub use session::{RunOutcome, Session, SessionError};

pub use ipim_arch::{
    analytic, area, power, CategoryCounts, EnergyBook, EnergyParams, Engine, ExecutionReport,
    Fidelity, Machine, MachineConfig, Placement, TraceConfig,
};
pub use ipim_compiler::{
    compile, fnv1a, host, CompileOptions, CompiledPipeline, MemoryMap, RegAllocPolicy,
};
pub use ipim_workloads::{
    all_workloads, workload_by_name, workloads_in_family, ComputeRootPolicy, ScheduleOverride,
    Workload, WorkloadFamily, WorkloadScale,
};

/// Re-export of the Halide-style frontend.
pub mod frontend {
    pub use ipim_frontend::*;
}

/// Re-export of the SIMB ISA.
pub mod isa {
    pub use ipim_isa::*;
}

/// Re-export of the DRAM bank model.
pub mod dram {
    pub use ipim_dram::*;
}

/// Re-export of the interconnect model.
pub mod noc {
    pub use ipim_noc::*;
}

/// Re-export of the observability subsystem (event tracing, metrics,
/// Chrome-trace export).
pub mod trace {
    pub use ipim_trace::*;
}
