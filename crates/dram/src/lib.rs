//! Cycle-accurate DRAM bank timing model for the iPIM near-bank
//! architecture.
//!
//! iPIM integrates compute logic next to each DRAM bank *without changing the
//! bank circuitry* (paper Sec. II-A), so the performance model of the banks is
//! ordinary DDR-style timing: `ACT`/`PRE`/`RD`/`WR`/`REF` commands constrained
//! by `tRCD`, `tRP`, `tRAS`, `tCCD`, `tRTP`, `tRRD_S/L`, `tFAW`, `tREFI` and
//! `tRFC` (Table III). The model is timing only: requests and completions
//! carry no bytes, and what a bank holds is kept by its owner (the vault
//! reads and writes it when a memory instruction issues). This crate
//! provides:
//!
//! * [`DramTiming`] — the timing parameter set (defaults from Table III),
//! * [`Bank`] — a single bank's command-legal state machine,
//! * [`MemController`] — the lightweight in-DRAM memory controller placed in
//!   each process group (paper Sec. IV-E): a 16-entry request queue, FCFS or
//!   FR-FCFS scheduling, open- or close-page row-buffer policies, and
//!   refresh scheduling,
//! * [`DramEnergy`] — activity counters and the Table III energy model,
//! * [`BankArray`] — a sparse, lazily allocated byte store for one bank's
//!   contents, kept by the bank's owner.
//!
//! Time is measured in integer cycles of the 1 GHz iPIM clock (1 cycle =
//! 1 ns), represented as `u64`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod bank;
mod controller;
mod energy;
mod idmap;
mod timing;

pub use array::BankArray;
pub use bank::{Bank, BankCmd, BankState, BankStats};
pub use controller::{
    AccessKind, Completion, Counters, LoggedEvent, MemController, PagePolicy, Request, RequestId,
    RowLocality, SchedPolicy,
};
pub use energy::{DramEnergy, EnergyParams};
pub use idmap::{IdHasher, IdMap};
pub use timing::{AddressMap, DramTiming};

/// Bytes transferred by one column access (128-bit bank interface).
pub const ACCESS_BYTES: usize = 16;
