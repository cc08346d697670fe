//! Zero-dependency determinism toolkit for the iPIM reproduction.
//!
//! The whole workspace builds offline with no external crates (see
//! DESIGN.md §5, "Zero external dependencies"). This crate supplies the
//! two pieces of infrastructure the simulator would otherwise pull from
//! crates.io:
//!
//! * [`rng`] — a seedable xoshiro256++ PRNG (SplitMix64-initialized) with
//!   the integer/float/range/shuffle helpers workload synthesis needs,
//! * [`prop`] — a minimal property-testing harness (generator combinators,
//!   greedy shrinking, failure-seed replay) replacing `proptest`.
//!
//! Everything here is deterministic given a seed; no wall-clock, thread,
//! or platform state leaks into generated values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod prop;
pub mod rng;

pub use prop::{check, check_with, Config, Gen};
pub use rng::Rng;
