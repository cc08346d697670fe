//! # ipim-shard — the distributed serve tier for the iPIM reproduction
//!
//! A std-only front tier that shards [`SimRequest`](ipim_serve::SimRequest)
//! streams over N `ipim_served --tcp` backends across real TCP:
//!
//! - **[`HashRing`]** — consistent hashing of the request's
//!   content-addressed fingerprint (the same key the backend pool's
//!   result cache uses). Each fingerprint has two choices: its owner and
//!   the next backend clockwise, both pure functions of the config.
//! - **[`ShardRouter`]** — two-choice, load-aware routing: a job goes to
//!   its owner unless the second choice has strictly fewer jobs in flight,
//!   so an idle system routes exactly as plain consistent hashing and a
//!   repeat job finds at most two warm caches. Per-backend bounded
//!   queues and in-flight windows (backpressure reaches the submitter),
//!   retry-with-backoff on connection failure (seeded `simkit` jitter —
//!   no wall-clock randomness), deadline shedding at the front, health
//!   probing with ejection/readmission, and graceful drain on shutdown.
//!   Counters export under `shard/...`.
//! - **Protocol reuse** — [`ShardRouter`] implements
//!   [`LineService`](ipim_serve::LineService), so `ipim_served --backend`
//!   serves a fleet with the identical ndjson protocol `ipim_served`
//!   serves a local pool with: clients don't know (or care) whether they
//!   talk to one machine or a fleet.
//!
//! Determinism contract: which of a job's two choices serves it depends
//! on in-flight counts, but its answer does not — simulation is
//! deterministic, backends forward lines verbatim and arrived lines are
//! never retried, so a sharded run's responses are bit-identical (output
//! hashes, report hashes, fingerprints) to the same jobs run serially on
//! one backend. The `shard_vs_serial` tests and the CI `shard_soak` step
//! hold this bar.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod ring;
mod router;

pub use ring::HashRing;
pub use router::{RetryPolicy, ShardConfig, ShardRouter, ShardTicket};
