//! # ipim-serve — simulator-as-a-service for the iPIM reproduction
//!
//! PIM evaluation is dominated by *fleets* of workload × configuration
//! jobs, not single runs. This crate turns the single-threaded
//! [`Session`](ipim_core::Session) API into a hermetic, std-only service:
//!
//! - **[`SimRequest`] / [`SimResponse`]** — plain-data job descriptions and
//!   results with a canonical content hash ([`SimRequest::fingerprint`]).
//!   Machines are intentionally `!Send` (their shared trace sink is an
//!   `Rc<RefCell<..>>`); only these plain values cross threads.
//! - **[`JobQueue`]** — a bounded MPMC queue (std `Mutex` + `Condvar`)
//!   giving backpressure at admission and graceful drain on shutdown.
//! - **[`ServePool`]** — a fixed set of worker threads, each owning its
//!   machines outright, with per-job deadline/cycle-budget degradation
//!   (a timed-out job answers `Timeout`, the worker lives on).
//!   Its result cache, keyed by [`SimRequest::fingerprint`], memoizes `Done`
//!   responses in an [`Lru`](ipim_core::Lru); hits are bit-identical to
//!   cold runs because simulation is deterministic. Counters export into
//!   the `ipim-trace` [`MetricsRegistry`](ipim_trace::MetricsRegistry)
//!   under `serve/...`.
//! - **[`server`]** — the ndjson request/response protocol, one streaming
//!   pacing for every transport, behind the `ipim_served` binary
//!   (stdin/stdout or TCP, in front of a local pool or a shard router) and
//!   the `loadgen` closed-loop load generator (both in `ipim-bench`).
//!
//! ## Quickstart
//!
//! ```
//! use ipim_serve::{PoolConfig, ServePool, SimRequest};
//!
//! let pool = ServePool::start(&PoolConfig { workers: 2, ..PoolConfig::default() });
//! let responses = pool.run_all([
//!     SimRequest::named("Brighten", 64, 64),
//!     SimRequest::named("Shift", 64, 64),
//! ]);
//! assert!(responses.iter().all(|r| r.is_done()));
//! let metrics = pool.shutdown();
//! assert_eq!(metrics.counter("serve/pool/completed"), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;
mod queue;
mod request;
mod response;
pub mod server;

pub use ipim_core::{fnv1a, ComputeRootPolicy, ScheduleOverride};
pub use pool::{PoolConfig, ServePool, Ticket};
pub use queue::JobQueue;
pub use request::SimRequest;
pub use response::{image_hash, report_hash, DoneResponse, SimResponse, TimeoutKind};
pub use server::{LineService, PendingLine};
