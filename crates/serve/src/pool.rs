//! The fixed worker pool.
//!
//! Each worker thread builds its own `Session` per job — `Machine`'s
//! shared trace sink is an `Rc<RefCell<..>>`, making machines intentionally
//! `!Send`, so a machine is born, run and dropped entirely inside one
//! worker. Only plain-data [`SimRequest`]s enter and [`SimResponse`]s leave
//! (both statically `Send`; `ipim-core` carries the compile-time proof).
//!
//! Deadline semantics (graceful degradation, never worker death):
//!
//! * **admission deadline** — a job whose `deadline_ms` elapsed while it
//!   sat in the queue is answered `Timeout(DeadlineBeforeStart)` without
//!   running; under overload the pool sheds exactly the work nobody is
//!   waiting for anymore.
//! * **cycle budget** — a simulation that exhausts `max_cycles` returns
//!   `Timeout(CycleBudget {..})` with the partial-progress picture (how
//!   many vaults were still running). The worker thread survives both
//!   cases and simply takes the next job.
//!
//! The result cache is an [`Lru`] keyed by
//! [`SimRequest::fingerprint`], a canonical hash of every
//! result-determining field, so two requests that merely spell their JSON
//! differently (field order, workload name case, a deadline) share one
//! entry. Only `Done` responses are stored: timeouts depend on wall-clock
//! circumstances and errors are cheap to recompute. Its counters export
//! under `serve/cache/...`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

use ipim_core::Lru;
use ipim_trace::MetricsRegistry;

use crate::queue::JobQueue;
use crate::request::SimRequest;
use crate::response::{SimResponse, TimeoutKind};

/// Pool sizing and policy.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads (min 1). Each owns its machines outright.
    pub workers: usize,
    /// Jobs admitted but not yet started; a full queue blocks `submit`
    /// (backpressure).
    pub queue_depth: usize,
    /// Result-cache entries (0 disables caching).
    pub cache_capacity: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self { workers: 4, queue_depth: 64, cache_capacity: 128 }
    }
}

struct Job {
    request: SimRequest,
    admitted: Instant,
    reply: mpsc::Sender<SimResponse>,
}

/// Aggregate pool counters (monotone, lock-free).
#[derive(Default)]
struct PoolCounters {
    completed: AtomicU64,
    timeouts: AtomicU64,
    errors: AtomicU64,
}

/// A handle to one submitted job's eventual response.
pub struct Ticket {
    rx: mpsc::Receiver<SimResponse>,
}

impl Ticket {
    /// Blocks until the response arrives. A worker always replies (even a
    /// shed or failed job gets a `Timeout`/`Error`), so a disconnected
    /// channel can only mean the pool was torn down under us.
    pub fn wait(self) -> SimResponse {
        self.rx.recv().unwrap_or_else(|_| SimResponse::Error("pool shut down before reply".into()))
    }
}

/// A fixed pool of simulation workers behind a bounded queue and a shared
/// result cache.
pub struct ServePool {
    queue: Arc<JobQueue<Job>>,
    cache: Arc<Mutex<Lru<SimResponse>>>,
    counters: Arc<PoolCounters>,
    workers: Vec<thread::JoinHandle<u64>>,
}

impl ServePool {
    /// Starts `config.workers` worker threads.
    pub fn start(config: &PoolConfig) -> Self {
        let queue = Arc::new(JobQueue::bounded(config.queue_depth));
        let cache = Arc::new(Mutex::new(Lru::new(config.cache_capacity)));
        let counters = Arc::new(PoolCounters::default());
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let queue = queue.clone();
                let cache = cache.clone();
                let counters = counters.clone();
                thread::Builder::new()
                    .name(format!("ipim-serve-{i}"))
                    .spawn(move || worker_loop(&queue, &cache, &counters))
                    .expect("spawn worker")
            })
            .collect();
        Self { queue, cache, counters, workers }
    }

    /// Submits one job, blocking while the queue is full. The returned
    /// [`Ticket`] resolves to the job's response.
    pub fn submit(&self, request: SimRequest) -> Ticket {
        let (tx, rx) = mpsc::channel();
        let job = Job { request, admitted: Instant::now(), reply: tx };
        if let Err(job) = self.queue.push(job) {
            let _ = job.reply.send(SimResponse::Error("pool is shut down".into()));
        }
        Ticket { rx }
    }

    /// Submits a batch and waits for all responses, in request order.
    pub fn run_all(&self, requests: impl IntoIterator<Item = SimRequest>) -> Vec<SimResponse> {
        let tickets: Vec<Ticket> = requests.into_iter().map(|r| self.submit(r)).collect();
        tickets.into_iter().map(Ticket::wait).collect()
    }

    /// Jobs currently admitted but not yet started.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Snapshot of pool + cache counters under `serve/...`.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::default();
        reg.counter_add("serve/pool/completed", self.counters.completed.load(Ordering::Relaxed));
        reg.counter_add("serve/pool/timeouts", self.counters.timeouts.load(Ordering::Relaxed));
        reg.counter_add("serve/pool/errors", self.counters.errors.load(Ordering::Relaxed));
        reg.gauge_set("serve/pool/workers", self.workers.len() as f64);
        self.cache.lock().expect("cache poisoned").export_metrics(&mut reg, "serve/cache");
        ipim_core::ProgramCache::global().export_metrics(&mut reg);
        reg
    }

    /// Graceful shutdown: refuse new work, drain admitted jobs, join every
    /// worker. Returns the final metrics snapshot.
    pub fn shutdown(self) -> MetricsRegistry {
        self.queue.close();
        let mut jobs_by_worker = Vec::with_capacity(self.workers.len());
        for w in self.workers {
            jobs_by_worker.push(w.join().expect("worker panicked"));
        }
        let mut reg = MetricsRegistry::default();
        reg.counter_add("serve/pool/completed", self.counters.completed.load(Ordering::Relaxed));
        reg.counter_add("serve/pool/timeouts", self.counters.timeouts.load(Ordering::Relaxed));
        reg.counter_add("serve/pool/errors", self.counters.errors.load(Ordering::Relaxed));
        for (i, jobs) in jobs_by_worker.iter().enumerate() {
            reg.counter_add(&format!("serve/pool/worker{i}/jobs"), *jobs);
        }
        self.cache.lock().expect("cache poisoned").export_metrics(&mut reg, "serve/cache");
        ipim_core::ProgramCache::global().export_metrics(&mut reg);
        reg
    }
}

/// One worker: pop, shed-or-serve, reply, repeat until the queue ends.
fn worker_loop(
    queue: &JobQueue<Job>,
    cache: &Mutex<Lru<SimResponse>>,
    counters: &PoolCounters,
) -> u64 {
    let mut jobs = 0u64;
    while let Some(job) = queue.pop() {
        jobs += 1;
        let response = serve_one(&job, cache);
        match &response {
            SimResponse::Done(_) => counters.completed.fetch_add(1, Ordering::Relaxed),
            SimResponse::Timeout(_) => counters.timeouts.fetch_add(1, Ordering::Relaxed),
            SimResponse::Error(_) => counters.errors.fetch_add(1, Ordering::Relaxed),
        };
        // A submitter that dropped its ticket just doesn't hear the answer.
        let _ = job.reply.send(response);
    }
    jobs
}

fn serve_one(job: &Job, cache: &Mutex<Lru<SimResponse>>) -> SimResponse {
    let req = &job.request;
    if let Some(deadline_ms) = req.deadline_ms {
        if job.admitted.elapsed().as_millis() as u64 > deadline_ms {
            return SimResponse::Timeout(TimeoutKind::DeadlineBeforeStart);
        }
    }
    let fingerprint = req.fingerprint();
    if let Some(hit) = cache.lock().expect("cache poisoned").get(fingerprint) {
        return hit;
    }
    let response = match req.instantiate() {
        Ok((session, workload)) => match session.run_workload(&workload, req.max_cycles) {
            Ok(outcome) => SimResponse::from_outcome(req, outcome),
            Err(e) => SimResponse::from_error(e),
        },
        Err(msg) => SimResponse::Error(msg),
    };
    if response.is_done() {
        cache.lock().expect("cache poisoned").insert(fingerprint, response.clone());
    }
    response
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(workload: &str) -> SimRequest {
        SimRequest::named(workload, 64, 64)
    }

    #[test]
    fn pool_serves_and_shuts_down() {
        let pool = ServePool::start(&PoolConfig { workers: 2, queue_depth: 8, cache_capacity: 8 });
        let responses = pool.run_all([small("Brighten"), small("Shift")]);
        assert!(responses.iter().all(SimResponse::is_done), "{responses:?}");
        let metrics = pool.shutdown();
        assert_eq!(metrics.counter("serve/pool/completed"), 2);
        assert_eq!(metrics.counter("serve/pool/errors"), 0);
    }

    #[test]
    fn cache_hit_equals_cold_run_and_counts() {
        let pool = ServePool::start(&PoolConfig { workers: 1, queue_depth: 4, cache_capacity: 4 });
        let cold = pool.submit(small("Brighten")).wait();
        let warm = pool.submit(small("Brighten")).wait();
        assert_eq!(cold, warm, "cache hit must be bit-identical to the cold run");
        let metrics = pool.shutdown();
        assert_eq!(metrics.counter("serve/cache/hits"), 1);
        assert_eq!(metrics.counter("serve/cache/misses"), 1);
    }

    #[test]
    fn bad_requests_degrade_to_error_responses() {
        let pool = ServePool::start(&PoolConfig { workers: 1, queue_depth: 4, cache_capacity: 0 });
        let r = pool.submit(small("NoSuchKernel")).wait();
        assert!(matches!(r, SimResponse::Error(_)), "{r:?}");
        // The worker survived the bad job and serves the next one.
        let ok = pool.submit(small("Brighten")).wait();
        assert!(ok.is_done());
        let metrics = pool.shutdown();
        assert_eq!(metrics.counter("serve/pool/errors"), 1);
    }

    #[test]
    fn errors_are_not_cached() {
        let pool = ServePool::start(&PoolConfig { workers: 1, queue_depth: 4, cache_capacity: 4 });
        for _ in 0..2 {
            let r = pool.submit(small("NoSuchKernel")).wait();
            assert!(matches!(r, SimResponse::Error(_)), "{r:?}");
        }
        let metrics = pool.shutdown();
        assert_eq!(metrics.counter("serve/pool/errors"), 2);
        assert_eq!(metrics.counter("serve/cache/hits"), 0);
        assert_eq!(metrics.counter("serve/cache/misses"), 2);
    }

    #[test]
    fn cycle_budget_exhaustion_degrades_to_timeout() {
        let mut req = small("Blur");
        req.max_cycles = 10; // far too small to quiesce
        let pool = ServePool::start(&PoolConfig { workers: 1, queue_depth: 4, cache_capacity: 4 });
        let r = pool.submit(req).wait();
        match r {
            SimResponse::Timeout(TimeoutKind::CycleBudget { max_cycles, stuck_vaults }) => {
                assert_eq!(max_cycles, 10);
                assert!(stuck_vaults > 0);
            }
            other => panic!("expected cycle-budget timeout, got {other:?}"),
        }
        // Timeouts are not memoized: a retry with the same fingerprint
        // reruns (and here times out again, but freshly).
        let again = pool.submit(SimRequest { max_cycles: 10, ..small("Blur") }).wait();
        assert!(again.is_timeout());
        let metrics = pool.shutdown();
        assert_eq!(metrics.counter("serve/pool/timeouts"), 2);
        assert_eq!(metrics.counter("serve/cache/hits"), 0);
    }

    #[test]
    fn expired_deadline_sheds_the_job_before_running() {
        let mut req = small("Brighten");
        req.deadline_ms = Some(0);
        let pool = ServePool::start(&PoolConfig { workers: 1, queue_depth: 4, cache_capacity: 4 });
        // Hold the worker busy so the deadline job sits in the queue past
        // its (zero) deadline. The blocker must outlast the 5 ms sleep by
        // a wide margin: Blur at 256² simulates for tens of milliseconds.
        let busy = pool.submit(SimRequest::named("Blur", 256, 256));
        std::thread::sleep(std::time::Duration::from_millis(5));
        let shed = pool.submit(req).wait();
        assert_eq!(shed, SimResponse::Timeout(TimeoutKind::DeadlineBeforeStart));
        assert!(busy.wait().is_done());
        pool.shutdown();
    }
}
