//! The shard front: admission, routing, retry, probing, drain.
//!
//! A [`ShardRouter`] owns one [`Backend`] per
//! configured address, each with its own bounded queue and link thread.
//! [`submit`](ShardRouter::submit) routes by the request's content
//! fingerprint over the [`HashRing`] and blocks when the chosen backend's
//! queue is full — backpressure reaches the caller, exactly as with a
//! local [`ServePool`](ipim_serve::ServePool).
//!
//! Routing takes two choices on the ring: the fingerprint's owner, unless
//! its second choice has strictly fewer jobs in flight. Each backend
//! counts the jobs charged to it from dispatch until they are finished or
//! bounced, so a busy owner no longer queues jobs while the other backend
//! idles; an idle system routes every job to its owner, and a fingerprint
//! has at most two warm caches.
//!
//! Retry lives in one place: a failed attempt (connect refused, connection
//! died pre-response) *bounces* through an unbounded channel to the retry
//! thread, which sleeps the backoff (base·2^attempts plus seeded jitter —
//! `simkit` PRNG, no wall-clock randomness) and re-dispatches. Only
//! `submit` callers and the retry thread ever push into the bounded
//! backend queues; link and reader threads only bounce — so two full
//! backends can never deadlock each other by mutually re-routing.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ipim_serve::{LineService, PendingLine, SimRequest, SimResponse, TimeoutKind};
use ipim_simkit::Rng;
use ipim_trace::{json, MetricsRegistry};

use crate::backend::{link_loop, Backend};
use crate::ring::HashRing;

/// When and how hard to retry a failed attempt.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per job (first try included, min 1).
    pub max_attempts: usize,
    /// Base backoff before re-dispatch; doubles per failed attempt
    /// (capped at 1s).
    pub backoff_ms: u64,
    /// Uniform jitter added to every backoff, drawn from the router's
    /// seeded PRNG (0 disables).
    pub jitter_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 4, backoff_ms: 10, jitter_ms: 5 }
    }
}

/// Shard front configuration.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Backend addresses (`host:port` of `ipim_served --tcp`).
    pub backends: Vec<String>,
    /// Virtual nodes per backend on the hash ring.
    pub replicas: usize,
    /// Response lines outstanding per connection before the link blocks.
    pub window: usize,
    /// Routed-but-unwritten jobs per backend before `submit` blocks.
    pub queue_depth: usize,
    /// Retry/backoff policy for failed attempts.
    pub retry: RetryPolicy,
    /// Health-probe cadence for ejected backends.
    pub probe_ms: u64,
    /// Seed for backoff jitter and probe-cadence jitter.
    pub seed: u64,
}

impl ShardConfig {
    /// The default policy over a given backend list.
    pub fn over(backends: Vec<String>) -> Self {
        Self {
            backends,
            replicas: 32,
            window: 4,
            queue_depth: 16,
            retry: RetryPolicy::default(),
            probe_ms: 50,
            seed: 0x5AAD_0007,
        }
    }
}

/// One admitted job on its way through the shard.
pub(crate) struct ShardJob {
    pub req: SimRequest,
    /// Cached [`SimRequest::fingerprint`] — the routing key.
    pub fingerprint: u64,
    /// Admission time, for front-door deadline shedding.
    pub admitted: Instant,
    /// Failed attempts so far.
    pub attempts: usize,
    /// Backends that already failed this job (ring skips them while
    /// alternatives exist).
    pub tried: Vec<usize>,
    /// The backend whose in-flight count this job is charged to, from
    /// dispatch until [`Shared::finish`] or [`Shared::bounce`].
    pub backend: Option<usize>,
    /// Where the final response line goes.
    pub reply: mpsc::Sender<String>,
}

/// Monotone shard counters (exported under `shard/...`).
#[derive(Default)]
pub(crate) struct Counters {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub shed: AtomicU64,
    pub errors: AtomicU64,
    pub backend_errors: AtomicU64,
    pub timeouts: AtomicU64,
    pub retries: AtomicU64,
    pub spills: AtomicU64,
    pub ejections: AtomicU64,
    pub readmissions: AtomicU64,
    pub probes: AtomicU64,
    pub unsolicited: AtomicU64,
    pub fingerprint_mismatches: AtomicU64,
}

/// State shared by the front, link, reader, retry and probe threads.
pub(crate) struct Shared {
    pub config: ShardConfig,
    pub ring: HashRing,
    pub backends: Vec<Backend>,
    pub counters: Counters,
    /// `Some` while the retry thread is accepting bounces.
    retry_tx: Mutex<Option<mpsc::Sender<ShardJob>>>,
    /// Jobs admitted but not yet answered; `drained` fires at zero.
    outstanding: Mutex<u64>,
    drained: Condvar,
    /// Refuse new submissions (set first at shutdown).
    pub closing: AtomicBool,
    /// Teardown underway: probes stop, connection deaths stop ejecting.
    pub stopping: AtomicBool,
    /// Seeded jitter source — determinism per seed, no wall-clock entropy.
    rng: Mutex<Rng>,
}

impl Shared {
    fn jitter(&self, bound_ms: u64) -> u64 {
        if bound_ms == 0 {
            0
        } else {
            self.rng.lock().expect("rng poisoned").range_u64(bound_ms + 1)
        }
    }

    fn backoff(&self, attempts: usize) -> Duration {
        let exp = attempts.saturating_sub(1).min(6) as u32;
        let base = self.config.retry.backoff_ms.saturating_mul(1u64 << exp).min(1_000);
        Duration::from_millis(base + self.jitter(self.config.retry.jitter_ms))
    }

    /// Whether the job's deadline has already passed.
    pub(crate) fn shed_if_expired(&self, job: &ShardJob) -> bool {
        job.req.deadline_ms.is_some_and(|d| job.admitted.elapsed().as_millis() as u64 > d)
    }

    /// Answers a shed job with the same wire line a backend would use.
    pub(crate) fn finish_shed(&self, job: ShardJob) {
        self.counters.shed.fetch_add(1, Ordering::Relaxed);
        self.finish(job, SimResponse::Timeout(TimeoutKind::DeadlineBeforeStart).to_json_string());
    }

    fn finish_error(&self, job: ShardJob, msg: &str) {
        self.counters.errors.fetch_add(1, Ordering::Relaxed);
        self.finish(job, SimResponse::Error(msg.to_string()).to_json_string());
    }

    /// Releases the job's in-flight charge, if it holds one.
    fn release(&self, job: &mut ShardJob) {
        if let Some(idx) = job.backend.take() {
            self.backends[idx].in_flight.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Delivers the final line for a job. Every admitted job reaches this
    /// exactly once; it is the only place `outstanding` decrements. The
    /// charge goes first, so a closed-loop caller's next job sees it gone.
    fn finish(&self, mut job: ShardJob, line: String) {
        self.release(&mut job);
        // A caller that dropped its ticket just doesn't hear the answer.
        let _ = job.reply.send(line);
        let mut g = self.outstanding.lock().expect("outstanding poisoned");
        *g -= 1;
        if *g == 0 {
            self.drained.notify_all();
        }
    }

    /// A response line arrived for `job` on backend `idx` — classify it
    /// for the counters, cross-check the echoed fingerprint, forward the
    /// line verbatim. Arrived lines are **final**: an in-band error is the
    /// backend's answer, never grounds for a retry.
    pub(crate) fn answer(&self, idx: usize, job: ShardJob, line: String) {
        self.backends[idx].answered.fetch_add(1, Ordering::Relaxed);
        match json::parse(&line).ok().and_then(|v| {
            v.get("status").and_then(|s| s.as_str().map(String::from)).map(|s| (s, v))
        }) {
            Some((status, v)) if status == "done" => {
                self.counters.completed.fetch_add(1, Ordering::Relaxed);
                let echoed = v
                    .get("fingerprint")
                    .and_then(|f| f.as_str().map(String::from))
                    .and_then(|hex| u64::from_str_radix(&hex, 16).ok());
                if echoed != Some(job.fingerprint) {
                    // The backend derived a different cache key from the
                    // wire bytes than we routed on — a protocol bug worth
                    // counting loudly (tests assert this stays 0).
                    self.counters.fingerprint_mismatches.fetch_add(1, Ordering::Relaxed);
                }
            }
            Some((status, _)) if status == "timeout" => {
                self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                self.counters.backend_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.finish(job, line);
    }

    /// Marks backend `idx` ineligible for routing (idempotent; counts
    /// only the edge).
    pub(crate) fn eject(&self, idx: usize) {
        if self.backends[idx].healthy.swap(false, Ordering::AcqRel) {
            self.counters.ejections.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// An attempt on backend `from` failed before a response arrived:
    /// charge the attempt and either give up (in-band error) or hand the
    /// job to the retry thread. Never blocks — safe from link and reader
    /// threads.
    pub(crate) fn bounce(&self, from: usize, mut job: ShardJob) {
        debug_assert_eq!(job.backend, Some(from), "a bounced job is charged to its backend");
        self.release(&mut job);
        if !job.tried.contains(&from) {
            job.tried.push(from);
        }
        job.attempts += 1;
        let budget = self.config.retry.max_attempts.max(1);
        if job.attempts >= budget {
            let addr = &self.backends[from].addr;
            let msg =
                format!("shard: gave up after {budget} attempt(s); last backend {addr} failed");
            self.finish_error(job, &msg);
            return;
        }
        self.counters.retries.fetch_add(1, Ordering::Relaxed);
        self.requeue(job);
    }

    fn requeue(&self, job: ShardJob) {
        let sent = match &*self.retry_tx.lock().expect("retry_tx poisoned") {
            Some(tx) => tx.send(job).map_err(|e| e.0),
            None => Err(job),
        };
        if let Err(job) = sent {
            self.finish_error(job, "shard is shutting down");
        }
    }

    /// Routes one admitted job to the owner of its two choices, or to the
    /// second when that one has strictly fewer jobs in flight, and charges
    /// it there. May block on that backend's bounded queue (backpressure) —
    /// called only from `submit` callers and the retry thread, never from
    /// link or reader threads.
    fn dispatch(&self, mut job: ShardJob) {
        if self.shed_if_expired(&job) {
            self.finish_shed(job);
            return;
        }
        let healthy: Vec<bool> =
            self.backends.iter().map(|b| b.healthy.load(Ordering::Acquire)).collect();
        match self.ring.two_choices(job.fingerprint, &healthy, &job.tried) {
            Some((owner, second)) => {
                let load = |b: usize| self.backends[b].in_flight.load(Ordering::Relaxed);
                let idx = match second {
                    Some(b) if load(b) < load(owner) => {
                        self.counters.spills.fetch_add(1, Ordering::Relaxed);
                        b
                    }
                    _ => owner,
                };
                self.backends[idx].in_flight.fetch_add(1, Ordering::Relaxed);
                job.backend = Some(idx);
                self.backends[idx].dispatched.fetch_add(1, Ordering::Relaxed);
                if let Err(job) = self.backends[idx].queue.push(job) {
                    self.finish_error(job, "shard is shutting down");
                }
            }
            None => {
                // Nothing healthy right now. Spend an attempt waiting out
                // a backoff — a probe may readmit someone — or give up.
                job.attempts += 1;
                if job.attempts >= self.config.retry.max_attempts.max(1) {
                    self.finish_error(job, "shard: no healthy backend");
                } else {
                    self.counters.retries.fetch_add(1, Ordering::Relaxed);
                    self.requeue(job);
                }
            }
        }
    }

    fn export_metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::default();
        let c = &self.counters;
        for (name, v) in [
            ("shard/submitted", &c.submitted),
            ("shard/completed", &c.completed),
            ("shard/shed", &c.shed),
            ("shard/errors", &c.errors),
            ("shard/backend_errors", &c.backend_errors),
            ("shard/timeouts", &c.timeouts),
            ("shard/retries", &c.retries),
            ("shard/spills", &c.spills),
            ("shard/ejections", &c.ejections),
            ("shard/readmissions", &c.readmissions),
            ("shard/probes", &c.probes),
            ("shard/unsolicited", &c.unsolicited),
            ("shard/fingerprint_mismatches", &c.fingerprint_mismatches),
        ] {
            reg.counter_add(name, v.load(Ordering::Relaxed));
        }
        reg.gauge_set("shard/backends", self.backends.len() as f64);
        for (i, b) in self.backends.iter().enumerate() {
            reg.counter_add(
                &format!("shard/backend{i}/dispatched"),
                b.dispatched.load(Ordering::Relaxed),
            );
            reg.counter_add(
                &format!("shard/backend{i}/answered"),
                b.answered.load(Ordering::Relaxed),
            );
            reg.gauge_set(
                &format!("shard/backend{i}/in_flight"),
                b.in_flight.load(Ordering::Relaxed) as f64,
            );
        }
        reg
    }
}

/// A handle to one submitted job's eventual response line.
pub struct ShardTicket {
    rx: mpsc::Receiver<String>,
}

impl ShardTicket {
    /// Blocks until the response line arrives. The shard always answers —
    /// shed, gave-up and shutdown cases all produce in-band lines — so a
    /// disconnected channel can only mean the router was torn down.
    pub fn wait(self) -> String {
        self.rx.recv().unwrap_or_else(|_| {
            SimResponse::Error("shard shut down before reply".into()).to_json_string()
        })
    }
}

impl PendingLine for ShardTicket {
    fn into_line(self) -> String {
        self.wait()
    }
}

/// The distributed front tier: two-choice consistent-hash routing of
/// [`SimRequest`]s over N TCP backends, with bounded in-flight windows,
/// deterministic retry-with-backoff, health probing and graceful drain.
pub struct ShardRouter {
    shared: Arc<Shared>,
    links: Vec<JoinHandle<()>>,
    retry: Option<JoinHandle<()>>,
    probe: Option<JoinHandle<()>>,
}

impl ShardRouter {
    /// Starts the router: one link thread per backend (connections are
    /// opened lazily, on first routed job), the retry thread and the
    /// probe thread.
    ///
    /// # Panics
    ///
    /// Panics if `config.backends` is empty.
    pub fn start(config: &ShardConfig) -> Self {
        assert!(!config.backends.is_empty(), "shard needs at least one backend");
        let ring = HashRing::new(config.backends.len(), config.replicas);
        let backends: Vec<Backend> = config
            .backends
            .iter()
            .map(|addr| Backend::new(addr.clone(), config.queue_depth))
            .collect();
        let (retry_tx, retry_rx) = mpsc::channel::<ShardJob>();
        let shared = Arc::new(Shared {
            config: config.clone(),
            ring,
            backends,
            counters: Counters::default(),
            retry_tx: Mutex::new(Some(retry_tx)),
            outstanding: Mutex::new(0),
            drained: Condvar::new(),
            closing: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            rng: Mutex::new(Rng::new(config.seed)),
        });
        let links = (0..shared.backends.len())
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("ipim-shard-link-{i}"))
                    .spawn(move || link_loop(&shared, i))
                    .expect("spawn link")
            })
            .collect();
        let retry = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("ipim-shard-retry".into())
                .spawn(move || retry_loop(&shared, &retry_rx))
                .expect("spawn retry")
        };
        let probe = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("ipim-shard-probe".into())
                .spawn(move || probe_loop(&shared))
                .expect("spawn probe")
        };
        Self { shared, links, retry: Some(retry), probe: Some(probe) }
    }

    /// Submits one request, blocking while the chosen backend's queue is
    /// full. The ticket resolves to the backend's response line verbatim
    /// (or an in-band shard line: shed, gave-up, shutting down).
    pub fn submit(&self, req: SimRequest) -> ShardTicket {
        let (tx, rx) = mpsc::channel();
        if self.shared.closing.load(Ordering::Acquire) {
            let _ = tx.send(SimResponse::Error("shard is shutting down".into()).to_json_string());
            return ShardTicket { rx };
        }
        self.shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
        *self.shared.outstanding.lock().expect("outstanding poisoned") += 1;
        let job = ShardJob {
            fingerprint: req.fingerprint(),
            req,
            admitted: Instant::now(),
            attempts: 0,
            tried: Vec::new(),
            backend: None,
            reply: tx,
        };
        self.shared.dispatch(job);
        ShardTicket { rx }
    }

    /// Submits a batch and waits for all response lines, in request order.
    pub fn run_all(&self, requests: impl IntoIterator<Item = SimRequest>) -> Vec<String> {
        let tickets: Vec<ShardTicket> = requests.into_iter().map(|r| self.submit(r)).collect();
        tickets.into_iter().map(ShardTicket::wait).collect()
    }

    /// Backends this router shards over.
    pub fn backends(&self) -> usize {
        self.shared.backends.len()
    }

    /// Snapshot of the shard counters under `shard/...`.
    pub fn metrics(&self) -> MetricsRegistry {
        self.shared.export_metrics()
    }

    /// Graceful drain: refuse new submissions, wait for every admitted
    /// job to be answered (completing, retrying or giving up as policy
    /// dictates), then tear down all threads. Returns the final metrics.
    pub fn shutdown(self) -> MetricsRegistry {
        self.shared.closing.store(true, Ordering::Release);
        {
            let mut g = self.shared.outstanding.lock().expect("outstanding poisoned");
            while *g > 0 {
                g = self.shared.drained.wait(g).expect("outstanding poisoned");
            }
        }
        // Everything is answered; now stop the machinery.
        self.shared.stopping.store(true, Ordering::Release);
        *self.shared.retry_tx.lock().expect("retry_tx poisoned") = None;
        for b in &self.shared.backends {
            b.queue.close();
        }
        for h in self.links {
            h.join().expect("link thread panicked");
        }
        if let Some(h) = self.retry {
            h.join().expect("retry thread panicked");
        }
        if let Some(h) = self.probe {
            h.join().expect("probe thread panicked");
        }
        self.shared.export_metrics()
    }
}

impl LineService for ShardRouter {
    type Pending = ShardTicket;

    fn dispatch(&self, req: SimRequest) -> ShardTicket {
        self.submit(req)
    }
}

/// The retry thread: sleeps each bounced job's backoff, then re-dispatches
/// it (possibly blocking on the target queue — this thread may block, link
/// and reader threads never do).
fn retry_loop(shared: &Arc<Shared>, rx: &mpsc::Receiver<ShardJob>) {
    while let Ok(job) = rx.recv() {
        std::thread::sleep(shared.backoff(job.attempts));
        shared.dispatch(job);
    }
}

/// The probe thread: periodically try a TCP connect to each ejected
/// backend; success readmits it to the ring.
fn probe_loop(shared: &Arc<Shared>) {
    while !shared.stopping.load(Ordering::Acquire) {
        sleep_checking(
            Duration::from_millis(
                shared.config.probe_ms.max(1) + shared.jitter(shared.config.retry.jitter_ms),
            ),
            &shared.stopping,
        );
        if shared.stopping.load(Ordering::Acquire) {
            return;
        }
        for b in &shared.backends {
            if b.healthy.load(Ordering::Acquire) {
                continue;
            }
            shared.counters.probes.fetch_add(1, Ordering::Relaxed);
            if TcpStream::connect(&b.addr).is_ok() && !b.healthy.swap(true, Ordering::AcqRel) {
                shared.counters.readmissions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Sleeps `total` in small chunks so shutdown is never stuck behind a
/// long probe pause.
fn sleep_checking(total: Duration, stop: &AtomicBool) {
    let mut left = total;
    while !left.is_zero() && !stop.load(Ordering::Acquire) {
        let chunk = left.min(Duration::from_millis(25));
        std::thread::sleep(chunk);
        left -= chunk;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A port nobody listens on: bind-then-drop reserves a fresh one.
    fn dead_addr() -> String {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    }

    fn fast_config(backends: Vec<String>) -> ShardConfig {
        ShardConfig {
            retry: RetryPolicy { max_attempts: 3, backoff_ms: 2, jitter_ms: 1 },
            probe_ms: 10,
            ..ShardConfig::over(backends)
        }
    }

    #[test]
    fn unreachable_backends_exhaust_retries_into_inband_errors() {
        let router = ShardRouter::start(&fast_config(vec![dead_addr(), dead_addr()]));
        let lines = router
            .run_all([SimRequest::named("Brighten", 16, 16), SimRequest::named("Shift", 16, 16)]);
        for line in &lines {
            assert!(line.contains("\"status\":\"error\""), "{line}");
        }
        let m = router.shutdown();
        assert_eq!(m.counter("shard/submitted"), 2);
        assert_eq!(m.counter("shard/errors"), 2);
        assert_eq!(m.counter("shard/completed"), 0);
        assert!(m.counter("shard/ejections") >= 1, "dead backends must be ejected");
        assert!(m.counter("shard/retries") >= 1, "attempts must be retried before giving up");
    }

    #[test]
    fn expired_deadline_is_shed_not_errored() {
        // The only backend refuses connections, but the job's deadline
        // (0 ms) expires before its retry budget does: the front must
        // answer the deadline timeout, not a gave-up error.
        let router = ShardRouter::start(&fast_config(vec![dead_addr()]));
        let mut req = SimRequest::named("Brighten", 16, 16);
        req.deadline_ms = Some(0);
        let line = router.submit(req).wait();
        assert!(line.contains("\"status\":\"timeout\""), "{line}");
        assert!(line.contains("deadline"), "{line}");
        let m = router.shutdown();
        assert_eq!(m.counter("shard/shed"), 1);
        assert_eq!(m.counter("shard/errors"), 0);
    }

    #[test]
    fn submit_after_shutdown_is_refused_inband() {
        let router = ShardRouter::start(&fast_config(vec![dead_addr()]));
        router.shared.closing.store(true, Ordering::Release);
        let line = router.submit(SimRequest::named("Brighten", 16, 16)).wait();
        assert!(line.contains("shutting down"), "{line}");
        let m = router.shutdown();
        assert_eq!(m.counter("shard/submitted"), 0);
    }

    #[test]
    fn idle_shutdown_joins_cleanly() {
        let router = ShardRouter::start(&fast_config(vec![dead_addr(), dead_addr(), dead_addr()]));
        let m = router.shutdown();
        assert_eq!(m.counter("shard/submitted"), 0);
        assert!(m.get("shard/backends").is_some());
    }
}
