//! One TCP backend: a bounded queue, a link thread, and a reader thread.
//!
//! The link thread owns the backend's connection lifecycle: it pops jobs
//! from the backend's [`JobQueue`], (re)connects lazily, reserves a slot in
//! the bounded in-flight window (backpressure toward the router), and
//! writes the request line. A reader thread per connection forwards each
//! response line — verbatim — to the job that is next in FIFO order (the
//! ndjson protocol guarantees response *n* pairs with request *n* on one
//! connection).
//!
//! Failure handling is strictly *at-most-once per attempt*: a job is
//! retried only when its connection died **before its response line
//! arrived** — the in-flight queue is drained back to the router under the
//! same mutex that guards arrival, so a response and a retry can never
//! race. A line that did arrive is final, even if it is an in-band error:
//! backends answer protocol problems in-band precisely so the front can
//! tell "the backend rejected this job" (don't retry) from "the backend
//! vanished" (do).

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use ipim_serve::JobQueue;

use crate::router::{ShardJob, Shared};

/// Per-backend state shared between the router front and the link thread.
pub(crate) struct Backend {
    /// `host:port` of the `ipim_served --tcp` process.
    pub addr: String,
    /// Jobs routed here but not yet written to the connection.
    pub queue: JobQueue<ShardJob>,
    /// Routing eligibility: cleared on connect failure or connection
    /// death (ejection), restored by a successful probe or reconnect
    /// (readmission).
    pub healthy: AtomicBool,
    /// Jobs the ring routed here (including ones later bounced away).
    pub dispatched: AtomicU64,
    /// Jobs charged here and not yet finished or bounced: queued, in the
    /// window or being served. The router's load signal; it publishes no
    /// other data, so every access is `Relaxed`.
    pub in_flight: AtomicU64,
    /// Response lines this backend answered.
    pub answered: AtomicU64,
}

impl Backend {
    pub(crate) fn new(addr: String, queue_depth: usize) -> Self {
        Self {
            addr,
            queue: JobQueue::bounded(queue_depth),
            healthy: AtomicBool::new(true),
            dispatched: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            answered: AtomicU64::new(0),
        }
    }
}

struct InflightState {
    q: VecDeque<ShardJob>,
    dead: bool,
}

/// The bounded in-flight window of one connection. The mutex is the
/// at-most-once hinge: `push_slot` (writer side) and the reader's
/// pop/drain all hold it, so a job is either answered by its line or
/// drained for retry — never both.
struct Inflight {
    state: Mutex<InflightState>,
    space: Condvar,
}

impl Inflight {
    fn new() -> Self {
        Self {
            state: Mutex::new(InflightState { q: VecDeque::new(), dead: false }),
            space: Condvar::new(),
        }
    }

    /// Reserves a window slot, blocking while `window` jobs are already
    /// in flight. Returns the job back if the connection died while (or
    /// before) waiting — the `Err` *is* the job, ownership returning to
    /// the caller for a retry, so its size is the point.
    #[allow(clippy::result_large_err)]
    fn push_slot(&self, window: usize, job: ShardJob) -> Result<(), ShardJob> {
        let mut s = self.state.lock().expect("inflight poisoned");
        while s.q.len() >= window && !s.dead {
            s = self.space.wait(s).expect("inflight poisoned");
        }
        if s.dead {
            return Err(job);
        }
        s.q.push_back(job);
        Ok(())
    }
}

/// One live connection: the write half, its in-flight window, and the
/// reader thread draining the read half.
struct Conn {
    stream: TcpStream,
    inflight: Arc<Inflight>,
    window: usize,
    reader: Option<JoinHandle<()>>,
}

impl Conn {
    fn open(shared: &Arc<Shared>, idx: usize) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(&shared.backends[idx].addr)?;
        // Up to `window` request lines are in flight at once: with Nagle
        // on, line n+1 would wait for line n's (delayed) ACK.
        stream.set_nodelay(true)?;
        let inflight = Arc::new(Inflight::new());
        let read_half = stream.try_clone()?;
        let reader = {
            let shared = shared.clone();
            let inflight = inflight.clone();
            std::thread::Builder::new()
                .name(format!("ipim-shard-read-{idx}"))
                .spawn(move || reader_loop(&shared, idx, read_half, &inflight))
                .expect("spawn reader")
        };
        Ok(Conn { stream, inflight, window: shared.config.window.max(1), reader: Some(reader) })
    }

    fn dead(&self) -> bool {
        self.inflight.state.lock().expect("inflight poisoned").dead
    }

    /// Reserves a window slot and writes the request line. A write error
    /// is not reported here: the job already holds its slot, so we force
    /// the connection down and let the reader's drain path bounce it
    /// (one code path for every lost-connection case).
    #[allow(clippy::result_large_err)]
    fn send(&mut self, job: ShardJob) -> Result<(), ShardJob> {
        let mut wire = job.req.to_json_string().into_bytes();
        wire.push(b'\n');
        self.inflight.push_slot(self.window, job)?;
        if self.stream.write_all(&wire).is_err() {
            let _ = self.stream.shutdown(Shutdown::Both);
        }
        Ok(())
    }

    /// Tears the connection down and joins the reader (which drains any
    /// in-flight jobs back to the router first).
    fn close(mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// The link thread: pops routed jobs, keeps a connection up, pushes jobs
/// into its window. Ends when the backend queue is closed and drained.
pub(crate) fn link_loop(shared: &Arc<Shared>, idx: usize) {
    let backend = &shared.backends[idx];
    let mut conn: Option<Conn> = None;
    while let Some(job) = backend.queue.pop() {
        if shared.shed_if_expired(&job) {
            shared.finish_shed(job);
            continue;
        }
        if conn.as_ref().is_none_or(Conn::dead) {
            if let Some(c) = conn.take() {
                c.close();
            }
            match Conn::open(shared, idx) {
                Ok(c) => {
                    conn = Some(c);
                    if !backend.healthy.swap(true, Ordering::AcqRel) {
                        shared.counters.readmissions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(_) => {
                    shared.eject(idx);
                    shared.bounce(idx, job);
                    continue;
                }
            }
        }
        if let Err(job) = conn.as_mut().expect("connection just ensured").send(job) {
            // The window reported the connection dead before the job got
            // a slot; the reader has already drained everyone else.
            shared.eject(idx);
            shared.bounce(idx, job);
        }
    }
    if let Some(c) = conn.take() {
        c.close();
    }
}

/// The reader thread of one connection: forwards response lines to jobs
/// in FIFO order; on connection death, drains the window back to the
/// router for retry.
fn reader_loop(shared: &Arc<Shared>, idx: usize, stream: TcpStream, inflight: &Inflight) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                let job = {
                    let mut s = inflight.state.lock().expect("inflight poisoned");
                    s.q.pop_front()
                };
                inflight.space.notify_all();
                match job {
                    Some(job) => shared.answer(idx, job, trimmed.to_string()),
                    // An unsolicited line (nothing in flight) is a protocol
                    // violation by the backend; nothing to pair it with.
                    None => {
                        shared.counters.unsolicited.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }
    // Connection over. Mark it dead and pull back every unanswered job
    // under the same lock the arrival path uses: each job is answered
    // exactly once — by its line above or by the bounce below, never both.
    let drained: Vec<ShardJob> = {
        let mut s = inflight.state.lock().expect("inflight poisoned");
        s.dead = true;
        s.q.drain(..).collect()
    };
    inflight.space.notify_all();
    if !shared.stopping.load(Ordering::Acquire) {
        shared.eject(idx);
    }
    for job in drained {
        shared.bounce(idx, job);
    }
}
