//! A real-TCP test backend: a `ServePool` behind a listener, one
//! `serve_stream` thread per accepted connection, and a `kill()` that
//! models a backend crash (existing connections reset, new connects
//! refused).
//!
//! Each test binary compiles its own copy of this module and uses a
//! different subset of it (only `failover.rs` kills and restarts
//! backends, only the cache tests read `pool`), so the unused-item lints
//! are per-binary noise here.
#![allow(dead_code)]

use std::io::BufReader;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use ipim_serve::server::serve_stream;
use ipim_serve::{PoolConfig, ServePool};
use ipim_trace::{Metric, MetricsRegistry};

pub struct TestBackend {
    pub addr: String,
    pub pool: Arc<ServePool>,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    accept: Option<JoinHandle<()>>,
}

pub fn spawn_backend(workers: usize, cache_capacity: usize) -> TestBackend {
    spawn_backend_at("127.0.0.1:0", workers, cache_capacity)
}

/// A backend listening on `addr`: a fresh process on a killed backend's
/// address is how a test brings that backend back.
pub fn spawn_backend_at(addr: &str, workers: usize, cache_capacity: usize) -> TestBackend {
    let listener = TcpListener::bind(addr).expect("bind test backend");
    let addr = listener.local_addr().unwrap().to_string();
    let pool = Arc::new(ServePool::start(&PoolConfig { workers, queue_depth: 64, cache_capacity }));
    let stop = Arc::new(AtomicBool::new(false));
    let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
    let accept = {
        let (pool, stop, conns) = (pool.clone(), stop.clone(), conns.clone());
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::Acquire) {
                    break; // drops the listener: connects now refused
                }
                let Ok(stream) = stream else { break };
                conns.lock().unwrap().push(stream.try_clone().unwrap());
                let pool = pool.clone();
                std::thread::spawn(move || {
                    let reader = BufReader::new(stream.try_clone().unwrap());
                    let _ = serve_stream(reader, &stream, &*pool);
                });
            }
        })
    };
    TestBackend { addr, pool, stop, conns, accept: Some(accept) }
}

impl TestBackend {
    /// Crash the backend: stop accepting (new connects are refused once
    /// the listener drops) and reset every live connection so clients see
    /// EOF immediately. The pool itself is leaked — a crashed process
    /// doesn't get to clean up either.
    pub fn kill(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Wake the accept loop so it observes `stop` and drops the
        // listener.
        let _ = TcpStream::connect(&self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for c in self.conns.lock().unwrap().drain(..) {
            let _ = c.shutdown(Shutdown::Both);
        }
    }
}

/// Every backend's in-flight gauge must read 0 once the router drained:
/// each charge taken at dispatch was released by a finish or a bounce.
pub fn assert_nothing_in_flight(metrics: &MetricsRegistry, backends: usize) {
    for i in 0..backends {
        let key = format!("shard/backend{i}/in_flight");
        assert_eq!(metrics.get(&key), Some(&Metric::Gauge(0.0)), "{key} after shutdown");
    }
}
