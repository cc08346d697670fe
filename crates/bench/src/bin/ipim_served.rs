//! `ipim_served` — the simulation service front-end.
//!
//! Speaks the `ipim-serve` ndjson protocol (one `SimRequest` JSON object
//! per input line, one `SimResponse` line per request, in order) in one
//! of two roles:
//!
//! * **local pool** (default) — a `ServePool` runs every simulation.
//! * **shard front** (`--backend ADDR`, repeatable) — an `ipim-shard`
//!   router forwards each request to its owner among the `ipim_served
//!   --tcp` backends (or to the next one clockwise when that has strictly
//!   fewer jobs in flight) and relays the answer verbatim.
//!
//! Either role serves stdin/stdout until input EOF, then prints a summary
//! line on stderr, or with `--tcp ADDR` a TCP listener forever, one
//! connection at a time. Each response line is flushed the moment it and
//! every earlier one have resolved, so a client may pipeline requests on
//! an open connection, or write them all, half-close and read.
//!
//! ```text
//! ipim_served --tcp 127.0.0.1:7101 &
//! ipim_served --tcp 127.0.0.1:7102 &
//! printf '{"workload":"Blur"}\n{"workload":"Shift"}\n' |
//!     ipim_served --backend 127.0.0.1:7101 --backend 127.0.0.1:7102
//! ```
//!
//! Flags: `--tcp ADDR` e.g. `127.0.0.1:7199` · `--backend ADDR` · and for
//! the local pool only (a usage error with `--backend`): `--workers N`
//! (default 4) · `--queue-depth N` (default 64) · `--cache N`
//! result-cache entries, 0 disables (default 128).

use std::io::{stdin, stdout, BufReader};
use std::net::TcpListener;

use ipim_serve::server::{serve_stream, serve_tcp, ServeSummary};
use ipim_serve::{LineService, PoolConfig, ServePool};
use ipim_shard::{ShardConfig, ShardRouter};

fn main() {
    let mut config = PoolConfig::default();
    let mut pool_flag: Option<String> = None;
    let mut backends: Vec<String> = Vec::new();
    let mut tcp_addr: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |flag: &str| args.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match a.as_str() {
            "--workers" => config.workers = parse(&val("--workers"), "--workers"),
            "--queue-depth" => config.queue_depth = parse(&val("--queue-depth"), "--queue-depth"),
            "--cache" => config.cache_capacity = parse(&val("--cache"), "--cache"),
            "--backend" => backends.push(val("--backend")),
            "--tcp" => tcp_addr = Some(val("--tcp")),
            other => panic!(
                "unknown argument {other:?} (supported: --tcp ADDR --backend ADDR \
                 --workers N --queue-depth N --cache N)"
            ),
        }
        if matches!(a.as_str(), "--workers" | "--queue-depth" | "--cache") {
            pool_flag = Some(a);
        }
    }
    if let (Some(flag), false) = (&pool_flag, backends.is_empty()) {
        eprintln!("ipim_served: {flag} sets the local pool and cannot be combined with --backend");
        std::process::exit(2);
    }

    if backends.is_empty() {
        let pool = ServePool::start(&config);
        let role = format!("{} worker(s), cache {}", config.workers, config.cache_capacity);
        let Some(summary) = serve(&pool, tcp_addr.as_deref(), &role) else { return };
        let metrics = pool.shutdown();
        eprintln!(
            "ipim_served: {} request(s), {} parse error(s), {} cache hit(s)",
            summary.requests,
            summary.parse_errors,
            metrics.counter("serve/cache/hits")
        );
    } else {
        let router = ShardRouter::start(&ShardConfig::over(backends));
        let role = format!("sharding over {} backend(s)", router.backends());
        let Some(summary) = serve(&router, tcp_addr.as_deref(), &role) else { return };
        let metrics = router.shutdown();
        eprintln!(
            "ipim_served: {} request(s), {} parse error(s), {} completed, {} retried, \
             {} ejection(s)",
            summary.requests,
            summary.parse_errors,
            metrics.counter("shard/completed"),
            metrics.counter("shard/retries"),
            metrics.counter("shard/ejections"),
        );
    }
}

/// Serves `service` on `tcp` until the listener fails (`None`), or on
/// stdin/stdout until input EOF (what it served).
fn serve<S: LineService>(service: &S, tcp: Option<&str>, role: &str) -> Option<ServeSummary> {
    match tcp {
        Some(addr) => {
            let listener = TcpListener::bind(addr)
                .unwrap_or_else(|e| panic!("ipim_served: cannot bind {addr}: {e}"));
            eprintln!("ipim_served: listening on {addr} ({role})");
            serve_tcp(&listener, service, true).unwrap_or_else(|e| panic!("ipim_served: {e}"));
            None
        }
        // `stdin().lock()` is not `Send` (the reader thread owns its
        // input), so read through the unlocked handle.
        None => Some(
            serve_stream(BufReader::new(stdin()), stdout().lock(), service)
                .unwrap_or_else(|e| panic!("ipim_served: {e}")),
        ),
    }
}

fn parse(text: &str, flag: &str) -> usize {
    text.parse().unwrap_or_else(|_| panic!("{flag} needs an unsigned integer, got {text:?}"))
}
