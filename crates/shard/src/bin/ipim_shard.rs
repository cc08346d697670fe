//! `ipim_shard` — the distributed serving front-end.
//!
//! Speaks the same ndjson protocol as `ipim_served` (one `SimRequest`
//! JSON object per input line, one response line per request, in order)
//! but routes every request over a fleet of `ipim_served --stream --tcp`
//! backends by consistent-hashing its content fingerprint (to its ring
//! owner, or to the next backend clockwise when that one has strictly
//! fewer jobs in flight). Clients cannot
//! tell the difference: the shard forwards backend response lines
//! verbatim, answers protocol problems in-band, and blocks for
//! backpressure exactly like the local pool.
//!
//! ```text
//! ipim_served --stream --tcp 127.0.0.1:7101 &
//! ipim_served --stream --tcp 127.0.0.1:7102 &
//! printf '{"workload":"Blur"}\n{"workload":"Shift"}\n' |
//!     ipim_shard --backend 127.0.0.1:7101 --backend 127.0.0.1:7102
//! ```
//!
//! Flags: `--backend ADDR` (repeatable, required) · `--replicas N` hash
//! ring virtual nodes per backend (default 32) · `--window N` in-flight
//! responses per backend connection (default 4) · `--queue-depth N` per
//! backend (default 16) · `--retries N` total attempts per job (default
//! 4) · `--backoff-ms N` base retry backoff (default 10) · `--jitter-ms
//! N` seeded backoff jitter bound (default 5) · `--probe-ms N` ejected
//! backend probe cadence (default 50) · `--seed N` jitter PRNG seed ·
//! `--tcp ADDR` serve clients over TCP instead of stdin/stdout ·
//! `--stream` per-response-flush pacing.

use std::io::{stdin, stdout, BufReader, BufWriter};
use std::net::TcpListener;

use ipim_serve::server::{serve_batch, serve_stream, serve_tcp};
use ipim_shard::{ShardConfig, ShardRouter};

fn main() {
    let mut backends: Vec<String> = Vec::new();
    let mut config = ShardConfig::over(Vec::new());
    let mut tcp_addr: Option<String> = None;
    let mut streaming = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |flag: &str| args.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match a.as_str() {
            "--backend" => backends.push(val("--backend")),
            "--replicas" => config.replicas = parse(&val("--replicas"), "--replicas"),
            "--window" => config.window = parse(&val("--window"), "--window"),
            "--queue-depth" => config.queue_depth = parse(&val("--queue-depth"), "--queue-depth"),
            "--retries" => config.retry.max_attempts = parse(&val("--retries"), "--retries"),
            "--backoff-ms" => {
                config.retry.backoff_ms = parse_u64(&val("--backoff-ms"), "--backoff-ms")
            }
            "--jitter-ms" => config.retry.jitter_ms = parse_u64(&val("--jitter-ms"), "--jitter-ms"),
            "--probe-ms" => config.probe_ms = parse_u64(&val("--probe-ms"), "--probe-ms"),
            "--seed" => config.seed = parse_u64(&val("--seed"), "--seed"),
            "--tcp" => tcp_addr = Some(val("--tcp")),
            "--stream" => streaming = true,
            other => panic!(
                "unknown argument {other:?} (supported: --backend ADDR [--backend ADDR ...] \
                 --replicas N --window N --queue-depth N --retries N --backoff-ms N \
                 --jitter-ms N --probe-ms N --seed N --tcp ADDR --stream)"
            ),
        }
    }
    if backends.is_empty() {
        eprintln!("ipim_shard: at least one --backend ADDR is required");
        std::process::exit(2);
    }
    config.backends = backends;

    let router = ShardRouter::start(&config);
    match tcp_addr {
        Some(addr) => {
            let listener = TcpListener::bind(&addr)
                .unwrap_or_else(|e| panic!("ipim_shard: cannot bind {addr}: {e}"));
            eprintln!(
                "ipim_shard: listening on {addr}, sharding over {} backend(s){}",
                router.backends(),
                if streaming { ", streaming" } else { "" }
            );
            serve_tcp(&listener, &router, streaming).unwrap_or_else(|e| panic!("ipim_shard: {e}"));
        }
        None => {
            let summary = if streaming {
                serve_stream(BufReader::new(stdin()), stdout().lock(), &router)
            } else {
                serve_batch(stdin().lock(), BufWriter::new(stdout().lock()), &router)
            }
            .unwrap_or_else(|e| panic!("ipim_shard: {e}"));
            let metrics = router.shutdown();
            eprintln!(
                "ipim_shard: {} request(s), {} parse error(s), {} completed, {} retried, \
                 {} ejection(s)",
                summary.requests,
                summary.parse_errors,
                metrics.counter("shard/completed"),
                metrics.counter("shard/retries"),
                metrics.counter("shard/ejections"),
            );
        }
    }
}

fn parse(text: &str, flag: &str) -> usize {
    text.parse().unwrap_or_else(|_| panic!("{flag} needs an unsigned integer, got {text:?}"))
}

fn parse_u64(text: &str, flag: &str) -> u64 {
    text.parse().unwrap_or_else(|_| panic!("{flag} needs an unsigned integer, got {text:?}"))
}
