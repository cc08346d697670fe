//! `loadgen` — closed-loop load generator for the `ipim-serve` pool.
//!
//! Spawns `--clients` closed-loop client threads against an in-process
//! `ServePool` with `--workers` workers. Each client draws `--requests`
//! jobs from a seeded simkit PRNG over the chosen `--mix`, submits one at a
//! time, and records the response latency. At the end it reports throughput
//! and p50/p95/p99 latency.
//!
//! The run **fails** (exit 1) on any `Error` response or any timeout that
//! is not an explicit deadline shed — a deadlock or a lost reply can only
//! show up as the watchdog firing (exit 2 after `--watchdog-secs`).
//!
//! With `--stream`, clients talk to the pool over real loopback-TCP ndjson
//! connections in per-response-flush streaming mode (`serve_stream`)
//! instead of in-process `submit` calls — the end-to-end exercise of the
//! `ipim_served --stream` protocol path, wire parsing included.
//!
//! With `--shard N`, clients drive an `ipim-shard` router over N local
//! streaming-TCP backends (each its own `ServePool` with `--workers`
//! workers behind `serve_tcp`, the `ipim_served --stream --tcp` shape) —
//! the end-to-end exercise of the distributed tier: two-choice
//! consistent hashing, per-backend windows, retry machinery and all. The
//! summary prints the router's spill count (jobs sent to their second
//! choice) and each backend's answered count. `--verify` then
//! checks every unique request's output hash, **report hash** and echoed
//! cache **fingerprint** against a serial in-process run, which is the
//! sharded-equals-serial determinism gate CI leans on.
//!
//! Flags: `--workers N` (default 4) · `--clients N` (default = workers) ·
//! `--requests M` per client (default 8) · `--seed S` (default 7) ·
//! `--mix fast|mixed|table2` (default fast; `mixed` is the shard-soak
//! traffic: workload × size spread with per-class deadlines) · `--cache N`
//! (default 0: caching off so throughput numbers are honest) · `--stream` ·
//! `--shard N` · `--verify` re-run each unique request serially and compare
//! bit-for-bit · `--watchdog-secs T` (default 600).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ipim_core::trace::json;
use ipim_serve::server::{serve_stream, serve_tcp};
use ipim_serve::{
    image_hash, report_hash, PoolConfig, ServePool, SimRequest, SimResponse, TimeoutKind,
};
use ipim_shard::{ShardConfig, ShardRouter};
use ipim_simkit::rng::{splitmix64, Rng};

struct Options {
    pool: PoolConfig,
    clients: usize,
    requests: usize,
    seed: u64,
    mix: &'static str,
    stream: bool,
    shard: usize,
    verify: bool,
    watchdog_secs: u64,
}

/// What one request came back as, seen from the client side — the common
/// shape of the in-process and wire transports.
enum Reply {
    Done { output_hash: u64, report_hash: Option<u64>, fingerprint: Option<u64> },
    DeadlineShed,
    OtherTimeout(String),
    Error(String),
}

fn hex_field(v: &json::Value, key: &str) -> Option<u64> {
    v.get(key).and_then(json::Value::as_str).and_then(|h| u64::from_str_radix(h, 16).ok())
}

impl Reply {
    fn from_response(resp: SimResponse) -> Self {
        match resp {
            SimResponse::Done(done) => Reply::Done {
                output_hash: done.output_hash,
                report_hash: Some(report_hash(&done.report)),
                fingerprint: Some(done.fingerprint),
            },
            SimResponse::Timeout(TimeoutKind::DeadlineBeforeStart) => Reply::DeadlineShed,
            SimResponse::Timeout(kind) => Reply::OtherTimeout(format!("{kind:?}")),
            SimResponse::Error(msg) => Reply::Error(msg),
        }
    }

    /// Parses one ndjson response line off the wire.
    fn from_wire(line: &str) -> Self {
        let Ok(v) = json::parse(line) else {
            return Reply::Error(format!("unparseable response line {line:?}"));
        };
        match v.get("status").and_then(json::Value::as_str) {
            Some("done") => match hex_field(&v, "output_hash") {
                Some(output_hash) => Reply::Done {
                    output_hash,
                    report_hash: hex_field(&v, "report_hash"),
                    fingerprint: hex_field(&v, "fingerprint"),
                },
                None => Reply::Error(format!("done response without output_hash: {line:?}")),
            },
            Some("timeout") => match v.get("reason").and_then(json::Value::as_str) {
                Some("deadline") => Reply::DeadlineShed,
                reason => Reply::OtherTimeout(format!("{reason:?}")),
            },
            Some("error") => Reply::Error(
                v.get("message")
                    .and_then(json::Value::as_str)
                    .unwrap_or("error response without message")
                    .to_string(),
            ),
            other => Reply::Error(format!("unknown response status {other:?}")),
        }
    }
}

/// One client's transport: in-process pool submission, an ndjson
/// streaming TCP connection, or the shard router (which itself talks
/// streaming TCP to every backend).
enum Transport<'p> {
    InProcess(&'p ServePool),
    Shard(&'p ShardRouter),
    Stream { write: TcpStream, read: BufReader<TcpStream> },
}

impl Transport<'_> {
    fn round_trip(&mut self, req: &SimRequest) -> Reply {
        match self {
            Transport::InProcess(pool) => Reply::from_response(pool.submit(req.clone()).wait()),
            Transport::Shard(router) => Reply::from_wire(router.submit(req.clone()).wait().trim()),
            Transport::Stream { write, read } => {
                // One write per request line, newline included: a separate
                // `\n` segment would wait on Nagle for the server's ACK.
                let mut wire = req.to_json_string();
                wire.push('\n');
                if let Err(e) = write.write_all(wire.as_bytes()) {
                    return Reply::Error(format!("wire write: {e}"));
                }
                let mut line = String::new();
                match read.read_line(&mut line) {
                    Ok(0) => Reply::Error("server closed the stream early".to_string()),
                    Ok(_) => Reply::from_wire(line.trim()),
                    Err(e) => Reply::Error(format!("wire read: {e}")),
                }
            }
        }
    }
}

fn parse_args() -> Options {
    let mut opts = Options {
        pool: PoolConfig { workers: 4, queue_depth: 64, cache_capacity: 0 },
        clients: 0,
        requests: 8,
        seed: 7,
        mix: "fast",
        stream: false,
        shard: 0,
        verify: false,
        watchdog_secs: 600,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |flag: &str| args.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        let num = |flag: &str, text: String| -> u64 {
            text.parse().unwrap_or_else(|_| panic!("{flag} needs an unsigned integer"))
        };
        match a.as_str() {
            "--workers" => opts.pool.workers = num("--workers", val("--workers")) as usize,
            "--clients" => opts.clients = num("--clients", val("--clients")) as usize,
            "--requests" => opts.requests = num("--requests", val("--requests")) as usize,
            "--seed" => opts.seed = num("--seed", val("--seed")),
            "--cache" => opts.pool.cache_capacity = num("--cache", val("--cache")) as usize,
            "--watchdog-secs" => {
                opts.watchdog_secs = num("--watchdog-secs", val("--watchdog-secs"));
            }
            "--stream" => opts.stream = true,
            "--shard" => opts.shard = num("--shard", val("--shard")) as usize,
            "--verify" => opts.verify = true,
            "--mix" => {
                opts.mix = match val("--mix").as_str() {
                    "fast" => "fast",
                    "mixed" => "mixed",
                    "table2" => "table2",
                    other => panic!("--mix must be fast, mixed or table2, got {other:?}"),
                }
            }
            other => panic!(
                "unknown argument {other:?} (supported: --workers N --clients N --requests M \
                 --seed S --mix fast|mixed|table2 --cache N --stream --shard N --verify \
                 --watchdog-secs T)"
            ),
        }
    }
    if opts.clients == 0 {
        opts.clients = opts.pool.workers;
    }
    assert!(
        !(opts.stream && opts.shard > 0),
        "--stream and --shard are mutually exclusive (the shard already talks TCP to backends)"
    );
    opts
}

/// The workload mixes. `fast` sticks to 64×64 single-stage kernels for CI
/// soaks; `mixed` is realistic shard-soak traffic — a spread over all
/// three workload families (image, NN, video) × sizes skewed toward small
/// images, with generous deadlines on the interactive classes and none on
/// the batch classes (sizes are chosen so each workload's schedule keeps
/// the tile grid a multiple of the 32 PEs);
/// `table2` is the full 10-benchmark suite at 128×128 (Downsample and
/// Upsample need ≥128 pixels per row to fit the SIMB lanes).
fn mix_requests(mix: &str) -> Vec<SimRequest> {
    let with_deadline = |name: &str, w: u32, h: u32, deadline_ms: Option<u64>| SimRequest {
        deadline_ms,
        ..SimRequest::named(name, w, h)
    };
    match mix {
        "fast" => ["Brighten", "Blur", "Shift", "Histogram"]
            .iter()
            .map(|name| SimRequest::named(name, 64, 64))
            .collect(),
        "mixed" => vec![
            // Interactive class: small, deadline-bounded (generous enough
            // never to shed on a healthy run — the deadline *plumbing* is
            // what's being exercised).
            with_deadline("Brighten", 64, 32, Some(120_000)),
            with_deadline("Shift", 64, 32, Some(120_000)),
            with_deadline("Brighten", 64, 64, Some(120_000)),
            with_deadline("Shift", 64, 64, Some(120_000)),
            with_deadline("Histogram", 64, 32, Some(120_000)),
            // Interactive NN/video traffic: the small-kernel end of the
            // new families (their schedule ladders keep these legal well
            // below Table II's minimum sizes).
            with_deadline("Gemm", 64, 32, Some(120_000)),
            with_deadline("RowSoftmax", 64, 32, Some(120_000)),
            with_deadline("FrameDelta", 96, 64, Some(120_000)),
            with_deadline("MotionEnergy", 64, 32, Some(120_000)),
            // Batch class: larger, no deadline.
            with_deadline("Blur", 96, 64, None),
            with_deadline("Histogram", 96, 64, None),
            with_deadline("Blur", 128, 64, None),
            with_deadline("Conv3x3", 64, 64, None),
            with_deadline("TemporalBlur", 64, 64, None),
        ],
        "table2" => [
            "Brighten",
            "Blur",
            "Downsample",
            "Upsample",
            "Shift",
            "Histogram",
            "BilateralGrid",
            "Interpolate",
            "LocalLaplacian",
            "StencilChain",
        ]
        .iter()
        .map(|name| SimRequest { max_cycles: 4_000_000_000, ..SimRequest::named(name, 128, 128) })
        .collect(),
        other => panic!("unknown mix {other:?}"),
    }
}

/// A spawned local backend: its listen address and its pool handle (kept
/// for end-of-run metrics).
type LocalBackend = (String, Arc<ServePool>);

/// Per-fingerprint determinism witness: the request, its output hash,
/// and (when the transport carries one) its report hash.
type Witness = (SimRequest, u64, Option<u64>);

/// One local shard backend: a `ServePool` behind a loopback listener,
/// served by `serve_tcp` in streaming mode (the `ipim_served --stream
/// --tcp` shape, in-process). The accept thread is detached — backends
/// live until the process exits.
fn spawn_shard_backend(pool_config: &PoolConfig) -> LocalBackend {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind shard backend");
    let addr = listener.local_addr().expect("local addr").to_string();
    let pool = Arc::new(ServePool::start(pool_config));
    let served = pool.clone();
    std::thread::spawn(move || {
        let _ = serve_tcp(&listener, &*served, true);
    });
    (addr, pool)
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn main() {
    let opts = parse_args();
    let mix = mix_requests(opts.mix);
    let total_requests = opts.clients * opts.requests;
    // Speedup from extra workers is bounded by the machine: simulation is
    // pure CPU-bound work, so throughput scales with min(workers, cores).
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!(
        "loadgen: {} client(s) x {} request(s), {} worker(s) on {} core(s), mix {}, cache {}, \
         seed {}{}",
        opts.clients,
        opts.requests,
        opts.pool.workers,
        cores,
        opts.mix,
        opts.pool.cache_capacity,
        opts.seed,
        if opts.stream {
            ", streaming over TCP".to_string()
        } else if opts.shard > 0 {
            format!(", sharded over {} TCP backend(s)", opts.shard)
        } else {
            String::new()
        }
    );

    // The watchdog turns a deadlock into a loud, bounded failure: if the
    // closed loop hasn't finished after `watchdog_secs`, exit 2.
    let finished = std::sync::Arc::new(AtomicBool::new(false));
    {
        let finished = finished.clone();
        let secs = opts.watchdog_secs;
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_secs(secs));
            if !finished.load(Ordering::SeqCst) {
                eprintln!("loadgen: WATCHDOG: run did not finish within {secs}s");
                std::process::exit(2);
            }
        });
    }

    let pool = ServePool::start(&opts.pool);
    // In shard mode the router fans out over `opts.shard` local streaming
    // backends, each with its own `--workers`-worker pool (the main pool
    // above sits idle; clients never touch it). Seeded from `--seed` so
    // retry jitter and probe timing are reproducible.
    let shard: Option<(ShardRouter, Vec<LocalBackend>)> = (opts.shard > 0).then(|| {
        let backends: Vec<_> = (0..opts.shard).map(|_| spawn_shard_backend(&opts.pool)).collect();
        let addrs = backends.iter().map(|(a, _)| a.clone()).collect();
        let router =
            ShardRouter::start(&ShardConfig { seed: opts.seed, ..ShardConfig::over(addrs) });
        (router, backends)
    });
    // One representative (request, output_hash, report_hash) per
    // fingerprint, shared so cross-client divergence on identical requests
    // is itself a failure.
    let observed: Mutex<HashMap<u64, Witness>> = Mutex::new(HashMap::new());
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());

    // In streaming mode every client gets its own long-lived loopback-TCP
    // connection served by `serve_stream` (the `ipim_served --stream`
    // code path); otherwise clients submit in-process.
    let listener = if opts.stream {
        Some(TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
    } else {
        None
    };
    let addr = listener.as_ref().map(|l| l.local_addr().expect("local addr"));

    let started = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        if let Some(listener) = &listener {
            let pool = &pool;
            let n = opts.clients;
            scope.spawn(move || {
                // One streaming server per connection; exactly `clients`
                // connections, then stop accepting so the scope can join.
                for _ in 0..n {
                    let (stream, _) = listener.accept().expect("accept client");
                    scope.spawn(move || {
                        stream.set_nodelay(true).expect("set TCP_NODELAY");
                        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
                        serve_stream(reader, &stream, pool).expect("serve stream");
                    });
                }
            });
        }
        let handles: Vec<_> = (0..opts.clients)
            .map(|c| {
                let pool = &pool;
                let shard = &shard;
                let mix = &mix;
                let observed = &observed;
                let failures = &failures;
                let mut rng = Rng::new(splitmix64(&mut (opts.seed ^ c as u64)));
                scope.spawn(move || {
                    let mut transport = match (shard, addr) {
                        (Some((router, _)), _) => Transport::Shard(router),
                        (None, None) => Transport::InProcess(pool),
                        (None, Some(addr)) => {
                            let write = TcpStream::connect(addr).expect("connect");
                            write.set_nodelay(true).expect("set TCP_NODELAY");
                            let read = BufReader::new(write.try_clone().expect("clone"));
                            Transport::Stream { write, read }
                        }
                    };
                    let mut lat = Vec::with_capacity(opts.requests);
                    for _ in 0..opts.requests {
                        let req = mix[(rng.next_u64() % mix.len() as u64) as usize].clone();
                        let sent = Instant::now();
                        let reply = transport.round_trip(&req);
                        lat.push(sent.elapsed().as_nanos() as u64);
                        match reply {
                            Reply::Done { output_hash, report_hash, fingerprint } => {
                                // The server derives the cache key from the
                                // wire bytes it received; it must match the
                                // key we routed on.
                                if fingerprint.is_some_and(|fp| fp != req.fingerprint()) {
                                    failures.lock().unwrap().push(format!(
                                        "{}: echoed fingerprint {:016x} != local {:016x}",
                                        req.workload,
                                        fingerprint.unwrap(),
                                        req.fingerprint()
                                    ));
                                }
                                let mut seen = observed.lock().unwrap();
                                let entry = seen
                                    .entry(req.fingerprint())
                                    .or_insert_with(|| (req.clone(), output_hash, report_hash));
                                if entry.1 != output_hash
                                    || (entry.2.is_some()
                                        && report_hash.is_some()
                                        && entry.2 != report_hash)
                                {
                                    failures.lock().unwrap().push(format!(
                                        "{}: output/report hash diverged across identical requests",
                                        req.workload
                                    ));
                                }
                            }
                            Reply::DeadlineShed => {}
                            Reply::OtherTimeout(kind) => failures
                                .lock()
                                .unwrap()
                                .push(format!("{}: non-deadline timeout {kind}", req.workload)),
                            Reply::Error(msg) => {
                                failures.lock().unwrap().push(format!("{}: {msg}", req.workload));
                            }
                        }
                    }
                    if let Transport::Stream { write, .. } = &transport {
                        // Half-close marks end-of-input so the per-client
                        // server thread sees EOF and joins.
                        let _ = write.shutdown(Shutdown::Write);
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client panicked")).collect()
    });
    let wall = started.elapsed();
    finished.store(true, Ordering::SeqCst);
    let metrics = pool.shutdown();
    // Drain the shard router (waits for in-flight jobs, joins its threads)
    // and fold the backends' pool counters into one view. The backends'
    // accept threads are detached and die with the process.
    let shard_summary = shard.map(|(router, backends)| {
        let sm = router.shutdown();
        let sum =
            |key: &str| -> u64 { backends.iter().map(|(_, p)| p.metrics().counter(key)).sum() };
        (sm, sum("serve/pool/completed"), sum("serve/pool/errors"), sum("serve/cache/hits"))
    });

    latencies.sort_unstable();
    let p50 = percentile(&latencies, 0.50);
    let p95 = percentile(&latencies, 0.95);
    let p99 = percentile(&latencies, 0.99);
    let throughput = total_requests as f64 / wall.as_secs_f64();
    println!(
        "loadgen: {} response(s) in {:.2}s -> {throughput:.2} req/s; latency p50 {:.1}ms \
         p95 {:.1}ms p99 {:.1}ms",
        latencies.len(),
        wall.as_secs_f64(),
        p50 as f64 / 1e6,
        p95 as f64 / 1e6,
        p99 as f64 / 1e6,
    );
    match &shard_summary {
        Some((sm, completed, errors, hits)) => {
            println!(
                "loadgen: shard submitted {} / completed {} / shed {} / retries {} / \
                 ejections {} / readmissions {} / spills {}",
                sm.counter("shard/submitted"),
                sm.counter("shard/completed"),
                sm.counter("shard/shed"),
                sm.counter("shard/retries"),
                sm.counter("shard/ejections"),
                sm.counter("shard/readmissions"),
                sm.counter("shard/spills"),
            );
            let answered: Vec<String> = (0..opts.shard)
                .map(|i| sm.counter(&format!("shard/backend{i}/answered")).to_string())
                .collect();
            println!("loadgen: answered per backend {}", answered.join(" / "));
            println!(
                "loadgen: backends completed {completed} / errors {errors} / cache hits {hits}"
            );
            // These two counters being nonzero means the distributed tier
            // corrupted or duplicated work — always a failure.
            for key in ["shard/fingerprint_mismatches", "shard/unsolicited"] {
                let n = sm.counter(key);
                if n > 0 {
                    failures.lock().unwrap().push(format!("{key} = {n} after a clean drain"));
                }
            }
        }
        None => println!(
            "loadgen: pool completed {} / timeouts {} / errors {} / cache hits {}",
            metrics.counter("serve/pool/completed"),
            metrics.counter("serve/pool/timeouts"),
            metrics.counter("serve/pool/errors"),
            metrics.counter("serve/cache/hits"),
        ),
    }

    if opts.verify {
        let seen = observed.lock().unwrap();
        eprintln!("loadgen: verifying {} unique request(s) against serial runs", seen.len());
        for (req, pooled_hash, pooled_report) in seen.values() {
            let (session, workload) =
                req.instantiate().unwrap_or_else(|e| panic!("{}: {e}", req.workload));
            match session.run_workload(&workload, req.max_cycles) {
                Ok(outcome) => {
                    let serial_hash = image_hash(&outcome.output);
                    if serial_hash != *pooled_hash {
                        failures.lock().unwrap().push(format!(
                            "{}: pooled output hash {pooled_hash:#x} != serial {serial_hash:#x}",
                            req.workload
                        ));
                    }
                    let serial_report = report_hash(&outcome.report);
                    if pooled_report.is_some_and(|r| r != serial_report) {
                        failures.lock().unwrap().push(format!(
                            "{}: pooled report hash {:#x} != serial {serial_report:#x}",
                            req.workload,
                            pooled_report.unwrap()
                        ));
                    }
                }
                Err(e) => {
                    failures.lock().unwrap().push(format!("{}: serial run: {e}", req.workload));
                }
            }
        }
    }

    let failures = failures.into_inner().unwrap();
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("loadgen: FAIL: {f}");
        }
        std::process::exit(1);
    }
}
