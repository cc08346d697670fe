//! `serve-mixed`: two closed-loop clients submit through a `ShardRouter`
//! to two in-process streaming-TCP backends, each a one-worker `ServePool`
//! with the server's default result-cache capacity. This is the deployed
//! request path, the only workload whose jobs cross a mesh and SERDES
//! links, and the only one with warm caches.
//!
//! Requests are seeded draws over the request classes below: all three
//! workload families at small sizes, 1-vault and 2-cube × 2-vault
//! machines, skip-ahead, analytic and base-die variants. Each client's
//! stream is generated before timing starts. About a quarter of requests
//! repeat one of that client's recent requests exactly; every other
//! request gets a cycle budget no earlier request used, which makes it a
//! new result-cache key for the same program (the budget never binds:
//! every class finishes far below [`BASE_BUDGET`]).

use std::collections::HashSet;
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ipim_core::trace::json;
use ipim_core::{Engine, ExecutionReport, Fidelity, Placement, RunOutcome};
use ipim_serve::server::serve_tcp;
use ipim_serve::{image_hash, report_hash, PoolConfig, ServePool, SimRequest, SimResponse};
use ipim_shard::{HashRing, ShardConfig, ShardRouter};
use ipim_simkit::Rng;

use crate::machine::{replay, Totals};
use crate::report::Outcome;
use crate::spans::{maybe as span, mean_ms, Recorder};
use crate::stats::{geomean, mean, median, ratio};

/// Budget of the class references; every generated request's budget is
/// at least this.
const BASE_BUDGET: u64 = 2_000_000_000;
/// Share of requests that exactly repeat a recent request of the client.
const REPEAT_SHARE: f64 = 0.25;
/// How far back (in the client's own stream) a repeat may reach.
const REPEAT_WINDOW: usize = 32;
/// Deadline on the interactive classes: generous, so a healthy run never
/// sheds, while the shedding checks stay on the path.
const DEADLINE_MS: u64 = 60_000;
const CLIENTS: usize = 2;
const BACKENDS: usize = 2;

/// `(workload, width, height, cubes, vaults, engine, placement, deadline)`.
type ClassDef = (&'static str, u32, u32, usize, usize, Engine, Placement, bool);

const SKIP: Engine = Engine::SkipAhead;
const NEAR: Placement = Placement::NearBank;

/// The request classes, sized so every tile grid divides over the PEs of
/// its machine.
const CLASSES: &[ClassDef] = &[
    ("Brighten", 64, 32, 1, 1, SKIP, NEAR, true),
    ("Brighten", 128, 64, 2, 2, SKIP, NEAR, true),
    ("Shift", 64, 64, 1, 1, SKIP, NEAR, true),
    ("Blur", 96, 64, 1, 1, SKIP, NEAR, true),
    ("Blur", 128, 64, 2, 2, SKIP, NEAR, false),
    ("Blur", 96, 64, 1, 1, SKIP, Placement::BaseDie, false),
    ("Blur", 128, 64, 1, 1, Engine::Analytic, NEAR, true),
    ("Histogram", 64, 32, 1, 1, SKIP, NEAR, true),
    ("Histogram", 64, 32, 2, 2, SKIP, NEAR, false),
    ("BilateralGrid", 64, 64, 1, 1, SKIP, NEAR, false),
    ("Gemm", 32, 32, 1, 1, SKIP, NEAR, false),
    ("Gemm", 64, 32, 1, 1, Engine::Analytic, NEAR, true),
    ("RowSoftmax", 64, 32, 1, 1, SKIP, NEAR, true),
    ("Conv3x3", 64, 64, 1, 1, SKIP, NEAR, false),
    ("Conv3x3", 64, 64, 1, 1, SKIP, Placement::BaseDie, false),
    ("FrameDelta", 96, 64, 1, 1, SKIP, NEAR, true),
    ("TemporalBlur", 64, 64, 1, 1, SKIP, NEAR, true),
    ("MotionEnergy", 64, 32, 1, 1, SKIP, NEAR, true),
    ("StencilChain", 64, 64, 1, 1, Engine::Analytic, NEAR, true),
    ("LocalLaplacian", 128, 128, 1, 1, Engine::Analytic, NEAR, true),
];

fn class_request(c: &ClassDef) -> SimRequest {
    let &(workload, width, height, cubes, vaults, engine, placement, deadline) = c;
    SimRequest {
        cubes,
        vaults,
        engine,
        placement,
        max_cycles: BASE_BUDGET,
        deadline_ms: deadline.then_some(DEADLINE_MS),
        ..SimRequest::named(workload, width, height)
    }
}

/// One generated request.
#[derive(Clone)]
struct Req {
    class: usize,
    req: SimRequest,
}

/// One answered request.
struct Answer {
    class: usize,
    req: SimRequest,
    start: Duration,
    rtt: Duration,
    line: String,
}

/// A serial in-process run of one class: the determinism witness.
struct Reference {
    output_hash: u64,
    report_hash: u64,
    report: ExecutionReport,
    fidelity: Fidelity,
}

/// A backend: a pool served by `serve_tcp` in streaming mode on a
/// loopback listener, the `ipim_served --stream --tcp` shape in-process.
struct Backend {
    addr: String,
    pool: Arc<ServePool>,
    listener: TcpListener,
    server: JoinHandle<()>,
}

impl Backend {
    fn start() -> Result<Self, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?.to_string();
        let serving = listener.try_clone().map_err(|e| e.to_string())?;
        let pool = Arc::new(ServePool::start(&PoolConfig { workers: 1, ..PoolConfig::default() }));
        let server = {
            let pool = pool.clone();
            std::thread::spawn(move || {
                let _ = serve_tcp(&serving, &*pool, true);
            })
        };
        Ok(Self { addr, pool, listener, server })
    }

    /// Ends `serve_tcp` (the router has closed its connection by now) and
    /// shuts the pool down. `serve_tcp` returns when an accept fails, so
    /// the listener turns non-blocking and one throwaway connection wakes
    /// the accept it is blocked in; the accept after that fails.
    fn shutdown(self) {
        let _ = self.listener.set_nonblocking(true);
        drop(TcpStream::connect(&self.addr));
        self.server.join().expect("backend server panicked");
        if let Ok(pool) = Arc::try_unwrap(self.pool) {
            pool.shutdown();
        }
    }

    fn cache_counts(&self) -> (u64, u64) {
        let m = self.pool.metrics();
        (m.counter("serve/cache/hits"), m.counter("serve/cache/misses"))
    }
}

/// The set-up workload: request streams, warm program cache, backends and
/// router.
pub struct ServeMixed {
    classes: Vec<SimRequest>,
    streams: Vec<Vec<Req>>,
    backends: Vec<Backend>,
    router: ShardRouter,
    replicas: usize,
}

impl ServeMixed {
    /// Generates the request streams from `seed` (long enough for
    /// `seconds`), pre-compiles every distinct program and starts the
    /// backends and the router.
    pub fn setup(seed: u64, seconds: f64, rec: Option<&Recorder>) -> Result<Self, String> {
        let classes: Vec<SimRequest> = CLASSES.iter().map(class_request).collect();
        let per_client = 400 * seconds.ceil() as usize + 200;
        let streams = (0..CLIENTS).map(|c| generate(seed, c, per_client, &classes)).collect();
        for class in &classes {
            let (session, workload) = span(rec, "workloads.instantiate", || class.instantiate())?;
            span(rec, "compiler.compile", || session.compile(&workload.pipeline))
                .map_err(|e| format!("{}: {e}", class.workload))?;
        }
        let backends = (0..BACKENDS).map(|_| Backend::start()).collect::<Result<Vec<_>, _>>()?;
        let config = ShardConfig {
            seed,
            ..ShardConfig::over(backends.iter().map(|b| b.addr.clone()).collect())
        };
        let router = ShardRouter::start(&config);
        Ok(Self { classes, streams, backends, router, replicas: config.replicas })
    }

    /// Drains the router, then stops every backend thread and pool.
    pub fn shutdown(self) {
        self.router.shutdown();
        for b in self.backends {
            b.shutdown();
        }
    }

    fn result_cache_counts(&self) -> (u64, u64) {
        self.backends.iter().map(Backend::cache_counts).fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }

    /// The timed closed loop, then the checks; with `rec`, the serial
    /// replay of every class and the router-hop measurement.
    pub fn run(&self, seconds: f64, rec: Option<&Recorder>, out: &mut Outcome) {
        let (hits0, misses0) = self.result_cache_counts();
        let caches0 = crate::CacheStats::now();
        let budget = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        let mut answers: Vec<Answer> = std::thread::scope(|scope| {
            let clients: Vec<_> = self
                .streams
                .iter()
                .enumerate()
                .map(|(c, stream)| scope.spawn(move || self.client(c, stream, start, budget, rec)))
                .collect();
            clients.into_iter().flat_map(|h| h.join().expect("client panicked")).collect()
        });
        let elapsed = start.elapsed().as_secs_f64();
        out.phase_caches = Some(crate::CacheStats::now());
        let (hits1, misses1) = self.result_cache_counts();
        answers.sort_by_key(|a| a.start);

        let ms: Vec<f64> = answers.iter().map(|a| a.rtt.as_secs_f64() * 1e3).collect();
        crate::latency_metrics(&ms, out);
        out.e2e.insert("ops_per_s", answers.len() as f64 / elapsed);
        let mut seen = HashSet::new();
        let repeats = answers.iter().filter(|a| !seen.insert(a.req.fingerprint())).count();
        let repeat_share = ratio(repeats as f64, answers.len() as f64);
        let (hits, misses) = ((hits1 - hits0) as f64, (misses1 - misses0) as f64);
        let hit_share = ratio(hits, hits + misses);
        let progcache = crate::CacheStats::now().since(&caches0);
        out.notes.push(format!(
            "{} requests from {CLIENTS} clients over {elapsed:.3} s; exact-repeat share {:.4}, \
             result-cache hit share {:.4}, program-cache hit share {:.4}",
            answers.len(),
            repeat_share,
            hit_share,
            ratio(progcache.prog_hits as f64, (progcache.prog_hits + progcache.prog_misses) as f64),
        ));
        out.layers.insert("serve.repeat_share", repeat_share);
        out.layers.insert("serve.result_hit_ratio", hit_share);

        let references = self.references(out);
        for a in &answers {
            let ok = check(a, &references[a.class], out);
            out.tally.record(ok);
        }
        let exact: Vec<&Reference> =
            references.iter().flatten().filter(|r| r.fidelity == Fidelity::BitExact).collect();
        if references.iter().all(Option::is_some) {
            let cycles: Vec<f64> = exact.iter().map(|r| r.report.cycles as f64).collect();
            let energy: Vec<f64> = exact.iter().map(|r| r.report.energy.total_pj() / 1e6).collect();
            out.e2e.insert("sim_cycles", geomean(&cycles).unwrap_or(0.0));
            out.e2e.insert("sim_energy_uj", geomean(&energy).unwrap_or(0.0));
        }

        if let Some(rec) = rec {
            self.replay_classes(rec, &answers, out);
        }
    }

    fn client(
        &self,
        c: usize,
        stream: &[Req],
        start: Instant,
        budget: Duration,
        rec: Option<&Recorder>,
    ) -> Vec<Answer> {
        let mut answers = Vec::new();
        for (i, r) in stream.iter().enumerate() {
            let t = start.elapsed();
            if t >= budget {
                break;
            }
            let id = (c * 1_000_000 + i) as u64;
            let open = rec.map(|rec| rec.open("shard.request", None, Some(id)));
            let line = self.router.submit(r.req.clone()).wait();
            if let (Some(rec), Some(open)) = (rec, open) {
                rec.close(open);
            }
            let rtt = start.elapsed() - t;
            answers.push(Answer { class: r.class, req: r.req.clone(), start: t, rtt, line });
        }
        if answers.len() == stream.len() {
            eprintln!("perfbench: client {c} ran out of generated requests");
        }
        answers
    }

    /// Serial in-process runs of every class, outside the timed phase.
    fn references(&self, out: &mut Outcome) -> Vec<Option<Reference>> {
        self.classes
            .iter()
            .map(|class| {
                let run = class.instantiate().and_then(|(session, workload)| {
                    session.run_workload(&workload, class.max_cycles).map_err(|e| e.to_string())
                });
                match run {
                    Ok(o) => Some(Reference {
                        output_hash: image_hash(&o.output),
                        report_hash: report_hash(&o.report),
                        report: o.report,
                        fidelity: o.fidelity,
                    }),
                    Err(e) => {
                        out.fail(format!("reference {}: {e}", class.canonical_key()));
                        None
                    }
                }
            })
            .collect()
    }

    /// Replays each class serially through the public calls a backend
    /// worker composes, and measures the router hop on the idle system.
    fn replay_classes(&self, rec: &Recorder, answers: &[Answer], out: &mut Outcome) {
        let mut totals = Totals::default();
        let mut insts = Vec::new();
        // Serial service time of each class: a cold request, and a cached
        // one (which still parses and encodes).
        let mut service: Vec<(f64, f64)> = Vec::new();
        for (i, class) in self.classes.iter().enumerate() {
            let req = Some(i as u64);
            let root = rec.open("serve.request", None, req);
            let p = Some(root.id());
            let wire = class.to_json_string();
            let open = rec.open("serve.parse", p, req);
            let parsed = SimRequest::from_json_str(&wire);
            let parse_ns = rec.close(open);
            let served = parsed.and_then(|parsed| {
                let (session, workload) =
                    rec.time("workloads.instantiate", p, req, || parsed.instantiate())?;
                let program = rec
                    .time("core.compile_hit", p, req, || session.compile(&workload.pipeline))
                    .map_err(|e| e.to_string())?;
                insts.push(program.static_instructions as f64);
                let outcome = if parsed.engine == Engine::Analytic {
                    rec.time("analytic.predict", p, req, || {
                        session.simulate(&program, &workload.inputs, parsed.max_cycles)
                    })
                    .map_err(|e| e.to_string())?
                } else {
                    let r = replay(
                        rec,
                        p,
                        req,
                        session.config(),
                        &program,
                        &workload.inputs,
                        parsed.max_cycles,
                    )?;
                    totals.add_run(&r);
                    totals.add_job(&r);
                    RunOutcome {
                        output: r.output,
                        report: r.report,
                        compiled: program.clone(),
                        metrics: r.metrics,
                        trace: None,
                        fidelity: Fidelity::BitExact,
                    }
                };
                let open = rec.open("serve.encode", p, req);
                black_box(SimResponse::from_outcome(&parsed, outcome).to_json_string());
                Ok::<_, String>(rec.close(open))
            });
            let total_ns = rec.close(root);
            match served {
                Ok(encode_ns) => service.push((total_ns as f64, (parse_ns + encode_ns) as f64)),
                Err(e) => {
                    out.fail(format!("replay {}: {e}", class.canonical_key()));
                    service.push((total_ns as f64, 0.0));
                }
            }
        }

        // Queue and transport wait: round trip minus serial service time.
        let mut seen = HashSet::new();
        let waits: Vec<f64> = answers
            .iter()
            .map(|a| {
                let (cold, cached) = service[a.class];
                let svc = if seen.insert(a.req.fingerprint()) { cold } else { cached };
                (a.rtt.as_nanos() as f64 - svc) / 1e6
            })
            .collect();

        let hop_us = self.hop_us(out);
        let spans = rec.spans();
        totals.write(&spans, &mut out.layers);
        let shard = self.router.metrics();
        let l = &mut out.layers;
        l.insert("serve.wait_ms", mean(&waits).unwrap_or(0.0));
        l.insert("serve.parse_us", mean_ms(&spans, "serve.parse") * 1e3);
        l.insert("serve.encode_us", mean_ms(&spans, "serve.encode") * 1e3);
        l.insert("shard.hop_us", hop_us);
        l.insert("shard.retries", shard.counter("shard/retries") as f64);
        l.insert("shard.ejections", shard.counter("shard/ejections") as f64);
        l.insert("compiler.static_insts", mean(&insts).unwrap_or(0.0));
        l.insert("compiler.compile_ms", mean_ms(&spans, "compiler.compile"));
        l.insert("core.compile_hit_us", mean_ms(&spans, "core.compile_hit") * 1e3);
        l.insert("workloads.instantiate_ms", mean_ms(&spans, "workloads.instantiate"));
        l.insert("analytic.predict_ms", mean_ms(&spans, "analytic.predict"));
        out.spans = spans;
    }

    /// Router round trip minus a direct round trip to the owning
    /// backend's pool, both for a cached request on the idle system:
    /// the cost of the wire, the routing and the extra encode and parse.
    fn hop_us(&self, out: &mut Outcome) -> f64 {
        const REPS: usize = 5;
        let ring = HashRing::new(self.backends.len(), self.replicas);
        let mut hops = Vec::new();
        for (i, class) in self.classes.iter().enumerate() {
            // A budget no generated request uses: a fresh key, cached by
            // the first round trip.
            let req = SimRequest { max_cycles: BASE_BUDGET - 1 - i as u64, ..class.clone() };
            let warm = self.router.submit(req.clone()).wait();
            if !warm.contains("\"status\":\"done\"") {
                out.fail(format!("hop probe {}: {warm}", class.canonical_key()));
                continue;
            }
            let owner = &self.backends[ring.owner(req.fingerprint())].pool;
            let time = |f: &dyn Fn()| {
                let samples: Vec<f64> = (0..REPS)
                    .map(|_| {
                        let t = Instant::now();
                        f();
                        t.elapsed().as_nanos() as f64
                    })
                    .collect();
                median(&samples).unwrap_or(0.0)
            };
            let routed = time(&|| drop(self.router.submit(req.clone()).wait()));
            let direct = time(&|| drop(owner.submit(req.clone()).wait()));
            hops.push((routed - direct) / 1e3);
        }
        mean(&hops).unwrap_or(0.0)
    }
}

/// Builds client `c`'s stream: rounds of the classes in seeded order,
/// each fresh request with a budget no other request uses, and about a
/// quarter of slots repeating a recent request exactly.
fn generate(seed: u64, c: usize, len: usize, classes: &[SimRequest]) -> Vec<Req> {
    let mut rng = Rng::new(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(c as u64 + 1)));
    let mut out: Vec<Req> = Vec::with_capacity(len);
    let mut round: Vec<usize> = Vec::new();
    let mut fresh = 0u64;
    while out.len() < len {
        if !out.is_empty() && rng.next_f64() < REPEAT_SHARE {
            let back = rng.range_usize(1, out.len().min(REPEAT_WINDOW) + 1);
            let again = out[out.len() - back].clone();
            out.push(again);
            continue;
        }
        if round.is_empty() {
            round = (0..classes.len()).collect();
            rng.shuffle(&mut round);
        }
        let class = round.pop().expect("refilled above");
        fresh += 1;
        let max_cycles = BASE_BUDGET + fresh * CLIENTS as u64 + c as u64;
        out.push(Req { class, req: SimRequest { max_cycles, ..classes[class].clone() } });
    }
    out
}

fn hex_field(v: &json::Value, key: &str) -> Option<u64> {
    v.get(key).and_then(json::Value::as_str).and_then(|h| u64::from_str_radix(h, 16).ok())
}

/// Whether one reply is a `done` line whose echoed fingerprint, output
/// hash and report hash match the request and its class reference.
fn check(a: &Answer, reference: &Option<Reference>, out: &mut Outcome) -> bool {
    let key = a.req.canonical_key();
    let Ok(v) = json::parse(a.line.trim()) else {
        out.fail(format!("{key}: unparseable reply {:?}", a.line));
        return false;
    };
    if v.get("status").and_then(json::Value::as_str) != Some("done") {
        out.fail(format!("{key}: {}", a.line.trim()));
        return false;
    }
    let Some(reference) = reference else { return false };
    let fields =
        (hex_field(&v, "fingerprint"), hex_field(&v, "output_hash"), hex_field(&v, "report_hash"));
    let want =
        (Some(a.req.fingerprint()), Some(reference.output_hash), Some(reference.report_hash));
    if fields != want {
        out.fail(format!("{key}: reply {fields:?} differs from serial run {want:?}"));
        return false;
    }
    true
}
