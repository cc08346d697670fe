//! The repository benchmark. Run from the repository root:
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-deep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! It builds the chosen workload's inputs from `--seed`, measures its timed
//! phase, checks every output, prints a table of every metric by name and
//! unit, and ends with one JSON result line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the same ops with spans around
//! each call into a layer, reports the per-layer metrics, and measures the
//! tracing overhead against an untraced run of the same seed. See
//! `perfbench/README.md` for every definition.

mod clock;
mod machine;
mod report;
mod serve_mixed;
mod sim_deep;
mod spans;
mod stamp;
mod stats;
mod tune_space;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use ipim_core::trace::{json, MetricsRegistry};
use ipim_core::ProgramCache;

use report::{Outcome, END_TO_END};
use spans::Recorder;
use stamp::Stamp;
use stats::{median, percentile, ratio, tail_percentile};

/// Set-ups measured per untraced run (this process plus children); the
/// median is reported.
const SETUPS: usize = 7;

/// Program-cache and per-stage lowering-cache counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    prog_hits: u64,
    prog_misses: u64,
    stage_hits: u64,
    stage_misses: u64,
}

impl CacheStats {
    /// The process-wide counters now.
    pub fn now() -> Self {
        let mut reg = MetricsRegistry::default();
        ProgramCache::global().export_metrics(&mut reg);
        Self {
            prog_hits: reg.counter("serve/progcache/hits"),
            prog_misses: reg.counter("serve/progcache/misses"),
            stage_hits: reg.counter("serve/progcache/stage_hits"),
            stage_misses: reg.counter("serve/progcache/stage_misses"),
        }
    }

    /// Counts since `earlier`.
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            prog_hits: self.prog_hits - earlier.prog_hits,
            prog_misses: self.prog_misses - earlier.prog_misses,
            stage_hits: self.stage_hits - earlier.stage_hits,
            stage_misses: self.stage_misses - earlier.stage_misses,
        }
    }
}

/// Records `latency_p50_ms`, the p99 when the sample allows it, and the
/// sample count with the highest percentile it supports.
pub fn latency_metrics(ms: &[f64], out: &mut Outcome) {
    let mut sorted = ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    if let Some(p50) = median(&sorted) {
        out.e2e.insert("latency_p50_ms", p50);
    }
    if let Some(p99) = stats::p99(&sorted) {
        out.e2e.insert("latency_p99_ms", p99);
    }
    let tail = match tail_percentile(sorted.len()) {
        Some(p) => format!("p{p} = {:.3} ms", percentile(&sorted, p as f64)),
        None => "no tail percentile has 10 samples beyond it".to_string(),
    };
    out.notes.push(format!("latency samples: {}; {tail}", sorted.len()));
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 20.0, trace: false, setup_only: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !["sim-deep", "serve-mixed", "tune-space"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be sim-deep, serve-mixed or tune-space, not {:?}",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// A set-up workload.
enum Bench {
    SimDeep(sim_deep::SimDeep),
    ServeMixed(serve_mixed::ServeMixed),
    TuneSpace(tune_space::TuneSpace),
}

impl Bench {
    fn setup(args: &Args, rec: Option<&Recorder>) -> Result<Self, String> {
        Ok(match args.workload.as_str() {
            "sim-deep" => Bench::SimDeep(sim_deep::SimDeep::setup(args.seed, rec)?),
            "serve-mixed" => {
                Bench::ServeMixed(serve_mixed::ServeMixed::setup(args.seed, args.seconds, rec)?)
            }
            _ => Bench::TuneSpace(tune_space::TuneSpace::setup(rec)?),
        })
    }

    fn run(&self, seconds: f64, rec: Option<&Recorder>, out: &mut Outcome) {
        match self {
            Bench::SimDeep(b) => b.run(seconds, rec, out),
            Bench::ServeMixed(b) => b.run(seconds, rec, out),
            Bench::TuneSpace(b) => b.run(rec, out),
        }
    }

    /// Stops every thread the workload started.
    fn shutdown(self) {
        if let Bench::ServeMixed(b) = self {
            b.shutdown();
        }
    }
}

/// Runs this binary again with `extra` arguments and returns its stdout.
fn rerun(args: &Args, extra: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(extra)
        .output()
        .map_err(|e| format!("re-running the benchmark: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child run {extra:?} failed: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&output.stdout).into_owned())
}

/// Set-up times of fresh processes (program and stage caches start cold
/// in each, as in this one).
fn child_setups(args: &Args, n: usize) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            let out = rerun(args, &["--setup-only"])?;
            out.lines()
                .find_map(|l| l.strip_prefix("setup_s "))
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(|| format!("setup-only child printed {out:?}"))
        })
        .collect()
}

/// Where a run with `trace` writes its results.
fn results_path(args: &Args, trace: bool) -> PathBuf {
    let name = format!("{}-seed{}-trace{}.json", args.workload, args.seed, u8::from(trace));
    Path::new("perfbench/out").join(name)
}

/// Every end-to-end value of an untraced child run with the same seed,
/// read from the results file it writes.
fn untraced_metrics(args: &Args) -> Result<BTreeMap<String, f64>, String> {
    rerun(args, &["--trace", "0"])?;
    let path = results_path(args, false);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    match json::parse(&text)?.get("end_to_end") {
        Some(json::Value::Object(m)) => {
            Ok(m.iter().filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v))).collect())
        }
        _ => Err(format!("{}: no end_to_end object", path.display())),
    }
}

fn write_results(args: &Args, stamp: &Stamp, outcome: &Outcome, setups: &[f64]) {
    let path = results_path(args, args.trace);
    if path.parent().is_some_and(|dir| std::fs::create_dir_all(dir).is_err()) {
        return;
    }
    let metrics = |m: &std::collections::BTreeMap<&'static str, f64>| {
        m.iter().map(|(k, v)| format!("\"{k}\":{}", report::num(*v))).collect::<Vec<_>>().join(",")
    };
    let notes: Vec<String> =
        outcome.notes.iter().map(|n| format!("\"{}\"", n.replace(['"', '\\'], "'"))).collect();
    let text = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"stamp\":{},\
         \"attempted\":{},\"failed\":{},\"setups_s\":[{}],\"end_to_end\":{{{}}},\
         \"per_layer\":{{{}}},\"notes\":[{}],\"spans\":{}}}\n",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stamp.to_json(),
        outcome.tally.attempted,
        outcome.tally.failed,
        setups.iter().map(|s| report::num(*s)).collect::<Vec<_>>().join(","),
        metrics(&outcome.e2e),
        metrics(&outcome.layers),
        notes.join(","),
        spans::to_json(&outcome.spans),
    );
    let _ = std::fs::write(path, text);
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let rec = args.trace.then(Recorder::new);
    let mut outcome = Outcome { setup_caches: CacheStats::now(), ..Outcome::default() };
    let bench = match Bench::setup(&args, rec.as_ref()) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The main thread's CPU time since the process started (see `clock`).
    let setup_s = clock::thread_cpu_ns()
        .map_or_else(|| process_start.elapsed().as_secs_f64(), |ns| ns as f64 / 1e9);
    if args.setup_only {
        bench.shutdown();
        println!("setup_s {setup_s}");
        return ExitCode::SUCCESS;
    }
    let setup_end = CacheStats::now();
    bench.run(args.seconds, rec.as_ref(), &mut outcome);
    bench.shutdown();

    // The workload's own compiles: set-up and timed phase.
    let caches = outcome.phase_caches.unwrap_or(setup_end).since(&outcome.setup_caches);
    let f = |v: u64| v as f64;
    let l = &mut outcome.layers;
    if args.trace {
        l.insert(
            "compiler.stage_hit_ratio",
            ratio(f(caches.stage_hits), f(caches.stage_hits + caches.stage_misses)),
        );
        l.insert(
            "core.progcache_hit_ratio",
            ratio(f(caches.prog_hits), f(caches.prog_hits + caches.prog_misses)),
        );
    }
    outcome.notes.push(format!(
        "compiles in set-up and timed phase: program cache {} hit(s) / {} miss(es), stage cache \
         {} hit(s) / {} miss(es)",
        caches.prog_hits, caches.prog_misses, caches.stage_hits, caches.stage_misses
    ));

    let mut setups = vec![setup_s];
    if args.trace {
        match untraced_metrics(&args) {
            Ok(untraced) => {
                for (name, base) in &untraced {
                    let Some(traced) = outcome.e2e.get(name.as_str()).copied() else { continue };
                    outcome.notes.push(format!(
                        "tracing overhead: {name} traced {traced} - untraced {base} = {}",
                        traced - base
                    ));
                }
                for (name, key) in [
                    ("ops_per_s", "trace.ops_per_s_delta"),
                    ("latency_p50_ms", "trace.latency_p50_ms_delta"),
                ] {
                    let base = untraced.get(name).copied().unwrap_or(0.0);
                    let traced = outcome.e2e.get(name).copied().unwrap_or(0.0);
                    outcome.layers.insert(key, traced - base);
                }
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match child_setups(&args, SETUPS - 1) {
            Ok(more) => setups.extend(more),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    outcome.e2e.insert("setup_s", median(&setups).unwrap_or(setup_s));
    outcome.e2e.insert("error_rate", outcome.tally.error_rate());
    outcome.e2e.insert("peak_rss_mb", stamp::peak_rss_mb());
    outcome.notes.push(format!(
        "error_rate {} = {} failed / {} attempted; set-ups (s): {setups:?}",
        outcome.tally.error_rate(),
        outcome.tally.failed,
        outcome.tally.attempted
    ));

    let stamp = Stamp::collect(args.seed);
    write_results(&args, &stamp, &outcome, &setups);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# stamp {}", stamp.to_json());
    print!("{}", report::table(&outcome, &args.workload, args.trace));
    let missing: Vec<&str> = END_TO_END
        .iter()
        .filter(|d| d.declared && !args.trace && !outcome.e2e.contains_key(d.name))
        .map(|d| d.name)
        .collect();
    if !missing.is_empty() {
        eprintln!("perfbench: no value for {missing:?}");
        return ExitCode::FAILURE;
    }
    println!("{}", report::result_line(&outcome, args.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} ops failed a check",
            outcome.tally.failed, outcome.tally.attempted
        );
        ExitCode::FAILURE
    }
}
