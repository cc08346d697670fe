//! CI perf-regression gate for the cycle engines.
//!
//! Re-measures the `end_to_end/legacy` and `end_to_end/skip_ahead` kernels
//! (the same compile+simulate+verify loop `benches/figures.rs` records) and
//! diffs their `min_ns` against the committed baseline in
//! `results/figures.jsonl`. Because CI machines differ from the machine
//! that recorded the baseline, both sides are normalized by the
//! `fig01_gpu_profile` entry — a pure-computation kernel that tracks
//! machine speed but not simulator regressions, measured fresh by
//! `ipim_report::measure_anchor` (the matrix anchor's own estimator).
//!
//! Exits non-zero when a gated entry's normalized `min_ns` regresses by
//! more than the threshold (default 25 %), or when the engine race fails:
//! both kernels run StencilChain 128² on the same 1-vault slice, so
//! skip-ahead's fresh `min_ns` must be strictly below legacy's and the two
//! engines must report equal simulated cycles.
//!
//! ```text
//! cargo run --release -p ipim-bench --bin bench_regress -- \
//!     --baseline results/figures.jsonl [--threshold 25] [--fresh new.jsonl] \
//!     [--serve-fresh serve.jsonl] [--matrix matrix.jsonl]
//! ```
//!
//! With `--fresh`, no measurement runs: the two files are diffed directly
//! (useful for comparing two recorded runs), and the engine race is
//! checked on the fresh file's entries. Entries without a `cycles` field
//! (the bench-recorded ones) carry no cycles to compare.
//!
//! With `--serve-fresh`, `serve/throughput/*` and `shard/throughput/*`
//! entries from a just-measured loadgen run are gated against the baseline
//! too — but **only** baseline
//! entries whose recorded `cores` field matches this machine's core count
//! (and whose `mix`/`transport` match the fresh entry's). Throughput
//! numbers depend on physical parallelism in a way the single-core
//! normalizer cannot correct for, so cross-machine comparisons are skipped
//! with a message instead of producing false regressions.
//!
//! With `--matrix`, a fresh `matrix.jsonl` (from `ipim-report`'s `matrix`
//! bin) is gated against the committed `results/matrix.jsonl` (override
//! with `--matrix-baseline`): a schema-version mismatch fails outright;
//! per cell, simulated `cycles` are deterministic and fail on >threshold
//! upward drift un-normalized, while `wall_ns` is normalized by the
//! `fig01_gpu_profile` anchor *recorded inside each matrix file* and
//! gated only for cells whose baseline wall time clears the 50 ms noise
//! floor (`MATRIX_WALL_FLOOR_NS`). Cells present on only one side
//! loud-skip.

use ipim_core::experiments::verify_against_reference;
use ipim_core::trace::json;
use ipim_core::{workload_by_name, Engine, MachineConfig, Session, WorkloadScale};
use ipim_report::{measure_anchor, min_ns_of};

/// The entries the gate enforces.
const GATED: [&str; 2] = ["end_to_end/legacy", "end_to_end/skip_ahead"];
/// The machine-speed normalizer entry.
const NORMALIZER: &str = ipim_report::ANCHOR_NAME;

/// One figures-file entry, with the context fields the serve gate needs.
struct Entry {
    name: String,
    min_ns: u64,
    /// Core count the entry was recorded on (serve entries only).
    cores: Option<u64>,
    /// Workload mix (serve entries only).
    mix: Option<String>,
    /// Transport: "inproc" | "stream" | "shard" (absent = inproc).
    transport: String,
    /// Simulated cycles (engine entries this gate measured itself).
    cycles: Option<u64>,
}

/// Parses a `results/figures.jsonl` file.
fn parse_jsonl(path: &str) -> Vec<Entry> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path:?}: {e}"));
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).unwrap_or_else(|e| panic!("{path}:{}: bad JSON: {e}", i + 1));
        let name = v
            .get("name")
            .and_then(json::Value::as_str)
            .unwrap_or_else(|| panic!("{path}:{}: no name", i + 1));
        let min_ns = v
            .get("min_ns")
            .and_then(json::Value::as_f64)
            .unwrap_or_else(|| panic!("{path}:{}: no min_ns", i + 1));
        out.push(Entry {
            name: name.to_string(),
            min_ns: min_ns as u64,
            cores: v.get("cores").and_then(json::Value::as_f64).map(|c| c as u64),
            mix: v.get("mix").and_then(json::Value::as_str).map(str::to_string),
            transport: v
                .get("transport")
                .and_then(json::Value::as_str)
                .unwrap_or("inproc")
                .to_string(),
            cycles: v.get("cycles").and_then(json::Value::as_f64).map(|c| c as u64),
        });
    }
    out
}

fn lookup(entries: &[Entry], name: &str) -> Option<u64> {
    entries.iter().find(|e| e.name == name).map(|e| e.min_ns)
}

/// Measures fresh `min_ns` for the normalizer and both gated entries.
fn measure_fresh() -> Vec<Entry> {
    let mut out = Vec::new();
    let plain = |name: String, min_ns: u64, cycles: Option<u64>| Entry {
        name,
        min_ns,
        cores: None,
        mix: None,
        transport: "inproc".to_string(),
        cycles,
    };
    out.push(plain(NORMALIZER.to_string(), measure_anchor().min_ns, None));
    let scale = WorkloadScale { width: 128, height: 128 };
    let w = workload_by_name("StencilChain", scale).expect("Table II workload");
    for (label, engine) in [("legacy", Engine::Legacy), ("skip_ahead", Engine::SkipAhead)] {
        let session = Session::new(MachineConfig { engine, ..MachineConfig::vault_slice(1) });
        let mut cycles = 0;
        let min = min_ns_of(1, 2, || {
            let o = session.run_workload(&w, 4_000_000_000).expect("run");
            verify_against_reference(&w, &o);
            cycles = o.report.cycles;
        });
        out.push(plain(format!("end_to_end/{label}"), min, Some(cycles)));
    }
    out
}

/// The engine race over the fresh `end_to_end/*` entries: skip-ahead's
/// `min_ns` must be strictly below legacy's, and both must report the
/// same cycles. Returns whether the race failed.
fn gate_race(fresh: &[Entry]) -> bool {
    let find = |name: &str| fresh.iter().find(|e| e.name == name);
    let (Some(legacy), Some(skip)) = (find(GATED[0]), find(GATED[1])) else {
        return false; // a missing entry already failed the per-entry gate
    };
    let faster = skip.min_ns < legacy.min_ns;
    let agree = skip.cycles == legacy.cycles;
    println!(
        "{}: engine race: skip_ahead min_ns {} vs legacy {} ({:.2}x, must be > 1); \
         cycles {:?} vs {:?} (must be equal)",
        if faster && agree { "ok" } else { "FAIL" },
        skip.min_ns,
        legacy.min_ns,
        legacy.min_ns as f64 / skip.min_ns.max(1) as f64,
        skip.cycles,
        legacy.cycles,
    );
    !(faster && agree)
}

/// Gates `serve/throughput/*` and `shard/throughput/*` entries: compares
/// a fresh loadgen run against baseline entries recorded on an identical
/// setup (same core count as this machine, same mix and transport),
/// skipping — loudly — anything recorded elsewhere. Returns whether any
/// comparison failed.
fn gate_serve(baseline: &[Entry], serve_fresh: &[Entry], norm: f64, threshold_pct: f64) -> bool {
    let machine_cores = std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1);
    let mut failed = false;
    for base in baseline.iter().filter(|e| {
        e.name.starts_with("serve/throughput/") || e.name.starts_with("shard/throughput/")
    }) {
        match base.cores {
            Some(c) if c == machine_cores => {}
            Some(c) => {
                println!(
                    "skip: {}: baseline recorded on {c} core(s), this machine has \
                     {machine_cores} — not comparable",
                    base.name
                );
                continue;
            }
            None => {
                println!("skip: {}: baseline has no cores field", base.name);
                continue;
            }
        }
        let Some(fresh) = serve_fresh
            .iter()
            .find(|f| f.name == base.name && f.mix == base.mix && f.transport == base.transport)
        else {
            println!(
                "skip: {}: no fresh entry with mix {:?} / transport {:?}",
                base.name, base.mix, base.transport
            );
            continue;
        };
        let expected = base.min_ns as f64 * norm;
        let delta_pct = (fresh.min_ns as f64 / expected - 1.0) * 100.0;
        let verdict = if delta_pct > threshold_pct { "FAIL" } else { "ok" };
        println!(
            "{verdict}: {}: p50_ns {} vs normalized baseline {:.0} ({delta_pct:+.1} %, \
             gate +{threshold_pct:.0} %)",
            base.name, fresh.min_ns, expected
        );
        failed |= delta_pct > threshold_pct;
    }
    failed
}

/// The wall-clock noise floor for matrix cells. A cell's `wall_ns` spans
/// submit→completion through the serve pool, so it includes
/// queue-position wait — which shifts with `--workers` and OS scheduling
/// jitter (2× swings on millisecond cells in practice). Only cells long
/// enough to amortize that (≥ 50 ms) gate wall; quicker baselines are
/// loud-skipped and their deterministic `cycles` gated exactly instead.
const MATRIX_WALL_FLOOR_NS: u64 = 50_000_000;

/// Gates a fresh benchmark matrix against the committed baseline. Both
/// files are schema-checked by the shared `ipim-report` parser (a version
/// mismatch fails before any comparison). Returns whether any cell
/// failed.
fn gate_matrix(baseline_path: &str, fresh_path: &str, threshold_pct: f64) -> bool {
    let parse = |path: &str| match ipim_report::read_matrix(std::path::Path::new(path)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("FAIL: matrix gate: {e}");
            std::process::exit(1);
        }
    };
    let base = parse(baseline_path);
    let fresh = parse(fresh_path);
    // Each matrix file carries its own machine-speed anchor, so the gate
    // needs no entry from figures.jsonl.
    let norm = match (base.anchor_ns(), fresh.anchor_ns()) {
        (Some(b), Some(f)) if b > 0 && f > 0 => f as f64 / b as f64,
        _ => {
            eprintln!("warning: matrix anchor missing on one side; comparing raw wall_ns");
            1.0
        }
    };
    println!("matrix machine-speed normalizer: {norm:.3}x baseline");
    let mut failed = false;
    for b in &base.cells {
        let Some(f) = fresh.cells.iter().find(|f| f.fingerprint() == b.fingerprint()) else {
            println!("skip: matrix {}: no fresh cell (not re-measured)", b.canonical_key());
            continue;
        };
        // Simulated cycles are deterministic: any upward drift beyond
        // the threshold is a real simulated-performance regression, no
        // normalizer needed (downward drift is an improvement).
        if let (Some(bc), Some(fc)) = (b.cycles, f.cycles) {
            let delta_pct = (fc as f64 / bc as f64 - 1.0) * 100.0;
            let verdict = if delta_pct > threshold_pct { "FAIL" } else { "ok" };
            println!(
                "{verdict}: matrix {}: cycles {fc} vs baseline {bc} ({delta_pct:+.1} %, \
                 gate +{threshold_pct:.0} %)",
                b.canonical_key()
            );
            failed |= delta_pct > threshold_pct;
        }
        if b.wall_ns >= MATRIX_WALL_FLOOR_NS {
            let expected = b.wall_ns as f64 * norm;
            let delta_pct = (f.wall_ns as f64 / expected - 1.0) * 100.0;
            let verdict = if delta_pct > threshold_pct { "FAIL" } else { "ok" };
            println!(
                "{verdict}: matrix {}: wall_ns {} vs normalized baseline {:.0} \
                 ({delta_pct:+.1} %, gate +{threshold_pct:.0} %)",
                b.canonical_key(),
                f.wall_ns,
                expected
            );
            failed |= delta_pct > threshold_pct;
        } else {
            println!(
                "skip: matrix {}: baseline wall {} ns under the {} ns gate floor",
                b.canonical_key(),
                b.wall_ns,
                MATRIX_WALL_FLOOR_NS
            );
        }
    }
    for f in &fresh.cells {
        if !base.cells.iter().any(|b| b.fingerprint() == f.fingerprint()) {
            println!(
                "skip: matrix {}: fresh cell has no committed baseline yet — record one",
                f.canonical_key()
            );
        }
    }
    if base.cells.is_empty() {
        println!("skip: matrix baseline has no cells");
    }
    failed
}

fn main() {
    let mut baseline_path = "results/figures.jsonl".to_string();
    let mut fresh_path: Option<String> = None;
    let mut serve_fresh_path: Option<String> = None;
    let mut matrix_fresh_path: Option<String> = None;
    let mut matrix_baseline_path = "results/matrix.jsonl".to_string();
    let mut threshold_pct = 25.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |flag: &str| args.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match a.as_str() {
            "--baseline" => baseline_path = val("--baseline"),
            "--fresh" => fresh_path = Some(val("--fresh")),
            "--serve-fresh" => serve_fresh_path = Some(val("--serve-fresh")),
            "--matrix" => matrix_fresh_path = Some(val("--matrix")),
            "--matrix-baseline" => matrix_baseline_path = val("--matrix-baseline"),
            "--threshold" => {
                threshold_pct = val("--threshold").parse().expect("--threshold needs a number");
            }
            other => panic!(
                "unknown argument {other:?} (supported: --baseline FILE --fresh FILE \
                 --serve-fresh FILE --matrix FILE --matrix-baseline FILE --threshold PCT)"
            ),
        }
    }

    // A missing baseline is a recording gap, not a regression: skip the
    // gate loudly (the same degradation the cores-matched serve gate uses)
    // instead of panicking, so CI stays green until a baseline lands.
    if !std::path::Path::new(&baseline_path).exists() {
        println!(
            "skip: baseline {baseline_path:?} does not exist — record one with \
             `cargo bench -p ipim-bench` and commit it; perf gate skipped"
        );
        return;
    }
    let baseline = parse_jsonl(&baseline_path);
    let fresh = match &fresh_path {
        Some(p) => parse_jsonl(p),
        None => measure_fresh(),
    };

    // Normalize out machine-speed differences when both sides carry the
    // normalizer entry; otherwise compare raw.
    let norm = match (lookup(&baseline, NORMALIZER), lookup(&fresh, NORMALIZER)) {
        (Some(b), Some(f)) if b > 0 && f > 0 => f as f64 / b as f64,
        _ => {
            eprintln!("warning: no {NORMALIZER} entry on both sides; comparing raw min_ns");
            1.0
        }
    };
    println!("machine-speed normalizer ({NORMALIZER}): {norm:.3}x baseline");

    let mut failed = false;
    for name in GATED {
        let Some(base) = lookup(&baseline, name) else {
            eprintln!("warning: baseline has no {name:?} entry; skipping");
            continue;
        };
        let Some(new) = lookup(&fresh, name) else {
            eprintln!("FAIL: fresh results have no {name:?} entry");
            failed = true;
            continue;
        };
        let expected = base as f64 * norm;
        let delta_pct = (new as f64 / expected - 1.0) * 100.0;
        let verdict = if delta_pct > threshold_pct { "FAIL" } else { "ok" };
        println!(
            "{verdict}: {name}: min_ns {new} vs normalized baseline {:.0} ({delta_pct:+.1} %, \
             gate +{threshold_pct:.0} %)",
            expected
        );
        failed |= delta_pct > threshold_pct;
    }
    failed |= gate_race(&fresh);

    if let Some(p) = &serve_fresh_path {
        failed |= gate_serve(&baseline, &parse_jsonl(p), norm, threshold_pct);
    }

    if let Some(p) = &matrix_fresh_path {
        // Mirror the figures-baseline degradation: a missing committed
        // matrix is a recording gap, not a regression.
        if std::path::Path::new(&matrix_baseline_path).exists() {
            failed |= gate_matrix(&matrix_baseline_path, p, threshold_pct);
        } else {
            println!(
                "skip: matrix baseline {matrix_baseline_path:?} does not exist — record one \
                 with `cargo run --release -p ipim-report --bin matrix` and commit it"
            );
        }
    }

    if failed {
        eprintln!("bench_regress: performance gate failed");
        std::process::exit(1);
    }
}
