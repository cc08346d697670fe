//! `tune` — search for schedules that beat the hand-written Table II
//! mappings, using the serving pool for parallel candidate evaluation.
//!
//! ```text
//! tune --workloads Blur,StencilChain --seed 7 --strategy hill \
//!      --out results/tuning.jsonl
//! ```
//!
//! Per workload the run prints a leaderboard to stdout and appends one
//! `tune_eval` JSONL line per evaluation plus a `tune_best` summary to
//! `--out`. `--gate-default` exits non-zero if any workload's best
//! schedule is *worse* than the hand default — the CI smoke gate.
//!
//! Flags: `--workloads A,B` (default Blur) · `--width/--height` (128) ·
//! `--vaults N` (1) · `--seed N` (0x1915) · `--strategy
//! exhaustive|random|hill` (hill) · `--samples N` (random, 24) ·
//! `--restarts N`/`--steps N` (hill, 2/8) · `--workers N` (pool, 2) ·
//! `--max-cycles N` · `--prune-ratio X` (8.0) · `--frontier N` (4; 0 =
//! simulate every hill-climb neighbour) · `--include-backend` ·
//! `--top N` (10) · `--out PATH` (results/tuning.jsonl) · `--gate-default`.

use std::path::PathBuf;
use std::process::ExitCode;

use ipim_serve::{PoolConfig, ServePool};
use ipim_tune::{append_jsonl, jsonl_lines, leaderboard, run_search, Strategy, TuneConfig};

fn main() -> ExitCode {
    let mut workloads = vec!["Blur".to_string()];
    let mut base = TuneConfig::new("Blur");
    let mut strategy_name = "hill".to_string();
    let mut samples = 24usize;
    let mut restarts = 2usize;
    let mut steps = 8usize;
    let mut workers = 2usize;
    let mut top = 10usize;
    let mut out_path = PathBuf::from("results/tuning.jsonl");
    let mut gate_default = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |flag: &str| args.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match a.as_str() {
            "--workloads" => {
                workloads = val("--workloads").split(',').map(str::to_string).collect();
            }
            "--width" => base.width = parse(&val("--width"), "--width"),
            "--height" => base.height = parse(&val("--height"), "--height"),
            "--vaults" => base.vaults = parse(&val("--vaults"), "--vaults"),
            "--seed" => base.seed = parse(&val("--seed"), "--seed"),
            "--max-cycles" => base.max_cycles = parse(&val("--max-cycles"), "--max-cycles"),
            "--strategy" => strategy_name = val("--strategy"),
            "--samples" => samples = parse(&val("--samples"), "--samples"),
            "--restarts" => restarts = parse(&val("--restarts"), "--restarts"),
            "--steps" => steps = parse(&val("--steps"), "--steps"),
            "--workers" => workers = parse(&val("--workers"), "--workers"),
            "--prune-ratio" => {
                base.prune_ratio = val("--prune-ratio")
                    .parse()
                    .unwrap_or_else(|_| panic!("--prune-ratio needs a number"));
            }
            "--frontier" => base.frontier = parse(&val("--frontier"), "--frontier"),
            "--include-backend" => base.include_backend = true,
            "--top" => top = parse(&val("--top"), "--top"),
            "--out" => out_path = PathBuf::from(val("--out")),
            "--gate-default" => gate_default = true,
            other => panic!(
                "unknown argument {other:?} (supported: --workloads A,B --width N --height N \
                 --vaults N --seed N --max-cycles N --strategy exhaustive|random|hill \
                 --samples N --restarts N --steps N --workers N --prune-ratio X \
                 --frontier N --include-backend --top N --out PATH --gate-default)"
            ),
        }
    }
    base.strategy = match strategy_name.as_str() {
        "exhaustive" => Strategy::Exhaustive,
        "random" => Strategy::Random { samples },
        "hill" => Strategy::HillClimb { restarts, steps },
        other => panic!("unknown strategy {other:?} (exhaustive | random | hill)"),
    };

    // One pool serves every workload's candidate fleet; the cache makes
    // revisited candidates (hill restarts, the verification re-run) free.
    let pool = ServePool::start(&PoolConfig { workers, queue_depth: 256, cache_capacity: 1024 });
    let mut gate_failed = false;
    for name in &workloads {
        let cfg = TuneConfig { workload: name.clone(), ..base.clone() };
        let outcome = match run_search(&cfg, &pool) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("tune: {name}: {e}");
                gate_failed = true;
                continue;
            }
        };
        print!("{}", leaderboard(&outcome, top));
        if let Err(e) = append_jsonl(&out_path, &jsonl_lines(&outcome)) {
            eprintln!("tune: cannot write {}: {e}", out_path.display());
            return ExitCode::FAILURE;
        }
        println!("appended {} line(s) to {}", outcome.evals.len() + 1, out_path.display());
        if gate_default {
            match (outcome.default_cycles, outcome.best.cycles) {
                (Some(d), Some(b)) if b <= d => {
                    println!("gate: {name} best {b} <= default {d} cycles — ok");
                }
                (d, b) => {
                    eprintln!("gate: {name} FAILED (default {d:?}, best {b:?})");
                    gate_failed = true;
                }
            }
        }
        println!();
    }
    let metrics = pool.shutdown();
    eprintln!(
        "tune: pool completed {} job(s), {} cache hit(s)",
        metrics.counter("serve/pool/completed"),
        metrics.counter("serve/cache/hits")
    );
    if gate_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn parse<T: std::str::FromStr>(text: &str, flag: &str) -> T {
    text.parse().unwrap_or_else(|_| panic!("{flag} needs an unsigned integer, got {text:?}"))
}
