//! CI perf gate: every host-speed verdict in one binary, each comparing
//! two readings taken through one measurement path. Exits non-zero when
//! any verdict fails.
//!
//! * **Engines +25 %.** Compile+simulate+verify of StencilChain 128² on a
//!   1-vault slice under the legacy and skip-ahead engines, normalized by
//!   the `fig01_gpu_profile` machine-speed anchor (a pure-computation
//!   kernel that tracks host speed but not simulator regressions), against
//!   `results/figures.jsonl`. When that file does not exist, this run's
//!   measurement is written to it and gated against itself: re-recording
//!   the baseline is "delete the file, run the gate".
//! * **Engine race.** From the same measurement, skip-ahead must be
//!   strictly faster than legacy, with equal simulated cycles.
//! * **Analytic race.** On a tuner-shaped StencilChain 64² candidate wave,
//!   the analytic tier must be at least 100× faster than skip-ahead and
//!   pick the bit-exact winner: the two properties the tuner's short-list
//!   depends on.
//!
//! ```text
//! cargo run --release -p ipim-bench --bin bench_regress
//! ```

use std::hint::black_box;
use std::time::Instant;

use ipim_core::experiments::verify_against_reference;
use ipim_core::trace::json;
use ipim_core::{
    workload_by_name, Engine, Fidelity, MachineConfig, ScheduleOverride, Session, WorkloadScale,
};
use ipim_report::gpu_profile_rows;

/// The committed engine baselines, read and written only by this gate.
const BASELINE: &str = "results/figures.jsonl";
/// The machine-speed normalizer entry.
const NORMALIZER: &str = "fig01_gpu_profile";
/// The engine entries, legacy first.
const ENGINES: [&str; 2] = ["end_to_end/legacy", "end_to_end/skip_ahead"];
/// Upward drift past which a timed entry fails, in percent.
const THRESHOLD_PCT: f64 = 25.0;
/// Timed rounds of the engine measurement, after one warm-up round.
const ROUNDS: u32 = 3;
/// Cycle budget of every gated simulation.
const MAX_CYCLES: u64 = 4_000_000_000;
/// Image side of the analytic race's StencilChain wave.
const RACE_SCALE: u32 = 64;
/// How many times faster than skip-ahead the analytic wave must run.
const RACE_FLOOR: f64 = 100.0;

/// One timed entry of `results/figures.jsonl`.
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    name: String,
    min_ns: u64,
    /// Simulated cycles (the engine entries).
    cycles: Option<u64>,
}

/// Renders entries as the baseline file: one JSON object per line.
fn render_baseline(entries: &[Entry]) -> String {
    entries
        .iter()
        .map(|e| {
            let cycles = e.cycles.map_or(String::new(), |c| format!(",\"cycles\":{c}"));
            format!("{{\"name\":\"{}\",\"min_ns\":{}{cycles}}}\n", e.name, e.min_ns)
        })
        .collect()
}

/// Parses the baseline file. A present-but-corrupt baseline is a bug,
/// not a gap, so it panics.
fn parse_baseline(text: &str) -> Vec<Entry> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = i + 1;
        let v = json::parse(line).unwrap_or_else(|e| panic!("{BASELINE}:{at}: bad JSON: {e}"));
        let name = v
            .get("name")
            .and_then(json::Value::as_str)
            .unwrap_or_else(|| panic!("{BASELINE}:{at}: no name"));
        let min_ns = v
            .get("min_ns")
            .and_then(json::Value::as_f64)
            .unwrap_or_else(|| panic!("{BASELINE}:{at}: no min_ns"));
        out.push(Entry {
            name: name.to_string(),
            min_ns: min_ns as u64,
            cycles: v.get("cycles").and_then(json::Value::as_f64).map(|c| c as u64),
        });
    }
    out
}

fn find<'a>(entries: &'a [Entry], name: &str) -> Option<&'a Entry> {
    entries.iter().find(|e| e.name == name)
}

/// Reads the machine-speed anchor: the Fig. 1 GPU-profile kernel
/// ([`gpu_profile_rows`]), the minimum of 10 runs after 3 warm-ups.
fn measure_anchor() -> u64 {
    for _ in 0..3 {
        black_box(gpu_profile_rows());
    }
    (0..10)
        .map(|_| {
            let start = Instant::now();
            black_box(gpu_profile_rows());
            start.elapsed().as_nanos() as u64
        })
        .min()
        .expect("ten runs")
}

/// Measures the normalizer and both engine entries, each the minimum over
/// [`ROUNDS`] rounds after a warm-up round. A round runs each engine once,
/// with an anchor reading before each run. The host's speed drifts over
/// seconds, and an anchor read only once samples a different stretch of
/// it than the engines do.
fn measure_engines() -> Vec<Entry> {
    let scale = WorkloadScale { width: 128, height: 128 };
    let w = workload_by_name("StencilChain", scale).expect("Table II workload");
    let sessions = [Engine::Legacy, Engine::SkipAhead]
        .map(|engine| Session::new(MachineConfig { engine, ..MachineConfig::vault_slice(1) }));
    let mut anchor_ns = u64::MAX;
    let mut engine_ns = [u64::MAX; 2];
    let mut cycles = [0; 2];
    for round in 0..=ROUNDS {
        for (i, session) in sessions.iter().enumerate() {
            anchor_ns = anchor_ns.min(measure_anchor());
            let start = Instant::now();
            let o = session.run_workload(&w, MAX_CYCLES).expect("run");
            verify_against_reference(&w, &o);
            if round > 0 {
                engine_ns[i] = engine_ns[i].min(start.elapsed().as_nanos() as u64);
            }
            cycles[i] = o.report.cycles;
        }
    }
    let engines = ENGINES.into_iter().zip(engine_ns).zip(cycles).map(|((name, min_ns), c)| Entry {
        name: name.to_string(),
        min_ns,
        cycles: Some(c),
    });
    std::iter::once(Entry { name: NORMALIZER.to_string(), min_ns: anchor_ns, cycles: None })
        .chain(engines)
        .collect()
}

/// Gates every timed entry against its baseline: a fresh `min_ns` more
/// than [`THRESHOLD_PCT`] over the anchor-normalized baseline fails, and
/// so does an entry on only one side or a missing anchor. Returns whether
/// any entry failed.
fn gate_entries(baseline: &[Entry], fresh: &[Entry]) -> bool {
    let norm = match (find(baseline, NORMALIZER), find(fresh, NORMALIZER)) {
        (Some(b), Some(f)) if b.min_ns > 0 && f.min_ns > 0 => f.min_ns as f64 / b.min_ns as f64,
        _ => {
            println!(
                "FAIL: no {NORMALIZER} entry on both sides; machine speed cannot be factored out"
            );
            return true;
        }
    };
    println!("machine-speed normalizer ({NORMALIZER}): {norm:.3}x baseline");
    let mut failed = false;
    for base in baseline.iter().filter(|e| e.name != NORMALIZER) {
        let Some(new) = find(fresh, &base.name) else {
            println!("FAIL: {}: baseline entry has no fresh measurement", base.name);
            failed = true;
            continue;
        };
        let expected = base.min_ns as f64 * norm;
        let delta_pct = (new.min_ns as f64 / expected - 1.0) * 100.0;
        let verdict = if delta_pct > THRESHOLD_PCT { "FAIL" } else { "ok" };
        println!(
            "{verdict}: {}: min_ns {} vs normalized baseline {expected:.0} ({delta_pct:+.1} %, \
             gate +{THRESHOLD_PCT:.0} %)",
            base.name, new.min_ns
        );
        failed |= delta_pct > THRESHOLD_PCT;
    }
    for new in fresh.iter().filter(|e| find(baseline, &e.name).is_none()) {
        println!("FAIL: {}: no baseline entry; delete {BASELINE} and rerun to re-record", new.name);
        failed = true;
    }
    failed
}

/// The engine race over the fresh engine entries: skip-ahead's `min_ns`
/// must be strictly below legacy's, and both must report the same
/// cycles. Returns whether the race failed.
fn gate_engine_race(fresh: &[Entry]) -> bool {
    let legacy = find(fresh, ENGINES[0]).expect("legacy was measured");
    let skip = find(fresh, ENGINES[1]).expect("skip-ahead was measured");
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

/// One analytic-race candidate: its schedule key and both engines' cycles.
struct Candidate {
    key: String,
    skip_cycles: u64,
    pred_cycles: u64,
}

/// The analytic race's wave: its candidates, the summed skip-ahead and
/// analytic wall-clock seconds, and the dynamic instructions the analytic
/// tier walked and jumped over the wave.
struct Race {
    wave: Vec<Candidate>,
    skip_wall: f64,
    analytic_wall: f64,
    walked: u64,
    jumped: u64,
}

/// Runs the analytic race's wave.
fn measure_analytic_race() -> Race {
    let base =
        workload_by_name("StencilChain", WorkloadScale { width: RACE_SCALE, height: RACE_SCALE })
            .expect("StencilChain is a Table II workload");
    let skip =
        Session::new(MachineConfig { engine: Engine::SkipAhead, ..MachineConfig::vault_slice(1) });
    let analytic =
        Session::new(MachineConfig { engine: Engine::Analytic, ..MachineConfig::vault_slice(1) });

    // A hill-climb-shaped wave: tile/pgsm neighbours of the hand
    // schedule, compiled up front (process-wide program cache) so both
    // engines race on simulation alone — the tuner pays compilation once
    // at enumeration time for the same reason. Combinations the compiler
    // rejects are dropped the same way the tuner's legality filter drops
    // them.
    let mut compiled = Vec::new();
    for (tw, th) in [(16u32, 8u32), (8, 16), (8, 8), (16, 16), (32, 8), (8, 32)] {
        for load_pgsm in [true, false] {
            let ov = ScheduleOverride {
                tile: Some((tw, th)),
                load_pgsm: Some(load_pgsm),
                ..ScheduleOverride::default()
            };
            let Ok(w) = base.with_override(&ov) else { continue };
            let Ok(p) = skip.compile(&w.pipeline) else { continue };
            let key = format!("tile={tw}x{th},pgsm={}", if load_pgsm { "on" } else { "off" });
            compiled.push((key, w, p));
        }
    }
    assert!(compiled.len() >= 4, "candidate wave collapsed to {} legal entries", compiled.len());

    let mut skip_wall = 0.0f64;
    let mut analytic_wall = 0.0f64;
    let (mut walked, mut jumped) = (0, 0);
    let mut wave = Vec::new();
    println!(
        "{:<22} {:>12} {:>12} {:>11} {:>11}",
        "candidate", "skip_cycles", "pred_cycles", "skip_wall", "pred_wall"
    );
    for (key, w, program) in compiled {
        let t0 = Instant::now();
        let s = skip.simulate(&program, &w.inputs, MAX_CYCLES).expect("skip-ahead run");
        let st = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let p = analytic.simulate(&program, &w.inputs, MAX_CYCLES).expect("analytic predict");
        let pt = t1.elapsed().as_secs_f64();
        assert_eq!(p.fidelity, Fidelity::Approximate);
        skip_wall += st;
        analytic_wall += pt;
        walked += p.metrics.counter("analytic/walked");
        jumped += p.metrics.counter("analytic/jumped");
        println!(
            "{:<22} {:>12} {:>12} {:>10.3}s {:>10.6}s",
            key, s.report.cycles, p.report.cycles, st, pt
        );
        wave.push(Candidate { key, skip_cycles: s.report.cycles, pred_cycles: p.report.cycles });
    }
    Race { wave, skip_wall, analytic_wall, walked, jumped }
}

/// The analytic race's verdict: the analytic wave must be at least
/// [`RACE_FLOOR`]× faster, and its best candidate must be the wave's true
/// best (ties by key, the rule the tuner applies). Returns whether the
/// race failed.
fn gate_analytic_race(wave: &[Candidate], skip_wall: f64, analytic_wall: f64) -> bool {
    let speedup = skip_wall / analytic_wall.max(1e-9);
    println!(
        "wave of {}: skip-ahead {skip_wall:.3} s, analytic {analytic_wall:.6} s — {speedup:.0}x",
        wave.len()
    );
    let true_best = wave.iter().min_by_key(|c| (c.skip_cycles, &c.key)).expect("non-empty wave");
    let pred_best = wave.iter().min_by_key(|c| (c.pred_cycles, &c.key)).expect("non-empty wave");
    let agree = true_best.key == pred_best.key;
    let fast = speedup >= RACE_FLOOR;
    println!(
        "{}: analytic race: {speedup:.0}x over skip-ahead (must be >= {RACE_FLOOR:.0}x); \
         analytic picks {}, the bit-exact winner is {} (must agree)",
        if fast && agree { "ok" } else { "FAIL" },
        pred_best.key,
        true_best.key,
    );
    !(fast && agree)
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        panic!("bench_regress takes no arguments (got {arg:?})");
    }

    let fresh = measure_engines();
    let baseline = match std::fs::read_to_string(BASELINE) {
        Ok(text) => parse_baseline(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            std::fs::write(BASELINE, render_baseline(&fresh))
                .unwrap_or_else(|e| panic!("cannot record {BASELINE}: {e}"));
            println!("recorded: {BASELINE} did not exist; wrote this run's measurement to it");
            fresh.clone()
        }
        Err(e) => panic!("cannot read {BASELINE}: {e}"),
    };
    let mut failed = gate_entries(&baseline, &fresh);
    failed |= gate_engine_race(&fresh);
    let race = measure_analytic_race();
    // The walk's work beside the wall times, so a failing race says
    // whether the walk or the host moved.
    println!(
        "analytic wave walked {} and jumped {} dynamic instructions",
        race.walked, race.jumped
    );
    failed |= gate_analytic_race(&race.wave, race.skip_wall, race.analytic_wall);
    if failed {
        eprintln!("bench_regress: performance gate failed");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, min_ns: u64, cycles: Option<u64>) -> Entry {
        Entry { name: name.to_string(), min_ns, cycles }
    }

    /// A baseline with anchor 100 ns and both engines at 1000 ns.
    fn baseline() -> Vec<Entry> {
        vec![
            entry(NORMALIZER, 100, None),
            entry(ENGINES[0], 1000, Some(7)),
            entry(ENGINES[1], 1000, Some(7)),
        ]
    }

    #[test]
    fn gate_allows_exactly_the_threshold_over_the_normalized_baseline() {
        // The fresh anchor doubles, so each engine may take 2000 ns × 1.25.
        let fresh = |skip_ns| {
            vec![
                entry(NORMALIZER, 200, None),
                entry(ENGINES[0], 2000, Some(7)),
                entry(ENGINES[1], skip_ns, Some(7)),
            ]
        };
        assert!(!gate_entries(&baseline(), &fresh(2500)), "+25 % exactly passes");
        assert!(gate_entries(&baseline(), &fresh(2501)), "just over +25 % fails");
    }

    #[test]
    fn gate_fails_an_entry_on_one_side_or_a_missing_anchor() {
        let mut fresh = baseline();
        fresh.retain(|e| e.name != ENGINES[1]);
        assert!(gate_entries(&baseline(), &fresh), "baseline entry with no fresh partner");
        let mut base = baseline();
        base.retain(|e| e.name != ENGINES[1]);
        assert!(gate_entries(&base, &baseline()), "fresh entry with no baseline");
        let mut fresh = baseline();
        fresh.retain(|e| e.name != NORMALIZER);
        assert!(gate_entries(&baseline(), &fresh), "no anchor to normalize by");
        assert!(!gate_entries(&baseline(), &baseline()), "a baseline passes against itself");
    }

    #[test]
    fn engine_race_needs_a_strictly_faster_skip_ahead_with_equal_cycles() {
        let race = |skip_ns, skip_cycles| {
            gate_engine_race(&[
                entry(ENGINES[0], 1000, Some(7)),
                entry(ENGINES[1], skip_ns, Some(skip_cycles)),
            ])
        };
        assert!(!race(999, 7), "faster with equal cycles passes");
        assert!(race(1000, 7), "a tie is not faster");
        assert!(race(999, 8), "cycles must agree");
    }

    #[test]
    fn analytic_race_needs_the_floor_and_the_same_winner_ties_broken_by_key() {
        let cand = |key: &str, skip_cycles, pred_cycles| Candidate {
            key: key.to_string(),
            skip_cycles,
            pred_cycles,
        };
        // Tied bit-exact cycles: the smaller key wins on both sides.
        let agree = [cand("tile=8x8", 50, 60), cand("tile=16x8", 50, 60)];
        assert!(!gate_analytic_race(&agree, 25.0, 0.25), "100x exactly with agreement passes");
        assert!(gate_analytic_race(&agree, 24.0, 0.25), "96x is under the floor");
        // The tie-break picks tile=16x8 as the true best; analytic picks tile=8x8.
        let disagree = [cand("tile=8x8", 50, 59), cand("tile=16x8", 50, 60)];
        assert!(gate_analytic_race(&disagree, 100.0, 0.25), "winner disagreement fails");
    }

    #[test]
    fn a_recorded_baseline_reads_back_as_the_same_entries() {
        let entries = baseline();
        assert_eq!(parse_baseline(&render_baseline(&entries)), entries);
    }
}
