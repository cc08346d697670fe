//! Analytic vs. skip-ahead engine race over a tuner-shaped candidate
//! wave (StencilChain, the deepest Table II pipeline — see DESIGN.md
//! §"Three engine tiers").
//!
//! The analytic tier exists so the tuner can rank whole neighbourhoods
//! without paying for simulation; this race measures exactly that shape
//! of work: a wave of legal schedule candidates is compiled once (shared
//! program cache), then every candidate is evaluated by both engines and
//! the total wall-clocks compared. Exits non-zero if the analytic tier is
//! not at least `--floor`× (default 100) faster, or if its cycle ranking
//! of the wave disagrees with the bit-exact engine's ranking — the two
//! properties the tuner's short-list depends on. CI runs this as a perf
//! regression gate; `bench_regress` races skip-ahead against legacy the
//! same way. Pass `--scale N` for an N×N input (default 64).

use std::time::Instant;

use ipim_core::{
    workload_by_name, Engine, Fidelity, MachineConfig, ScheduleOverride, Session, WorkloadScale,
};

const MAX_CYCLES: u64 = 4_000_000_000;

fn main() {
    let mut scale = 64u32;
    let mut floor = 100.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--scale needs a number"));
            }
            "--floor" => {
                floor = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--floor needs a number"));
            }
            other => panic!("unknown argument {other:?} (supported: --scale N, --floor X)"),
        }
    }
    let base = workload_by_name("StencilChain", WorkloadScale { width: scale, height: scale })
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
    let mut ranks: Vec<(u64, u64, &str)> = Vec::new(); // (skip cycles, pred cycles, key)
    println!(
        "{:<22} {:>12} {:>12} {:>11} {:>11}",
        "candidate", "skip_cycles", "pred_cycles", "skip_wall", "pred_wall"
    );
    for (key, w, program) in &compiled {
        let t0 = Instant::now();
        let s = skip.simulate(program, &w.inputs, MAX_CYCLES).expect("skip-ahead run");
        let st = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let p = analytic.simulate(program, &w.inputs, MAX_CYCLES).expect("analytic predict");
        let pt = t1.elapsed().as_secs_f64();
        assert_eq!(p.fidelity, Fidelity::Approximate);
        skip_wall += st;
        analytic_wall += pt;
        ranks.push((s.report.cycles, p.report.cycles, key));
        println!(
            "{:<22} {:>12} {:>12} {:>10.3}s {:>10.6}s",
            key, s.report.cycles, p.report.cycles, st, pt
        );
    }

    let speedup = skip_wall / analytic_wall.max(1e-9);
    println!(
        "wave of {}: skip-ahead {skip_wall:.3} s, analytic {analytic_wall:.6} s — {speedup:.0}x",
        ranks.len()
    );

    // The short-list property: the analytic best must be the wave's true
    // best (ties by key, same rule the tuner applies).
    let true_best = ranks.iter().min_by_key(|(s, _, k)| (*s, *k)).expect("non-empty wave");
    let pred_best = ranks.iter().min_by_key(|(_, p, k)| (*p, *k)).expect("non-empty wave");
    if true_best.2 != pred_best.2 {
        eprintln!(
            "FAIL: analytic picked {} but the bit-exact winner is {}",
            pred_best.2, true_best.2
        );
        std::process::exit(1);
    }
    println!("winner agreement: both engines pick {}", true_best.2);

    if speedup < floor {
        eprintln!("FAIL: analytic tier must be at least {floor:.0}x faster (got {speedup:.0}x)");
        std::process::exit(1);
    }
}
