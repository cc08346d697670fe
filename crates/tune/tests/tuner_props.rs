//! Tuner contracts (simkit harness).
//!
//! 1. **Space legality** — every schedule the space enumerates for Blur
//!    and StencilChain compiles, and a seeded sample of them simulates to
//!    an output matching the golden CPU interpreter within the canonical
//!    banded tolerance.
//! 2. **Seed determinism** — the same tuner seed finds the same best
//!    schedule twice, independent of pool width (wall-clock never leaks
//!    into the search decision).

use ipim_core::experiments::{output_divergence, REFERENCE_TOLERANCE};
use ipim_core::{workload_by_name, MachineConfig, Session, WorkloadScale};
use ipim_serve::{PoolConfig, ServePool, SimResponse};
use ipim_simkit::Rng;
use ipim_tune::{run_search, HillClimb, ScheduleSpace, TuneConfig};

fn small_cfg(workload: &str) -> TuneConfig {
    TuneConfig {
        width: 64,
        height: 64,
        climb: HillClimb { restarts: 1, steps: 3 },
        ..TuneConfig::new(workload)
    }
}

#[test]
fn prop_every_enumerated_schedule_compiles_and_a_sample_verifies() {
    let machine = MachineConfig::vault_slice(1);
    // Blur gets a full independent re-compile of every entry (2-stage,
    // cheap); StencilChain re-checks a seeded sample — its 32-stage
    // compiles dominate wall-clock, and enumeration itself already
    // compile-checked every entry once. It must stay at 64×64: any
    // smaller and the 32-deep halo-recompute boundary error covers the
    // whole image, so the banded interpreter comparison has no clean
    // interior left to verify.
    for (name, side, recheck_all) in [("Blur", 64u32, true), ("StencilChain", 64, false)] {
        let scale = WorkloadScale { width: side, height: side };
        let workload = workload_by_name(name, scale).unwrap();
        let space = ScheduleSpace::enumerate(&workload, &machine, false).unwrap();
        assert!(!space.is_empty(), "{name}: empty space");

        // Entries must compile — independently of the filter that built
        // the space (all of them, or a seeded sample for the heavy suite).
        let session = Session::new(machine.clone());
        let mut rng = Rng::new(0xC0FFEE ^ name.len() as u64);
        let recheck: Vec<usize> = if recheck_all {
            (0..space.entries.len()).collect()
        } else {
            (0..5).map(|_| rng.range_usize(0, space.entries.len())).collect()
        };
        for i in recheck {
            let entry = &space.entries[i];
            let w = workload.with_override(&entry.ov).unwrap_or_else(|e| {
                panic!("{name}: enumerated override {} does not apply: {e}", entry.ov)
            });
            session.compile_only(&w.pipeline).unwrap_or_else(|e| {
                panic!("{name}: enumerated schedule {} does not compile: {e}", entry.summary)
            });
        }

        // A seeded sample must also *run* correctly: simulate through the
        // pool and compare against the golden interpreter.
        let pool = ServePool::start(&PoolConfig { workers: 1, queue_depth: 8, cache_capacity: 8 });
        let cfg = TuneConfig { width: side, height: side, ..small_cfg(name) };
        for _ in 0..2 {
            let entry = &space.entries[rng.range_usize(0, space.entries.len())];
            let candidate =
                ipim_tune::Candidate { schedule: entry.ov, ..ipim_tune::Candidate::default_hand() };
            let w = workload.with_override(&entry.ov).unwrap();
            match pool.submit(candidate.request(&cfg)).wait() {
                SimResponse::Done(d) => {
                    let diff = output_divergence(&w, &d.output);
                    assert!(
                        diff <= REFERENCE_TOLERANCE,
                        "{name}: schedule {} diverges by {diff}",
                        entry.summary
                    );
                }
                other => panic!("{name}: schedule {} failed to run: {other:?}", entry.summary),
            }
        }
        pool.shutdown();
    }
}

#[test]
fn same_seed_finds_the_same_best_schedule() {
    let cfg = small_cfg("Blur");
    let mut outcomes = Vec::new();
    // Twice with one worker, once with two: neither repetition nor pool
    // width may change the winner.
    for workers in [1usize, 1, 2] {
        let pool = ServePool::start(&PoolConfig { workers, queue_depth: 32, cache_capacity: 64 });
        let outcome = run_search(&cfg, &pool).expect("search succeeds");
        pool.shutdown();
        outcomes.push(outcome);
    }
    let best_keys: Vec<&str> = outcomes.iter().map(|o| o.best.key.as_str()).collect();
    assert_eq!(best_keys[0], best_keys[1], "same seed, same pool: different winner");
    assert_eq!(best_keys[0], best_keys[2], "pool width changed the winner");
    assert_eq!(outcomes[0].best.cycles, outcomes[1].best.cycles);
    // The evaluation *log* is deterministic too, not just the winner.
    let keys =
        |o: &ipim_tune::TuneOutcome| o.evals.iter().map(|e| e.key.clone()).collect::<Vec<_>>();
    assert_eq!(keys(&outcomes[0]), keys(&outcomes[1]));
    assert_eq!(keys(&outcomes[0]), keys(&outcomes[2]));
}

#[test]
fn new_family_spaces_are_nontrivial_and_tuner_is_deterministic() {
    // The NN/video families must be *tunable*, not just runnable: the
    // schedule space for Gemm and TemporalBlur has to offer real choice
    // (more than one compiling point), and the search over a new-family
    // workload must be exactly as deterministic as over Blur.
    let machine = MachineConfig::vault_slice(1);
    for name in ["Gemm", "TemporalBlur"] {
        let scale = WorkloadScale { width: 64, height: 64 };
        let workload = workload_by_name(name, scale).unwrap();
        let space = ScheduleSpace::enumerate(&workload, &machine, false).unwrap();
        assert!(
            space.entries.len() >= 2,
            "{name}: schedule space is trivial ({} entries)",
            space.entries.len()
        );
    }

    let cfg = small_cfg("TemporalBlur");
    let mut outcomes = Vec::new();
    for workers in [1usize, 1, 2] {
        let pool = ServePool::start(&PoolConfig { workers, queue_depth: 32, cache_capacity: 64 });
        let outcome = run_search(&cfg, &pool).expect("search succeeds");
        pool.shutdown();
        outcomes.push(outcome);
    }
    let best_keys: Vec<&str> = outcomes.iter().map(|o| o.best.key.as_str()).collect();
    assert_eq!(best_keys[0], best_keys[1], "same seed, same pool: different winner");
    assert_eq!(best_keys[0], best_keys[2], "pool width changed the winner");
    assert_eq!(outcomes[0].best.cycles, outcomes[1].best.cycles);
    let keys =
        |o: &ipim_tune::TuneOutcome| o.evals.iter().map(|e| e.key.clone()).collect::<Vec<_>>();
    assert_eq!(keys(&outcomes[0]), keys(&outcomes[1]));
    assert_eq!(keys(&outcomes[0]), keys(&outcomes[2]));
    assert!(outcomes[0].verified_divergence <= REFERENCE_TOLERANCE);
}

#[test]
fn tuned_blur_beats_the_hand_default() {
    // The CI smoke gate's in-tree twin: fixed seed, small budget, Blur —
    // the found schedule must be at least as fast as the hand-written one
    // and verified against the interpreter (run_search errors otherwise).
    let cfg = small_cfg("Blur");
    let pool = ServePool::start(&PoolConfig { workers: 2, queue_depth: 32, cache_capacity: 64 });
    let outcome = run_search(&cfg, &pool).expect("search succeeds");
    pool.shutdown();
    let default = outcome.default_cycles.expect("hand default completes");
    let best = outcome.best.cycles.expect("best completes");
    assert!(best <= default, "tuned {best} cycles worse than hand {default}");
    assert!(outcome.verified_divergence <= REFERENCE_TOLERANCE);
}
