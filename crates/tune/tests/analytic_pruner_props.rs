//! Properties of the analytic pruning tier inside the tuner.
//!
//! The hill-climb no longer simulates every neighbour: the analytic
//! engine ranks each wave and only the top-`frontier` candidates reach
//! the bit-exact engine. These tests pin the two contracts that makes
//! safe:
//!
//! 1. **Determinism is untouched** — the analytic prediction is a pure
//!    function of the compiled program, so the same seed still finds the
//!    same winner at any pool width and any repetition.
//! 2. **The short-list never drops the best** — on the recorded PR 5
//!    winner workloads (Blur and BilateralGrid at the paper's 128²
//!    scale), a frontier-limited climb must find exactly the winner the
//!    full-wave climb finds, while simulating strictly fewer candidates.

use ipim_serve::{PoolConfig, ServePool};
use ipim_tune::{run_search, HillClimb, TuneConfig};

fn cfg_128(workload: &str) -> TuneConfig {
    TuneConfig { climb: HillClimb { restarts: 1, steps: 3 }, ..TuneConfig::new(workload) }
}

#[test]
fn same_seed_same_winner_with_analytic_pruner_at_any_pool_width() {
    // 64² keeps the bit-exact runs cheap; the frontier default (4) is
    // active, so every wave exercises the analytic short-list.
    let cfg = TuneConfig {
        width: 64,
        height: 64,
        climb: HillClimb { restarts: 1, steps: 3 },
        ..TuneConfig::new("Blur")
    };
    assert!(cfg.frontier > 0, "default config must exercise the short-list");
    let mut outcomes = Vec::new();
    for workers in [1usize, 2, 4] {
        let pool = ServePool::start(&PoolConfig { workers, queue_depth: 32, cache_capacity: 64 });
        outcomes.push(run_search(&cfg, &pool).expect("search succeeds"));
        pool.shutdown();
    }
    for o in &outcomes[1..] {
        assert_eq!(o.best.key, outcomes[0].best.key, "pool width changed the winner");
        assert_eq!(o.best.cycles, outcomes[0].best.cycles);
        // The whole evaluation log — including which candidates the
        // short-list admitted — is width-invariant.
        let keys =
            |o: &ipim_tune::TuneOutcome| o.evals.iter().map(|e| e.key.clone()).collect::<Vec<_>>();
        assert_eq!(keys(o), keys(&outcomes[0]));
    }
}

#[test]
fn slow_frontier_never_drops_the_known_best() {
    // The recorded PR 5 wins (Blur 1.79×, BilateralGrid 1.32× at 128²)
    // came from full-wave climbs. The frontier-limited climb must land on
    // the same winner — if the analytic ranking ever pushed the true best
    // out of the top-K, this diverges immediately.
    let pool = ServePool::start(&PoolConfig { workers: 4, queue_depth: 64, cache_capacity: 256 });
    for name in ["Blur", "BilateralGrid"] {
        let full = run_search(&TuneConfig { frontier: 0, ..cfg_128(name) }, &pool)
            .unwrap_or_else(|e| panic!("{name} full-wave: {e}"));
        let short =
            run_search(&cfg_128(name), &pool).unwrap_or_else(|e| panic!("{name} frontier: {e}"));
        assert_eq!(
            short.best.key, full.best.key,
            "{name}: the frontier short-list dropped the full-wave winner"
        );
        assert_eq!(short.best.cycles, full.best.cycles);
        assert!(
            short.simulated < full.simulated,
            "{name}: the short-list must spend fewer simulations ({} vs {})",
            short.simulated,
            full.simulated,
        );
        // And the win itself still stands against the hand schedule.
        let d = short.default_cycles.expect("hand default completes");
        let b = short.best.cycles.expect("best completes");
        assert!(b < d, "{name}: recorded win regressed (best {b} vs hand {d})");
    }
    pool.shutdown();
}
