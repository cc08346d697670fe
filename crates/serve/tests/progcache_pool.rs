//! A warm `ServePool` wave compiles zero programs.
//!
//! A cold session wave compiles each request's program into the
//! process-wide `ProgramCache`. A pool wave of the same requests, with the
//! result cache disabled so every job reaches the simulator, must then hit
//! that cache once per job and compile nothing. The pool's exported
//! `serve/progcache/misses` must agree with `ProgramCache::stats()`.
//!
//! This file holds exactly one test: it reads the process-wide cache
//! counters, which a second test in the same binary would move
//! concurrently.

use ipim_core::ProgramCache;
use ipim_serve::{PoolConfig, ServePool, SimRequest, SimResponse};

/// Cheap 64² kernels, each legal on a 1-vault slice.
const MIX: [&str; 3] = ["Brighten", "Blur", "Shift"];

#[test]
fn warm_pool_wave_compiles_zero_programs() {
    let requests: Vec<SimRequest> = MIX.iter().map(|n| SimRequest::named(n, 64, 64)).collect();

    // Cold wave through the session path, with the exact machine and
    // compiler options each pool job will instantiate.
    let (_, cold_misses, _) = ProgramCache::global().stats();
    for req in &requests {
        let (session, w) = req.instantiate().expect("instantiate");
        session.compile(&w.pipeline).expect("cold compile");
    }
    let (hits, misses, _) = ProgramCache::global().stats();
    assert!(misses - cold_misses >= MIX.len() as u64, "the cold wave compiles every program");

    let pool = ServePool::start(&PoolConfig { workers: 2, queue_depth: 16, cache_capacity: 0 });
    let responses = pool.run_all(requests);
    let metrics = pool.shutdown();
    for (name, r) in MIX.iter().zip(&responses) {
        assert!(matches!(r, SimResponse::Done(_)), "{name}: pool job did not complete: {r:?}");
    }
    let (warm_hits, warm_misses, _) = ProgramCache::global().stats();
    assert_eq!(warm_misses - misses, 0, "the warm pool wave compiled programs");
    assert_eq!(warm_hits - hits, MIX.len() as u64, "one program-cache hit per pool job");
    assert_eq!(
        metrics.counter("serve/progcache/misses"),
        warm_misses,
        "pool metrics disagree with ProgramCache::stats()"
    );
}
