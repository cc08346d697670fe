//! Program-cache identity properties (simkit harness).
//!
//! Two contracts guard the compiled-program cache:
//!
//! 1. **Hit transparency** — a warm compile returns the same
//!    `Arc<CompiledProgram>` as the cold pass, its SIMB program compares
//!    bit-identical (`ipim_isa::Program` is `PartialEq`) to a fresh
//!    cache-bypassing `compile_only`, and a warm `run_workload` produces a
//!    `RunOutcome` (pixels, cycles, stats) exactly equal to the cold run.
//! 2. **Canonical keys** — `program_key` depends only on pipeline content,
//!    the compile-relevant machine shape and the compiler options: two
//!    independent instantiations of the same request agree, the
//!    simulation-only engine choice never perturbs the key, while changing
//!    the workload, its scale, a schedule knob (tile, PGSM staging) or the
//!    vault count must.

use ipim_core::{program_key, Engine, ProgramCache, ScheduleOverride};
use ipim_serve::SimRequest;
use ipim_simkit::check_with;
use ipim_simkit::prop::{tuple3, usize_in, Config};

/// Workloads × scales that are legal on every 1–2-vault slice (keeps the
/// generator inside the space where `instantiate` and compilation succeed).
const NAMES: [&str; 5] = ["Brighten", "Blur", "Shift", "StencilChain", "Histogram"];
const SIZES: [u32; 2] = [64, 128];

fn request(wi: usize, si: usize, vaults: usize) -> SimRequest {
    SimRequest {
        workload: NAMES[wi].to_string(),
        width: SIZES[si],
        height: SIZES[si],
        vaults,
        ..SimRequest::default()
    }
}

fn gen_point() -> ipim_simkit::prop::Gen<(usize, usize, usize)> {
    tuple3(usize_in(0, NAMES.len() - 1), usize_in(0, SIZES.len() - 1), usize_in(1, 2))
}

#[test]
fn prop_same_key_shares_one_program_bit_identical_to_cold() {
    let cfg = Config { cases: 8, ..Config::default() };
    check_with(cfg, "same_key_shares_program", &gen_point(), |&(wi, si, vaults)| {
        let (session, workload) = request(wi, si, vaults).instantiate().expect("instantiate");
        let cache = ProgramCache::new(8);
        let cold = cache
            .compile_pipeline(&workload.pipeline, session.config(), session.options())
            .expect("cold compile");
        let warm = cache
            .compile_pipeline(&workload.pipeline, session.config(), session.options())
            .expect("warm compile");
        // One program object, not an equal copy.
        assert!(std::sync::Arc::ptr_eq(&cold, &warm), "warm compile must share the cold Arc");
        // And the cached lowering is bit-identical to a cache-bypassing one.
        let fresh = session.compile_only(&workload.pipeline).expect("fresh compile");
        assert_eq!(
            fresh.program, cold.program,
            "cached SIMB program must equal a fresh lowering bit-for-bit"
        );
        assert_eq!(cache.stats(), (1, 1, 0), "(hits, misses, evictions)");
    });
}

#[test]
fn warm_run_outcome_is_bit_identical_to_cold() {
    let (session, workload) = request(1, 0, 1).instantiate().expect("instantiate");
    let cold = session.run_workload(&workload, 100_000_000).expect("cold run");
    // The second run resolves its program through the cache (the machine
    // itself is rebuilt fresh both times).
    let warm = session.run_workload(&workload, 100_000_000).expect("warm run");
    assert!(
        std::sync::Arc::ptr_eq(&cold.compiled, &warm.compiled),
        "warm run must reuse the cold run's program"
    );
    assert_eq!(cold.output.data(), warm.output.data(), "pixels must match exactly");
    assert_eq!(cold.report.cycles, warm.report.cycles);
    assert_eq!(cold.report.stats.issued, warm.report.stats.issued);
}

#[test]
fn prop_program_key_is_canonical_and_sensitive() {
    let cfg = Config { cases: 8, ..Config::default() };
    check_with(cfg, "program_key_canonical", &gen_point(), |&(wi, si, vaults)| {
        let req = request(wi, si, vaults);
        let (s1, w1) = req.instantiate().expect("instantiate");
        let (s2, w2) = req.instantiate().expect("instantiate again");
        let base = program_key(&w1.pipeline, s1.config(), s1.options());
        // Canonical: an independent instantiation of the same request
        // derives the identical key.
        assert_eq!(
            base,
            program_key(&w2.pipeline, s2.config(), s2.options()),
            "two instantiations of one request must agree"
        );
        // The engine is simulation-only: flipping it must not perturb the
        // key (mirrors the result cache excluding the deadline).
        let mut other_engine = s1.config().clone();
        other_engine.engine = match other_engine.engine {
            Engine::Legacy => Engine::SkipAhead,
            _ => Engine::Legacy,
        };
        assert_eq!(
            base,
            program_key(&w1.pipeline, &other_engine, s1.options()),
            "engine choice must not leak into the program key"
        );
        // Sensitivity: workload content, scale, schedule and machine shape
        // each move the key.
        let other_wi = (wi + 1) % NAMES.len();
        let (s3, w3) = request(other_wi, si, vaults).instantiate().expect("other workload");
        assert_ne!(
            base,
            program_key(&w3.pipeline, s3.config(), s3.options()),
            "{} and {} must not collide",
            NAMES[wi],
            NAMES[other_wi]
        );
        let (s4, w4) = request(wi, (si + 1) % SIZES.len(), vaults).instantiate().expect("scale");
        assert_ne!(
            base,
            program_key(&w4.pipeline, s4.config(), s4.options()),
            "scale change must move the key"
        );
        // Schedule, knob by knob: the tile and PGSM staging move the key.
        let hand = w1.pipeline.output().schedule;
        let key_under = |ov: ScheduleOverride| {
            let w = w1.with_override(&ov).expect("valid override");
            program_key(&w.pipeline, s1.config(), s1.options())
        };
        let tile = if hand.tile == (8, 8) { (16, 8) } else { (8, 8) };
        let retiled = key_under(ScheduleOverride { tile: Some(tile), ..Default::default() });
        assert_ne!(base, retiled, "a tile override must move the key");
        let restaged =
            key_under(ScheduleOverride { load_pgsm: Some(!hand.load_pgsm), ..Default::default() });
        assert_ne!(base, restaged, "toggling PGSM staging must move the key");
        let (s5, w5) = request(wi, si, vaults % 2 + 1).instantiate().expect("other vaults");
        assert_ne!(
            base,
            program_key(&w5.pipeline, s5.config(), s5.options()),
            "vault-count change must move the key"
        );
    });
}
