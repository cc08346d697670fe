//! Cache-identity properties (simkit harness).
//!
//! Two contracts guard the result cache:
//!
//! 1. **Canonical hashing** — a request's fingerprint depends only on its
//!    result-determining field *values*, never on how the JSON spelled
//!    them: field order, workload-name case, and the deadline must not
//!    perturb it, while changing any identity field must.
//! 2. **Hit transparency** — a cache hit returns a `SimResponse` that
//!    compares exactly equal (counters, f64 energy terms, output pixels)
//!    to the cold run it memoized, and both equal the serial
//!    `Session::run_workload` path.

use ipim_serve::{
    ComputeRootPolicy, PoolConfig, ScheduleOverride, ServePool, SimRequest, SimResponse,
};
use ipim_simkit::prop::{bool_any, tuple3, tuple6, u32_in, u64_any, usize_in, Config, Gen};
use ipim_simkit::{check, check_with, Rng};

/// A generator over wire-shaped requests: workload index, dimensions,
/// vaults, cycle budget, deadline presence.
fn gen_request() -> Gen<SimRequest> {
    const NAMES: [&str; 10] = [
        "Brighten",
        "Blur",
        "Downsample",
        "Upsample",
        "Shift",
        "Histogram",
        "BilateralGrid",
        "Interpolate",
        "LocalLaplacian",
        "StencilChain",
    ];
    tuple6(
        usize_in(0, NAMES.len() - 1),
        u32_in(16, 512),
        u32_in(16, 512),
        usize_in(1, 4),
        bool_any(),
        // The ndjson layer carries numbers as f64, so stay within the
        // exactly-representable integer range.
        u64_any().map(|c| c % (1 << 53)),
    )
    .map(|(wi, w, h, vaults, reorder, cycles)| SimRequest {
        workload: NAMES[wi].to_string(),
        width: w,
        height: h,
        vaults,
        reorder,
        max_cycles: cycles,
        ..SimRequest::default()
    })
}

/// Renders `req` as JSON with its fields in a seed-shuffled order.
fn shuffled_json(req: &SimRequest, seed: u64) -> String {
    let mut fields = [
        format!("\"workload\":\"{}\"", req.workload),
        format!("\"width\":{}", req.width),
        format!("\"height\":{}", req.height),
        format!("\"vaults\":{}", req.vaults),
        format!("\"reorder\":{}", req.reorder),
        format!("\"max_cycles\":{}", req.max_cycles),
    ];
    // Fisher–Yates with the simkit PRNG: deterministic per seed.
    let mut rng = Rng::new(seed);
    for i in (1..fields.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        fields.swap(i, j);
    }
    format!("{{{}}}", fields.join(","))
}

#[test]
fn prop_fingerprint_survives_field_reordering() {
    let gen = ipim_simkit::prop::tuple2(gen_request(), u64_any());
    check("fingerprint_survives_field_reordering", &gen, |(req, shuffle_seed)| {
        let reordered = SimRequest::from_json_str(&shuffled_json(req, *shuffle_seed))
            .expect("shuffled JSON parses");
        assert_eq!(reordered, *req, "parse must recover the same request");
        assert_eq!(reordered.fingerprint(), req.fingerprint());
        assert_eq!(reordered.canonical_key(), req.canonical_key());
    });
}

#[test]
fn prop_fingerprint_ignores_deadline_and_case() {
    check("fingerprint_ignores_deadline_and_case", &gen_request(), |req| {
        let mut relabeled = req.clone();
        relabeled.workload = req.workload.to_ascii_uppercase();
        relabeled.deadline_ms = Some(12_345);
        assert_eq!(relabeled.fingerprint(), req.fingerprint());
    });
}

#[test]
fn prop_identity_fields_change_the_fingerprint() {
    check("identity_fields_change_the_fingerprint", &gen_request(), |req| {
        let variants = [
            SimRequest { width: req.width + 1, ..req.clone() },
            SimRequest { vaults: req.vaults + 1, ..req.clone() },
            SimRequest { reorder: !req.reorder, ..req.clone() },
            SimRequest { max_cycles: req.max_cycles.wrapping_add(1), ..req.clone() },
        ];
        for v in variants {
            assert_ne!(v.fingerprint(), req.fingerprint(), "{v:?}");
        }
    });
}

/// A generator over schedule overrides, spanning the empty override and
/// every knob combination the tuner searches.
fn gen_override() -> Gen<ScheduleOverride> {
    tuple3(usize_in(0, 3), usize_in(0, 2), usize_in(0, 2)).map(|(t, p, r)| ScheduleOverride {
        tile: [None, Some((8, 8)), Some((16, 8)), Some((32, 16))][t],
        load_pgsm: [None, Some(false), Some(true)][p],
        compute_root: [
            ComputeRootPolicy::Keep,
            ComputeRootPolicy::All,
            ComputeRootPolicy::OutputOnly,
        ][r],
    })
}

#[test]
fn prop_schedule_override_is_part_of_the_cache_identity() {
    let gen = tuple3(gen_request(), gen_override(), gen_override());
    check("schedule_override_is_part_of_the_cache_identity", &gen, |(req, ov_a, ov_b)| {
        let plain = req.clone();
        let a = SimRequest { schedule: *ov_a, ..req.clone() };
        let b = SimRequest { schedule: *ov_b, ..req.clone() };

        // A non-empty override must move the fingerprint; the empty one
        // must not (override-free requests keep their pre-override keys).
        if ov_a.is_empty() {
            assert_eq!(a.fingerprint(), plain.fingerprint());
        } else {
            assert_ne!(a.fingerprint(), plain.fingerprint(), "{ov_a}");
        }

        // Requests differing ONLY in the override hash apart.
        if ov_a != ov_b {
            assert_ne!(a.fingerprint(), b.fingerprint(), "{ov_a} vs {ov_b}");
            assert_ne!(a.canonical_key(), b.canonical_key());
        } else {
            assert_eq!(a.fingerprint(), b.fingerprint());
        }

        // The wire round trip preserves the override and its identity.
        let back = SimRequest::from_json_str(&a.to_json_string()).expect("wire round trip");
        assert_eq!(back, a);
        assert_eq!(back.fingerprint(), a.fingerprint());
    });
}

/// Hit transparency needs real simulations, so it runs a handful of cases
/// at 64×64 instead of the default case count.
#[test]
fn prop_cache_hits_are_bit_identical_to_cold_runs() {
    let gen = ipim_simkit::prop::tuple2(
        ipim_simkit::prop::usize_in(0, 2),
        ipim_simkit::prop::usize_in(1, 2),
    )
    .map(|(wi, vaults)| {
        let name = ["Brighten", "Blur", "Shift"][wi];
        SimRequest { vaults, ..SimRequest::named(name, 64, 64) }
    });
    check_with(
        Config { cases: 4, ..Config::default() },
        "cache_hits_are_bit_identical_to_cold_runs",
        &gen,
        |req| {
            let pool =
                ServePool::start(&PoolConfig { workers: 1, queue_depth: 2, cache_capacity: 2 });
            let cold = pool.submit(req.clone()).wait();
            let warm = pool.submit(req.clone()).wait();
            assert_eq!(cold, warm, "hit must be bit-identical to the cold run");

            // Both must also match the serial path the pool memoizes.
            let (session, workload) = req.instantiate().expect("suite workload");
            let serial = session.run_workload(&workload, req.max_cycles).expect("serial run");
            match &cold {
                SimResponse::Done(d) => {
                    assert_eq!(d.report, serial.report, "pooled report != serial report");
                    assert_eq!(d.output, serial.output, "pooled output != serial output");
                    assert_eq!(d.output_hash, ipim_serve::image_hash(&serial.output));
                }
                other => panic!("expected Done, got {other:?}"),
            }
            let metrics = pool.shutdown();
            assert_eq!(metrics.counter("serve/cache/hits"), 1);
        },
    );
}
