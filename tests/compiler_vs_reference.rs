//! Property-based cross-checks: randomly generated pipelines within the
//! supported subset always compile and match the reference interpreter.

use ipim_core::frontend::{x, y, Expr, Image, PipelineBuilder};
use ipim_core::{MachineConfig, Session};
use ipim_simkit::check_with;
use ipim_simkit::prop::{f32_in, i32_in, tuple3, vec_of, Config, Gen};

type Tap = (i32, i32, f32);

/// A random elementwise/stencil expression over one input.
fn arb_stencil_expr() -> Gen<Vec<Tap>> {
    // Up to 5 taps with offsets in [-2, 2] and small weights.
    vec_of(tuple3(i32_in(-2, 3), i32_in(-2, 3), f32_in(0.1, 2.0)), 1, 5)
}

/// Cycle-accurate simulation dominates the cost of each case; run the
/// workspace-minimum 64 cases rather than the default-or-more.
fn config() -> Config {
    Config { cases: 64, ..Config::default() }
}

fn build_pipeline(taps: &[Tap]) -> (ipim_core::frontend::Pipeline, Image) {
    let mut p = PipelineBuilder::new();
    let input = p.input("in", 64, 64);
    let mut e: Option<Expr> = None;
    for (dx, dy, w) in taps {
        let term = input.at(x() + *dx, y() + *dy) * *w;
        e = Some(match e {
            None => term,
            Some(prev) => prev + term,
        });
    }
    let out = p.func("out", 64, 64);
    p.define(out, e.expect("at least one tap"));
    p.schedule(out).compute_root().ipim_tile(8, 8).load_pgsm();
    (p.build(out).expect("valid pipeline"), Image::gradient(64, 64))
}

#[test]
fn random_stencils_match_reference() {
    check_with(config(), "random_stencils_match_reference", &arb_stencil_expr(), |taps| {
        let (pipeline, img) = build_pipeline(taps);
        let session = Session::new(MachineConfig::vault_slice(1));
        let input_src = pipeline.inputs()[0].source;
        let outcome =
            session.run_pipeline(&pipeline, &[(input_src, img.clone())], 500_000_000).expect("run");
        let expected = ipim_core::frontend::interpret(&pipeline, &[img]).expect("reference");
        let diff = expected.max_abs_diff(&outcome.output);
        assert!(diff <= 1e-3, "diverges by {diff} for taps {taps:?}");
    });
}

#[test]
fn random_affine_programs_are_deterministic() {
    check_with(config(), "random_affine_programs_are_deterministic", &arb_stencil_expr(), |taps| {
        let (pipeline, img) = build_pipeline(taps);
        let session = Session::new(MachineConfig::vault_slice(1));
        let input_src = pipeline.inputs()[0].source;
        let a =
            session.run_pipeline(&pipeline, &[(input_src, img.clone())], 500_000_000).expect("run");
        let b = session.run_pipeline(&pipeline, &[(input_src, img)], 500_000_000).expect("run");
        assert_eq!(a.report.cycles, b.report.cycles, "non-deterministic timing");
        assert_eq!(a.output.max_abs_diff(&b.output), 0.0);
    });
}
