//! Tests of the public `Session` API surface: error paths, metrics and
//! the compile-only entry point.

use ipim_core::frontend::{x, y, Image, PipelineBuilder};
use ipim_core::{CompileOptions, MachineConfig, Session, SessionError};

fn simple_pipeline() -> (ipim_core::frontend::Pipeline, ipim_core::frontend::SourceRef) {
    let mut p = PipelineBuilder::new();
    let input = p.input("in", 64, 64);
    let out = p.func("out", 64, 64);
    p.define(out, input.at(x(), y()) + 1.0);
    p.schedule(out).compute_root().ipim_tile(8, 8);
    (p.build(out).unwrap(), input)
}

#[test]
fn compile_only_reports_static_size() {
    let (pipe, _) = simple_pipeline();
    let session = Session::new(MachineConfig::vault_slice(1));
    let compiled = session.compile_only(&pipe).expect("compile");
    assert!(compiled.static_instructions > 10);
    assert_eq!(compiled.spill_slots, 0, "trivial kernel must not spill");
    assert_eq!(compiled.program.len(), compiled.static_instructions);
}

#[test]
fn run_outcome_metrics_are_consistent() {
    let (pipe, input) = simple_pipeline();
    let session = Session::new(MachineConfig::vault_slice(1));
    let outcome = session
        .run_pipeline(&pipe, &[(input.id(), Image::gradient(64, 64))], 100_000_000)
        .expect("run");
    assert_eq!(outcome.output.pixels(), 64 * 64);
    let pps = outcome.pixels_per_second();
    // pixels / (cycles × 1ns) must be self-consistent.
    let expect = 64.0 * 64.0 / (outcome.report.cycles as f64 * 1e-9);
    assert!((pps - expect).abs() / expect < 1e-9);
    assert!(outcome.energy_pj_per_pixel() > 0.0);
}

#[test]
fn timeout_is_reported_not_hung() {
    let (pipe, input) = simple_pipeline();
    let session = Session::new(MachineConfig::vault_slice(1));
    let err = session
        .run_pipeline(&pipe, &[(input.id(), Image::gradient(64, 64))], 10)
        .expect_err("10 cycles cannot finish");
    match err {
        SessionError::Timeout(t) => assert_eq!(t.max_cycles, 10),
        other => panic!("unexpected error {other}"),
    }
}

#[test]
fn unsupported_pipeline_reports_compile_error() {
    // Extent not divisible by the tile grid.
    let mut p = PipelineBuilder::new();
    let input = p.input("in", 60, 60);
    let out = p.func("out", 60, 60);
    p.define(out, input.at(x(), y()));
    p.schedule(out).compute_root().ipim_tile(8, 8);
    let pipe = p.build(out).unwrap();
    let session = Session::new(MachineConfig::vault_slice(1));
    assert!(matches!(session.compile_only(&pipe), Err(SessionError::Compile(_))));
}

#[test]
fn sessions_with_different_options_share_results() {
    let (pipe, input) = simple_pipeline();
    let img = Image::gradient(64, 64);
    let mut cycle_counts = Vec::new();
    for options in [CompileOptions::opt(), CompileOptions::baseline1()] {
        let session = Session::with_options(MachineConfig::vault_slice(1), options);
        let outcome =
            session.run_pipeline(&pipe, &[(input.id(), img.clone())], 100_000_000).expect("run");
        // Same functional result across compiler configurations.
        for yy in 0..64 {
            for xx in 0..64 {
                assert_eq!(outcome.output.get(xx, yy), img.get(xx, yy) + 1.0);
            }
        }
        cycle_counts.push(outcome.report.cycles);
    }
    assert!(cycle_counts[0] <= cycle_counts[1], "opt must not be slower");
}

#[test]
fn stencil_chain_compiles_at_small_sizes() {
    // Regression: the small-size fallback tile used to be a fixed 16×16,
    // which left 64×64 with only 16 tiles — fewer than the 32 PEs of the
    // vault slice, an illegal mapping the compiler rejects. The fallback
    // must now pick a tile that keeps every size down to 32×32 legal.
    use ipim_core::{workload_by_name, WorkloadScale};
    let session = Session::new(MachineConfig::vault_slice(1));
    for (w, h) in [(64, 64), (32, 32)] {
        let workload =
            workload_by_name("StencilChain", WorkloadScale { width: w, height: h }).unwrap();
        session
            .compile_only(&workload.pipeline)
            .unwrap_or_else(|e| panic!("StencilChain {w}x{h} must compile: {e}"));
    }
}

#[test]
fn new_families_compile_across_the_size_ladder() {
    // The NN/video families ship with fallback schedule ladders (the
    // StencilChain-style tile descent plus the row-tile search for the
    // reduction kernels), so every family member must compile at every
    // size the mixed serving traffic uses — including the rectangular and
    // sub-Table-II ones. 128×128 additionally pins the PGSM staging-pad
    // regression: RowSoftmax's whole-tile staging used to land exactly on
    // the share boundary and the per-lane gather's 16-byte read ran off
    // the end of the scratchpad.
    use ipim_core::{workload_by_name, WorkloadScale};
    let session = Session::new(MachineConfig::vault_slice(1));
    let names = ["Gemm", "Conv3x3", "RowSoftmax", "FrameDelta", "TemporalBlur", "MotionEnergy"];
    let sizes = [(32u32, 32u32), (64, 32), (64, 64), (96, 64), (128, 128)];
    for name in names {
        for (w, h) in sizes {
            let workload = workload_by_name(name, WorkloadScale { width: w, height: h }).unwrap();
            session
                .compile_only(&workload.pipeline)
                .unwrap_or_else(|e| panic!("{name} {w}x{h} must compile: {e}"));
        }
    }
}
