//! Differential test: the skip-ahead engine must be bit-identical to the
//! legacy per-cycle engine (see DESIGN.md §"Two-engine architecture").
//!
//! Every workload runs twice — once per engine — and the suite asserts the
//! observables agree exactly: wall-clock cycles, issued-instruction count,
//! the full stall/busy/access counter set, DRAM command counters, total
//! energy, and the output image bit-for-bit. Any divergence means a
//! `next_event` bound was unsound or a skipped window's accounting replay
//! drifted.
//!
//! All tests here are prefixed `engine_` so `cargo test -q engine_` runs
//! just this fast suite as a pre-commit loop.

use ipim_core::experiments::verify_output_against_reference;
use ipim_core::trace::{Record, TraceEvent};
use ipim_core::{
    fnv1a, Engine, Fidelity, MachineConfig, Placement, Session, TraceConfig, Workload,
    WorkloadScale,
};

/// 64×64 keeps each pair of runs comfortably sub-second in debug builds.
fn scale() -> WorkloadScale {
    WorkloadScale { width: 64, height: 64 }
}

fn config(engine: Engine, vaults: usize) -> MachineConfig {
    MachineConfig { engine, ..MachineConfig::vault_slice(vaults) }
}

const NEAR: Placement = Placement::NearBank;

/// Re-instantiates `w` at 128×128 for the resampling workloads whose tile
/// count at 64×64 falls below the 32 static SIMB lanes (a compiler limit,
/// not an engine concern).
fn at_supported_scale(w: Workload) -> Workload {
    let probe = Session::new(config(Engine::Legacy, 1));
    match probe.run_workload(&w, 1) {
        Err(e) if e.to_string().contains("unsupported") => {
            ipim_core::workload_by_name(w.name, WorkloadScale { width: 128, height: 128 })
                .expect("known workload")
        }
        _ => w,
    }
}

/// Expected `(report, output)` FNV-1a digests of the skip-ahead run of each
/// `(workload, side, vaults, placement)` case [`assert_engines_agree`]
/// checks. The report digest covers the `Debug` rendering of the whole
/// `ExecutionReport` (every stall, busy and bank counter, every f64 energy
/// term); the output digest covers the image's f32 bit patterns. Both
/// engines share `Vault::tick`, so their agreement alone cannot catch a
/// change to the tick itself: these pins can. A deliberate timing change
/// re-records them together with `results/matrix.jsonl`.
const DIGESTS: &[(&str, u32, usize, Placement, u64, u64)] = &[
    ("Brighten", 64, 1, NEAR, 0x5adc47925c529c12, 0xfd445293868249d4),
    ("Blur", 64, 1, NEAR, 0x892a59f623486285, 0x7714417a2c6384a9),
    ("Downsample", 128, 1, NEAR, 0xb1299c489fb0f292, 0x5d4a4c33ed7b98ba),
    ("Upsample", 64, 1, NEAR, 0xaf832320ac0c42e6, 0x90db5b57401c066b),
    ("Shift", 64, 1, NEAR, 0x87ed3726eee79e05, 0x869b649c477f3005),
    ("Histogram", 64, 1, NEAR, 0x3d68b2d8140f3e1a, 0xb3060a0aa5fcce2f),
    ("Histogram", 64, 2, NEAR, 0x843d8be0aa2d17ce, 0xb3060a0aa5fcce2f),
    ("BilateralGrid", 64, 1, NEAR, 0x81a3ec9b295dd5e3, 0x584eb76d95960f49),
    ("Interpolate", 128, 1, NEAR, 0x37f155245bdc1c36, 0xc5c15601759c105f),
    ("Gemm", 64, 1, NEAR, 0x758fcbd145e56d37, 0xb9db8c6e593b844c),
    ("Conv3x3", 64, 1, NEAR, 0x7155256207db5138, 0xed3bb0ddf867c52d),
    ("RowSoftmax", 64, 1, NEAR, 0x891c0ba3691654ab, 0x9c9028ff34d0038e),
    ("FrameDelta", 64, 1, NEAR, 0xdcdf8d0ac71ebe82, 0x78e1f5c20651a3dd),
    ("TemporalBlur", 64, 1, NEAR, 0x7102d106568cd772, 0x1099765a306ddb0f),
    ("MotionEnergy", 64, 1, NEAR, 0x90acef9e55f66612, 0xe89b9d9882272ced),
    ("Blur", 64, 1, Placement::BaseDie, 0xe5f7cb1876e0fb53, 0x7714417a2c6384a9),
];

/// Runs `w` under both engines on a `vaults`-vault slice with compute at
/// `placement` and asserts every observable matches exactly, and that the
/// skip-ahead run reproduces its pinned [`DIGESTS`]; returns the legacy
/// run's output.
fn assert_engines_agree(
    w: &Workload,
    vaults: usize,
    placement: Placement,
) -> ipim_core::frontend::Image {
    let run = |engine| {
        let config = MachineConfig { placement, ..config(engine, vaults) };
        Session::new(config)
            .run_workload(w, 2_000_000_000)
            .unwrap_or_else(|e| panic!("{} ({engine:?}, {placement:?}): {e}", w.name))
    };
    let (legacy, skip) = (run(Engine::Legacy), run(Engine::SkipAhead));

    assert_eq!(legacy.fidelity, Fidelity::BitExact, "{}: legacy fidelity", w.name);
    assert_eq!(skip.fidelity, Fidelity::BitExact, "{}: skip-ahead fidelity", w.name);
    let (l, s) = (&legacy.report, &skip.report);
    assert_eq!(l.cycles, s.cycles, "{}: cycles diverge", w.name);
    assert_eq!(l.stats.issued, s.stats.issued, "{}: issued diverge", w.name);
    assert_eq!(l.stats, s.stats, "{}: statistics diverge", w.name);
    assert_eq!(l.bank_stats, s.bank_stats, "{}: DRAM commands diverge", w.name);
    assert_eq!(
        format!("{:?}", l.locality),
        format!("{:?}", s.locality),
        "{}: row locality diverges",
        w.name
    );
    // Energy is a pure function of the counters, so exact equality (not an
    // epsilon) is the right assertion: any drift is a counter bug.
    assert_eq!(
        l.energy.total_pj().to_bits(),
        s.energy.total_pj().to_bits(),
        "{}: energy diverges ({} pJ vs {} pJ)",
        w.name,
        l.energy.total_pj(),
        s.energy.total_pj()
    );
    assert_eq!(legacy.output.data(), skip.output.data(), "{}: output buffers diverge", w.name);

    let side = w.scale.width;
    let report = fnv1a(format!("{s:?}").as_bytes());
    let pixels: Vec<u8> =
        skip.output.data().iter().flat_map(|p| p.to_bits().to_le_bytes()).collect();
    let output = fnv1a(&pixels);
    let &(.., want_report, want_output) = DIGESTS
        .iter()
        .find(|d| d.0 == w.name && d.1 == side && d.2 == vaults && d.3 == placement)
        .unwrap_or_else(|| {
            panic!(
                "no pinned digests for this case; add (\"{}\", {side}, {vaults}, \
                 Placement::{placement:?}, {report:#018x}, {output:#018x}) to DIGESTS",
                w.name
            )
        });
    let case = format!("{} {side}² x{vaults} {placement:?}", w.name);
    assert_eq!(report, want_report, "{case}: report digest moved\n{s:?}");
    assert_eq!(output, want_output, "{case}: output digest moved");
    legacy.output
}

/// Runs `w` under both engines with tracing enabled and asserts that the
/// metrics snapshots are identical and the event streams match record for
/// record once the skip-ahead engine's `SkipWindow` markers — the one event
/// class the legacy engine can never produce — are filtered out.
///
/// This is a much stronger claim than counter equality: it says the two
/// engines issue the same DRAM commands, route the same flits and classify
/// the same stalls *at the same cycle on the same component*.
fn assert_traces_agree(w: &Workload, vaults: usize) {
    let traced = |engine| MachineConfig {
        engine,
        trace: TraceConfig { enabled: true, ring_capacity: 1 << 20 },
        ..MachineConfig::vault_slice(vaults)
    };
    let legacy = Session::new(traced(Engine::Legacy))
        .run_workload(w, 2_000_000_000)
        .unwrap_or_else(|e| panic!("{} (legacy, traced): {e}", w.name));
    let skip = Session::new(traced(Engine::SkipAhead))
        .run_workload(w, 2_000_000_000)
        .unwrap_or_else(|e| panic!("{} (skip-ahead, traced): {e}", w.name));

    assert_eq!(legacy.metrics, skip.metrics, "{}: metrics snapshots diverge", w.name);

    let lt = legacy.trace.as_ref().expect("legacy trace capture");
    let st = skip.trace.as_ref().expect("skip-ahead trace capture");
    assert_eq!(lt.dropped, 0, "{}: legacy ring overflowed; grow ring_capacity", w.name);
    assert_eq!(st.dropped, 0, "{}: skip-ahead ring overflowed; grow ring_capacity", w.name);
    assert_eq!(lt.components, st.components, "{}: component registries diverge", w.name);

    let is_skip_window = |r: &&Record| matches!(r.event, TraceEvent::SkipWindow { .. });
    assert!(
        !lt.records.iter().any(|r| is_skip_window(&r)),
        "{}: legacy engine emitted a SkipWindow event",
        w.name
    );
    let skip_filtered: Vec<&Record> = st.records.iter().filter(|r| !is_skip_window(r)).collect();
    assert_eq!(
        lt.records.len(),
        skip_filtered.len(),
        "{}: event counts diverge ({} legacy vs {} skip-ahead modulo SkipWindow)",
        w.name,
        lt.records.len(),
        skip_filtered.len()
    );
    for (i, (l, s)) in lt.records.iter().zip(&skip_filtered).enumerate() {
        assert_eq!(
            l,
            *s,
            "{}: event streams diverge at record {i} (component {:?})",
            w.name,
            lt.components.name(l.comp)
        );
    }
}

#[test]
fn engine_equivalence_single_stage_workloads() {
    for w in ipim_core::all_workloads(scale()).into_iter().filter(|w| !w.multi_stage) {
        assert_engines_agree(&at_supported_scale(w), 1, NEAR);
    }
}

#[test]
fn engine_equivalence_new_family_multi_stage() {
    // The NN/video families' multi-stage kernels exercise engine paths
    // Table II never drives together: the replicated per-lane gather
    // (Gemm's B strip, Conv3x3's LUT), the one-tile-wide row-reduction
    // grid (Gemm, RowSoftmax) and cross-stage PGSM restaging
    // (MotionEnergy). The single-stage family members ride along in
    // `engine_equivalence_single_stage_workloads`. RowSoftmax's full-row
    // reduction trees and MotionEnergy's inter-frame PGSM state are also
    // checked against the golden interpreter.
    for name in ["Gemm", "Conv3x3", "RowSoftmax", "MotionEnergy"] {
        let w = ipim_core::workload_by_name(name, scale()).unwrap();
        let output = assert_engines_agree(&w, 1, NEAR);
        if matches!(name, "RowSoftmax" | "MotionEnergy") {
            verify_output_against_reference(&w, &output);
        }
    }
}

#[test]
fn engine_equivalence_bilateral_grid() {
    let w = ipim_core::workload_by_name("BilateralGrid", scale()).unwrap();
    assert_engines_agree(&w, 1, NEAR);
}

#[test]
fn engine_equivalence_interpolate() {
    let w = ipim_core::workload_by_name("Interpolate", scale()).unwrap();
    assert_engines_agree(&at_supported_scale(w), 1, NEAR);
}

#[test]
fn engine_equivalence_multi_vault_histogram() {
    // Two vaults exercise the cross-vault path: mesh flits, SERDES retries,
    // `req`/`sync` barriers — every machine-level `next_event` term.
    let w = ipim_core::workload_by_name("Histogram", scale()).unwrap();
    assert_engines_agree(&w, 2, NEAR);
}

#[test]
fn engine_equivalence_base_die_placement() {
    // PonB placement exercises the TSV-blocked completion queue
    // (`ponb_wait`), which must force live ticks while draining and, with
    // the process groups in lockstep, queue every PG's completions PG by
    // PG as the legacy engine's per-PG controller ticks do.
    let w = ipim_core::workload_by_name("Blur", scale()).unwrap();
    assert_engines_agree(&w, 1, Placement::BaseDie);
}

#[test]
fn engine_determinism_two_vault_histogram() {
    // Two identically configured runs must agree byte-for-byte: the
    // skip-ahead engine's event selection (min over vaults, meshes, SERDES)
    // must not introduce ordering nondeterminism. The Debug rendering of
    // the report covers every counter, including ones without PartialEq.
    let w = ipim_core::workload_by_name("Histogram", scale()).unwrap();
    let run = || {
        Session::new(config(Engine::SkipAhead, 2))
            .run_workload(&w, 2_000_000_000)
            .expect("histogram run")
    };
    let (a, b) = (run(), run());
    assert_eq!(
        format!("{:?}", a.report),
        format!("{:?}", b.report),
        "reports diverge across identical runs"
    );
    assert_eq!(a.output.data(), b.output.data(), "outputs diverge across identical runs");
}

#[test]
fn engine_trace_equivalence_blur() {
    // Single-vault Blur covers the DRAM, scratchpad and issue-stage event
    // sources end to end.
    let w = ipim_core::workload_by_name("Blur", scale()).unwrap();
    assert_traces_agree(&w, 1);
}

#[test]
fn engine_trace_equivalence_multi_vault_histogram() {
    // Two vaults add the mesh (FlitHop/CreditStall) and barrier
    // (BarrierEnter/BarrierRelease) event sources to the comparison.
    let w = ipim_core::workload_by_name("Histogram", scale()).unwrap();
    assert_traces_agree(&w, 2);
}

#[test]
fn engine_trace_equivalence_bilateral_grid() {
    // Multi-stage pipeline: distinct programs per stage reset and re-drive
    // the edge-triggered stall classifier between loads.
    let w = ipim_core::workload_by_name("BilateralGrid", scale()).unwrap();
    assert_traces_agree(&w, 1);
}

#[test]
fn engine_equivalence_refresh_disabled() {
    // With refresh off, `next_event` loses its periodic tREFI term and
    // windows get much longer — a different stress pattern for the bounds.
    let w = ipim_core::workload_by_name("Blur", scale()).unwrap();
    let mut lc = config(Engine::Legacy, 1);
    lc.refresh = false;
    let mut sc = config(Engine::SkipAhead, 1);
    sc.refresh = false;
    let l = Session::new(lc).run_workload(&w, 2_000_000_000).expect("legacy");
    let s = Session::new(sc).run_workload(&w, 2_000_000_000).expect("skip");
    assert_eq!(l.report.cycles, s.report.cycles, "refresh-off cycles diverge");
    assert_eq!(l.report.stats, s.report.stats, "refresh-off stats diverge");
    assert_eq!(l.output.data(), s.output.data(), "refresh-off output diverges");
}
