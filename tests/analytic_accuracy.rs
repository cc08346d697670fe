//! Tier-1 accuracy gate for the analytic fast-forward engine.
//!
//! Every registered workload (Table II plus the NN and video families)
//! that compiles at {32², 64², 128²} is run through both the bit-exact
//! skip-ahead engine and the analytic tier. Both baselines for the cycle
//! divergence come from the committed `skip_ahead`/`analytic` cell pairs
//! in `results/matrix.jsonl`, the one record of analytic-vs-skip-ahead
//! cycles:
//!
//! * **Envelope.** The divergence must stay inside a *declared
//!   per-workload envelope*, set from those pairs with roughly 1.5×
//!   headroom. The Table II envelopes are all well under the 25% ceiling
//!   the model shipped against; the NN/video kernels lean on the
//!   replicated-gather and row-reduction paths the model was never
//!   calibrated for, so their envelopes are declared wider (worst case
//!   Gemm at 45%). Tightening an envelope is progress, loosening one
//!   needs a recalibration argument (see DESIGN.md §11 and §13).
//! * **Drift.** The divergence may sit at most [`DRIFT_PTS`] points above
//!   the committed pair's. This is the canary for a change to engine
//!   timing that leaves the analytic tier uncalibrated. A covered pair
//!   with no committed pair fails too: re-record the matrix with
//!   `cargo run --release -p ipim-report --bin matrix`.
//! * **Exactness.** The fresh skip-ahead run, folded into a cell by
//!   [`MatrixCell::from_engine_run`], must equal the committed
//!   `skip_ahead` cell as a whole: cycles, bandwidth, energy and its
//!   split, instruction mix, busy PE-cycles, arithmetic intensity and
//!   roofline side. The legacy engine shares `Vault::tick` with
//!   skip-ahead, so `engine_equivalence` cannot catch a change to the tick
//!   itself; this check does. The fresh prediction must likewise equal the
//!   committed `analytic` cell, so a speed-up of the analytic walk that
//!   moves any prediction by a single cycle or picojoule fails here, not
//!   only one that breaks the envelope or the drift rule.
//!
//! The suite is registered under `ipim-report` so it reads the committed
//! cells with [`read_matrix`], the parser the renderer uses.
//!
//! The suite also pins the property the tuner actually relies on:
//! *rank preservation*. The analytic model must order the recorded
//! hand-vs-winner pairs from the PR 5/6 tuning sweeps the same way the
//! bit-exact engine did (Blur 128²: the 32×8+PGSM winner beat the hand
//! schedule 1.79×).

use std::path::Path;

use ipim_core::analytic::divergence_pct;
use ipim_core::{
    all_workloads, workload_by_name, Engine, ExecutionReport, Fidelity, MachineConfig,
    ScheduleOverride, Session, WorkloadScale,
};
use ipim_report::paper::find;
use ipim_report::{read_matrix, Backend, MatrixCell};

const MAX_CYCLES: u64 = 4_000_000_000;

/// How far (percentage points) a pair's divergence may drift above its
/// committed matrix pair's before the gate fails. Lower divergence always
/// passes: only upward drift signals a miscalibration.
const DRIFT_PTS: f64 = 10.0;

/// The committed matrix cells every scale is checked against.
fn committed_cells() -> Vec<MatrixCell> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/matrix.jsonl");
    read_matrix(&path).unwrap_or_else(|e| panic!("committed matrix: {e}"))
}

/// Divergence of the committed `skip_ahead`/`analytic` cell pair for
/// `name` at `side`², or `None` when either cell is missing.
fn committed_divergence(cells: &[MatrixCell], name: &str, side: u32) -> Option<f64> {
    let cycles = |backend| find(cells, name, side, backend, None)?.cycles;
    Some(divergence_pct(cycles(Backend::Analytic)?, cycles(Backend::SkipAhead)?))
}

/// The per-engine counters a failed divergence check prints: where the
/// two engines' cycle accounting parted ways.
fn counters(r: &ExecutionReport) -> String {
    let (s, st) = (&r.stats, &r.stats.stalls);
    format!(
        "issued={} hazard={} queue={} tsv={} branch={} sync={} vsmlock={} mem_busy={} \
         simd_busy={} dram={} hits/miss/conf={}/{}/{}",
        s.issued,
        st.hazard,
        st.queue_full,
        st.tsv,
        st.branch,
        st.sync,
        st.vsm_interlock,
        s.mem_busy,
        s.simd_busy,
        s.dram_accesses,
        r.locality.row_hits,
        r.locality.row_misses,
        r.locality.row_conflicts,
    )
}

/// Declared divergence envelope, percent, per workload. Calibrated
/// against the skip-ahead engine across 32²/64²/128² (the model's
/// dominant error terms — refresh displacement and drain-tail overlap —
/// scale differently per workload, so the envelopes do too).
fn envelope_pct(name: &str) -> f64 {
    match name {
        "Brighten" => 18.0,
        "Blur" => 10.0,
        "Downsample" => 12.0,
        "Upsample" => 10.0,
        "Shift" => 20.0,
        "Histogram" => 10.0,
        "BilateralGrid" => 20.0,
        "Interpolate" => 18.0,
        "LocalLaplacian" => 12.0,
        "StencilChain" => 8.0,
        // NN family: the replicated-gather path (Gemm's B operand,
        // Conv3x3's LUT) is the model's weakest spot — per-lane gathers
        // serialize in ways the closed form underestimates at scale.
        "Gemm" => 45.0,
        "Conv3x3" => 30.0,
        "RowSoftmax" => 22.0,
        // Video family.
        "FrameDelta" => 18.0,
        "TemporalBlur" => 38.0,
        "MotionEnergy" => 16.0,
        other => panic!("no declared envelope for workload {other:?}"),
    }
}

/// Runs every registered workload at `side`×`side` through both engines,
/// asserting the envelope and the drift rule per workload; returns how
/// many workloads actually compiled (small scales reject most static SIMB
/// mappings).
fn check_scale(side: u32) -> usize {
    let committed = committed_cells();
    let skip =
        Session::new(MachineConfig { engine: Engine::SkipAhead, ..MachineConfig::vault_slice(1) });
    let analytic =
        Session::new(MachineConfig { engine: Engine::Analytic, ..MachineConfig::vault_slice(1) });
    let mut covered = 0;
    for w in all_workloads(WorkloadScale { width: side, height: side }) {
        let Ok(program) = skip.compile(&w.pipeline) else {
            continue; // not mappable at this scale — not an accuracy question
        };
        let s = skip.simulate(&program, &w.inputs, MAX_CYCLES).expect(w.name);
        let p = analytic.simulate(&program, &w.inputs, MAX_CYCLES).expect(w.name);
        assert_eq!(s.fidelity, Fidelity::BitExact);
        assert_eq!(p.fidelity, Fidelity::Approximate);
        let div = divergence_pct(p.report.cycles, s.report.cycles);
        let detail =
            format!("\n    skip: {}\n    pred: {}", counters(&s.report), counters(&p.report));
        let envelope = envelope_pct(w.name);
        assert!(
            div <= envelope,
            "{} {side}x{side}: analytic {} vs skip-ahead {} cycles — {div:.2}% exceeds the \
             declared {envelope:.0}% envelope{detail}",
            w.name,
            p.report.cycles,
            s.report.cycles,
        );
        // Both engines are pinned to the committed matrix: each fresh cell
        // must reproduce the committed one exactly.
        for (backend, report) in [(Backend::SkipAhead, &s.report), (Backend::Analytic, &p.report)] {
            let fresh = MatrixCell::from_engine_run(&w, backend, report);
            assert_eq!(
                find(&committed, w.name, side, backend, None),
                Some(&fresh),
                "{} {side}x{side}: the fresh {} cell (right) does not match the committed \
                 matrix cell (left){detail}",
                w.name,
                backend.name(),
            );
        }
        let base = committed_divergence(&committed, w.name, side).unwrap_or_else(|| {
            panic!(
                "{} {side}x{side}: no committed skip_ahead/analytic pair in results/matrix.jsonl \
                 — re-record the matrix",
                w.name
            )
        });
        assert!(
            div - base <= DRIFT_PTS,
            "{} {side}x{side}: divergence {div:.2}% drifted {:+.2} pts above the committed \
             matrix pair's {base:.2}% (gate +{DRIFT_PTS:.0} pts){detail}",
            w.name,
            div - base,
        );
        // The prediction must carry a full report, not just cycles: the
        // tuner and serve admission read issued/energy off it.
        assert_eq!(
            p.report.stats.issued, s.report.stats.issued,
            "{}: issue count is exact",
            w.name
        );
        assert!(p.report.energy.total_pj() > 0.0, "{}: energy model composed", w.name);
        covered += 1;
    }
    covered
}

#[test]
fn analytic_accuracy_32() {
    // Only Histogram and StencilChain of Table II map onto 32 PEs at this
    // scale; all six NN/video kernels do (their schedule ladders fall back
    // to finer tiles).
    assert_eq!(check_scale(32), 8);
}

#[test]
fn analytic_accuracy_64() {
    // Downsample / Interpolate / LocalLaplacian don't map at 64².
    assert_eq!(check_scale(64), 13);
}

#[test]
fn slow_analytic_accuracy_128() {
    // The full 16-workload suite compiles at the paper's scale.
    assert_eq!(check_scale(128), 16);
}

#[test]
fn analytic_preserves_recorded_tuning_ranks() {
    // A tuner sweep found tile=32x8 + PGSM staging beating Blur's hand
    // schedule 1.79× at 128² (16272 → 9084 cycles on the cycle engine).
    // The analytic model must reproduce that order from the compiled
    // programs alone — this is the property the hill-climb short-list
    // stands on.
    let hand = workload_by_name("Blur", WorkloadScale { width: 128, height: 128 }).unwrap();
    let winner = hand
        .with_override(&ScheduleOverride {
            tile: Some((32, 8)),
            load_pgsm: Some(true),
            ..ScheduleOverride::default()
        })
        .expect("recorded winner override applies");
    let session =
        Session::new(MachineConfig { engine: Engine::Analytic, ..MachineConfig::vault_slice(1) });
    let hand_pred = session.run_workload(&hand, MAX_CYCLES).expect("hand");
    let win_pred = session.run_workload(&winner, MAX_CYCLES).expect("winner");
    assert!(
        win_pred.report.cycles < hand_pred.report.cycles,
        "analytic rank inversion: winner predicted {} vs hand {}",
        win_pred.report.cycles,
        hand_pred.report.cycles,
    );
}
