//! The golden-verification oracle: simulated outputs checked against the
//! reference interpreter. (The paper's figures and tables are computed by
//! `ipim-report`, from the benchmark matrix.)

use ipim_workloads::Workload;

use crate::session::RunOutcome;

/// Panics if the simulated output diverges from the reference interpreter
/// beyond the boundary band (see DESIGN.md on boundary semantics).
pub fn verify_against_reference(w: &Workload, outcome: &RunOutcome) {
    verify_output_against_reference(w, &outcome.output);
}

/// [`verify_against_reference`] for a bare output image — lets callers that
/// only hold a serving-layer response (which carries the output pixels but
/// not the full `RunOutcome`) check it against the reference interpreter.
pub fn verify_output_against_reference(w: &Workload, output: &ipim_frontend::Image) {
    let diff = output_divergence(w, output);
    assert!(
        diff <= REFERENCE_TOLERANCE,
        "{}: simulated output diverges from reference by {diff}",
        w.name
    );
}

/// The banded-comparison tolerance [`verify_output_against_reference`]
/// enforces.
pub const REFERENCE_TOLERANCE: f32 = 2e-3;

/// Maximum absolute difference between `output` and the reference
/// interpreter inside the boundary-inset band — the raw figure behind
/// [`verify_output_against_reference`], for callers (e.g. the autotuner)
/// that want a verdict rather than a panic.
pub fn output_divergence(w: &Workload, output: &ipim_frontend::Image) -> f32 {
    let images: Vec<_> = w.inputs.iter().map(|(_, img)| img.clone()).collect();
    let expected = ipim_frontend::interpret(&w.pipeline, &images)
        .unwrap_or_else(|e| panic!("{}: reference failed: {e}", w.name));
    let inset = (w.stages as u32 + 2).min(expected.width() / 4).min(expected.height() / 4);
    let mut diff = 0.0f32;
    for y in inset..expected.height() - inset {
        for x in inset..expected.width() - inset {
            diff = diff.max((expected.get(x, y) - output.get(x, y)).abs());
        }
    }
    diff
}
