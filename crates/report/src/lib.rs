//! Cross-backend benchmark matrix, trajectory report and the one paper
//! comparison (ROADMAP items 3 and 4).
//!
//! Four modules, all std-only and hermetic:
//!
//! * [`gpu`] — the calibrated V100 roofline baseline (Fig. 1's profile).
//! * [`matrix`] — runs every workload × scale × backend ({skip-ahead,
//!   analytic, PonB, GPU roofline}), plus the `config` sweep cells of
//!   Figs. 10 and 12 and the ablation, and emits one normalized record
//!   per cell to the schema-versioned `results/matrix.jsonl`. A cell holds
//!   only deterministic model outputs, so a re-recording reproduces the
//!   file byte for byte. Cycle cells simulate through their own
//!   `Session` and share one compiled program per workload×scale (the
//!   global `ProgramCache`'s key excludes engine and placement);
//!   unmappable cells loud-skip.
//! * [`paper`] — every figure and table of the paper's evaluation
//!   (Sec. VII) as a pure view over matrix cells or the model constants,
//!   next to the paper's numbers, behind one slice-to-machine
//!   normalization ([`scale_out`]).
//! * [`render`](mod@render) — folds `matrix.jsonl` and `tuning.jsonl`
//!   into one deterministic `results/REPORT.md` (paper comparison, matrix,
//!   divergence envelope, tuner leaderboard). Byte-identical on identical
//!   inputs — CI regenerates and `cmp`s it.
//!
//! See DESIGN.md §14 for the schema and normalization rules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gpu;
pub mod matrix;
pub mod paper;
pub mod render;

pub use matrix::{
    arith_ops, parse_matrix, read_matrix, run_matrix, to_jsonl, Backend, Bound, MatrixCell,
    MatrixPlan, MatrixRun, CONFIGS, SCHEMA_VERSION,
};
pub use paper::{geomean, gpu_profile_rows, paper_scale, scale_out};
pub use render::{render, Streams, TuneBest};
