//! The workload suite, organized into [`WorkloadFamily`]s:
//!
//! * **Image** — the paper's Table II benchmarks: six single-stage kernels
//!   covering elementwise, stencil, resampling, shift and reduction
//!   patterns, plus four heterogeneous multi-stage pipelines (bilateral
//!   grid, interpolate, local Laplacian, stencil chain).
//! * **NN** — neural-network operators on the same SIMB backend: tiled
//!   GEMM, an im2col-unrolled 3×3 convolution with a LUT activation
//!   gather, and a row-softmax built from log-tree reductions.
//! * **Video** — temporal pipelines over multiple frames: per-frame
//!   delta, 3-frame temporal blur, and a motion-energy stencil whose
//!   inter-frame state stages through PGSM.
//!
//! Each [`Workload`] bundles a frontend [`Pipeline`] with deterministic
//! synthetic inputs (standing in for DIV8K; see DESIGN.md §2) and the
//! metadata the GPU baseline model needs.
//!
//! Pipelines are parameterized by [`WorkloadScale`] so the same code runs
//! the paper-scale 8K shapes and the fast simulation slices used by tests
//! and benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod images;
mod multi;
mod nn;
mod single;
mod video;

pub use images::{lut_gaussian, synthetic_image};
pub use nn::{conv3x3, gemm, row_softmax};
pub use video::{frame_delta, motion_energy, temporal_blur};

use std::fmt;

use ipim_frontend::{Image, Pipeline, Schedule, SourceId};

/// Image scale a workload is instantiated at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadScale {
    /// Image width (pixels).
    pub width: u32,
    /// Image height (pixels).
    pub height: u32,
}

impl Default for WorkloadScale {
    fn default() -> Self {
        // The default simulation slice: big enough to keep every PE busy
        // over multiple tile slots, small enough for cycle-accurate runs.
        Self { width: 512, height: 512 }
    }
}

impl WorkloadScale {
    /// A small scale for unit tests.
    pub fn tiny() -> Self {
        Self { width: 128, height: 128 }
    }

    /// The paper's DIV8K resolution (7680 × 4320); use with the analytic
    /// scale-out path, not cycle-accurate simulation.
    pub fn div8k() -> Self {
        Self { width: 7680, height: 4320 }
    }

    /// Total pixels.
    pub fn pixels(&self) -> u64 {
        self.width as u64 * self.height as u64
    }
}

/// Which domain a workload belongs to — the unit the suite is organized,
/// filtered and reported by. The paper's figures cover only
/// [`WorkloadFamily::Image`]; the NN and Video families exercise compiler
/// paths (full-row reductions, computed-index gathers, inter-frame PGSM
/// state) that Table II never touches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum WorkloadFamily {
    /// The paper's Table II image-processing kernels.
    #[default]
    Image,
    /// Neural-network operators (GEMM, convolution, softmax).
    Nn,
    /// Temporal/video pipelines over multiple input frames.
    Video,
}

impl WorkloadFamily {
    /// Canonical wire/report spelling (`image` | `nn` | `video`).
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadFamily::Image => "image",
            WorkloadFamily::Nn => "nn",
            WorkloadFamily::Video => "video",
        }
    }

    /// Parses [`name`](Self::name)'s spelling.
    ///
    /// # Errors
    ///
    /// Returns a message listing the accepted spellings.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "image" => Ok(WorkloadFamily::Image),
            "nn" => Ok(WorkloadFamily::Nn),
            "video" => Ok(WorkloadFamily::Video),
            other => Err(format!("unknown workload family {other:?} (image | nn | video)")),
        }
    }

    /// Every family, in suite order.
    pub const ALL: [WorkloadFamily; 3] =
        [WorkloadFamily::Image, WorkloadFamily::Nn, WorkloadFamily::Video];
}

impl fmt::Display for WorkloadFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One benchmark instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Benchmark name as in the paper's figures.
    pub name: &'static str,
    /// The family this workload belongs to.
    pub family: WorkloadFamily,
    /// Whether the paper groups it with the multi-stage benchmarks.
    pub multi_stage: bool,
    /// Pipeline stage count as the paper reports it.
    pub stages: usize,
    /// The frontend pipeline.
    pub pipeline: Pipeline,
    /// Input images keyed by source.
    pub inputs: Vec<(SourceId, Image)>,
    /// The scale it was instantiated at.
    pub scale: WorkloadScale,
    /// Arithmetic (FP) operations per *output* pixel, for the GPU roofline.
    pub flops_per_pixel: f64,
    /// Effective DRAM bytes per output pixel on a fused GPU implementation
    /// (reads of inputs + final write, intermediates cached on chip).
    pub gpu_bytes_per_pixel: f64,
    /// Output pixels (may differ from input pixels for resampling).
    pub output_pixels: u64,
}

impl Workload {
    /// The output image extent.
    pub fn output_extent(&self) -> (u32, u32) {
        self.pipeline.output().extent
    }

    /// This workload's pipeline with `ov` applied over the hand-written
    /// schedule (see [`ScheduleOverride`]): the algorithm is unchanged,
    /// only the mapping moves. Everything a compile needs, without copying
    /// the inputs.
    ///
    /// # Errors
    ///
    /// Returns a message when the overridden schedule fails frontend
    /// validation (a zero tile). Deeper machine-specific legality
    /// (divisibility, PGSM capacity) surfaces later, at compile time,
    /// exactly as for hand schedules.
    pub fn rescheduled(&self, ov: &ScheduleOverride) -> Result<Pipeline, String> {
        let output = self.pipeline.output().source;
        self.pipeline
            .reschedule(|f| ov.apply(&f.schedule, f.source == output))
            .map_err(|e| format!("{}: {e}", self.name))
    }

    /// Rebuilds this workload with its pipeline
    /// [`rescheduled`](Self::rescheduled) by `ov`. Inputs and metadata are
    /// unchanged.
    ///
    /// # Errors
    ///
    /// As [`rescheduled`](Self::rescheduled).
    pub fn with_override(&self, ov: &ScheduleOverride) -> Result<Workload, String> {
        Ok(Workload { pipeline: self.rescheduled(ov)?, inputs: self.inputs.clone(), ..*self })
    }
}

/// What happens to each func's `compute_root` flag under an override.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ComputeRootPolicy {
    /// Keep the hand-written per-func choice.
    #[default]
    Keep,
    /// Materialize every func (`compute_root` everywhere): maximal kernel
    /// boundaries, minimal recomputation, maximal DRAM traffic.
    All,
    /// Materialize only the output: every intermediate inlines into its
    /// consumers (reductions stay boundaries — the compiler forces that).
    OutputOnly,
}

impl ComputeRootPolicy {
    /// Canonical wire/report spelling (`keep` | `all` | `output_only`).
    pub fn name(&self) -> &'static str {
        match self {
            ComputeRootPolicy::Keep => "keep",
            ComputeRootPolicy::All => "all",
            ComputeRootPolicy::OutputOnly => "output_only",
        }
    }

    /// Parses [`name`](Self::name)'s spelling.
    ///
    /// # Errors
    ///
    /// Returns a message listing the accepted spellings.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "keep" => Ok(ComputeRootPolicy::Keep),
            "all" => Ok(ComputeRootPolicy::All),
            "output_only" => Ok(ComputeRootPolicy::OutputOnly),
            other => Err(format!("unknown compute_root {other:?} (keep | all | output_only)")),
        }
    }
}

/// A partial schedule applied on top of a workload's hand-written one:
/// `None` fields keep the hand choice, `Some` fields replace it on every
/// func. This is the unit the autotuner searches over and the serving
/// layer carries in [`SimRequest`](../ipim_serve/struct.SimRequest.html)s
/// (where it is part of the cache identity).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ScheduleOverride {
    /// Replace every func's `ipim_tile` size. The grid derives from the
    /// *output* stage's tile, so this is the knob that moves the tile grid.
    pub tile: Option<(u32, u32)>,
    /// Replace every func's PGSM staging choice.
    pub load_pgsm: Option<bool>,
    /// Rewrite the `compute_root` kernel-boundary structure.
    pub compute_root: ComputeRootPolicy,
}

impl ScheduleOverride {
    /// Whether this override changes nothing (the identity element — a
    /// request carrying it must hash like one carrying no override).
    pub fn is_empty(&self) -> bool {
        *self == ScheduleOverride::default()
    }

    /// The schedule `base` becomes under this override (`is_output` selects
    /// the [`ComputeRootPolicy::OutputOnly`] special case).
    pub fn apply(&self, base: &Schedule, is_output: bool) -> Schedule {
        Schedule {
            compute_root: match self.compute_root {
                ComputeRootPolicy::Keep => base.compute_root,
                ComputeRootPolicy::All => true,
                ComputeRootPolicy::OutputOnly => is_output,
            },
            tile: self.tile.unwrap_or(base.tile),
            load_pgsm: self.load_pgsm.unwrap_or(base.load_pgsm),
        }
    }
}

impl fmt::Display for ScheduleOverride {
    /// Canonical one-line form: only the set knobs, in fixed order, e.g.
    /// `tile=32x8,pgsm=on,root=all`; the empty override renders `default`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "default");
        }
        let mut parts = Vec::new();
        if let Some((w, h)) = self.tile {
            parts.push(format!("tile={w}x{h}"));
        }
        if let Some(p) = self.load_pgsm {
            parts.push(format!("pgsm={}", if p { "on" } else { "off" }));
        }
        if self.compute_root != ComputeRootPolicy::Keep {
            parts.push(format!("root={}", self.compute_root.name()));
        }
        write!(f, "{}", parts.join(","))
    }
}

/// A workload constructor: builds one suite member at a scale.
type Constructor = fn(WorkloadScale) -> Workload;

/// The suite, one `(paper name, constructor)` entry per workload: the ten
/// Table II kernels in the paper's order, then the NN family, then the
/// Video family. Each name equals the `name` field its constructor sets.
const SUITE: [(&str, Constructor); 16] = [
    ("Brighten", single::brighten),
    ("Blur", single::blur),
    ("Downsample", single::downsample),
    ("Upsample", single::upsample),
    ("Shift", single::shift),
    ("Histogram", single::histogram),
    ("BilateralGrid", multi::bilateral_grid),
    ("Interpolate", multi::interpolate),
    ("LocalLaplacian", multi::local_laplacian),
    ("StencilChain", multi::stencil_chain),
    ("Gemm", nn::gemm),
    ("Conv3x3", nn::conv3x3),
    ("RowSoftmax", nn::row_softmax),
    ("FrameDelta", video::frame_delta),
    ("TemporalBlur", video::temporal_blur),
    ("MotionEnergy", video::motion_energy),
];

/// Every benchmark at the given scale, in suite order.
pub fn all_workloads(scale: WorkloadScale) -> Vec<Workload> {
    SUITE.iter().map(|(_, build)| build(scale)).collect()
}

/// The workloads of one family, in [`all_workloads`] order.
pub fn workloads_in_family(family: WorkloadFamily, scale: WorkloadScale) -> Vec<Workload> {
    all_workloads(scale).into_iter().filter(|w| w.family == family).collect()
}

/// Looks up one benchmark by its paper name (case-insensitive) and builds
/// only that workload, inputs included.
pub fn workload_by_name(name: &str, scale: WorkloadScale) -> Option<Workload> {
    SUITE.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, build)| build(scale))
}

/// The widest legal 2-D tile for a `w`×`h` output on the 32-PE vault
/// slice, from a fixed preference ladder — the same small-size fallback
/// idea as StencilChain's 16/8/4 ladder, extended with rectangular rungs
/// so every `w`,`h` that are multiples of 8 (and ≥ 32 total tiles) map.
/// Shared by the NN conv and the Video family, whose workloads must stay
/// legal down to 32×32 and at non-square loadgen sizes.
pub(crate) fn ladder_tile(w: u32, h: u32) -> (u32, u32) {
    let legal = |tw: u32, th: u32| {
        w.is_multiple_of(tw) && h.is_multiple_of(th) && ((w / tw) * (h / th)).is_multiple_of(32)
    };
    [(32u32, 8u32), (16, 8), (8, 8), (8, 4), (4, 4), (4, 2), (4, 1)]
        .into_iter()
        .find(|&(tw, th)| legal(tw, th))
        .unwrap_or((4, 1))
}

/// The row-tile height for the reduction-style NN workloads (GEMM,
/// row-softmax), whose grid is 1 tile wide × `h/th` tiles tall: the
/// largest `th` dividing `h` that keeps the tile count a multiple of the
/// 32 SIMB lanes. `None` when `h` has no such divisor (e.g. `h` < 32).
pub(crate) fn row_tile_height(h: u32) -> Option<u32> {
    (1..=h).rev().find(|&th| h.is_multiple_of(th) && (h / th).is_multiple_of(32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_lists_families_in_order() {
        let ws = all_workloads(WorkloadScale::tiny());
        let names: Vec<_> = ws.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            vec![
                // Table II, in the paper's order.
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
                // NN family.
                "Gemm",
                "Conv3x3",
                "RowSoftmax",
                // Video family.
                "FrameDelta",
                "TemporalBlur",
                "MotionEnergy",
            ]
        );
        let in_family = |f| ws.iter().filter(|w| w.family == f).count();
        assert_eq!(in_family(WorkloadFamily::Image), 10);
        assert_eq!(in_family(WorkloadFamily::Nn), 3);
        assert_eq!(in_family(WorkloadFamily::Video), 3);
        for f in WorkloadFamily::ALL {
            let names: Vec<_> =
                workloads_in_family(f, WorkloadScale::tiny()).iter().map(|w| w.name).collect();
            assert!(!names.is_empty(), "{f}: empty family");
            for w in &ws {
                assert_eq!(w.family == f, names.contains(&w.name), "{}", w.name);
            }
        }
    }

    #[test]
    fn stage_counts_match_table2() {
        let ws = all_workloads(WorkloadScale::tiny());
        let count = |n: &str| ws.iter().find(|w| w.name == n).unwrap().stages;
        assert_eq!(count("BilateralGrid"), 4);
        assert_eq!(count("Interpolate"), 12);
        assert_eq!(count("LocalLaplacian"), 23);
        assert_eq!(count("StencilChain"), 32);
    }

    #[test]
    fn new_family_stage_counts() {
        let ws = all_workloads(WorkloadScale::tiny());
        let get = |n: &str| ws.iter().find(|w| w.name == n).unwrap();
        // GEMM: one accumulation stage per 4-wide K chunk.
        assert_eq!(get("Gemm").stages, 8);
        assert_eq!(get("Conv3x3").stages, 2);
        // RowSoftmax at 128²: 5 max-tree + 5 sum-tree levels (128 → 4),
        // the exp base, 4 squarings and the normalize.
        assert_eq!(get("RowSoftmax").stages, 16);
        assert_eq!(get("FrameDelta").stages, 1);
        assert_eq!(get("TemporalBlur").stages, 1);
        assert_eq!(get("MotionEnergy").stages, 2);
        // The declared stage count always matches the built pipeline.
        for w in &ws {
            assert_eq!(w.stages, w.pipeline.stage_count(), "{}", w.name);
        }
    }

    #[test]
    fn family_round_trips_and_reduction_widths() {
        for f in WorkloadFamily::ALL {
            assert_eq!(WorkloadFamily::parse(f.name()).unwrap(), f);
        }
        assert!(WorkloadFamily::parse("audio").is_err());
        assert_eq!(nn::reduction_widths(128), vec![128, 64, 32, 16, 8, 4]);
        assert_eq!(nn::reduction_widths(96), vec![96, 48, 24, 12]);
        assert_eq!(nn::reduction_widths(4), vec![4]);
        // Ladder tiles stay legal on the 32-PE slice for every loadgen
        // size (multiples of 8 with ≥ 32 tiles available).
        for (w, h) in [(32u32, 32u32), (64, 32), (64, 64), (96, 64), (128, 64), (512, 512)] {
            let (tw, th) = ladder_tile(w, h);
            assert_eq!(w % tw, 0, "{w}x{h}");
            assert_eq!(h % th, 0, "{w}x{h}");
            assert_eq!((w / tw) * (h / th) % 32, 0, "{w}x{h}");
        }
        assert_eq!(row_tile_height(512), Some(16));
        assert_eq!(row_tile_height(32), Some(1));
        assert_eq!(row_tile_height(24), None);
    }

    #[test]
    fn lookup_by_name_case_insensitive() {
        // The lookup builds only the named workload; it must equal the
        // suite's entry field for field: pipeline, inputs, stages, family
        // and metadata.
        let tiny = WorkloadScale::tiny();
        for ((name, _), w) in SUITE.iter().zip(all_workloads(tiny)) {
            assert_eq!(*name, w.name, "table name must match the built workload");
            for spelling in [name.to_ascii_uppercase(), name.to_ascii_lowercase()] {
                assert_eq!(workload_by_name(&spelling, tiny).as_ref(), Some(&w), "{spelling}");
            }
        }
        assert!(workload_by_name("nope", tiny).is_none());
    }

    #[test]
    fn inputs_match_pipeline_declarations() {
        for w in all_workloads(WorkloadScale::tiny()) {
            assert_eq!(w.inputs.len(), w.pipeline.inputs().len(), "{} input count", w.name);
            for (def, (src, img)) in w.pipeline.inputs().iter().zip(&w.inputs) {
                assert_eq!(def.source, *src, "{} input order", w.name);
                assert_eq!(def.extent, (img.width(), img.height()), "{} input extent", w.name);
            }
        }
    }

    #[test]
    fn schedule_override_rewrites_every_func() {
        let w = workload_by_name("Blur", WorkloadScale::tiny()).unwrap();
        let ov = ScheduleOverride {
            tile: Some((16, 4)),
            load_pgsm: Some(false),
            compute_root: ComputeRootPolicy::OutputOnly,
        };
        let re = w.with_override(&ov).unwrap();
        for (name, s) in re.pipeline.schedule_knobs() {
            assert_eq!(s.tile, (16, 4), "{name}");
            assert!(!s.load_pgsm, "{name}");
        }
        // OutputOnly: blur_x is no longer a root, so it inlines.
        assert_eq!(re.pipeline.root_stages().len(), 1);
        // The original still has both roots.
        assert_eq!(w.pipeline.root_stages().len(), 2);
        // Bad overrides are rejected with the workload named.
        let bad = ScheduleOverride { tile: Some((0, 4)), ..ScheduleOverride::default() };
        assert!(w.with_override(&bad).unwrap_err().contains("Blur"));
    }

    #[test]
    fn empty_override_is_identity() {
        let ov = ScheduleOverride::default();
        assert!(ov.is_empty());
        assert_eq!(ov.to_string(), "default");
        let w = workload_by_name("Brighten", WorkloadScale::tiny()).unwrap();
        let re = w.with_override(&ov).unwrap();
        assert_eq!(re.pipeline, w.pipeline);
        let full = ScheduleOverride {
            tile: Some((8, 8)),
            load_pgsm: Some(true),
            compute_root: ComputeRootPolicy::All,
        };
        assert!(!full.is_empty());
        assert_eq!(full.to_string(), "tile=8x8,pgsm=on,root=all");
    }

    #[test]
    fn compute_root_policy_round_trips() {
        for p in [ComputeRootPolicy::Keep, ComputeRootPolicy::All, ComputeRootPolicy::OutputOnly] {
            assert_eq!(ComputeRootPolicy::parse(p.name()).unwrap(), p);
        }
        assert!(ComputeRootPolicy::parse("never").is_err());
    }

    #[test]
    fn reference_interpreter_runs_every_workload() {
        for w in all_workloads(WorkloadScale::tiny()) {
            let images: Vec<_> = w.inputs.iter().map(|(_, img)| img.clone()).collect();
            let out = ipim_frontend::interpret(&w.pipeline, &images)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!((out.width(), out.height()), w.output_extent(), "{}", w.name);
            assert!(
                out.data().iter().all(|v| v.is_finite()),
                "{} produced non-finite pixels",
                w.name
            );
        }
    }
}
