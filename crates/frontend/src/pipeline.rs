//! Pipelines: named functions with bodies, extents and schedules.

use std::collections::HashMap;
use std::fmt;

use crate::expr::{Expr, SourceRef};

/// Identifies a source: input images come first, then funcs, in definition
/// order (the numbering is internal; use [`SourceRef`] handles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceId(pub u32);

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "src{}", self.0)
    }
}

/// Identifies a `Func` within its pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub(crate) u32);

/// What a stage computes.
#[derive(Debug, Clone, PartialEq)]
pub enum FuncBody {
    /// A pure function of `x`, `y` (the common case).
    Pure(Expr),
    /// A histogram reduction over an entire source: output extent is
    /// `(bins, 1)`, counting source values binned linearly over
    /// `[min, max)`.
    ///
    /// This is a specialized reduction body standing in for Halide's
    /// general `RDom` update definitions — exactly the shape the paper's
    /// Histogram benchmark needs (a reduction of parallel partial
    /// histograms, Sec. VII-B).
    Histogram {
        /// Source whose values are counted.
        source: SourceId,
        /// Number of bins.
        bins: u32,
        /// Inclusive lower bound of the value range.
        min: f32,
        /// Exclusive upper bound of the value range.
        max: f32,
    },
}

/// Kind of a scheduled stage, used for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Pointwise / stencil / resampling stage.
    Pure,
    /// Histogram reduction stage.
    Histogram,
}

/// Per-`Func` schedule (paper Sec. V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Materialize this func to DRAM as a kernel boundary (`compute_root`);
    /// non-root funcs are inlined into their consumers.
    pub compute_root: bool,
    /// Tile size distributed across the PE hierarchy (`ipim_tile`).
    pub tile: (u32, u32),
    /// Stage each tile's input window in the PGSM before computing.
    pub load_pgsm: bool,
}

impl Default for Schedule {
    fn default() -> Self {
        Self { compute_root: false, tile: (8, 8), load_pgsm: false }
    }
}

impl Schedule {
    /// Validates the schedule's own invariants (the same checks
    /// [`PipelineBuilder::build`] runs), naming `func` in the error.
    pub fn validate(&self, func: &str) -> Result<(), PipelineError> {
        if self.tile.0 == 0 || self.tile.1 == 0 {
            return Err(PipelineError::BadSchedule {
                func: func.to_string(),
                what: "tile dimensions must be non-zero".into(),
            });
        }
        Ok(())
    }

    /// Compact one-line rendering of the knob settings, e.g.
    /// `root tile=32x8 pgsm` — the canonical form tuner dedup keys use and
    /// the schedule half of the program key.
    pub fn summary(&self) -> String {
        // Exhaustive on purpose: a new field fails to compile here until
        // someone decides how the keys render it.
        let Schedule { compute_root, tile, load_pgsm } = *self;
        format!(
            "{}tile={}x{}{}",
            if compute_root { "root " } else { "" },
            tile.0,
            tile.1,
            if load_pgsm { " pgsm" } else { "" },
        )
    }
}

impl FuncDef {
    /// The stage kind (pure map/stencil vs. reduction).
    pub fn kind(&self) -> StageKind {
        match self.body {
            Some(FuncBody::Histogram { .. }) => StageKind::Histogram,
            _ => StageKind::Pure,
        }
    }
}

/// One function definition in a pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    /// Human-readable name.
    pub name: String,
    /// The source id this func exposes to other expressions.
    pub source: SourceId,
    /// Output extent (width, height).
    pub extent: (u32, u32),
    /// What it computes; `None` until defined.
    pub body: Option<FuncBody>,
    /// How it is mapped to iPIM.
    pub schedule: Schedule,
}

/// One input image declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct InputDef {
    /// Human-readable name.
    pub name: String,
    /// The source id expressions use.
    pub source: SourceId,
    /// Extent (width, height).
    pub extent: (u32, u32),
}

/// Error produced while building a pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// A func was used but never defined.
    UndefinedFunc(String),
    /// A func body references a source defined *after* it (cycle).
    ForwardReference {
        /// The func with the illegal reference.
        func: String,
    },
    /// The requested output func does not exist.
    UnknownOutput,
    /// A schedule is invalid (e.g. zero tile size).
    BadSchedule {
        /// The offending func.
        func: String,
        /// Description of the problem.
        what: String,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::UndefinedFunc(n) => write!(f, "func `{n}` was never defined"),
            PipelineError::ForwardReference { func } => {
                write!(f, "func `{func}` references a source defined after it")
            }
            PipelineError::UnknownOutput => write!(f, "output func does not exist"),
            PipelineError::BadSchedule { func, what } => {
                write!(f, "invalid schedule on `{func}`: {what}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// A validated pipeline: inputs, funcs in definition order, and the output.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipeline {
    inputs: Vec<InputDef>,
    funcs: Vec<FuncDef>,
    output: FuncId,
}

impl Pipeline {
    /// The declared input images, in declaration order.
    pub fn inputs(&self) -> &[InputDef] {
        &self.inputs
    }

    /// The funcs in definition (topological) order.
    pub fn funcs(&self) -> &[FuncDef] {
        &self.funcs
    }

    /// The output func.
    pub fn output(&self) -> &FuncDef {
        &self.funcs[self.output.0 as usize]
    }

    /// Looks up a func by source id.
    pub fn func_by_source(&self, s: SourceId) -> Option<&FuncDef> {
        self.funcs.iter().find(|f| f.source == s)
    }

    /// Looks up an input by source id.
    pub fn input_by_source(&self, s: SourceId) -> Option<&InputDef> {
        self.inputs.iter().find(|i| i.source == s)
    }

    /// Extent of any source.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not part of this pipeline.
    pub fn extent(&self, s: SourceId) -> (u32, u32) {
        self.input_by_source(s)
            .map(|i| i.extent)
            .or_else(|| self.func_by_source(s).map(|f| f.extent))
            .unwrap_or_else(|| panic!("source {s} not in pipeline"))
    }

    /// The *root stages* in execution order: every `compute_root` func (and
    /// always the output), with all non-root funcs inlined into their
    /// consumers' expressions.
    ///
    /// Each returned stage's body references only pipeline inputs and
    /// earlier root stages — the kernel boundary structure the compiler
    /// lowers (one kernel per `compute_root()`, paper Sec. V-A).
    pub fn root_stages(&self) -> Vec<FuncDef> {
        // Inline non-root bodies into later funcs, walking in order.
        let mut inlined: HashMap<SourceId, Expr> = HashMap::new();
        let mut roots = Vec::new();
        for func in &self.funcs {
            let is_root = func.schedule.compute_root || func.source == self.output_source();
            let body = func.body.clone().expect("validated pipeline");
            match body {
                FuncBody::Pure(mut e) => {
                    // Substitute all inlined (non-root) predecessors.
                    // Repeat until no inlined source remains (a substituted
                    // body can itself reference inlined funcs, but always
                    // earlier ones, so this terminates).
                    loop {
                        let srcs = e.sources();
                        let mut changed = false;
                        for s in srcs {
                            if let Some(b) = inlined.get(&s) {
                                e = e.inline(s, b);
                                changed = true;
                            }
                        }
                        if !changed {
                            break;
                        }
                    }
                    if is_root {
                        roots.push(FuncDef { body: Some(FuncBody::Pure(e)), ..func.clone() });
                    } else {
                        inlined.insert(func.source, e);
                    }
                }
                FuncBody::Histogram { source, .. } => {
                    // Reductions are always kernel boundaries, and their
                    // source must be materialized: if it was inlined,
                    // promote it to a root stage here.
                    if let Some(body) = inlined.remove(&source) {
                        let def = self
                            .funcs
                            .iter()
                            .find(|f| f.source == source)
                            .expect("inlined source is a func")
                            .clone();
                        roots.push(FuncDef { body: Some(FuncBody::Pure(body)), ..def });
                    }
                    roots.push(func.clone());
                }
            }
        }
        roots
    }

    fn output_source(&self) -> SourceId {
        self.funcs[self.output.0 as usize].source
    }

    /// Upper bound on the total expression node count [`root_stages`](Self::root_stages)
    /// would materialize, computed arithmetically without building any
    /// expression — O(funcs × body size).
    ///
    /// Inlining a deep producer chain multiplies expression sizes, so a
    /// schedule that clears `compute_root` along such a chain can make the
    /// real count exponential. Callers (the autotuner's space enumeration)
    /// use this bound to reject those schedules *before* paying for the
    /// inlining.
    pub fn inlined_size_bound(&self) -> u64 {
        let mut inlined: HashMap<SourceId, u64> = HashMap::new();
        let mut total = 0u64;
        for func in &self.funcs {
            let is_root = func.schedule.compute_root || func.source == self.output_source();
            let size = match func.body.as_ref().expect("validated pipeline") {
                FuncBody::Pure(e) => bounded_size(e, &inlined),
                FuncBody::Histogram { source, .. } => {
                    1u64.saturating_add(inlined.get(source).copied().unwrap_or(1))
                }
            };
            if is_root {
                total = total.saturating_add(size);
            } else {
                inlined.insert(func.source, size);
            }
        }
        total
    }

    /// Rebuilds the pipeline with every func's schedule replaced by
    /// `f(func)`, re-validating each new schedule. Bodies, extents and the
    /// output are untouched — this is the autotuner's entry point: the same
    /// algorithm under a different mapping.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadSchedule`] if any replacement schedule
    /// is invalid.
    pub fn reschedule(
        &self,
        mut f: impl FnMut(&FuncDef) -> Schedule,
    ) -> Result<Pipeline, PipelineError> {
        let mut p = self.clone();
        for func in &mut p.funcs {
            let s = f(func);
            s.validate(&func.name)?;
            func.schedule = s;
        }
        Ok(p)
    }

    /// One `(func name, schedule)` row per func, in definition order — the
    /// knob-introspection view the tuner's schedule space and leaderboard
    /// are built from.
    pub fn schedule_knobs(&self) -> Vec<(String, Schedule)> {
        self.funcs.iter().map(|f| (f.name.clone(), f.schedule)).collect()
    }

    /// The whole pipeline's schedule rendered as one canonical line
    /// (`func=knobs; ...`), stable across runs — used to dedup candidate
    /// mappings that differ syntactically but compile identically.
    pub fn schedule_summary(&self) -> String {
        self.funcs
            .iter()
            .map(|f| format!("{}={}", f.name, f.schedule.summary()))
            .collect::<Vec<_>>()
            .join("; ")
    }

    /// Total number of stages (funcs) as the paper counts them.
    pub fn stage_count(&self) -> usize {
        self.funcs.len()
    }

    /// Canonical full-content rendering: inputs, every func's extent, body
    /// and schedule ([`Schedule::summary`]), and the output — everything
    /// that determines what the compiler produces, in one stable line.
    ///
    /// Two pipelines with equal content summaries compile to the same
    /// program on the same machine, which is what makes this string (plus a
    /// machine/options summary) a sound content-addressed cache key for
    /// compiled programs. Expression bodies render through their canonical
    /// [`fmt::Display`] form, so the summary is insensitive to how the
    /// expression tree was spelled at build time but sensitive to any
    /// change in what it computes.
    pub fn content_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for i in &self.inputs {
            let _ = write!(out, "in {}={}x{};", i.source, i.extent.0, i.extent.1);
        }
        for f in &self.funcs {
            let _ = write!(
                out,
                "fn {}={}x{}[{}]{{{}}};",
                f.source,
                f.extent.0,
                f.extent.1,
                f.schedule.summary(),
                f.body_summary(),
            );
        }
        let _ = write!(out, "out {}", self.output_source());
        out
    }
}

impl FuncDef {
    /// Canonical rendering of this func's body (the per-stage half of
    /// [`Pipeline::content_summary`]).
    pub fn body_summary(&self) -> String {
        match &self.body {
            Some(FuncBody::Pure(e)) => e.to_string(),
            Some(FuncBody::Histogram { source, bins, min, max }) => {
                // f32 Display collapses distinct bit patterns (-0.0 vs 0.0);
                // render the bits so the summary is exactly as sensitive as
                // the generated code.
                format!(
                    "hist({source},bins={bins},min={:08x},max={:08x})",
                    min.to_bits(),
                    max.to_bits()
                )
            }
            None => "undefined".to_string(),
        }
    }
}

/// Node-count bound of `e` after substituting each reference to an
/// inlined source with that source's (already bounded) body size. A
/// substituted body's variables are themselves replaced by the reference's
/// coordinate expressions, so the body size multiplies by the coordinate
/// size — saturating arithmetic keeps runaway schedules finite.
fn bounded_size(e: &Expr, inlined: &HashMap<SourceId, u64>) -> u64 {
    match e {
        Expr::ConstF(_) | Expr::ConstI(_) | Expr::Var(_) => 1,
        Expr::At(s, cx, cy) => {
            let coords = bounded_size(cx, inlined).saturating_add(bounded_size(cy, inlined));
            match inlined.get(s) {
                Some(&body) => body.saturating_mul(coords.saturating_add(1)),
                None => coords.saturating_add(1),
            }
        }
        Expr::Bin(_, a, b) => {
            1u64.saturating_add(bounded_size(a, inlined)).saturating_add(bounded_size(b, inlined))
        }
        Expr::Cast(_, inner) => 1u64.saturating_add(bounded_size(inner, inlined)),
        Expr::Select(c, a, b) => 1u64
            .saturating_add(bounded_size(c, inlined))
            .saturating_add(bounded_size(a, inlined))
            .saturating_add(bounded_size(b, inlined)),
    }
}

/// Builds a [`Pipeline`].
#[derive(Debug, Default)]
pub struct PipelineBuilder {
    inputs: Vec<InputDef>,
    funcs: Vec<FuncDef>,
    next_source: u32,
}

impl PipelineBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares an input image.
    pub fn input(&mut self, name: &str, width: u32, height: u32) -> SourceRef {
        let source = SourceId(self.next_source);
        self.next_source += 1;
        self.inputs.push(InputDef { name: name.to_string(), source, extent: (width, height) });
        SourceRef(source)
    }

    /// Declares a func with the given output extent (body set by
    /// [`define`](Self::define)).
    pub fn func(&mut self, name: &str, width: u32, height: u32) -> SourceRef {
        let source = SourceId(self.next_source);
        self.next_source += 1;
        self.funcs.push(FuncDef {
            name: name.to_string(),
            source,
            extent: (width, height),
            body: None,
            schedule: Schedule::default(),
        });
        SourceRef(source)
    }

    /// Defines a func's pure body.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not a func of this builder or is already defined.
    pub fn define(&mut self, f: SourceRef, body: Expr) {
        let func = self.func_mut(f);
        assert!(func.body.is_none(), "func `{}` defined twice", func.name);
        func.body = Some(FuncBody::Pure(body));
    }

    /// Defines a func as a histogram reduction of `source`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is unknown/already defined or `bins` doesn't match the
    /// declared extent.
    pub fn define_histogram(&mut self, f: SourceRef, source: SourceRef, min: f32, max: f32) {
        let func = self.func_mut(f);
        assert!(func.body.is_none(), "func `{}` defined twice", func.name);
        assert_eq!(func.extent.1, 1, "histogram extent must be (bins, 1)");
        let bins = func.extent.0;
        func.body = Some(FuncBody::Histogram { source: source.0, bins, min, max });
    }

    /// Mutable schedule access for a func.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not a func of this builder.
    pub fn schedule(&mut self, f: SourceRef) -> ScheduleMut<'_> {
        let func = self.func_mut(f);
        ScheduleMut { schedule: &mut func.schedule }
    }

    fn func_mut(&mut self, f: SourceRef) -> &mut FuncDef {
        self.funcs
            .iter_mut()
            .find(|d| d.source == f.0)
            .unwrap_or_else(|| panic!("{} is not a func of this pipeline", f.0))
    }

    /// Validates and seals the pipeline with `output` as the final stage.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] if any func is undefined, references a
    /// later source, or has an invalid schedule.
    pub fn build(self, output: SourceRef) -> Result<Pipeline, PipelineError> {
        let output_idx = self
            .funcs
            .iter()
            .position(|f| f.source == output.0)
            .ok_or(PipelineError::UnknownOutput)?;
        for (i, f) in self.funcs.iter().enumerate() {
            let body =
                f.body.as_ref().ok_or_else(|| PipelineError::UndefinedFunc(f.name.clone()))?;
            f.schedule.validate(&f.name)?;
            let refs: Vec<SourceId> = match body {
                FuncBody::Pure(e) => e.sources(),
                FuncBody::Histogram { source, .. } => vec![*source],
            };
            for r in refs {
                let is_input = self.inputs.iter().any(|inp| inp.source == r);
                let is_earlier_func = self.funcs[..i].iter().any(|prev| prev.source == r);
                if !is_input && !is_earlier_func {
                    return Err(PipelineError::ForwardReference { func: f.name.clone() });
                }
            }
        }
        Ok(Pipeline { inputs: self.inputs, funcs: self.funcs, output: FuncId(output_idx as u32) })
    }
}

/// Fluent mutable view of a func's schedule.
#[derive(Debug)]
pub struct ScheduleMut<'a> {
    schedule: &'a mut Schedule,
}

impl ScheduleMut<'_> {
    /// Materialize this func to DRAM (kernel boundary).
    pub fn compute_root(self) -> Self {
        self.schedule.compute_root = true;
        self
    }

    /// Set the `ipim_tile` partition size.
    pub fn ipim_tile(self, w: u32, h: u32) -> Self {
        self.schedule.tile = (w, h);
        self
    }

    /// Stage input windows in the PGSM.
    pub fn load_pgsm(self) -> Self {
        self.schedule.load_pgsm = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{x, y};

    #[test]
    fn simple_two_stage_pipeline() {
        let mut p = PipelineBuilder::new();
        let input = p.input("in", 16, 16);
        let bx = p.func("blurx", 16, 16);
        p.define(bx, (input.at(x() - 1, y()) + input.at(x() + 1, y())) / 2.0);
        let out = p.func("out", 16, 16);
        p.define(out, (bx.at(x(), y() - 1) + bx.at(x(), y() + 1)) / 2.0);
        p.schedule(out).compute_root().ipim_tile(8, 8).load_pgsm();
        let pipe = p.build(out).unwrap();
        assert_eq!(pipe.stage_count(), 2);
        assert_eq!(pipe.output().name, "out");
        assert_eq!(pipe.extent(input.id()), (16, 16));
    }

    #[test]
    fn non_root_funcs_are_inlined_into_roots() {
        let mut p = PipelineBuilder::new();
        let input = p.input("in", 8, 8);
        let a = p.func("a", 8, 8);
        p.define(a, input.at(x(), y()) * 2.0);
        let b = p.func("b", 8, 8);
        p.define(b, a.at(x() + 1, y()) + 1.0);
        let pipe = p.build(b).unwrap();
        let roots = pipe.root_stages();
        assert_eq!(roots.len(), 1, "`a` should inline into `b`");
        match roots[0].body.as_ref().unwrap() {
            FuncBody::Pure(e) => {
                assert_eq!(e.sources(), vec![input.id()], "only the input remains");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn compute_root_prevents_inlining() {
        let mut p = PipelineBuilder::new();
        let input = p.input("in", 8, 8);
        let a = p.func("a", 8, 8);
        p.define(a, input.at(x(), y()) * 2.0);
        p.schedule(a).compute_root();
        let b = p.func("b", 8, 8);
        p.define(b, a.at(x(), y()) + 1.0);
        let pipe = p.build(b).unwrap();
        let roots = pipe.root_stages();
        assert_eq!(roots.len(), 2);
        assert_eq!(roots[0].name, "a");
        assert_eq!(roots[1].name, "b");
    }

    #[test]
    fn undefined_func_rejected() {
        let mut p = PipelineBuilder::new();
        let _ = p.input("in", 8, 8);
        let f = p.func("f", 8, 8);
        assert_eq!(p.build(f), Err(PipelineError::UndefinedFunc("f".into())));
    }

    #[test]
    fn forward_reference_rejected() {
        let mut p = PipelineBuilder::new();
        let a = p.func("a", 8, 8);
        let b = p.func("b", 8, 8);
        p.define(a, b.at(x(), y()));
        p.define(b, Expr::ConstF(0.0));
        assert!(matches!(p.build(b), Err(PipelineError::ForwardReference { .. })));
    }

    #[test]
    fn bad_schedules_rejected() {
        let mut p = PipelineBuilder::new();
        let f = p.func("f", 8, 8);
        p.define(f, Expr::ConstF(1.0));
        p.schedule(f).ipim_tile(0, 8);
        assert!(matches!(p.build(f), Err(PipelineError::BadSchedule { .. })));

        let mut p = PipelineBuilder::new();
        let f = p.func("f", 8, 8);
        p.define(f, Expr::ConstF(1.0));
        p.schedule(f).ipim_tile(8, 0);
        assert!(matches!(p.build(f), Err(PipelineError::BadSchedule { .. })));
    }

    #[test]
    fn reschedule_replaces_schedules_and_revalidates() {
        let mut p = PipelineBuilder::new();
        let input = p.input("in", 16, 16);
        let a = p.func("a", 16, 16);
        p.define(a, input.at(x(), y()) * 2.0);
        let b = p.func("b", 16, 16);
        p.define(b, a.at(x(), y()) + 1.0);
        let pipe = p.build(b).unwrap();
        assert_eq!(pipe.root_stages().len(), 1, "a inlines by default");

        // Force every func to a 4×2 compute_root tile: now both are roots.
        let re = pipe
            .reschedule(|_| Schedule { compute_root: true, tile: (4, 2), ..Schedule::default() })
            .unwrap();
        assert_eq!(re.root_stages().len(), 2);
        assert_eq!(re.schedule_knobs()[0].1.tile, (4, 2));
        // The original pipeline is untouched.
        assert_eq!(pipe.schedule_knobs()[0].1.tile, (8, 8));
        // Invalid replacement schedules are rejected.
        assert!(matches!(
            pipe.reschedule(|_| Schedule { tile: (0, 8), ..Schedule::default() }),
            Err(PipelineError::BadSchedule { .. })
        ));
        assert!(matches!(
            pipe.reschedule(|_| Schedule { tile: (8, 0), ..Schedule::default() }),
            Err(PipelineError::BadSchedule { .. })
        ));
    }

    #[test]
    fn schedule_summary_is_canonical() {
        let s = Schedule { compute_root: true, tile: (32, 8), load_pgsm: true };
        assert_eq!(s.summary(), "root tile=32x8 pgsm");
        let mut p = PipelineBuilder::new();
        let input = p.input("in", 8, 8);
        let f = p.func("f", 8, 8);
        p.define(f, input.at(x(), y()));
        let pipe = p.build(f).unwrap();
        assert_eq!(pipe.schedule_summary(), "f=tile=8x8");
        // Every schedule field reaches the compile-cache key.
        let under = |s: Schedule| pipe.reschedule(|_| s).unwrap().content_summary();
        let base = Schedule::default();
        assert_eq!(under(base), pipe.content_summary());
        assert_ne!(under(Schedule { load_pgsm: true, ..base }), pipe.content_summary());
        assert_ne!(under(Schedule { tile: (4, 8), ..base }), pipe.content_summary());
        assert_ne!(under(Schedule { compute_root: true, ..base }), pipe.content_summary());
    }

    #[test]
    fn stage_kind_classification() {
        let mut p = PipelineBuilder::new();
        let input = p.input("in", 8, 8);
        let f = p.func("f", 8, 8);
        p.define(f, input.at(x(), y()));
        let h = p.func("h", 4, 1);
        p.define_histogram(h, input, 0.0, 1.0);
        let pipe = p.build(h).unwrap();
        assert_eq!(pipe.funcs()[0].kind(), StageKind::Pure);
        assert_eq!(pipe.funcs()[1].kind(), StageKind::Histogram);
    }

    #[test]
    fn histogram_body_shape() {
        let mut p = PipelineBuilder::new();
        let input = p.input("in", 32, 32);
        let h = p.func("hist", 64, 1);
        p.define_histogram(h, input, 0.0, 1.0);
        let pipe = p.build(h).unwrap();
        match pipe.output().body.as_ref().unwrap() {
            FuncBody::Histogram { bins: 64, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn histogram_stays_a_root_stage() {
        let mut p = PipelineBuilder::new();
        let input = p.input("in", 32, 32);
        let pre = p.func("pre", 32, 32);
        p.define(pre, input.at(x(), y()) * 2.0);
        let h = p.func("hist", 16, 1);
        p.define_histogram(h, pre, 0.0, 2.0);
        let pipe = p.build(h).unwrap();
        let roots = pipe.root_stages();
        // `pre` is non-root but a reduction source must still be
        // materialized... the histogram body names it, so it stays.
        assert!(roots.iter().any(|r| matches!(r.body, Some(FuncBody::Histogram { .. }))));
    }
}
