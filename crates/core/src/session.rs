//! The high-level compile-and-run API.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use ipim_arch::{analytic, Engine, ExecutionReport, Fidelity, Machine, MachineConfig, SimTimeout};
use ipim_compiler::{compile, host, CompileError, CompileOptions, CompiledPipeline};
use ipim_frontend::{Image, Pipeline, SourceId};
use ipim_trace::{MetricsRegistry, RingSink, TraceCapture};
use ipim_workloads::Workload;

use crate::progcache::{CompiledProgram, ProgramCache};

// The serving layer moves run results between worker threads; everything a
// run produces must therefore be plain data. The machine itself is
// intentionally `!Send` (its tracer shares an `Rc<RefCell<..>>` sink), so
// these assertions are the compile-time proof that nothing thread-bound
// leaks into the outputs.
const fn assert_send<T: Send>() {}
const _: () = {
    assert_send::<RunOutcome>();
    assert_send::<TraceCapture>();
    assert_send::<ExecutionReport>();
    assert_send::<SessionError>();
};

/// Error produced by a session run.
#[derive(Debug)]
pub enum SessionError {
    /// Compilation failed.
    Compile(CompileError),
    /// The simulation did not quiesce within the cycle budget.
    Timeout(SimTimeout),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Compile(e) => write!(f, "compile: {e}"),
            SessionError::Timeout(e) => write!(f, "simulation: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<CompileError> for SessionError {
    fn from(e: CompileError) -> Self {
        SessionError::Compile(e)
    }
}

impl From<SimTimeout> for SessionError {
    fn from(e: SimTimeout) -> Self {
        SessionError::Timeout(e)
    }
}

/// Everything a run produces: the output image, the compiled program, and
/// the cycle-accurate execution report.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The output buffer read back from the banks.
    pub output: Image,
    /// Cycle-accurate performance/energy report.
    pub report: ExecutionReport,
    /// The compiled program and memory map — shared with (and usually
    /// served from) the process-wide [`ProgramCache`]; dereferences to the
    /// underlying [`CompiledPipeline`].
    pub compiled: Arc<CompiledProgram>,
    /// Hierarchical counter/gauge/histogram snapshot of the finished run.
    pub metrics: MetricsRegistry,
    /// Captured trace events, when `MachineConfig::trace.enabled` was set.
    pub trace: Option<TraceCapture>,
    /// How much this outcome can be trusted: [`Fidelity::BitExact`] for
    /// the cycle engines, [`Fidelity::Approximate`] for the analytic
    /// tier (whose `output` is a zero image at the correct extent and
    /// whose report carries a measured error envelope).
    pub fidelity: Fidelity,
}

impl RunOutcome {
    /// Output pixels per second at the simulated machine's 1 GHz clock.
    pub fn pixels_per_second(&self) -> f64 {
        let pixels = self.output.pixels() as f64;
        pixels / self.report.seconds()
    }

    /// Energy per output pixel in picojoules.
    pub fn energy_pj_per_pixel(&self) -> f64 {
        self.report.energy.total_pj() / self.output.pixels() as f64
    }
}

/// A compile-and-run session against one machine configuration.
///
/// # Example
///
/// ```
/// use ipim_core::{Session, MachineConfig, CompileOptions};
/// use ipim_core::frontend::{PipelineBuilder, Image, x, y};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut p = PipelineBuilder::new();
/// let input = p.input("in", 64, 64);
/// let out = p.func("out", 64, 64);
/// p.define(out, input.at(x(), y()) * 2.0);
/// p.schedule(out).compute_root().ipim_tile(8, 8);
/// let pipeline = p.build(out)?;
///
/// let session = Session::new(MachineConfig::vault_slice(1));
/// let outcome = session.run_pipeline(
///     &pipeline,
///     &[(input.id(), Image::gradient(64, 64))],
///     10_000_000,
/// )?;
/// assert_eq!(outcome.output.width(), 64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Session {
    config: MachineConfig,
    options: CompileOptions,
}

impl Session {
    /// Creates a session with the fully optimized compiler.
    pub fn new(config: MachineConfig) -> Self {
        Self { config, options: CompileOptions::opt() }
    }

    /// Creates a session with explicit compiler options (the Fig. 12
    /// baselines).
    pub fn with_options(config: MachineConfig, options: CompileOptions) -> Self {
        Self { config, options }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The compiler options.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// Compiles a pipeline without running it, bypassing the program
    /// cache (a guaranteed-fresh lowering; [`Session::compile`] is the
    /// cached path everything else should prefer).
    ///
    /// # Errors
    ///
    /// Returns the compiler's error on unsupported pipelines.
    pub fn compile_only(&self, pipeline: &Pipeline) -> Result<CompiledPipeline, SessionError> {
        Ok(compile(pipeline, &self.config, &self.options)?)
    }

    /// Compiles `pipeline` into a shareable [`CompiledProgram`] through
    /// the process-wide [`ProgramCache`]: the first compile of a given
    /// (pipeline content × machine shape × options) key lowers the
    /// pipeline, every later one returns the cached artifact. Compilation
    /// is deterministic, so the cached program is bit-identical to a
    /// fresh compile.
    ///
    /// # Errors
    ///
    /// Returns the compiler's error on unsupported pipelines.
    pub fn compile(&self, pipeline: &Pipeline) -> Result<Arc<CompiledProgram>, SessionError> {
        Ok(ProgramCache::global().compile_pipeline(pipeline, &self.config, &self.options)?)
    }

    /// Uploads `inputs`, runs `program` to quiescence and reads the output
    /// back — the simulate half of [`run_pipeline`](Self::run_pipeline),
    /// needing no access to the frontend pipeline at all.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::Timeout`] when the simulation does not
    /// quiesce within `max_cycles`.
    pub fn simulate(
        &self,
        program: &Arc<CompiledProgram>,
        inputs: &[(SourceId, Image)],
        max_cycles: u64,
    ) -> Result<RunOutcome, SessionError> {
        if self.config.engine == Engine::Analytic {
            return self.predict(program, max_cycles);
        }
        let compiled = program.compiled();
        let mut machine = Machine::new(self.config.clone());
        // When tracing is on, wire a shared ring through every component;
        // otherwise every tracer stays detached (one-branch emit path).
        let capture = if self.config.trace.enabled {
            let sink = Rc::new(RefCell::new(RingSink::new(self.config.trace.ring_capacity)));
            let components = machine.attach_trace(sink.clone());
            Some((sink, components))
        } else {
            None
        };
        for (src, img) in inputs {
            host::upload(&mut machine, &compiled.map, *src, img);
        }
        machine.load_program_all(&compiled.program);
        let report = machine.run(max_cycles)?;
        let output = host::read_back(&machine, &compiled.map, program.output_source());
        let metrics = machine.metrics();
        let trace = capture.map(|(sink, components)| {
            let mut ring = sink.borrow_mut();
            TraceCapture {
                records: ring.drain(),
                components,
                dropped: ring.dropped(),
                total: ring.total(),
            }
        });
        Ok(RunOutcome {
            output,
            report,
            compiled: program.clone(),
            metrics,
            trace,
            fidelity: self.config.engine.fidelity(),
        })
    }

    /// The [`Engine::Analytic`] path of [`simulate`](Self::simulate):
    /// predicts the run from the compiled SIMB stream alone (see
    /// `ipim_arch::analytic`), never building a machine or touching
    /// banks. The outcome is marked [`Fidelity::Approximate`]; its
    /// `output` is a zero image at the extent `read_back` would produce,
    /// and `metrics` carries the predicted counters under the same
    /// `machine/total` + `dram/*` paths the simulating engines export.
    fn predict(
        &self,
        program: &Arc<CompiledProgram>,
        max_cycles: u64,
    ) -> Result<RunOutcome, SessionError> {
        let compiled = program.compiled();
        let report = analytic::predict(&compiled.program, &self.config, max_cycles)
            .map_err(SessionError::Timeout)?;
        let (w, h) = host::output_extent(&compiled.map, program.output_source());
        let mut metrics = MetricsRegistry::default();
        metrics.counter_add("machine/cycles", report.cycles);
        report.record_totals_into(&mut metrics);
        metrics.counter_add("analytic/predictions", 1);
        Ok(RunOutcome {
            output: Image::new(w, h),
            report,
            compiled: program.clone(),
            metrics,
            trace: None,
            fidelity: Fidelity::Approximate,
        })
    }

    /// Compiles `pipeline` (through the program cache), uploads `inputs`,
    /// runs to quiescence and reads the output back — the two-phase
    /// [`compile`](Self::compile) + [`simulate`](Self::simulate) flow as
    /// one call.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError`] on compile failure or simulation timeout.
    pub fn run_pipeline(
        &self,
        pipeline: &Pipeline,
        inputs: &[(SourceId, Image)],
        max_cycles: u64,
    ) -> Result<RunOutcome, SessionError> {
        let program = self.compile(pipeline)?;
        self.simulate(&program, inputs, max_cycles)
    }

    /// Runs a Table II workload.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError`] on compile failure or simulation timeout.
    pub fn run_workload(&self, w: &Workload, max_cycles: u64) -> Result<RunOutcome, SessionError> {
        self.run_pipeline(&w.pipeline, &w.inputs, max_cycles)
    }
}
