//! `sim-deep`: one client runs StencilChain, Gemm and LocalLaplacian at
//! 128² on the 1-vault slice, serially, each job one `Session::simulate`
//! call on the skip-ahead engine with its program compiled during setup.
//! `Machine::run` is nearly all of each job, so a cycle-engine change
//! shows here first.
//!
//! The timed phase runs whole rounds (every job once, in the seeded
//! order) until `--seconds` have passed, so the job mix, and with it
//! `ops_per_s`, does not depend on where the clock ran out. The traced
//! run executes the same jobs through the public calls `Session::simulate`
//! composes, each in a span.

use std::sync::Arc;
use std::time::Duration;

use ipim_core::analytic;
use ipim_core::experiments::{output_divergence, REFERENCE_TOLERANCE};
use ipim_core::frontend::Image;
use ipim_core::{
    workload_by_name, CompiledProgram, Engine, ExecutionReport, MachineConfig, Session, Workload,
    WorkloadScale,
};
use ipim_serve::image_hash;
use ipim_simkit::Rng;

use crate::clock::Stopwatch;
use crate::machine::{replay, Totals};
use crate::report::Outcome;
use crate::spans::{maybe as span, mean_ms, Recorder};
use crate::stats::{geomean, mean};

/// The jobs, at [`SIZE`]², before the seeded shuffle.
pub const JOBS: [&str; 3] = ["StencilChain", "Gemm", "LocalLaplacian"];
const SIZE: u32 = 128;
const MAX_CYCLES: u64 = 4_000_000_000;

struct Job {
    workload: Workload,
    program: Arc<CompiledProgram>,
}

/// The set-up workload.
pub struct SimDeep {
    session: Session,
    jobs: Vec<Job>,
}

/// One timed job.
struct Op {
    job: usize,
    dur: Duration,
    result: Result<(ExecutionReport, u64), String>,
}

impl SimDeep {
    /// Builds the workloads with inputs drawn from `seed` and compiles
    /// their programs.
    pub fn setup(seed: u64, rec: Option<&Recorder>) -> Result<Self, String> {
        let config = MachineConfig { engine: Engine::SkipAhead, ..MachineConfig::vault_slice(1) };
        let session = Session::new(config);
        let mut rng = Rng::new(seed);
        let mut jobs = Vec::new();
        for name in JOBS {
            let scale = WorkloadScale { width: SIZE, height: SIZE };
            let w = span(rec, "workloads.instantiate", || workload_by_name(name, scale))
                .ok_or_else(|| format!("unknown workload {name}"))?;
            // Every input of these three workloads is a synthetic image;
            // redraw each at its own extent from the run's seed.
            let inputs = w
                .inputs
                .iter()
                .map(|(src, img)| {
                    let s = rng.next_u64();
                    (*src, ipim_workloads::synthetic_image(img.width(), img.height(), s))
                })
                .collect();
            let workload = Workload { inputs, ..w };
            let program = span(rec, "compiler.compile", || session.compile(&workload.pipeline))
                .map_err(|e| format!("{name}: {e}"))?;
            jobs.push(Job { workload, program });
        }
        rng.shuffle(&mut jobs);
        Ok(Self { session, jobs })
    }

    fn simulate(&self, j: usize) -> Result<(ExecutionReport, Image), String> {
        let job = &self.jobs[j];
        self.session
            .simulate(&job.program, &job.workload.inputs, MAX_CYCLES)
            .map(|o| (o.report, o.output))
            .map_err(|e| e.to_string())
    }

    /// The timed phase, then every check. With `rec`, jobs run decomposed
    /// and the per-layer metrics are filled in.
    pub fn run(&self, seconds: f64, rec: Option<&Recorder>, out: &mut Outcome) {
        let mut ops: Vec<Op> = Vec::new();
        let mut totals = Totals::default();
        // First output image per job, for the golden check.
        let mut first_output: Vec<Option<Image>> = vec![None; self.jobs.len()];
        let phase = Stopwatch::start();
        loop {
            for (j, first) in first_output.iter_mut().enumerate() {
                let t = Stopwatch::start();
                let result = match rec {
                    None => self.simulate(j),
                    Some(rec) => self.traced_job(rec, j, ops.len() as u64, &mut totals),
                };
                let dur = Duration::from_secs_f64(t.secs());
                let result = result.map(|(report, output)| {
                    let hash = image_hash(&output);
                    first.get_or_insert(output);
                    (report, hash)
                });
                ops.push(Op { job: j, dur, result });
            }
            if phase.secs() >= seconds {
                break;
            }
        }
        let (elapsed, wall) = (phase.secs(), phase.wall_secs());
        out.phase_caches = Some(crate::CacheStats::now());

        // A single round leaves nothing to compare: repeat each job once,
        // untimed, so every report is checked against a repetition.
        let mut repeats: Vec<Op> = Vec::new();
        if ops.len() == self.jobs.len() {
            for j in 0..self.jobs.len() {
                let result = self.simulate(j).map(|(r, o)| (r, image_hash(&o)));
                repeats.push(Op { job: j, dur: Duration::ZERO, result });
            }
        }
        self.check(&ops, &repeats, &first_output, out);

        let durations: Vec<f64> = ops.iter().map(|o| o.dur.as_secs_f64() * 1e3).collect();
        crate::latency_metrics(&durations, out);
        out.e2e.insert("ops_per_s", ops.len() as f64 / elapsed);
        out.notes.push(format!(
            "{} jobs in {} round(s) over {elapsed:.3} s thread CPU ({wall:.3} s wall); order {}",
            ops.len(),
            ops.len() / self.jobs.len(),
            self.jobs.iter().map(|j| j.workload.name).collect::<Vec<_>>().join(",")
        ));

        // Modelled results of the distinct jobs (the first round).
        let reports: Vec<&ExecutionReport> = ops[..self.jobs.len()]
            .iter()
            .filter_map(|o| o.result.as_ref().ok())
            .map(|r| &r.0)
            .collect();
        if reports.len() == self.jobs.len() {
            let cycles: Vec<f64> = reports.iter().map(|r| r.cycles as f64).collect();
            let energy: Vec<f64> = reports.iter().map(|r| r.energy.total_pj() / 1e6).collect();
            out.e2e.insert("sim_cycles", geomean(&cycles).unwrap_or(0.0));
            out.e2e.insert("sim_energy_uj", geomean(&energy).unwrap_or(0.0));
            let errs: Vec<f64> = self
                .jobs
                .iter()
                .zip(&reports)
                .map(|(job, report)| {
                    let predicted = span(rec, "analytic.predict", || {
                        analytic::predict(&job.program.program, self.session.config(), MAX_CYCLES)
                    });
                    predicted.map_or(f64::INFINITY, |p| {
                        analytic::divergence_pct(p.cycles, report.cycles)
                    })
                })
                .collect();
            out.e2e.insert("analytic_err_pct", mean(&errs).unwrap_or(0.0));
        }

        if let Some(rec) = rec {
            for job in &self.jobs {
                let _ = rec.time("core.compile_hit", None, None, || {
                    self.session.compile(&job.workload.pipeline)
                });
            }
            let spans = rec.spans();
            totals.write(&spans, &mut out.layers);
            let insts: Vec<f64> =
                self.jobs.iter().map(|j| j.program.static_instructions as f64).collect();
            out.layers.insert("compiler.static_insts", mean(&insts).unwrap_or(0.0));
            out.layers.insert("compiler.compile_ms", mean_ms(&spans, "compiler.compile"));
            out.layers.insert("core.compile_hit_us", mean_ms(&spans, "core.compile_hit") * 1e3);
            out.layers.insert("workloads.instantiate_ms", mean_ms(&spans, "workloads.instantiate"));
            out.layers.insert("analytic.predict_ms", mean_ms(&spans, "analytic.predict"));
            out.spans = spans;
        }
    }

    /// One job through the decomposed public calls, under a `sim.job`
    /// span.
    fn traced_job(
        &self,
        rec: &Recorder,
        j: usize,
        req: u64,
        totals: &mut Totals,
    ) -> Result<(ExecutionReport, Image), String> {
        let job = &self.jobs[j];
        let root = rec.open("sim.job", None, Some(req));
        let replayed = replay(
            rec,
            Some(root.id()),
            Some(req),
            self.session.config(),
            &job.program,
            &job.workload.inputs,
            MAX_CYCLES,
        );
        rec.close(root);
        let replayed = replayed?;
        totals.add_run(&replayed);
        if req < self.jobs.len() as u64 {
            totals.add_job(&replayed);
        }
        Ok((replayed.report, replayed.output))
    }

    /// Golden-interpreter and repetition checks; one tally entry per timed
    /// job.
    fn check(&self, ops: &[Op], repeats: &[Op], first_output: &[Option<Image>], out: &mut Outcome) {
        let golden_ok: Vec<bool> = self
            .jobs
            .iter()
            .zip(first_output)
            .map(|(job, output)| {
                let Some(output) = output else { return false };
                let diff = output_divergence(&job.workload, output);
                if diff > REFERENCE_TOLERANCE {
                    out.fail(format!("{}: golden divergence {diff}", job.workload.name));
                }
                diff <= REFERENCE_TOLERANCE
            })
            .collect();
        let first: Vec<Option<&(ExecutionReport, u64)>> = (0..self.jobs.len())
            .map(|j| ops.iter().find(|o| o.job == j).and_then(|o| o.result.as_ref().ok()))
            .collect();
        let repeat_ok = |j: usize| {
            repeats.iter().filter(|r| r.job == j).all(|r| r.result.as_ref().ok() == first[j])
        };
        for op in ops {
            let name = self.jobs[op.job].workload.name;
            let ok = match &op.result {
                Err(e) => {
                    out.fail(format!("{name}: {e}"));
                    false
                }
                Ok(r) if Some(r) != first[op.job] => {
                    out.fail(format!("{name}: report or output differs between repetitions"));
                    false
                }
                Ok(_) if !repeat_ok(op.job) => {
                    out.fail(format!("{name}: untimed repetition differs"));
                    false
                }
                Ok(_) => golden_ok[op.job],
            };
            out.tally.record(ok);
        }
    }
}
