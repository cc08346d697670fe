//! `tune-space`: `ScheduleSpace::enumerate` once per space on the 1-vault
//! slice. Every compile is a program-cache miss, as when tuning a new
//! workload, and the cycle engine does none of the work: compile and
//! analytic prediction dominate.
//!
//! A space may be enumerated only once per process (a second pass would
//! hit the program cache), so the timed phase is one pass over all eight
//! spaces, whatever `--seconds` asks for.

use std::time::Duration;

use ipim_core::{
    analytic, workload_by_name, Engine, MachineConfig, Session, Workload, WorkloadScale,
};
use ipim_tune::ScheduleSpace;

use crate::clock::Stopwatch;
use crate::report::Outcome;
use crate::spans::{durations, maybe as span, mean_ms, Recorder};
use crate::stats::{geomean, mean};

/// The spaces: workload and square size.
pub const SPACES: [(&str, u32); 8] = [
    ("Blur", 128),
    ("BilateralGrid", 128),
    ("Gemm", 128),
    ("LocalLaplacian", 128),
    ("Conv3x3", 128),
    ("Histogram", 128),
    ("RowSoftmax", 128),
    ("StencilChain", 32),
];

const MAX_CYCLES: u64 = 4_000_000_000;

/// The set-up workload.
pub struct TuneSpace {
    machine: MachineConfig,
    workloads: Vec<Workload>,
}

impl TuneSpace {
    /// Builds the workloads. The spaces have no random inputs and run in
    /// a fixed order (the order decides which programs the cache holds at
    /// the end, and so the peak memory), so the seed changes nothing here.
    pub fn setup(rec: Option<&Recorder>) -> Result<Self, String> {
        let workloads = SPACES
            .iter()
            .map(|&(name, size)| {
                let scale = WorkloadScale { width: size, height: size };
                span(rec, "workloads.instantiate", || workload_by_name(name, scale))
                    .ok_or_else(|| format!("unknown workload {name}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let machine = MachineConfig { engine: Engine::SkipAhead, ..MachineConfig::vault_slice(1) };
        Ok(Self { machine, workloads })
    }

    /// The timed pass, then the checks; with `rec`, the replay that splits
    /// enumeration time into compile, predict and rejection.
    pub fn run(&self, rec: Option<&Recorder>, out: &mut Outcome) {
        let mut spaces = Vec::new();
        let mut times = Vec::new();
        let phase = Stopwatch::start();
        for (i, w) in self.workloads.iter().enumerate() {
            let t = Stopwatch::start();
            let space = match rec {
                Some(rec) => rec.time("tune.enumerate", None, Some(i as u64), || {
                    ScheduleSpace::enumerate(w, &self.machine, false)
                }),
                None => ScheduleSpace::enumerate(w, &self.machine, false),
            };
            times.push(Duration::from_secs_f64(t.secs()));
            spaces.push(space);
        }
        let (elapsed, wall) = (phase.secs(), phase.wall_secs());
        out.phase_caches = Some(crate::CacheStats::now());
        out.e2e.insert("ops_per_s", spaces.len() as f64 / elapsed);
        let ms: Vec<f64> = times.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        crate::latency_metrics(&ms, out);
        out.notes.push(format!(
            "{} spaces enumerated once each in {elapsed:.3} s thread CPU ({wall:.3} s wall); \
             order {}",
            spaces.len(),
            self.workloads
                .iter()
                .map(|w| format!("{}@{}", w.name, w.scale.width))
                .collect::<Vec<_>>()
                .join(",")
        ));

        // Checks: non-empty, and identical on an untimed repetition.
        for (w, space) in self.workloads.iter().zip(&spaces) {
            let ok = match space {
                Err(e) => {
                    out.fail(format!("{}: {e}", w.name));
                    false
                }
                Ok(s) if s.entries.is_empty() => {
                    out.fail(format!("{}: empty space", w.name));
                    false
                }
                Ok(s) => match ScheduleSpace::enumerate(w, &self.machine, false) {
                    Ok(again)
                        if again.entries == s.entries
                            && again.rejected == s.rejected
                            && again.backends == s.backends =>
                    {
                        true
                    }
                    _ => {
                        out.fail(format!("{}: space differs on repetition", w.name));
                        false
                    }
                },
            };
            out.tally.record(ok);
        }

        // The tuner's answer per space: its best-ranked entry, modelled by
        // the analytic tier (this workload runs no bit-exact job).
        let session = Session::new(self.machine.clone());
        let mut cycles = Vec::new();
        let mut energy = Vec::new();
        for (w, space) in self.workloads.iter().zip(&spaces) {
            let Ok(space) = space else { continue };
            let best = space.best_estimated();
            let predicted = w
                .with_override(&best.schedule)
                .and_then(|b| session.compile(&b.pipeline).map_err(|e| e.to_string()))
                .and_then(|p| {
                    analytic::predict(&p.program, &self.machine, MAX_CYCLES)
                        .map_err(|e| e.to_string())
                });
            match predicted {
                Ok(r) => {
                    cycles.push(r.cycles as f64);
                    energy.push(r.energy.total_pj() / 1e6);
                }
                Err(e) => out.fail(format!("{}: best entry: {e}", w.name)),
            }
        }
        if cycles.len() == spaces.len() {
            out.e2e.insert("sim_cycles", geomean(&cycles).unwrap_or(0.0));
            out.e2e.insert("sim_energy_uj", geomean(&energy).unwrap_or(0.0));
        }

        if let Some(rec) = rec {
            self.replay(rec, &spaces, &times, out);
        }
    }

    /// Replays every legal entry's compile (cache-bypassing) and
    /// prediction serially, so enumeration time splits into legal work and
    /// the time spent on rejected combinations.
    fn replay(
        &self,
        rec: &Recorder,
        spaces: &[Result<ScheduleSpace, String>],
        times: &[Duration],
        out: &mut Outcome,
    ) {
        let session = Session::new(self.machine.clone());
        let mut entries = 0usize;
        let mut raw = 0usize;
        let mut insts = Vec::new();
        let mut reject_ms = Vec::new();
        for (i, (w, space)) in self.workloads.iter().zip(spaces).enumerate() {
            let Ok(space) = space else { continue };
            let req = Some(i as u64);
            let root = rec.open("tune.replay", None, req);
            let parent = Some(root.id());
            let mut legal_ns = 0u64;
            for entry in &space.entries {
                let Ok(candidate) = w.with_override(&entry.ov) else {
                    out.fail(format!("{}: entry {} no longer applies", w.name, entry.ov));
                    continue;
                };
                let open = rec.open("compiler.compile", parent, req);
                let compiled = session.compile_only(&candidate.pipeline);
                legal_ns += rec.close(open);
                let Ok(compiled) = compiled else {
                    out.fail(format!("{}: entry {} no longer compiles", w.name, entry.ov));
                    continue;
                };
                insts.push(compiled.static_instructions as f64);
                let open = rec.open("analytic.predict", parent, req);
                let predicted = analytic::predict(&compiled.program, &self.machine, MAX_CYCLES);
                legal_ns += rec.close(open);
                if predicted.map(|r| r.cycles).ok() != Some(entry.est_cycles) {
                    out.fail(format!("{}: entry {} estimate differs", w.name, entry.ov));
                }
            }
            // A space outgrows the program cache, so time a hit on an
            // entry compiled just before.
            if let Some(entry) = space.entries.first() {
                if let Ok(candidate) = w.with_override(&entry.ov) {
                    let _ = session.compile(&candidate.pipeline);
                    let _ = rec.time("core.compile_hit", parent, req, || {
                        session.compile(&candidate.pipeline)
                    });
                }
            }
            rec.close(root);
            entries += space.entries.len();
            raw += raw_combinations(w);
            reject_ms.push((times[i].as_nanos() as f64 - legal_ns as f64) / 1e6);
        }
        let spans = rec.spans();
        let l = &mut out.layers;
        l.insert(
            "tune.enumerate_ms",
            mean(&durations(&spans, "tune.enumerate")).unwrap_or(0.0) / 1e6,
        );
        l.insert("tune.entries", entries as f64);
        l.insert("tune.legal_ratio", crate::stats::ratio(entries as f64, raw as f64));
        l.insert("tune.reject_ms", mean(&reject_ms).unwrap_or(0.0));
        l.insert("compiler.compile_ms", mean_ms(&spans, "compiler.compile"));
        l.insert("compiler.static_insts", mean(&insts).unwrap_or(0.0));
        l.insert("analytic.predict_ms", mean_ms(&spans, "analytic.predict"));
        l.insert("core.compile_hit_us", mean_ms(&spans, "core.compile_hit") * 1e3);
        l.insert("workloads.instantiate_ms", mean_ms(&spans, "workloads.instantiate"));
        out.notes.push(
            "compiler.compile_ms is replayed after enumerate, so stage lowering may hit the \
             per-stage cache that enumerate filled"
                .to_string(),
        );
        out.spans = spans;
    }
}

/// Raw combinations `ScheduleSpace::enumerate` walks for `w` without
/// backend knobs: lane-multiple tile widths × tile heights × PGSM staging
/// × three vector widths × three compute-root policies.
fn raw_combinations(w: &Workload) -> usize {
    let (ow, oh) = w.output_extent();
    let divisors = |n: u32| (1..=n).filter(|d| n.is_multiple_of(*d)).collect::<Vec<_>>();
    let widths = divisors(ow).into_iter().filter(|d| d.is_multiple_of(4)).count();
    widths * divisors(oh).len() * 2 * 3 * 3
}
