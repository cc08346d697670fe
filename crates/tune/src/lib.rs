//! # ipim-tune — deterministic schedule autotuning for the iPIM model
//!
//! Hand-written Table II schedules encode one mapping guess per workload;
//! this crate searches the legal neighbourhood of that guess and reports
//! when the machine model disagrees with the hand choice. The tuner is a
//! *client* of the existing stack, not a new simulator:
//!
//! - [`ScheduleSpace`] enumerates legal knob settings (tile extents over
//!   output divisors, PGSM staging, `compute_root` policies, optional
//!   backend knobs), filtered through the real compiler so every
//!   candidate is known-compilable and a distinct program.
//! - Candidate evaluation fans out across an
//!   [`ServePool`](ipim_serve::ServePool) as ordinary
//!   [`SimRequest`](ipim_serve::SimRequest)s carrying a
//!   [`ScheduleOverride`] — deduplicated tuner-side by canonical key and
//!   pool-side by the content-addressed result cache.
//! - The analytic fast-forward engine (`ipim_core::analytic`) predicts
//!   every candidate's cycles from its compiled program before any
//!   simulation is spent: far-off candidates are pruned outright, and
//!   hill-climb waves simulate only the top-`frontier` neighbours by
//!   predicted rank, with the bit-exact SkipAhead engine verifying that
//!   short-list.
//! - Search strategies ([`Strategy`]) — exhaustive, seeded random
//!   sampling, greedy hill-climb with restarts — all draw randomness from
//!   the in-tree `ipim-simkit` PRNG, so the same seed finds the same best
//!   schedule on every machine.
//! - The winning schedule is re-run and checked against the golden CPU
//!   interpreter (`ipim_core::experiments::output_divergence`) before it
//!   is reported.
//!
//! The `tune` binary wraps [`run_search`] with JSONL reporting
//! (`results/tuning.jsonl`) and a human-readable leaderboard.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

use ipim_core::{workload_by_name, MachineConfig, Workload, WorkloadScale};
use ipim_serve::{ServePool, SimResponse};

mod report;
mod search;
mod space;

pub use report::{append_jsonl, jsonl_lines, leaderboard};
pub use search::{run_search, Strategy, TuneOutcome};
pub use space::{Candidate, ScheduleEntry, ScheduleSpace};

/// Everything one tuning run needs to know.
#[derive(Debug, Clone)]
pub struct TuneConfig {
    /// Table II workload name.
    pub workload: String,
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Vaults in the simulated slice.
    pub vaults: usize,
    /// Per-candidate simulation cycle budget.
    pub max_cycles: u64,
    /// PRNG seed — the *only* source of randomness in a run.
    pub seed: u64,
    /// Search strategy.
    pub strategy: Strategy,
    /// Candidates whose analytic prediction exceeds `prune_ratio` × the
    /// space-wide minimum prediction are recorded but never simulated.
    pub prune_ratio: f64,
    /// Hill-climb neighbour short-list: each wave simulates only the
    /// `frontier` best-predicted neighbours (ties broken by candidate
    /// key). `0` disables the short-list and simulates every neighbour,
    /// which is the pre-analytic behaviour.
    pub frontier: usize,
    /// Widen the space with backend knobs (reg_alloc / reorder /
    /// memory_order).
    pub include_backend: bool,
}

impl TuneConfig {
    /// A sensible default run for `workload`: 128×128, one vault,
    /// hill-climb with two restarts.
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_string(),
            width: 128,
            height: 128,
            vaults: 1,
            max_cycles: 2_000_000_000,
            seed: 0x1915,
            strategy: Strategy::HillClimb { restarts: 2, steps: 8 },
            prune_ratio: 8.0,
            frontier: 4,
            include_backend: false,
        }
    }

    /// The workload at this config's scale.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown workload names.
    pub fn instantiate(&self) -> Result<Workload, String> {
        let scale = WorkloadScale { width: self.width, height: self.height };
        workload_by_name(&self.workload, scale)
            .ok_or_else(|| format!("unknown workload {:?}", self.workload))
    }

    /// The machine shape candidates are evaluated on.
    pub fn machine(&self) -> MachineConfig {
        MachineConfig::vault_slice(self.vaults)
    }
}

/// What evaluating one candidate produced.
#[derive(Debug, Clone)]
pub struct EvalRecord {
    /// The candidate.
    pub candidate: Candidate,
    /// Canonical candidate key (dedup/tie-break identity).
    pub key: String,
    /// Analytic-engine cycle prediction for the candidate's schedule (0
    /// when the model had nothing to say, e.g. for the hand default).
    pub est_cycles: u64,
    /// Simulated cycles to quiescence (`None`: pruned, timed out or
    /// errored).
    pub cycles: Option<u64>,
    /// Simulated total energy in picojoules.
    pub energy_pj: Option<f64>,
    /// FNV-1a hash of the output image (determinism witness).
    pub output_hash: Option<u64>,
    /// The tuner asked for this candidate more than once (later requests
    /// were served from memory instead of re-simulated).
    pub cache_hit: bool,
    /// Skipped by the analytic-prediction pruner.
    pub pruned: bool,
    /// In-band failure (timeout / compile error), if any.
    pub error: Option<String>,
}

/// The evaluation engine: owns the space, the dedup table and the record
/// log; strategies drive it wave by wave.
pub struct Tuner<'a> {
    cfg: &'a TuneConfig,
    pool: &'a ServePool,
    /// The enumerated legal space.
    pub space: ScheduleSpace,
    workload: Workload,
    prune_floor: u64,
    seen: HashMap<String, usize>,
    /// Every evaluation in submission order.
    pub evals: Vec<EvalRecord>,
}

impl<'a> Tuner<'a> {
    /// Enumerates the space for `cfg` and prepares an empty log.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown workloads or empty legal spaces.
    pub fn new(cfg: &'a TuneConfig, pool: &'a ServePool) -> Result<Self, String> {
        let workload = cfg.instantiate()?;
        let machine = cfg.machine();
        let space = ScheduleSpace::enumerate(&workload, &machine, cfg.include_backend)?;
        let min_est = space.entries.iter().map(|e| e.est_cycles).min().expect("space is non-empty");
        let prune_floor = (min_est as f64 * cfg.prune_ratio.max(1.0)) as u64;
        Ok(Self {
            cfg,
            pool,
            space,
            workload,
            prune_floor,
            seen: HashMap::new(),
            evals: Vec::new(),
        })
    }

    /// The workload being tuned (at the config's scale).
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Evaluates a wave of candidates concurrently across the pool,
    /// returning each candidate's index into [`Tuner::evals`].
    ///
    /// Candidates already evaluated are not resubmitted — their existing
    /// record is returned (and marked [`EvalRecord::cache_hit`]).
    /// Candidates over the prune floor are recorded as pruned without
    /// simulation. Everything else goes to the pool in one wave, so a
    /// multi-worker pool evaluates the wave in parallel while response
    /// order (and therefore the log) stays deterministic.
    pub fn evaluate(&mut self, candidates: &[Candidate]) -> Vec<usize> {
        // Phase 1: classify, reserving a record slot per fresh candidate.
        let mut indices = Vec::with_capacity(candidates.len());
        let mut to_run: Vec<usize> = Vec::new(); // eval indices needing simulation
        for cand in candidates {
            let key = cand.key();
            if let Some(&i) = self.seen.get(&key) {
                self.evals[i].cache_hit = true;
                indices.push(i);
                continue;
            }
            let est_cycles = self.space.estimate_for(cand).unwrap_or(0);
            let pruned = est_cycles > self.prune_floor;
            let i = self.evals.len();
            self.seen.insert(key.clone(), i);
            self.evals.push(EvalRecord {
                candidate: cand.clone(),
                key,
                est_cycles,
                cycles: None,
                energy_pj: None,
                output_hash: None,
                cache_hit: false,
                pruned,
                error: None,
            });
            if !pruned {
                to_run.push(i);
            }
            indices.push(i);
        }
        // Phase 2: submit the whole wave, then collect in order.
        let tickets: Vec<_> = to_run
            .iter()
            .map(|&i| (i, self.pool.submit(self.evals[i].candidate.request(self.cfg))))
            .collect();
        for (i, ticket) in tickets {
            match ticket.wait() {
                SimResponse::Done(d) => {
                    self.evals[i].cycles = Some(d.cycles);
                    self.evals[i].energy_pj = Some(d.energy_pj);
                    self.evals[i].output_hash = Some(d.output_hash);
                }
                SimResponse::Timeout(t) => {
                    self.evals[i].error = Some(format!("timeout: {t:?}"));
                }
                SimResponse::Error(msg) => {
                    self.evals[i].error = Some(msg);
                }
            }
        }
        indices
    }

    /// The best completed evaluation so far: minimum cycles, ties broken
    /// by candidate key — wall-clock never participates, so the winner is
    /// identical on every machine.
    pub fn best(&self) -> Option<&EvalRecord> {
        self.evals
            .iter()
            .filter(|e| e.cycles.is_some())
            .min_by(|a, b| (a.cycles, &a.key).cmp(&(b.cycles, &b.key)))
    }

    /// Re-runs `candidate` through the pool (a result-cache hit when it
    /// was already simulated) and measures its output's divergence from
    /// the golden CPU interpreter.
    ///
    /// # Errors
    ///
    /// Returns a message when the run fails or the override does not
    /// apply.
    pub fn verify(&self, candidate: &Candidate) -> Result<f32, String> {
        let w = if candidate.schedule.is_empty() {
            self.workload.clone()
        } else {
            self.workload.with_override(&candidate.schedule)?
        };
        match self.pool.submit(candidate.request(self.cfg)).wait() {
            SimResponse::Done(d) => Ok(ipim_core::experiments::output_divergence(&w, &d.output)),
            other => Err(format!("verification run failed: {other:?}")),
        }
    }
}
