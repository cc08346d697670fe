//! Seeded hill-climb over a [`ScheduleSpace`](crate::ScheduleSpace).
//!
//! Randomness comes only from the in-tree `ipim-simkit` PRNG seeded by
//! [`TuneConfig::seed`](crate::TuneConfig), evaluation order is
//! deterministic, and the winner is picked by `(cycles, candidate key)` —
//! so one seed reproduces one best schedule, bit for bit, on any machine
//! and any pool width.

use ipim_simkit::Rng;

use crate::space::Candidate;
use crate::{EvalRecord, TuneConfig, Tuner};
use ipim_serve::ServePool;

/// How hard to climb: greedy hill-climb over 1-knob neighbourhoods,
/// restarting from seeded random points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HillClimb {
    /// Independent climbs: the first starts from the best *estimated*
    /// candidate, later ones from seeded random picks.
    pub restarts: usize,
    /// Maximum moves per climb.
    pub steps: usize,
}

impl HillClimb {
    /// Canonical report spelling, e.g. `hill:1x3`.
    pub fn name(&self) -> String {
        format!("hill:{}x{}", self.restarts, self.steps)
    }
}

/// A finished tuning run: the full log plus the headline numbers.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// Workload name as requested.
    pub workload: String,
    /// Image width evaluated at.
    pub width: u32,
    /// Image height evaluated at.
    pub height: u32,
    /// The seed that reproduces this run.
    pub seed: u64,
    /// Search spelling (see [`HillClimb::name`]).
    pub strategy: String,
    /// Total legal candidates (entries × backend combos).
    pub space_size: usize,
    /// Raw combinations the legality filter discarded.
    pub rejected: usize,
    /// Evaluations skipped by the analytic-prediction pruner.
    pub pruned: usize,
    /// Evaluations actually simulated.
    pub simulated: usize,
    /// Cycles of the hand-written default schedule (`None` if it failed).
    pub default_cycles: Option<u64>,
    /// Energy of the hand-written default schedule.
    pub default_energy_pj: Option<f64>,
    /// The winning evaluation.
    pub best: EvalRecord,
    /// `default_cycles / best cycles` (1.0 when the default was not
    /// beaten or not measured).
    pub speedup: f64,
    /// Winner's output divergence from the golden CPU interpreter.
    pub verified_divergence: f32,
    /// Every evaluation, in submission order.
    pub evals: Vec<EvalRecord>,
}

/// Runs `cfg`'s hill-climb over `pool` and returns the full outcome.
///
/// The hand-written default schedule is always evaluated first (it is the
/// baseline the leaderboard compares against and the CI gate's floor),
/// and the winner is verified against the golden interpreter before the
/// outcome is assembled.
///
/// # Errors
///
/// Returns a message for unknown workloads, empty legal spaces, a search
/// that produced no completed evaluation, or a winner whose output
/// diverges from the reference beyond the canonical tolerance.
pub fn run_search(cfg: &TuneConfig, pool: &ServePool) -> Result<TuneOutcome, String> {
    let mut tuner = Tuner::new(cfg, pool)?;
    let default_idx = tuner.evaluate(&[Candidate::default_hand()])[0];
    let (default_cycles, default_energy_pj) =
        (tuner.evals[default_idx].cycles, tuner.evals[default_idx].energy_pj);

    let candidates = tuner.space.candidates();
    let mut rng = Rng::new(cfg.seed);
    let HillClimb { restarts, steps } = cfg.climb;
    for restart in 0..restarts.max(1) {
        let mut current = if restart == 0 {
            tuner.space.best_estimated()
        } else {
            candidates[rng.range_usize(0, candidates.len())].clone()
        };
        let mut current_cycles = cycles_of(&mut tuner, &current).unwrap_or(u64::MAX);
        for _ in 0..steps.max(1) {
            let mut neighbours: Vec<Candidate> =
                candidates.iter().filter(|c| current.distance(c) == 1).cloned().collect();
            if neighbours.is_empty() {
                break;
            }
            // Analytic short-list: rank the wave by predicted cycles (key
            // tie-break keeps the order seedless) and let the bit-exact
            // engine verify only the top `frontier`. frontier == 0
            // simulates every neighbour.
            if cfg.frontier > 0 && neighbours.len() > cfg.frontier {
                neighbours.sort_by_cached_key(|c| {
                    (tuner.space.estimate_for(c).unwrap_or(u64::MAX), c.key())
                });
                neighbours.truncate(cfg.frontier);
            }
            let idxs = tuner.evaluate(&neighbours);
            // Deterministic move: best (cycles, key) among strictly
            // improving neighbours.
            let step = idxs
                .into_iter()
                .filter(|&i| tuner.evals[i].cycles.is_some_and(|c| c < current_cycles))
                .min_by(|&a, &b| {
                    let ea = &tuner.evals[a];
                    let eb = &tuner.evals[b];
                    (ea.cycles, &ea.key).cmp(&(eb.cycles, &eb.key))
                });
            match step {
                Some(i) => {
                    current = tuner.evals[i].candidate.clone();
                    current_cycles = tuner.evals[i].cycles.expect("filtered Some");
                }
                None => break, // local optimum
            }
        }
    }

    let best = tuner.best().ok_or("search produced no completed evaluation")?.clone();
    let verified_divergence = tuner.verify(&best.candidate)?;
    if verified_divergence > ipim_core::experiments::REFERENCE_TOLERANCE {
        return Err(format!(
            "winner {} diverges from the reference interpreter by {verified_divergence}",
            best.key
        ));
    }
    let best_cycles = best.cycles.expect("best() only returns completed evals");
    let speedup = match default_cycles {
        Some(d) if best_cycles > 0 => d as f64 / best_cycles as f64,
        _ => 1.0,
    };
    Ok(TuneOutcome {
        workload: cfg.workload.clone(),
        width: cfg.width,
        height: cfg.height,
        seed: cfg.seed,
        strategy: cfg.climb.name(),
        space_size: tuner.space.len(),
        rejected: tuner.space.rejected,
        pruned: tuner.evals.iter().filter(|e| e.pruned).count(),
        simulated: tuner.evals.iter().filter(|e| e.cycles.is_some() || e.error.is_some()).count(),
        default_cycles,
        default_energy_pj,
        best,
        speedup,
        verified_divergence,
        evals: tuner.evals,
    })
}

/// Evaluates one candidate and returns its cycles (memoized by the
/// tuner's dedup table).
fn cycles_of(tuner: &mut Tuner<'_>, candidate: &Candidate) -> Option<u64> {
    let i = tuner.evaluate(std::slice::from_ref(candidate))[0];
    tuner.evals[i].cycles
}
