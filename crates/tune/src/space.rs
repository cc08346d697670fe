//! The legal search space: which knob settings are worth simulating.
//!
//! A [`ScheduleSpace`] is built per workload × machine shape by
//! *constructive enumeration*: candidate tile extents come from the
//! divisors of the output image (tile widths additionally multiples of 4,
//! the SIMB lane count), crossed with the PGSM staging choice and the
//! [`ComputeRootPolicy`]. Every raw combination is then pushed through the
//! real legality boundary — the override is applied, the pipeline
//! re-validated, **compiled** through the cached `Session::compile`, and
//! ranked by the analytic tier's prediction (`analytic::predict`) — so a
//! space never hands the tuner a candidate that the compiler would reject.
//! Overrides that collapse to the same effective schedule (e.g.
//! `root=keep` vs `root=all` on a pipeline whose funcs are already all
//! roots) are deduplicated by the rescheduled pipeline's canonical
//! summary, which is also the schedule half of the program's cache key:
//! each summary is compiled and predicted once, every entry is its own
//! program, and a repeat of a rejected summary counts as rejected without
//! a compile.
//!
//! Backend knobs (register allocation, Algorithm 1 reordering, memory
//! ordering) ride along as a small cross product when the tuner asks for
//! them; they never affect mapping legality, so they multiply the space
//! *after* the compile filter. The unsafe combination — reordering
//! without memory-order edges — is excluded by construction.

use std::collections::HashMap;

use ipim_core::frontend::Pipeline;
use ipim_core::{
    analytic, ComputeRootPolicy, MachineConfig, RegAllocPolicy, ScheduleOverride, Workload,
};
use ipim_serve::SimRequest;

use crate::TuneConfig;

/// Reject overrides whose inlined expression size bound exceeds this —
/// compiling (let alone simulating) them would dwarf any cycle win.
const MAX_INLINED_NODES: u64 = 50_000;

/// Cycle budget for enumeration-time analytic predictions: a candidate
/// whose *predicted* run exceeds this is rejected the same way a
/// simulation timeout would reject it.
const ESTIMATE_MAX_CYCLES: u64 = 4_000_000_000;

/// One legal schedule override, annotated with what enumeration learned
/// about it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleEntry {
    /// The override itself.
    pub ov: ScheduleOverride,
    /// Canonical per-func summary of the *rescheduled* pipeline — the
    /// dedup key (two overrides with the same summary compile to the same
    /// program).
    pub summary: String,
    /// Predicted cycles from the analytic fast-forward engine
    /// (`ipim_core::analytic`), walked over the candidate's compiled
    /// program. Approximate (per-workload divergence from the cycle
    /// engine: `results/REPORT.md`, "Analytic divergence envelope") but
    /// rank-faithful — used for pruning and neighbour ordering, never
    /// reported as a result.
    pub est_cycles: u64,
}

/// One point of the full search space: a schedule plus backend knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The schedule override (empty = the hand-written schedule).
    pub schedule: ScheduleOverride,
    /// Register-allocation policy.
    pub reg_alloc: RegAllocPolicy,
    /// Run Algorithm 1 instruction reordering.
    pub reorder: bool,
    /// Add memory-order-enforcement edges before reordering.
    pub memory_order: bool,
}

impl Candidate {
    /// The hand-written default: no override, fully optimized backend.
    pub fn default_hand() -> Self {
        Self {
            schedule: ScheduleOverride::default(),
            reg_alloc: RegAllocPolicy::Max,
            reorder: true,
            memory_order: true,
        }
    }

    /// Canonical identity string — the tuner's dedup key and the
    /// deterministic tie-breaker when two candidates simulate to the same
    /// cycle count.
    pub fn key(&self) -> String {
        format!(
            "{};reg={};reorder={};memory_order={}",
            self.schedule,
            match self.reg_alloc {
                RegAllocPolicy::Min => "min",
                RegAllocPolicy::Max => "max",
            },
            self.reorder,
            self.memory_order,
        )
    }

    /// The serving-layer request that evaluates this candidate under
    /// `cfg`'s workload, scale and budget.
    pub fn request(&self, cfg: &TuneConfig) -> SimRequest {
        SimRequest {
            workload: cfg.workload.clone(),
            width: cfg.width,
            height: cfg.height,
            vaults: cfg.vaults,
            reg_alloc: self.reg_alloc,
            reorder: self.reorder,
            memory_order: self.memory_order,
            max_cycles: cfg.max_cycles,
            schedule: self.schedule,
            ..SimRequest::default()
        }
    }

    /// How many knobs differ from `other` (tile, pgsm, root,
    /// backend-combo) — hill-climb neighbours are at distance 1.
    pub fn distance(&self, other: &Candidate) -> usize {
        usize::from(self.schedule.tile != other.schedule.tile)
            + usize::from(self.schedule.load_pgsm != other.schedule.load_pgsm)
            + usize::from(self.schedule.compute_root != other.schedule.compute_root)
            + usize::from(
                (self.reg_alloc, self.reorder, self.memory_order)
                    != (other.reg_alloc, other.reorder, other.memory_order),
            )
    }
}

/// The compile-filtered search space for one workload × machine shape.
#[derive(Debug, Clone)]
pub struct ScheduleSpace {
    /// Legal, deduplicated schedule overrides in enumeration order.
    pub entries: Vec<ScheduleEntry>,
    /// Backend knob combinations `(reg_alloc, reorder, memory_order)`.
    pub backends: Vec<(RegAllocPolicy, bool, bool)>,
    /// Raw combinations discarded by the legality filter (validation,
    /// compile or estimate failure).
    pub rejected: usize,
}

impl ScheduleSpace {
    /// Enumerates the legal space for `workload` on `machine`.
    ///
    /// `include_backend` widens the space with the backend knob cross
    /// product; otherwise only the fully optimized backend is searched.
    ///
    /// # Errors
    ///
    /// Returns a message when no raw combination survives the legality
    /// filter (the workload then has no tunable mapping on this machine).
    pub fn enumerate(
        workload: &Workload,
        machine: &MachineConfig,
        include_backend: bool,
    ) -> Result<Self, String> {
        let (out_w, out_h) = workload.output_extent();
        let session = ipim_core::Session::new(machine.clone());
        let mut entries: Vec<ScheduleEntry> = Vec::new();
        // Rescheduled pipeline summary → whether it was legal. Equal
        // summaries compile to one program, so each is judged once.
        let mut legal: HashMap<String, bool> = HashMap::new();
        let mut rejected = 0usize;
        for tw in divisors(out_w).into_iter().filter(|tw| tw.is_multiple_of(4)) {
            for th in divisors(out_h) {
                for load_pgsm in [false, true] {
                    for compute_root in [
                        ComputeRootPolicy::Keep,
                        ComputeRootPolicy::All,
                        ComputeRootPolicy::OutputOnly,
                    ] {
                        let ov = ScheduleOverride {
                            tile: Some((tw, th)),
                            load_pgsm: Some(load_pgsm),
                            compute_root,
                        };
                        let Ok(pipeline) = workload.rescheduled(&ov) else {
                            rejected += 1;
                            continue;
                        };
                        let summary = pipeline.schedule_summary();
                        if let Some(&was_legal) = legal.get(&summary) {
                            // Same effective schedule: only a repeat of a
                            // rejected one is a rejection.
                            rejected += usize::from(!was_legal);
                            continue;
                        }
                        let est_cycles = estimate(&session, &pipeline, machine);
                        legal.insert(summary.clone(), est_cycles.is_some());
                        match est_cycles {
                            Some(est_cycles) => {
                                entries.push(ScheduleEntry { ov, summary, est_cycles });
                            }
                            None => rejected += 1,
                        }
                    }
                }
            }
        }
        if entries.is_empty() {
            return Err(format!(
                "{}: no legal schedule for {out_w}x{out_h} on this machine \
                 ({rejected} combination(s) rejected)",
                workload.name
            ));
        }
        let backends = if include_backend {
            // Reordering without memory-order edges is unsound, so the
            // backend space toggles them together.
            vec![
                (RegAllocPolicy::Max, true, true),
                (RegAllocPolicy::Min, true, true),
                (RegAllocPolicy::Max, false, false),
                (RegAllocPolicy::Min, false, false),
            ]
        } else {
            vec![(RegAllocPolicy::Max, true, true)]
        };
        Ok(Self { entries, backends, rejected })
    }

    /// The full candidate list: entries × backends, in deterministic
    /// enumeration order.
    pub fn candidates(&self) -> Vec<Candidate> {
        let mut out = Vec::with_capacity(self.entries.len() * self.backends.len());
        for entry in &self.entries {
            for &(reg_alloc, reorder, memory_order) in &self.backends {
                out.push(Candidate { schedule: entry.ov, reg_alloc, reorder, memory_order });
            }
        }
        out
    }

    /// Total candidate count (entries × backend combos).
    pub fn len(&self) -> usize {
        self.entries.len() * self.backends.len()
    }

    /// Whether the space is empty (never true for a value `enumerate`
    /// returned).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The analytic prediction for `candidate`'s schedule, if its
    /// override is one of this space's entries. Enumeration predicts the
    /// fully optimized backend's program, so `candidate`'s backend knobs
    /// do not change it.
    pub fn estimate_for(&self, candidate: &Candidate) -> Option<u64> {
        self.entries.iter().find(|e| e.ov == candidate.schedule).map(|e| e.est_cycles)
    }

    /// The candidate with the smallest analytic prediction (ties broken
    /// by enumeration order) under the default backend — the greedy seed
    /// for hill-climbing.
    pub fn best_estimated(&self) -> Candidate {
        let entry = self
            .entries
            .iter()
            .min_by_key(|e| e.est_cycles)
            .expect("enumerate never returns an empty space");
        let &(reg_alloc, reorder, memory_order) = &self.backends[0];
        Candidate { schedule: entry.ov, reg_alloc, reorder, memory_order }
    }
}

/// The analytic prediction for `pipeline`'s schedule, or `None` when it
/// is illegal: its inlined expressions would be too large, the compiler
/// rejects it, or the predicted run exceeds the cycle budget.
fn estimate(
    session: &ipim_core::Session,
    pipeline: &Pipeline,
    machine: &MachineConfig,
) -> Option<u64> {
    // Compile-time guard: inlining a deep producer chain (root=output_only
    // on e.g. StencilChain) grows expressions exponentially; bound the size
    // arithmetically before building anything.
    if pipeline.inlined_size_bound() > MAX_INLINED_NODES {
        return None;
    }
    // Compile through the process-wide program cache: enumeration is the
    // cold pass, so the pool workers that later simulate surviving
    // candidates find every program already built.
    let compiled = session.compile(pipeline).ok()?;
    // Rank by the analytic fast-forward model on the very program the
    // workers would simulate, so the rank reflects the lowered SIMB code
    // (see DESIGN.md §11).
    analytic::predict(&compiled.program, machine, ESTIMATE_MAX_CYCLES).ok().map(|r| r.cycles)
}

/// The divisors of `n` in increasing order.
fn divisors(n: u32) -> Vec<u32> {
    (1..=n).filter(|d| n.is_multiple_of(*d)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipim_core::{program_key, workload_by_name, WorkloadScale};

    fn space_for(name: &str) -> ScheduleSpace {
        let w = workload_by_name(name, WorkloadScale { width: 64, height: 64 }).unwrap();
        ScheduleSpace::enumerate(&w, &MachineConfig::vault_slice(1), false).unwrap()
    }

    #[test]
    fn enumeration_is_deterministic_and_nonempty() {
        let a = space_for("Blur");
        let b = space_for("Blur");
        assert!(!a.is_empty());
        assert_eq!(a.entries, b.entries);
        assert_eq!(a.rejected, b.rejected);
    }

    #[test]
    fn entries_have_unique_summaries_and_legal_tiles() {
        let s = space_for("Blur");
        let mut seen = std::collections::HashSet::new();
        for e in &s.entries {
            assert!(seen.insert(e.summary.clone()), "duplicate summary {}", e.summary);
            let (tw, _th) = e.ov.tile.unwrap();
            assert_eq!(tw % 4, 0, "tile width {tw} not a lane multiple");
            assert!(e.est_cycles > 0);
        }
    }

    #[test]
    fn entries_are_distinct_programs_with_their_own_estimates() {
        let w = workload_by_name("Blur", WorkloadScale { width: 64, height: 64 }).unwrap();
        let machine = MachineConfig::vault_slice(1);
        let space = ScheduleSpace::enumerate(&w, &machine, false).unwrap();
        let session = ipim_core::Session::new(machine.clone());
        let mut keys = HashMap::new();
        for e in &space.entries {
            let candidate = w.with_override(&e.ov).unwrap();
            // Cache-bypassing: the estimate must equal a fresh compile and
            // walk of this entry's own override.
            let fresh = session.compile_only(&candidate.pipeline).unwrap();
            let report = analytic::predict(&fresh.program, &machine, ESTIMATE_MAX_CYCLES).unwrap();
            assert_eq!(e.est_cycles, report.cycles, "estimate of {}", e.ov);
            let key = program_key(&candidate.pipeline, session.config(), session.options());
            if let Some(other) = keys.insert(key, e.ov) {
                panic!("{other} and {} compile to one program", e.ov);
            }
        }
    }

    #[test]
    fn backend_cross_product_multiplies_candidates() {
        let w = workload_by_name("Blur", WorkloadScale { width: 64, height: 64 }).unwrap();
        let narrow = ScheduleSpace::enumerate(&w, &MachineConfig::vault_slice(1), false).unwrap();
        let wide = ScheduleSpace::enumerate(&w, &MachineConfig::vault_slice(1), true).unwrap();
        assert_eq!(narrow.entries, wide.entries);
        assert_eq!(wide.len(), narrow.len() * 4);
        // The unsound combination is absent.
        assert!(!wide.backends.iter().any(|&(_, reorder, mo)| reorder && !mo));
    }

    #[test]
    fn distance_counts_knob_differences() {
        let a = Candidate::default_hand();
        let mut b = a.clone();
        assert_eq!(a.distance(&b), 0);
        b.schedule.tile = Some((8, 8));
        assert_eq!(a.distance(&b), 1);
        b.reg_alloc = RegAllocPolicy::Min;
        assert_eq!(a.distance(&b), 2);
    }
}
