//! End-to-end Halide-to-SIMB compilation flow for iPIM (paper Sec. V).
//!
//! [`compile`] takes a frontend [`Pipeline`] plus a
//! machine configuration and produces a [`CompiledPipeline`]: one SPMD SIMB
//! [`Program`] every vault executes, plus the
//! [`MemoryMap`] describing where each buffer lives in the banks.
//!
//! The flow mirrors Fig. 4 of the paper:
//!
//! 1. **Memory planning** — the output stage's `ipim_tile` schedule fixes
//!    the tile grid; buffers are distributed with overlap halos or
//!    replicated (dynamic gathers); see [`layout`].
//! 2. **Instruction lowering** — each `compute_root` stage lowers to loops
//!    of SIMB instructions with virtual data registers; histogram
//!    reductions get a specialized multi-phase lowering.
//! 3. **Backend optimizations** ([`CompileOptions`], paper Sec. V-C):
//!    register allocation (min/max policies, with DRAM spilling),
//!    memory-order enforcement, and Algorithm 1 instruction reordering.
//!
//! The five compiler configurations evaluated in the paper's Fig. 12 are
//! exposed as constructors: [`CompileOptions::opt`] and
//! [`CompileOptions::baseline1`]–[`baseline4`](CompileOptions::baseline4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codegen;
mod histogram;
pub mod host;
pub mod kb;
pub mod layout;
pub mod regalloc;
pub mod reorder;
mod stagecache;

use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

use ipim_arch::MachineConfig;
use ipim_frontend::{Expr, FuncBody, FuncDef, Pipeline, SourceId};
use ipim_isa::Program;

use codegen::{pinned_dregs, MachineFacts, StageCtx};
pub use layout::{BufferLayout, LayoutError, MemoryMap, TileGrid};
pub use regalloc::{RegAllocError, RegAllocPolicy};
pub use stagecache::{fnv1a, stage_cache_stats};

/// Backend optimization switches (the Fig. 12 configuration space).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Register-allocation policy.
    pub reg_alloc: RegAllocPolicy,
    /// Run Algorithm 1 instruction reordering.
    pub reorder: bool,
    /// Add memory-order-enforcement edges before reordering.
    pub memory_order: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self::opt()
    }
}

impl CompileOptions {
    /// The fully optimized configuration (`opt` in Fig. 12).
    pub fn opt() -> Self {
        Self { reg_alloc: RegAllocPolicy::Max, reorder: true, memory_order: true }
    }

    /// Naive baseline: min register allocation, no reordering.
    pub fn baseline1() -> Self {
        Self { reg_alloc: RegAllocPolicy::Min, reorder: false, memory_order: false }
    }

    /// Like `opt` but with min register allocation.
    pub fn baseline2() -> Self {
        Self { reg_alloc: RegAllocPolicy::Min, reorder: true, memory_order: true }
    }

    /// Like `opt` but without instruction reordering.
    pub fn baseline3() -> Self {
        Self { reg_alloc: RegAllocPolicy::Max, reorder: false, memory_order: true }
    }

    /// Like `opt` but without memory-order enforcement.
    pub fn baseline4() -> Self {
        Self { reg_alloc: RegAllocPolicy::Max, reorder: true, memory_order: false }
    }
}

/// Error produced by compilation.
#[derive(Debug)]
pub enum CompileError {
    /// Memory planning failed.
    Layout(LayoutError),
    /// Register allocation failed.
    RegAlloc(RegAllocError),
    /// Final program assembly failed (a compiler bug).
    Program(ipim_isa::ProgramError),
    /// The pipeline uses a feature outside the supported subset.
    Unsupported {
        /// Description of the unsupported construct.
        what: String,
    },
    /// A per-stage resource limit was exceeded.
    TooComplex {
        /// Description of the exceeded limit.
        what: String,
    },
    /// Spill space would overflow the bank.
    SpillOverflow {
        /// Bytes needed beyond capacity.
        needed: u32,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Layout(e) => write!(f, "layout: {e}"),
            CompileError::RegAlloc(e) => write!(f, "register allocation: {e}"),
            CompileError::Program(e) => write!(f, "program assembly: {e}"),
            CompileError::Unsupported { what } => write!(f, "unsupported: {what}"),
            CompileError::TooComplex { what } => write!(f, "stage too complex: {what}"),
            CompileError::SpillOverflow { needed } => {
                write!(f, "spill space exceeds bank capacity by {needed} bytes")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<LayoutError> for CompileError {
    fn from(e: LayoutError) -> Self {
        CompileError::Layout(e)
    }
}

impl From<RegAllocError> for CompileError {
    fn from(e: RegAllocError) -> Self {
        CompileError::RegAlloc(e)
    }
}

impl From<ipim_isa::ProgramError> for CompileError {
    fn from(e: ipim_isa::ProgramError) -> Self {
        CompileError::Program(e)
    }
}

/// A compiled pipeline: the SPMD program plus its memory map.
#[derive(Debug, Clone)]
pub struct CompiledPipeline {
    /// The program every vault executes.
    pub program: Program,
    /// Where each buffer lives in the banks.
    pub map: MemoryMap,
    /// Register-spill slots the allocator needed (0 under ample RF).
    pub spill_slots: u32,
    /// Static instruction count.
    pub static_instructions: usize,
}

/// Compiles `pipeline` for the machine described by `config`.
///
/// # Errors
///
/// Returns [`CompileError`] when the pipeline falls outside the supported
/// subset (see the error variants) or exceeds machine resources.
pub fn compile(
    pipeline: &Pipeline,
    config: &MachineConfig,
    options: &CompileOptions,
) -> Result<CompiledPipeline, CompileError> {
    let total_pes = config.total_pes() as u32;
    let map = MemoryMap::plan(pipeline, total_pes, config.bank.bank_bytes)?;
    let roots = pipeline.root_stages();

    // Scratch allocation: histogram partials first, then spill slots.
    let mut scratch = map.free_base;
    let mut hist_scratch: HashMap<ipim_frontend::SourceId, u32> = HashMap::new();
    for stage in &roots {
        if let Some(FuncBody::Histogram { bins, .. }) = &stage.body {
            hist_scratch.insert(stage.source, scratch);
            scratch += histogram::scratch_bytes(*bins);
        }
    }
    let spill_base = scratch;

    let facts = MachineFacts {
        total_pes,
        pes_per_vault: config.pes_per_vault() as u32,
        data_rf: config.data_rf_entries as u32,
        pes_per_pg: config.pes_per_pg as u32,
        vaults_per_cube: config.vaults_per_cube as u32,
        pgsm_bytes: config.pgsm_bytes,
        addr_rf: config.addr_rf_entries as u32,
    };

    // Lower each root stage into its own label-self-contained item list,
    // memoized process-wide: the stage key captures everything the lowering
    // reads (see `stage_key`), so sibling schedule candidates and repeated
    // compilations of the same pipeline re-lower only stages whose inputs
    // actually changed. Lists are spliced with labels rebased, which yields
    // exactly the item stream a single shared builder would have produced.
    let mut items: Vec<kb::Item> = Vec::new();
    let mut label_base = 0u32;
    let mut sync_phase = 0u32;
    let total_vaults = config.total_vaults() as u32;
    for stage in &roots {
        let key = stage_key(
            pipeline,
            stage,
            &map,
            facts,
            options.reg_alloc,
            hist_scratch.get(&stage.source).copied(),
            total_vaults,
            sync_phase,
        );
        let lowered = match stagecache::lookup(key) {
            Some(hit) => hit,
            None => {
                let mut kbuilder = kb::KernelBuilder::new();
                let mut phase = sync_phase;
                {
                    let mut ctx =
                        StageCtx::new(&mut kbuilder, pipeline, &map, facts, options.reg_alloc);
                    ctx.emit_setup();
                    match stage.body.as_ref().expect("validated pipeline") {
                        FuncBody::Pure(e) => {
                            ctx.hoist_constants(e)?;
                            codegen::emit_pure_stage(&mut ctx, stage, e)?;
                        }
                        FuncBody::Histogram { source, bins, min, max } => {
                            histogram::emit_histogram_stage(
                                &mut ctx,
                                stage.source,
                                *source,
                                *bins,
                                *min,
                                *max,
                                hist_scratch[&stage.source],
                                total_vaults,
                                &mut phase,
                            )?;
                        }
                    }
                }
                let labels = kbuilder.labels_used();
                let lowered = stagecache::LoweredStage {
                    items: kbuilder.finish(),
                    labels,
                    sync_phase_after: phase,
                };
                stagecache::insert(key, lowered.clone());
                lowered
            }
        };
        items.extend(kb::offset_labels(&lowered.items, label_base));
        label_base += lowered.labels;
        sync_phase = lowered.sync_phase_after;
    }
    let spill_slots = regalloc::allocate(
        &mut items,
        pinned_dregs(config.data_rf_entries as u32),
        config.data_rf_entries,
        spill_base,
        options.reg_alloc,
    )?;
    let spill_end = spill_base + spill_slots * 16;
    if spill_end > config.bank.bank_bytes {
        return Err(CompileError::SpillOverflow { needed: spill_end - config.bank.bank_bytes });
    }
    if options.reorder {
        reorder::reorder(&mut items, options.memory_order);
    }
    let program = kb::lower(&items)?;
    let static_instructions = program.len();
    Ok(CompiledPipeline { program, map, spill_slots, static_instructions })
}

/// Content-addressed key of one stage's lowering: an FNV-1a hash over a
/// canonical rendering of *every* input the per-stage codegen reads.
///
/// That is: the stage itself (source id, extent, body, and schedule —
/// `Schedule::summary`), the logical extent and planned layout of every
/// buffer the body references, the stage's own layout, the tile grid, the
/// machine facts, the register-allocation policy, and — for histogram
/// stages — the scratch base, the vault count and the incoming sync phase.
/// Func *names* are deliberately absent: they only ever reach error
/// messages, and errors are never cached.
#[allow(clippy::too_many_arguments)]
fn stage_key(
    pipeline: &Pipeline,
    stage: &FuncDef,
    map: &MemoryMap,
    facts: MachineFacts,
    reg_alloc: RegAllocPolicy,
    hist_scratch: Option<u32>,
    total_vaults: u32,
    sync_phase: u32,
) -> u64 {
    let mut key = String::new();
    let _ = write!(
        key,
        "stage {}={}x{}[{}]{{{}}};",
        stage.source,
        stage.extent.0,
        stage.extent.1,
        stage.schedule.summary(),
        stage.body_summary(),
    );
    let mut sources: Vec<SourceId> = match stage.body.as_ref().expect("validated pipeline") {
        FuncBody::Pure(e) => e.sources(),
        FuncBody::Histogram { source, .. } => vec![*source],
    };
    sources.push(stage.source);
    sources.sort_unstable();
    sources.dedup();
    for s in sources {
        let (w, h) = pipeline.extent(s);
        let _ = write!(key, "buf {s}={w}x{h}:{:?};", map.layout(s));
    }
    let _ = write!(
        key,
        "grid {:?};facts {facts:?};reg_alloc {reg_alloc:?};\
         hist {hist_scratch:?}/{total_vaults};phase {sync_phase}",
        map.grid,
    );
    fnv1a(key.as_bytes())
}

impl StageCtx<'_> {
    /// Hoists the expression's f32 constants into pinned registers inside a
    /// setup region, so loop bodies reuse them.
    pub(crate) fn hoist_constants(&mut self, expr: &Expr) -> Result<(), CompileError> {
        let mut consts = Vec::new();
        collect_consts(expr, &mut consts);
        if consts.is_empty() {
            return Ok(());
        }
        self.kb.begin_straight();
        for c in consts.into_iter().take(9) {
            let _ = self.const_reg(c)?;
        }
        self.kb.end_straight();
        Ok(())
    }
}

fn collect_consts(e: &Expr, out: &mut Vec<f32>) {
    match e {
        Expr::ConstF(c) => {
            if !out.iter().any(|v| v.to_bits() == c.to_bits()) {
                out.push(*c);
            }
        }
        Expr::ConstI(_) | Expr::Var(_) => {}
        Expr::At(_, a, b) | Expr::Bin(_, a, b) => {
            collect_consts(a, out);
            collect_consts(b, out);
        }
        Expr::Cast(_, inner) => collect_consts(inner, out),
        Expr::Select(c, a, b) => {
            collect_consts(c, out);
            collect_consts(a, out);
            collect_consts(b, out);
        }
    }
}
