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

use std::collections::HashMap;
use std::fmt;

use ipim_arch::MachineConfig;
use ipim_frontend::{Expr, FuncBody, Pipeline};
use ipim_isa::Program;

use codegen::{pinned_dregs, MachineFacts, StageCtx};
pub use layout::{BufferLayout, LayoutError, MemoryMap, TileGrid};
pub use regalloc::{RegAllocError, RegAllocPolicy};

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

    // Lower every root stage into one item stream; the backend passes below
    // then run over the whole program.
    let mut kbuilder = kb::KernelBuilder::new();
    let mut sync_phase = 0u32;
    let total_vaults = config.total_vaults() as u32;
    for stage in &roots {
        let mut ctx = StageCtx::new(&mut kbuilder, pipeline, &map, facts, options.reg_alloc);
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
                    &mut sync_phase,
                )?;
            }
        }
    }
    let mut items = kbuilder.finish();
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

/// 64-bit FNV-1a: stable across platforms and processes, so it keys the
/// program cache, serve's request fingerprints and output hashes, and the
/// pinned program digests alike.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
