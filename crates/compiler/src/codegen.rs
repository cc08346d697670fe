//! Lowering of pure (map/stencil/resample/gather) stages to SIMB code.
//!
//! Every vault runs the same program (SPMD); a PE finds its tiles through
//! the identity registers A0–A3. Per stage, the generated structure is:
//!
//! ```text
//! setup:   pe_linear, pinned constants
//! slot loop (CtrlRF counter + AddrRF mirror):
//!   tile-id / slot-base index calculations        (straight region)
//!   optional PGSM staging of each input's tile+halo window
//!   row loop:
//!     per-access row-base index calculations      (straight region)
//!     column loop (vectorized by 4):
//!       loads → expression DAG → store            (straight region)
//! ```
//!
//! Inner-loop bodies are emitted with *virtual* data registers for the
//! register-allocation pass, and every memory instruction carries its
//! [`MemTag`] for the dependency/reordering passes.

use std::collections::{BTreeMap, HashMap};

use ipim_frontend::{
    analyze_coord, AffineCoord, Expr, FuncDef, Pipeline, ScalarType, SourceId, Var,
};
use ipim_isa::{
    AddrOperand, AddrReg, ArfOp, ArfSrc, CompMode, CompOp, CrfOp, CrfSrc, CtrlReg, DataReg,
    DataType, Instruction, SimbMask, VecMask, ARF_CHIP_ID, ARF_PE_ID, ARF_PG_ID, ARF_VAULT_ID,
};

use crate::kb::{KernelBuilder, MemTag};
use crate::layout::{BufferLayout, MemoryMap};
use crate::regalloc::RegAllocPolicy;
use crate::CompileError;

// Fixed AddrRF roles (physical allocation by the compiler).
const A_PE_LINEAR: u8 = 4;
const A_SLOT: u8 = 5;
const A_TILE: u8 = 6;
const A_TX: u8 = 7;
const A_TY: u8 = 8;
const A_XI_EL: u8 = 9; // output stored-x minus halo (logical x within tile)
const A_XI_BY: u8 = 10; // stored-x in bytes (aligned store offset)
const A_YI: u8 = 11; // stored-y row counter
const A_PGSM_BASE: u8 = 12; // this PE's PGSM partition base
/// First AddrRF register available for per-stage bases and temps.
const A_POOL: u8 = 13;

// Fixed CtrlRF roles.
const C_SLOT: u8 = 0;
const C_Y: u8 = 1;
const C_X: u8 = 2;
const C_TMP: u8 = 3;

// Pinned DataRF registers.
/// All-lanes zero.
pub const D_ZERO: u8 = 0;
/// All-lanes 1.0f.
pub const D_ONE: u8 = 1;
/// Integer lane-index vector [0, 1, 2, 3].
pub const D_LANES: u8 = 2;
const D_CONST0: u8 = 3;
/// Default first virtual data register (the register-allocation boundary);
/// small register files shrink it via [`pinned_dregs`].
pub const PINNED_DREGS: u8 = 12;

/// The pinned-register boundary for a given DataRF size: small files keep
/// only the three structural constants pinned so the allocator retains
/// enough temporaries (the Fig. 10(a) sweep reaches 16 entries).
pub fn pinned_dregs(data_rf_entries: u32) -> u8 {
    if data_rf_entries >= 24 {
        PINNED_DREGS
    } else {
        4
    }
}

fn areg(i: u8) -> AddrReg {
    AddrReg::new(i)
}

fn creg(i: u8) -> CtrlReg {
    CtrlReg::new(i)
}

fn dreg(i: u8) -> DataReg {
    DataReg::new(i)
}

/// Per-compilation machine facts the codegen needs.
#[derive(Debug, Clone, Copy)]
pub struct MachineFacts {
    /// Total PEs across the machine.
    pub total_pes: u32,
    /// PEs per vault (SIMB width).
    pub pes_per_vault: u32,
    /// DataRF entries per PE.
    pub data_rf: u32,
    /// PEs per process group.
    pub pes_per_pg: u32,
    /// Vaults per cube.
    pub vaults_per_cube: u32,
    /// PGSM bytes per process group.
    pub pgsm_bytes: u32,
    /// AddrRF entries.
    pub addr_rf: u32,
}

/// Codegen context for one stage.
pub(crate) struct StageCtx<'a> {
    pub kb: &'a mut KernelBuilder,
    pub pipeline: &'a Pipeline,
    pub map: &'a MemoryMap,
    pub facts: MachineFacts,
    pub mask: SimbMask,
    /// Next virtual data register.
    next_vreg: u16,
    /// Next pool AddrRF register (bump within stage; rotated for temps).
    next_areg: u8,
    arf_temp_pool: Vec<u8>,
    arf_temp_next: usize,
    /// Register-allocation policy, also applied to AddrRF temporaries.
    arf_policy: RegAllocPolicy,
    /// Element offset of the current unrolled body instance in x.
    x_off_elems: i32,
    /// First virtual data register (depends on the DataRF size).
    pinned: u8,
    /// Hoisted f32 constants → pinned register.
    consts: HashMap<u32, u8>,
    /// Per-(source, fy-signature, staged) row-base register, valid within one row.
    row_bases: HashMap<RowKey, u8>,
    /// Which sources are staged in the PGSM this stage.
    pub staged: Vec<SourceId>,
    /// PGSM offset of each staged source within the PE partition.
    pub pgsm_offsets: HashMap<SourceId, u32>,
    /// Staging mode per staged source.
    pub(crate) staging_modes: HashMap<SourceId, StagingMode>,
}

impl<'a> StageCtx<'a> {
    pub fn new(
        kb: &'a mut KernelBuilder,
        pipeline: &'a Pipeline,
        map: &'a MemoryMap,
        facts: MachineFacts,
        arf_policy: RegAllocPolicy,
    ) -> Self {
        Self {
            kb,
            pipeline,
            map,
            facts,
            mask: SimbMask::all(facts.pes_per_vault as usize),
            pinned: pinned_dregs(facts.data_rf),
            next_vreg: pinned_dregs(facts.data_rf) as u16,
            next_areg: A_POOL,
            arf_temp_pool: Vec::new(),
            arf_temp_next: 0,
            arf_policy,
            x_off_elems: 0,
            consts: HashMap::new(),
            row_bases: HashMap::new(),
            staged: Vec::new(),
            pgsm_offsets: HashMap::new(),
            staging_modes: HashMap::new(),
        }
    }

    /// Fresh virtual data register.
    pub(crate) fn vreg(&mut self) -> Result<u8, CompileError> {
        if self.next_vreg > 250 {
            return Err(CompileError::TooComplex {
                what: "inner-loop body exceeds the virtual register space".into(),
            });
        }
        let v = self.next_vreg as u8;
        self.next_vreg += 1;
        Ok(v)
    }

    /// Resets per-iteration virtual register numbering (regions are
    /// independent allocation domains).
    pub(crate) fn reset_vregs(&mut self) {
        self.next_vreg = self.pinned as u16;
    }

    /// Permanently claims a pool AddrRF register for this stage.
    pub(crate) fn claim_areg(&mut self, what: &str) -> Result<u8, CompileError> {
        let limit = match self.arf_temp_pool.first() {
            Some(&lo) => lo as u32,
            None => self.facts.addr_rf,
        };
        if (self.next_areg as u32) >= limit {
            return Err(CompileError::TooComplex {
                what: format!("out of address registers while allocating {what}"),
            });
        }
        let a = self.next_areg;
        self.next_areg += 1;
        Ok(a)
    }

    /// An AddrRF temporary: under the `Max` policy temps rotate over the
    /// top half of the file (maximal reuse distance, no anti-dependences
    /// against in-flight address consumers); under `Min` a single register
    /// is reused immediately — the textbook minimal allocation that stalls
    /// iPIM's in-order issue on every in-flight load (paper Sec. V-C).
    pub(crate) fn arf_temp(&mut self) -> Result<u8, CompileError> {
        if self.arf_temp_pool.is_empty() {
            let hi = self.facts.addr_rf as u8;
            let lo = match self.arf_policy {
                RegAllocPolicy::Max => (self.facts.addr_rf as u8 / 2).max(A_POOL + 8),
                RegAllocPolicy::Min => hi.saturating_sub(2),
            };
            if lo <= self.next_areg || lo >= hi {
                return Err(CompileError::TooComplex {
                    what: "out of address registers for temporaries".into(),
                });
            }
            self.arf_temp_pool = (lo..hi).collect();
        }
        let a = self.arf_temp_pool[self.arf_temp_next % self.arf_temp_pool.len()];
        self.arf_temp_next += 1;
        Ok(a)
    }

    // --- small emission helpers ---

    pub(crate) fn calc_masked(
        &mut self,
        op: ArfOp,
        dst: u8,
        src1: u8,
        src2: ArfSrc,
        mask: SimbMask,
    ) {
        self.kb.push(Instruction::CalcArf {
            op,
            dst: areg(dst),
            src1: areg(src1),
            src2,
            simb_mask: mask,
        });
    }

    pub(crate) fn calc(&mut self, op: ArfOp, dst: u8, src1: u8, src2: ArfSrc) {
        self.kb.push(Instruction::CalcArf {
            op,
            dst: areg(dst),
            src1: areg(src1),
            src2,
            simb_mask: self.mask,
        });
    }

    /// Sets an AddrRF register to an immediate (via ×0 then +imm).
    pub(crate) fn arf_seti(&mut self, dst: u8, v: i32) {
        self.calc(ArfOp::Mul, dst, dst, ArfSrc::Imm(0));
        if v != 0 {
            self.calc(ArfOp::Add, dst, dst, ArfSrc::Imm(v));
        }
    }

    pub(crate) fn comp(
        &mut self,
        op: CompOp,
        dtype: DataType,
        mode: CompMode,
        dst: u8,
        s1: u8,
        s2: u8,
    ) {
        self.kb.push(Instruction::Comp {
            op,
            dtype,
            mode,
            dst: dreg(dst),
            src1: dreg(s1),
            src2: dreg(s2),
            vec_mask: VecMask::ALL,
            simb_mask: self.mask,
        });
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn comp_masked(
        &mut self,
        op: CompOp,
        dtype: DataType,
        mode: CompMode,
        dst: u8,
        s1: u8,
        s2: u8,
        vec_mask: VecMask,
    ) {
        self.kb.push(Instruction::Comp {
            op,
            dtype,
            mode,
            dst: dreg(dst),
            src1: dreg(s1),
            src2: dreg(s2),
            vec_mask,
            simb_mask: self.mask,
        });
    }

    pub(crate) fn seti_drf(&mut self, dst: u8, bits: u32) {
        self.kb.push(Instruction::SetiDrf {
            drf: dreg(dst),
            imm: bits,
            vec_mask: VecMask::ALL,
            simb_mask: self.mask,
        });
    }

    /// The pinned register holding `c`, or a fresh virtual `seti`.
    pub(crate) fn const_reg(&mut self, c: f32) -> Result<u8, CompileError> {
        let bits = c.to_bits();
        if let Some(&r) = self.consts.get(&bits) {
            return Ok(r);
        }
        let next = D_CONST0 + self.consts.len() as u8;
        if next < self.pinned {
            self.consts.insert(bits, next);
            self.seti_drf(next, bits);
            Ok(next)
        } else {
            let v = self.vreg()?;
            self.seti_drf(v, bits);
            Ok(v)
        }
    }

    /// Emits the one-time per-stage setup: pe_linear, pinned constants.
    pub fn emit_setup(&mut self) {
        self.kb.begin_straight();
        // pe_linear = ((chip * vaults_per_cube) + vault) * pes_per_vault
        //             + pg * pes_per_pg + pe
        let m = self.facts;
        self.kb.push(Instruction::CalcArf {
            op: ArfOp::Mul,
            dst: areg(A_PE_LINEAR),
            src1: ARF_CHIP_ID,
            src2: ArfSrc::Imm(m.vaults_per_cube as i32),
            simb_mask: self.mask,
        });
        self.kb.push(Instruction::CalcArf {
            op: ArfOp::Add,
            dst: areg(A_PE_LINEAR),
            src1: areg(A_PE_LINEAR),
            src2: ArfSrc::Reg(ARF_VAULT_ID),
            simb_mask: self.mask,
        });
        self.calc(ArfOp::Mul, A_PE_LINEAR, A_PE_LINEAR, ArfSrc::Imm(m.pes_per_vault as i32));
        let t = A_TILE; // reuse as scratch during setup
        self.kb.push(Instruction::CalcArf {
            op: ArfOp::Mul,
            dst: areg(t),
            src1: ARF_PG_ID,
            src2: ArfSrc::Imm(m.pes_per_pg as i32),
            simb_mask: self.mask,
        });
        self.calc(ArfOp::Add, A_PE_LINEAR, A_PE_LINEAR, ArfSrc::Reg(areg(t)));
        self.kb.push(Instruction::CalcArf {
            op: ArfOp::Add,
            dst: areg(A_PE_LINEAR),
            src1: areg(A_PE_LINEAR),
            src2: ArfSrc::Reg(ARF_PE_ID),
            simb_mask: self.mask,
        });
        // This PE's PGSM partition base.
        let share = m.pgsm_bytes / m.pes_per_pg;
        self.kb.push(Instruction::CalcArf {
            op: ArfOp::Mul,
            dst: areg(A_PGSM_BASE),
            src1: ARF_PE_ID,
            src2: ArfSrc::Imm(share as i32),
            simb_mask: self.mask,
        });
        // Pinned data registers.
        self.kb.push(Instruction::Reset { drf: dreg(D_ZERO), simb_mask: self.mask });
        self.seti_drf(D_ONE, 1.0f32.to_bits());
        for l in 0..4u8 {
            self.kb.push(Instruction::SetiDrf {
                drf: dreg(D_LANES),
                imm: l as u32,
                vec_mask: VecMask::from_bits(1 << l),
                simb_mask: self.mask,
            });
        }
        self.kb.end_straight();
    }
}

/// Lowered classification of one access inside the loop body.
#[derive(Debug, Clone)]
enum AccessLowering {
    /// Aligned unit-stride vector load from the bank (the x byte offset
    /// is folded into the row base).
    BankVector { base_key: RowKey, source: SourceId },
    /// (Possibly unaligned) unit-stride vector load from the PGSM.
    PgsmVector { base_key: RowKey, source: SourceId },
    /// Per-lane gather from the PGSM (affine non-unit x).
    PgsmPerLane {
        base_key: RowKey,
        source: SourceId,
        num: i32,
        off: i32,
        den: i32,
        halo_bytesless: i32, // stored-halo in elements to add post-division
    },
    /// Per-lane gather from a replicated buffer (dynamic index).
    ReplicatedGather { source: SourceId, index: Expr },
}

/// Identifies a per-row base-address computation so equal rows are reused:
/// (source, y-num, y-off, y-den, goes-through-PGSM, folded x byte offset).
type RowKey = (SourceId, i64, i64, i64, bool, i32);

/// How a source is staged into the PGSM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StagingMode {
    /// The whole stored tile is staged once per slot.
    WholeTile,
    /// Only the rows the current output row needs are staged in the row
    /// loop header (line-buffer style, for tiles larger than the PGSM
    /// share). The window starts at source stored row
    /// `ny·(yi − out_halo_y) + oy_min + src_halo_y` and spans `rows` rows;
    /// legal whenever every access has integer y scale (`dy == 1`).
    RowWindow {
        /// Common y scale of the accesses.
        ny: i32,
        /// Smallest access y offset.
        oy_min: i32,
        /// Number of rows staged.
        rows: u32,
    },
}

/// Compiles one pure stage into the kernel builder.
pub(crate) fn emit_pure_stage(
    ctx: &mut StageCtx<'_>,
    stage: &FuncDef,
    expr: &Expr,
) -> Result<(), CompileError> {
    let out_src = stage.source;
    let out_layout = ctx.map.layout(out_src).clone();
    let BufferLayout::Distributed {
        halo: (ohx, ohy),
        stored_w: osw,
        stored_h: osh,
        slot_bytes: oslot,
        base: obase,
        tile: (otw, _oth),
    } = out_layout
    else {
        return Err(CompileError::Unsupported {
            what: format!("stage `{}` writes a replicated buffer", stage.name),
        });
    };

    let grid = ctx.map.grid;
    if !grid.tiles().is_multiple_of(ctx.facts.total_pes) {
        return Err(CompileError::Unsupported {
            what: format!(
                "{} tiles do not divide evenly over {} PEs (static SIMB masks)",
                grid.tiles(),
                ctx.facts.total_pes
            ),
        });
    }
    let slots = grid.slots_per_pe();

    // --- plan accesses ---
    let plan = plan_accesses(ctx, stage, expr, (ohx, ohy))?;

    // Decide PGSM staging set, modes and offsets. Tiles that fit the PE's
    // PGSM share stage whole; larger ones fall back to line-buffer-style
    // row windows (only legal when every access has unit y scale).
    let share = ctx.facts.pgsm_bytes / ctx.facts.pes_per_pg;
    // Every PGSM port moves a full 16-byte vector, so a per-lane gather of
    // a region's last element — and the staging loop's final store on a
    // row width that is not vector-aligned — touches up to 12 bytes past
    // the region's end. Pad each staged allocation by that window so the
    // overrun lands in this PE's own share rather than the neighbouring
    // partition (or, on the last PE, off the scratchpad entirely).
    const STAGE_PAD: u32 = 12;
    let mut pgsm_cursor = 0u32;
    for s in &plan.staged_sources {
        let BufferLayout::Distributed { stored_w, stored_h, .. } = *ctx.map.layout(*s) else {
            unreachable!("staged sources are distributed");
        };
        let whole_bytes = stored_w * stored_h * 4;
        let (mode, bytes) = if pgsm_cursor + whole_bytes + STAGE_PAD <= share {
            (StagingMode::WholeTile, whole_bytes + STAGE_PAD)
        } else {
            // Collect the y-offsets of this source's staged accesses; the
            // fallback needs an integer common y scale (dy == 1).
            let mut oy_min = i32::MAX;
            let mut oy_max = i32::MIN;
            let mut common_ny: Option<i32> = None;
            let mut legal = true;
            for acc in &plan.accesses {
                let key = match &acc.lowering {
                    AccessLowering::PgsmVector { base_key, .. }
                    | AccessLowering::PgsmPerLane { base_key, .. } => *base_key,
                    _ => continue,
                };
                if key.0 != *s {
                    continue;
                }
                if key.3 != 1 || common_ny.is_some_and(|n| n != key.1 as i32) {
                    legal = false;
                    break;
                }
                common_ny = Some(key.1 as i32);
                oy_min = oy_min.min(key.2 as i32);
                oy_max = oy_max.max(key.2 as i32);
            }
            let Some(ny) = common_ny.filter(|_| legal && oy_min <= oy_max) else {
                return Err(CompileError::Unsupported {
                    what: format!(
                        "PGSM staging of `{}` needs {whole_bytes} bytes (share {share}) and \
                         the row-window fallback requires a common integer y scale",
                        ctx.map.names[s]
                    ),
                });
            };
            let rows = (oy_max - oy_min + 1) as u32;
            let bytes = rows * stored_w * 4 + STAGE_PAD;
            if pgsm_cursor + bytes > share {
                return Err(CompileError::Unsupported {
                    what: format!(
                        "row-window staging of `{}` needs {bytes} bytes, share is {share}",
                        ctx.map.names[s]
                    ),
                });
            }
            (StagingMode::RowWindow { ny, oy_min, rows }, bytes)
        };
        ctx.staging_modes.insert(*s, mode);
        ctx.pgsm_offsets.insert(*s, pgsm_cursor);
        pgsm_cursor += bytes;
    }
    ctx.staged = plan.staged_sources.clone();

    // --- per-buffer slot base registers ---
    // Ordered by source, so the slot-base calculations below are emitted
    // in the same order in every process.
    let mut slot_base: BTreeMap<SourceId, u8> = BTreeMap::new();
    for s in plan.sources.iter().copied().chain(std::iter::once(out_src)) {
        if slot_base.contains_key(&s) {
            continue;
        }
        if matches!(ctx.map.layout(s), BufferLayout::Distributed { .. }) {
            slot_base.insert(s, ctx.claim_areg("slot base")?);
        }
    }

    // === slot loop ===
    ctx.kb.push(Instruction::SetiCrf { dst: creg(C_SLOT), imm: 0 });
    ctx.kb.begin_straight();
    ctx.arf_seti(A_SLOT, 0);
    ctx.kb.end_straight();
    let slot_top = ctx.kb.label();
    ctx.kb.bind(slot_top);

    // Tile indices and slot bases.
    ctx.kb.begin_straight();
    ctx.calc(ArfOp::Mul, A_TILE, A_SLOT, ArfSrc::Imm(ctx.facts.total_pes as i32));
    ctx.calc(ArfOp::Add, A_TILE, A_TILE, ArfSrc::Reg(areg(A_PE_LINEAR)));
    ctx.calc(ArfOp::Rem, A_TX, A_TILE, ArfSrc::Imm(grid.tiles_x as i32));
    ctx.calc(ArfOp::Div, A_TY, A_TILE, ArfSrc::Imm(grid.tiles_x as i32));
    for (s, reg) in &slot_base {
        let BufferLayout::Distributed { base, slot_bytes, .. } = ctx.map.layout(*s) else {
            unreachable!()
        };
        let (reg, base, slot_bytes) = (*reg, *base, *slot_bytes);
        ctx.calc(ArfOp::Mul, reg, A_SLOT, ArfSrc::Imm(slot_bytes as i32));
        ctx.calc(ArfOp::Add, reg, reg, ArfSrc::Imm(base as i32));
    }
    ctx.kb.end_straight();

    // PGSM staging: whole-tile sources stage once per slot here;
    // row-window sources stage in the row-loop header below.
    for s in &plan.staged_sources.clone() {
        if ctx.staging_modes[s] != StagingMode::WholeTile {
            continue;
        }
        let BufferLayout::Distributed { stored_w, stored_h, .. } = *ctx.map.layout(*s) else {
            unreachable!()
        };
        let bank_base = slot_base[s];
        let pgsm_off = ctx.pgsm_offsets[s];
        emit_staging(ctx, *s, bank_base, pgsm_off, stored_w, stored_h)?;
    }

    // === row loop over stored output rows ===
    ctx.kb.push(Instruction::SetiCrf { dst: creg(C_Y), imm: 0 });
    ctx.kb.begin_straight();
    ctx.arf_seti(A_YI, 0);
    ctx.kb.end_straight();
    let y_top = ctx.kb.label();
    ctx.kb.bind(y_top);

    // Row bases for every distinct (source, fy) pair plus the output row.
    ctx.row_bases.clear();
    ctx.kb.begin_straight();
    let a_out_row = ctx.claim_areg("output row")?;
    // out row addr = out_slot_base + yi * osw * 4
    ctx.calc(ArfOp::Mul, a_out_row, A_YI, ArfSrc::Imm((osw * 4) as i32));
    ctx.calc(ArfOp::Add, a_out_row, a_out_row, ArfSrc::Reg(areg(slot_base[&out_src])));
    let _ = obase;
    // Row-window staging: pull the rows this output row needs.
    for s in &plan.staged_sources.clone() {
        let StagingMode::RowWindow { ny, oy_min, rows } = ctx.staging_modes[s] else {
            continue;
        };
        let BufferLayout::Distributed { stored_w, halo: src_halo, .. } = *ctx.map.layout(*s) else {
            unreachable!()
        };
        let bank_base = slot_base[s];
        let pgsm_off = ctx.pgsm_offsets[s];
        let a_win = ctx.claim_areg("row-window bank base")?;
        // Window start stored row: ny·(yi − out_halo_y) + oy_min + src_hy.
        ctx.calc(ArfOp::Add, a_win, A_YI, ArfSrc::Imm(-(ohy as i32)));
        if ny != 1 {
            ctx.calc(ArfOp::Mul, a_win, a_win, ArfSrc::Imm(ny));
        }
        ctx.calc(ArfOp::Add, a_win, a_win, ArfSrc::Imm(oy_min + src_halo.1 as i32));
        ctx.calc(ArfOp::Mul, a_win, a_win, ArfSrc::Imm((stored_w * 4) as i32));
        ctx.calc(ArfOp::Add, a_win, a_win, ArfSrc::Reg(areg(bank_base)));
        let a_dst = ctx.claim_areg("row-window pgsm base")?;
        ctx.calc(ArfOp::Add, a_dst, A_PGSM_BASE, ArfSrc::Imm(pgsm_off as i32));
        for v in 0..rows * (stored_w / 4) {
            let off = (v * 16) as i32;
            let a_b = ctx.arf_temp()?;
            let a_t = ctx.arf_temp()?;
            ctx.calc(ArfOp::Add, a_b, a_win, ArfSrc::Imm(off));
            ctx.calc(ArfOp::Add, a_t, a_dst, ArfSrc::Imm(off));
            ctx.kb.push_mem(
                Instruction::LdPgsm {
                    dram_addr: AddrOperand::Indirect(areg(a_b)),
                    pgsm_addr: AddrOperand::Indirect(areg(a_t)),
                    simb_mask: ctx.mask,
                },
                MemTag::PgsmStage(*s),
            );
        }
    }
    for acc in &plan.accesses {
        emit_row_base(ctx, acc, &slot_base, ohy)?;
    }
    ctx.kb.end_straight();

    // === column loop ===
    ctx.kb.push(Instruction::SetiCrf { dst: creg(C_X), imm: 0 });
    ctx.kb.begin_straight();
    ctx.arf_seti(A_XI_EL, -(ohx as i32));
    ctx.arf_seti(A_XI_BY, 0);
    ctx.kb.end_straight();
    let x_top = ctx.kb.label();
    ctx.kb.bind(x_top);

    // --- loop body (unrolled when the stored width allows, exposing
    // independent vector computations to the reordering pass and keeping
    // several DRAM loads in flight; bounded by the virtual-register space
    // so register allocation stays spill-free) ---
    let body_cost = plan.accesses.len() * 4 + expr.size();
    let unroll: u32 = [8u32, 4, 2, 1]
        .into_iter()
        .find(|&u| osw % (4 * u) == 0 && body_cost as u32 * u <= 170)
        .unwrap_or(1);
    ctx.kb.begin_straight();
    ctx.reset_vregs();
    for k in 0..unroll {
        ctx.x_off_elems = (k * 4) as i32;
        let mut loaded: HashMap<usize, u8> = HashMap::new();
        for acc in &plan.accesses {
            let v = emit_access_load(ctx, acc, stage, ohx, ohy)?;
            loaded.insert(acc.at_index, v);
        }
        let result = emit_expr(ctx, expr, &plan, &loaded, stage, ohx)?;
        // Store.
        let a_st = ctx.arf_temp()?;
        ctx.calc(ArfOp::Add, a_st, a_out_row, ArfSrc::Reg(areg(A_XI_BY)));
        if k > 0 {
            ctx.calc(ArfOp::Add, a_st, a_st, ArfSrc::Imm((k * 16) as i32));
        }
        ctx.kb.push_mem(
            Instruction::StRf {
                dram_addr: AddrOperand::Indirect(areg(a_st)),
                drf: dreg(result),
                simb_mask: ctx.mask,
            },
            MemTag::DramBuffer(out_src),
        );
    }
    ctx.x_off_elems = 0;
    // Column-induction updates.
    ctx.calc(ArfOp::Add, A_XI_EL, A_XI_EL, ArfSrc::Imm((unroll * 4) as i32));
    ctx.calc(ArfOp::Add, A_XI_BY, A_XI_BY, ArfSrc::Imm((unroll * 16) as i32));
    ctx.kb.end_straight();

    // Column loop back-edge.
    ctx.kb.push(Instruction::CalcCrf {
        op: CrfOp::Add,
        dst: creg(C_X),
        src1: creg(C_X),
        src2: CrfSrc::Imm((unroll * 4) as i32),
    });
    ctx.kb.push(Instruction::CalcCrf {
        op: CrfOp::Lt,
        dst: creg(C_TMP),
        src1: creg(C_X),
        src2: CrfSrc::Imm(osw as i32),
    });
    ctx.kb.cjump_to(creg(C_TMP), x_top);

    // Row loop back-edge.
    ctx.kb.begin_straight();
    ctx.calc(ArfOp::Add, A_YI, A_YI, ArfSrc::Imm(1));
    ctx.kb.end_straight();
    ctx.kb.push(Instruction::CalcCrf {
        op: CrfOp::Add,
        dst: creg(C_Y),
        src1: creg(C_Y),
        src2: CrfSrc::Imm(1),
    });
    ctx.kb.push(Instruction::CalcCrf {
        op: CrfOp::Lt,
        dst: creg(C_TMP),
        src1: creg(C_Y),
        src2: CrfSrc::Imm(osh as i32),
    });
    ctx.kb.cjump_to(creg(C_TMP), y_top);

    // Slot loop back-edge.
    ctx.kb.begin_straight();
    ctx.calc(ArfOp::Add, A_SLOT, A_SLOT, ArfSrc::Imm(1));
    ctx.kb.end_straight();
    ctx.kb.push(Instruction::CalcCrf {
        op: CrfOp::Add,
        dst: creg(C_SLOT),
        src1: creg(C_SLOT),
        src2: CrfSrc::Imm(1),
    });
    ctx.kb.push(Instruction::CalcCrf {
        op: CrfOp::Lt,
        dst: creg(C_TMP),
        src1: creg(C_SLOT),
        src2: CrfSrc::Imm(slots as i32),
    });
    ctx.kb.cjump_to(creg(C_TMP), slot_top);
    let _ = oslot;
    let _ = otw;
    Ok(())
}

/// Result of access planning for a stage body.
struct AccessPlan {
    accesses: Vec<PlannedAccess>,
    sources: Vec<SourceId>,
    staged_sources: Vec<SourceId>,
}

struct PlannedAccess {
    /// Position in the expression tree (preorder index of the `At` node).
    at_index: usize,
    lowering: AccessLowering,
}

/// Walks the expression, classifying every `At` node.
fn plan_accesses(
    ctx: &StageCtx<'_>,
    stage: &FuncDef,
    expr: &Expr,
    out_halo: (u32, u32),
) -> Result<AccessPlan, CompileError> {
    let mut accesses = Vec::new();
    let mut sources = Vec::new();
    let mut staged = Vec::new();
    let mut counter = 0usize;
    plan_expr(ctx, stage, expr, out_halo, &mut counter, &mut accesses, &mut sources, &mut staged)?;
    Ok(AccessPlan { accesses, sources, staged_sources: staged })
}

#[allow(clippy::too_many_arguments)]
fn plan_expr(
    ctx: &StageCtx<'_>,
    stage: &FuncDef,
    e: &Expr,
    out_halo: (u32, u32),
    counter: &mut usize,
    out: &mut Vec<PlannedAccess>,
    sources: &mut Vec<SourceId>,
    staged: &mut Vec<SourceId>,
) -> Result<(), CompileError> {
    match e {
        Expr::At(s, cx, cy) => {
            let at_index = *counter;
            *counter += 1;
            if !sources.contains(s) {
                sources.push(*s);
            }
            let layout = ctx.map.layout(*s);
            let lowering = match layout {
                BufferLayout::Replicated { .. } => {
                    // Dynamic 1-D gather: cy must be the constant 0.
                    match analyze_coord(cy) {
                        AffineCoord::Affine { var: None, num: _, den: _, offset: 0 } => {}
                        _ => {
                            return Err(CompileError::Unsupported {
                                what: format!("gather into `{}` must use row 0", ctx.map.names[s]),
                            })
                        }
                    }
                    AccessLowering::ReplicatedGather { source: *s, index: (**cx).clone() }
                }
                BufferLayout::Distributed { halo, .. } => {
                    let halo = *halo;
                    let ax = analyze_coord(cx);
                    let ay = analyze_coord(cy);
                    let (
                        AffineCoord::Affine { var: vx, num: nx, den: dx, offset: ox },
                        AffineCoord::Affine { var: vy, num: ny, den: dy, offset: oy },
                    ) = (ax, ay)
                    else {
                        return Err(CompileError::Unsupported {
                            what: format!(
                                "non-affine access to distributed buffer `{}` in `{}`",
                                ctx.map.names[s], stage.name
                            ),
                        });
                    };
                    if vx == Some(Var::Y) || vy == Some(Var::X) {
                        return Err(CompileError::Unsupported {
                            what: format!("transposed access in `{}`", stage.name),
                        });
                    }
                    if (vx.is_none() && ctx.map.grid.tiles_x > 1)
                        || (vy.is_none() && ctx.map.grid.tiles_y > 1)
                    {
                        return Err(CompileError::Unsupported {
                            what: format!(
                                "constant global coordinate into distributed `{}` needs a 1-tile grid",
                                ctx.map.names[s]
                            ),
                        });
                    }
                    // Tile-grid compatibility: num/den must map the tile
                    // exactly onto the source's tile (checked here).
                    let (src_w, _src_h) = ctx.pipeline.extent(*s);
                    let src_tw = src_w / ctx.map.grid.tiles_x;
                    let (out_w, _) = stage.extent;
                    let out_tw = out_w / ctx.map.grid.tiles_x;
                    let (nx, dx) = if vx.is_none() { (0, 1) } else { (nx, dx) };
                    let (ny, dy) = if vy.is_none() { (0, 1) } else { (ny, dy) };
                    if vx.is_some() && nx as i64 * out_tw as i64 != dx as i64 * src_tw as i64 {
                        return Err(CompileError::Unsupported {
                            what: format!(
                                "access scale {nx}/{dx} in `{}` does not match the tile grid",
                                stage.name
                            ),
                        });
                    }
                    let unit_x = vx.is_some() && nx == 1 && dx == 1;
                    // Stored byte offset relative to the output's stored-x
                    // cursor: (x_off + src_halo - out_halo) elements. It is
                    // folded into the per-row base so the loop body pays a
                    // single address add per access.
                    let rel_off = ox + halo.0 as i32 - out_halo.0 as i32;
                    let bank_key: RowKey =
                        (*s, ny as i64, oy as i64, dy as i64, false, rel_off * 4);
                    let pgsm_key: RowKey = (*s, ny as i64, oy as i64, dy as i64, true, rel_off * 4);
                    let per_lane_key: RowKey = (*s, ny as i64, oy as i64, dy as i64, true, 0);
                    if unit_x && rel_off.rem_euclid(4) == 0 {
                        // Aligned vector load straight from the bank
                        // (unless the schedule stages this source anyway).
                        if stage.schedule.load_pgsm {
                            if !staged.contains(s) {
                                staged.push(*s);
                            }
                            AccessLowering::PgsmVector { base_key: pgsm_key, source: *s }
                        } else {
                            AccessLowering::BankVector { base_key: bank_key, source: *s }
                        }
                    } else if unit_x {
                        if !staged.contains(s) {
                            staged.push(*s);
                        }
                        AccessLowering::PgsmVector { base_key: pgsm_key, source: *s }
                    } else {
                        if !staged.contains(s) {
                            staged.push(*s);
                        }
                        AccessLowering::PgsmPerLane {
                            base_key: per_lane_key,
                            source: *s,
                            num: nx,
                            off: ox,
                            den: dx,
                            halo_bytesless: halo.0 as i32,
                        }
                    }
                }
            };
            out.push(PlannedAccess { at_index, lowering });
            // Recurse into dynamic index expressions so nested accesses
            // (e.g. the value feeding a gather) are planned too.
            plan_expr(ctx, stage, cx, out_halo, counter, out, sources, staged)?;
            plan_expr(ctx, stage, cy, out_halo, counter, out, sources, staged)?;
        }
        Expr::Bin(_, a, b) => {
            plan_expr(ctx, stage, a, out_halo, counter, out, sources, staged)?;
            plan_expr(ctx, stage, b, out_halo, counter, out, sources, staged)?;
        }
        Expr::Cast(_, inner) => {
            plan_expr(ctx, stage, inner, out_halo, counter, out, sources, staged)?
        }
        Expr::Select(c, a, b) => {
            plan_expr(ctx, stage, c, out_halo, counter, out, sources, staged)?;
            plan_expr(ctx, stage, a, out_halo, counter, out, sources, staged)?;
            plan_expr(ctx, stage, b, out_halo, counter, out, sources, staged)?;
        }
        Expr::ConstF(_) | Expr::ConstI(_) | Expr::Var(_) => {}
    }
    Ok(())
}

/// Emits the PGSM staging loop for one source (unrolled over the stored
/// tile; `ld pgsm` moves bank → PGSM without touching the DataRF).
fn emit_staging(
    ctx: &mut StageCtx<'_>,
    s: SourceId,
    bank_base: u8,
    pgsm_off: u32,
    stored_w: u32,
    stored_h: u32,
) -> Result<(), CompileError> {
    ctx.kb.begin_straight();
    let a_p = ctx.claim_areg("pgsm staging base")?;
    ctx.calc(ArfOp::Add, a_p, A_PGSM_BASE, ArfSrc::Imm(pgsm_off as i32));
    let vecs = (stored_w / 4) * stored_h;
    for v in 0..vecs {
        let off = (v * 16) as i32;
        let a_b = ctx.arf_temp()?;
        let a_t = ctx.arf_temp()?;
        ctx.calc(ArfOp::Add, a_b, bank_base, ArfSrc::Imm(off));
        ctx.calc(ArfOp::Add, a_t, a_p, ArfSrc::Imm(off));
        ctx.kb.push_mem(
            Instruction::LdPgsm {
                dram_addr: AddrOperand::Indirect(areg(a_b)),
                pgsm_addr: AddrOperand::Indirect(areg(a_t)),
                simb_mask: ctx.mask,
            },
            MemTag::PgsmStage(s),
        );
    }
    ctx.kb.end_straight();
    Ok(())
}

/// Emits the per-row base-address computation for an access (in the row
/// loop header).
fn emit_row_base(
    ctx: &mut StageCtx<'_>,
    acc: &PlannedAccess,
    slot_base: &BTreeMap<SourceId, u8>,
    out_halo_y: u32,
) -> Result<(), CompileError> {
    let (key, source) = match &acc.lowering {
        AccessLowering::BankVector { base_key, source, .. }
        | AccessLowering::PgsmVector { base_key, source, .. }
        | AccessLowering::PgsmPerLane { base_key, source, .. } => (*base_key, *source),
        AccessLowering::ReplicatedGather { .. } => return Ok(()),
    };
    let staged = key.4;
    let folded_off = key.5;
    if ctx.row_bases.contains_key(&key) {
        return Ok(());
    }
    let BufferLayout::Distributed { halo, stored_w, .. } = *ctx.map.layout(source) else {
        unreachable!()
    };
    let (_, ny, oy, dy) = (key.0, key.1, key.2, key.3);
    let a = ctx.claim_areg("row base")?;
    if staged {
        if let Some(StagingMode::RowWindow { oy_min, .. }) = ctx.staging_modes.get(&source).copied()
        {
            // Row-window staging: the access's row sits at a fixed offset
            // within the staged window (integer y scale guaranteed by
            // planning, so the offset is yi-independent).
            debug_assert!(dy == 1);
            let off = oy as i32 - oy_min;
            let pgsm_off = ctx.pgsm_offsets[&source];
            ctx.calc(
                ArfOp::Add,
                a,
                A_PGSM_BASE,
                ArfSrc::Imm(pgsm_off as i32 + off * (stored_w * 4) as i32 + folded_off),
            );
            ctx.row_bases.insert(key, a);
            return Ok(());
        }
    }
    // siy = (ny * (yi - out_halo_y) + oy) / dy + halo_y
    ctx.calc(ArfOp::Add, a, A_YI, ArfSrc::Imm(-(out_halo_y as i32)));
    if ny != 1 {
        ctx.calc(ArfOp::Mul, a, a, ArfSrc::Imm(ny as i32));
    }
    if oy != 0 {
        ctx.calc(ArfOp::Add, a, a, ArfSrc::Imm(oy as i32));
    }
    if dy != 1 {
        ctx.calc(ArfOp::Div, a, a, ArfSrc::Imm(dy as i32));
    }
    if halo.1 != 0 {
        ctx.calc(ArfOp::Add, a, a, ArfSrc::Imm(halo.1 as i32));
    }
    ctx.calc(ArfOp::Mul, a, a, ArfSrc::Imm((stored_w * 4) as i32));
    if staged {
        let pgsm_off = ctx.pgsm_offsets[&source];
        ctx.calc(ArfOp::Add, a, a, ArfSrc::Reg(areg(A_PGSM_BASE)));
        if pgsm_off as i32 + folded_off != 0 {
            ctx.calc(ArfOp::Add, a, a, ArfSrc::Imm(pgsm_off as i32 + folded_off));
        }
    } else {
        ctx.calc(ArfOp::Add, a, a, ArfSrc::Reg(areg(slot_base[&source])));
        if folded_off != 0 {
            ctx.calc(ArfOp::Add, a, a, ArfSrc::Imm(folded_off));
        }
    }
    ctx.row_bases.insert(key, a);
    Ok(())
}

/// Emits the load(s) of one access in the loop body; returns the virtual
/// register holding the value vector.
fn emit_access_load(
    ctx: &mut StageCtx<'_>,
    acc: &PlannedAccess,
    stage: &FuncDef,
    out_halo_x: u32,
    _out_halo_y: u32,
) -> Result<u8, CompileError> {
    match &acc.lowering {
        AccessLowering::BankVector { base_key, source } => {
            let row = ctx.row_bases[base_key];
            let a = ctx.arf_temp()?;
            ctx.calc(ArfOp::Add, a, row, ArfSrc::Reg(areg(A_XI_BY)));
            if ctx.x_off_elems != 0 {
                ctx.calc(ArfOp::Add, a, a, ArfSrc::Imm(ctx.x_off_elems * 4));
            }
            let v = ctx.vreg()?;
            ctx.kb.push_mem(
                Instruction::LdRf {
                    dram_addr: AddrOperand::Indirect(areg(a)),
                    drf: dreg(v),
                    simb_mask: ctx.mask,
                },
                MemTag::DramBuffer(*source),
            );
            Ok(v)
        }
        AccessLowering::PgsmVector { base_key, source } => {
            let row = ctx.row_bases[base_key];
            let a = ctx.arf_temp()?;
            ctx.calc(ArfOp::Add, a, row, ArfSrc::Reg(areg(A_XI_BY)));
            if ctx.x_off_elems != 0 {
                ctx.calc(ArfOp::Add, a, a, ArfSrc::Imm(ctx.x_off_elems * 4));
            }
            let v = ctx.vreg()?;
            ctx.kb.push_mem(
                Instruction::RdPgsm {
                    pgsm_addr: AddrOperand::Indirect(areg(a)),
                    drf: dreg(v),
                    simb_mask: ctx.mask,
                },
                MemTag::Pgsm(*source),
            );
            Ok(v)
        }
        AccessLowering::PgsmPerLane { base_key, source, num, off, den, halo_bytesless } => {
            let row = ctx.row_bases[base_key];
            let v = ctx.vreg()?;
            ctx.kb.push(Instruction::Reset { drf: dreg(v), simb_mask: ctx.mask });
            for l in 0..4i32 {
                let a = ctx.arf_temp()?;
                // six = (num * (xi_el + l) + off) / den + halo_x
                ctx.calc(ArfOp::Add, a, A_XI_EL, ArfSrc::Imm(l + ctx.x_off_elems));
                if *num != 1 {
                    ctx.calc(ArfOp::Mul, a, a, ArfSrc::Imm(*num));
                }
                if *off != 0 {
                    ctx.calc(ArfOp::Add, a, a, ArfSrc::Imm(*off));
                }
                if *den != 1 {
                    ctx.calc(ArfOp::Div, a, a, ArfSrc::Imm(*den));
                }
                if *halo_bytesless != 0 {
                    ctx.calc(ArfOp::Add, a, a, ArfSrc::Imm(*halo_bytesless));
                }
                ctx.calc(ArfOp::Mul, a, a, ArfSrc::Imm(4));
                ctx.calc(ArfOp::Add, a, a, ArfSrc::Reg(areg(row)));
                let t = ctx.vreg()?;
                ctx.kb.push_mem(
                    Instruction::RdPgsm {
                        pgsm_addr: AddrOperand::Indirect(areg(a)),
                        drf: dreg(t),
                        simb_mask: ctx.mask,
                    },
                    MemTag::Pgsm(*source),
                );
                // Blend lane 0 of t into lane l of v.
                ctx.comp_masked(
                    CompOp::Add,
                    DataType::F32,
                    CompMode::ScalarVector,
                    v,
                    D_ZERO,
                    t,
                    VecMask::from_bits(1 << l),
                );
            }
            Ok(v)
        }
        AccessLowering::ReplicatedGather { source, index } => {
            // 1. Evaluate the index expression as an i32 vector.
            let plan = plan_accesses(ctx, stage, index, (out_halo_x, _out_halo_y))?;
            let mut loaded = HashMap::new();
            for a in &plan.accesses {
                let v = emit_access_load(ctx, a, stage, out_halo_x, _out_halo_y)?;
                loaded.insert(a.at_index, v);
            }
            let vi = emit_expr_inner(ctx, index, &plan, &loaded, stage, out_halo_x, true)?;
            // 2. Per lane: clamp, scale to 16-byte pixels, load, blend.
            let BufferLayout::Replicated { base, extent } = *ctx.map.layout(*source) else {
                unreachable!("gather sources are replicated");
            };
            let v = ctx.vreg()?;
            ctx.kb.push(Instruction::Reset { drf: dreg(v), simb_mask: ctx.mask });
            for l in 0..4u8 {
                let a = ctx.arf_temp()?;
                ctx.kb.push(Instruction::Mov {
                    to_arf: true,
                    arf: areg(a),
                    drf: dreg(vi),
                    lane: l,
                    simb_mask: ctx.mask,
                });
                ctx.calc(ArfOp::Max, a, a, ArfSrc::Imm(0));
                ctx.calc(ArfOp::Min, a, a, ArfSrc::Imm(extent.0 as i32 - 1));
                ctx.calc(ArfOp::Mul, a, a, ArfSrc::Imm(16));
                ctx.calc(ArfOp::Add, a, a, ArfSrc::Imm(base as i32));
                let t = ctx.vreg()?;
                ctx.kb.push_mem(
                    Instruction::LdRf {
                        dram_addr: AddrOperand::Indirect(areg(a)),
                        drf: dreg(t),
                        simb_mask: ctx.mask,
                    },
                    MemTag::DramBuffer(*source),
                );
                ctx.comp_masked(
                    CompOp::Add,
                    DataType::F32,
                    CompMode::ScalarVector,
                    v,
                    D_ZERO,
                    t,
                    VecMask::from_bits(1 << l),
                );
            }
            Ok(v)
        }
    }
}

/// Emits the value computation of `expr`; `loaded` maps `At`-node preorder
/// indices to the registers produced by [`emit_access_load`].
fn emit_expr(
    ctx: &mut StageCtx<'_>,
    expr: &Expr,
    plan: &AccessPlan,
    loaded: &HashMap<usize, u8>,
    stage: &FuncDef,
    out_halo_x: u32,
) -> Result<u8, CompileError> {
    emit_expr_inner(ctx, expr, plan, loaded, stage, out_halo_x, false)
}

#[allow(clippy::too_many_arguments)]
fn emit_expr_inner(
    ctx: &mut StageCtx<'_>,
    expr: &Expr,
    plan: &AccessPlan,
    loaded: &HashMap<usize, u8>,
    stage: &FuncDef,
    out_halo_x: u32,
    as_int: bool,
) -> Result<u8, CompileError> {
    // Walk with the same preorder numbering as the plan.
    let mut counter = 0usize;
    emit_expr_rec(ctx, expr, &mut counter, plan, loaded, stage, out_halo_x, as_int)
}

#[allow(clippy::too_many_arguments, clippy::only_used_in_recursion)]
fn emit_expr_rec(
    ctx: &mut StageCtx<'_>,
    e: &Expr,
    counter: &mut usize,
    plan: &AccessPlan,
    loaded: &HashMap<usize, u8>,
    stage: &FuncDef,
    out_halo_x: u32,
    as_int: bool,
) -> Result<u8, CompileError> {
    use ipim_frontend::BinOp;
    match e {
        Expr::ConstF(c) => {
            if as_int {
                let v = ctx.vreg()?;
                ctx.seti_drf(v, (*c as i32) as u32);
                Ok(v)
            } else {
                ctx.const_reg(*c)
            }
        }
        Expr::ConstI(c) => {
            let v = ctx.vreg()?;
            if as_int {
                ctx.seti_drf(v, *c as u32);
            } else {
                ctx.seti_drf(v, (*c as f32).to_bits());
            }
            Ok(v)
        }
        Expr::Var(var) => {
            // Global coordinate vector: gx = tx*tw + xi + [0..3] (x only
            // varies per lane).
            let a = ctx.arf_temp()?;
            let (tw, th) =
                (stage.extent.0 / ctx.map.grid.tiles_x, stage.extent.1 / ctx.map.grid.tiles_y);
            let v = ctx.vreg()?;
            match var {
                Var::X => {
                    ctx.calc(ArfOp::Mul, a, A_TX, ArfSrc::Imm(tw as i32));
                    ctx.calc(ArfOp::Add, a, a, ArfSrc::Reg(areg(A_XI_EL)));
                    if ctx.x_off_elems != 0 {
                        ctx.calc(ArfOp::Add, a, a, ArfSrc::Imm(ctx.x_off_elems));
                    }
                    let s = ctx.vreg()?;
                    ctx.kb.push(Instruction::Mov {
                        to_arf: false,
                        arf: areg(a),
                        drf: dreg(s),
                        lane: 0,
                        simb_mask: ctx.mask,
                    });
                    // v = lanes + broadcast(s) (integer add).
                    ctx.comp(CompOp::Add, DataType::I32, CompMode::ScalarVector, v, D_LANES, s);
                }
                Var::Y => {
                    let hy = match ctx.map.layout(stage.source) {
                        BufferLayout::Distributed { halo, .. } => halo.1,
                        BufferLayout::Replicated { .. } => 0,
                    };
                    ctx.calc(ArfOp::Mul, a, A_TY, ArfSrc::Imm(th as i32));
                    ctx.calc(ArfOp::Add, a, a, ArfSrc::Reg(areg(A_YI)));
                    if hy != 0 {
                        ctx.calc(ArfOp::Add, a, a, ArfSrc::Imm(-(hy as i32)));
                    }
                    let s = ctx.vreg()?;
                    ctx.kb.push(Instruction::Mov {
                        to_arf: false,
                        arf: areg(a),
                        drf: dreg(s),
                        lane: 0,
                        simb_mask: ctx.mask,
                    });
                    // Broadcast the scalar to all lanes (y is uniform).
                    ctx.comp(CompOp::Add, DataType::I32, CompMode::ScalarVector, v, D_ZERO, s);
                }
            }
            if as_int {
                Ok(v)
            } else {
                let f = ctx.vreg()?;
                ctx.comp(CompOp::CvtI2F, DataType::F32, CompMode::VectorVector, f, v, v);
                Ok(f)
            }
        }
        Expr::At(_, cx, cy) => {
            let idx = *counter;
            *counter += 1;
            // Advance the counter over nested At nodes in the coordinates.
            skip_at_count(cx, counter);
            skip_at_count(cy, counter);
            let v = loaded[&idx];
            if as_int {
                let t = ctx.vreg()?;
                ctx.comp(CompOp::CvtF2I, DataType::I32, CompMode::VectorVector, t, v, v);
                Ok(t)
            } else {
                Ok(v)
            }
        }
        Expr::Bin(op, a, b) => {
            let va = emit_expr_rec(ctx, a, counter, plan, loaded, stage, out_halo_x, as_int)?;
            let vb = emit_expr_rec(ctx, b, counter, plan, loaded, stage, out_halo_x, as_int)?;
            let dtype = if as_int { DataType::I32 } else { DataType::F32 };
            let cop = match op {
                BinOp::Add => CompOp::Add,
                BinOp::Sub => CompOp::Sub,
                BinOp::Mul => CompOp::Mul,
                BinOp::Div => CompOp::Div,
                BinOp::Min => CompOp::Min,
                BinOp::Max => CompOp::Max,
                BinOp::Lt => CompOp::CmpLt,
                BinOp::Le => CompOp::CmpLe,
                BinOp::Eq => CompOp::CmpEq,
            };
            let v = ctx.vreg()?;
            ctx.comp(cop, dtype, CompMode::VectorVector, v, va, vb);
            Ok(v)
        }
        Expr::Cast(ScalarType::I32, inner) => {
            let vi = emit_expr_rec(ctx, inner, counter, plan, loaded, stage, out_halo_x, false)?;
            let v = ctx.vreg()?;
            ctx.comp(CompOp::CvtF2I, DataType::I32, CompMode::VectorVector, v, vi, vi);
            if as_int {
                Ok(v)
            } else {
                let f = ctx.vreg()?;
                ctx.comp(CompOp::CvtI2F, DataType::F32, CompMode::VectorVector, f, v, v);
                Ok(f)
            }
        }
        Expr::Cast(ScalarType::F32, inner) => {
            let v = emit_expr_rec(ctx, inner, counter, plan, loaded, stage, out_halo_x, false)?;
            if as_int {
                let t = ctx.vreg()?;
                ctx.comp(CompOp::CvtF2I, DataType::I32, CompMode::VectorVector, t, v, v);
                Ok(t)
            } else {
                Ok(v)
            }
        }
        Expr::Select(c, a, b) => {
            let vc = emit_expr_rec(ctx, c, counter, plan, loaded, stage, out_halo_x, false)?;
            let va = emit_expr_rec(ctx, a, counter, plan, loaded, stage, out_halo_x, as_int)?;
            let vb = emit_expr_rec(ctx, b, counter, plan, loaded, stage, out_halo_x, as_int)?;
            let dtype = if as_int { DataType::I32 } else { DataType::F32 };
            // blend = b + c * (a - b)
            let d = ctx.vreg()?;
            ctx.comp(CompOp::Sub, dtype, CompMode::VectorVector, d, va, vb);
            let m = ctx.vreg()?;
            ctx.comp(CompOp::Mul, dtype, CompMode::VectorVector, m, d, vc);
            let v = ctx.vreg()?;
            ctx.comp(CompOp::Add, dtype, CompMode::VectorVector, v, m, vb);
            Ok(v)
        }
    }
}

/// Advances the preorder `At` counter across a subtree.
fn skip_at_count(e: &Expr, counter: &mut usize) {
    match e {
        Expr::At(_, cx, cy) => {
            *counter += 1;
            skip_at_count(cx, counter);
            skip_at_count(cy, counter);
        }
        Expr::Bin(_, a, b) => {
            skip_at_count(a, counter);
            skip_at_count(b, counter);
        }
        Expr::Cast(_, inner) => skip_at_count(inner, counter),
        Expr::Select(c, a, b) => {
            skip_at_count(c, counter);
            skip_at_count(a, counter);
            skip_at_count(b, counter);
        }
        Expr::ConstF(_) | Expr::ConstI(_) | Expr::Var(_) => {}
    }
}
