//! The NN workload family: neural-network operators expressed in the same
//! DSL and lowered through the same SIMB backend as the image kernels.
//!
//! These exercise the compiler paths Table II never touches:
//!
//! * **Gemm** — a tiled matrix multiply `C = A·B`. The grid is one tile
//!   wide × 32 tiles tall, so each PE owns a band of full output rows.
//!   `A(k, y)` is read at *constant* x coordinates (legal only on a
//!   1-tile-wide grid) and stages through PGSM per lane; `B` is flattened
//!   to a `(N·K, 1)` strip and fetched through the *computed-index gather*
//!   path — the index `x·K + k + 0.5` carries a fractional constant, which
//!   classifies it dynamic (the replicated-gather layout) while both the
//!   interpreter and the backend truncate it to exactly `x·K + k`.
//! * **Conv3x3** — an im2col-style unrolled 3×3 convolution: the nine
//!   shifted taps with nine distinct hoisted weights are the unrolled
//!   patch-row inner product, followed by a quantized LUT activation
//!   gather (the data-dependent gather path, as BilateralGrid's slice).
//! * **RowSoftmax** — a full-row softmax: log-tree max-reduction,
//!   exp-approximation, log-tree sum-reduction and a normalize stage.
//!   The width-halving tree stages are stride-2 affine accesses; the
//!   final combines read the surviving 4-wide partials at constant x.

use ipim_frontend::{x, y, Expr, PipelineBuilder, SourceRef};

use crate::images::synthetic_image;
use crate::{lut_gaussian, row_tile_height, Workload, WorkloadFamily, WorkloadScale};

/// The GEMM inner dimension. Fixed (not scaled with the image) so the
/// per-PE `A` band and the replicated `B` strip stay within PGSM / bank
/// capacity at every scale; 32 gives each output pixel a 64-FLOP dot
/// product, enough to shift the kernel from bandwidth- to compute-heavy.
pub(crate) const GEMM_K: u32 = 32;

/// How many `A·B` products each accumulation stage folds in. Four keeps
/// every stage's register and unroll budget comfortable while the chain
/// (`K / GEMM_CHUNK` stages) stays short.
const GEMM_CHUNK: u32 = 4;

/// Tiled GEMM: `C(x, y) = Σ_k A(k, y) · B(x·K + k)` with `K` = 32.
///
/// `A` is `(K, M)` (one row of reduction operands per output row), `B` is
/// the `(N·K, 1)` column-major flattening of a `K×N` matrix. The schedule
/// tiles rows only: tile `(N, M/32)`, so the 32 PEs each own a band of
/// output rows and the reduction runs entirely PE-local.
pub fn gemm(scale: WorkloadScale) -> Workload {
    let (w, h) = (scale.width, scale.height);
    let k_dim = GEMM_K;
    let th = row_tile_height(h).unwrap_or(h);
    let mut p = PipelineBuilder::new();
    let a = p.input("a", k_dim, h);
    let b = p.input("b_flat", w * k_dim, 1);
    let chunks = k_dim / GEMM_CHUNK;
    let mut prev: Option<SourceRef> = None;
    for c in 0..chunks {
        let f = if c + 1 == chunks { p.func("c", w, h) } else { p.func(&format!("acc{c}"), w, h) };
        // The `+ 0.5` in the B index forces the dynamic
        // (replicated-gather) access class; integer evaluation drops it
        // identically on the interpreter and the device, leaving exactly
        // `x·K + k`.
        let product = |t: u32| {
            let k = (c * GEMM_CHUNK + t) as i32;
            a.at(k, y()) * b.at(x() * k_dim as i32 + k + 0.5, 0)
        };
        let mut e: Expr = match prev {
            Some(pr) => pr.at(x(), y()) + product(0),
            None => product(0),
        };
        for t in 1..GEMM_CHUNK {
            e = e + product(t);
        }
        p.define(f, e);
        p.schedule(f).compute_root().ipim_tile(w, th);
        prev = Some(f);
    }
    let out = prev.expect("at least one accumulation stage");
    let pipeline = p.build(out).expect("gemm pipeline");
    Workload {
        name: "Gemm",
        family: WorkloadFamily::Nn,
        multi_stage: true,
        stages: chunks as usize,
        pipeline,
        inputs: vec![
            (a.id(), synthetic_image(k_dim, h, 11)),
            (b.id(), synthetic_image(w * k_dim, 1, 12)),
        ],
        scale,
        flops_per_pixel: 2.0 * k_dim as f64,
        gpu_bytes_per_pixel: 12.0, // A row + B column mostly cached + write
        output_pixels: scale.pixels(),
    }
}

/// The 3×3 convolution weights: a 1-2-1 binomial kernel normalized to sum
/// to one, so the accumulator stays inside the LUT's `[0, 1)` domain.
const CONV_W: [f32; 9] = [
    1.0 / 16.0,
    2.0 / 16.0,
    1.0 / 16.0,
    2.0 / 16.0,
    4.0 / 16.0,
    2.0 / 16.0,
    1.0 / 16.0,
    2.0 / 16.0,
    1.0 / 16.0,
];

/// Im2col-style 3×3 convolution with a quantized LUT activation.
///
/// Stage 1 is the unrolled patch inner product — nine shifted taps times
/// nine distinct weights, exactly the nine f32 constants the backend's
/// constant-hoisting pins to registers. Stage 2 quantizes the accumulator
/// to 6 bits and gathers the activation value from a 64-entry LUT (the
/// data-dependent gather lowering).
pub fn conv3x3(scale: WorkloadScale) -> Workload {
    let (w, h) = (scale.width, scale.height);
    let tile = crate::ladder_tile(w, h);
    let mut p = PipelineBuilder::new();
    let input = p.input("in", w, h);
    let lut = p.input("act_lut", 64, 1);
    let acc = p.func("acc", w, h);
    let tap = |i: usize| {
        let (dx, dy) = ((i % 3) as i32 - 1, (i / 3) as i32 - 1);
        input.at(x() + dx, y() + dy) * CONV_W[i]
    };
    let mut e: Expr = tap(0);
    for i in 1..9 {
        e = e + tap(i);
    }
    p.define(acc, e);
    p.schedule(acc).compute_root().ipim_tile(tile.0, tile.1).load_pgsm();
    let out = p.func("act", w, h);
    p.define(out, lut.at((acc.at(x(), y()) * 63.9).cast_i32(), 0));
    p.schedule(out).compute_root().ipim_tile(tile.0, tile.1);
    let pipeline = p.build(out).expect("conv3x3 pipeline");
    Workload {
        name: "Conv3x3",
        family: WorkloadFamily::Nn,
        multi_stage: true,
        stages: 2,
        pipeline,
        inputs: vec![(input.id(), synthetic_image(w, h, 13)), (lut.id(), lut_gaussian(64, 0.35))],
        scale,
        flops_per_pixel: 19.0, // 9 MADs + quantize
        gpu_bytes_per_pixel: 12.0,
        output_pixels: scale.pixels(),
    }
}

/// The widths of a row-reduction's log tree, halving from `w` while the
/// next level stays a positive multiple of 4 (the SIMB lane width — a
/// func narrower than one vector cannot be scheduled). The last entry is
/// the combine width the final stage reads at constant x.
pub(crate) fn reduction_widths(w: u32) -> Vec<u32> {
    let mut widths = vec![w];
    let mut cur = w;
    while cur.is_multiple_of(2) && (cur / 2).is_multiple_of(4) {
        cur /= 2;
        widths.push(cur);
        if cur == 4 {
            break;
        }
    }
    widths
}

/// Row softmax: `out(x, y) = exp(in(x, y) − max_row(y)) / Σ_x exp(…)`.
///
/// The row max and row sum are *full-row reductions*, built as log trees
/// of width-halving stages (`r(x) = combine(v(2x), v(2x+1))`) down to a
/// 4-wide partial, which the consuming stage folds with constant-x reads
/// — legal because the schedule keeps the grid one tile wide, like Gemm.
/// `exp` is approximated as `(1 + t/16)^16` by four squaring stages,
/// exact enough for a reduction-path stress test and cheap enough to
/// verify bit-close against the interpreter.
pub fn row_softmax(scale: WorkloadScale) -> Workload {
    let (w, h) = (scale.width, scale.height);
    let th = row_tile_height(h).unwrap_or(h);
    let widths = reduction_widths(w);
    let combine_w = *widths.last().expect("non-empty width chain");
    let mut p = PipelineBuilder::new();
    let input = p.input("in", w, h);
    let root = |p: &mut PipelineBuilder, f: SourceRef, fw: u32| {
        p.schedule(f).compute_root().ipim_tile(fw, th);
    };

    // Max-reduction tree.
    let mut m = input;
    for &fw in &widths[1..] {
        let f = p.func(&format!("max{fw}"), fw, h);
        p.define(f, m.at(2 * x(), y()).max(m.at(2 * x() + 1, y())));
        root(&mut p, f, fw);
        m = f;
    }
    // Fold the surviving partials at constant x into the row max.
    let row_max = |m: SourceRef| {
        let mut e = m.at(0, y());
        for i in 1..combine_w as i32 {
            e = e.max(m.at(i, y()));
        }
        e
    };

    // exp(t) ≈ (1 + t/16)^16 for t = in − max ∈ [−1, 0]: the base stays
    // inside [15/16, 1], so repeated squaring stays in (0, 1] and the
    // row sum below is bounded away from zero.
    let u = p.func("expbase", w, h);
    p.define(u, (input.at(x(), y()) - row_max(m)) * (1.0 / 16.0) + 1.0);
    root(&mut p, u, w);
    let mut e_f = u;
    for i in 0..4 {
        let f = p.func(&format!("sq{i}"), w, h);
        p.define(f, e_f.at(x(), y()) * e_f.at(x(), y()));
        root(&mut p, f, w);
        e_f = f;
    }

    // Sum-reduction tree over the exponentials.
    let mut s = e_f;
    for &fw in &widths[1..] {
        let f = p.func(&format!("sum{fw}"), fw, h);
        p.define(f, s.at(2 * x(), y()) + s.at(2 * x() + 1, y()));
        root(&mut p, f, fw);
        s = f;
    }
    let row_sum = {
        let mut e = s.at(0, y());
        for i in 1..combine_w as i32 {
            e = e + s.at(i, y());
        }
        e
    };

    // Normalize.
    let out = p.func("softmax", w, h);
    p.define(out, e_f.at(x(), y()) / row_sum);
    root(&mut p, out, w);

    let pipeline = p.build(out).expect("row softmax pipeline");
    let stages = pipeline.stage_count();
    Workload {
        name: "RowSoftmax",
        family: WorkloadFamily::Nn,
        multi_stage: true,
        stages,
        pipeline,
        inputs: vec![(input.id(), synthetic_image(w, h, 15))],
        scale,
        flops_per_pixel: 12.0, // 2 tree levels amortized + exp + normalize
        gpu_bytes_per_pixel: 12.0,
        output_pixels: scale.pixels(),
    }
}
