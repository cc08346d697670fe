//! The four heterogeneous multi-stage benchmarks of Table II.
//!
//! Each pipeline reproduces the computation *patterns* of its namesake
//! (stage counts match Table II); where the original uses operations
//! outside the frontend subset (e.g. `exp` in local Laplacian's remap), a
//! polynomial stand-in with the same stencil/resample/gather structure is
//! used — the performance-relevant shape (arithmetic intensity, access
//! patterns, stage heterogeneity) is preserved.

use ipim_frontend::{x, y, Expr, PipelineBuilder, SourceRef};

use crate::images::{lut_gaussian, synthetic_image};
use crate::{Workload, WorkloadFamily, WorkloadScale};

/// Bilateral grid (4 stages): grid construction (2× spatial subsampling),
/// two grid blurs, and a slice stage combining an upsample of the blurred
/// grid with a data-dependent range-kernel LUT gather.
pub fn bilateral_grid(scale: WorkloadScale) -> Workload {
    let (w, h) = (scale.width, scale.height);
    let mut p = PipelineBuilder::new();
    let input = p.input("in", w, h);
    let lut = p.input("range_lut", 64, 1);

    // Stage 1: grid construction (2×2 box at half resolution).
    let grid = p.func("grid", w / 2, h / 2);
    p.define(
        grid,
        (input.at(2 * x(), 2 * y())
            + input.at(2 * x() + 1, 2 * y())
            + input.at(2 * x(), 2 * y() + 1)
            + input.at(2 * x() + 1, 2 * y() + 1))
            / 4.0,
    );
    p.schedule(grid).compute_root().ipim_tile(8, 8).load_pgsm();

    // Stages 2–3: blur the grid.
    let gx = p.func("grid_blur_x", w / 2, h / 2);
    p.define(gx, (grid.at(x() - 1, y()) + grid.at(x(), y()) + grid.at(x() + 1, y())) / 3.0);
    p.schedule(gx).compute_root().ipim_tile(8, 8).load_pgsm();
    let gy = p.func("grid_blur_y", w / 2, h / 2);
    p.define(gy, (gx.at(x(), y() - 1) + gx.at(x(), y()) + gx.at(x(), y() + 1)) / 3.0);
    p.schedule(gy).compute_root().ipim_tile(8, 8).load_pgsm();

    // Stage 4: slice — upsample the blurred grid and blend by the
    // range-kernel weight looked up from the pixel's own value.
    let out = p.func("slice", w, h);
    let base = gy.at(x() / 2, y() / 2);
    let weight = lut.at((input.at(x(), y()) * 63.9).cast_i32(), 0);
    p.define(out, base.clone() * weight.clone() + input.at(x(), y()) * (1.0 - weight));
    p.schedule(out).compute_root().ipim_tile(8, 8);

    let pipeline = p.build(out).expect("bilateral grid pipeline");
    Workload {
        name: "BilateralGrid",
        family: WorkloadFamily::Image,
        multi_stage: true,
        stages: 4,
        pipeline,
        inputs: vec![(input.id(), synthetic_image(w, h, 7)), (lut.id(), lut_gaussian(64, 0.25))],
        scale,
        flops_per_pixel: 14.0,
        gpu_bytes_per_pixel: 14.0, // fused grid mostly cached; gather traffic
        output_pixels: scale.pixels(),
    }
}

/// Builds a 2× separable downsample pair of funcs; returns the half-res
/// func.
fn down_pair(
    p: &mut PipelineBuilder,
    name: &str,
    src: SourceRef,
    w: u32,
    h: u32,
    tile: (u32, u32),
) -> SourceRef {
    let dx = p.func(&format!("{name}_x"), w / 2, h);
    p.define(dx, (src.at(2 * x(), y()) + src.at(2 * x() + 1, y())) / 2.0);
    p.schedule(dx).compute_root().ipim_tile(tile.0, tile.1).load_pgsm();
    let d = p.func(name, w / 2, h / 2);
    p.define(d, (dx.at(x(), 2 * y()) + dx.at(x(), 2 * y() + 1)) / 2.0);
    p.schedule(d).compute_root().ipim_tile(tile.0, tile.1).load_pgsm();
    d
}

/// Interpolate (12 stages): a 3-level pyramid of separable downsamples, a
/// coarse smooth, and two upsample-blend-smooth levels with normalization —
/// the alpha-weighted pyramid interpolation of the Halide benchmark.
pub fn interpolate(scale: WorkloadScale) -> Workload {
    let (w, h) = (scale.width, scale.height);
    let tile = (16, 16);
    let mut p = PipelineBuilder::new();
    let input = p.input("in", w, h);

    // 1: alpha pre-weighting.
    let alpha = p.func("alpha", w, h);
    p.define(alpha, input.at(x(), y()) * 0.5 + 0.25);
    p.schedule(alpha).compute_root().ipim_tile(tile.0, tile.1);

    // 2–3: level 1; 4–5: level 2.
    let d1 = down_pair(&mut p, "d1", alpha, w, h, tile);
    let d2 = down_pair(&mut p, "d2", d1, w / 2, h / 2, tile);

    // 6: coarse smooth.
    let s2 = p.func("s2", w / 4, h / 4);
    p.define(s2, (d2.at(x() - 1, y()) + d2.at(x(), y()) + d2.at(x() + 1, y())) / 3.0);
    p.schedule(s2).compute_root().ipim_tile(tile.0, tile.1).load_pgsm();

    // 7–8: upsample-blend into level 1, then smooth.
    let u1 = p.func("u1", w / 2, h / 2);
    p.define(u1, (s2.at(x() / 2, y() / 2) + d1.at(x(), y())) / 2.0);
    p.schedule(u1).compute_root().ipim_tile(tile.0, tile.1);
    let s1 = p.func("s1", w / 2, h / 2);
    p.define(s1, (u1.at(x() - 1, y()) + u1.at(x(), y()) + u1.at(x() + 1, y())) / 3.0);
    p.schedule(s1).compute_root().ipim_tile(tile.0, tile.1).load_pgsm();

    // 9–10: upsample-blend into level 0, then smooth.
    let u0 = p.func("u0", w, h);
    p.define(u0, (s1.at(x() / 2, y() / 2) + alpha.at(x(), y())) / 2.0);
    p.schedule(u0).compute_root().ipim_tile(tile.0, tile.1);
    let s0 = p.func("s0", w, h);
    p.define(s0, (u0.at(x(), y() - 1) + u0.at(x(), y()) + u0.at(x(), y() + 1)) / 3.0);
    p.schedule(s0).compute_root().ipim_tile(tile.0, tile.1).load_pgsm();

    // 11: normalize by the alpha weight; 12: clamp.
    let norm = p.func("norm", w, h);
    p.define(norm, s0.at(x(), y()) / (alpha.at(x(), y()) + 0.5));
    p.schedule(norm).compute_root().ipim_tile(tile.0, tile.1);
    let out = p.func("out", w, h);
    p.define(out, norm.at(x(), y()).clamp(0.0, 1.0));
    p.schedule(out).compute_root().ipim_tile(tile.0, tile.1);

    let pipeline = p.build(out).expect("interpolate pipeline");
    assert_eq!(pipeline.stage_count(), 12, "stage count matches Table II");
    Workload {
        name: "Interpolate",
        family: WorkloadFamily::Image,
        multi_stage: true,
        stages: 12,
        pipeline,
        inputs: vec![(input.id(), synthetic_image(w, h, 8))],
        scale,
        flops_per_pixel: 18.0,
        gpu_bytes_per_pixel: 24.0, // pyramid intermediates spill on GPU
        output_pixels: scale.pixels(),
    }
}

/// The cubic remap curve used by our local-Laplacian stand-in.
fn remap(v: Expr) -> Expr {
    let d = v.clone() - 0.5;
    v + d.clone() * 0.3 - d.clone() * d.clone() * d * 0.4
}

/// Local Laplacian (23 stages): Gaussian pyramid, per-level remap curves,
/// Laplacian bands, weighted collapse and a tone/contrast chain.
pub fn local_laplacian(scale: WorkloadScale) -> Workload {
    let (w, h) = (scale.width, scale.height);
    let tile = (16, 16);
    let mut p = PipelineBuilder::new();
    let input = p.input("in", w, h);
    let root = |p: &mut PipelineBuilder, f: SourceRef, pgsm: bool| {
        let s = p.schedule(f).compute_root().ipim_tile(tile.0, tile.1);
        if pgsm {
            s.load_pgsm();
        }
    };

    // 1: remap level 0.
    let r0 = p.func("r0", w, h);
    p.define(r0, remap(input.at(x(), y())));
    root(&mut p, r0, false);
    // 2–3: pyramid level 1; 4–5: level 2.
    let g1 = down_pair(&mut p, "g1", input, w, h, tile);
    let g2 = down_pair(&mut p, "g2", g1, w / 2, h / 2, tile);
    // 6–7: remap coarser levels.
    let r1 = p.func("r1", w / 2, h / 2);
    p.define(r1, remap(g1.at(x(), y())));
    root(&mut p, r1, false);
    let r2 = p.func("r2", w / 4, h / 4);
    p.define(r2, remap(g2.at(x(), y())));
    root(&mut p, r2, false);
    // 8–9: Laplacian bands.
    let l0 = p.func("l0", w, h);
    p.define(l0, input.at(x(), y()) - g1.at(x() / 2, y() / 2));
    root(&mut p, l0, false);
    let l1 = p.func("l1", w / 2, h / 2);
    p.define(l1, g1.at(x(), y()) - g2.at(x() / 2, y() / 2));
    root(&mut p, l1, false);
    // 10–11: band weighting by the remapped images.
    let lr0 = p.func("lr0", w, h);
    p.define(lr0, l0.at(x(), y()) * (r0.at(x(), y()) * 0.5 + 0.5));
    root(&mut p, lr0, false);
    let lr1 = p.func("lr1", w / 2, h / 2);
    p.define(lr1, l1.at(x(), y()) * (r1.at(x(), y()) * 0.5 + 0.5));
    root(&mut p, lr1, false);
    // 12: coarse base.
    let base = p.func("base", w / 4, h / 4);
    p.define(base, r2.at(x(), y()) * 0.9 + 0.05);
    root(&mut p, base, false);
    // 13–14: collapse into level 1, smooth.
    let c1 = p.func("c1", w / 2, h / 2);
    p.define(c1, base.at(x() / 2, y() / 2) + lr1.at(x(), y()));
    root(&mut p, c1, false);
    let c1s = p.func("c1s", w / 2, h / 2);
    p.define(c1s, (c1.at(x() - 1, y()) + c1.at(x(), y()) + c1.at(x() + 1, y())) / 3.0);
    root(&mut p, c1s, true);
    // 15–16: collapse into level 0, smooth.
    let c0 = p.func("c0", w, h);
    p.define(c0, c1s.at(x() / 2, y() / 2) + lr0.at(x(), y()));
    root(&mut p, c0, false);
    let c0s = p.func("c0s", w, h);
    p.define(c0s, (c0.at(x(), y() - 1) + c0.at(x(), y()) + c0.at(x(), y() + 1)) / 3.0);
    root(&mut p, c0s, true);
    // 17–23: detail boost / tone chain.
    let detail = p.func("detail", w, h);
    p.define(detail, c0s.at(x(), y()) - input.at(x(), y()));
    root(&mut p, detail, false);
    let boost = p.func("boost", w, h);
    p.define(boost, input.at(x(), y()) + detail.at(x(), y()) * 0.7);
    root(&mut p, boost, false);
    let lo = p.func("clamp_lo", w, h);
    p.define(lo, boost.at(x(), y()).max(0.0));
    root(&mut p, lo, false);
    let hi = p.func("clamp_hi", w, h);
    p.define(hi, lo.at(x(), y()).min(1.0));
    root(&mut p, hi, false);
    let contrast = p.func("contrast", w, h);
    p.define(contrast, (hi.at(x(), y()) - 0.5) * 1.1 + 0.5);
    root(&mut p, contrast, false);
    let blend = p.func("blend", w, h);
    p.define(blend, (contrast.at(x(), y()) + input.at(x(), y())) * 0.5);
    root(&mut p, blend, false);
    let out = p.func("out", w, h);
    p.define(out, blend.at(x(), y()).clamp(0.0, 1.0));
    root(&mut p, out, false);

    let pipeline = p.build(out).expect("local laplacian pipeline");
    assert_eq!(pipeline.stage_count(), 23, "stage count matches Table II");
    Workload {
        name: "LocalLaplacian",
        family: WorkloadFamily::Image,
        multi_stage: true,
        stages: 23,
        pipeline,
        inputs: vec![(input.id(), synthetic_image(w, h, 9))],
        scale,
        flops_per_pixel: 40.0,
        gpu_bytes_per_pixel: 36.0,
        output_pixels: scale.pixels(),
    }
}

/// Stencil chain (32 stages): 32 chained 3×3 stencils.
pub fn stencil_chain(scale: WorkloadScale) -> Workload {
    let (w, h) = (scale.width, scale.height);
    // Large tiles bound the overlapped-halo recompute of the deep chain;
    // small images fall back to a tile whose grid still covers the 32 PEs
    // of the simulated vault slice (a fixed 16×16 fallback left e.g.
    // 64×64 with only 16 tiles — an illegal mapping).
    let legal = |tw: u32, th: u32| {
        w.is_multiple_of(tw) && h.is_multiple_of(th) && ((w / tw) * (h / th)).is_multiple_of(32)
    };
    let tile = if w >= 512 && h >= 512 {
        (64, 64)
    } else if w >= 128 && h >= 128 {
        let t = [16u32, 8, 4].into_iter().find(|&t| legal(t, t)).unwrap_or(4);
        (t, t)
    } else {
        // Below 128² the ipim-tune hill-climb (seed 0x1915) found the
        // rectangular 16×8 tile 1.75× faster than the square 8×8
        // fallback at 64×64 (3386153 → 1937208 cycles, output verified
        // against the CPU interpreter). Prefer it wherever legal; keep
        // the square ladder behind it — at 32×32 a 16×8 grid has only 8
        // tiles, and the best legal rectangle there (8×4) drifts past
        // the reference tolerance, so the 4×4 square stays the default.
        [(16u32, 8u32), (16, 16), (8, 8), (4, 4)]
            .into_iter()
            .find(|&(tw, th)| legal(tw, th))
            .unwrap_or((4, 4))
    };
    let mut p = PipelineBuilder::new();
    let input = p.input("in", w, h);
    let mut prev = input;
    let mut last = input;
    for k in 0..32 {
        let f = p.func(&format!("st{k}"), w, h);
        p.define(
            f,
            (prev.at(x() - 1, y() - 1)
                + prev.at(x(), y() - 1)
                + prev.at(x() + 1, y() - 1)
                + prev.at(x() - 1, y())
                + prev.at(x(), y())
                + prev.at(x() + 1, y())
                + prev.at(x() - 1, y() + 1)
                + prev.at(x(), y() + 1)
                + prev.at(x() + 1, y() + 1))
                / 9.0,
        );
        p.schedule(f).compute_root().ipim_tile(tile.0, tile.1).load_pgsm();
        prev = f;
        last = f;
    }
    let pipeline = p.build(last).expect("stencil chain pipeline");
    Workload {
        name: "StencilChain",
        family: WorkloadFamily::Image,
        multi_stage: true,
        stages: 32,
        pipeline,
        inputs: vec![(input.id(), synthetic_image(w, h, 10))],
        scale,
        flops_per_pixel: 32.0 * 9.0,
        gpu_bytes_per_pixel: 40.0, // long chain: intermediates spill to DRAM
        output_pixels: scale.pixels(),
    }
}
