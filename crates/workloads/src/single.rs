//! The six single-stage benchmarks of Table II.

use ipim_frontend::{x, y, PipelineBuilder};

use crate::images::synthetic_image;
use crate::{Workload, WorkloadFamily, WorkloadScale};

/// Tile shape for the single-stage kernels: wide tiles enable deep
/// unrolling (memory-level parallelism) at realistic scales, while small
/// test images fall back to 8×8 so the grid still covers every PE.
fn simple_tile(out_w: u32) -> (u32, u32) {
    if out_w >= 256 {
        (32, 8)
    } else {
        (8, 8)
    }
}

/// `out(x,y) = α · in(x,y)` — pure elementwise, completely bandwidth-bound.
pub fn brighten(scale: WorkloadScale) -> Workload {
    let (w, h) = (scale.width, scale.height);
    let mut p = PipelineBuilder::new();
    let input = p.input("in", w, h);
    let out = p.func("out", w, h);
    p.define(out, input.at(x(), y()) * 1.5);
    let t = simple_tile(w);
    p.schedule(out).compute_root().ipim_tile(t.0, t.1);
    let pipeline = p.build(out).expect("brighten pipeline");
    Workload {
        name: "Brighten",
        family: WorkloadFamily::Image,
        multi_stage: false,
        stages: 1,
        pipeline,
        inputs: vec![(input.id(), synthetic_image(w, h, 1))],
        scale,
        flops_per_pixel: 1.0,
        gpu_bytes_per_pixel: 8.0, // read + write, fp32
        output_pixels: scale.pixels(),
    }
}

/// Separable 3-tap Gaussian blur (Table II's `blur_x`/`blur_y` formulas).
pub fn blur(scale: WorkloadScale) -> Workload {
    let (w, h) = (scale.width, scale.height);
    let mut p = PipelineBuilder::new();
    let input = p.input("in", w, h);
    let bx = p.func("blur_x", w, h);
    p.define(bx, (input.at(x(), y()) + input.at(x() + 1, y()) + input.at(x() + 2, y())) / 3.0);
    let t = simple_tile(w);
    p.schedule(bx).compute_root().ipim_tile(t.0, t.1).load_pgsm();
    let out = p.func("blur_y", w, h);
    p.define(out, (bx.at(x(), y()) + bx.at(x(), y() + 1) + bx.at(x(), y() + 2)) / 3.0);
    p.schedule(out).compute_root().ipim_tile(t.0, t.1).load_pgsm();
    let pipeline = p.build(out).expect("blur pipeline");
    Workload {
        name: "Blur",
        family: WorkloadFamily::Image,
        multi_stage: false,
        stages: 2,
        pipeline,
        inputs: vec![(input.id(), synthetic_image(w, h, 2))],
        scale,
        flops_per_pixel: 8.0,
        gpu_bytes_per_pixel: 8.0, // fused: read input once, write output
        output_pixels: scale.pixels(),
    }
}

/// 2× box downsample with the paper's exact two-pass formula.
pub fn downsample(scale: WorkloadScale) -> Workload {
    let (w, h) = (scale.width, scale.height);
    let mut p = PipelineBuilder::new();
    let input = p.input("in", w, h);
    let d = p.func("d", w / 2, h);
    p.define(
        d,
        (input.at(2 * x() - 1, y()) + input.at(2 * x(), y()) * 2.0 + input.at(2 * x() + 1, y()))
            / 4.0,
    );
    let t = simple_tile(w / 2);
    p.schedule(d).compute_root().ipim_tile(t.0, t.1).load_pgsm();
    let out = p.func("out", w / 2, h / 2);
    p.define(
        out,
        (d.at(x(), 2 * y() - 1) + d.at(x(), 2 * y()) * 2.0 + d.at(x(), 2 * y() + 1)) / 4.0,
    );
    p.schedule(out).compute_root().ipim_tile(t.0, t.1).load_pgsm();
    let pipeline = p.build(out).expect("downsample pipeline");
    Workload {
        name: "Downsample",
        family: WorkloadFamily::Image,
        multi_stage: false,
        stages: 2,
        pipeline,
        inputs: vec![(input.id(), synthetic_image(w, h, 3))],
        scale,
        flops_per_pixel: 12.0,
        gpu_bytes_per_pixel: 20.0, // reads 4 input pixels per output + write
        output_pixels: scale.pixels() / 4,
    }
}

/// 2× bilinear-ish upsample with the paper's exact two-pass formula.
pub fn upsample(scale: WorkloadScale) -> Workload {
    // Keep the *output* at the nominal scale (the paper upsamples to the
    // target resolution), so the input is half-size.
    let (ow, oh) = (scale.width, scale.height);
    let (iw, ih) = (ow / 2, oh / 2);
    let mut p = PipelineBuilder::new();
    let input = p.input("in", iw, ih);
    let u = p.func("u", ow, ih);
    p.define(u, (input.at(x() / 2, y()) + input.at((x() + 1) / 2, y())) / 2.0);
    let t = simple_tile(ow);
    p.schedule(u).compute_root().ipim_tile(t.0, t.1);
    let out = p.func("out", ow, oh);
    p.define(out, (u.at(x(), y() / 2) + u.at(x(), (y() + 1) / 2)) / 2.0);
    p.schedule(out).compute_root().ipim_tile(t.0, t.1);
    let pipeline = p.build(out).expect("upsample pipeline");
    Workload {
        name: "Upsample",
        family: WorkloadFamily::Image,
        multi_stage: false,
        stages: 2,
        pipeline,
        inputs: vec![(input.id(), synthetic_image(iw, ih, 4))],
        scale,
        flops_per_pixel: 4.0,
        gpu_bytes_per_pixel: 5.0, // 1/4 input read amortized + write
        output_pixels: scale.pixels(),
    }
}

/// `out(x,y) = in(x-4, y-4)` — pure data movement with offset indexing.
pub fn shift(scale: WorkloadScale) -> Workload {
    let (w, h) = (scale.width, scale.height);
    let mut p = PipelineBuilder::new();
    let input = p.input("in", w, h);
    let out = p.func("out", w, h);
    p.define(out, input.at(x() - 4, y() - 4));
    let t = simple_tile(w);
    p.schedule(out).compute_root().ipim_tile(t.0, t.1);
    let pipeline = p.build(out).expect("shift pipeline");
    Workload {
        name: "Shift",
        family: WorkloadFamily::Image,
        multi_stage: false,
        stages: 1,
        pipeline,
        inputs: vec![(input.id(), synthetic_image(w, h, 5))],
        scale,
        flops_per_pixel: 0.0,
        gpu_bytes_per_pixel: 8.0,
        output_pixels: scale.pixels(),
    }
}

/// 64-bin histogram over the full image (Table II's `RDom` reduction).
pub fn histogram(scale: WorkloadScale) -> Workload {
    let (w, h) = (scale.width, scale.height);
    let mut p = PipelineBuilder::new();
    let input = p.input("in", w, h);
    let out = p.func("histogram", 64, 1);
    p.define_histogram(out, input, 0.0, 1.0);
    let t = simple_tile(w);
    p.schedule(out).compute_root().ipim_tile(t.0, t.1);
    let pipeline = p.build(out).expect("histogram pipeline");
    Workload {
        name: "Histogram",
        family: WorkloadFamily::Image,
        multi_stage: false,
        stages: 1,
        pipeline,
        inputs: vec![(input.id(), synthetic_image(w, h, 6))],
        scale,
        flops_per_pixel: 3.0,
        // The paper observes the GPU schedule is far from bandwidth-bound
        // for Histogram (atomics dominate): model with heavy effective
        // traffic per pixel.
        gpu_bytes_per_pixel: 16.0,
        output_pixels: scale.pixels(),
    }
}
