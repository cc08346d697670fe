//! The Video workload family: temporal pipelines over multiple input
//! frames. Where Table II is one image in / one image out, these take the
//! current frame *plus explicit prior-frame images* — the streaming shape
//! of per-frame video processing, with frame-to-frame state staged in
//! PGSM where a downstream stencil consumes it.

use ipim_frontend::{x, y, PipelineBuilder};

use crate::images::synthetic_image;
use crate::{ladder_tile, Workload, WorkloadFamily, WorkloadScale};

/// Per-frame delta: `out = |cur − prev|` — the cheapest temporal kernel,
/// two full-frame reads per output pixel (change detection / motion
/// gating).
pub fn frame_delta(scale: WorkloadScale) -> Workload {
    let (w, h) = (scale.width, scale.height);
    let tile = ladder_tile(w, h);
    let mut p = PipelineBuilder::new();
    let cur = p.input("cur", w, h);
    let prev = p.input("prev", w, h);
    let out = p.func("delta", w, h);
    p.define(out, (cur.at(x(), y()) - prev.at(x(), y())).abs());
    p.schedule(out).compute_root().ipim_tile(tile.0, tile.1);
    let pipeline = p.build(out).expect("frame delta pipeline");
    Workload {
        name: "FrameDelta",
        family: WorkloadFamily::Video,
        multi_stage: false,
        stages: 1,
        pipeline,
        inputs: vec![(cur.id(), synthetic_image(w, h, 21)), (prev.id(), synthetic_image(w, h, 22))],
        scale,
        flops_per_pixel: 2.0,
        gpu_bytes_per_pixel: 12.0, // two frame reads + write
        output_pixels: scale.pixels(),
    }
}

/// 3-frame temporal blur: `out = (f0 + 2·f1 + f2) / 4` — a purely
/// temporal 1-2-1 filter; three frames in flight, zero spatial halo.
pub fn temporal_blur(scale: WorkloadScale) -> Workload {
    let (w, h) = (scale.width, scale.height);
    let tile = ladder_tile(w, h);
    let mut p = PipelineBuilder::new();
    let f0 = p.input("frame0", w, h);
    let f1 = p.input("frame1", w, h);
    let f2 = p.input("frame2", w, h);
    let out = p.func("tblur", w, h);
    p.define(out, (f0.at(x(), y()) + f1.at(x(), y()) * 2.0 + f2.at(x(), y())) / 4.0);
    p.schedule(out).compute_root().ipim_tile(tile.0, tile.1);
    let pipeline = p.build(out).expect("temporal blur pipeline");
    Workload {
        name: "TemporalBlur",
        family: WorkloadFamily::Video,
        multi_stage: false,
        stages: 1,
        pipeline,
        inputs: vec![
            (f0.id(), synthetic_image(w, h, 23)),
            (f1.id(), synthetic_image(w, h, 24)),
            (f2.id(), synthetic_image(w, h, 25)),
        ],
        scale,
        flops_per_pixel: 4.0,
        gpu_bytes_per_pixel: 16.0, // three frame reads + write
        output_pixels: scale.pixels(),
    }
}

/// Motion energy: squared per-pixel frame difference, then a 3×3 box sum
/// over it — the local-motion-energy stencil of optical-flow front-ends.
/// The squared-difference field is the *inter-frame state*: it
/// materializes as a root stage and stages through PGSM (`load_pgsm` on
/// the consuming stencil), so the temporal term is computed once and the
/// spatial aggregation runs out of the scratchpad.
pub fn motion_energy(scale: WorkloadScale) -> Workload {
    let (w, h) = (scale.width, scale.height);
    let tile = ladder_tile(w, h);
    let mut p = PipelineBuilder::new();
    let cur = p.input("cur", w, h);
    let prev = p.input("prev", w, h);
    let d = p.func("d2", w, h);
    let diff = cur.at(x(), y()) - prev.at(x(), y());
    p.define(d, diff.clone() * diff);
    p.schedule(d).compute_root().ipim_tile(tile.0, tile.1);
    let out = p.func("energy", w, h);
    p.define(
        out,
        (d.at(x() - 1, y() - 1)
            + d.at(x(), y() - 1)
            + d.at(x() + 1, y() - 1)
            + d.at(x() - 1, y())
            + d.at(x(), y())
            + d.at(x() + 1, y())
            + d.at(x() - 1, y() + 1)
            + d.at(x(), y() + 1)
            + d.at(x() + 1, y() + 1))
            / 9.0,
    );
    p.schedule(out).compute_root().ipim_tile(tile.0, tile.1).load_pgsm();
    let pipeline = p.build(out).expect("motion energy pipeline");
    Workload {
        name: "MotionEnergy",
        family: WorkloadFamily::Video,
        multi_stage: true,
        stages: 2,
        pipeline,
        inputs: vec![(cur.id(), synthetic_image(w, h, 26)), (prev.id(), synthetic_image(w, h, 27))],
        scale,
        flops_per_pixel: 12.0,
        gpu_bytes_per_pixel: 12.0, // two frame reads + write, stencil cached
        output_pixels: scale.pixels(),
    }
}
