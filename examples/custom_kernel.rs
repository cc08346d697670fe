//! Writing a custom kernel with data-dependent gathers: a tone-mapping
//! curve applied through a lookup table — the SIMB ISA's `mov drf/arf`
//! flexible-indexing path in action.
//!
//! Run with: `cargo run --release --example custom_kernel`

use ipim_core::frontend::{x, y, Image, PipelineBuilder};
use ipim_core::{MachineConfig, Session};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const N: u32 = 64; // LUT entries

    let mut p = PipelineBuilder::new();
    let input = p.input("in", 128, 128);
    let lut = p.input("tone_curve", N, 1);

    // Local contrast: blend each pixel with a LUT-remapped version of
    // itself, where the LUT index is the pixel's own value (a dynamic
    // gather the compiler lowers to per-lane mov/clamp/load sequences on a
    // bank-replicated buffer).
    let out = p.func("tonemapped", 128, 128);
    let v = input.at(x(), y());
    let remapped = lut.at((v.clone() * (N as f32 - 0.5)).cast_i32(), 0);
    p.define(out, v * 0.3 + remapped * 0.7);
    p.schedule(out).compute_root().ipim_tile(8, 8);
    let pipeline = p.build(out)?;

    // An S-shaped tone curve.
    let mut curve = Image::new(N, 1);
    for i in 0..N {
        let t = i as f32 / (N - 1) as f32;
        curve.set(i, 0, t * t * (3.0 - 2.0 * t));
    }

    let session = Session::new(MachineConfig::vault_slice(1));
    let img = Image::gradient(128, 128);
    let outcome = session.run_pipeline(
        &pipeline,
        &[(input.id(), img.clone()), (lut.id(), curve)],
        500_000_000,
    )?;

    println!("== Custom kernel: LUT tone mapping (data-dependent gather) ==");
    println!("cycles          : {}", outcome.report.cycles);
    println!(
        "index calc share: {:.1}%",
        100.0
            * outcome
                .report
                .stats
                .by_category
                .fraction(outcome.report.stats.by_category.index_calc)
    );
    println!("AddrRF accesses : {}", outcome.report.stats.addr_rf_accesses);
    for (gx, gy) in [(0u32, 0u32), (64, 64), (127, 127)] {
        println!(
            "pixel ({gx:>3},{gy:>3}): {:.4} -> {:.4}",
            img.get(gx, gy),
            outcome.output.get(gx, gy)
        );
    }
    Ok(())
}
