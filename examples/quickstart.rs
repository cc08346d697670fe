//! Quickstart: define an algorithm and an iPIM schedule, compile it, run it
//! on the cycle-accurate simulator, and inspect the result.
//!
//! Run with: `cargo run --release --example quickstart`

use ipim_core::frontend::{x, y, Image, PipelineBuilder};
use ipim_core::{MachineConfig, Session};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Algorithm (pure, schedule-independent — the Halide philosophy) ---
    let mut p = PipelineBuilder::new();
    let input = p.input("in", 256, 256);
    let blurx = p.func("blurx", 256, 256);
    p.define(blurx, (input.at(x() - 1, y()) + input.at(x(), y()) + input.at(x() + 1, y())) / 3.0);
    let out = p.func("out", 256, 256);
    p.define(out, (blurx.at(x(), y() - 1) + blurx.at(x(), y()) + blurx.at(x(), y() + 1)) / 3.0);

    // --- Schedule (paper Listing 1): tile over the PE hierarchy, stage
    //     tiles in the process-group scratchpad. ---
    p.schedule(out).compute_root().ipim_tile(8, 8).load_pgsm();
    let pipeline = p.build(out)?;

    // --- Compile and run on a one-vault slice (32 near-bank PEs). ---
    let session = Session::new(MachineConfig::vault_slice(1));
    let img = Image::gradient(256, 256);
    let outcome = session.run_pipeline(&pipeline, &[(input.id(), img)], 1_000_000_000)?;

    println!("== iPIM quickstart: 3x3 separable blur on 256x256 ==");
    println!("static instructions : {}", outcome.compiled.static_instructions);
    println!("cycles              : {}", outcome.report.cycles);
    println!("IPC                 : {:.3}", outcome.report.stats.ipc());
    println!(
        "DRAM traffic        : {} accesses ({} bytes)",
        outcome.report.stats.dram_accesses,
        outcome.report.dram_bytes()
    );
    println!(
        "row-buffer locality : {} hits / {} misses / {} conflicts",
        outcome.report.locality.row_hits,
        outcome.report.locality.row_misses,
        outcome.report.locality.row_conflicts
    );
    println!("energy              : {:.2} µJ", outcome.report.energy.total_j() * 1e6);
    println!("energy per pixel    : {:.1} pJ", outcome.energy_pj_per_pixel());
    println!("throughput (slice)  : {:.2} Gpixel/s", outcome.pixels_per_second() / 1e9);
    println!("output[128,128]     : {:.4}", outcome.output.get(128, 128));
    Ok(())
}
