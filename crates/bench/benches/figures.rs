//! Micro-benchmarks on the simkit timer (`cargo bench -p ipim-bench`):
//! the machine-speed anchor and the end-to-end engine kernels that
//! `bench_regress` gates. The figures' own simulations are
//! benchmark-matrix cells (`ipim-report --bin matrix`), whose per-cell
//! `wall_ns` the `bench_regress --matrix` gate checks. Results append to
//! `results/figures.jsonl`, one JSON object per benchmark, for later perf
//! PRs to diff against.

use ipim_core::{workload_by_name, Engine, MachineConfig, Session, WorkloadScale};
use ipim_simkit::{Bench, BenchConfig};

/// Fig. 1: the GPU-profile model (pure computation), also the
/// machine-speed anchor.
fn fig01(b: &mut Bench) {
    b.bench(ipim_report::ANCHOR_NAME, ipim_report::gpu_profile_rows);
}

/// The `tests/end_to_end.rs` hot path: compile+simulate+verify of the
/// deepest pipeline under each cycle engine, so perf PRs can diff the
/// skip-ahead engine's wall-clock (and its margin over legacy) run-to-run.
fn end_to_end(b: &mut Bench) {
    let w = workload_by_name("StencilChain", WorkloadScale { width: 128, height: 128 }).unwrap();
    for (label, engine) in [("legacy", Engine::Legacy), ("skip_ahead", Engine::SkipAhead)] {
        let session = Session::new(MachineConfig { engine, ..MachineConfig::vault_slice(1) });
        b.bench_with(BenchConfig { warmup: 1, iters: 3 }, &format!("end_to_end/{label}"), || {
            let o = session.run_workload(&w, 4_000_000_000).unwrap();
            ipim_core::experiments::verify_against_reference(&w, &o);
            o.report.cycles
        });
    }
}

fn main() {
    let mut b = Bench::new("figures");
    fig01(&mut b);
    end_to_end(&mut b);
    b.finish().expect("write results");
}
