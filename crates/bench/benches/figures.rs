//! Micro-benchmarks on the simkit timer (`cargo bench -p ipim-bench`):
//! the machine-speed anchor, the static table models, the gated
//! end-to-end engine kernels and compiler throughput. The figures' own
//! simulations are benchmark-matrix cells (`ipim-report --bin matrix`),
//! whose per-cell `wall_ns` the `bench_regress --matrix` gate checks.
//! Results append to `results/figures.jsonl`, one JSON object per
//! benchmark, for later perf PRs to diff against.

use ipim_core::{
    all_workloads, area, compile, power, workload_by_name, CompileOptions, EnergyParams, Engine,
    MachineConfig, Session, WorkloadScale,
};
use ipim_simkit::{Bench, BenchConfig};

fn small() -> WorkloadScale {
    WorkloadScale { width: 128, height: 128 }
}

/// Fig. 1: the GPU-profile model (pure computation), also the
/// machine-speed anchor.
fn fig01(b: &mut Bench) {
    b.bench(ipim_report::ANCHOR_NAME, ipim_report::gpu_profile_rows);
}

/// Table I: ISA encode/decode throughput over a full workload program.
fn table1(b: &mut Bench) {
    let w = workload_by_name("Blur", small()).unwrap();
    let compiled =
        compile(&w.pipeline, &MachineConfig::vault_slice(1), &CompileOptions::opt()).unwrap();
    b.bench("table1_isa_encode_program", || {
        let mut bytes = 0usize;
        for inst in compiled.program.instructions() {
            bytes += ipim_core::isa::encode(inst).len();
        }
        bytes
    });
}

/// Tables III/IV + thermal: configuration/area/power models.
fn tables_3_4(b: &mut Bench) {
    b.bench("table3_config_validate", || MachineConfig::default().validate().is_ok());
    b.bench("table4_area_model", area::total_overhead_pct);
    b.bench("thermal_peak_power", || {
        power::peak_power_per_cube(&MachineConfig::default(), &EnergyParams::default())
    });
}

/// The `tests/end_to_end.rs` hot path: compile+simulate+verify of the
/// deepest pipeline under each cycle engine, so perf PRs can diff the
/// skip-ahead engine's wall-clock (and its margin over legacy) run-to-run.
fn end_to_end(b: &mut Bench) {
    let w = workload_by_name("StencilChain", small()).unwrap();
    for (label, engine) in [("legacy", Engine::Legacy), ("skip_ahead", Engine::SkipAhead)] {
        let session = Session::new(MachineConfig { engine, ..MachineConfig::vault_slice(1) });
        b.bench_with(BenchConfig { warmup: 1, iters: 3 }, &format!("end_to_end/{label}"), || {
            let o = session.run_workload(&w, 4_000_000_000).unwrap();
            ipim_core::experiments::verify_against_reference(&w, &o);
            o.report.cycles
        });
    }
}

/// Compiler-only throughput: how fast the full backend compiles Table II.
fn compiler_throughput(b: &mut Bench) {
    let cfg = MachineConfig::vault_slice(1);
    let ws = all_workloads(small());
    b.bench("compile_all_table2", || {
        ws.iter()
            .map(|w| {
                compile(&w.pipeline, &cfg, &CompileOptions::opt()).unwrap().static_instructions
            })
            .sum::<usize>()
    });
}

fn main() {
    let mut b = Bench::new("figures");
    fig01(&mut b);
    table1(&mut b);
    tables_3_4(&mut b);
    end_to_end(&mut b);
    compiler_throughput(&mut b);
    b.finish().expect("write results");
}
