//! Units audit: pins that pJ/op and GB/s mean the same thing across the
//! three energy/bandwidth paths a matrix row mixes — the cycle engines'
//! composed `EnergyBook`, the V100 roofline model, and the PonB
//! placement — so silent unit drift (pJ vs nJ, bytes/cycle vs GB/s)
//! between `compose_energy` and `crates/baselines` fails here, not in a
//! subtly wrong REPORT.md. It also pins the one slice-to-machine
//! normalization against an independent live computation.
//!
//! Blur 64² is the probe: a Table II workload the paper reports on both
//! sides, and one that maps on every backend at this scale.

use std::path::Path;

use ipim_core::baselines::{gpu_profile, run_gpu, GpuModel};
use ipim_core::{workload_by_name, MachineConfig, Placement, Session, WorkloadScale};
use ipim_report::paper::{find, versus};
use ipim_report::{arith_ops, read_matrix, Backend, Bound, MatrixCell};

fn blur64() -> ipim_core::Workload {
    workload_by_name("Blur", WorkloadScale { width: 64, height: 64 }).expect("Table II workload")
}

/// GB/s on a 1 GHz machine is definitionally bytes/cycle: the report's
/// bandwidth accessor and the raw counters must agree exactly, and the
/// matrix cell must carry that same number.
#[test]
fn cycle_engine_bandwidth_is_bytes_per_cycle() {
    let w = blur64();
    let session = Session::new(MachineConfig::vault_slice(1));
    let o = session.run_workload(&w, 2_000_000_000).expect("run");
    let r = &o.report;
    assert!(r.cycles > 0 && r.dram_bytes() > 0);
    let gbs = r.dram_bytes() as f64 / r.cycles as f64;
    assert_eq!(r.dram_bandwidth_gbs(), gbs, "GB/s must be bytes/cycle at 1 GHz");
    // seconds() uses the same 1 GHz clock: bytes/seconds = GB/s × 1e9.
    let bw_si = r.dram_bytes() as f64 / r.seconds();
    assert!((bw_si / 1e9 - gbs).abs() < 1e-9, "SI path disagrees: {bw_si} vs {gbs}");

    let cell = MatrixCell::from_engine_run(&w, Backend::SkipAhead, r);
    assert_eq!(cell.gbps, Some(gbs));
    assert_eq!(cell.cycles, Some(r.cycles));
    assert_eq!(cell.kernel_ns, r.cycles as f64, "1 GHz: cycles ≡ ns");
    // The near-bank roof is total_pes × 16 B/cycle = 512 GB/s on a slice.
    assert_eq!(cell.peak_gbps, Some(512.0));
    assert!(cell.gbps.unwrap() < cell.peak_gbps.unwrap(), "under the roof");
}

/// The composed EnergyBook total, divided by the workload's arithmetic
/// op count, is the cell's pJ/op — and it lands in the physically
/// plausible window the paper's Table III constants imply (SIMD alone is
/// 87.37 pJ/instruction across 32 lanes).
#[test]
fn cycle_engine_energy_is_composed_picojoules() {
    let w = blur64();
    let session = Session::new(MachineConfig::vault_slice(1));
    let o = session.run_workload(&w, 2_000_000_000).expect("run");
    let total_pj = o.report.energy.total_pj();
    assert!((o.report.energy.total_j() - total_pj * 1e-12).abs() < 1e-18, "pJ ↔ J");
    let ops = arith_ops(&w);
    assert_eq!(ops, w.flops_per_pixel * w.output_pixels as f64);
    let cell = MatrixCell::from_engine_run(&w, Backend::SkipAhead, &o.report);
    let pj_per_op = cell.pj_per_op.expect("engine cells carry energy");
    assert_eq!(pj_per_op, total_pj / ops);
    assert!(
        (0.1..10_000.0).contains(&pj_per_op),
        "implausible pJ/op {pj_per_op} — unit drift between compose_energy and the cell?"
    );
}

/// The GPU roofline's energy is seconds × board-watts; the cell converts
/// J → pJ with the same op denominator the engines use. Cross-model
/// check: iPIM's near-bank energy per op beats the V100's (the paper's
/// Fig. 7 direction), which only holds when both sides are in the same
/// unit.
#[test]
fn gpu_model_agrees_on_units_and_direction() {
    let w = blur64();
    let model = GpuModel::default();
    let r = run_gpu(&model, &w);
    assert!((r.energy_j - r.seconds * model.power_w).abs() < 1e-15, "E = P × t");
    let cell = MatrixCell::from_gpu(&w);
    let ops = arith_ops(&w);
    let gpu_pj_per_op = cell.pj_per_op.expect("gpu cells carry energy");
    assert!((gpu_pj_per_op - r.energy_j * 1e12 / ops).abs() < 1e-6);
    assert_eq!(cell.kernel_ns, r.seconds * 1e9);
    assert_eq!(cell.peak_gbps, Some(900.0), "V100 HBM2 roof in GB/s");
    assert!((cell.gbps.unwrap() - r.achieved_bw / 1e9).abs() < 1e-9);
    // Roofline classification: Blur's index-calculation inflation makes
    // its ALU term win (Fig. 1(b) — 66 % of ALU work is indexing), so
    // its achieved bandwidth sits *under* the profiled roof; Brighten's
    // bandwidth term wins and its achieved bandwidth *is* the roof.
    let roof = model.peak_bw * gpu_profile(w.name).dram_util;
    assert!(r.achieved_bw < roof * (1.0 - 1e-9), "Blur is ALU-bound in the model");
    assert_eq!(cell.bound, Bound::Compute);
    let brighten = workload_by_name("Brighten", WorkloadScale { width: 64, height: 64 }).unwrap();
    let b = run_gpu(&model, &brighten);
    let b_roof = model.peak_bw * gpu_profile(brighten.name).dram_util;
    assert!((b.achieved_bw - b_roof).abs() <= b_roof * 1e-9);
    assert_eq!(MatrixCell::from_gpu(&brighten).bound, Bound::Memory);

    let session = Session::new(MachineConfig::vault_slice(1));
    let o = session.run_workload(&w, 2_000_000_000).expect("run");
    let ipim_pj_per_op = o.report.energy.total_pj() / ops;
    assert!(
        ipim_pj_per_op < gpu_pj_per_op,
        "iPIM ({ipim_pj_per_op} pJ/op) must beat the GPU ({gpu_pj_per_op} pJ/op) on Blur — \
         if not, one side changed units"
    );
}

/// PonB is the same machine with base-die placement: 32× lower raw
/// bandwidth roof, strictly more cycles, same energy accounting path —
/// the matrix cell's roof must reflect the placement, not the default.
#[test]
fn ponb_placement_shrinks_the_roof_not_the_units() {
    let w = blur64();
    let near = Session::new(MachineConfig::vault_slice(1));
    let ponb = Session::new(MachineConfig {
        placement: Placement::BaseDie,
        ..MachineConfig::vault_slice(1)
    });
    let a = near.run_workload(&w, 2_000_000_000).expect("near-bank run");
    let b = ponb.run_workload(&w, 4_000_000_000).expect("base-die run");
    assert!(b.report.cycles > a.report.cycles, "TSV serialization must cost cycles");

    let near_cell = MatrixCell::from_engine_run(&w, Backend::SkipAhead, &a.report);
    let ponb_cell = MatrixCell::from_engine_run(&w, Backend::Ponb, &b.report);
    assert_eq!(near_cell.peak_gbps, Some(512.0));
    assert_eq!(ponb_cell.peak_gbps, Some(16.0), "base-die: vault TSV bundle only");
    assert_eq!(
        near_cell.peak_gbps.unwrap() / ponb_cell.peak_gbps.unwrap(),
        32.0,
        "the paper's raw 32× placement gap"
    );
    // Both placements move the same bytes for the same algorithm; only
    // time (and thus effective GB/s) differs.
    assert_eq!(a.report.dram_bytes(), b.report.dram_bytes());
    assert!(ponb_cell.gbps.unwrap() < near_cell.gbps.unwrap());
}

/// The report's Fig. 6 speedup for Blur 128², read from the committed
/// cells through `scale_out`, equals a live computation the other way
/// round: iPIM pixels per simulated second on the slice times the
/// 4096/32 PE ratio, over the V100 roofline's pixels per second at the
/// DIV8K pixel count.
#[test]
fn fig6_speedup_matches_a_live_div8k_comparison() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/matrix.jsonl");
    let cells = read_matrix(&path).unwrap_or_else(|e| panic!("committed matrix: {e}"));
    let row = versus(&cells).into_iter().find(|v| v.skip.workload == "Blur" && v.skip.scale == 128);
    let rendered = row.expect("committed Blur 128² cells").speedup_vs_gpu().expect("gpu partner");
    assert!(find(&cells, "Blur", 128, Backend::Gpu, None).is_some());

    let w = workload_by_name("Blur", WorkloadScale { width: 128, height: 128 }).unwrap();
    let o = Session::new(MachineConfig::vault_slice(1)).run_workload(&w, 2_000_000_000).unwrap();
    let factor = MachineConfig::default().total_pes() as f64
        / MachineConfig::vault_slice(1).total_pes() as f64;
    let ipim_pps = w.output_pixels as f64 / o.report.seconds() * factor;
    let mut div8k = w.clone();
    let ratio = WorkloadScale::div8k().pixels() as f64 / w.scale.pixels() as f64;
    div8k.output_pixels = (w.output_pixels as f64 * ratio) as u64;
    div8k.scale = WorkloadScale::div8k();
    let live = ipim_pps / run_gpu(&GpuModel::default(), &div8k).pixels_per_second;
    assert!(
        ((rendered - live) / live).abs() < 1e-9,
        "rendered {rendered} vs live {live}: the report's normalization drifted"
    );
}
