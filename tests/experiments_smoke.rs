//! Smoke tests over the paper's experiments: the figures have the paper's
//! shape, read from the committed `results/matrix.jsonl` through the same
//! views `REPORT.md` renders, plus the static tables and the
//! slice-to-machine normalization.

use std::path::Path;

use ipim_core::{workload_by_name, MachineConfig, Session, WorkloadScale};
use ipim_report::paper::{energy_shares, find, inst_shares, ipc, table2, versus, NO_PAPER_SCALE};
use ipim_report::{
    geomean, gpu_profile_rows, paper_scale, read_matrix, render, scale_out, Backend, MatrixCell,
    Streams,
};

fn committed_cells() -> Vec<MatrixCell> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/matrix.jsonl");
    read_matrix(&path).unwrap_or_else(|e| panic!("committed matrix: {e}"))
}

#[test]
fn fig1_profiles_have_the_bandwidth_bound_shape() {
    let rows = gpu_profile_rows();
    assert_eq!(rows.len(), 10);
    for r in &rows {
        assert!(r.dram_util >= 9.0 * r.alu_util, "{}: not bandwidth-bound", r.name);
    }
    let hist = rows.iter().find(|r| r.name == "Histogram").unwrap();
    assert!(hist.dram_util < 0.2, "histogram GPU schedule is anomalous");
}

#[test]
fn suite_wide_figures_have_paper_shapes() {
    let cells = committed_cells();
    let scale = paper_scale(&cells).expect("the committed matrix has a paper scale");
    let names: Vec<&str> = table2().map(|(name, _)| name).collect();
    let table2: Vec<&MatrixCell> = names
        .iter()
        .map(|w| find(&cells, w, scale, Backend::SkipAhead, None).expect("paper-scale cell"))
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;

    // Figs. 6/7: iPIM wins on throughput and energy on average.
    let rows: Vec<_> = versus(&cells).into_iter().filter(|v| v.skip.scale == scale).collect();
    let at = |n: &str| rows.iter().find(|v| v.skip.workload == n).unwrap();
    let speedup = |n: &str| at(n).speedup_vs_gpu().unwrap();
    let speedups: Vec<f64> = names.iter().map(|n| speedup(n)).collect();
    assert!(geomean(&speedups) > 2.0, "mean speedup {}", geomean(&speedups));
    // Histogram's parallel-partial-reduction schedule gives the largest
    // win (the paper's 43.78x outlier), and single-stage kernels beat the
    // pyramid pipelines.
    assert_eq!(speedup("Histogram"), speedups.iter().copied().fold(0.0, f64::max));
    assert!(speedup("Brighten") > speedup("Interpolate"));
    assert!(speedup("Brighten") > speedup("LocalLaplacian"));
    let savings: Vec<f64> = names.iter().map(|n| at(n).saving_vs_gpu().unwrap()).collect();
    assert!(mean(&savings) > 0.5, "mean energy saving {}", mean(&savings));

    // Fig. 9: most energy is spent on the PIM dies.
    for c in &table2 {
        let s = energy_shares(c).expect("engine cells carry the energy split");
        assert!(s[7] > 0.5, "{}: pim-die fraction {}", c.workload, s[7]);
        let sum: f64 = s[..7].iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "{}: fractions sum to {sum}", c.workload);
    }

    // Fig. 11: index calculation is a large share; inter-vault is small.
    let inst: Vec<[f64; 6]> = table2.iter().map(|c| inst_shares(c).unwrap()).collect();
    let mean_index = mean(&inst.iter().map(|s| s[1]).collect::<Vec<_>>());
    assert!(mean_index > 0.10, "mean index share {mean_index}");
    for (c, s) in table2.iter().zip(&inst) {
        assert!(s[3] < 0.10, "{}: inter-vault share {}", c.workload, s[3]);
    }

    // Fig. 13: IPC is meaningfully below 1 but not degenerate.
    let mean_ipc = mean(&table2.iter().map(|c| ipc(c).unwrap()).collect::<Vec<_>>());
    assert!(mean_ipc > 0.2 && mean_ipc < 1.0, "mean IPC {mean_ipc}");
}

#[test]
fn scale_out_factor() {
    let cells = committed_cells();
    let blur = |config| find(&cells, "Blur", 128, Backend::SkipAhead, config).unwrap();
    // 4096 PEs in the paper machine over 32 in the slice, or 64 in two vaults.
    assert_eq!(scale_out(blur(None)), Some(128.0));
    assert_eq!(scale_out(blur(Some("vaults2"))), Some(64.0));
    let gpu = find(&cells, "Blur", 128, Backend::Gpu, None).unwrap();
    assert_eq!(scale_out(gpu), None, "the GPU cell is a whole machine already");
}

#[test]
fn geomean_of_known_values() {
    assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    assert_eq!(geomean(&[]), 0.0);
}

#[test]
fn no_paper_scale_loud_skips_every_simulated_section() {
    // Below 128² some Table II schedules do not map, so no scale has all
    // ten default skip_ahead cells.
    let cells: Vec<MatrixCell> = committed_cells().into_iter().filter(|c| c.scale < 128).collect();
    assert_eq!(paper_scale(&cells), None);
    let text = render(&Streams { cells, ..Streams::default() });
    let section = |heading: &str| {
        let rest = &text[text.find(heading).unwrap_or_else(|| panic!("{heading}"))..];
        rest[..rest[3..].find("\n## ").map_or(rest.len(), |i| i + 4)].to_string()
    };
    for heading in [
        "## Paper comparison",
        "## Figs. 6–8",
        "## Fig. 9 ",
        "## Fig. 10 ",
        "## Fig. 11 ",
        "## Fig. 12 ",
        "## Fig. 13 ",
        "## Ablation",
    ] {
        assert!(section(heading).contains(NO_PAPER_SCALE), "{heading}: {}", section(heading));
    }
    let headline = section("## Paper comparison");
    assert!(headline.contains("| speedup vs GPU (geomean) | — | 11.02× |"), "{headline}");
    assert!(headline.contains("| area overhead per DRAM die | 10.71% | 10.71% |"), "{headline}");
    // The every-cell Figs. 6–8 table still renders the cells it has.
    assert!(section("## Figs. 6–8").contains("| Histogram | 64 |"));
}

#[test]
fn table4_area_matches_paper() {
    assert!((ipim_core::area::total_overhead_pct() - 10.71).abs() < 0.05);
    let ratio =
        ipim_core::area::naive_per_bank_core_overhead_pct() / ipim_core::area::total_overhead_pct();
    assert!(ratio > 10.0);
}

#[test]
fn thermal_power_fits_cooling() {
    let p = ipim_core::power::peak_power_per_cube(
        &ipim_core::MachineConfig::default(),
        &ipim_core::EnergyParams::default(),
    );
    assert!(p.fits_cooling(ipim_core::power::COMMODITY_COOLING_MW_PER_MM2));
}

#[test]
fn slice_scale_out_is_near_linear() {
    // The scale-out claim (DESIGN.md §2): vaults run lockstep SPMD, so a
    // 2-vault slice on the same image finishes in about half the cycles.
    let scale = WorkloadScale { width: 128, height: 128 };
    let w = workload_by_name("Blur", scale).unwrap();
    let one = Session::new(MachineConfig::vault_slice(1))
        .run_workload(&w, 2_000_000_000)
        .expect("1 vault")
        .report
        .cycles as f64;
    let two = Session::new(MachineConfig::vault_slice(2))
        .run_workload(&w, 2_000_000_000)
        .expect("2 vaults")
        .report
        .cycles as f64;
    let ratio = one / two;
    assert!((1.6..=2.4).contains(&ratio), "2-vault slice should be ~2x faster, got {ratio:.2}x");
}
