//! The paper comparison: every figure and table of the evaluation
//! (Sec. VII) next to the paper's own numbers.
//!
//! * **Simulated figures** (Figs. 6–13 and the ablation) are pure views
//!   over matrix cells: the default cells and the [`CONFIGS`] sweep cells
//!   at the *paper scale*, the largest scale at which all ten Table II
//!   workloads have a default `skip_ahead` cell. Without one they
//!   loud-skip.
//! * **Static tables** (Fig. 1, Tables I, III and IV, thermal) are pure
//!   functions of the GPU, ISA, configuration, area and power models.
//! * [`scale_out`] is the only slice-to-machine scaling: SIMB runs
//!   lockstep SPMD across vaults (DESIGN.md §2), so throughput scales
//!   with PEs. Energy ratios compare the same workload at the same scale
//!   on both sides and take no factor.
//! * The paper's numbers live in one table, `PAPER`.

use ipim_core::baselines::{gpu_profile, GpuModel};
use ipim_core::isa::{
    encode, AddrOperand, AddrReg, ArfOp, ArfSrc, CompMode, CompOp, CrfOp, CrfSrc, CtrlReg, DataReg,
    DataType, Instruction, RemoteTarget, SimbMask, VecMask,
};
use ipim_core::power::{
    peak_power_per_cube, COMMODITY_COOLING_MW_PER_MM2, CUBE_MM2, HIGH_END_COOLING_MW_PER_MM2,
};
use ipim_core::{
    area, workloads_in_family, EnergyParams, MachineConfig, WorkloadFamily, WorkloadScale,
};

use crate::matrix::{Backend, MatrixCell, ABLATION_WORKLOADS, CONFIGS, FIG10_WORKLOADS};
use crate::render::suite;

/// The paper's reported numbers (Sec. III and VII), keyed by the metric
/// label the report prints. A label without an entry prints `—`. The
/// first [`HEADLINE`] entries are the headline rows, in print order; each
/// is also a summary row of its own section.
const PAPER: &[(&str, &str)] = &[
    ("speedup vs GPU (geomean)", "11.02×"),
    ("energy saving vs GPU (mean)", "79.49%"),
    ("speedup vs PonB (geomean)", "3.61×"),
    ("energy saving vs PonB (mean)", "56.71%"),
    ("compiler optimizations (opt / baseline1, geomean)", "3.19×"),
    ("IPC (mean)", "0.63"),
    ("PIM-die energy share (mean)", "89.17%"),
    ("index-calculation share (mean)", "23.25%"),
    ("area overhead per DRAM die", "10.71%"),
    ("peak power per cube", "63 W"),
    // Fig. 1.
    ("mean DRAM bandwidth", "518 GB/s"),
    ("mean DRAM utilization", "57.55%"),
    ("mean ALU utilization", "3.43%"),
    ("mean index share of ALU work", "58.71%"),
    // Figs. 6 and 7.
    ("Brighten speedup vs GPU", "21.09×"),
    ("Blur speedup vs GPU", "4.32×"),
    ("Histogram speedup vs GPU", "43.78×"),
    ("StencilChain speedup vs GPU", "4.30×"),
    ("single-stage energy saving vs GPU", "89.26%"),
    ("multi-stage energy saving vs GPU", "66.81%"),
    // Fig. 10, normalized to the largest size.
    ("DataRF 16 entries", "1.47"),
    ("DataRF 32 entries", "1.27"),
    ("DataRF 64 entries", "1.10"),
    ("DataRF 128 entries", "1.00"),
    ("PGSM 2 KiB", "1.59"),
    ("PGSM 4 KiB", "1.39"),
    ("PGSM 8 KiB", "1.00"),
    // Fig. 11.
    ("inter-vault share (mean)", "1.44%"),
    // Fig. 12.
    ("register allocation (opt / baseline2)", "2.59×"),
    ("reordering (opt / baseline3)", "2.74×"),
    ("memory order (opt / baseline4)", "1.30×"),
    // Table IV.
    ("added area per DRAM die", "10.28 mm²"),
    ("naive per-bank control cores", "122.36%"),
    ("naive / decoupled overhead", "10.42×"),
    // Thermal.
    ("power density", "593 mW/mm²"),
    ("DRAM share of peak power", "78.5%"),
    ("fits commodity cooling (706 mW/mm²)", "yes"),
    ("fits high-end cooling (1214 mW/mm²)", "yes"),
];

/// How many leading [`PAPER`] entries the headline table shows.
const HEADLINE: usize = 10;

/// Fig. 10's sweeps as (label, config) points; `None` is the default cell
/// (64 DataRF entries, 8 KiB PGSM).
const RF_SWEEP: [(&str, Option<&str>); 4] = [
    ("DataRF 16 entries", Some("rf16")),
    ("DataRF 32 entries", Some("rf32")),
    ("DataRF 64 entries", None),
    ("DataRF 128 entries", Some("rf128")),
];
const PGSM_SWEEP: [(&str, Option<&str>); 3] =
    [("PGSM 2 KiB", Some("pgsm2k")), ("PGSM 4 KiB", Some("pgsm4k")), ("PGSM 8 KiB", None)];

/// What a simulated section prints without a paper scale.
pub const NO_PAPER_SCALE: &str = "> **skipped:** no scale has a default `skip_ahead` cell for \
     all ten Table II workloads, so this section has no paper scale to render at.\n\n";

/// The paper's value for a metric label, or `—`.
fn paper(label: &str) -> &'static str {
    PAPER.iter().find(|(l, _)| *l == label).map_or("—", |(_, v)| v)
}

/// Geometric mean of positive values (0 for none).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sum: f64 = values.iter().map(|v| v.ln()).sum();
    (sum / values.len() as f64).exp()
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// `stat` over `values`, or `None` when any is missing.
fn over(values: &[Option<f64>], stat: fn(&[f64]) -> f64) -> Option<f64> {
    let values: Vec<f64> = values.iter().copied().collect::<Option<_>>()?;
    (!values.is_empty()).then(|| stat(&values))
}

fn times(v: f64) -> String {
    format!("{v:.2}×")
}

fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

fn or_dash(v: Option<f64>, fmt: fn(f64) -> String) -> String {
    v.map_or_else(|| "—".to_string(), fmt)
}

/// The paper's Table II workloads in suite order, with their multi-stage
/// flag.
pub fn table2() -> impl Iterator<Item = (&'static str, bool)> {
    suite().iter().filter(|w| w.1 == WorkloadFamily::Image).map(|w| (w.0, w.2))
}

/// The cell at these coordinates (`config` `None`: the default slice).
pub fn find<'a>(
    cells: &'a [MatrixCell],
    workload: &str,
    scale: u32,
    backend: Backend,
    config: Option<&str>,
) -> Option<&'a MatrixCell> {
    cells.iter().find(|c| {
        c.workload == workload && c.scale == scale && c.backend == backend && c.config == config
    })
}

/// The only slice-to-machine scaling: the paper machine's PEs over the
/// PEs that produced `cell` (128 for the 1-vault slice).
pub fn scale_out(cell: &MatrixCell) -> Option<f64> {
    Some(MachineConfig::default().total_pes() as f64 / cell.pes? as f64)
}

/// The largest scale at which all ten Table II workloads have a default
/// `skip_ahead` cell.
pub fn paper_scale(cells: &[MatrixCell]) -> Option<u32> {
    let mut scales: Vec<u32> = cells.iter().map(|c| c.scale).collect();
    scales.sort_unstable();
    scales.dedup();
    scales.into_iter().rev().find(|&s| {
        table2().all(|(name, _)| find(cells, name, s, Backend::SkipAhead, None).is_some())
    })
}

/// One workload × scale of Figs. 6–8: the default `skip_ahead` cell and
/// its `gpu` and `ponb` partners.
#[derive(Debug, Clone, Copy)]
pub struct Versus<'a> {
    /// The iPIM cell.
    pub skip: &'a MatrixCell,
    /// The V100 roofline cell.
    pub gpu: Option<&'a MatrixCell>,
    /// The process-on-base-die cell.
    pub ponb: Option<&'a MatrixCell>,
}

impl Versus<'_> {
    /// Fig. 6: speedup of the scaled-out machine over the V100.
    pub fn speedup_vs_gpu(&self) -> Option<f64> {
        Some(self.gpu?.kernel_ns / self.skip.kernel_ns * scale_out(self.skip)?)
    }

    /// Fig. 7: signed energy saving vs the V100 (negative: iPIM spends
    /// more).
    pub fn saving_vs_gpu(&self) -> Option<f64> {
        Some(1.0 - self.skip.energy_pj? / self.gpu?.energy_pj?)
    }

    /// Fig. 8: speedup over PonB on the same slice.
    pub fn speedup_vs_ponb(&self) -> Option<f64> {
        Some(self.ponb?.cycles? as f64 / self.skip.cycles? as f64)
    }

    /// Fig. 8: signed energy saving vs PonB.
    pub fn saving_vs_ponb(&self) -> Option<f64> {
        Some(1.0 - self.skip.energy_pj? / self.ponb?.energy_pj?)
    }
}

/// Every default `skip_ahead` cell with its partners, in `cells` order.
pub fn versus(cells: &[MatrixCell]) -> Vec<Versus<'_>> {
    cells
        .iter()
        .filter(|c| c.backend == Backend::SkipAhead && c.config.is_none())
        .map(|skip| Versus {
            skip,
            gpu: find(cells, &skip.workload, skip.scale, Backend::Gpu, None),
            ponb: find(cells, &skip.workload, skip.scale, Backend::Ponb, None),
        })
        .collect()
}

/// Output Gpixel/s of the machine a cell stands for: a cycle-engine cell
/// is scaled out from its slice, the GPU cell is the whole V100.
fn gpix_per_s(cell: &MatrixCell) -> Option<f64> {
    let factor = if cell.backend == Backend::Gpu { 1.0 } else { scale_out(cell)? };
    Some(cell.pixels? as f64 / cell.kernel_ns * factor)
}

fn nj_per_pixel(cell: &MatrixCell) -> Option<f64> {
    Some(cell.energy_pj? / cell.pixels? as f64 / 1000.0)
}

/// Fig. 9: shares of the total energy — DRAM, SIMD, IntALU, AddrRF,
/// DataRF, PGSM, others (PE bus plus the unsplit VSM, TSV, NoC, SERDES
/// and control-core energy) — then the PIM-die share (every split part).
pub fn energy_shares(cell: &MatrixCell) -> Option<[f64; 8]> {
    let (split, total) = (cell.energy_split?, cell.energy_pj?);
    let pim_die: f64 = split.iter().sum();
    let mut shares = [0.0; 8];
    for (share, part) in shares.iter_mut().zip(&split[..6]) {
        *share = part / total;
    }
    shares[6] = (split[6] + (total - pim_die)) / total;
    shares[7] = pim_die / total;
    Some(shares)
}

/// Fig. 11: each ISA category's share of the dynamic instructions.
pub fn inst_shares(cell: &MatrixCell) -> Option<[f64; 6]> {
    let insts = cell.insts?;
    let total = insts.iter().sum::<u64>().max(1) as f64;
    Some(insts.map(|n| n as f64 / total))
}

/// Fig. 13: instructions per cycle, the category sum over `cycles`.
pub fn ipc(cell: &MatrixCell) -> Option<f64> {
    Some(cell.insts?.iter().sum::<u64>() as f64 / cell.cycles? as f64)
}

/// Fig. 13: SIMD, integer-ALU and memory utilization, busy PE-cycles over
/// `cycles × pes`.
fn utilization(cell: &MatrixCell) -> Option<[f64; 3]> {
    let pe_cycles = cell.cycles? as f64 * cell.pes? as f64;
    Some(cell.busy?.map(|b| b as f64 / pe_cycles))
}

/// Fig. 12: speedup of `opt` (the default cell) and `baseline2`–`4` over
/// `baseline1`, for one workload at one scale.
fn compiler_speedups(cells: &[MatrixCell], workload: &str, scale: u32) -> Option<[f64; 4]> {
    let cycles =
        |config| Some(find(cells, workload, scale, Backend::SkipAhead, config)?.cycles? as f64);
    let b1 = cycles(Some("baseline1"))?;
    let mut out = [0.0; 4];
    for (o, config) in
        out.iter_mut().zip([None, Some("baseline2"), Some("baseline3"), Some("baseline4")])
    {
        *o = b1 / cycles(config)?;
    }
    Some(out)
}

/// Fig. 10: mean execution time per sweep point, each workload normalized
/// to its own fastest point, over the workloads with a cell at every
/// point (a variant that does not compile drops its workload from the
/// whole sweep). Returns the means and the workloads averaged.
fn sweep(
    cells: &[MatrixCell],
    scale: u32,
    points: &[(&str, Option<&str>)],
) -> Option<(Vec<f64>, Vec<&'static str>)> {
    let series: Vec<(&'static str, Vec<f64>)> = FIG10_WORKLOADS
        .iter()
        .filter_map(|&w| {
            let cycles = points.iter().map(|&(_, config)| {
                Some(find(cells, w, scale, Backend::SkipAhead, config)?.cycles? as f64)
            });
            Some((w, cycles.collect::<Option<Vec<f64>>>()?))
        })
        .collect();
    if series.is_empty() {
        return None;
    }
    let normalized = (0..points.len())
        .map(|i| {
            let total: f64 = series
                .iter()
                .map(|(_, s)| s[i] / s.iter().copied().fold(f64::INFINITY, f64::min))
                .sum();
            total / series.len() as f64
        })
        .collect();
    Some((normalized, series.iter().map(|(w, _)| *w).collect()))
}

/// One bar group of Fig. 1.
#[derive(Debug, Clone)]
pub struct GpuProfileRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Achieved DRAM bandwidth in GB/s.
    pub dram_bw_gbs: f64,
    /// DRAM utilization (0–1).
    pub dram_util: f64,
    /// ALU utilization (0–1).
    pub alu_util: f64,
    /// Index-calculation share of ALU work (0–1).
    pub index_fraction: f64,
}

/// Fig. 1 from the calibrated V100 model. Also the kernel of
/// `bench_regress`'s machine-speed anchor: building the Table II suite
/// dominates its time, so it tracks host speed but not simulator changes.
/// Keep it unchanged, or the anchor in `results/figures.jsonl` stops being
/// comparable.
pub fn gpu_profile_rows() -> Vec<GpuProfileRow> {
    let model = GpuModel::default();
    workloads_in_family(WorkloadFamily::Image, WorkloadScale::tiny())
        .into_iter()
        .map(|w| {
            let p = gpu_profile(w.name);
            GpuProfileRow {
                name: w.name,
                dram_bw_gbs: model.peak_bw * p.dram_util / 1e9,
                dram_util: p.dram_util,
                alu_util: p.alu_util,
                index_fraction: p.index_fraction,
            }
        })
        .collect()
}

/// Appends a markdown table under `header` (`a | b | …`), its first
/// column left-aligned.
fn table(out: &mut String, header: &str, rows: &[Vec<String>]) {
    let align = "---:|".repeat(header.matches(" | ").count());
    out.push_str(&format!("| {header} |\n|---|{align}\n"));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out.push('\n');
}

/// Renders the headline table and every paper section.
pub(crate) fn render_paper(out: &mut String, cells: &[MatrixCell]) {
    let mut s =
        Sections { cells, scale: paper_scale(cells), body: String::new(), headline: Vec::new() };
    s.fig1();
    s.figs6_8();
    s.fig9();
    s.fig10();
    s.fig11();
    s.fig12();
    s.fig13();
    s.ablation();
    s.table1();
    s.table3();
    s.table4();
    s.thermal();
    out.push_str("## Paper comparison\n\n");
    match s.scale {
        Some(scale) => out.push_str(&format!(
            "Ours next to the paper's Sec. VII numbers. Simulated rows come from the matrix \
             cells at the paper scale, {scale}² (the largest scale with a default `skip_ahead` \
             cell for all ten Table II workloads), scaled out to the 4096-PE machine where \
             they are throughputs; area and power come from the models. Each row is \
             detailed in its section below.\n\n"
        )),
        None => out.push_str(NO_PAPER_SCALE),
    }
    let rows: Vec<Vec<String>> = PAPER[..HEADLINE]
        .iter()
        .map(|&(label, theirs)| {
            let ours = s.headline.iter().find(|(l, _)| *l == label).map_or("—", |(_, v)| v);
            vec![label.to_string(), ours.to_string(), theirs.to_string()]
        })
        .collect();
    table(out, "headline | ours | paper", &rows);
    out.push_str(&s.body);
}

/// The paper sections under construction.
struct Sections<'a> {
    cells: &'a [MatrixCell],
    /// The paper scale, when the matrix has one.
    scale: Option<u32>,
    body: String,
    /// Headline rows collected from the section summaries.
    headline: Vec<(&'static str, String)>,
}

impl<'a> Sections<'a> {
    fn heading(&mut self, title: &str, note: &str) {
        self.body.push_str(&format!("## {title}\n\n{note}\n\n"));
    }

    /// The paper scale, or a loud skip in the section body.
    fn paper_scale(&mut self) -> Option<u32> {
        if self.scale.is_none() {
            self.body.push_str(NO_PAPER_SCALE);
        }
        self.scale
    }

    /// The default `skip_ahead` cell of every Table II workload at `scale`.
    fn table2_cells(&self, scale: u32) -> Vec<&'a MatrixCell> {
        table2().filter_map(|(w, _)| find(self.cells, w, scale, Backend::SkipAhead, None)).collect()
    }

    /// A `| metric | ours | paper |` table; headline rows are collected.
    fn summary(&mut self, rows: Vec<(&'static str, String)>) {
        let lines: Vec<Vec<String>> = rows
            .iter()
            .map(|(label, ours)| vec![label.to_string(), ours.clone(), paper(label).to_string()])
            .collect();
        table(&mut self.body, "metric | ours | paper", &lines);
        let headline = &PAPER[..HEADLINE];
        self.headline.extend(rows.into_iter().filter(|(l, _)| headline.iter().any(|h| h.0 == *l)));
    }

    /// A table with one row per Table II workload at `scale`: `values` of
    /// its default `skip_ahead` cell, column `i` formatted by `fmt(i, _)`.
    fn per_workload<const N: usize>(
        &mut self,
        scale: u32,
        header: &str,
        values: impl Fn(&MatrixCell) -> Option<[f64; N]>,
        fmt: fn(usize, f64) -> String,
    ) -> Vec<Option<[f64; N]>> {
        let cells = self.table2_cells(scale);
        let values: Vec<_> = cells.iter().map(|c| values(c)).collect();
        let lines: Vec<Vec<String>> = cells
            .iter()
            .zip(&values)
            .map(|(c, v)| {
                let cols = (0..N).map(|i| v.map_or("—".into(), |v| fmt(i, v[i])));
                std::iter::once(c.workload.clone()).chain(cols).collect()
            })
            .collect();
        table(&mut self.body, header, &lines);
        values
    }

    /// `stat` of column `i` of per-workload `values`.
    fn column<const N: usize>(
        values: &[Option<[f64; N]>],
        i: usize,
        stat: fn(&[f64]) -> f64,
    ) -> Option<f64> {
        over(&values.iter().map(|v| v.map(|v| v[i])).collect::<Vec<_>>(), stat)
    }

    fn fig1(&mut self) {
        self.heading(
            "Fig. 1 — GPU profile (calibrated V100 model)",
            "Model inputs calibrated to the paper's Fig. 1 aggregates, not measurements: \
             the V100 roofline (`gpu` cells) reads them.",
        );
        let rows = gpu_profile_rows();
        let lines: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                let shares = [r.dram_util, r.alu_util, r.index_fraction].map(pct);
                [vec![r.name.to_string(), format!("{:.0}", r.dram_bw_gbs)], shares.to_vec()]
                    .concat()
            })
            .collect();
        table(&mut self.body, "workload | DRAM GB/s | DRAM util | ALU util | index share", &lines);
        let m = |f: fn(&GpuProfileRow) -> f64| mean(&rows.iter().map(f).collect::<Vec<_>>());
        self.summary(vec![
            ("mean DRAM bandwidth", format!("{:.0} GB/s", m(|r| r.dram_bw_gbs))),
            ("mean DRAM utilization", pct(m(|r| r.dram_util))),
            ("mean ALU utilization", pct(m(|r| r.alu_util))),
            ("mean index share of ALU work", pct(m(|r| r.index_fraction))),
        ]);
    }

    fn figs6_8(&mut self) {
        self.heading(
            "Figs. 6–8 — speedup and energy vs GPU and PonB",
            "Every default `skip_ahead` cell against its `gpu` (V100 roofline) and `ponb` \
             (same engine, base-die placement) partners at the same workload and scale. iPIM \
             throughput and the speedup vs the GPU are scaled out from the simulated slice to \
             the 4096-PE machine (`scale_out`: 128 for one vault). Energy per pixel and the \
             PonB ratios compare like with like and take no factor. A negative saving means \
             iPIM spends more energy.",
        );
        let rows = versus(self.cells);
        let lines: Vec<Vec<String>> = rows
            .iter()
            .map(|v| {
                let f2 = |x: f64| format!("{x:.2}");
                let f3 = |x: f64| format!("{x:.3}");
                vec![
                    v.skip.workload.clone(),
                    v.skip.scale.to_string(),
                    or_dash(gpix_per_s(v.skip), f2),
                    or_dash(v.gpu.and_then(gpix_per_s), f2),
                    or_dash(v.speedup_vs_gpu(), times),
                    or_dash(nj_per_pixel(v.skip), f3),
                    or_dash(v.gpu.and_then(nj_per_pixel), f3),
                    or_dash(v.saving_vs_gpu(), pct),
                    or_dash(v.speedup_vs_ponb(), times),
                    or_dash(v.saving_vs_ponb(), pct),
                ]
            })
            .collect();
        let header = "workload | scale | iPIM Gpix/s | GPU Gpix/s | vs gpu | iPIM nJ/px | \
                      GPU nJ/px | gpu saving | vs ponb | ponb saving";
        table(&mut self.body, header, &lines);
        let Some(scale) = self.paper_scale() else { return };
        let at =
            |name: &str| rows.iter().find(|v| v.skip.workload == name && v.skip.scale == scale);
        let (mut all, mut single, mut multi) = (Vec::new(), Vec::new(), Vec::new());
        for (name, multi_stage) in table2() {
            let v = at(name).expect("the paper scale has every Table II cell");
            all.push(*v);
            let saving = v.saving_vs_gpu();
            if multi_stage { &mut multi } else { &mut single }.push(saving);
        }
        let gpu_speedups: Vec<_> = all.iter().map(|v| v.speedup_vs_gpu()).collect();
        let gpu_savings: Vec<_> = all.iter().map(|v| v.saving_vs_gpu()).collect();
        let ponb_speedups: Vec<_> = all.iter().map(|v| v.speedup_vs_ponb()).collect();
        let ponb_savings: Vec<_> = all.iter().map(|v| v.saving_vs_ponb()).collect();
        let mut rows =
            vec![("speedup vs GPU (geomean)", or_dash(over(&gpu_speedups, geomean), times))];
        // The per-workload speedups the paper quotes.
        for &(label, _) in PAPER {
            if let Some(name) = label.strip_suffix(" speedup vs GPU") {
                rows.push((label, or_dash(at(name).and_then(|v| v.speedup_vs_gpu()), times)));
            }
        }
        rows.extend([
            ("energy saving vs GPU (mean)", or_dash(over(&gpu_savings, mean), pct)),
            ("single-stage energy saving vs GPU", or_dash(over(&single, mean), pct)),
            ("multi-stage energy saving vs GPU", or_dash(over(&multi, mean), pct)),
            ("speedup vs PonB (geomean)", or_dash(over(&ponb_speedups, geomean), times)),
            ("energy saving vs PonB (mean)", or_dash(over(&ponb_savings, mean), pct)),
        ]);
        self.body.push_str(&format!("Table II at the paper scale ({scale}²):\n\n"));
        self.summary(rows);
    }

    fn fig9(&mut self) {
        self.heading(
            "Fig. 9 — energy breakdown",
            "Shares of each Table II workload's energy at the paper scale. Others is the PE \
             bus plus VSM, TSV, NoC, SERDES and control core; the PIM-die share is everything \
             but those last five.",
        );
        let Some(scale) = self.paper_scale() else { return };
        let header = "workload | DRAM | SIMD | IntALU | AddrRF | DataRF | PGSM | others | PIM die";
        let shares = self.per_workload(scale, header, energy_shares, |_, v| pct(v));
        let pim_die = Self::column(&shares, 7, mean);
        self.summary(vec![("PIM-die energy share (mean)", or_dash(pim_die, pct))]);
    }

    fn fig10(&mut self) {
        self.heading(
            "Fig. 10 — sensitivity to DataRF entries and PGSM size",
            "Mean execution time over Blur, BilateralGrid and StencilChain at the paper \
             scale, each normalized to its own fastest point of the sweep (the paper \
             normalizes to the largest size). A workload with a variant that does not \
             compile is dropped from that whole sweep.",
        );
        let Some(scale) = self.paper_scale() else { return };
        let (mut rows, mut used) = (Vec::new(), Vec::new());
        for points in [&RF_SWEEP[..], &PGSM_SWEEP[..]] {
            let result = sweep(self.cells, scale, points);
            let means = result.as_ref().map(|(m, _)| m.clone());
            for (i, (label, _)) in points.iter().enumerate() {
                rows.push((*label, means.as_ref().map_or("—".into(), |m| format!("{:.3}", m[i]))));
            }
            used.push(result.map_or("—".into(), |(_, w)| w.join(", ")));
        }
        self.summary(rows);
        self.body.push_str(&format!(
            "Averaged over: DataRF sweep {}; PGSM sweep {}.\n\n",
            used[0], used[1]
        ));
    }

    fn fig11(&mut self) {
        self.heading(
            "Fig. 11 — dynamic instruction breakdown",
            "Shares of each Table II workload's dynamic instructions per ISA category at the \
             paper scale.",
        );
        let Some(scale) = self.paper_scale() else { return };
        let header = "workload | comp | index | intra-vault | inter-vault | control | sync";
        let shares = self.per_workload(scale, header, inst_shares, |_, v| pct(v));
        self.summary(vec![
            ("index-calculation share (mean)", or_dash(Self::column(&shares, 1, mean), pct)),
            ("inter-vault share (mean)", or_dash(Self::column(&shares, 3, mean), pct)),
        ]);
    }

    fn fig12(&mut self) {
        self.heading(
            "Fig. 12 — compiler optimizations",
            "Speedup over `baseline1` (min register allocation, no reordering, no memory \
             order) of `opt` (the default cell) and of `baseline2`–`4` (opt without max \
             register allocation, reordering or memory-order enforcement) at the paper scale. \
             An optimization's contribution is opt's geomean over that of the baseline \
             lacking it.",
        );
        let Some(scale) = self.paper_scale() else { return };
        let cells = self.cells;
        let header = "workload | opt | baseline2 | baseline3 | baseline4";
        let speedups = self.per_workload(
            scale,
            header,
            |c| compiler_speedups(cells, &c.workload, scale),
            |_, v| times(v),
        );
        let g = |i| Self::column(&speedups, i, geomean);
        let over_opt = |i| Some(g(0)? / g(i)?);
        self.summary(vec![
            ("compiler optimizations (opt / baseline1, geomean)", or_dash(g(0), times)),
            ("register allocation (opt / baseline2)", or_dash(over_opt(1), times)),
            ("reordering (opt / baseline3)", or_dash(over_opt(2), times)),
            ("memory order (opt / baseline4)", or_dash(over_opt(3), times)),
        ]);
    }

    fn fig13(&mut self) {
        self.heading(
            "Fig. 13 — IPC and utilization",
            "Instructions per cycle (the category sum over `cycles`) and the busy share of \
             the SIMD, integer-ALU and memory PE-cycles of each Table II workload at the \
             paper scale.",
        );
        let Some(scale) = self.paper_scale() else { return };
        let header = "workload | IPC | SIMD util | IntALU util | mem util";
        let values = |c: &MatrixCell| {
            let (ipc, [simd, alu, mem]) = (ipc(c)?, utilization(c)?);
            Some([ipc, simd, alu, mem])
        };
        let ipc3 = |v: f64| format!("{v:.3}");
        let rows = self.per_workload(scale, header, values, |i, v| {
            if i == 0 {
                format!("{v:.3}")
            } else {
                pct(v)
            }
        });
        self.summary(vec![("IPC (mean)", or_dash(Self::column(&rows, 0, mean), ipc3))]);
    }

    fn ablation(&mut self) {
        self.heading(
            "Ablation — row policy, scheduler, refresh, slice width",
            "Not a paper figure: the design choices of DESIGN.md §5, as each variant's cycles \
             over the default cell's at the paper scale. `vaults2` splits the same image over \
             two vaults, so about 0.5× is linear scale-out.",
        );
        let Some(scale) = self.paper_scale() else { return };
        let variants: Vec<_> =
            CONFIGS.iter().filter(|c| c.workloads == ABLATION_WORKLOADS).collect();
        let cycles = |w, config| find(self.cells, w, scale, Backend::SkipAhead, config)?.cycles;
        let lines: Vec<Vec<String>> = ABLATION_WORKLOADS
            .iter()
            .map(|&w| {
                let base = cycles(w, None);
                let ratio = |name| Some(cycles(w, Some(name))? as f64 / base? as f64);
                let ratios =
                    variants.iter().map(|v| or_dash(ratio(v.name), |r| format!("{r:.3}×")));
                let base = base.map_or("—".into(), |b| b.to_string());
                [w.to_string(), base].into_iter().chain(ratios).collect()
            })
            .collect();
        let names: Vec<&str> = variants.iter().map(|v| v.name).collect();
        table(
            &mut self.body,
            &format!("workload | default cycles | {}", names.join(" | ")),
            &lines,
        );
    }

    fn table1(&mut self) {
        self.heading(
            "Table I — SIMB instruction set",
            "One sample per instruction class from the live ISA definitions, with its \
             assembly and 24-byte binary encoding (round-trip property-tested in `ipim-isa`).",
        );
        let lines: Vec<Vec<String>> = isa_samples()
            .into_iter()
            .map(|(category, what, inst)| {
                let hex: String = encode(&inst).iter().map(|b| format!("{b:02x}")).collect();
                vec![category.into(), what.into(), format!("`{inst}`"), format!("`{hex}`")]
            })
            .collect();
        table(&mut self.body, "category | instruction | asm | binary", &lines);
    }

    fn table3(&mut self) {
        self.heading(
            "Table III — hardware configuration",
            "The model's defaults (`MachineConfig`, `EnergyParams`): the paper's values by \
             construction.",
        );
        let (c, e) = (MachineConfig::default(), EnergyParams::default());
        let (t, l, d) = (c.timing, c.latency, e.dram);
        let slash = |v: &[&dyn std::fmt::Display]| {
            v.iter().map(ToString::to_string).collect::<Vec<_>>().join("/")
        };
        let rows = [
            (
                "cubes / vaults / PGs / PEs / InstQueue / DRAMReqQueue",
                slash(&[
                    &c.cubes,
                    &c.vaults_per_cube,
                    &c.pgs_per_vault,
                    &c.pes_per_pg,
                    &c.inst_queue,
                    &c.dram_req_queue,
                ]),
            ),
            ("SIMD length / CAS width", "4 / 128b".to_string()),
            (
                "Bank / AddrRF / DataRF / PGSM / VSM",
                format!(
                    "{}M / {}B / {}B / {}K / {}K",
                    c.bank.bank_bytes >> 20,
                    c.addr_rf_entries * 4,
                    c.data_rf_entries * 16,
                    c.pgsm_bytes >> 10,
                    c.vsm_bytes >> 10
                ),
            ),
            (
                "tCK / tRCD / tCCD / tRTP / tRP / tRAS (ns)",
                slash(&[&1, &t.t_rcd, &t.t_ccd, &t.t_rtp, &t.t_rp, &t.t_ras]),
            ),
            ("tRRDS / tRRDL / tFAW (ns)", slash(&[&t.t_rrd_s, &t.t_rrd_l, &t.t_faw])),
            ("tADD / tMUL / tMAC / tLOGIC (ns)", slash(&[&l.add, &l.mul, &l.mac, &l.logic])),
            (
                "tRF / tPGSM / tVSM / tPEbus / tTSV / tNoC (ns)",
                slash(&[&l.rf, &l.pgsm, &l.vsm, &l.pe_bus, &l.tsv, &l.noc_hop]),
            ),
            (
                "RD,WR / PRE,ACT energy (J/access)",
                format!("{:.2}n / {:.2}n", d.rd_wr_pj / 1e3, d.act_pre_pj / 1e3),
            ),
            (
                "AddrRF / DataRF energy (J/access)",
                format!("{:.2}p / {:.2}p", e.addr_rf_pj, e.data_rf_pj),
            ),
            ("SIMD / IntALU energy (J/op)", format!("{:.2}p / {:.2}p", e.simd_pj, e.int_alu_pj)),
            (
                "PEbus / TSV / SERDES energy (J/bit)",
                format!(
                    "{:.3}p / {:.2}p / {:.2}p",
                    e.pe_bus_pj_per_bit, e.tsv_pj_per_bit, e.serdes_pj_per_bit
                ),
            ),
            (
                "row-buffer policy / scheduling",
                format!("{:?} / {:?}", c.page_policy, c.sched_policy),
            ),
        ];
        let lines: Vec<Vec<String>> = rows.into_iter().map(|(k, v)| vec![k.into(), v]).collect();
        table(&mut self.body, "parameter | value", &lines);
    }

    fn table4(&mut self) {
        self.heading(
            "Table IV — area per DRAM die",
            &format!(
                "Components added to each DRAM die (`ipim_arch::area`). The control core sits \
                 on the base die: {:.2} mm² including {:.2} mm² of VSM, within the {:.1} mm² \
                 spare per vault. A naive design with a control core per bank is the \
                 comparison point.",
                area::CTRL_CORE_MM2,
                area::VSM_MM2,
                area::BASE_DIE_SPARE_PER_VAULT_MM2
            ),
        );
        let lines: Vec<Vec<String>> = area::table4_items()
            .iter()
            .map(|item| {
                vec![
                    item.name.to_string(),
                    item.count.to_string(),
                    format!("{:.2}", item.area_mm2),
                    format!("{:.2}%", item.overhead_pct(area::DRAM_DIE_MM2)),
                ]
            })
            .collect();
        table(&mut self.body, "component | count | mm² | overhead", &lines);
        let (total, naive) = (area::total_overhead_pct(), area::naive_per_bank_core_overhead_pct());
        self.summary(vec![
            ("area overhead per DRAM die", format!("{total:.2}%")),
            ("added area per DRAM die", format!("{:.2} mm²", area::total_added_mm2())),
            ("naive per-bank control cores", format!("{naive:.2}%")),
            ("naive / decoupled overhead", times(naive / total)),
        ]);
    }

    fn thermal(&mut self) {
        self.heading(
            "Thermal — peak power per cube",
            &format!(
                "Sec. VII-B's peak-power estimate (`ipim_arch::power`) over a {CUBE_MM2:.1} mm² \
                 cube. The paper attributes 78.5% of peak power to ACT/PRE, which its own \
                 0.22 nJ per ACT/PRE pair does not reproduce."
            ),
        );
        let p = peak_power_per_cube(&MachineConfig::default(), &EnergyParams::default());
        let fits = |budget| if p.fits_cooling(budget) { "yes" } else { "no" }.to_string();
        self.summary(vec![
            ("peak power per cube", format!("{:.1} W", p.total_w)),
            ("power density", format!("{:.0} mW/mm²", p.density_mw_per_mm2)),
            ("DRAM share of peak power", pct(p.dram_fraction)),
            ("fits commodity cooling (706 mW/mm²)", fits(COMMODITY_COOLING_MW_PER_MM2)),
            ("fits high-end cooling (1214 mW/mm²)", fits(HIGH_END_COOLING_MW_PER_MM2)),
        ]);
    }
}

/// Table I: one sample instruction per class, as (category, instruction,
/// sample).
fn isa_samples() -> Vec<(&'static str, &'static str, Instruction)> {
    let mask = SimbMask::all(32);
    vec![
        (
            "computation",
            "comp — SIMD computation (vv/sv modes, FP/INT + logical ops)",
            Instruction::Comp {
                op: CompOp::Mac,
                dtype: DataType::F32,
                mode: CompMode::VectorVector,
                dst: DataReg::new(4),
                src1: DataReg::new(1),
                src2: DataReg::new(2),
                vec_mask: VecMask::ALL,
                simb_mask: mask,
            },
        ),
        (
            "index calculation",
            "calc arf — per-PE memory address calculation (INT only)",
            Instruction::CalcArf {
                op: ArfOp::Mul,
                dst: AddrReg::new(8),
                src1: AddrReg::new(0),
                src2: ArfSrc::Imm(16),
                simb_mask: mask,
            },
        ),
        (
            "intra-vault",
            "st/ld rf — store(/load) bank data from(/to) the DataRF",
            Instruction::LdRf {
                dram_addr: AddrOperand::Indirect(AddrReg::new(8)),
                drf: DataReg::new(1),
                simb_mask: mask,
            },
        ),
        (
            "intra-vault",
            "st/ld pgsm — move data between the bank and the PGSM",
            Instruction::LdPgsm {
                dram_addr: AddrOperand::Indirect(AddrReg::new(8)),
                pgsm_addr: AddrOperand::Imm(64),
                simb_mask: mask,
            },
        ),
        (
            "intra-vault",
            "rd/wr pgsm — move data between the PGSM and the DataRF",
            Instruction::RdPgsm {
                pgsm_addr: AddrOperand::Imm(64),
                drf: DataReg::new(2),
                simb_mask: mask,
            },
        ),
        (
            "intra-vault",
            "rd/wr vsm — move data between the VSM and the DataRF",
            Instruction::WrVsm {
                vsm_addr: AddrOperand::Imm(256),
                drf: DataReg::new(3),
                simb_mask: mask,
            },
        ),
        (
            "intra-vault",
            "mov drf/arf — DataRF ↔ AddrRF (data-dependent indexing)",
            Instruction::Mov {
                to_arf: true,
                arf: AddrReg::new(9),
                drf: DataReg::new(3),
                lane: 1,
                simb_mask: mask,
            },
        ),
        (
            "intra-vault",
            "seti vsm — set an immediate at a VSM location",
            Instruction::SetiVsm { vsm_addr: 0x100, imm: 42 },
        ),
        (
            "intra-vault",
            "reset — clear a DataRF entry",
            Instruction::Reset { drf: DataReg::new(0), simb_mask: mask },
        ),
        (
            "inter-vault",
            "req — asynchronously fetch remote bank data into the local VSM",
            Instruction::Req {
                target: RemoteTarget { chip: 0, vault: 3, pg: 1, pe: 2 },
                dram_addr: CrfSrc::Imm(0x400),
                vsm_addr: CrfSrc::Imm(0x80),
            },
        ),
        (
            "control flow",
            "jump/cjump — (conditional) jump via the CtrlRF",
            Instruction::CJump { cond: CtrlReg::new(1), target: CrfSrc::Imm(7) },
        ),
        (
            "control flow",
            "calc crf — control-flow calculation (INT only)",
            Instruction::CalcCrf {
                op: CrfOp::Lt,
                dst: CtrlReg::new(2),
                src1: CtrlReg::new(0),
                src2: CrfSrc::Imm(100),
            },
        ),
        (
            "control flow",
            "seti crf — set an immediate CtrlRF value",
            Instruction::SetiCrf { dst: CtrlReg::new(0), imm: 0 },
        ),
        (
            "synchronization",
            "sync — inter-vault barrier on a phase id",
            Instruction::Sync { phase_id: 1 },
        ),
    ]
}
