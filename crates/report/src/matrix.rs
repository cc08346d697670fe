//! The benchmark matrix: every workload × scale × backend, one normalized
//! record per cell.
//!
//! A cell carries only what the backend's model computes, so recording it
//! again on any host reproduces it byte for byte: a modeled kernel time
//! (`kernel_ns`) and, where the model defines them, cycles, effective
//! bandwidth, energy, the roofline position (arithmetic intensity vs. the
//! backend's ridge point) and the counters the paper's figures divide
//! (energy split, instruction mix, busy PE-cycles). Host time is not a
//! model output; `bench_regress` is the one place it is measured. The
//! normalization rules:
//!
//! * **cycle engines** (`skip_ahead`, `analytic`, `ponb`) run at
//!   1 GHz, so `kernel_ns` = simulated cycles, `gbps` =
//!   [`ExecutionReport::dram_bandwidth_gbs`](ipim_core::ExecutionReport::dram_bandwidth_gbs)
//!   (bytes/cycle ≡ GB/s), and `pj_per_op` divides the composed
//!   [`EnergyBook`](ipim_core::EnergyBook) total by the
//!   workload's arithmetic op count (`flops_per_pixel × output_pixels`).
//! * **`gpu`** is the calibrated V100 roofline: `kernel_ns` = modeled
//!   seconds × 1e9, energy = seconds × board power, same op count.
//!
//! A `skip_ahead` cell may also carry a `config` coordinate naming one
//! entry of [`CONFIGS`]: a sweep variant of the default 1-vault slice and
//! compiler (Figs. 10 and 12 and the ablation) that the runner simulates
//! next to the default cell.
//!
//! Unmappable cells (a workload whose schedule does not compile at a
//! scale, or a simulation that exhausts its cycle budget) are *loud
//! skips*: the runner records why and moves on, never panicking and never
//! silently shrinking the matrix.
//!
//! The file format is schema-versioned JSONL (see [`SCHEMA_VERSION`]): one
//! `"kind":"cell"` line per cell.

use ipim_core::dram::{PagePolicy, SchedPolicy};
use ipim_core::trace::json;
use ipim_core::{
    all_workloads, workload_by_name, CategoryCounts, CompileOptions, Engine, MachineConfig,
    Placement, Session, Workload, WorkloadFamily, WorkloadScale,
};

use crate::gpu::{gpu_profile, run_gpu, GpuModel};

/// Version of the `matrix.jsonl` line schema. Any change to the cell
/// field set bumps this, and [`parse_matrix`] rejects every other
/// version.
pub const SCHEMA_VERSION: u64 = 3;

/// One comparison backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The skip-ahead cycle engine (the default iPIM simulator).
    #[default]
    SkipAhead,
    /// The analytic prediction tier (`fidelity: approximate`).
    Analytic,
    /// Process-on-base-die: skip-ahead engine, `Placement::BaseDie`
    /// (Sec. VII-C1 — all bank traffic crosses the vault TSV bundle).
    Ponb,
    /// The calibrated V100 roofline model (Sec. III / Fig. 1).
    Gpu,
}

impl Backend {
    /// Every backend, in canonical matrix-column order.
    pub const ALL: [Backend; 4] =
        [Backend::SkipAhead, Backend::Analytic, Backend::Ponb, Backend::Gpu];

    /// Canonical wire/report spelling.
    pub fn name(self) -> &'static str {
        match self {
            Backend::SkipAhead => "skip_ahead",
            Backend::Analytic => "analytic",
            Backend::Ponb => "ponb",
            Backend::Gpu => "gpu",
        }
    }

    /// Parses [`name`](Self::name)'s spelling.
    ///
    /// # Errors
    ///
    /// Returns a message listing the accepted spellings.
    pub fn parse(s: &str) -> Result<Self, String> {
        Backend::ALL
            .into_iter()
            .find(|b| b.name() == s)
            .ok_or_else(|| format!("unknown backend {s:?} (skip_ahead | analytic | ponb | gpu)"))
    }

    /// The simulated engine + placement this backend selects, or `None`
    /// for the GPU model.
    pub fn engine_placement(self) -> Option<(Engine, Placement)> {
        match self {
            Backend::SkipAhead => Some((Engine::SkipAhead, Placement::NearBank)),
            Backend::Analytic => Some((Engine::Analytic, Placement::NearBank)),
            Backend::Ponb => Some((Engine::SkipAhead, Placement::BaseDie)),
            Backend::Gpu => None,
        }
    }
}

/// Which roof a cell sits under.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Bound {
    /// Bandwidth-limited (arithmetic intensity below the ridge point).
    #[default]
    Memory,
    /// Compute-limited.
    Compute,
}

impl Bound {
    /// Canonical wire spelling.
    pub fn name(self) -> &'static str {
        match self {
            Bound::Memory => "memory",
            Bound::Compute => "compute",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "memory" => Ok(Bound::Memory),
            "compute" => Ok(Bound::Compute),
            other => Err(format!("unknown bound {other:?} (memory | compute)")),
        }
    }
}

/// The Fig. 10 sweep's workloads: one elementwise stencil, one
/// gather-heavy kernel and one deep chain, covering both the
/// register-pressure and the scratchpad-capacity effects.
pub const FIG10_WORKLOADS: &[&str] = &["Blur", "BilateralGrid", "StencilChain"];

/// The ablation's workloads: one elementwise kernel, one stencil.
pub const ABLATION_WORKLOADS: &[&str] = &["Brighten", "Blur"];

/// A sweep variant of the default 1-vault slice and `opt` compiler: the
/// `config` coordinate of a cell.
#[derive(Debug, Clone, Copy)]
pub struct ConfigVariant {
    /// The coordinate's spelling.
    pub name: &'static str,
    /// The workloads it runs on; empty means every Table II workload.
    pub workloads: &'static [&'static str],
    /// Patches the default slice and compiler options.
    pub setup: fn(&mut MachineConfig, &mut CompileOptions),
}

impl ConfigVariant {
    /// Whether the runner records this variant for `w`.
    pub fn applies(&self, w: &Workload) -> bool {
        if self.workloads.is_empty() {
            w.family == WorkloadFamily::Image
        } else {
            self.workloads.contains(&w.name)
        }
    }

    /// The skip-ahead session simulating this variant.
    pub fn session(&self) -> Session {
        let mut machine =
            MachineConfig { engine: Engine::SkipAhead, ..MachineConfig::vault_slice(1) };
        let mut options = CompileOptions::opt();
        (self.setup)(&mut machine, &mut options);
        Session::with_options(machine, options)
    }
}

/// Every sweep variant, in cell order. The defaults they depart from
/// (64 DataRF entries, 8 KiB PGSM, `opt`, open page, FR-FCFS, refresh on,
/// one vault) are the default cells themselves.
pub const CONFIGS: [ConfigVariant; 13] = [
    // Fig. 10(a): DataRF entries; (b): PGSM bytes.
    variant("rf16", FIG10_WORKLOADS, |m, _| m.data_rf_entries = 16),
    variant("rf32", FIG10_WORKLOADS, |m, _| m.data_rf_entries = 32),
    variant("rf128", FIG10_WORKLOADS, |m, _| m.data_rf_entries = 128),
    variant("pgsm2k", FIG10_WORKLOADS, |m, _| m.pgsm_bytes = 2048),
    variant("pgsm4k", FIG10_WORKLOADS, |m, _| m.pgsm_bytes = 4096),
    // Fig. 12: the compiler baselines.
    variant("baseline1", &[], |_, o| *o = CompileOptions::baseline1()),
    variant("baseline2", &[], |_, o| *o = CompileOptions::baseline2()),
    variant("baseline3", &[], |_, o| *o = CompileOptions::baseline3()),
    variant("baseline4", &[], |_, o| *o = CompileOptions::baseline4()),
    // Ablation: row policy, scheduler, refresh, slice width.
    variant("close_page", ABLATION_WORKLOADS, |m, _| m.page_policy = PagePolicy::Close),
    variant("fcfs", ABLATION_WORKLOADS, |m, _| m.sched_policy = SchedPolicy::Fcfs),
    variant("no_refresh", ABLATION_WORKLOADS, |m, _| m.refresh = false),
    variant("vaults2", ABLATION_WORKLOADS, |m, _| m.vaults_per_cube = 2),
];

const fn variant(
    name: &'static str,
    workloads: &'static [&'static str],
    setup: fn(&mut MachineConfig, &mut CompileOptions),
) -> ConfigVariant {
    ConfigVariant { name, workloads, setup }
}

/// The [`CONFIGS`] entry spelled `name`.
pub fn config_variant(name: &str) -> Option<&'static ConfigVariant> {
    CONFIGS.iter().find(|c| c.name == name)
}

/// One normalized matrix record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MatrixCell {
    /// Workload name as the suite spells it.
    pub workload: String,
    /// Workload family (`image` | `nn` | `video`).
    pub family: String,
    /// Square image side in pixels (the ladder runs 32/64/128).
    pub scale: u32,
    /// The backend that produced this cell.
    pub backend: Backend,
    /// The [`CONFIGS`] variant a `skip_ahead` cell simulates; `None` is
    /// the default slice and compiler.
    pub config: Option<&'static str>,
    /// Simulated cycles (cycle engines only).
    pub cycles: Option<u64>,
    /// Modeled kernel time in nanoseconds — cycles at 1 GHz for the cycle
    /// engines, roofline seconds for the GPU.
    pub kernel_ns: f64,
    /// Effective DRAM bandwidth in GB/s (backends with a memory model).
    pub gbps: Option<f64>,
    /// Energy per arithmetic operation in picojoules.
    pub pj_per_op: Option<f64>,
    /// Arithmetic intensity in FLOP/byte of modeled DRAM traffic.
    pub ai: Option<f64>,
    /// The backend's peak bandwidth roof in GB/s.
    pub peak_gbps: Option<f64>,
    /// Roofline verdict at this cell's arithmetic intensity.
    pub bound: Bound,
    /// Output pixels (cycle engines and `gpu`).
    pub pixels: Option<u64>,
    /// PEs of the simulated machine (cycle engines).
    pub pes: Option<u64>,
    /// Total energy in picojoules (cycle engines and `gpu`).
    pub energy_pj: Option<f64>,
    /// The Fig. 9 energy split in picojoules: DRAM, SIMD, IntALU, AddrRF,
    /// DataRF, PGSM and PE bus; the rest of `energy_pj` is "others"
    /// (cycle engines).
    pub energy_split: Option<[f64; 7]>,
    /// Dynamic instructions per ISA category: computation, index
    /// calculation, intra-vault, inter-vault, control flow and
    /// synchronization (cycle engines).
    pub insts: Option<[u64; 6]>,
    /// SIMD, integer-ALU and memory busy PE-cycles (cycle engines).
    pub busy: Option<[u64; 3]>,
}

impl MatrixCell {
    /// Renders the cell as one schema-versioned JSONL line. `None` fields
    /// are omitted (the same invisible-optional convention `SimRequest`
    /// uses); f64 fields print in shortest-round-trip form so a parse of
    /// the line reproduces the cell bit-exactly.
    pub fn to_json_line(&self) -> String {
        let num = |k: &str, v: f64| {
            assert!(v.is_finite(), "non-finite {k} would corrupt the wire: {v}");
            format!("{v:?}")
        };
        let opt_u = |k: &str, v: Option<u64>| v.map_or(String::new(), |v| format!(",\"{k}\":{v}"));
        let opt_f = |k: &str, v: Option<f64>| {
            v.map_or(String::new(), |v| format!(",\"{k}\":{}", num(k, v)))
        };
        let list = |k: &str, items: Option<Vec<String>>| {
            items.map_or(String::new(), |v| format!(",\"{k}\":[{}]", v.join(",")))
        };
        let split = self.energy_split.map(|a| a.iter().map(|&v| num("energy_split", v)).collect());
        assert!(self.kernel_ns.is_finite(), "non-finite kernel_ns: {}", self.kernel_ns);
        format!(
            "{{\"schema\":{SCHEMA_VERSION},\"kind\":\"cell\",\"workload\":\"{}\",\
             \"family\":\"{}\",\"scale\":{},\"backend\":\"{}\"{}{}{}{}{}{}{}{}{}{}{}{},\
             \"kernel_ns\":{:?},\"bound\":\"{}\"}}",
            self.workload,
            self.family,
            self.scale,
            self.backend.name(),
            self.config.map_or(String::new(), |c| format!(",\"config\":\"{c}\"")),
            opt_u("cycles", self.cycles),
            opt_f("gbps", self.gbps),
            opt_f("pj_per_op", self.pj_per_op),
            opt_f("ai", self.ai),
            opt_f("peak_gbps", self.peak_gbps),
            opt_u("pixels", self.pixels),
            opt_u("pes", self.pes),
            opt_f("energy_pj", self.energy_pj),
            list("energy_split", split),
            list("insts", self.insts.map(|a| a.iter().map(u64::to_string).collect())),
            list("busy", self.busy.map(|a| a.iter().map(u64::to_string).collect())),
            self.kernel_ns,
            self.bound.name(),
        )
    }

    /// Parses one `"kind":"cell"` JSON object.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn from_json(v: &json::Value) -> Result<Self, String> {
        let req_str = |k: &str| {
            v.get(k)
                .and_then(json::Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("cell needs a string {k:?} field"))
        };
        let req_f64 = |k: &str| {
            v.get(k)
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("cell needs a numeric {k:?} field"))
        };
        let opt_f64 = |k: &str| v.get(k).and_then(json::Value::as_f64);
        let config = match v.get("config") {
            None => None,
            Some(c) => Some(
                c.as_str()
                    .and_then(config_variant)
                    .ok_or_else(|| format!("cell config {c:?} is not a CONFIGS entry"))?
                    .name,
            ),
        };
        Ok(MatrixCell {
            workload: req_str("workload")?,
            family: req_str("family")?,
            scale: req_f64("scale")? as u32,
            backend: Backend::parse(&req_str("backend")?)?,
            config,
            pixels: opt_f64("pixels").map(|p| p as u64),
            pes: opt_f64("pes").map(|p| p as u64),
            energy_pj: opt_f64("energy_pj"),
            energy_split: opt_array(v, "energy_split")?,
            insts: opt_array::<6>(v, "insts")?.map(|a| a.map(|x| x as u64)),
            busy: opt_array::<3>(v, "busy")?.map(|a| a.map(|x| x as u64)),
            cycles: opt_f64("cycles").map(|c| c as u64),
            kernel_ns: req_f64("kernel_ns")?,
            gbps: opt_f64("gbps"),
            pj_per_op: opt_f64("pj_per_op"),
            ai: opt_f64("ai"),
            peak_gbps: opt_f64("peak_gbps"),
            bound: Bound::parse(&req_str("bound")?)?,
        })
    }
}

/// An optional fixed-length numeric array field of a cell line.
fn opt_array<const N: usize>(v: &json::Value, k: &str) -> Result<Option<[f64; N]>, String> {
    let Some(field) = v.get(k) else { return Ok(None) };
    let bad = || format!("cell field {k:?} needs an array of {N} numbers");
    let items: Vec<f64> = field
        .as_array()
        .ok_or_else(bad)?
        .iter()
        .map(json::Value::as_f64)
        .collect::<Option<_>>()
        .ok_or_else(bad)?;
    items.try_into().map(Some).map_err(|_| bad())
}

/// Renders cells as a whole `matrix.jsonl` text, one line per cell, in
/// order.
pub fn to_jsonl(cells: &[MatrixCell]) -> String {
    cells.iter().map(|c| c.to_json_line() + "\n").collect()
}

/// Parses a `matrix.jsonl` text. Enforces the schema version on every
/// line — a mismatch is an error, never a silent partial parse.
///
/// # Errors
///
/// Returns a message with the offending line number for malformed JSON,
/// a `kind` other than `"cell"`, or a schema-version mismatch.
pub fn parse_matrix(text: &str) -> Result<Vec<MatrixCell>, String> {
    let mut cells = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let at = |msg: String| format!("matrix line {}: {msg}", i + 1);
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| at(format!("bad JSON: {e}")))?;
        let schema = v
            .get("schema")
            .and_then(json::Value::as_f64)
            .ok_or_else(|| at("missing schema field".into()))? as u64;
        if schema != SCHEMA_VERSION {
            return Err(at(format!(
                "schema version {schema} does not match this binary's {SCHEMA_VERSION} — \
                 re-record the matrix"
            )));
        }
        match v.get("kind").and_then(json::Value::as_str) {
            Some("cell") => cells.push(MatrixCell::from_json(&v).map_err(at)?),
            other => return Err(at(format!("unknown kind {other:?} (cell)"))),
        }
    }
    Ok(cells)
}

/// Reads and parses a `matrix.jsonl` file from disk.
///
/// # Errors
///
/// Returns a message for I/O or parse failures.
pub fn read_matrix(path: &std::path::Path) -> Result<Vec<MatrixCell>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_matrix(&text)
}

// --------------------------------------------------------------------
// Cell constructors: the normalization rules, as pure testable code.
// --------------------------------------------------------------------

/// Arithmetic operations a workload performs (the `pJ/op` denominator).
pub fn arith_ops(w: &Workload) -> f64 {
    w.flops_per_pixel * w.output_pixels as f64
}

impl MatrixCell {
    /// Builds a cycle-engine cell from a completed simulation. One GHz
    /// clock: cycles ≡ nanoseconds, bytes/cycle ≡ GB/s. The ridge point
    /// is the machine's peak SIMD throughput (`total_pes × 4` lanes at
    /// 1 GHz) over its peak bank bandwidth.
    pub fn from_engine_run(
        w: &Workload,
        backend: Backend,
        report: &ipim_core::ExecutionReport,
    ) -> MatrixCell {
        let (_, placement) = backend.engine_placement().expect("cycle backend");
        let config = ipim_core::MachineConfig {
            placement,
            ..ipim_core::MachineConfig::vault_slice(report.vaults)
        };
        let peak_bytes_per_cycle = config.peak_bank_bytes_per_cycle() as f64;
        let peak_flops = (config.total_pes() * 4) as f64; // per cycle
        let ops = arith_ops(w);
        let bytes = report.dram_bytes() as f64;
        let ai = if bytes > 0.0 { ops / bytes } else { 0.0 };
        let ridge = peak_flops / peak_bytes_per_cycle;
        let (e, s) = (&report.energy, &report.stats);
        let energy_pj = e.total_pj();
        MatrixCell {
            workload: w.name.to_string(),
            family: w.family.name().to_string(),
            scale: w.scale.width,
            backend,
            config: None,
            cycles: Some(report.cycles),
            kernel_ns: report.cycles as f64,
            gbps: Some(report.dram_bandwidth_gbs()),
            // Pure data-movement workloads (Shift) perform zero arithmetic:
            // pJ/op has no denominator there, so the field goes absent
            // rather than emitting a non-JSON `inf` on the wire.
            pj_per_op: (ops > 0.0).then(|| energy_pj / ops),
            ai: Some(ai),
            peak_gbps: Some(peak_bytes_per_cycle),
            bound: if ai < ridge { Bound::Memory } else { Bound::Compute },
            pixels: Some(w.output_pixels),
            pes: Some(report.pes as u64),
            energy_pj: Some(energy_pj),
            energy_split: Some([
                e.dram.total_pj(),
                e.simd_pj,
                e.int_alu_pj,
                e.addr_rf_pj,
                e.data_rf_pj,
                e.pgsm_pj,
                e.pe_bus_pj,
            ]),
            insts: Some(CategoryCounts::ALL.map(|k| s.by_category.get(k))),
            busy: Some([s.simd_busy, s.int_alu_busy, s.mem_busy]),
        }
    }

    /// Builds the GPU cell from the V100 roofline model.
    pub fn from_gpu(w: &Workload) -> MatrixCell {
        let model = GpuModel::default();
        let profile = gpu_profile(w.name);
        let r = run_gpu(&model, w);
        let ops = arith_ops(w);
        // Memory-bound exactly when the bandwidth term won the max() in
        // the model: achieved bandwidth then equals the profiled roof.
        let roof = model.peak_bw * profile.dram_util;
        let memory_bound = (r.achieved_bw - roof).abs() <= roof * 1e-9;
        MatrixCell {
            workload: w.name.to_string(),
            family: w.family.name().to_string(),
            scale: w.scale.width,
            backend: Backend::Gpu,
            kernel_ns: r.seconds * 1e9,
            gbps: Some(r.achieved_bw / 1e9),
            pj_per_op: (ops > 0.0).then(|| r.energy_j * 1e12 / ops),
            ai: Some(w.flops_per_pixel / w.gpu_bytes_per_pixel),
            peak_gbps: Some(model.peak_bw / 1e9),
            bound: if memory_bound { Bound::Memory } else { Bound::Compute },
            pixels: Some(w.output_pixels),
            energy_pj: Some(r.energy_j * 1e12),
            ..MatrixCell::default()
        }
    }
}

// --------------------------------------------------------------------
// The runner.
// --------------------------------------------------------------------

/// What to run.
#[derive(Debug, Clone)]
pub struct MatrixPlan {
    /// Workload names (case-insensitive); empty = the full suite.
    pub workloads: Vec<String>,
    /// Square image sides.
    pub scales: Vec<u32>,
    /// Backends to run.
    pub backends: Vec<Backend>,
    /// Cycle budget per simulation.
    pub max_cycles: u64,
}

impl Default for MatrixPlan {
    fn default() -> Self {
        Self {
            workloads: Vec::new(),
            scales: vec![32, 64, 128],
            backends: Backend::ALL.to_vec(),
            max_cycles: 4_000_000_000,
        }
    }
}

/// A completed matrix run.
#[derive(Debug, Clone, Default)]
pub struct MatrixRun {
    /// The produced cells, in canonical (workload, scale, backend, config)
    /// order.
    pub cells: Vec<MatrixCell>,
    /// Human-readable loud-skip notes for every unproduced cell.
    pub skips: Vec<String>,
}

/// Runs the plan: every selected workload × scale × backend, in canonical
/// order, the GPU roofline inline and every cycle cell through its own
/// [`Session`]. When `skip_ahead` is selected, each row also gets its
/// [`CONFIGS`] cells. The process-wide `ProgramCache` compiles each
/// workload×scale once for every default cycle cell (its key excludes
/// engine and placement).
///
/// # Errors
///
/// Returns a message naming the first plan workload that is not in the
/// suite, before running anything.
pub fn run_matrix(plan: &MatrixPlan) -> Result<MatrixRun, String> {
    let suite = all_workloads(WorkloadScale::default());
    let in_suite = |name: &String| suite.iter().any(|w| w.name.eq_ignore_ascii_case(name));
    if let Some(unknown) = plan.workloads.iter().find(|n| !in_suite(n)) {
        return Err(format!("unknown workload {unknown:?}"));
    }
    let wanted = |name: &str| {
        plan.workloads.is_empty() || plan.workloads.iter().any(|w| w.eq_ignore_ascii_case(name))
    };
    let mut scales = plan.scales.clone();
    scales.sort_unstable();
    scales.dedup();
    let mut run = MatrixRun::default();
    // Workload-major, then scale, then canonical backend order — the
    // deterministic cell order the renderer and the smoke test expect.
    for w in suite.iter().filter(|w| wanted(w.name)) {
        for &scale in &scales {
            let w = workload_by_name(w.name, WorkloadScale { width: scale, height: scale })
                .expect("suite workload");
            run_cells(&mut run, plan, &w);
        }
    }
    Ok(run)
}

/// Runs one workload×scale row: a cell (or a loud skip) per selected
/// backend, then the row's config cells.
fn run_cells(run: &mut MatrixRun, plan: &MatrixPlan, w: &Workload) {
    for backend in Backend::ALL.into_iter().filter(|b| plan.backends.contains(b)) {
        match backend.engine_placement() {
            Some((engine, placement)) => {
                let machine = MachineConfig { engine, placement, ..MachineConfig::vault_slice(1) };
                simulate_cell(run, plan, w, backend, None, &Session::new(machine));
            }
            None => run.cells.push(MatrixCell::from_gpu(w)),
        }
    }
    if !plan.backends.contains(&Backend::SkipAhead) {
        return;
    }
    for variant in CONFIGS.iter().filter(|v| v.applies(w)) {
        simulate_cell(run, plan, w, Backend::SkipAhead, Some(variant.name), &variant.session());
    }
}

/// Compiles and simulates one cycle cell. A compile failure means the
/// schedule does not map at this scale; it and an exhausted cycle budget
/// are loud skips.
fn simulate_cell(
    run: &mut MatrixRun,
    plan: &MatrixPlan,
    w: &Workload,
    backend: Backend,
    config: Option<&'static str>,
    session: &Session,
) {
    let at = format!("{}/{}/{}", w.name, w.scale.width, backend.name())
        + &config.map_or(String::new(), |c| format!("/{c}"));
    let program = match session.compile(&w.pipeline) {
        Ok(p) => p,
        Err(e) => {
            run.skips.push(format!("skip: {at}: does not map at this scale ({e})"));
            return;
        }
    };
    match session.simulate(&program, &w.inputs, plan.max_cycles) {
        Ok(o) => {
            let cell = MatrixCell::from_engine_run(w, backend, &o.report);
            run.cells.push(MatrixCell { config, ..cell });
        }
        Err(e) => run.skips.push(format!("skip: {at}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cell() -> MatrixCell {
        MatrixCell {
            workload: "Blur".into(),
            family: "image".into(),
            scale: 64,
            backend: Backend::SkipAhead,
            cycles: Some(3768),
            kernel_ns: 3768.0,
            gbps: Some(12.25),
            pj_per_op: Some(33.7),
            ai: Some(0.625),
            peak_gbps: Some(512.0),
            bound: Bound::Compute,
            pixels: Some(4096),
            pes: Some(32),
            energy_pj: Some(1.5e6),
            energy_split: Some([7e5, 1e5, 9e4, 1e4, 2e4, 3e4, 125.5]),
            insts: Some([10, 60, 15, 0, 14, 1]),
            busy: Some([900, 1700, 800]),
            ..MatrixCell::default()
        }
    }

    #[test]
    fn backend_names_round_trip() {
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.name()).unwrap(), b);
        }
        assert!(Backend::parse("abacus").is_err());
    }

    #[test]
    fn cell_json_round_trips_bit_exactly() {
        for cell in [
            sample_cell(),
            MatrixCell { config: Some("baseline3"), ..sample_cell() },
            MatrixCell { backend: Backend::Gpu, kernel_ns: 13.4, ..MatrixCell::default() },
        ] {
            let line = cell.to_json_line();
            let back = MatrixCell::from_json(&json::parse(&line).unwrap()).unwrap();
            assert_eq!(cell, back, "{line}");
        }
        let line = MatrixCell { config: Some("rf16"), ..sample_cell() }.to_json_line();
        for bad in [line.replace("rf16", "rf17"), line.replace("[10,60,", "[10,")] {
            assert!(MatrixCell::from_json(&json::parse(&bad).unwrap()).is_err(), "{bad}");
        }
    }

    #[test]
    fn config_table_names_are_unique_and_patch_the_defaults() {
        for (i, c) in CONFIGS.iter().enumerate() {
            assert_eq!(config_variant(c.name).map(|v| v.name), Some(c.name));
            assert!(CONFIGS[..i].iter().all(|o| o.name != c.name), "{} twice", c.name);
        }
        // Fig. 10's default points are the default cells.
        let slice = MachineConfig::vault_slice(1);
        assert_eq!((slice.data_rf_entries, slice.pgsm_bytes), (64, 8192));
        assert_eq!(config_variant("pgsm2k").unwrap().session().config().pgsm_bytes, 2048);
        assert_eq!(config_variant("vaults2").unwrap().session().config().total_pes(), 64);
        let b1 = config_variant("baseline1").unwrap().session();
        assert_eq!(*b1.options(), CompileOptions::baseline1());
    }

    #[test]
    fn matrix_file_round_trips_and_checks_schema() {
        let cells = vec![sample_cell(), MatrixCell { config: Some("rf16"), ..sample_cell() }];
        let text = to_jsonl(&cells);
        assert_eq!(parse_matrix(&text).unwrap(), cells);

        let next = SCHEMA_VERSION + 1;
        let drifted =
            text.replace(&format!("\"schema\":{SCHEMA_VERSION}"), &format!("\"schema\":{next}"));
        let err = parse_matrix(&drifted).unwrap_err();
        assert!(err.contains(&format!("schema version {next}")), "{err}");
        assert!(parse_matrix("{\"kind\":\"cell\"}").is_err(), "missing schema must fail");
        let other = format!("{{\"schema\":{SCHEMA_VERSION},\"kind\":\"anchor\"}}");
        assert!(parse_matrix(&other).unwrap_err().contains("unknown kind"));
    }

    #[test]
    fn smoke_matrix_produces_all_backends() {
        // One workload per family at 32² on every backend, plus
        // Histogram's four Fig. 12 compiler-baseline cells. Every field is
        // a deterministic model output, so each rendered line must appear
        // byte for byte in the committed matrix.
        let plan = MatrixPlan {
            workloads: ["Histogram", "RowSoftmax", "MotionEnergy"].map(String::from).to_vec(),
            scales: vec![32],
            ..MatrixPlan::default()
        };
        let run = run_matrix(&plan).unwrap();
        assert_eq!(run.skips, Vec::<String>::new());
        let coordinates: Vec<_> =
            run.cells.iter().map(|c| (c.workload.as_str(), c.backend, c.config)).collect();
        let mut expected = Vec::new();
        for w in &plan.workloads {
            expected.extend(Backend::ALL.map(|b| (w.as_str(), b, None)));
            if w == "Histogram" {
                let baselines = ["baseline1", "baseline2", "baseline3", "baseline4"];
                expected.extend(baselines.map(|n| (w.as_str(), Backend::SkipAhead, Some(n))));
            }
        }
        assert_eq!(coordinates, expected, "canonical order");
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/matrix.jsonl");
        let committed = std::fs::read_to_string(path).expect("committed matrix");
        for line in run.cells.iter().map(MatrixCell::to_json_line) {
            assert!(
                committed.lines().any(|l| l == line),
                "not in results/matrix.jsonl (re-record it with `--bin matrix`):\n{line}"
            );
        }
    }

    #[test]
    fn unmappable_cells_loud_skip_not_panic() {
        // Blur's hand schedule does not map at 32²: the cycle backends and
        // every config variant skip loudly, the GPU model still reports.
        let plan = MatrixPlan {
            workloads: vec!["Blur".into()],
            scales: vec![32],
            ..MatrixPlan::default()
        };
        let run = run_matrix(&plan).unwrap();
        let blur = workload_by_name("Blur", WorkloadScale { width: 32, height: 32 }).unwrap();
        let variants = CONFIGS.iter().filter(|v| v.applies(&blur)).count();
        assert_eq!(variants, 13, "Fig. 10, Fig. 12 and ablation variants");
        assert_eq!(run.skips.len(), 3 + variants, "{:?}", run.skips);
        assert!(run.skips.iter().all(|s| s.contains("does not map")), "{:?}", run.skips);
        let backends: Vec<_> = run.cells.iter().map(|c| c.backend).collect();
        assert_eq!(backends, vec![Backend::Gpu]);
    }

    #[test]
    fn unknown_workloads_fail_by_name() {
        let plan = MatrixPlan {
            workloads: vec!["Histogram".into(), "Blurr".into()],
            ..MatrixPlan::default()
        };
        let err = run_matrix(&plan).unwrap_err();
        assert!(err.contains("\"Blurr\""), "{err}");
    }
}
