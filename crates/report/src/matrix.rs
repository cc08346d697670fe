//! The benchmark matrix: every workload × scale × backend, one normalized
//! record per cell.
//!
//! A cell carries the quantities every backend can be compared on — a
//! modeled kernel time (`kernel_ns`), the self-measured wall time of
//! producing the cell (`wall_ns`), and, where the backend's model defines
//! them, cycles, effective bandwidth, energy per arithmetic operation and
//! the roofline position (arithmetic intensity vs. the backend's ridge
//! point). The normalization rules:
//!
//! * **cycle engines** (`skip_ahead`, `legacy`, `analytic`, `ponb`) run at
//!   1 GHz, so `kernel_ns` = simulated cycles, `gbps` =
//!   [`ExecutionReport::dram_bandwidth_gbs`] (bytes/cycle ≡ GB/s), and
//!   `pj_per_op` divides the composed [`EnergyBook`] total by the
//!   workload's arithmetic op count (`flops_per_pixel × output_pixels`).
//! * **`gpu`** is the calibrated V100 roofline: `kernel_ns` = modeled
//!   seconds × 1e9, energy = seconds × board power, same op count.
//! * **`cpu_ref`** is the golden interpreter — a correctness oracle with
//!   no machine model, so its only number is the measured wall time.
//!
//! Unmappable cells (a workload whose schedule does not compile at a
//! scale, or a simulation that exhausts its cycle budget) are *loud
//! skips*: the runner records why and moves on, never panicking and never
//! silently shrinking the matrix.
//!
//! The file format is schema-versioned JSONL (see [`SCHEMA_VERSION`]): one
//! `"kind":"cell"` line per cell plus one `"kind":"anchor"` line carrying
//! this machine's `fig01_gpu_profile` timing, the same machine-speed
//! normalizer `bench_regress` uses — so a matrix file is self-contained
//! for cross-machine wall-clock comparison.

use std::time::Instant;

use ipim_core::baselines::{gpu_profile, run_gpu, GpuModel};
use ipim_core::experiments::fig1;
use ipim_core::trace::json;
use ipim_core::{all_workloads, Engine, Placement, Workload, WorkloadScale};
use ipim_serve::{fnv1a, PoolConfig, ServePool, SimRequest, SimResponse};

/// Version of the `matrix.jsonl` line schema. Any change to the cell
/// field set bumps this, and `bench_regress --matrix` refuses to compare
/// files whose versions differ.
pub const SCHEMA_VERSION: u64 = 1;

/// The machine-speed anchor entry's name (shared with `bench_regress`).
pub const ANCHOR_NAME: &str = "fig01_gpu_profile";

/// One comparison backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The skip-ahead cycle engine (the default iPIM simulator).
    SkipAhead,
    /// The legacy per-cycle engine (bit-identical, slower host time).
    Legacy,
    /// The analytic prediction tier (`fidelity: approximate`).
    Analytic,
    /// Process-on-base-die: skip-ahead engine, `Placement::BaseDie`
    /// (Sec. VII-C1 — all bank traffic crosses the vault TSV bundle).
    Ponb,
    /// The calibrated V100 roofline model (Sec. III / Fig. 1).
    Gpu,
    /// The golden CPU reference interpreter (correctness oracle).
    CpuRef,
}

impl Backend {
    /// Every backend, in canonical matrix-column order.
    pub const ALL: [Backend; 6] = [
        Backend::SkipAhead,
        Backend::Legacy,
        Backend::Analytic,
        Backend::Ponb,
        Backend::Gpu,
        Backend::CpuRef,
    ];

    /// Canonical wire/report spelling.
    pub fn name(self) -> &'static str {
        match self {
            Backend::SkipAhead => "skip_ahead",
            Backend::Legacy => "legacy",
            Backend::Analytic => "analytic",
            Backend::Ponb => "ponb",
            Backend::Gpu => "gpu",
            Backend::CpuRef => "cpu_ref",
        }
    }

    /// Parses [`name`](Self::name)'s spelling.
    ///
    /// # Errors
    ///
    /// Returns a message listing the accepted spellings.
    pub fn parse(s: &str) -> Result<Self, String> {
        Backend::ALL.into_iter().find(|b| b.name() == s).ok_or_else(|| {
            format!("unknown backend {s:?} (skip_ahead | legacy | analytic | ponb | gpu | cpu_ref)")
        })
    }

    /// The simulated engine + placement this backend selects, or `None`
    /// for the modeled/interpreted backends.
    pub fn engine_placement(self) -> Option<(Engine, Placement)> {
        match self {
            Backend::SkipAhead => Some((Engine::SkipAhead, Placement::NearBank)),
            Backend::Legacy => Some((Engine::Legacy, Placement::NearBank)),
            Backend::Analytic => Some((Engine::Analytic, Placement::NearBank)),
            Backend::Ponb => Some((Engine::SkipAhead, Placement::BaseDie)),
            Backend::Gpu | Backend::CpuRef => None,
        }
    }
}

/// Which roof a cell sits under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Bandwidth-limited (arithmetic intensity below the ridge point).
    Memory,
    /// Compute-limited.
    Compute,
    /// The backend has no roofline model (`cpu_ref`).
    NotApplicable,
}

impl Bound {
    /// Canonical wire spelling.
    pub fn name(self) -> &'static str {
        match self {
            Bound::Memory => "memory",
            Bound::Compute => "compute",
            Bound::NotApplicable => "n/a",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "memory" => Ok(Bound::Memory),
            "compute" => Ok(Bound::Compute),
            "n/a" => Ok(Bound::NotApplicable),
            other => Err(format!("unknown bound {other:?} (memory | compute | n/a)")),
        }
    }
}

/// One normalized matrix record.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    /// Workload name as the suite spells it.
    pub workload: String,
    /// Workload family (`image` | `nn` | `video`).
    pub family: String,
    /// Square image side in pixels (the ladder runs 32/64/128).
    pub scale: u32,
    /// The backend that produced this cell.
    pub backend: Backend,
    /// Simulated cycles (cycle engines only).
    pub cycles: Option<u64>,
    /// Modeled kernel time in nanoseconds — cycles at 1 GHz for the cycle
    /// engines, roofline seconds for the GPU, measured wall for `cpu_ref`.
    pub kernel_ns: f64,
    /// Wall-clock nanoseconds this cell took to produce on this machine
    /// (the number the drift gate normalizes by the anchor).
    pub wall_ns: u64,
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
}

impl MatrixCell {
    /// Canonical textual identity of the cell's *coordinates* (not its
    /// measurements): what the drift gate joins baseline and fresh rows
    /// on. Independent of the order backends were enumerated in — the key
    /// is built from the cell's own fields only.
    pub fn canonical_key(&self) -> String {
        format!(
            "workload={};scale={};backend={}",
            self.workload.to_ascii_lowercase(),
            self.scale,
            self.backend.name()
        )
    }

    /// 64-bit FNV-1a of [`canonical_key`](Self::canonical_key).
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.canonical_key().as_bytes())
    }

    /// Renders the cell as one schema-versioned JSONL line. `None` fields
    /// are omitted (the same invisible-optional convention `SimRequest`
    /// uses); f64 fields print in shortest-round-trip form so a parse of
    /// the line reproduces the cell bit-exactly.
    pub fn to_json_line(&self) -> String {
        let opt_u = |k: &str, v: Option<u64>| v.map_or(String::new(), |v| format!(",\"{k}\":{v}"));
        let opt_f = |k: &str, v: Option<f64>| {
            v.map_or(String::new(), |v| {
                assert!(v.is_finite(), "non-finite {k} would corrupt the wire: {v}");
                format!(",\"{k}\":{v:?}")
            })
        };
        assert!(self.kernel_ns.is_finite(), "non-finite kernel_ns: {}", self.kernel_ns);
        format!(
            "{{\"schema\":{SCHEMA_VERSION},\"kind\":\"cell\",\"workload\":\"{}\",\
             \"family\":\"{}\",\"scale\":{},\"backend\":\"{}\"{}{}{}{}{},\
             \"kernel_ns\":{:?},\"wall_ns\":{},\"bound\":\"{}\"}}",
            self.workload,
            self.family,
            self.scale,
            self.backend.name(),
            opt_u("cycles", self.cycles),
            opt_f("gbps", self.gbps),
            opt_f("pj_per_op", self.pj_per_op),
            opt_f("ai", self.ai),
            opt_f("peak_gbps", self.peak_gbps),
            self.kernel_ns,
            self.wall_ns,
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
        Ok(MatrixCell {
            workload: req_str("workload")?,
            family: req_str("family")?,
            scale: req_f64("scale")? as u32,
            backend: Backend::parse(&req_str("backend")?)?,
            cycles: opt_f64("cycles").map(|c| c as u64),
            kernel_ns: req_f64("kernel_ns")?,
            wall_ns: req_f64("wall_ns")? as u64,
            gbps: opt_f64("gbps"),
            pj_per_op: opt_f64("pj_per_op"),
            ai: opt_f64("ai"),
            peak_gbps: opt_f64("peak_gbps"),
            bound: Bound::parse(&req_str("bound")?)?,
        })
    }
}

/// The machine-speed anchor recorded alongside the cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Anchor {
    /// Anchor kernel name (always [`ANCHOR_NAME`] today).
    pub name: String,
    /// Its minimum wall time on the recording machine.
    pub min_ns: u64,
}

impl Anchor {
    /// Renders the anchor as one schema-versioned JSONL line.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"schema\":{SCHEMA_VERSION},\"kind\":\"anchor\",\"name\":\"{}\",\"min_ns\":{}}}",
            self.name, self.min_ns
        )
    }
}

/// A parsed `matrix.jsonl`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MatrixFile {
    /// Every cell, in file order.
    pub cells: Vec<MatrixCell>,
    /// Every anchor, in file order.
    pub anchors: Vec<Anchor>,
}

impl MatrixFile {
    /// The anchor's `min_ns`, when recorded.
    pub fn anchor_ns(&self) -> Option<u64> {
        self.anchors.iter().find(|a| a.name == ANCHOR_NAME).map(|a| a.min_ns)
    }

    /// Renders the whole file (anchors first, then cells, in order).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for a in &self.anchors {
            out.push_str(&a.to_json_line());
            out.push('\n');
        }
        for c in &self.cells {
            out.push_str(&c.to_json_line());
            out.push('\n');
        }
        out
    }
}

/// Parses a `matrix.jsonl` text. Enforces the schema version on every
/// line — a mismatch is an error, never a silent partial parse.
///
/// # Errors
///
/// Returns a message with the offending line number for malformed JSON,
/// unknown `kind`s, or a schema-version mismatch.
pub fn parse_matrix(text: &str) -> Result<MatrixFile, String> {
    let mut out = MatrixFile::default();
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
            Some("cell") => out.cells.push(MatrixCell::from_json(&v).map_err(at)?),
            Some("anchor") => out.anchors.push(Anchor {
                name: v
                    .get("name")
                    .and_then(json::Value::as_str)
                    .ok_or_else(|| at("anchor needs a name".into()))?
                    .to_string(),
                min_ns: v
                    .get("min_ns")
                    .and_then(json::Value::as_f64)
                    .ok_or_else(|| at("anchor needs min_ns".into()))?
                    as u64,
            }),
            other => return Err(at(format!("unknown kind {other:?} (cell | anchor)"))),
        }
    }
    Ok(out)
}

/// Reads and parses a `matrix.jsonl` file from disk.
///
/// # Errors
///
/// Returns a message for I/O or parse failures.
pub fn read_matrix(path: &std::path::Path) -> Result<MatrixFile, String> {
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
        energy_pj: f64,
        wall_ns: u64,
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
        MatrixCell {
            workload: w.name.to_string(),
            family: w.family.name().to_string(),
            scale: w.scale.width,
            backend,
            cycles: Some(report.cycles),
            kernel_ns: report.cycles as f64,
            wall_ns,
            gbps: Some(report.dram_bandwidth_gbs()),
            // Pure data-movement workloads (Shift) perform zero arithmetic:
            // pJ/op has no denominator there, so the field goes absent
            // rather than emitting a non-JSON `inf` on the wire.
            pj_per_op: (ops > 0.0).then(|| energy_pj / ops),
            ai: Some(ai),
            peak_gbps: Some(peak_bytes_per_cycle),
            bound: if ai < ridge { Bound::Memory } else { Bound::Compute },
        }
    }

    /// Builds the GPU cell from the V100 roofline model.
    pub fn from_gpu(w: &Workload, wall_ns: u64) -> MatrixCell {
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
            cycles: None,
            kernel_ns: r.seconds * 1e9,
            wall_ns,
            gbps: Some(r.achieved_bw / 1e9),
            pj_per_op: (ops > 0.0).then(|| r.energy_j * 1e12 / ops),
            ai: Some(w.flops_per_pixel / w.gpu_bytes_per_pixel),
            peak_gbps: Some(model.peak_bw / 1e9),
            bound: if memory_bound { Bound::Memory } else { Bound::Compute },
        }
    }

    /// Builds the golden-interpreter cell: a correctness oracle with no
    /// machine model, so wall time is its only measurement.
    pub fn from_cpu_ref(w: &Workload, wall_ns: u64) -> MatrixCell {
        MatrixCell {
            workload: w.name.to_string(),
            family: w.family.name().to_string(),
            scale: w.scale.width,
            backend: Backend::CpuRef,
            cycles: None,
            kernel_ns: wall_ns as f64,
            wall_ns,
            gbps: None,
            pj_per_op: None,
            ai: None,
            peak_gbps: None,
            bound: Bound::NotApplicable,
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
    /// Serve-pool workers. A row's cycle cells are all submitted at once
    /// and each cell's `wall_ns` runs from its own submit to its reply, so
    /// with 1 worker (the default) it includes the wait behind the row's
    /// earlier-submitted cells, not only the cell's own job. More workers
    /// fan a workload×scale's cycle cells out concurrently, trading
    /// wall-clock fidelity for throughput.
    pub workers: usize,
    /// Cycle budget per simulation.
    pub max_cycles: u64,
}

impl Default for MatrixPlan {
    fn default() -> Self {
        Self {
            workloads: Vec::new(),
            scales: vec![32, 64, 128],
            backends: Backend::ALL.to_vec(),
            workers: 1,
            max_cycles: 4_000_000_000,
        }
    }
}

/// A completed matrix run.
#[derive(Debug, Clone, Default)]
pub struct MatrixRun {
    /// The produced cells, in canonical (workload, scale, backend) order.
    pub cells: Vec<MatrixCell>,
    /// The machine-speed anchors.
    pub anchors: Vec<Anchor>,
    /// Human-readable loud-skip notes for every unproduced cell.
    pub skips: Vec<String>,
}

impl MatrixRun {
    /// The run as a [`MatrixFile`] (what gets written to disk).
    pub fn to_file(&self) -> MatrixFile {
        MatrixFile { cells: self.cells.clone(), anchors: self.anchors.clone() }
    }
}

/// Minimum wall-clock of `iters` calls after `warmup` discarded calls —
/// the same estimator `bench_regress` uses for the anchor.
fn min_ns_of<R>(warmup: u32, iters: u32, mut f: impl FnMut() -> R) -> u64 {
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let mut min = u64::MAX;
    for _ in 0..iters {
        let start = Instant::now();
        std::hint::black_box(f());
        min = min.min(start.elapsed().as_nanos() as u64);
    }
    min
}

/// Measures the machine-speed anchor (same kernel and estimator as
/// `bench_regress`'s fresh measurement).
pub fn measure_anchor() -> Anchor {
    Anchor { name: ANCHOR_NAME.to_string(), min_ns: min_ns_of(3, 10, fig1) }
}

/// Runs the plan: every selected workload × scale × backend, fanned
/// across a [`ServePool`] for the cycle engines, with the GPU roofline
/// and the golden interpreter evaluated inline. Compiles each
/// workload×scale once up front (the global `ProgramCache` then serves
/// every cycle backend, whose program key excludes engine and placement).
pub fn run_matrix(plan: &MatrixPlan) -> MatrixRun {
    let mut run = MatrixRun { anchors: vec![measure_anchor()], ..MatrixRun::default() };
    let pool = ServePool::start(&PoolConfig {
        workers: plan.workers.max(1),
        queue_depth: Backend::ALL.len() * 2,
        cache_capacity: 0, // every cell is unique; no memoization wanted
    });
    let wanted = |name: &str| {
        plan.workloads.is_empty() || plan.workloads.iter().any(|w| w.eq_ignore_ascii_case(name))
    };
    let mut scales = plan.scales.clone();
    scales.sort_unstable();
    scales.dedup();
    // Workload-major, then scale, then canonical backend order — the
    // deterministic cell order the renderer and gate expect.
    for w in all_workloads(WorkloadScale::default()) {
        if !wanted(w.name) {
            continue;
        }
        for &scale in &scales {
            let ws = WorkloadScale { width: scale, height: scale };
            let w = match ipim_core::workload_by_name(w.name, ws) {
                Some(w) => w,
                None => unreachable!("suite workload renamed mid-run"),
            };
            run_cells(&mut run, &pool, plan, &w);
        }
    }
    pool.shutdown();
    run
}

/// Runs one workload×scale row: cold-compiles once, then produces a cell
/// (or a loud skip) per selected backend.
fn run_cells(run: &mut MatrixRun, pool: &ServePool, plan: &MatrixPlan, w: &Workload) {
    let scale = w.scale.width;
    let base = SimRequest {
        max_cycles: plan.max_cycles,
        ..SimRequest::named(w.name, w.scale.width, w.scale.height)
    };
    // One cold compile per workload×scale. The program key excludes the
    // engine and the placement, so this single lowering serves SkipAhead,
    // Legacy, Analytic and Ponb alike; a compile failure here means the
    // schedule does not map at this scale, which loud-skips every cycle
    // backend (the GPU model and the interpreter still produce cells).
    let cycle_backends: Vec<Backend> =
        plan.backends.iter().copied().filter(|b| b.engine_placement().is_some()).collect();
    let compiled = if cycle_backends.is_empty() {
        Ok(())
    } else {
        base.instantiate()
            .and_then(|(session, w)| session.compile(&w.pipeline).map_err(|e| e.to_string()))
            .map(|_| ())
    };
    match compiled {
        Ok(()) => {
            // Fan the row's cycle cells across the pool: submit every
            // ticket, then collect in canonical order. Each cell's wall
            // clock starts at its own submit, so with one worker it also
            // counts the queue wait behind the cells submitted before it.
            let tickets: Vec<_> = cycle_backends
                .iter()
                .map(|&b| {
                    let (engine, placement) = b.engine_placement().expect("cycle backend");
                    let req = SimRequest { engine, placement, ..base.clone() };
                    (b, Instant::now(), pool.submit(req))
                })
                .collect();
            for (b, submitted, ticket) in tickets {
                let response = ticket.wait();
                let wall_ns = submitted.elapsed().as_nanos() as u64;
                match response {
                    SimResponse::Done(d) => run.cells.push(MatrixCell::from_engine_run(
                        w,
                        b,
                        &d.report,
                        d.energy_pj,
                        wall_ns,
                    )),
                    SimResponse::Timeout(t) => run.skips.push(format!(
                        "skip: {}/{scale}/{}: cycle budget exhausted ({t:?})",
                        w.name,
                        b.name()
                    )),
                    SimResponse::Error(e) => {
                        run.skips.push(format!("skip: {}/{scale}/{}: {e}", w.name, b.name()))
                    }
                }
            }
        }
        Err(e) => {
            for b in &cycle_backends {
                run.skips.push(format!(
                    "skip: {}/{scale}/{}: does not map at this scale ({e})",
                    w.name,
                    b.name()
                ));
            }
        }
    }
    if plan.backends.contains(&Backend::Gpu) {
        let start = Instant::now();
        std::hint::black_box(run_gpu(&GpuModel::default(), w));
        run.cells.push(MatrixCell::from_gpu(w, start.elapsed().as_nanos() as u64));
    }
    if plan.backends.contains(&Backend::CpuRef) {
        let images: Vec<_> = w.inputs.iter().map(|(_, img)| img.clone()).collect();
        let start = Instant::now();
        let out = ipim_core::frontend::interpret(&w.pipeline, &images);
        let wall_ns = start.elapsed().as_nanos() as u64;
        match out {
            Ok(_) => run.cells.push(MatrixCell::from_cpu_ref(w, wall_ns)),
            Err(e) => run.skips.push(format!("skip: {}/{scale}/cpu_ref: {e}", w.name)),
        }
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
            wall_ns: 1_234_567,
            gbps: Some(12.25),
            pj_per_op: Some(33.7),
            ai: Some(0.625),
            peak_gbps: Some(512.0),
            bound: Bound::Compute,
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
            MatrixCell {
                cycles: None,
                gbps: None,
                pj_per_op: None,
                ai: None,
                peak_gbps: None,
                bound: Bound::NotApplicable,
                backend: Backend::CpuRef,
                ..sample_cell()
            },
        ] {
            let line = cell.to_json_line();
            let back = MatrixCell::from_json(&json::parse(&line).unwrap()).unwrap();
            assert_eq!(cell, back, "{line}");
        }
    }

    #[test]
    fn matrix_file_round_trips_and_checks_schema() {
        let file = MatrixFile {
            cells: vec![sample_cell()],
            anchors: vec![Anchor { name: ANCHOR_NAME.into(), min_ns: 42 }],
        };
        let text = file.to_jsonl();
        let back = parse_matrix(&text).unwrap();
        assert_eq!(file, back);
        assert_eq!(back.anchor_ns(), Some(42));

        let drifted = text.replace("\"schema\":1", "\"schema\":2");
        let err = parse_matrix(&drifted).unwrap_err();
        assert!(err.contains("schema version 2"), "{err}");
        assert!(parse_matrix("{\"kind\":\"cell\"}").is_err(), "missing schema must fail");
    }

    #[test]
    fn fingerprint_ignores_measurements() {
        let a = sample_cell();
        let mut b = sample_cell();
        b.wall_ns = 999;
        b.cycles = Some(1);
        b.kernel_ns = 1.0;
        assert_eq!(a.fingerprint(), b.fingerprint(), "coordinates only");
        let mut c = sample_cell();
        c.backend = Backend::Legacy;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn smoke_matrix_produces_all_backends() {
        // Histogram maps at 32² (the only Table II kernel that does, with
        // StencilChain); every backend must produce a cell.
        let plan = MatrixPlan {
            workloads: vec!["Histogram".into()],
            scales: vec![32],
            ..MatrixPlan::default()
        };
        let run = run_matrix(&plan);
        assert_eq!(run.skips, Vec::<String>::new());
        let backends: Vec<_> = run.cells.iter().map(|c| c.backend).collect();
        assert_eq!(backends, Backend::ALL.to_vec(), "canonical order");
        assert_eq!(run.to_file().anchor_ns().map(|n| n > 0), Some(true));
        // PonB serializes bank traffic on the TSVs: strictly more cycles.
        let cycles =
            |b: Backend| run.cells.iter().find(|c| c.backend == b).unwrap().cycles.unwrap();
        assert!(cycles(Backend::Ponb) > cycles(Backend::SkipAhead));
        // Legacy and skip-ahead are bit-identical in simulated time.
        assert_eq!(cycles(Backend::Legacy), cycles(Backend::SkipAhead));
    }

    #[test]
    fn unmappable_cells_loud_skip_not_panic() {
        // Blur's hand schedule does not map at 32²: the cycle backends
        // skip loudly, the GPU model and interpreter still report.
        let plan = MatrixPlan {
            workloads: vec!["Blur".into()],
            scales: vec![32],
            ..MatrixPlan::default()
        };
        let run = run_matrix(&plan);
        assert_eq!(run.skips.len(), 4, "{:?}", run.skips);
        assert!(run.skips.iter().all(|s| s.contains("does not map")), "{:?}", run.skips);
        let backends: Vec<_> = run.cells.iter().map(|c| c.backend).collect();
        assert_eq!(backends, vec![Backend::Gpu, Backend::CpuRef]);
    }
}
