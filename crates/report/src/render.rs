//! The trajectory report renderer: folds the repo's two JSONL result
//! streams into one deterministic `results/REPORT.md`.
//!
//! Inputs (both optional — a missing stream is a *loud skip*: the report
//! names it and renders the remaining sections):
//!
//! * `matrix.jsonl` — the benchmark matrix ([`crate::matrix`]); its cells
//!   also give the paper comparison ([`crate::paper`]) and, from the
//!   `skip_ahead`/`analytic` pairs, the divergence table.
//! * `tuning.jsonl` — autotuner `tune_eval`/`tune_best` records.
//!
//! Determinism contract: the rendered bytes are a pure function of the
//! parsed stream *contents* — input line order never matters (every
//! section sorts by explicit keys), floats print with fixed precision,
//! and nothing timestamps the output. `render` on the same inputs is
//! byte-identical forever, which is what lets CI `cmp` a fresh rendering
//! against the committed `REPORT.md`.

use std::path::Path;
use std::sync::OnceLock;

use ipim_core::analytic::divergence_pct;
use ipim_core::trace::json;
use ipim_core::{all_workloads, WorkloadFamily, WorkloadScale};

use crate::matrix::{read_matrix, Backend, MatrixCell, CONFIGS};
use crate::paper::{find, render_paper};

/// One parsed `tune_best` line of `tuning.jsonl`.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneBest {
    /// Tuned workload.
    pub workload: String,
    /// Image width/height.
    pub width: u64,
    /// Image height.
    pub height: u64,
    /// Search strategy label.
    pub strategy: String,
    /// RNG seed.
    pub seed: u64,
    /// Winning candidate's canonical schedule key.
    pub best_candidate: String,
    /// Winning candidate's cycles.
    pub best_cycles: u64,
    /// Hand-schedule cycles (when the default completed).
    pub default_cycles: Option<u64>,
    /// Speedup over the hand schedule.
    pub speedup: f64,
}

/// One tuner evaluation-count row: `(workload, strategy, seed, evals)`.
pub type TuneEvalCount = (String, String, u64, u64);

/// Everything the renderer folds, plus the loud-skip notes for streams
/// that were missing on disk.
#[derive(Debug, Clone, Default)]
pub struct Streams {
    /// The benchmark matrix cells.
    pub cells: Vec<MatrixCell>,
    /// `tuning.jsonl` `tune_best` entries.
    pub tuning: Vec<TuneBest>,
    /// Evaluation-line count per (workload, strategy, seed) leaderboard row.
    pub tune_evals: Vec<TuneEvalCount>,
    /// Names of streams that were missing (rendered as loud skips).
    pub missing: Vec<String>,
}

/// Parses `tuning.jsonl` into the leaderboard rows + eval counts.
fn parse_tuning(text: &str, path: &str) -> Result<(Vec<TuneBest>, Vec<TuneEvalCount>), String> {
    let mut best = Vec::new();
    let mut evals: Vec<TuneEvalCount> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |msg: String| format!("{path}:{}: {msg}", i + 1);
        let v = json::parse(line).map_err(|e| at(format!("bad JSON: {e}")))?;
        let str_of = |k: &str| v.get(k).and_then(json::Value::as_str).map(str::to_string);
        let num_of = |k: &str| v.get(k).and_then(json::Value::as_f64);
        match v.get("kind").and_then(json::Value::as_str) {
            Some("tune_eval") => {
                let key = (
                    str_of("workload").ok_or_else(|| at("tune_eval needs workload".into()))?,
                    str_of("strategy").unwrap_or_default(),
                    num_of("seed").unwrap_or(0.0) as u64,
                );
                match evals.iter_mut().find(|(w, s, d, _)| (w, s, d) == (&key.0, &key.1, &key.2)) {
                    Some(row) => row.3 += 1,
                    None => evals.push((key.0, key.1, key.2, 1)),
                }
            }
            Some("tune_best") => best.push(TuneBest {
                workload: str_of("workload")
                    .ok_or_else(|| at("tune_best needs workload".into()))?,
                width: num_of("width").unwrap_or(0.0) as u64,
                height: num_of("height").unwrap_or(0.0) as u64,
                strategy: str_of("strategy").unwrap_or_default(),
                seed: num_of("seed").unwrap_or(0.0) as u64,
                best_candidate: str_of("best_candidate").unwrap_or_default(),
                best_cycles: num_of("best_cycles").unwrap_or(0.0) as u64,
                default_cycles: num_of("default_cycles").map(|c| c as u64),
                speedup: num_of("speedup").unwrap_or(0.0),
            }),
            // Unknown kinds are future extensions, not errors.
            _ => {}
        }
    }
    Ok((best, evals))
}

impl Streams {
    /// Loads every stream from `dir`, recording missing files as loud
    /// skips instead of failing.
    ///
    /// # Errors
    ///
    /// Returns a message only for files that exist but do not parse —
    /// a present-but-corrupt stream is a bug, not a gap.
    pub fn load(dir: &Path) -> Result<Streams, String> {
        let mut s = Streams::default();
        let read = |name: &str| -> Option<String> { std::fs::read_to_string(dir.join(name)).ok() };
        match read("matrix.jsonl") {
            Some(_) => s.cells = read_matrix(&dir.join("matrix.jsonl"))?,
            None => s.missing.push("matrix.jsonl".into()),
        }
        match read("tuning.jsonl") {
            Some(text) => (s.tuning, s.tune_evals) = parse_tuning(&text, "tuning.jsonl")?,
            None => s.missing.push("tuning.jsonl".into()),
        }
        Ok(s)
    }
}

/// The registered suite in rank order — the paper's Table II, then NN,
/// then Video — as (name, family, multi-stage). Sort keys are computed
/// per comparison, so the suite (and its input images) is built once per
/// process, not once per call.
pub(crate) fn suite() -> &'static [(&'static str, WorkloadFamily, bool)] {
    static SUITE: OnceLock<Vec<(&'static str, WorkloadFamily, bool)>> = OnceLock::new();
    SUITE.get_or_init(|| {
        all_workloads(WorkloadScale::tiny())
            .iter()
            .map(|w| (w.name, w.family, w.multi_stage))
            .collect()
    })
}

/// Suite rank of a workload name; unknown names sort after the suite,
/// alphabetically.
fn workload_rank(name: &str) -> (usize, String) {
    match suite().iter().position(|w| w.0.eq_ignore_ascii_case(name)) {
        Some(i) => (i, String::new()),
        None => (suite().len(), name.to_ascii_lowercase()),
    }
}

fn backend_rank(b: Backend) -> usize {
    Backend::ALL.iter().position(|x| *x == b).expect("backend in ALL")
}

/// The default cell first, then [`CONFIGS`] order.
fn config_rank(config: Option<&str>) -> usize {
    config.map_or(0, |n| 1 + CONFIGS.iter().position(|c| c.name == n).unwrap_or(CONFIGS.len()))
}

/// Fixed-precision microseconds used throughout the tables.
fn us(ns: f64) -> String {
    format!("{:.2}", ns / 1000.0)
}

/// Renders the full report. Pure: same streams → byte-identical output,
/// regardless of the order lines appeared in on disk.
pub fn render(streams: &Streams) -> String {
    let mut out = String::new();
    out.push_str("# iPIM trajectory report\n\n");
    out.push_str(
        "One deterministic view over the repo's recorded result streams \
         (`matrix.jsonl`, `tuning.jsonl`), and the \
         one place the paper comparison is computed. \
         Regenerate with `cargo run --release -p ipim-report --bin render_report`; \
         CI diffs the regenerated bytes against this file.\n\n",
    );
    let mut missing = streams.missing.clone();
    missing.sort_unstable();
    for m in &missing {
        out.push_str(&format!("> **missing stream:** `{m}` — its sections are skipped.\n"));
    }
    if !missing.is_empty() {
        out.push('\n');
    }
    let cells = sorted_cells(streams);
    render_paper(&mut out, &cells);
    render_matrix(&mut out, &cells);
    render_divergence(&mut out, &cells);
    render_tuning(&mut out, streams);
    out
}

/// The cells in render order, so every lookup finds the same cell
/// whatever the input line order.
fn sorted_cells(streams: &Streams) -> Vec<MatrixCell> {
    let mut cells = streams.cells.clone();
    // Coordinates first; the modeled time breaks ties so that even
    // a degenerate input with duplicate coordinates renders identically
    // regardless of line order.
    cells.sort_by_key(|c| {
        (
            workload_rank(&c.workload),
            c.scale,
            backend_rank(c.backend),
            config_rank(c.config),
            c.kernel_ns.to_bits(),
        )
    });
    cells
}

fn render_matrix(out: &mut String, cells: &[MatrixCell]) {
    out.push_str("## Benchmark matrix\n\n");
    if cells.is_empty() {
        out.push_str("_No matrix cells recorded._\n\n");
        return;
    }
    out.push_str(
        "Modeled kernel time per default-config cell in µs (cycle engines: simulated cycles \
         at 1 GHz; gpu: V100 roofline). `—` marks a cell whose schedule does not map at that \
         scale.\n\n",
    );
    out.push_str("| workload | family | scale |");
    for b in Backend::ALL {
        out.push_str(&format!(" {} |", b.name()));
    }
    out.push_str("\n|---|---|---:|");
    for _ in Backend::ALL {
        out.push_str("---:|");
    }
    out.push('\n');
    // Row keys in sorted order, deduplicated.
    let mut rows: Vec<(String, String, u32)> =
        cells.iter().map(|c| (c.workload.clone(), c.family.clone(), c.scale)).collect();
    rows.dedup();
    for (workload, family, scale) in rows {
        out.push_str(&format!("| {workload} | {family} | {scale} |"));
        for b in Backend::ALL {
            match find(cells, &workload, scale, b, None) {
                Some(c) => out.push_str(&format!(" {} |", us(c.kernel_ns))),
                None => out.push_str(" — |"),
            }
        }
        out.push('\n');
    }
    out.push('\n');
}

fn render_divergence(out: &mut String, cells: &[MatrixCell]) {
    out.push_str("## Analytic divergence envelope\n\n");
    // One (workload, scale, divergence) per default skip_ahead cell that
    // has an analytic partner, in the sorted cells' row order.
    let mut divs: Vec<(&str, u32, f64)> = Vec::new();
    for skip in cells.iter().filter(|c| c.backend == Backend::SkipAhead && c.config.is_none()) {
        let analytic = find(cells, &skip.workload, skip.scale, Backend::Analytic, None);
        if let (Some(measured), Some(predicted)) = (skip.cycles, analytic.and_then(|a| a.cycles)) {
            divs.push((&skip.workload, skip.scale, divergence_pct(predicted, measured)));
        }
    }
    if divs.is_empty() {
        out.push_str("_No skip_ahead/analytic cell pairs in matrix.jsonl._\n\n");
        return;
    }
    let mut scales: Vec<u32> = divs.iter().map(|d| d.1).collect();
    scales.sort_unstable();
    scales.dedup();
    out.push_str(
        "Analytic-tier cycle divergence vs the skip-ahead engine, per workload × scale \
         (from the `skip_ahead`/`analytic` cell pairs in `matrix.jsonl`; the \
         `analytic_accuracy` test fails at +10 pts over these pairs).\n\n",
    );
    out.push_str("| workload |");
    for s in &scales {
        out.push_str(&format!(" {s}² |"));
    }
    out.push_str("\n|---|");
    for _ in &scales {
        out.push_str("---:|");
    }
    out.push('\n');
    let mut names: Vec<&str> = divs.iter().map(|d| d.0).collect();
    names.dedup();
    let mut worst = 0.0f64;
    for name in names {
        out.push_str(&format!("| {name} |"));
        for s in &scales {
            match divs.iter().find(|d| d.0 == name && d.1 == *s) {
                Some(&(_, _, d)) => {
                    worst = worst.max(d);
                    out.push_str(&format!(" {d:.2}% |"));
                }
                None => out.push_str(" — |"),
            }
        }
        out.push('\n');
    }
    out.push_str(&format!("\nEnvelope (worst calibrated cell): **{worst:.2}%**.\n\n"));
}

fn render_tuning(out: &mut String, streams: &Streams) {
    out.push_str("## Tuner leaderboard\n\n");
    if streams.tuning.is_empty() {
        out.push_str("_No tune_best entries recorded._\n\n");
        return;
    }
    let mut rows: Vec<&TuneBest> = streams.tuning.iter().collect();
    rows.sort_by(|a, b| {
        b.speedup.partial_cmp(&a.speedup).expect("speedups are finite").then_with(|| {
            (workload_rank(&a.workload), a.seed).cmp(&(workload_rank(&b.workload), b.seed))
        })
    });
    out.push_str(
        "Autotuner runs from `tuning.jsonl`, best speedup over the hand schedule first.\n\n",
    );
    out.push_str(
        "| workload | size | strategy | seed | best candidate | default → best cycles | \
         speedup | evals |\n|---|---|---|---:|---|---|---:|---:|\n",
    );
    for t in rows {
        let evals = streams
            .tune_evals
            .iter()
            .find(|(w, s, d, _)| (w, s, *d) == (&t.workload, &t.strategy, t.seed))
            .map_or("—".to_string(), |(_, _, _, n)| n.to_string());
        out.push_str(&format!(
            "| {} | {}×{} | {} | {} | `{}` | {} → {} | {:.3}× | {} |\n",
            t.workload,
            t.width,
            t.height,
            t.strategy,
            t.seed,
            t.best_candidate,
            t.default_cycles.map_or("—".to_string(), |c| c.to_string()),
            t.best_cycles,
            t.speedup,
            evals,
        ));
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(workload: &str, scale: u32, backend: Backend, kernel_ns: f64) -> MatrixCell {
        let cycle_engine = backend.engine_placement().is_some();
        MatrixCell {
            workload: workload.into(),
            family: "image".into(),
            scale,
            backend,
            cycles: cycle_engine.then_some(kernel_ns as u64),
            pes: cycle_engine.then_some(32),
            kernel_ns,
            ..MatrixCell::default()
        }
    }

    #[test]
    fn render_is_input_order_invariant() {
        let mut s = Streams {
            cells: vec![
                cell("Blur", 64, Backend::SkipAhead, 3768.0),
                cell("Blur", 64, Backend::Analytic, 3896.0),
                cell("Blur", 64, Backend::Gpu, 15072.0),
                cell("Brighten", 64, Backend::SkipAhead, 500.0),
            ],
            ..Streams::default()
        };
        let a = render(&s);
        s.cells.reverse();
        let b = render(&s);
        assert_eq!(a, b, "render must not depend on input order");
        assert!(a.contains("| Blur | image | 64 |"), "{a}");
        // gpu/ipim kernel time, scaled out from the 32-PE slice: 4 × 128.
        assert!(a.contains("| Blur | 64 | — | — | 512.00× |"), "gpu/ipim speedup: {a}");
        // |3896 − 3768| / 3768 = 3.397%; Brighten's skip_ahead cell has
        // no analytic partner, so it adds no divergence row.
        let divergence = section(&a, "## Analytic divergence envelope");
        assert!(divergence.contains("| Blur | 3.40% |"), "{divergence}");
        assert!(!divergence.contains("Brighten"), "{divergence}");
        assert!(divergence.contains("**3.40%**"), "{divergence}");
    }

    /// The text of the `##` section starting at `heading`, up to the next.
    fn section<'a>(text: &'a str, heading: &str) -> &'a str {
        let start = text.find(heading).expect("section present");
        let rest = &text[start + heading.len()..];
        &rest[..rest.find("\n## ").unwrap_or(rest.len())]
    }

    #[test]
    fn missing_streams_are_loud_not_fatal() {
        let dir = std::env::temp_dir().join("ipim-report-empty-stream-test");
        std::fs::create_dir_all(&dir).unwrap();
        let s = Streams::load(&dir).unwrap();
        assert_eq!(s.missing.len(), 2, "{:?}", s.missing);
        let text = render(&s);
        for stream in ["matrix.jsonl", "tuning.jsonl"] {
            assert!(text.contains(&format!("**missing stream:** `{stream}`")), "{text}");
        }
        assert!(text.contains("_No matrix cells recorded._"), "{text}");
    }

    #[test]
    fn tuning_leaderboard_counts_evals() {
        let tuning_text = concat!(
            "{\"kind\":\"tune_eval\",\"workload\":\"Blur\",\"strategy\":\"hill\",\"seed\":7}\n",
            "{\"kind\":\"tune_eval\",\"workload\":\"Blur\",\"strategy\":\"hill\",\"seed\":7}\n",
            "{\"kind\":\"tune_best\",\"workload\":\"Blur\",\"width\":64,\"height\":64,",
            "\"seed\":7,\"strategy\":\"hill\",\"best_candidate\":\"tile=16x8\",",
            "\"best_cycles\":3000,\"default_cycles\":3768,\"speedup\":1.256}\n",
        );
        let (best, evals) = parse_tuning(tuning_text, "tuning.jsonl").unwrap();
        let s = Streams { tuning: best, tune_evals: evals, ..Streams::default() };
        let text = render(&s);
        assert!(
            text.contains("| Blur | 64×64 | hill | 7 | `tile=16x8` | 3768 → 3000 | 1.256× | 2 |"),
            "{text}"
        );
    }
}
