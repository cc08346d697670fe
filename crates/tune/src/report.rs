//! Reporting: JSONL records for `results/tuning.jsonl` and a
//! human-readable leaderboard.
//!
//! One `tune_eval` line per evaluation (candidate, estimate, cycles,
//! energy, cache-hit, pruned, error) plus one `tune_best` summary line per
//! run. No line holds host time, so a re-run of the same search reproduces
//! the file byte for byte. The `error` field carries compiler and serve
//! messages and goes through the shared JSON escape.

use std::io::Write;
use std::path::Path;

use ipim_core::trace::json;

use crate::TuneOutcome;

/// Renders one run as JSONL: every evaluation, then the summary line.
pub fn jsonl_lines(outcome: &TuneOutcome) -> Vec<String> {
    let mut lines = Vec::with_capacity(outcome.evals.len() + 1);
    for e in &outcome.evals {
        lines.push(format!(
            "{{\"kind\":\"tune_eval\",\"workload\":\"{}\",\"width\":{},\"height\":{},\
             \"seed\":{},\"strategy\":\"{}\",\"candidate\":\"{}\",\"est_cycles\":{},\
             \"cycles\":{},\"energy_pj\":{},\"output_hash\":{},\"cache_hit\":{},\
             \"pruned\":{},\"error\":{}}}",
            outcome.workload,
            outcome.width,
            outcome.height,
            outcome.seed,
            outcome.strategy,
            e.key,
            e.est_cycles,
            e.cycles.map_or("null".to_string(), |c| c.to_string()),
            e.energy_pj.map_or("null".to_string(), |v| format!("{v:?}")),
            e.output_hash.map_or("null".to_string(), |h| format!("\"{h:016x}\"")),
            e.cache_hit,
            e.pruned,
            e.error.as_ref().map_or("null".to_string(), |m| format!("\"{}\"", json::escape(m))),
        ));
    }
    lines.push(format!(
        "{{\"kind\":\"tune_best\",\"workload\":\"{}\",\"width\":{},\"height\":{},\
         \"seed\":{},\"strategy\":\"{}\",\"space\":{},\"rejected\":{},\"pruned\":{},\
         \"simulated\":{},\"default_cycles\":{},\"best_candidate\":\"{}\",\
         \"best_cycles\":{},\"speedup\":{:.4},\"divergence\":{:?}}}",
        outcome.workload,
        outcome.width,
        outcome.height,
        outcome.seed,
        outcome.strategy,
        outcome.space_size,
        outcome.rejected,
        outcome.pruned,
        outcome.simulated,
        outcome.default_cycles.map_or("null".to_string(), |c| c.to_string()),
        outcome.best.key,
        outcome.best.cycles.expect("best is always completed"),
        outcome.speedup,
        outcome.verified_divergence,
    ));
    lines
}

/// Appends `lines` to the JSONL file at `path`, creating it (and its
/// parent directory) on first use.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn append_jsonl(path: &Path, lines: &[String]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    for line in lines {
        writeln!(f, "{line}")?;
    }
    Ok(())
}

/// Renders the top-`n` completed candidates as a fixed-width table, best
/// first, with the hand default called out for comparison.
pub fn leaderboard(outcome: &TuneOutcome, n: usize) -> String {
    let mut done: Vec<_> = outcome.evals.iter().filter(|e| e.cycles.is_some()).collect();
    done.sort_by(|a, b| (a.cycles, &a.key).cmp(&(b.cycles, &b.key)));
    let mut out = String::new();
    out.push_str(&format!(
        "== {} {}x{} · strategy {} · seed {} ==\n",
        outcome.workload, outcome.width, outcome.height, outcome.strategy, outcome.seed
    ));
    out.push_str(&format!(
        "space {} candidate(s) ({} rejected in enumeration), {} pruned, {} simulated\n",
        outcome.space_size, outcome.rejected, outcome.pruned, outcome.simulated
    ));
    out.push_str(&format!(
        "{:>4}  {:>12}  {:>12}  {:>14}  {:>7}  candidate\n",
        "rank", "est_cycles", "cycles", "energy_pj", "vs hand"
    ));
    let default_cycles = outcome.default_cycles;
    for (rank, e) in done.iter().take(n.max(1)).enumerate() {
        let cycles = e.cycles.expect("filtered");
        let vs = match default_cycles {
            Some(d) if cycles > 0 => format!("{:.2}x", d as f64 / cycles as f64),
            _ => "-".to_string(),
        };
        out.push_str(&format!(
            "{:>4}  {:>12}  {:>12}  {:>14.1}  {:>7}  {}\n",
            rank + 1,
            e.est_cycles,
            cycles,
            e.energy_pj.unwrap_or(0.0),
            vs,
            e.key,
        ));
    }
    match (default_cycles, outcome.best.cycles) {
        (Some(d), Some(b)) => out.push_str(&format!(
            "hand default: {d} cycles · best found: {b} cycles · speedup {:.3}x · \
             divergence {:?}\n",
            outcome.speedup, outcome.verified_divergence
        )),
        _ => out.push_str("hand default did not complete\n"),
    }
    out
}
