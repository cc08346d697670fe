//! The metric catalogue and how a run prints it.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json` (a unit test keeps
//! them in step). Each entry names the end-to-end metric a layer metric
//! should move and the workload it should move it on, which the traced run
//! prints beside every value.

use std::collections::BTreeMap;

use crate::spans::Span;
use crate::stats::Tally;

/// One metric definition.
pub struct Def {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// For a layer metric, the end-to-end metric it should move; for an
    /// end-to-end metric, what it counts.
    pub moves: &'static str,
    /// Workloads the metric applies to (layer metrics: where it should
    /// move the end-to-end metric).
    pub on: &'static str,
    /// Whether `BENCHMARK.json` lists it (and so the result line carries
    /// it on every workload).
    pub declared: bool,
}

const fn def(name: &'static str, unit: &'static str, moves: &'static str, on: &'static str) -> Def {
    Def { name, unit, moves, on, declared: true }
}

const fn extra(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    on: &'static str,
) -> Def {
    Def { name, unit, moves, on, declared: false }
}

/// Every end-to-end metric, measured with tracing off. The undeclared ones
/// are printed but not in the result line: the latency percentiles spread
/// too much from run to run on a shared host (closed-loop `ops_per_s`
/// carries mean latency), the p99 needs 1000 samples, `error_rate` is 0 at
/// a healthy commit (its parts are the result line's `failed` and
/// `attempted`), and `analytic_err_pct` has no bit-exact runs to compare
/// on tune-space.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", "process start until the timed phase", "all"),
    def("ops_per_s", "ops/s", "completed ops per host second", "all"),
    extra("latency_p50_ms", "ms", "median op latency (submit to reply)", "all"),
    extra("latency_p99_ms", "ms", "p99 op latency, only with >= 1000 samples", "serve-mixed"),
    extra("error_rate", "fraction", "failed / attempted ops", "all"),
    def("sim_cycles", "cycles", "geomean modelled cycles of distinct results", "all"),
    def("sim_energy_uj", "uJ", "geomean modelled energy of distinct results", "all"),
    extra("analytic_err_pct", "%", "mean |analytic - skip-ahead| / skip-ahead", "sim-deep"),
    def("peak_rss_mb", "MB", "peak resident memory (VmHWM)", "all"),
];

/// Every per-layer metric the traced run reports. A workload that does
/// not exercise a layer reports 0 for it.
pub const PER_LAYER: &[Def] = &[
    def("arch.run_ms", "ms", "ops_per_s", "sim-deep"),
    def("arch.sim_mcps", "cycles/us", "ops_per_s", "sim-deep"),
    def("arch.ns_per_issue", "ns", "ops_per_s", "sim-deep"),
    def("arch.skip_ratio", "ratio", "ops_per_s", "sim-deep"),
    def("arch.skip_window_cycles", "cycles", "ops_per_s", "sim-deep"),
    def("arch.build_ms", "ms", "latency_p50_ms", "serve-mixed"),
    def("arch.readback_ms", "ms", "latency_p50_ms", "serve-mixed"),
    def("arch.ipc", "inst/cycle", "sim_cycles", "sim-deep"),
    def("arch.stall.hazard", "ratio", "sim_cycles", "sim-deep"),
    def("arch.stall.queue_full", "ratio", "sim_cycles", "sim-deep"),
    def("arch.stall.tsv", "ratio", "sim_cycles", "sim-deep"),
    def("arch.stall.branch", "ratio", "sim_cycles", "sim-deep"),
    def("arch.stall.sync", "ratio", "sim_cycles", "sim-deep"),
    def("arch.stall.vsm_interlock", "ratio", "sim_cycles", "sim-deep"),
    def("dram.row_hit_ratio", "ratio", "sim_cycles,sim_energy_uj", "sim-deep"),
    def("dram.acts", "count", "sim_cycles,sim_energy_uj", "sim-deep"),
    def("dram.reads", "count", "sim_cycles,sim_energy_uj", "sim-deep"),
    def("dram.writes", "count", "sim_cycles,sim_energy_uj", "sim-deep"),
    def("dram.bytes_per_cycle", "B/cycle", "sim_cycles,sim_energy_uj", "sim-deep"),
    def("noc.flit_hops", "count", "sim_cycles,sim_energy_uj", "serve-mixed"),
    def("noc.credit_stalls", "count", "sim_cycles,sim_energy_uj", "serve-mixed"),
    def("noc.serdes_bits", "bits", "sim_cycles,sim_energy_uj", "serve-mixed"),
    def("analytic.predict_ms", "ms", "ops_per_s", "tune-space"),
    def("compiler.compile_ms", "ms", "ops_per_s", "tune-space"),
    def("compiler.stage_hit_ratio", "ratio", "ops_per_s", "tune-space"),
    def("compiler.static_insts", "count", "sim_cycles", "sim-deep"),
    def("core.progcache_hit_ratio", "ratio", "latency_p50_ms", "serve-mixed"),
    def("core.compile_hit_us", "us", "latency_p50_ms", "serve-mixed"),
    def("workloads.instantiate_ms", "ms", "latency_p50_ms", "serve-mixed"),
    def("serve.parse_us", "us", "latency_p50_ms,latency_p99_ms", "serve-mixed"),
    def("serve.encode_us", "us", "latency_p50_ms,latency_p99_ms", "serve-mixed"),
    def("serve.result_hit_ratio", "ratio", "latency_p50_ms,latency_p99_ms", "serve-mixed"),
    def("serve.repeat_share", "ratio", "latency_p50_ms,latency_p99_ms", "serve-mixed"),
    def("serve.wait_ms", "ms", "latency_p50_ms,latency_p99_ms", "serve-mixed"),
    def("shard.hop_us", "us", "latency_p99_ms,error_rate", "serve-mixed"),
    def("shard.retries", "count", "latency_p99_ms,error_rate", "serve-mixed"),
    def("shard.ejections", "count", "latency_p99_ms,error_rate", "serve-mixed"),
    def("tune.enumerate_ms", "ms", "ops_per_s", "tune-space"),
    def("tune.entries", "count", "ops_per_s", "tune-space"),
    def("tune.legal_ratio", "ratio", "ops_per_s", "tune-space"),
    def("tune.reject_ms", "ms", "ops_per_s", "tune-space"),
    def("trace.ops_per_s_delta", "ops/s", "tracing overhead (traced - untraced)", "all"),
    def("trace.latency_p50_ms_delta", "ms", "tracing overhead (traced - untraced)", "all"),
];

/// Everything one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Attempted and failed ops of the timed phase.
    pub tally: Tally,
    /// End-to-end values by name (only those that apply).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (traced run).
    pub layers: BTreeMap<&'static str, f64>,
    /// Sample counts, shares and failure reasons printed with the table.
    pub notes: Vec<String>,
    /// Spans of the traced run.
    pub spans: Vec<Span>,
    /// Compile-cache counters before set-up.
    pub setup_caches: crate::CacheStats,
    /// Compile-cache counters at the end of the timed phase.
    pub phase_caches: Option<crate::CacheStats>,
}

impl Outcome {
    /// Records one failed check (counted by the caller in `tally`).
    pub fn fail(&mut self, why: String) {
        if self.notes.iter().filter(|n| n.starts_with("FAIL")).count() < 20 {
            self.notes.push(format!("FAIL {why}"));
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }
}

/// Formats a value with all its measured digits.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and the
/// declared metrics of the chosen table.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let (defs, values) =
        if traced { (PER_LAYER, &outcome.layers) } else { (END_TO_END, &outcome.e2e) };
    let metrics: Vec<String> = defs
        .iter()
        .filter(|d| d.declared)
        .map(|d| {
            let v = values.get(d.name).copied().unwrap_or(0.0);
            format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", d.name, num(v), d.unit)
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct(),
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(",")
    )
}

/// The human-readable table printed before the result line.
pub fn table(outcome: &Outcome, workload: &str, traced: bool) -> String {
    let mut out = String::new();
    out.push_str(&format!("end-to-end ({workload}):\n"));
    for d in END_TO_END {
        let value = match outcome.e2e.get(d.name) {
            Some(v) => format!("{:>16} {}", num(*v), d.unit),
            None => format!("{:>16}", "n/a"),
        };
        out.push_str(&format!("  {:<18} {value:<26} {}\n", d.name, d.moves));
    }
    if traced {
        out.push_str(
            "per-layer (traced run): value, the metric it should move, on which workload\n",
        );
        for d in PER_LAYER {
            let v = outcome.layers.get(d.name).copied().unwrap_or(0.0);
            out.push_str(&format!(
                "  {:<26} {:>16} {:<10} -> {} on {}\n",
                d.name,
                num(v),
                d.unit,
                d.moves,
                d.on
            ));
        }
        out.push_str("self time per layer (span minus covered child spans):\n");
        for (layer, ns) in crate::spans::layer_self_times(&outcome.spans) {
            out.push_str(&format!("  {layer:<12} {:>12.3} ms\n", ns as f64 / 1e6));
        }
    }
    for n in &outcome.notes {
        out.push_str(&format!("  note: {n}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipim_trace::json;

    /// `BENCHMARK.json` declares exactly the metrics this catalogue marks
    /// as declared, with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = match doc.get(key) {
                Some(json::Value::Array(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |k: &str| m.get(k).and_then(json::Value::as_str).unwrap();
                        (s("name").to_string(), s("unit").to_string())
                    })
                    .collect(),
                other => panic!("{key}: {other:?}"),
            };
            let ours: Vec<(String, String)> = defs
                .iter()
                .filter(|d| d.declared)
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_declared_metrics() {
        let mut o = Outcome::default();
        o.tally.record(true);
        o.e2e.insert("ops_per_s", 1.5);
        let line = result_line(&o, false);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&json::Value::Bool(true)));
        let n = END_TO_END.iter().filter(|d| d.declared).count();
        assert!(line.contains("\"ops_per_s\":{\"value\":1.5,\"unit\":\"ops/s\"}"), "{line}");
        assert_eq!(line.matches("\"unit\"").count(), n);
    }
}
