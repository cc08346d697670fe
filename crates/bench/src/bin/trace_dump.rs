//! Runs a Table II workload with tracing enabled and writes the captured
//! events as Chrome `trace_event` JSON (load the file in `chrome://tracing`
//! or <https://ui.perfetto.dev>). Also prints the hierarchical metrics
//! table for the run.
//!
//! ```text
//! cargo run --release -p ipim-bench --bin trace_dump -- \
//!     --workload Blur --scale 64 --trace out.json
//! ```

use ipim_core::trace::chrome;
use ipim_core::{workload_by_name, MachineConfig, Session, TraceConfig, WorkloadScale};

fn main() {
    let mut workload = "Blur".to_string();
    let mut scale = 64u32;
    let mut out: Option<String> = None;
    let mut ring = 1usize << 20;
    let mut vaults = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |flag: &str| args.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => workload = val("--workload"),
            "--scale" => scale = val("--scale").parse().expect("--scale needs a number"),
            "--trace" => out = Some(val("--trace")),
            "--ring" => ring = val("--ring").parse().expect("--ring needs a number"),
            "--vaults" => vaults = val("--vaults").parse().expect("--vaults needs a number"),
            other => panic!(
                "unknown argument {other:?} (supported: --workload NAME --scale N \
                 --trace OUT.json --ring N --vaults N)"
            ),
        }
    }
    let w = workload_by_name(&workload, WorkloadScale { width: scale, height: scale })
        .unwrap_or_else(|| panic!("{workload:?} is not a Table II workload"));

    let config = MachineConfig {
        trace: TraceConfig { enabled: true, ring_capacity: ring },
        ..MachineConfig::vault_slice(vaults)
    };
    let session = Session::new(config);
    let outcome = session.run_workload(&w, 4_000_000_000).expect("workload run");

    let capture = outcome.trace.as_ref().expect("tracing was enabled");
    println!(
        "{workload} {scale}x{scale}: {} cycles, {} events captured ({} dropped of {})",
        outcome.report.cycles,
        capture.records.len(),
        capture.dropped,
        capture.total,
    );
    if let Some(path) = out {
        let json = capture.to_chrome_json();
        let report = chrome::lint(&json).expect("exporter produced a well-formed trace");
        std::fs::write(&path, &json).expect("write trace file");
        println!(
            "wrote {path}: {} trace events ({} spans, {} instants, {} completes)",
            report.events, report.spans, report.instants, report.completes
        );
    }
    println!("\n{}", outcome.metrics.render_table());
}
