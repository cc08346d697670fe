//! Renders the trajectory report from the recorded JSONL streams.
//!
//! ```text
//! cargo run --release -p ipim-report --bin render_report -- \
//!     [--results results] [--out results/REPORT.md]
//! ```
//!
//! Missing streams are loud skips (named in the rendered report);
//! present-but-corrupt streams fail the run. The output is byte-identical
//! for identical inputs, so CI regenerates it and `cmp`s against the
//! committed copy.

use ipim_report::{render, Streams};

fn main() {
    let mut results_dir = "results".to_string();
    let mut out_path = "results/REPORT.md".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |flag: &str| args.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match a.as_str() {
            "--results" => results_dir = val("--results"),
            "--out" => out_path = val("--out"),
            other => panic!("unknown argument {other:?} (supported: --results DIR --out FILE)"),
        }
    }

    let streams = Streams::load(std::path::Path::new(&results_dir))
        .unwrap_or_else(|e| panic!("corrupt stream: {e}"));
    for m in &streams.missing {
        println!("skip: stream {m} missing from {results_dir}/ — its sections are omitted");
    }
    let text = render(&streams);
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output dir");
        }
    }
    std::fs::write(&out_path, &text).unwrap_or_else(|e| panic!("cannot write {out_path:?}: {e}"));
    println!(
        "report: {} matrix cells, {} tune runs -> {out_path}",
        streams.cells.len(),
        streams.tuning.len(),
    );
}
