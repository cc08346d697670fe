//! Records the cross-backend benchmark matrix to `results/matrix.jsonl`.
//!
//! ```text
//! cargo run --release -p ipim-report --bin matrix -- \
//!     [--out results/matrix.jsonl] [--scales 32,64,128] \
//!     [--workloads Blur,Histogram] [--backends skip_ahead,gpu] [--max-cycles N]
//! ```
//!
//! The output file is truncated, not appended — a matrix file is one
//! coherent recording.
//!
//! Skipped cells print loudly to stdout and never fail the run; a workload
//! name outside the suite and an unwritable output path do, and the former
//! writes nothing.

use ipim_report::{run_matrix, to_jsonl, Backend, MatrixPlan};

fn main() {
    let mut out_path = "results/matrix.jsonl".to_string();
    let mut plan = MatrixPlan::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |flag: &str| args.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match a.as_str() {
            "--out" => out_path = val("--out"),
            "--scales" => {
                plan.scales = val("--scales")
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| panic!("bad scale {s:?}")))
                    .collect();
            }
            "--workloads" => {
                plan.workloads = val("--workloads").split(',').map(|s| s.trim().into()).collect();
            }
            "--backends" => {
                plan.backends = val("--backends")
                    .split(',')
                    .map(|s| Backend::parse(s.trim()).unwrap_or_else(|e| panic!("{e}")))
                    .collect();
            }
            "--max-cycles" => {
                plan.max_cycles = val("--max-cycles").parse().expect("--max-cycles needs a number");
            }
            other => panic!(
                "unknown argument {other:?} (supported: --out FILE --scales LIST \
                 --workloads LIST --backends LIST --max-cycles N)"
            ),
        }
    }

    let run = run_matrix(&plan).unwrap_or_else(|e| {
        eprintln!("matrix: {e}");
        std::process::exit(2);
    });
    for skip in &run.skips {
        println!("{skip}");
    }
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create results dir");
        }
    }
    std::fs::write(&out_path, to_jsonl(&run.cells))
        .unwrap_or_else(|e| panic!("cannot write {out_path:?}: {e}"));
    println!("matrix: {} cells, {} skips -> {out_path}", run.cells.len(), run.skips.len());
}
