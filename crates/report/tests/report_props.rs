//! Property tests for the matrix/report subsystem (simkit harness).
//!
//! Two contracts:
//!
//! 1. **Wire round-trip** — any cell serialized to its JSONL line and
//!    parsed back compares exactly equal (f64 fields use
//!    shortest-round-trip printing), and whole files round-trip too.
//! 2. **Renderer determinism** — `render` is a pure function of stream
//!    *contents*: shuffling the input line order produces byte-identical
//!    markdown, config cells and the paper sections included.

use ipim_report::paper::table2;
use ipim_report::{parse_matrix, render, to_jsonl, Backend, Bound, MatrixCell, Streams, CONFIGS};
use ipim_simkit::prop::{bool_any, tuple4, tuple5, u32_in, u64_any, usize_in, Gen};
use ipim_simkit::{check, Rng};

const NAMES: [&str; 6] = ["Brighten", "Blur", "Histogram", "Gemm", "RowSoftmax", "MotionEnergy"];

/// The counters a cycle-engine cell carries, derived from `cycles` so the
/// generators stay deterministic under simkit replay.
fn with_counters(cell: MatrixCell, cycles: u64) -> MatrixCell {
    let f = |k: u64| (cycles.wrapping_mul(k) % 1_000_000) as f64 / 7.0 + 1.0;
    MatrixCell {
        pixels: Some(4096),
        pes: Some(32),
        energy_pj: Some(f(17) * 10.0),
        energy_split: Some([f(19), f(23), f(29), f(31), f(37), f(41), f(43)]),
        insts: Some([1, 2, 3, 4, 5, 6].map(|k| cycles % (1000 * k))),
        busy: Some([cycles / 3, cycles / 5, cycles / 7]),
        ..cell
    }
}

/// A generator over arbitrary (not necessarily physical) matrix cells:
/// the wire format must round-trip whatever the runner can emit.
fn gen_cell() -> Gen<MatrixCell> {
    tuple5(
        usize_in(0, NAMES.len() - 1),
        usize_in(0, Backend::ALL.len() - 1),
        u32_in(8, 8192),
        // Keep integers within f64's exact range (the wire is f64).
        u64_any().map(|c| c % (1 << 53)),
        bool_any(),
    )
    .map(|(wi, bi, scale, cycles, with_model)| {
        let backend = Backend::ALL[bi];
        // Derive float fields from the integers so the generator stays
        // deterministic under simkit replay.
        let f = |k: u64| (cycles.wrapping_mul(k) % 1_000_000) as f64 / 7.0;
        let cell = MatrixCell {
            workload: NAMES[wi].to_string(),
            family: "image".to_string(),
            scale,
            backend,
            config: (cycles % 3 == 0).then(|| CONFIGS[(wi + bi) % CONFIGS.len()].name),
            cycles: with_model.then_some(cycles),
            kernel_ns: f(3),
            gbps: with_model.then(|| f(5)),
            pj_per_op: with_model.then(|| f(7)),
            ai: with_model.then(|| f(11)),
            peak_gbps: with_model.then(|| f(13)),
            bound: if cycles % 2 == 0 { Bound::Memory } else { Bound::Compute },
            ..MatrixCell::default()
        };
        if with_model {
            with_counters(cell, cycles)
        } else {
            cell
        }
    })
}

#[test]
fn cell_jsonl_round_trips_exactly() {
    check("report/cell_round_trip", &gen_cell(), |cell| {
        let cells = vec![cell.clone()];
        let back = parse_matrix(&to_jsonl(&cells)).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(&cells, &back, "serialize→parse must be the identity");
        assert_eq!(to_jsonl(&cells), to_jsonl(&back), "parse→serialize must reproduce the bytes");
    });
}

#[test]
fn renderer_is_deterministic_and_order_invariant() {
    let gen = tuple4(u64_any(), usize_in(2, 10), u32_in(32, 128), u64_any().map(|c| c % (1 << 40)));
    check("report/render_determinism", &gen, |&(seed, n, scale, cycles)| {
        let mut rng = Rng::new(seed);
        let mut cells = Vec::new();
        let mut push = |name: &str, scale: u32, backend: Backend, config, cycles: u64| {
            let cell = MatrixCell {
                workload: name.to_string(),
                family: "image".to_string(),
                scale,
                backend,
                config,
                cycles: Some(cycles),
                kernel_ns: cycles as f64,
                gbps: Some(1.5),
                pj_per_op: Some(2.5),
                ai: Some(0.5),
                peak_gbps: Some(512.0),
                bound: Bound::Memory,
                ..MatrixCell::default()
            };
            cells.push(with_counters(cell, cycles));
        };
        for i in 0..n {
            // Unique coordinates per cell — a real matrix never emits two
            // cells at the same coordinates.
            let name = NAMES[i % NAMES.len()];
            let backend = Backend::ALL[(i / NAMES.len()) % Backend::ALL.len()];
            push(name, scale, backend, None, cycles + i as u64 + 1);
            if backend == Backend::SkipAhead {
                let config = Some(CONFIGS[i % CONFIGS.len()].name);
                push(name, scale, backend, config, cycles + 5 * i as u64 + 3);
            }
        }
        // Analytic partners for every other skip_ahead cell feed the
        // divergence table; the rest stay unpaired.
        for (i, name) in NAMES.iter().enumerate().take(n.min(NAMES.len())).step_by(2) {
            push(name, scale, Backend::Analytic, None, cycles + 3 * i as u64 + 2);
        }
        // Half the cases get a paper scale: every Table II workload's
        // default, partner and config cells at 512², so the paper
        // sections render numbers rather than loud skips.
        if seed % 2 == 0 {
            for (i, (name, _)) in table2().enumerate() {
                let c = cycles + 7 * i as u64 + 11;
                push(name, 512, Backend::SkipAhead, None, c);
                push(name, 512, Backend::Ponb, None, 2 * c + 1);
                push(name, 512, Backend::Gpu, None, c / 3 + 1);
                for v in
                    CONFIGS.iter().filter(|v| v.workloads.is_empty() || v.workloads.contains(&name))
                {
                    push(name, 512, Backend::SkipAhead, Some(v.name), c + v.name.len() as u64);
                }
            }
        }
        let mut streams = Streams { cells, ..Streams::default() };
        let a = render(&streams);
        assert_eq!(a, render(&streams), "same input, same bytes");
        assert_eq!(a.contains("**skipped:**"), seed % 2 != 0, "paper scale iff Table II cells");
        rng.shuffle(&mut streams.cells);
        assert_eq!(a, render(&streams), "line order must not matter");
    });
}
