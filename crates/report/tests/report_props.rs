//! Property tests for the matrix/report subsystem (simkit harness).
//!
//! Three contracts:
//!
//! 1. **Wire round-trip** — any cell serialized to its JSONL line and
//!    parsed back compares exactly equal (f64 fields use
//!    shortest-round-trip printing), and whole files round-trip too.
//! 2. **Renderer determinism** — `render` is a pure function of stream
//!    *contents*: shuffling the input line order produces byte-identical
//!    markdown, config cells and the paper sections included.
//! 3. **Fingerprint stability** — a cell's fingerprint depends only on
//!    its own coordinates, never on the order backends were enumerated
//!    in when the matrix was produced.

use ipim_report::paper::table2;
use ipim_report::{
    parse_matrix, render, Anchor, Backend, Bound, MatrixCell, MatrixFile, Streams, CONFIGS,
};
use ipim_simkit::prop::{bool_any, tuple4, tuple6, u32_in, u64_any, usize_in, Gen};
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
    tuple6(
        usize_in(0, NAMES.len() - 1),
        usize_in(0, Backend::ALL.len() - 1),
        u32_in(8, 8192),
        // Keep integers within f64's exact range (the wire is f64).
        u64_any().map(|c| c % (1 << 53)),
        u64_any().map(|c| c % (1 << 53)),
        bool_any(),
    )
    .map(|(wi, bi, scale, cycles, wall_ns, with_model)| {
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
            wall_ns,
            gbps: with_model.then(|| f(5)),
            pj_per_op: with_model.then(|| f(7)),
            ai: with_model.then(|| f(11)),
            peak_gbps: with_model.then(|| f(13)),
            bound: if with_model { Bound::Memory } else { Bound::NotApplicable },
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
        let file = MatrixFile {
            cells: vec![cell.clone()],
            anchors: vec![Anchor { name: "fig01_gpu_profile".into(), min_ns: cell.wall_ns }],
        };
        let back = parse_matrix(&file.to_jsonl()).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(&file, &back, "serialize→parse must be the identity");
        assert_eq!(file.to_jsonl(), back.to_jsonl(), "parse→serialize must reproduce the bytes");
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
                wall_ns: rng.next_u64() % (1 << 40),
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

#[test]
fn fingerprints_ignore_backend_enumeration_order() {
    let gen = tuple6(
        u64_any(),
        usize_in(0, NAMES.len() - 1),
        u32_in(8, 8192),
        u64_any(),
        bool_any(),
        bool_any(),
    );
    check("report/fingerprint_stability", &gen, |&(seed, wi, scale, _, _, _)| {
        let cell = |backend: Backend| MatrixCell {
            workload: NAMES[wi].to_string(),
            family: "image".to_string(),
            scale,
            backend,
            ..MatrixCell::default()
        };
        // Enumerate the backends in a seed-shuffled order: the
        // fingerprint each cell gets must match the canonical-order run
        // cell-for-cell (a fingerprint is a function of the cell's own
        // coordinates, not of its position in the file).
        let canonical: Vec<(Backend, u64)> =
            Backend::ALL.into_iter().map(|b| (b, cell(b).fingerprint())).collect();
        let mut shuffled = Backend::ALL;
        Rng::new(seed).shuffle(&mut shuffled);
        for b in shuffled {
            let fp = cell(b).fingerprint();
            let expected = canonical.iter().find(|(cb, _)| *cb == b).unwrap().1;
            assert_eq!(fp, expected, "{}", b.name());
        }
        // And distinct coordinates never collide within one row.
        let mut fps: Vec<u64> = canonical.iter().map(|(_, fp)| *fp).collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), Backend::ALL.len(), "fingerprint collision across backends");
    });
}
