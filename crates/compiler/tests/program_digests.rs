//! Pinned digests of compiled programs.
//!
//! A backend change meant as a pure speed-up (register allocation,
//! Algorithm 1's dependency graph and scheduler) must leave every program
//! bit-identical. This table pins the FNV-1a digest of each program's
//! binary encoding under the five Fig. 12 compiler configurations: every
//! suite workload at 64², at 128² the three whose 64² tile grids do not
//! cover the 32 PEs, and Blur, BilateralGrid and StencilChain on 16- and
//! 32-entry DataRFs. A configuration the compiler rejects pins the digest
//! of its error message instead, so a change that turns an error into a
//! program (or back) moves the table too.

use ipim_arch::MachineConfig;
use ipim_compiler::{compile, fnv1a, CompileOptions};
use ipim_workloads::{all_workloads, workload_by_name, Workload, WorkloadScale};

/// The Fig. 12 configurations, in the column order of [`DIGESTS`].
const OPTIONS: [fn() -> CompileOptions; 5] = [
    CompileOptions::opt,
    CompileOptions::baseline1,
    CompileOptions::baseline2,
    CompileOptions::baseline3,
    CompileOptions::baseline4,
];

/// `(workload, side, data_rf_entries, [opt, baseline1, baseline2,
/// baseline3, baseline4])` digests.
#[rustfmt::skip]
const DIGESTS: &[(&str, u32, usize, [u64; 5])] = &[
    ("Brighten", 64, 64, [0xa6c2f2bc76e04940, 0x2dfccc3b276c446c, 0x005ddce60ebbad38, 0x6b2f85716e051b7c, 0xa6c2f2bc76e04940]),
    ("Blur", 64, 64, [0xe7f8e321d1474001, 0xb8023a6c735e963d, 0x6abb46b62c5b9f05, 0x48b7f5f2b5da1de1, 0xe7f8e321d1474001]),
    ("Downsample", 64, 64, [0x14d07c0c92feff6e, 0x14d07c0c92feff6e, 0x14d07c0c92feff6e, 0x14d07c0c92feff6e, 0x14d07c0c92feff6e]),
    ("Upsample", 64, 64, [0xe03d7e5de685a35d, 0xec3104955d851e85, 0x78abc27d64fd0b61, 0x75268a02dd8fea49, 0xe03d7e5de685a35d]),
    ("Shift", 64, 64, [0xc386aa8dcab42cbf, 0xeaa8b03250c992eb, 0x5061d12b512b0c47, 0xfcad6590a0ddd9c7, 0xc386aa8dcab42cbf]),
    ("Histogram", 64, 64, [0x49934917d00c52f8, 0xfc29bff4fa5d2777, 0x45cb79e1be035383, 0x4e61595648eb633c, 0x54b6f0561943bdd0]),
    ("BilateralGrid", 64, 64, [0xfa7662d5cee6ef20, 0x5342f2d667996516, 0x9b4dfec75e649662, 0x5fb3e8e136af7164, 0xfa7662d5cee6ef20]),
    ("Interpolate", 64, 64, [0x14d07c0c92feff6e, 0x14d07c0c92feff6e, 0x14d07c0c92feff6e, 0x14d07c0c92feff6e, 0x14d07c0c92feff6e]),
    ("LocalLaplacian", 64, 64, [0x14d07c0c92feff6e, 0x14d07c0c92feff6e, 0x14d07c0c92feff6e, 0x14d07c0c92feff6e, 0x14d07c0c92feff6e]),
    ("StencilChain", 64, 64, [0x35aa61a7938264e8, 0x11199c4b405b46e8, 0x2f70cc3da3aa09f0, 0x4775b089c5a33dac, 0x35aa61a7938264e8]),
    ("Gemm", 64, 64, [0xfdf70a0a180473ee, 0x6eeccfab86dfb33f, 0x7078f5c5fdd81513, 0xffac632881ff8296, 0xfdf70a0a180473ee]),
    ("Conv3x3", 64, 64, [0x767d3679d44924f3, 0xcd3d7c9c4b3bcf93, 0xa5659b7938fb1953, 0xb2d6184f32aa8463, 0xce0dce53cf6d79af]),
    ("RowSoftmax", 64, 64, [0xa37fb0256ec117ac, 0x28ca818b68e90b10, 0xfd7146118d9b89a0, 0x7ef5c918f0d608d0, 0x1be73fc00e9e3bd8]),
    ("FrameDelta", 64, 64, [0xbbb1ab947c9d1edc, 0x54383414910a976c, 0x695500655f8db6f8, 0xab457a68f8eb2b00, 0xbbb1ab947c9d1edc]),
    ("TemporalBlur", 64, 64, [0xcebf75888e3260a0, 0x30619fe8b4a628b0, 0xe08cfe0abd13a920, 0xd2cf380aec906054, 0xcebf75888e3260a0]),
    ("MotionEnergy", 64, 64, [0x66775a9aa6dfec2f, 0x6dce2a122ca19abf, 0x3042b738d31fd7eb, 0xc6c0f5153b4e8f3f, 0x66775a9aa6dfec2f]),
    ("Downsample", 128, 64, [0x22ad1a6210cfd15c, 0xe895c886728338c2, 0x8cb0336bd0df3f1e, 0x79294740a3ae0530, 0x22ad1a6210cfd15c]),
    ("Interpolate", 128, 64, [0x31317a2e75520178, 0xe5f538f47faf52c4, 0xad0f52a2738d8c28, 0x6d4a03691f673b08, 0x31317a2e75520178]),
    ("LocalLaplacian", 128, 64, [0x0b55cdb7b7d839a6, 0x564649305ad31718, 0x47d3cf641277a094, 0xe9b12099bb9dacf6, 0x0b55cdb7b7d839a6]),
    ("Blur", 64, 16, [0xe60379047fc44fd1, 0x43120133570d893d, 0x8c4190e04734c8c5, 0xe29a3c60837e1171, 0xe60379047fc44fd1]),
    ("Blur", 64, 32, [0xe7f8e321d1474001, 0xb8023a6c735e963d, 0x6abb46b62c5b9f05, 0x48b7f5f2b5da1de1, 0xe7f8e321d1474001]),
    ("BilateralGrid", 64, 16, [0xb1a331dcb6f457f0, 0x3edbaf3ea67f3b72, 0xf15b9eeddb04a86e, 0x5b9241b2d33154f8, 0x9f94c62b1818de38]),
    ("BilateralGrid", 64, 32, [0x966b9b069959b823, 0x5342f2d667996516, 0x9b4dfec75e649662, 0xf09a735cf28c57bf, 0x966b9b069959b823]),
    ("StencilChain", 64, 16, [0xd34d7a5d3760dc28, 0x41255af1ee582bd8, 0x65a15b8cbf8d8b90, 0x6581c393bf7dbca8, 0xd34d7a5d3760dc28]),
    ("StencilChain", 64, 32, [0x35aa61a7938264e8, 0x11199c4b405b46e8, 0x2f70cc3da3aa09f0, 0x4775b089c5a33dac, 0x35aa61a7938264e8]),
];

fn scale(side: u32) -> WorkloadScale {
    WorkloadScale { width: side, height: side }
}

fn digest(w: &Workload, data_rf_entries: usize, options: &CompileOptions) -> u64 {
    let config = MachineConfig { data_rf_entries, ..MachineConfig::vault_slice(1) };
    match compile(&w.pipeline, &config, options) {
        Ok(c) => {
            let bytes: Vec<u8> =
                c.program.instructions().iter().flat_map(ipim_isa::encode).collect();
            fnv1a(&bytes)
        }
        Err(e) => fnv1a(format!("error: {e}").as_bytes()),
    }
}

/// The `(workload, data_rf_entries)` cases [`DIGESTS`] pins, in its order.
fn pinned_cases() -> Vec<(Workload, usize)> {
    let suite = |name, side| workload_by_name(name, scale(side)).expect("suite workload");
    let mut cases: Vec<(Workload, usize)> =
        all_workloads(scale(64)).into_iter().map(|w| (w, 64)).collect();
    for name in ["Downsample", "Interpolate", "LocalLaplacian"] {
        cases.push((suite(name, 128), 64));
    }
    for name in ["Blur", "BilateralGrid", "StencilChain"] {
        for rf in [16, 32] {
            cases.push((suite(name, 64), rf));
        }
    }
    cases
}

#[test]
fn compiled_programs_match_pinned_digests() {
    let cases = pinned_cases();
    let mut fresh = String::new();
    let mut moved = Vec::new();
    for (w, rf) in &cases {
        let side = w.scale.width;
        let got: Vec<u64> = OPTIONS.iter().map(|o| digest(w, *rf, &o())).collect();
        fresh.push_str(&format!("    (\"{}\", {side}, {rf}, [", w.name));
        fresh.push_str(&got.iter().map(|d| format!("{d:#018x}")).collect::<Vec<_>>().join(", "));
        fresh.push_str("]),\n");
        match DIGESTS.iter().find(|d| (d.0, d.1, d.2) == (w.name, side, *rf)) {
            Some(&(.., want)) if want[..] == got[..] => {}
            _ => moved.push(format!("{} {side}² rf={rf}", w.name)),
        }
    }
    assert_eq!(DIGESTS.len(), cases.len(), "stale DIGESTS rows; fresh table:\n{fresh}");
    assert!(moved.is_empty(), "program digests moved for {moved:?}; fresh table:\n{fresh}");
}
