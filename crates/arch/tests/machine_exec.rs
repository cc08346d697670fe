//! End-to-end machine tests: real SIMB programs running on the
//! cycle-accurate simulator, checking both functional results and timing
//! behaviour (hazard stalls, TSV serialization, PonB slowdown, barriers,
//! remote requests).

use ipim_arch::{Engine, Machine, MachineConfig, Placement};
use ipim_isa::{
    AddrOperand, AddrReg, ArfOp, ArfSrc, CompMode, CompOp, CrfOp, CrfSrc, CtrlReg, DataReg,
    DataType, Instruction, Program, ProgramBuilder, RemoteTarget, SimbMask, VecMask, ARF_PE_ID,
};

const W: usize = 32; // PEs per vault in the default shape

fn all() -> SimbMask {
    SimbMask::all(W)
}

fn one_vault() -> Machine {
    Machine::new(MachineConfig::vault_slice(1))
}

fn comp(op: CompOp, dst: u8, src1: u8, src2: u8, mask: SimbMask) -> Instruction {
    Instruction::Comp {
        op,
        dtype: DataType::F32,
        mode: CompMode::VectorVector,
        dst: DataReg::new(dst),
        src1: DataReg::new(src1),
        src2: DataReg::new(src2),
        vec_mask: VecMask::ALL,
        simb_mask: mask,
    }
}

fn seti_f32(drf: u8, v: f32, mask: SimbMask) -> Instruction {
    Instruction::SetiDrf {
        drf: DataReg::new(drf),
        imm: v.to_bits(),
        vec_mask: VecMask::ALL,
        simb_mask: mask,
    }
}

fn run(machine: &mut Machine, program: Program) -> ipim_arch::ExecutionReport {
    machine.load_program_all(&program);
    machine.run(2_000_000).expect("program should quiesce")
}

#[test]
fn seti_and_add_produce_expected_lanes() {
    let mut m = one_vault();
    let mut b = ProgramBuilder::new();
    b.push(seti_f32(0, 1.5, all()));
    b.push(seti_f32(1, 2.25, all()));
    b.push(comp(CompOp::Add, 2, 0, 1, all()));
    let report = run(&mut m, b.seal().unwrap());
    for pe in 0..W {
        let v = m.vault(0, 0).data_rf(pe, 2);
        for lane in v {
            assert_eq!(f32::from_bits(lane), 3.75);
        }
    }
    assert_eq!(report.stats.issued, 3);
    assert!(report.cycles > 0);
}

#[test]
fn load_compute_store_round_trip() {
    let mut m = one_vault();
    // Host upload: each PE's bank gets [pe, pe+1, pe+2, pe+3] at address 0.
    for pg in 0..8 {
        for pe in 0..4 {
            let g = (pg * 4 + pe) as f32;
            let v = m.vault_mut(0, 0);
            let arr = v.bank_array_mut(pg, pe);
            for l in 0..4 {
                arr.write_f32((l * 4) as u32, g + l as f32);
            }
        }
    }
    let mut b = ProgramBuilder::new();
    b.push(Instruction::LdRf {
        dram_addr: AddrOperand::Imm(0),
        drf: DataReg::new(0),
        simb_mask: all(),
    });
    b.push(seti_f32(1, 10.0, all()));
    b.push(comp(CompOp::Mul, 2, 0, 1, all()));
    b.push(Instruction::StRf {
        dram_addr: AddrOperand::Imm(64),
        drf: DataReg::new(2),
        simb_mask: all(),
    });
    run(&mut m, b.seal().unwrap());
    for pg in 0..8 {
        for pe in 0..4 {
            let g = (pg * 4 + pe) as f32;
            let arr = m.vault(0, 0).bank_array(pg, pe);
            for l in 0..4u32 {
                assert_eq!(arr.read_f32(64 + l * 4), (g + l as f32) * 10.0);
            }
        }
    }
}

#[test]
fn indirect_addressing_differentiates_pes() {
    let mut m = one_vault();
    // Each PE stores to address peID * 16 in its own bank.
    let mut b = ProgramBuilder::new();
    b.push(Instruction::CalcArf {
        op: ArfOp::Mul,
        dst: AddrReg::new(8),
        src1: ARF_PE_ID,
        src2: ArfSrc::Imm(16),
        simb_mask: all(),
    });
    b.push(seti_f32(0, 7.0, all()));
    b.push(Instruction::StRf {
        dram_addr: AddrOperand::Indirect(AddrReg::new(8)),
        drf: DataReg::new(0),
        simb_mask: all(),
    });
    run(&mut m, b.seal().unwrap());
    for pg in 0..8 {
        for pe in 0..4u32 {
            let arr = m.vault(0, 0).bank_array(pg, pe as usize);
            assert_eq!(arr.read_f32(pe * 16), 7.0, "pe {pe} of pg {pg}");
            // Other slots untouched.
            for other in 0..4u32 {
                if other != pe {
                    assert_eq!(arr.read_f32(other * 16), 0.0);
                }
            }
        }
    }
}

#[test]
fn control_flow_loop_accumulates() {
    let mut m = one_vault();
    let mut b = ProgramBuilder::new();
    // c0 = 5 iterations; accumulate d0 += 1.0 each iteration.
    b.push(Instruction::SetiCrf { dst: CtrlReg::new(0), imm: 5 });
    b.push(seti_f32(1, 1.0, all()));
    b.push(Instruction::Reset { drf: DataReg::new(0), simb_mask: all() });
    let top = b.new_label();
    b.bind(top).unwrap();
    b.push(comp(CompOp::Add, 0, 0, 1, all()));
    b.push(Instruction::CalcCrf {
        op: CrfOp::Sub,
        dst: CtrlReg::new(0),
        src1: CtrlReg::new(0),
        src2: CrfSrc::Imm(1),
    });
    b.push_cjump_to(CtrlReg::new(0), top);
    let report = run(&mut m, b.seal().unwrap());
    for pe in 0..W {
        assert_eq!(f32::from_bits(m.vault(0, 0).data_rf(pe, 0)[0]), 5.0);
    }
    // 5 iterations × 3 instructions + 3 prologue.
    assert_eq!(report.stats.issued, 18);
    assert!(report.stats.stalls.branch > 0, "taken branches should bubble");
}

#[test]
fn pgsm_shares_data_between_pes_of_a_pg() {
    let mut m = one_vault();
    let pe0: SimbMask = SimbMask::single(W, 0).unwrap();
    let pe1 = SimbMask::single(W, 1).unwrap();
    let mut b = ProgramBuilder::new();
    b.push(seti_f32(0, 42.0, pe0));
    b.push(Instruction::WrPgsm {
        pgsm_addr: AddrOperand::Imm(32),
        drf: DataReg::new(0),
        simb_mask: pe0,
    });
    b.push(Instruction::RdPgsm {
        pgsm_addr: AddrOperand::Imm(32),
        drf: DataReg::new(3),
        simb_mask: pe1,
    });
    run(&mut m, b.seal().unwrap());
    assert_eq!(f32::from_bits(m.vault(0, 0).data_rf(1, 3)[0]), 42.0);
    // PE 4 is in a different PG: its PGSM was untouched.
    assert_eq!(m.vault(0, 0).data_rf(4, 3)[0], 0);
}

#[test]
fn vsm_shares_data_across_pgs() {
    let mut m = one_vault();
    let pe0 = SimbMask::single(W, 0).unwrap(); // PG 0
    let pe7 = SimbMask::single(W, 7 * 4).unwrap(); // PG 7
    let mut b = ProgramBuilder::new();
    b.push(seti_f32(0, -3.5, pe0));
    b.push(Instruction::WrVsm {
        vsm_addr: AddrOperand::Imm(128),
        drf: DataReg::new(0),
        simb_mask: pe0,
    });
    b.push(Instruction::RdVsm {
        vsm_addr: AddrOperand::Imm(128),
        drf: DataReg::new(5),
        simb_mask: pe7,
    });
    run(&mut m, b.seal().unwrap());
    assert_eq!(f32::from_bits(m.vault(0, 0).data_rf(28, 5)[0]), -3.5);
}

#[test]
fn waw_reuse_stalls_but_distinct_registers_overlap() {
    // Two long-latency MACs: writing the same destination must serialize
    // (WAW hazard at the in-order core); distinct destinations overlap.
    // This is the microarchitectural basis of the compiler's "max" register
    // allocation policy (paper Sec. V-C).
    let prog = |dst2: u8| {
        let mut b = ProgramBuilder::new();
        b.push(seti_f32(1, 1.0, all()));
        b.push(seti_f32(2, 2.0, all()));
        for _ in 0..32 {
            b.push(comp(CompOp::Mac, 3, 1, 2, all()));
            b.push(comp(CompOp::Mac, dst2, 1, 2, all()));
        }
        b.seal().unwrap()
    };
    let mut m1 = one_vault();
    let serial = run(&mut m1, prog(3)).cycles;
    let mut m2 = one_vault();
    let overlapped = run(&mut m2, prog(4)).cycles;
    assert!(overlapped < serial, "distinct destinations should overlap: {overlapped} vs {serial}");
}

#[test]
fn vsm_reads_serialize_on_tsv() {
    // A SIMB rd_vsm across 32 PEs must serialize on the single TSV port;
    // a SIMB rd_pgsm uses per-PE ports and is far faster.
    let mut bv = ProgramBuilder::new();
    bv.push(Instruction::RdVsm {
        vsm_addr: AddrOperand::Imm(0),
        drf: DataReg::new(0),
        simb_mask: all(),
    });
    let mut bp = ProgramBuilder::new();
    bp.push(Instruction::RdPgsm {
        pgsm_addr: AddrOperand::Imm(0),
        drf: DataReg::new(0),
        simb_mask: all(),
    });
    let mut m1 = one_vault();
    let vsm_cycles = run(&mut m1, bv.seal().unwrap()).cycles;
    let mut m2 = one_vault();
    let pgsm_cycles = run(&mut m2, bp.seal().unwrap()).cycles;
    assert!(vsm_cycles >= pgsm_cycles + (W as u64) - 4, "vsm={vsm_cycles} pgsm={pgsm_cycles}");
}

#[test]
fn base_die_placement_is_slower_for_streaming_loads() {
    let streaming = || {
        let mut b = ProgramBuilder::new();
        for i in 0..16u32 {
            b.push(Instruction::LdRf {
                dram_addr: AddrOperand::Imm(i * 16),
                drf: DataReg::new((i % 32) as u8),
                simb_mask: all(),
            });
        }
        b.seal().unwrap()
    };
    let mut near = Machine::new(MachineConfig::vault_slice(1));
    let near_cycles = run(&mut near, streaming()).cycles;
    let mut ponb = Machine::new(MachineConfig {
        placement: Placement::BaseDie,
        ..MachineConfig::vault_slice(1)
    });
    let ponb_cycles = run(&mut ponb, streaming()).cycles;
    assert!(
        ponb_cycles as f64 > near_cycles as f64 * 1.8,
        "PonB should serialize on TSVs: near={near_cycles} ponb={ponb_cycles}"
    );
}

#[test]
fn remote_req_fetches_across_vaults() {
    let mut m = Machine::new(MachineConfig::vault_slice(2));
    // Vault 1's PG 2 / PE 3 bank holds a value at address 256.
    m.vault_mut(0, 1).bank_array_mut(2, 3).write_f32(256, 99.5);
    // Vault 0 requests it into VSM address 64, then PE 0 reads it.
    let pe0 = SimbMask::single(W, 0).unwrap();
    let mut b = ProgramBuilder::new();
    b.push(Instruction::Req {
        target: RemoteTarget { chip: 0, vault: 1, pg: 2, pe: 3 },
        dram_addr: CrfSrc::Imm(256),
        vsm_addr: CrfSrc::Imm(64),
    });
    b.push(Instruction::RdVsm {
        vsm_addr: AddrOperand::Imm(64),
        drf: DataReg::new(9),
        simb_mask: pe0,
    });
    // Only vault 0 runs the req; vault 1 runs an empty filter via masks —
    // the program is SPMD, so guard with vaultID would normally be used.
    // Here both vaults issue the same req; that is fine (vault 1 requests
    // from itself-as-remote too) and exercises concurrent serving.
    m.load_program_all(&b.seal().unwrap());
    let report = m.run(1_000_000).expect("quiesce");
    assert_eq!(f32::from_bits(m.vault(0, 0).data_rf(0, 9)[0]), 99.5);
    assert_eq!(report.stats.remote_reqs, 2);
    assert!(report.stats.stalls.vsm_interlock > 0, "rd_vsm must wait for req");
}

#[test]
fn sync_barrier_aligns_vaults() {
    let mut m = Machine::new(MachineConfig::vault_slice(4));
    let mut b = ProgramBuilder::new();
    // Vault-dependent work before the barrier: vault v loops v*20 times.
    b.push(Instruction::SetiCrf { dst: CtrlReg::new(1), imm: 0 });
    // c0 = vaultID * 20 — materialize via repeated adds driven from a
    // per-vault loop... simpler: every vault spins a fixed loop but vault
    // differences come from DRAM latency; just check the barrier completes
    // and both phases execute.
    b.push(seti_f32(0, 1.0, all()));
    b.push(Instruction::Sync { phase_id: 1 });
    b.push(seti_f32(1, 2.0, all()));
    let report = run(&mut m, b.seal().unwrap());
    assert_eq!(report.stats.by_category.synchronization, 4);
    for v in 0..4 {
        assert_eq!(f32::from_bits(m.vault(0, v).data_rf(0, 1)[0]), 2.0);
    }
}

#[test]
fn gather_via_mov_data_dependent_address() {
    let mut m = one_vault();
    // Bank holds a table at 0..256; index value 3 stored as float in d0;
    // convert to address 3*16 and gather.
    for pg in 0..8 {
        for pe in 0..4 {
            let arr = m.vault_mut(0, 0).bank_array_mut(pg, pe);
            for slot in 0..16u32 {
                arr.write_f32(slot * 16, 100.0 + slot as f32);
            }
        }
    }
    let mut b = ProgramBuilder::new();
    b.push(seti_f32(0, 3.0, all()));
    // d1 = int(d0) (lane 0), then a8 = d1.0 * 16
    b.push(Instruction::Comp {
        op: CompOp::CvtF2I,
        dtype: DataType::I32,
        mode: CompMode::VectorVector,
        dst: DataReg::new(1),
        src1: DataReg::new(0),
        src2: DataReg::new(0),
        vec_mask: VecMask::ALL,
        simb_mask: all(),
    });
    b.push(Instruction::Mov {
        to_arf: true,
        arf: AddrReg::new(8),
        drf: DataReg::new(1),
        lane: 0,
        simb_mask: all(),
    });
    b.push(Instruction::CalcArf {
        op: ArfOp::Mul,
        dst: AddrReg::new(8),
        src1: AddrReg::new(8),
        src2: ArfSrc::Imm(16),
        simb_mask: all(),
    });
    b.push(Instruction::LdRf {
        dram_addr: AddrOperand::Indirect(AddrReg::new(8)),
        drf: DataReg::new(2),
        simb_mask: all(),
    });
    run(&mut m, b.seal().unwrap());
    for pe in 0..W {
        assert_eq!(f32::from_bits(m.vault(0, 0).data_rf(pe, 2)[0]), 103.0);
    }
}

#[test]
fn issue_queue_limits_outstanding_work() {
    // More independent loads than the DRAM request queue can hold: the core
    // must stall with queue-full or hazard stalls but still finish.
    let mut b = ProgramBuilder::new();
    for i in 0..80u32 {
        b.push(Instruction::LdRf {
            dram_addr: AddrOperand::Imm((i % 64) * 16),
            drf: DataReg::new((i % 64) as u8),
            simb_mask: all(),
        });
    }
    let mut m = one_vault();
    let report = run(&mut m, b.seal().unwrap());
    assert_eq!(report.stats.by_category.intra_vault, 80);
    assert!(report.stats.stalls.total() > 0);
}

#[test]
fn report_aggregates_dram_traffic() {
    let mut b = ProgramBuilder::new();
    b.push(Instruction::LdRf {
        dram_addr: AddrOperand::Imm(0),
        drf: DataReg::new(0),
        simb_mask: all(),
    });
    b.push(Instruction::StRf {
        dram_addr: AddrOperand::Imm(16),
        drf: DataReg::new(0),
        simb_mask: all(),
    });
    let mut m = one_vault();
    let report = run(&mut m, b.seal().unwrap());
    assert_eq!(report.bank_stats.reads, W as u64);
    assert_eq!(report.bank_stats.writes, W as u64);
    assert_eq!(report.dram_bytes(), (2 * W * 16) as u64);
    assert!(report.energy.total_pj() > 0.0);
    assert!(report.energy.dram.cas_pj > 0.0);
    assert!(report.stats.ipc() > 0.0);
}

#[test]
fn int32_lane_arithmetic() {
    let mut m = one_vault();
    let mut b = ProgramBuilder::new();
    b.push(Instruction::SetiDrf {
        drf: DataReg::new(0),
        imm: 7u32,
        vec_mask: VecMask::ALL,
        simb_mask: all(),
    });
    b.push(Instruction::SetiDrf {
        drf: DataReg::new(1),
        imm: (-3i32) as u32,
        vec_mask: VecMask::ALL,
        simb_mask: all(),
    });
    b.push(Instruction::Comp {
        op: CompOp::Mul,
        dtype: DataType::I32,
        mode: CompMode::VectorVector,
        dst: DataReg::new(2),
        src1: DataReg::new(0),
        src2: DataReg::new(1),
        vec_mask: VecMask::ALL,
        simb_mask: all(),
    });
    run(&mut m, b.seal().unwrap());
    assert_eq!(m.vault(0, 0).data_rf(0, 2)[0] as i32, -21);
}

#[test]
fn partial_vec_mask_preserves_inactive_lanes() {
    let mut m = one_vault();
    let mut b = ProgramBuilder::new();
    b.push(seti_f32(0, 5.0, all()));
    b.push(Instruction::SetiDrf {
        drf: DataReg::new(0),
        imm: 9.0f32.to_bits(),
        vec_mask: VecMask::first(2),
        simb_mask: all(),
    });
    run(&mut m, b.seal().unwrap());
    let v = m.vault(0, 0).data_rf(0, 0);
    assert_eq!(f32::from_bits(v[0]), 9.0);
    assert_eq!(f32::from_bits(v[1]), 9.0);
    assert_eq!(f32::from_bits(v[2]), 5.0);
    assert_eq!(f32::from_bits(v[3]), 5.0);
}

#[test]
fn cross_cube_req_traverses_serdes() {
    // Two cubes of one vault each: the req crosses the SERDES link.
    let config = MachineConfig { cubes: 2, vaults_per_cube: 1, ..MachineConfig::vault_slice(1) };
    let mut m = Machine::new(config);
    m.vault_mut(1, 0).bank_array_mut(0, 0).write_f32(128, 77.25);
    let pe0 = SimbMask::single(W, 0).unwrap();
    let mut b = ProgramBuilder::new();
    b.push(Instruction::Req {
        target: RemoteTarget { chip: 1, vault: 0, pg: 0, pe: 0 },
        dram_addr: CrfSrc::Imm(128),
        vsm_addr: CrfSrc::Imm(32),
    });
    b.push(Instruction::RdVsm {
        vsm_addr: AddrOperand::Imm(32),
        drf: DataReg::new(7),
        simb_mask: pe0,
    });
    m.load_program_all(&b.seal().unwrap());
    let report = m.run(1_000_000).expect("quiesce");
    assert_eq!(f32::from_bits(m.vault(0, 0).data_rf(0, 7)[0]), 77.25);
    assert!(report.energy.serdes_pj > 0.0, "SERDES energy must be charged");
}

#[test]
fn load_program_resets_register_files() {
    let mut m = one_vault();
    let mut b1 = ProgramBuilder::new();
    b1.push(seti_f32(5, 9.0, all()));
    m.load_program_all(&b1.seal().unwrap());
    m.run(100_000).expect("first run");
    assert_eq!(f32::from_bits(m.vault(0, 0).data_rf(0, 5)[0]), 9.0);

    // A second program sees cleared registers but preserved banks.
    m.vault_mut(0, 0).bank_array_mut(0, 0).write_f32(0, 3.5);
    let mut b2 = ProgramBuilder::new();
    b2.push(Instruction::LdRf {
        dram_addr: AddrOperand::Imm(0),
        drf: DataReg::new(6),
        simb_mask: all(),
    });
    m.load_program_all(&b2.seal().unwrap());
    m.run(100_000).expect("second run");
    assert_eq!(f32::from_bits(m.vault(0, 0).data_rf(0, 6)[0]), 3.5);
}

#[test]
fn load_after_two_stores_to_one_address_sees_the_newer() {
    // Both stores are posted writes that drain after the core moves on;
    // `n` independent instructions slide the load across their drains.
    // Bank contents change at issue alone, so every PE loads 2.0 for
    // every `n`.
    let st = |drf: u8| Instruction::StRf {
        dram_addr: AddrOperand::Imm(64),
        drf: DataReg::new(drf),
        simb_mask: all(),
    };
    let mut failures = Vec::new();
    for engine in [Engine::Legacy, Engine::SkipAhead] {
        for n in 0..=120 {
            let mut b = ProgramBuilder::new();
            b.push(seti_f32(0, 1.0, all()));
            b.push(st(0));
            b.push(seti_f32(1, 2.0, all()));
            b.push(st(1));
            for _ in 0..n {
                b.push(seti_f32(3, 3.0, all()));
            }
            b.push(Instruction::LdRf {
                dram_addr: AddrOperand::Imm(64),
                drf: DataReg::new(2),
                simb_mask: all(),
            });
            let mut m = Machine::new(MachineConfig { engine, ..MachineConfig::vault_slice(1) });
            run(&mut m, b.seal().unwrap());
            let two = [2.0f32.to_bits(); 4];
            let stale = (0..W).filter(|&pe| m.vault(0, 0).data_rf(pe, 2) != two).count();
            if stale > 0 {
                failures.push(format!("{engine:?} n={n}: {stale} of {W} PEs"));
            }
        }
    }
    assert!(failures.is_empty(), "stale loads: {failures:?}");
}

#[test]
fn report_is_deterministic_across_identical_runs() {
    let prog = {
        let mut b = ProgramBuilder::new();
        b.push(seti_f32(0, 1.0, all()));
        for i in 0..8u32 {
            b.push(Instruction::StRf {
                dram_addr: AddrOperand::Imm(i * 16),
                drf: DataReg::new(0),
                simb_mask: all(),
            });
        }
        b.seal().unwrap()
    };
    let run = || {
        let mut m = one_vault();
        m.load_program_all(&prog);
        m.run(1_000_000).expect("quiesce").cycles
    };
    assert_eq!(run(), run());
}
