//! Property tests for the memory controller: arbitrary request streams
//! complete under both schedulers, both page policies and refresh, every
//! column access is classified once, and each read's column command finds
//! exactly its older same-address writes drained.

use std::collections::VecDeque;

use ipim_dram::{
    AccessKind, AddressMap, Bank, DramTiming, MemController, PagePolicy, Request, RequestId,
    SchedPolicy,
};
use ipim_simkit::check;
use ipim_simkit::prop::{bool_any, tuple3, u32_in, usize_in, vec_of, Gen};

const BANKS: usize = 4;

fn controller(policy: SchedPolicy, page: PagePolicy) -> MemController {
    let timing = DramTiming::default();
    let map = AddressMap::default();
    let banks = (0..BANKS).map(|_| Bank::new(timing, map)).collect();
    let mut mc = MemController::new(banks, timing, 16, page, policy);
    mc.set_refresh_enabled(false);
    mc
}

/// Raw op: (bank, 16-byte slot within a small region, write?). Ops are
/// generated as primitive tuples so the harness can shrink a failing
/// stream (drop ops, reduce banks/slots) before reporting it.
type RawOp = (usize, u32, bool);

fn arb_raw_ops() -> Gen<Vec<RawOp>> {
    vec_of(tuple3(usize_in(0, BANKS), u32_in(0, 32), bool_any()), 1, 60)
}

/// The stream's requests in program order, the `i`-th with id `i`, each
/// at the address `addr(op)`.
fn requests(raw: &[RawOp], addr: impl Fn(&RawOp) -> u32) -> Vec<Request> {
    raw.iter()
        .enumerate()
        .map(|(i, op)| Request {
            id: RequestId(i as u64),
            bank: op.0,
            addr: addr(op),
            kind: if op.2 { AccessKind::Write } else { AccessKind::Read },
        })
        .collect()
}

/// Feeds `reqs` to `mc` in order as fast as it takes them, one tick per
/// cycle, until every request has completed exactly once and the posted
/// writes have drained; `watch` sees the controller after every tick.
fn run_stream(mc: &mut MemController, reqs: Vec<Request>, mut watch: impl FnMut(&MemController)) {
    let total = reqs.len();
    let mut pending: VecDeque<Request> = reqs.into();
    let mut done = Vec::new();
    let mut now = 0u64;
    while done.len() < total || !mc.is_idle() {
        while let Some(&req) = pending.front() {
            if !mc.enqueue(req, now) {
                break;
            }
            pending.pop_front();
        }
        done.extend(mc.tick(now).iter().map(|c| c.id.0));
        watch(mc);
        now += 1;
        assert!(now < 2_100_000, "stream did not complete and drain");
    }
    done.sort_unstable();
    assert!(done.iter().copied().eq(0..total as u64), "completions {done:?}");
}

/// Runs `raw` with every request to a bank sent to that bank's line 0 and
/// checks the order the controller serves each line in: when a read's
/// column command issues, its bank has taken exactly the writes that
/// arrived before the read. The controller issues one command per tick,
/// so a tick's growth in one bank's `reads` counter is one read's column
/// command; reads to one line issue in arrival order, so a bank's `k`-th
/// read command serves its `k`-th read.
fn check_same_address_order(mut mc: MemController, raw: &[RawOp]) {
    // Per bank, how many writes arrived before each of its reads.
    let mut older_writes = vec![Vec::new(); BANKS];
    let mut writes = [0u64; BANKS];
    for &(bank, _, write) in raw {
        if write {
            writes[bank] += 1;
        } else {
            older_writes[bank].push(writes[bank]);
        }
    }
    let mut reads = [0usize; BANKS];
    run_stream(&mut mc, requests(raw, |_| 0), |mc| {
        for (b, seen) in reads.iter_mut().enumerate() {
            let stats = mc.bank(b).stats;
            if stats.reads as usize > *seen {
                assert_eq!(stats.reads as usize, *seen + 1, "bank {b}: two reads in one tick");
                let want = older_writes[b][*seen];
                assert_eq!(
                    stats.writes, want,
                    "bank {b}: read {seen} issued after {} writes, not its {want} older ones",
                    stats.writes
                );
                *seen += 1;
            }
        }
    });
}

fn check_fr_fcfs_open_page(raw: &[RawOp]) {
    let mut mc = controller(SchedPolicy::FrFcfs, PagePolicy::Open);
    run_stream(&mut mc, requests(raw, |op| op.1 * 16), |_| {});
    check_same_address_order(controller(SchedPolicy::FrFcfs, PagePolicy::Open), raw);
}

fn check_fcfs_close_page(raw: &[RawOp]) {
    let mut mc = controller(SchedPolicy::Fcfs, PagePolicy::Close);
    run_stream(&mut mc, requests(raw, |op| op.1 * 16), |_| {});
    check_same_address_order(controller(SchedPolicy::Fcfs, PagePolicy::Close), raw);
}

fn check_refresh_completes(raw: &[RawOp]) {
    let timing = DramTiming::default();
    let map = AddressMap::default();
    let banks = (0..BANKS).map(|_| Bank::new(timing, map)).collect();
    let mut mc = MemController::new(banks, timing, 16, PagePolicy::Open, SchedPolicy::FrFcfs);
    // refresh enabled
    run_stream(&mut mc, requests(raw, |op| op.1 * 16), |_| {});
}

fn check_locality_counters(raw: &[RawOp]) {
    let mut mc = controller(SchedPolicy::FrFcfs, PagePolicy::Open);
    run_stream(&mut mc, requests(raw, |op| op.1 * 16), |_| {});
    let l = mc.locality;
    let stats = mc.total_bank_stats();
    assert_eq!(l.row_hits + l.row_misses + l.row_conflicts, stats.reads + stats.writes);
}

#[test]
fn fr_fcfs_open_page_preserves_data() {
    check("fr_fcfs_open_page_preserves_data", &arb_raw_ops(), |raw| {
        check_fr_fcfs_open_page(raw);
    });
}

#[test]
fn fcfs_close_page_preserves_data() {
    check("fcfs_close_page_preserves_data", &arb_raw_ops(), |raw| {
        check_fcfs_close_page(raw);
    });
}

#[test]
fn refresh_does_not_lose_requests() {
    check("refresh_does_not_lose_requests", &arb_raw_ops(), |raw| {
        check_refresh_completes(raw);
    });
}

#[test]
fn locality_counters_account_every_column_access() {
    check("locality_counters_account_every_column_access", &arb_raw_ops(), |raw| {
        check_locality_counters(raw);
    });
}

/// Historical shrunk counterexamples from the proptest era (the deleted
/// `controller_props.proptest-regressions` file), pinned as explicit
/// cases and run through every property above.
#[test]
fn regression_read_after_write_same_slot() {
    // cc 40d2b2e2…: read of (bank 2, slot 9) before a write to it.
    let ops = [(2, 9, false), (2, 9, true)];
    check_fr_fcfs_open_page(&ops);
    check_fcfs_close_page(&ops);
    check_refresh_completes(&ops);
    check_locality_counters(&ops);
}

#[test]
fn regression_single_write() {
    // cc 61183a40…: one posted write must still drain and land.
    let ops = [(0, 0, true)];
    check_fr_fcfs_open_page(&ops);
    check_fcfs_close_page(&ops);
    check_refresh_completes(&ops);
    check_locality_counters(&ops);
}

#[test]
fn regression_interleaved_banks_write_read_write() {
    // cc 60d02d34…: write/read on bank 2 interleaved with read/write on
    // bank 1 at a distinct slot.
    let ops = [(2, 3, true), (2, 3, false), (1, 29, false), (1, 29, true)];
    check_fr_fcfs_open_page(&ops);
    check_fcfs_close_page(&ops);
    check_refresh_completes(&ops);
    check_locality_counters(&ops);
}
