//! Property tests for the skip-ahead `next_event` bounds of the DRAM layer
//! (see DESIGN.md §"Two-engine architecture").
//!
//! The contract under test: `next_event` returns a *sound lower bound* on
//! the next state transition — for every cycle strictly before the reported
//! one, the component must neither issue a DRAM command nor deliver a
//! completion. Random command interleavings probe the bound against the
//! real timing state machine; any late bound shows up as a transition on a
//! cycle where the bound claimed quiescence.

use ipim_dram::{
    AccessKind, AddressMap, Bank, BankCmd, BankState, DramTiming, MemController, PagePolicy,
    Request, RequestId, SchedPolicy,
};
use std::cell::RefCell;
use std::rc::Rc;

use ipim_simkit::check;
use ipim_simkit::prop::{tuple3, tuple4, u32_in, u8_any, usize_in, vec_of, Gen};
use ipim_trace::{CompId, Record, RingSink, Tracer};

fn controller(policy: SchedPolicy, page: PagePolicy, refresh: bool) -> MemController {
    let timing = DramTiming::default();
    let map = AddressMap::default();
    let banks = (0..4).map(|_| Bank::new(timing, map)).collect();
    let mut mc = MemController::new(banks, timing, 16, page, policy);
    mc.set_refresh_enabled(refresh);
    mc
}

/// Raw op: (bank, 16-byte slot, write?, value) — same shape as the
/// controller data-semantics properties, so failures shrink the same way.
/// The 32 slots are eight lines in each of four rows, so streams meet row
/// hits, misses and conflicts as well as same-address reads and writes.
fn arb_raw_ops() -> Gen<Vec<(usize, u32, bool, u8)>> {
    vec_of(tuple4(usize_in(0, 4), u32_in(0, 32), ipim_simkit::prop::bool_any(), u8_any()), 1, 60)
}

fn requests(raw: &[(usize, u32, bool, u8)]) -> Vec<Request> {
    raw.iter()
        .enumerate()
        .map(|(i, &(bank, slot, write, value))| Request {
            id: RequestId(i as u64),
            bank,
            addr: slot / 8 * AddressMap::default().row_bytes + slot % 8 * 16,
            kind: if write { AccessKind::Write } else { AccessKind::Read },
            data: [value; 16],
        })
        .collect()
}

/// Drives `mc` through a request stream one cycle at a time; on every cycle
/// the controller acts (issues any command or returns any completion), the
/// bound computed *before* that tick must already have been due.
///
/// A controller skips the ticks of a quiet window it bounded with
/// `next_event` itself, so a late bound would hide behind its own skip.
/// `mc` therefore takes every tick in full (`bank_mut` drops the window),
/// and a twin that keeps its windows must act identically on every cycle.
fn check_controller_bound(mc: &mut MemController, raw: &[(usize, u32, bool, u8)]) {
    let mut twin = mc.clone();
    let mut pending: std::collections::VecDeque<Request> = requests(raw).into();
    let total = pending.len();
    let mut done = 0usize;
    let mut now = 0u64;
    while done < total || !mc.is_idle() {
        while let Some(&req) = pending.front() {
            if mc.enqueue(req, now) {
                assert!(twin.enqueue(req, now), "cycle {now}: twin rejected a request");
                pending.pop_front();
            } else {
                break;
            }
        }
        let bound = mc.next_event(now);
        let stats_before = mc.total_bank_stats();
        mc.bank_mut(0);
        let completions = mc.tick(now);
        let twin_completions = twin.tick(now);
        assert_eq!(
            format!("{completions:?}"),
            format!("{twin_completions:?}"),
            "cycle {now}: quiet-window skipping changed the completions"
        );
        assert_eq!(
            (mc.total_bank_stats(), mc.locality),
            (twin.total_bank_stats(), twin.locality),
            "cycle {now}: quiet-window skipping changed the DRAM commands"
        );
        let acted = !completions.is_empty() || mc.total_bank_stats() != stats_before;
        if acted {
            let b = bound.unwrap_or_else(|| {
                panic!("cycle {now}: controller acted but next_event claimed quiescence")
            });
            assert!(
                b <= now,
                "cycle {now}: controller acted but next_event reported {b} (late bound)"
            );
        }
        done += completions.len();
        now += 1;
        assert!(now < 2_000_000, "stream did not complete");
    }
}

/// The skip-ahead contract end to end: a controller that jumps every
/// window `next_event` reports, replaying it with `skip_idle`, must issue
/// the same commands and return the same completions at the same cycles
/// as one that ticks every cycle. A bound that misses a state change
/// without a command (the drain flag, say) shows up here even where no
/// command issues inside the jumped window.
fn check_controller_skips(mc: &MemController, raw: &[(usize, u32, bool, u8)]) {
    let run = |skip: bool| {
        let mut mc = mc.clone();
        let sink = Rc::new(RefCell::new(RingSink::new(1 << 16)));
        let banks = (1..=4).map(CompId).collect();
        mc.attach_trace(Tracer::attached(sink.clone()), CompId(0), banks);
        let mut pending: std::collections::VecDeque<Request> = requests(raw).into();
        let (total, mut done, mut now) = (pending.len(), 0usize, 0u64);
        let mut completions = Vec::new();
        while done < total || !mc.is_idle() {
            while let Some(&req) = pending.front() {
                if !mc.enqueue(req, now) {
                    break;
                }
                pending.pop_front();
            }
            // Like the vault: a request the controller would take forces a
            // live tick; otherwise jump to the bound.
            if skip && pending.front().is_none_or(|r| !mc.can_accept(r.kind)) {
                if let Some(t) = mc.next_event(now).filter(|&t| t > now) {
                    mc.skip_idle(t - now);
                    now = t;
                    continue;
                }
            }
            for c in mc.tick(now) {
                completions.push(format!("{now}: {c:?}"));
                done += 1;
            }
            now += 1;
            assert!(now < 2_000_000, "stream did not complete");
        }
        let records: Vec<Record> = sink.borrow().records().copied().collect();
        (completions, records, mc.total_bank_stats(), mc.locality)
    };
    let (ticked, skipped) = (run(false), run(true));
    assert_eq!(ticked.0, skipped.0, "skipping changed the completions");
    assert_eq!(ticked.1, skipped.1, "skipping changed the commands");
    assert_eq!((ticked.2, ticked.3), (skipped.2, skipped.3), "skipping changed the counters");
}

fn check_controller(mc: MemController, raw: &[(usize, u32, bool, u8)]) {
    check_controller_skips(&mc, raw);
    check_controller_bound(&mut { mc }, raw);
}

#[test]
fn controller_next_event_is_sound_fr_fcfs_open() {
    check("controller_next_event_is_sound_fr_fcfs_open", &arb_raw_ops(), |raw| {
        check_controller(controller(SchedPolicy::FrFcfs, PagePolicy::Open, false), raw);
    });
}

#[test]
fn controller_next_event_is_sound_with_refresh() {
    check("controller_next_event_is_sound_with_refresh", &arb_raw_ops(), |raw| {
        check_controller(controller(SchedPolicy::FrFcfs, PagePolicy::Open, true), raw);
    });
}

#[test]
fn controller_next_event_is_sound_fcfs_close() {
    check("controller_next_event_is_sound_fcfs_close", &arb_raw_ops(), |raw| {
        check_controller(controller(SchedPolicy::Fcfs, PagePolicy::Close, false), raw);
    });
}

/// Raw bank step: (command selector, row, column).
fn arb_bank_steps() -> Gen<Vec<(usize, u32, u32)>> {
    vec_of(tuple3(usize_in(0, 5), u32_in(0, 8), u32_in(0, 16)), 1, 40)
}

/// Replays a random *legal* command sequence on a bare bank. Before each
/// command, every currently legal command's earliest cycle must be at or
/// after [`Bank::next_event`] — the bound the vault engine folds into its
/// own minimum — otherwise a state transition could precede the bound.
fn check_bank_bound(steps: &[(usize, u32, u32)]) {
    let mut bank = Bank::new(DramTiming::default(), AddressMap::default());
    let mut now = 0u64;
    for &(sel, row, col) in steps {
        let ne = bank.next_event();
        for cmd in
            [BankCmd::Act(row), BankCmd::Pre, BankCmd::Rd(col), BankCmd::Wr(col), BankCmd::Ref]
        {
            if let Some(t) = bank.earliest(cmd) {
                assert!(
                    t >= ne,
                    "{cmd:?} legal at {t}, before next_event {ne} (state {:?})",
                    bank.state()
                );
            }
        }
        // Issue one legal command chosen by the selector, at its earliest
        // legal cycle (monotone in `now` so the trace is a real schedule).
        let cmd = match (sel, bank.state()) {
            (0, BankState::Precharged) => BankCmd::Act(row),
            (1, BankState::Precharged) => BankCmd::Ref,
            (_, BankState::Precharged) => BankCmd::Act(row),
            (0, BankState::Active { .. }) => BankCmd::Pre,
            (1 | 2, BankState::Active { .. }) => BankCmd::Rd(col),
            (_, BankState::Active { .. }) => BankCmd::Wr(col),
        };
        let at = bank.earliest(cmd).expect("selected command is legal in state").max(now);
        bank.issue(cmd, at);
        now = at;
    }
}

#[test]
fn bank_next_event_bounds_every_legal_command() {
    check("bank_next_event_bounds_every_legal_command", &arb_bank_steps(), |steps| {
        check_bank_bound(steps);
    });
}
