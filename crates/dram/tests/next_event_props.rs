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
use ipim_simkit::check;
use ipim_simkit::prop::{tuple3, tuple4, u32_in, u8_any, usize_in, vec_of, Gen};

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
fn arb_raw_ops() -> Gen<Vec<(usize, u32, bool, u8)>> {
    vec_of(tuple4(usize_in(0, 4), u32_in(0, 32), ipim_simkit::prop::bool_any(), u8_any()), 1, 60)
}

fn requests(raw: &[(usize, u32, bool, u8)]) -> Vec<Request> {
    raw.iter()
        .enumerate()
        .map(|(i, &(bank, slot, write, value))| Request {
            id: RequestId(i as u64),
            bank,
            addr: slot * 16,
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

#[test]
fn controller_next_event_is_sound_fr_fcfs_open() {
    check("controller_next_event_is_sound_fr_fcfs_open", &arb_raw_ops(), |raw| {
        check_controller_bound(&mut controller(SchedPolicy::FrFcfs, PagePolicy::Open, false), raw);
    });
}

#[test]
fn controller_next_event_is_sound_with_refresh() {
    check("controller_next_event_is_sound_with_refresh", &arb_raw_ops(), |raw| {
        check_controller_bound(&mut controller(SchedPolicy::FrFcfs, PagePolicy::Open, true), raw);
    });
}

#[test]
fn controller_next_event_is_sound_fcfs_close() {
    check("controller_next_event_is_sound_fcfs_close", &arb_raw_ops(), |raw| {
        check_controller_bound(&mut controller(SchedPolicy::Fcfs, PagePolicy::Close, false), raw);
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
