//! The lightweight in-DRAM memory controller of each process group.
//!
//! Paper Sec. IV-E: the controller contains a memory request queue
//! (16 entries), DRAM command translation/issue logic, the open-row address
//! register, and supports two page policies (open/close) and two scheduling
//! policies (FCFS, FR-FCFS). It also schedules refresh per `tREFI`/`tRFC`.
//!
//! The controller issues at most one DRAM *command* per cycle (single shared
//! command bus within the PG); data buses are per-bank, so bursts to
//! different banks overlap freely.

use std::collections::VecDeque;

use ipim_trace::{CompId, DramCmdKind, TraceEvent, Tracer};

use crate::{Bank, BankCmd, BankState, BankStats, DramTiming};

/// Identifier the caller uses to match completions to requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// Read or write access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// 16-byte read.
    Read,
    /// 16-byte write.
    Write,
}

/// One 16-byte bank access request from a PE. It carries no bytes: the
/// controller models when the access happens, and the caller keeps what
/// the bank holds.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Caller-chosen identifier, echoed in the [`Completion`].
    pub id: RequestId,
    /// Target bank within the process group.
    pub bank: usize,
    /// Byte address within the bank (16-byte aligned).
    pub addr: u32,
    /// Read or write.
    pub kind: AccessKind,
}

/// Completion of a previously enqueued request.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// The identifier given at enqueue time.
    pub id: RequestId,
    /// Read or write.
    pub kind: AccessKind,
    /// Cycle at which the burst finished.
    pub finished_at: u64,
}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PagePolicy {
    /// Leave rows open after column access (paper default).
    #[default]
    Open,
    /// Precharge as soon as legal after each column access.
    Close,
}

/// Request scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// First-come first-served.
    Fcfs,
    /// First-ready FCFS: row-buffer hits bypass older misses (paper default).
    #[default]
    FrFcfs,
}

/// A queued read or a posted write.
///
/// Same-address reads and writes stay in arrival order through `older`:
/// the number of older requests to the same bank address, of the other
/// kind, still waiting (posted writes not yet drained, for a read; reads
/// whose column command has not issued, for a write). It is counted once
/// at enqueue, when every waiting request of the other kind is older, and
/// decremented on each same-address request of the other kind as a write
/// drains or a read issues. A request may take its column slot only at
/// zero, so ordering costs one comparison instead of a queue scan.
#[derive(Debug, Clone, Copy)]
struct Pending {
    req: Request,
    /// The request's row in its bank, decoded once at enqueue.
    row: u32,
    /// Arrival order.
    seq: u64,
    /// Older same-address requests of the other kind still waiting.
    older: u32,
    /// Whether servicing this request required an ACT (row was closed).
    saw_act: bool,
    /// Whether servicing this request required a PRE (row conflict).
    saw_pre: bool,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    id: RequestId,
    kind: AccessKind,
    finish_at: u64,
}

/// Bursts in flight (column commands pipeline at `tCCD`, so several bursts
/// per bank overlap; the per-bank data bus is modeled by the bank's own
/// `tCCD` constraint).
type InFlightSet = Vec<InFlight>;

/// What [`MemController::issue_one`] did with the cycle's command slot.
enum Slot {
    Issued,
    /// No command issued; `writes_tried` records whether the write buffer
    /// was offered the slot.
    Idle {
        writes_tried: bool,
    },
}

/// Row-buffer locality statistics kept by the controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowLocality {
    /// Row-buffer hits (column access without a new ACT).
    pub row_hits: u64,
    /// Row misses (bank was precharged).
    pub row_misses: u64,
    /// Row conflicts (different row was open).
    pub row_conflicts: u64,
}

impl std::ops::AddAssign for RowLocality {
    fn add_assign(&mut self, o: Self) {
        self.row_hits += o.row_hits;
        self.row_misses += o.row_misses;
        self.row_conflicts += o.row_conflicts;
    }
}

impl std::ops::Sub for RowLocality {
    type Output = Self;

    fn sub(self, o: Self) -> Self {
        Self {
            row_hits: self.row_hits - o.row_hits,
            row_misses: self.row_misses - o.row_misses,
            row_conflicts: self.row_conflicts - o.row_conflicts,
        }
    }
}

/// A controller's command counters, bank by bank, and its row-locality
/// counters at one moment: a lockstep leader's growth is measured from
/// them (see [`MemController::adopt`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    banks: Vec<BankStats>,
    locality: RowLocality,
}

/// A trace event a leading controller emitted (see
/// [`MemController::set_leading`]): on the controller itself (`None`) or
/// on its bank `Some(b)`.
pub type LoggedEvent = (Option<usize>, TraceEvent);

/// Per-process-group memory controller serving its PEs' banks.
#[derive(Debug, Clone)]
pub struct MemController {
    banks: Vec<Bank>,
    timing: DramTiming,
    queue: VecDeque<Pending>,
    queue_capacity: usize,
    // Posted writes: acknowledged on entry, drained to the banks lazily so
    // read streams keep their open rows (a standard write buffer, 8× the
    // read queue depth, as in a small write-back cache, so drains amortize
    // the row switch).
    write_capacity: usize,
    write_buffer: VecDeque<Pending>,
    draining_writes: bool,
    read_idle_cycles: u32,
    next_seq: u64,
    write_acks: Vec<Completion>,
    in_flight: InFlightSet,
    page_policy: PagePolicy,
    sched_policy: SchedPolicy,
    refresh_enabled: bool,
    next_refresh: u64,
    refreshing: bool,
    // Inter-bank activation constraints.
    last_act: Option<u64>,
    act_window: VecDeque<u64>,
    // Ticks before this cycle only move the read-idle counter: the
    // `next_event` bound taken after a quiet tick, dropped (0) whenever
    // state changes from outside `tick`. `quiet_exact`: the bound kept the
    // posted writes' terms, so it is what `next_event` would compute.
    quiet_until: u64,
    quiet_exact: bool,
    /// Row-buffer locality statistics.
    pub locality: RowLocality,
    // Lockstep leader (see `set_leading`): with a tracer, the events
    // emitted since the last `take_log`.
    leading: bool,
    events: Vec<LoggedEvent>,
    // Observability (detached by default; see `attach_trace`).
    tracer: Tracer,
    comp: CompId,
    bank_comps: Vec<CompId>,
}

impl MemController {
    /// Creates a controller over `banks` with a queue of `queue_capacity`
    /// entries (Table III: 16).
    ///
    /// # Panics
    ///
    /// Panics if `banks` holds more than 64 banks (the scheduler tracks
    /// banks in a 64-bit mask; a vault has at most 64 PEs).
    pub fn new(
        banks: Vec<Bank>,
        timing: DramTiming,
        queue_capacity: usize,
        page_policy: PagePolicy,
        sched_policy: SchedPolicy,
    ) -> Self {
        assert!(banks.len() <= 64, "{} banks exceed the 64-bank controller limit", banks.len());
        Self {
            banks,
            timing,
            queue: VecDeque::with_capacity(queue_capacity),
            queue_capacity,
            write_capacity: queue_capacity * 8,
            write_buffer: VecDeque::with_capacity(queue_capacity * 8),
            draining_writes: false,
            read_idle_cycles: 0,
            next_seq: 0,
            write_acks: Vec::new(),
            in_flight: Vec::new(),
            page_policy,
            sched_policy,
            refresh_enabled: true,
            next_refresh: timing.t_refi,
            refreshing: false,
            last_act: None,
            act_window: VecDeque::with_capacity(4),
            quiet_until: 0,
            quiet_exact: false,
            locality: RowLocality::default(),
            leading: false,
            events: Vec::new(),
            tracer: Tracer::default(),
            comp: CompId::default(),
            bank_comps: Vec::new(),
        }
    }

    /// Attaches a tracer: `comp` identifies the controller itself (refresh
    /// windows, burst completions) and `bank_comps` its banks in index
    /// order (per-command and row open/close events).
    ///
    /// # Panics
    ///
    /// Panics if `bank_comps` does not provide one id per bank.
    pub fn attach_trace(&mut self, tracer: Tracer, comp: CompId, bank_comps: Vec<CompId>) {
        assert_eq!(bank_comps.len(), self.banks.len(), "one component id per bank");
        self.tracer = tracer;
        self.comp = comp;
        self.bank_comps = bank_comps;
    }

    /// Issues `cmd` to bank `b` and emits the command (and any row
    /// open/close transition) on the bank's trace component. All command
    /// issue paths funnel through here so the trace can never miss one.
    fn issue_cmd(&mut self, b: usize, cmd: BankCmd, now: u64) -> u64 {
        let finish = self.banks[b].issue(cmd, now);
        if self.tracer.enabled() {
            let kind = match cmd {
                BankCmd::Act(_) => DramCmdKind::Act,
                BankCmd::Pre => DramCmdKind::Pre,
                BankCmd::Rd(_) => DramCmdKind::Rd,
                BankCmd::Wr(_) => DramCmdKind::Wr,
                BankCmd::Ref => DramCmdKind::Ref,
            };
            self.emit(now, Some(b), TraceEvent::DramCmd { kind });
            match cmd {
                BankCmd::Act(row) => self.emit(now, Some(b), TraceEvent::RowOpen { row }),
                BankCmd::Pre => self.emit(now, Some(b), TraceEvent::RowClose),
                _ => {}
            }
        }
        finish
    }

    /// Emits `event` on the controller (`bank` `None`) or on one of its
    /// banks, and logs it while leading. Callers check `tracer.enabled()`
    /// first, so a detached tracer costs one branch.
    fn emit(&mut self, now: u64, bank: Option<usize>, event: TraceEvent) {
        let comp = bank.map_or(self.comp, |b| self.bank_comps[b]);
        self.tracer.emit(now, comp, || event);
        if self.leading {
            self.events.push((bank, event));
        }
    }

    /// Makes this controller the leader of controllers that follow it in
    /// lockstep (`on`), or ends that. With a tracer attached, a leader logs
    /// every event it emits for [`take_log`](Self::take_log): a follower
    /// receives the same requests at the same cycles, so it would emit the
    /// same events (on its own components).
    pub fn set_leading(&mut self, on: bool) {
        self.leading = on;
        self.events.clear();
    }

    /// Moves the events a leader emitted since the last call, in order,
    /// into `events`. All of them happened on the last tick.
    pub fn take_log(&mut self, events: &mut Vec<LoggedEvent>) {
        events.append(&mut self.events);
    }

    /// Emits a leader's logged `events` at `now` on this controller's own
    /// components.
    pub fn replay_events(&self, now: u64, events: &[LoggedEvent]) {
        for &(bank, event) in events {
            let comp = bank.map_or(self.comp, |b| self.bank_comps[b]);
            self.tracer.emit(now, comp, || event);
        }
    }

    /// Copies this controller's command and row-locality counters into
    /// `out`, reusing its allocation.
    pub fn counters_into(&self, out: &mut Counters) {
        out.banks.clear();
        out.banks.extend(self.banks.iter().map(|b| b.stats));
        out.locality = self.locality;
    }

    /// How far this controller's command and row-locality counters grew
    /// since `since`, summed over its banks.
    pub fn growth_since(&self, since: &Counters) -> (BankStats, RowLocality) {
        let mut total = BankStats::default();
        for (b, base) in self.banks.iter().zip(&since.banks) {
            total += b.stats - *base;
        }
        (total, self.locality - since.locality)
    }

    /// Whether this controller and `other` are both drained and would act
    /// alike from cycle `now + 1` on when given the same requests: the same
    /// bank states and command constraints, refresh deadline and phase,
    /// drain flag, read-idle hysteresis and activation windows, each
    /// compared up to what can still matter after `now`.
    pub fn in_step_with(&self, other: &Self, now: u64) -> bool {
        let after = now + 1;
        // Past 150 the drain trigger and its bound no longer tell counts apart.
        let idle = |mc: &Self| mc.read_idle_cycles.min(151);
        // The drain flag outlives an empty buffer until the next full tick
        // (a refresh sequence skips it), so a write queued before then
        // meets it.
        self.is_idle()
            && other.is_idle()
            && self.next_refresh == other.next_refresh
            && self.refreshing == other.refreshing
            && self.draining_writes == other.draining_writes
            && self.banks.iter().zip(&other.banks).all(|(a, b)| a.timing_matches(b, after))
            && idle(self) == idle(other)
            && self.live_acts(after).eq(other.live_acts(after))
    }

    /// The activations that can still hold back an ACT at `after` or later:
    /// the tFAW window's, oldest first, then the last one through tRRD.
    fn live_acts(&self, after: u64) -> impl Iterator<Item = u64> + '_ {
        let last = self.last_act.filter(|&t| t + self.timing.t_rrd_l > after);
        let window = self.act_window.iter().filter(move |&&t| t + self.timing.t_faw > after);
        window.copied().chain(last)
    }

    /// Takes over `leader`'s scheduling state where this controller
    /// followed it in lockstep: its queued reads, posted writes, in-flight
    /// bursts and acknowledgements, with each request id mapped through
    /// `id`; its bank states and constraints, drain, refresh and activation
    /// state. Each counter grows by the leader's growth since `since`.
    pub fn adopt(&mut self, leader: &Self, since: &Counters, id: impl Fn(RequestId) -> RequestId) {
        for ((mine, theirs), base) in self.banks.iter_mut().zip(&leader.banks).zip(&since.banks) {
            mine.adopt_timing(theirs);
            mine.stats += theirs.stats - *base;
        }
        self.locality += leader.locality - since.locality;
        let follow = |p: &Pending| Pending { req: Request { id: id(p.req.id), ..p.req }, ..*p };
        self.queue.clear();
        self.queue.extend(leader.queue.iter().map(follow));
        self.write_buffer.clear();
        self.write_buffer.extend(leader.write_buffer.iter().map(follow));
        self.write_acks.clear();
        self.write_acks.extend(leader.write_acks.iter().map(|a| Completion { id: id(a.id), ..*a }));
        self.in_flight.clear();
        self.in_flight.extend(leader.in_flight.iter().map(|f| InFlight { id: id(f.id), ..*f }));
        self.draining_writes = leader.draining_writes;
        self.read_idle_cycles = leader.read_idle_cycles;
        self.next_seq = leader.next_seq;
        self.next_refresh = leader.next_refresh;
        self.refreshing = leader.refreshing;
        self.last_act = leader.last_act;
        self.act_window.clone_from(&leader.act_window);
        self.quiet_until = 0;
        self.quiet_exact = false;
    }

    /// Disables refresh scheduling (useful for deterministic unit tests).
    pub fn set_refresh_enabled(&mut self, enabled: bool) {
        self.refresh_enabled = enabled;
        self.quiet_until = 0;
    }

    /// Access to a bank (row state and statistics).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn bank(&self, bank: usize) -> &Bank {
        &self.banks[bank]
    }

    /// Mutable access to a bank.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn bank_mut(&mut self, bank: usize) -> &mut Bank {
        self.quiet_until = 0;
        &mut self.banks[bank]
    }

    /// Whether the read request queue is full.
    pub fn is_full(&self) -> bool {
        self.queue.len() >= self.queue_capacity
    }

    /// Number of queued (not yet issued) read requests.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Whether [`enqueue`](Self::enqueue) would currently accept a request
    /// of `kind` (reads and posted writes queue separately).
    pub fn can_accept(&self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => !self.is_full(),
            AccessKind::Write => self.write_buffer.len() < self.write_capacity,
        }
    }

    /// Whether a refresh sequence is in progress (it steps once per cycle).
    pub fn is_refreshing(&self) -> bool {
        self.refreshing
    }

    /// Whether the controller has no queued or in-flight work.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
            && self.in_flight.is_empty()
            && self.write_buffer.is_empty()
            && self.write_acks.is_empty()
    }

    /// Sound lower bound on the next cycle `>= now` at which a call to
    /// [`tick`](Self::tick) could do anything beyond the per-cycle idle
    /// bookkeeping that [`skip_idle`](Self::skip_idle) replays in bulk.
    ///
    /// The contract (see DESIGN.md §"Two-engine architecture"): for every
    /// cycle `t` in `now..T` (with `T` the returned bound), `tick(t)` issues
    /// no DRAM command, returns no completion, and changes no state other
    /// than the read-idle counter. Returning a bound *earlier* than the true
    /// next event is always safe (the engine just ticks through it);
    /// returning a later one would desynchronise the skip-ahead engine, so
    /// every branch below under-approximates. `None` means the controller
    /// is fully drained and (with refresh disabled) will never act again.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        // Only a quiet tick proves that later ticks repeat its flow: a tick
        // after a command, a completion or an enqueue can move the drain
        // flag without issuing anything (a read that meets an older
        // same-address write sets it), which no command bound sees.
        if now >= self.quiet_until {
            return Some(now);
        }
        // Inside a quiet window nothing but the read-idle counter changed
        // since the bound was taken, and every term of the bound is an
        // absolute cycle (the read-idle crossing included): it still holds.
        if self.quiet_exact {
            return Some(self.quiet_until);
        }
        self.bound(now, true)
    }

    /// The earliest command or completion, as of a quiet tick: what
    /// [`next_event`](Self::next_event) reports inside a quiet window. It
    /// leaves out the posted writes' own bounds when `writes_may_issue` is
    /// false. That is sound right after a tick that issued nothing, changed
    /// nothing else and never reached `issue_write`: every later tick
    /// repeats that tick's flow (its drain flag update is idempotent) until
    /// the first event this bounds.
    fn bound(&self, now: u64, writes_may_issue: bool) -> Option<u64> {
        // Mid-refresh sequences step once per cycle (drains, PREs, REFs).
        if self.refreshing {
            return Some(now);
        }
        let mut t = u64::MAX;
        for a in &self.write_acks {
            t = t.min(a.finished_at);
        }
        for f in &self.in_flight {
            t = t.min(f.finish_at);
        }
        if self.refresh_enabled {
            t = t.min(self.next_refresh.max(now));
        }
        // Queued reads: the earliest cycle any of them could receive a
        // command, ignoring scheduling-policy gating (which only delays).
        for p in &self.queue {
            t = t.min(self.request_bound(p));
        }
        if !self.write_buffer.is_empty() {
            // Drain-mode entry can flip at any tick the moment a write
            // becomes issuable, so always include the raw write bounds.
            if writes_may_issue {
                for p in &self.write_buffer {
                    t = t.min(self.request_bound(p));
                }
            }
            // The idle-read hysteresis (`read_idle_cycles > 150`) is the
            // one time-driven drain trigger; compute its crossing cycle.
            if self.queue.is_empty()
                && !self.draining_writes
                && self.write_buffer.len() < self.write_capacity * 3 / 4
            {
                t = t.min(now + 150u64.saturating_sub(self.read_idle_cycles as u64));
            }
        }
        if self.page_policy == PagePolicy::Close {
            for b in &self.banks {
                if let Some(pre) = b.earliest(BankCmd::Pre) {
                    t = t.min(pre);
                }
            }
        }
        if t == u64::MAX {
            None
        } else {
            Some(t.max(now))
        }
    }

    /// Earliest cycle `p` could receive *any* DRAM command given only its
    /// bank's timing state (a lower bound: inter-bank constraints and
    /// scheduling gates can only push the real issue later).
    fn request_bound(&self, p: &Pending) -> u64 {
        let bank = &self.banks[p.req.bank];
        match bank.state() {
            BankState::Active { row } if row == p.row => {
                bank.earliest(BankCmd::Rd(0)).expect("column legal on open row")
            }
            BankState::Active { .. } => bank.earliest(BankCmd::Pre).expect("PRE legal on open row"),
            BankState::Precharged => {
                bank.earliest(BankCmd::Act(0)).expect("ACT legal when precharged")
            }
        }
    }

    /// Replays the idle bookkeeping of `delta` ticks skipped under the
    /// [`next_event`](Self::next_event) contract: the only per-cycle state a
    /// quiescent tick mutates is the read-idle hysteresis counter.
    pub fn skip_idle(&mut self, delta: u64) {
        if self.queue.is_empty() {
            self.read_idle_cycles =
                self.read_idle_cycles.saturating_add(delta.min(u32::MAX as u64) as u32);
        }
    }

    /// Enqueues a request; returns `false` (rejecting it) when the queue is
    /// full — the caller must retry, which models back-pressure into the
    /// control core's pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the bank index is out of range or the address is not
    /// 16-byte aligned.
    pub fn enqueue(&mut self, req: Request, now: u64) -> bool {
        assert!(req.bank < self.banks.len(), "bank {} out of range", req.bank);
        assert_eq!(req.addr % crate::ACCESS_BYTES as u32, 0, "unaligned access {:#x}", req.addr);
        let row = self.banks[req.bank].map().row(req.addr);
        match req.kind {
            AccessKind::Write => {
                if self.write_buffer.len() >= self.write_capacity {
                    return false;
                }
                // Posted write: the burst is acknowledged next cycle and
                // takes its bank's column slot when the write drains, after
                // every older same-address read (all queued reads are older).
                let seq = self.next_seq;
                self.next_seq += 1;
                let older = self.queue.iter().filter(|r| same_line(&r.req, &req)).count() as u32;
                self.write_buffer.push_back(Pending {
                    req,
                    row,
                    seq,
                    older,
                    saw_act: false,
                    saw_pre: false,
                });
                self.write_acks.push(Completion {
                    id: req.id,
                    kind: AccessKind::Write,
                    finished_at: now + 1,
                });
                self.quiet_until = 0;
                true
            }
            AccessKind::Read => {
                if self.is_full() {
                    return false;
                }
                let seq = self.next_seq;
                self.next_seq += 1;
                // Every posted write is older than this read.
                let older =
                    self.write_buffer.iter().filter(|w| same_line(&w.req, &req)).count() as u32;
                self.queue.push_back(Pending {
                    req,
                    row,
                    seq,
                    older,
                    saw_act: false,
                    saw_pre: false,
                });
                self.quiet_until = 0;
                true
            }
        }
    }

    /// Advances the controller by one cycle: possibly issues one DRAM
    /// command and returns any completions that finished at `now`.
    pub fn tick(&mut self, now: u64) -> Vec<Completion> {
        let mut done = Vec::new();
        self.tick_into(now, &mut done);
        done
    }

    /// [`tick`](Self::tick) appending the completions to `done`, so a
    /// caller that ticks every cycle reuses one buffer.
    pub fn tick_into(&mut self, now: u64, done: &mut Vec<Completion>) {
        if now < self.quiet_until {
            self.count_read_idle();
            return;
        }
        self.live_tick(now, done);
        debug_assert!(self.ordering_counts_hold(), "an ordering count is off at cycle {now}");
    }

    /// Whether each queued read's and posted write's `older` count equals a
    /// recount by scan (checked after every live tick in debug builds).
    fn ordering_counts_hold(&self) -> bool {
        let recount = |p: &Pending, others: &VecDeque<Pending>| {
            others.iter().filter(|o| same_line(&o.req, &p.req) && o.seq < p.seq).count() as u32
        };
        self.queue.iter().all(|r| r.older == recount(r, &self.write_buffer))
            && self.write_buffer.iter().all(|w| w.older == recount(w, &self.queue))
    }

    /// A tick that is not inside a quiet window.
    fn live_tick(&mut self, now: u64, done: &mut Vec<Completion>) {
        let start = done.len();
        let mut i = 0;
        while i < self.write_acks.len() {
            if self.write_acks[i].finished_at <= now {
                done.push(self.write_acks.swap_remove(i));
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].finish_at <= now {
                let f = self.in_flight.swap_remove(i);
                if self.tracer.enabled() {
                    let read = matches!(f.kind, AccessKind::Read);
                    self.emit(now, None, TraceEvent::BurstDone { read });
                }
                done.push(Completion { id: f.id, kind: f.kind, finished_at: f.finish_at });
            } else {
                i += 1;
            }
        }

        if self.refresh_enabled && now >= self.next_refresh && !self.refreshing {
            self.refreshing = true;
            if self.tracer.enabled() {
                self.emit(now, None, TraceEvent::RefreshBegin);
            }
        }
        let mut quiet = done.len() == start;
        if self.refreshing {
            if self.do_refresh_step(now) {
                // Refresh sequence consumed this cycle's command slot.
                return;
            }
            self.refreshing = false;
            self.next_refresh = now + self.timing.t_refi;
            if self.tracer.enabled() {
                self.emit(now, None, TraceEvent::RefreshEnd);
            }
            quiet = false;
        }

        // After a tick that changed nothing but the read-idle counter and
        // the (then idempotent) drain flag, every tick before the next
        // event does the same: bound that window once, then skip its ticks.
        if let Slot::Idle { writes_tried } = self.issue_one(now) {
            if quiet {
                self.quiet_exact = writes_tried || self.write_buffer.is_empty();
                self.quiet_until = self.bound(now + 1, writes_tried).unwrap_or(u64::MAX);
            }
        }
    }

    /// Progresses the refresh sequence; returns `true` while still busy.
    fn do_refresh_step(&mut self, now: u64) -> bool {
        // Close any open bank first, then refresh every bank (all-bank REF
        // issued per-bank back-to-back; tRFC overlaps).
        if !self.in_flight.is_empty() {
            return true; // wait for outstanding bursts to drain
        }
        // Flush posted writes before refreshing, except those that wait for
        // an older same-address read: the read waits for the refresh, so
        // holding the refresh for them would deadlock the controller.
        if self.write_buffer.iter().any(|w| !self.write_order_blocked(w)) {
            self.issue_write(now);
            return true;
        }
        for b in 0..self.banks.len() {
            if matches!(self.banks[b].state(), BankState::Active { .. }) {
                if let Some(t) = self.banks[b].earliest(BankCmd::Pre) {
                    if t <= now {
                        self.issue_cmd(b, BankCmd::Pre, now);
                    }
                }
                return true;
            }
        }
        // All banks precharged: issue REF to the first bank that still needs
        // it this round (we approximate all-bank refresh as simultaneous by
        // issuing them on consecutive cycles; tRFC dominates).
        for b in 0..self.banks.len() {
            if self.banks[b].earliest(BankCmd::Act(0)).is_some_and(|t| t <= now) {
                self.issue_cmd(b, BankCmd::Ref, now);
                return b + 1 < self.banks.len();
            }
        }
        true
    }

    /// Advances the read-idle counter the write-drain hysteresis reads.
    fn count_read_idle(&mut self) {
        if self.queue.is_empty() {
            self.read_idle_cycles = self.read_idle_cycles.saturating_add(1);
        } else {
            self.read_idle_cycles = 0;
        }
    }

    /// Issues at most one command according to the scheduling policy.
    ///
    /// Candidates are tried in policy priority order; the first request for
    /// which a command can legally issue this cycle consumes the PG's single
    /// command-bus slot.
    fn issue_one(&mut self, now: u64) -> Slot {
        // Hysteresis: start draining writes when the buffer is almost full,
        // or when the read stream has been idle long enough that we are not
        // about to thrash its open rows; stop when the buffer empties.
        self.count_read_idle();
        if self.write_buffer.len() >= self.write_capacity * 3 / 4
            || (self.read_idle_cycles > 150 && !self.write_buffer.is_empty())
        {
            self.draining_writes = true;
        }
        // Exit drain mode when the buffer is empty — or when every
        // remaining write is order-blocked behind an older same-address
        // read (the read must make progress first or the two would
        // deadlock against the drain gating below).
        if self.write_buffer.is_empty()
            || (self.draining_writes
                && self.write_buffer.iter().all(|w| self.write_order_blocked(w)))
        {
            self.draining_writes = false;
        }
        // With no queued read and no posted write there is no candidate, and
        // `issue_write` would do nothing.
        let mut writes_tried = false;
        if !self.queue.is_empty() || !self.write_buffer.is_empty() {
            if self.try_reads(now) {
                return Slot::Issued;
            }
            if self.draining_writes {
                if self.issue_write(now) {
                    return Slot::Issued;
                }
                writes_tried = true;
            }
        }
        if self.maybe_auto_precharge(now) {
            Slot::Issued
        } else {
            Slot::Idle { writes_tried }
        }
    }

    /// Whether `w` must wait for an *older* queued same-address read: its
    /// `older` count, kept at enqueue and as reads issue (see [`Pending`]).
    fn write_order_blocked(&self, w: &Pending) -> bool {
        w.older > 0
    }

    /// A posted write drained: the same-address reads still queued, all
    /// younger (the write waited for every older one), stop waiting for it.
    fn write_drained(&mut self, write: &Request) {
        for r in self.queue.iter_mut().filter(|r| same_line(&r.req, write)) {
            r.older -= 1;
        }
    }

    /// A read's column command issued: the same-address posted writes, all
    /// younger (the read waited for every older one), stop waiting for it.
    fn read_issued(&mut self, read: &Request) {
        for w in self.write_buffer.iter_mut().filter(|w| same_line(&w.req, read)) {
            w.older -= 1;
        }
    }

    /// Issues one command on behalf of the write buffer (hits first, then
    /// the oldest write steers the row). Returns true if a command issued.
    fn issue_write(&mut self, now: u64) -> bool {
        if self.write_buffer.is_empty() {
            return false;
        }
        // Oldest drainable row-hit write first.
        let hit = self.write_buffer.iter().position(|p| {
            if self.write_order_blocked(p) {
                return false;
            }
            let bank = &self.banks[p.req.bank];
            match bank.state() {
                BankState::Active { row } if row == p.row => {
                    bank.earliest(BankCmd::Wr(0)).is_some_and(|t| t <= now)
                }
                _ => false,
            }
        });
        if let Some(i) = hit {
            let p = self.write_buffer[i];
            let col = self.banks[p.req.bank].map().col(p.req.addr);
            self.issue_cmd(p.req.bank, BankCmd::Wr(col), now);
            if p.saw_pre {
                self.locality.row_conflicts += 1;
            } else if p.saw_act {
                self.locality.row_misses += 1;
            } else {
                self.locality.row_hits += 1;
            }
            self.write_buffer.remove(i);
            self.write_drained(&p.req);
            return true;
        }
        // Steer the row buffer for the oldest drainable write.
        let Some(idx0) = (0..self.write_buffer.len())
            .find(|&i| !self.write_order_blocked(&self.write_buffer[i]))
        else {
            return false;
        };
        let p = self.write_buffer[idx0];
        let bank_state = self.banks[p.req.bank].state();
        match bank_state {
            BankState::Active { row } if row == p.row => {
                // Right row already open; just waiting on column timing.
            }
            BankState::Active { .. } => {
                if self.banks[p.req.bank].earliest(BankCmd::Pre).is_some_and(|t| t <= now) {
                    self.issue_cmd(p.req.bank, BankCmd::Pre, now);
                    self.write_buffer[idx0].saw_pre = true;
                    return true;
                }
            }
            BankState::Precharged => {
                let ok =
                    self.banks[p.req.bank].earliest(BankCmd::Act(p.row)).is_some_and(|t| t <= now);
                if ok && self.act_allowed(now) {
                    self.issue_cmd(p.req.bank, BankCmd::Act(p.row), now);
                    self.record_act(now);
                    self.write_buffer[idx0].saw_act = true;
                    return true;
                }
            }
        }
        false
    }

    /// Attempts to issue one command on behalf of queue entry `idx`;
    /// returns `true` if a command issued.
    fn try_progress(&mut self, idx: usize, now: u64) -> bool {
        let pending = self.queue[idx];
        let req = pending.req;
        // A read must wait for *older* same-address posted writes to drain
        // (a real controller would forward from the buffer; waiting is the
        // conservative model).
        if pending.older > 0 {
            self.draining_writes = true;
            return false;
        }
        let bank = &self.banks[req.bank];
        match bank.state() {
            BankState::Active { row } if row == pending.row => {
                // Row hit: issue the column command.
                let col = bank.map().col(req.addr);
                let cmd = BankCmd::Rd(col);
                if bank.earliest(cmd).is_some_and(|t| t <= now) {
                    let finish = self.issue_cmd(req.bank, cmd, now);
                    if pending.saw_pre {
                        self.locality.row_conflicts += 1;
                    } else if pending.saw_act {
                        self.locality.row_misses += 1;
                    } else {
                        self.locality.row_hits += 1;
                    }
                    self.in_flight.push(InFlight { id: req.id, kind: req.kind, finish_at: finish });
                    self.queue.remove(idx);
                    self.read_issued(&req);
                    // Under close-page policy the row is closed by
                    // maybe_auto_precharge() on a later idle cycle.
                    return true;
                }
                false
            }
            BankState::Active { .. } => {
                // Row conflict: precharge first — but while the write
                // buffer drains, non-hit reads must not steer the row away
                // from the write stream (they would thrash it).
                if self.draining_writes {
                    return false;
                }
                if self.banks[req.bank].earliest(BankCmd::Pre).is_some_and(|t| t <= now) {
                    self.issue_cmd(req.bank, BankCmd::Pre, now);
                    self.queue[idx].saw_pre = true;
                    return true;
                }
                false
            }
            BankState::Precharged => {
                if self.draining_writes {
                    return false;
                }
                // Row miss: activate, honoring tRRD and tFAW across banks.
                let row = pending.row;
                let bank_ok =
                    self.banks[req.bank].earliest(BankCmd::Act(row)).is_some_and(|t| t <= now);
                if bank_ok && self.act_allowed(now) {
                    self.issue_cmd(req.bank, BankCmd::Act(row), now);
                    self.record_act(now);
                    self.queue[idx].saw_act = true;
                    return true;
                }
                false
            }
        }
    }

    /// Close-page helper: precharge any idle open bank with no queued hit;
    /// returns whether a PRE issued.
    fn maybe_auto_precharge(&mut self, now: u64) -> bool {
        if self.page_policy != PagePolicy::Close {
            return false;
        }
        for b in 0..self.banks.len() {
            let has_pending = self.queue.iter().any(|p| p.req.bank == b);
            if has_pending {
                continue;
            }
            if matches!(self.banks[b].state(), BankState::Active { .. })
                && self.banks[b].earliest(BankCmd::Pre).is_some_and(|t| t <= now)
            {
                self.issue_cmd(b, BankCmd::Pre, now);
                return true; // one command per cycle
            }
        }
        false
    }

    fn act_allowed(&self, now: u64) -> bool {
        if let Some(last) = self.last_act {
            if now < last + self.timing.t_rrd_l {
                return false;
            }
        }
        if self.act_window.len() == 4 {
            if let Some(&oldest) = self.act_window.front() {
                if now < oldest + self.timing.t_faw {
                    return false;
                }
            }
        }
        true
    }

    fn record_act(&mut self, now: u64) {
        self.last_act = Some(now);
        self.act_window.push_back(now);
        if self.act_window.len() > 4 {
            self.act_window.pop_front();
        }
    }

    /// Offers the cycle's command slot to the queued reads in
    /// scheduling-policy priority order, oldest first within each class;
    /// returns whether one of them issued a command. A read that cannot
    /// issue changes no bank state, so every class is decided on the state
    /// the tick started with.
    fn try_reads(&mut self, now: u64) -> bool {
        // Banks that already had a row-steering candidate (bit = bank).
        let mut seen_banks = 0u64;
        match self.sched_policy {
            // Strict arrival order: the oldest request for each bank may
            // progress; younger requests to the *same* bank must wait so
            // per-bank order (and per-address order) is preserved.
            SchedPolicy::Fcfs => {
                for i in 0..self.queue.len() {
                    let bit = 1u64 << self.queue[i].req.bank;
                    if seen_banks & bit == 0 {
                        seen_banks |= bit;
                        if self.try_progress(i, now) {
                            return true;
                        }
                    }
                }
            }
            // First-ready: row hits that can issue now; then the oldest
            // non-hit request per bank, so same-address ordering is
            // preserved. Bursts pipeline: a bank with outstanding bursts
            // still accepts new column commands once its `tCCD` window
            // reopens.
            SchedPolicy::FrFcfs => {
                for i in 0..self.queue.len() {
                    if self.ready_hit(&self.queue[i], now) && self.try_progress(i, now) {
                        return true;
                    }
                }
                for i in 0..self.queue.len() {
                    let p = &self.queue[i];
                    let bit = 1u64 << p.req.bank;
                    // Only the oldest non-hit request per bank may steer
                    // the row buffer (PRE/ACT); younger ones wait.
                    if seen_banks & bit == 0 && !self.ready_hit(p, now) {
                        seen_banks |= bit;
                        if self.try_progress(i, now) {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// Whether `p`'s row is open and its bank takes a column command now.
    fn ready_hit(&self, p: &Pending, now: u64) -> bool {
        let bank = &self.banks[p.req.bank];
        match bank.state() {
            BankState::Active { row } if row == p.row => {
                bank.earliest(BankCmd::Rd(0)).is_some_and(|t| t <= now)
            }
            _ => false,
        }
    }

    /// Snapshot of per-bank statistics summed over all banks.
    pub fn total_bank_stats(&self) -> BankStats {
        let mut s = BankStats::default();
        for b in &self.banks {
            s += b.stats;
        }
        s
    }
}

/// Whether two requests access the same address of the same bank.
fn same_line(a: &Request, b: &Request) -> bool {
    a.bank == b.bank && a.addr == b.addr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AddressMap, DramTiming};

    fn controller(policy: SchedPolicy, page: PagePolicy) -> MemController {
        let timing = DramTiming::default();
        let map = AddressMap::default();
        let banks = (0..4).map(|_| Bank::new(timing, map)).collect();
        let mut mc = MemController::new(banks, timing, 16, page, policy);
        mc.set_refresh_enabled(false);
        mc
    }

    fn run_until_complete(
        mc: &mut MemController,
        mut now: u64,
        n: usize,
    ) -> (Vec<Completion>, u64) {
        let mut out = Vec::new();
        while out.len() < n {
            out.extend(mc.tick(now));
            now += 1;
            assert!(now < 1_000_000, "controller did not complete requests");
        }
        (out, now)
    }

    fn read(id: u64, bank: usize, addr: u32) -> Request {
        Request { id: RequestId(id), bank, addr, kind: AccessKind::Read }
    }

    fn write(id: u64, bank: usize, addr: u32) -> Request {
        Request { id: RequestId(id), bank, addr, kind: AccessKind::Write }
    }

    #[test]
    fn single_read_miss_latency() {
        let mut mc = controller(SchedPolicy::FrFcfs, PagePolicy::Open);
        assert!(mc.enqueue(read(1, 0, 0), 0));
        let (done, _) = run_until_complete(&mut mc, 0, 1);
        // ACT@0, RD@14, data at 14+CL+1 = 29.
        assert_eq!(done[0].finished_at, 29);
        assert_eq!(mc.locality.row_misses, 1);
    }

    #[test]
    fn row_hit_is_faster_than_miss() {
        let mut mc = controller(SchedPolicy::FrFcfs, PagePolicy::Open);
        assert!(mc.enqueue(read(1, 0, 0), 0));
        let (_, now) = run_until_complete(&mut mc, 0, 1);
        assert!(mc.enqueue(read(2, 0, 16), now));
        let (done, end) = run_until_complete(&mut mc, now, 1);
        assert_eq!(mc.locality.row_hits, 1);
        // Hit takes CL+1 after issue; total wall time much less than a miss.
        assert!(end - now <= DramTiming::default().hit_read_latency() + 2, "{done:?}");
    }

    #[test]
    fn write_then_read_same_address_returns_data() {
        // The read's column command waits for the older posted write to
        // its address: bank 2 has taken the write when its one read issues.
        let mut mc = controller(SchedPolicy::FrFcfs, PagePolicy::Open);
        assert!(mc.enqueue(write(1, 2, 64), 0));
        assert!(mc.enqueue(read(2, 2, 64), 0));
        let mut now = 0;
        while mc.bank(2).stats.reads == 0 {
            mc.tick(now);
            now += 1;
            assert!(now < 1_000, "the read never issued");
        }
        assert_eq!(mc.bank(2).stats.writes, 1, "the read passed the older write");
        run_until_complete(&mut mc, now, 1);
    }

    #[test]
    fn row_conflict_precharges_then_activates() {
        let mut mc = controller(SchedPolicy::FrFcfs, PagePolicy::Open);
        assert!(mc.enqueue(read(1, 0, 0), 0));
        let (_, now) = run_until_complete(&mut mc, 0, 1);
        // Different row on the same bank.
        assert!(mc.enqueue(read(2, 0, 4096), now));
        let (_, _) = run_until_complete(&mut mc, now, 1);
        assert_eq!(mc.locality.row_conflicts, 1);
        assert_eq!(mc.locality.row_misses, 1); // classification is per request
    }

    #[test]
    fn fr_fcfs_lets_hit_bypass_conflict() {
        let mut mc = controller(SchedPolicy::FrFcfs, PagePolicy::Open);
        assert!(mc.enqueue(read(1, 0, 0), 0));
        let (_, now) = run_until_complete(&mut mc, 0, 1);
        // Older request conflicts (row 2), younger hits (row 0).
        assert!(mc.enqueue(read(2, 0, 4096), now));
        assert!(mc.enqueue(read(3, 0, 16), now));
        let (done, _) = run_until_complete(&mut mc, now, 2);
        assert_eq!(done[0].id, RequestId(3), "row hit should complete first");
        assert_eq!(done[1].id, RequestId(2));
    }

    #[test]
    fn fcfs_preserves_order() {
        let mut mc = controller(SchedPolicy::Fcfs, PagePolicy::Open);
        assert!(mc.enqueue(read(1, 0, 0), 0));
        let (_, now) = run_until_complete(&mut mc, 0, 1);
        assert!(mc.enqueue(read(2, 0, 4096), now));
        assert!(mc.enqueue(read(3, 0, 16), now));
        let (done, _) = run_until_complete(&mut mc, now, 2);
        assert_eq!(done[0].id, RequestId(2));
        assert_eq!(done[1].id, RequestId(3));
    }

    #[test]
    fn queue_capacity_backpressure() {
        let mut mc = controller(SchedPolicy::FrFcfs, PagePolicy::Open);
        for i in 0..16 {
            assert!(mc.enqueue(read(i, 0, 16 * i as u32), 0));
        }
        assert!(mc.is_full());
        assert!(!mc.enqueue(read(99, 0, 0), 0));
    }

    #[test]
    fn parallel_banks_overlap() {
        let mut mc = controller(SchedPolicy::FrFcfs, PagePolicy::Open);
        for b in 0..4 {
            assert!(mc.enqueue(read(b as u64, b, 0), 0));
        }
        let (done, end) = run_until_complete(&mut mc, 0, 4);
        // Serial banks would need 4 × 29 = 116 cycles; with bank-level
        // parallelism only the command bus and tRRD serialize the ACTs.
        assert!(end < 70, "bank-level parallelism missing: end={end} {done:?}");
    }

    #[test]
    fn trrd_separates_activates() {
        let mut mc = controller(SchedPolicy::FrFcfs, PagePolicy::Open);
        assert!(mc.enqueue(read(0, 0, 0), 0));
        assert!(mc.enqueue(read(1, 1, 0), 0));
        let mut acts = Vec::new();
        for now in 0..40 {
            mc.tick(now);
            let total: u64 = (0..4).map(|b| mc.bank(b).stats.acts).sum();
            if acts.last() != Some(&total) {
                acts.push(total);
            }
        }
        // Both ACTs eventually issue; the second at least tRRD_L after.
        assert_eq!(*acts.last().unwrap(), 2);
    }

    #[test]
    fn close_page_precharges_idle_banks() {
        let mut mc = controller(SchedPolicy::FrFcfs, PagePolicy::Close);
        assert!(mc.enqueue(read(1, 0, 0), 0));
        let (_, now) = run_until_complete(&mut mc, 0, 1);
        // Give the auto-precharge time to happen.
        for t in now..now + 60 {
            mc.tick(t);
        }
        assert_eq!(mc.bank(0).state(), BankState::Precharged);
    }

    #[test]
    fn refresh_eventually_runs() {
        let timing = DramTiming::default();
        let map = AddressMap::default();
        let banks = (0..4).map(|_| Bank::new(timing, map)).collect();
        let mut mc = MemController::new(banks, timing, 16, PagePolicy::Open, SchedPolicy::FrFcfs);
        for now in 0..(timing.t_refi + timing.t_rfc + 20) {
            mc.tick(now);
        }
        assert!(mc.total_bank_stats().refs >= 4, "all banks refresh once per tREFI");
    }

    #[test]
    fn refresh_does_not_wait_for_a_write_behind_an_older_read() {
        // The posted write waits for the older same-address read, and the
        // read for the refresh: the refresh must not wait for the write.
        let timing = DramTiming { t_refi: 100, ..DramTiming::default() };
        let banks = (0..4).map(|_| Bank::new(timing, AddressMap::default())).collect();
        let mut mc = MemController::new(banks, timing, 16, PagePolicy::Open, SchedPolicy::FrFcfs);
        assert!(mc.enqueue(read(1, 0, 64), 99));
        assert!(mc.enqueue(write(2, 0, 64), 99));
        // The write is acknowledged at once, so the read completes last.
        let (done, _) = run_until_complete(&mut mc, 99, 2);
        assert_eq!(done[1].id, RequestId(1));
        assert_eq!(mc.total_bank_stats().writes, 0, "the read is older than the write");
        assert!(mc.total_bank_stats().refs > 0, "the refresh ran");
        while !mc.is_idle() {
            mc.tick(1_000);
        }
        assert_eq!(mc.total_bank_stats().writes, 1, "the write drained after");
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_request_panics() {
        let mut mc = controller(SchedPolicy::FrFcfs, PagePolicy::Open);
        mc.enqueue(read(0, 0, 3), 0);
    }
}
