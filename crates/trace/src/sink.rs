//! Sinks and the per-component [`Tracer`] handle.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use crate::event::{CompId, TraceEvent};

/// One recorded event: when, where, what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Simulation cycle at which the event occurred.
    pub now: u64,
    /// Component that emitted it.
    pub comp: CompId,
    /// The event itself.
    pub event: TraceEvent,
}

/// Destination for trace events.
///
/// The contract is intentionally tiny: a sink receives fully formed
/// [`Record`]s in emission order and may do anything with them (buffer,
/// count, drop). Sinks are driven from the single-threaded simulation loop,
/// so implementations need no synchronization.
pub trait TraceSink {
    /// Accepts one record.
    fn record(&mut self, rec: Record);
}

/// A sink that discards every event.
///
/// Exists mostly for tests and as documentation of the disabled path; a
/// detached [`Tracer`] is cheaper still because the event payload is never
/// even constructed.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _rec: Record) {}
}

/// A bounded in-memory recorder keeping the most recent events.
///
/// When the buffer is full the oldest record is dropped and counted; the
/// exporter reports the drop count so a truncated trace is never mistaken
/// for a complete one.
#[derive(Debug, Clone)]
pub struct RingSink {
    capacity: usize,
    buf: VecDeque<Record>,
    dropped: u64,
    total: u64,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self { capacity, buf: VecDeque::new(), dropped: 0, total: 0 }
    }

    /// Records currently buffered, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.buf.iter()
    }

    /// Takes the buffered records, oldest first, leaving the ring empty.
    pub fn drain(&mut self) -> Vec<Record> {
        self.buf.drain(..).collect()
    }

    /// Number of records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of records ever offered to the ring.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of records currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, rec: Record) {
        self.total += 1;
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec);
    }
}

/// A sink shared by every instrumented component of one machine.
///
/// The simulation is single-threaded, so `Rc<RefCell<...>>` is the right
/// tool: cloning a tracer is a pointer copy and recording takes a
/// non-reentrant borrow for the duration of one push.
pub type SharedSink = Rc<RefCell<dyn TraceSink>>;

/// The per-component handle every instrumented struct owns.
///
/// A detached tracer (`Tracer::default()`) is the fast path:
/// [`emit`](Tracer::emit) tests one `Option` discriminant and returns, and
/// the event-constructing closure is never invoked. Attached tracers share
/// one [`SharedSink`].
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<SharedSink>,
}

impl Tracer {
    /// A tracer recording into `sink`.
    pub fn attached(sink: SharedSink) -> Self {
        Self { sink: Some(sink) }
    }

    /// A detached tracer (records nothing; the default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether a sink is attached. Emit sites with non-trivial payload
    /// preparation (e.g. a component-id lookup) may guard on this to keep
    /// the disabled path free of even that work.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The attached sink, if any (used by the machine to hand the same sink
    /// to subcomponents).
    pub fn sink(&self) -> Option<&SharedSink> {
        self.sink.as_ref()
    }

    /// Records the event produced by `f` at cycle `now` on component
    /// `comp`. When detached, `f` is never called.
    #[inline]
    pub fn emit(&self, now: u64, comp: CompId, f: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().record(Record { now, comp, event: f() });
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer").field("enabled", &self.enabled()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DramCmdKind;

    fn rec(now: u64) -> Record {
        Record { now, comp: CompId(0), event: TraceEvent::DramCmd { kind: DramCmdKind::Act } }
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut ring = RingSink::new(2);
        for t in 0..5 {
            ring.record(rec(t));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        assert_eq!(ring.total(), 5);
        let times: Vec<u64> = ring.records().map(|r| r.now).collect();
        assert_eq!(times, vec![3, 4]);
        assert_eq!(ring.drain().len(), 2);
        assert!(ring.is_empty());
    }

    #[test]
    fn ring_capacity_clamped_to_one() {
        let mut ring = RingSink::new(0);
        ring.record(rec(1));
        ring.record(rec(2));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.records().next().unwrap().now, 2);
    }

    #[test]
    fn detached_tracer_never_builds_the_event() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.emit(0, CompId(0), || unreachable!("closure must not run when detached"));
    }

    #[test]
    fn attached_tracer_records() {
        let ring = Rc::new(RefCell::new(RingSink::new(8)));
        let shared: SharedSink = ring.clone();
        let t = Tracer::attached(shared);
        assert!(t.enabled());
        t.emit(7, CompId(3), || TraceEvent::CreditStall);
        let r = ring.borrow().records().next().copied().unwrap();
        assert_eq!(r, Record { now: 7, comp: CompId(3), event: TraceEvent::CreditStall });
        // Clones share the sink.
        let t2 = t.clone();
        t2.emit(8, CompId(4), || TraceEvent::CreditStall);
        assert_eq!(ring.borrow().len(), 2);
        assert!(format!("{t:?}").contains("enabled"));
    }

    #[test]
    fn null_sink_discards() {
        let mut s = NullSink;
        s.record(rec(0));
    }
}
