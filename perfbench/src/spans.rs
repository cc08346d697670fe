//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span is a name, a start, an end, the span that caused it and the
//! request it served. Spans stay in memory until the run ends; the traced
//! run then derives per-layer times from them and writes them out. The
//! layer of a span is the part of its name before the first `.`
//! (`arch.run` belongs to `arch`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// `layer.call`, e.g. `arch.run`.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start: u64,
    /// End, ns since the origin.
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The request (or op) this span served.
    pub req: Option<u64>,
}

impl Span {
    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// A span that has started but not ended.
#[must_use = "close the span to record it"]
pub struct Open {
    id: u64,
    name: &'static str,
    start: u64,
    parent: Option<u64>,
    req: Option<u64>,
}

impl Open {
    /// Id to hand to child spans as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Thread-safe in-memory span store.
pub struct Recorder {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Self { origin: Instant::now(), next: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span.
    pub fn open(&self, name: &'static str, parent: Option<u64>, req: Option<u64>) -> Open {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        Open { id, name, start: self.now(), parent, req }
    }

    /// Ends a span and stores it; returns its duration in nanoseconds.
    pub fn close(&self, open: Open) -> u64 {
        let end = self.now();
        let span = Span {
            id: open.id,
            name: open.name,
            start: open.start,
            end,
            parent: open.parent,
            req: open.req,
        };
        let dur = span.dur();
        self.spans.lock().expect("span store poisoned").push(span);
        dur
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        req: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, parent, req);
        let out = f();
        self.close(open);
        out
    }

    /// Every span recorded so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span store poisoned").clone();
        v.sort_by_key(|s| (s.start, s.id));
        v
    }
}

/// Runs `f`, inside a root span when `rec` is given.
pub fn maybe<T>(rec: Option<&Recorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(rec) => rec.time(name, None, None, f),
        None => f(),
    }
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur() as f64).collect()
}

/// Mean duration of the spans called `name`, in milliseconds (0 when there
/// are none).
pub fn mean_ms(spans: &[Span], name: &str) -> f64 {
    crate::stats::mean(&durations(spans, name)).map_or(0.0, |ns| ns / 1e6)
}

/// How much of `[start, end)` the union of `children` covers, in ns.
/// Children may overlap each other and may stick out of the interval.
pub fn covered(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|&(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of each span: its duration minus the part of it its child
/// spans cover. Keyed by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            (s.id, s.dur() - covered(s.start, s.end, kids))
        })
        .collect()
}

/// Total self time per layer, in ns.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer()).or_insert(0) += selfs[&s.id];
    }
    out
}

/// The spans as a JSON array (one object per span, times in ns).
pub fn to_json(spans: &[Span]) -> String {
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    let items: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.id,
                s.name,
                s.start,
                s.end,
                opt(s.parent),
                opt(s.req)
            )
        })
        .collect();
    format!("[{}]", items.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span { id, name, start, end, parent, req: None }
    }

    #[test]
    fn covered_merges_overlapping_children() {
        assert_eq!(covered(0, 100, &[]), 0);
        assert_eq!(covered(0, 100, &[(10, 20), (30, 40)]), 20);
        // Overlapping children count their union once.
        assert_eq!(covered(0, 100, &[(10, 50), (40, 60), (55, 70)]), 60);
        // Nested and identical children.
        assert_eq!(covered(0, 100, &[(10, 90), (20, 30), (10, 90)]), 80);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(covered(50, 100, &[(0, 60), (90, 200)]), 20);
        assert_eq!(covered(50, 100, &[(0, 40), (120, 200)]), 0);
    }

    #[test]
    fn self_time_subtracts_overlapping_children() {
        let spans = vec![
            span(1, "serve.request", 0, 100, None),
            span(2, "arch.run", 10, 60, Some(1)),
            span(3, "serve.encode", 50, 80, Some(1)),
            span(4, "arch.readback", 20, 30, Some(2)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 70); // children cover 10..80
        assert_eq!(selfs[&2], 50 - 10);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 10);
        let layers = layer_self_times(&spans);
        assert_eq!(layers["serve"], 30 + 30);
        assert_eq!(layers["arch"], 40 + 10);
        // Siblings 2 and 3 overlap for 10 ns, which both keep as self time.
        assert_eq!(layers.values().sum::<u64>(), 100 + 10);
    }

    #[test]
    fn recorder_keeps_parents_and_requests() {
        let rec = Recorder::new();
        let root = rec.open("sim.job", None, Some(7));
        let child = rec.time("arch.run", Some(root.id()), Some(7), || 41 + 1);
        assert_eq!(child, 42);
        let root_id = root.id();
        rec.close(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let run = spans.iter().find(|s| s.name == "arch.run").unwrap();
        assert_eq!(run.parent, Some(root_id));
        assert_eq!(run.req, Some(7));
        assert_eq!(run.layer(), "arch");
        assert!(to_json(&spans).contains("\"name\":\"arch.run\""));
    }
}
