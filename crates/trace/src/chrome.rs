//! Chrome `trace_event` JSON export, plus a structural lint.
//!
//! The exporter produces the JSON-object form of the trace-event format
//! (`{"traceEvents": [...]}`) that `chrome://tracing` and Perfetto load
//! directly. One simulated cycle maps to one timestamp unit. Components
//! become threads (`tid` = [`CompId`]) named after their registry path via
//! `thread_name` metadata events, so the viewer shows the machine hierarchy
//! as a thread list.
//!
//! Span repair: a ring-buffered recording can truncate the *front* of the
//! stream, leaving end events without a begin (dropped) and, at the tail,
//! begins without an end (auto-closed at the final timestamp). The result
//! always passes [`lint`]: balanced B/E per thread, non-decreasing
//! timestamps.

use crate::event::{CompId, CompRegistry, TraceEvent};
use crate::json;
use crate::sink::Record;

/// Structural summary returned by [`lint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LintReport {
    /// Trace events of every phase, metadata included.
    pub events: usize,
    /// `B`/`E` span pairs.
    pub spans: usize,
    /// `i` instant events.
    pub instants: usize,
    /// `X` complete events.
    pub completes: usize,
    /// Events whose `args` object was checked against the exporter's
    /// per-event schema (known names only).
    pub args_checked: usize,
}

/// How one event renders: a span boundary, an instant, or a complete event.
enum Render {
    Begin { name: &'static str, args: Option<String> },
    End { name: &'static str },
    Instant { name: &'static str, args: Option<String> },
    Complete { name: &'static str, dur: u64, args: Option<String> },
}

fn render_of(ev: &TraceEvent) -> Render {
    match *ev {
        TraceEvent::RowOpen { row } => {
            Render::Begin { name: "row_open", args: Some(format!("{{\"row\":{row}}}")) }
        }
        TraceEvent::RowClose => Render::End { name: "row_open" },
        TraceEvent::RefreshBegin => Render::Begin { name: "refresh", args: None },
        TraceEvent::RefreshEnd => Render::End { name: "refresh" },
        TraceEvent::BarrierEnter { phase } => {
            Render::Begin { name: "barrier", args: Some(format!("{{\"phase\":{phase}}}")) }
        }
        TraceEvent::BarrierRelease => Render::End { name: "barrier" },
        TraceEvent::SkipWindow { delta } => Render::Complete {
            name: "skip_window",
            dur: delta,
            args: Some(format!("{{\"delta\":{delta}}}")),
        },
        TraceEvent::DramCmd { .. } => Render::Instant { name: ev.name(), args: None },
        TraceEvent::BurstDone { read } => {
            Render::Instant { name: "burst_done", args: Some(format!("{{\"read\":{read}}}")) }
        }
        TraceEvent::FlitHop { delivered } => Render::Instant {
            name: "flit_hop",
            args: Some(format!("{{\"delivered\":{delivered}}}")),
        },
        TraceEvent::CreditStall => Render::Instant { name: "credit_stall", args: None },
        TraceEvent::SimbIssue { pc, category } => Render::Instant {
            name: "simb_issue",
            args: Some(format!("{{\"pc\":{pc},\"category\":\"{}\"}}", json::escape(category))),
        },
        TraceEvent::SimbStall { reason } => Render::Instant {
            name: "simb_stall",
            args: Some(format!("{{\"reason\":\"{}\"}}", json::escape(reason))),
        },
        TraceEvent::SpadAccess { kind, count } => Render::Instant {
            name: "spad_access",
            args: Some(format!("{{\"spad\":\"{}\",\"count\":{count}}}", kind.name())),
        },
        TraceEvent::SerdesSend { bytes } => {
            Render::Instant { name: "serdes_send", args: Some(format!("{{\"bytes\":{bytes}}}")) }
        }
    }
}

/// Exports `records` (in emission order) as a Chrome trace JSON document.
///
/// `comps` provides the thread names; components that never emitted still
/// get their metadata row, which keeps the machine topology visible even in
/// a sparse trace.
pub fn export(records: &[Record], comps: &CompRegistry) -> String {
    let mut lines: Vec<String> = Vec::with_capacity(records.len() + comps.len() + 2);
    for (id, path) in comps.iter() {
        lines.push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{},\
             \"args\":{{\"name\":\"{}\"}}}}",
            id.0,
            json::escape(path)
        ));
    }
    // Per-component stack of open span names, for orphan-E drop and
    // tail auto-close.
    let mut open: Vec<(CompId, Vec<&'static str>)> = Vec::new();
    let stack_of = |open: &mut Vec<(CompId, Vec<&'static str>)>, comp: CompId| {
        if let Some(i) = open.iter().position(|(c, _)| *c == comp) {
            i
        } else {
            open.push((comp, Vec::new()));
            open.len() - 1
        }
    };
    let mut max_ts = 0u64;
    for rec in records {
        max_ts = max_ts.max(rec.now);
        let tid = rec.comp.0;
        let ts = rec.now;
        match render_of(&rec.event) {
            Render::Begin { name, args } => {
                let i = stack_of(&mut open, rec.comp);
                open[i].1.push(name);
                let args = args.map_or(String::new(), |a| format!(",\"args\":{a}"));
                lines.push(format!(
                    "{{\"ph\":\"B\",\"name\":\"{name}\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}{args}}}"
                ));
            }
            Render::End { name } => {
                let i = stack_of(&mut open, rec.comp);
                // Drop orphan ends (their begins fell off the ring).
                if open[i].1.last() == Some(&name) {
                    open[i].1.pop();
                    lines.push(format!(
                        "{{\"ph\":\"E\",\"name\":\"{name}\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}}}"
                    ));
                }
            }
            Render::Instant { name, args } => {
                let args = args.map_or(String::new(), |a| format!(",\"args\":{a}"));
                lines.push(format!(
                    "{{\"ph\":\"i\",\"name\":\"{name}\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\
                     \"s\":\"t\"{args}}}"
                ));
            }
            Render::Complete { name, dur, args } => {
                let args = args.map_or(String::new(), |a| format!(",\"args\":{a}"));
                lines.push(format!(
                    "{{\"ph\":\"X\",\"name\":\"{name}\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\
                     \"dur\":{dur}{args}}}"
                ));
            }
        }
    }
    // Auto-close spans still open at the end of the recording.
    for (comp, stack) in &mut open {
        while let Some(name) = stack.pop() {
            lines.push(format!(
                "{{\"ph\":\"E\",\"name\":\"{name}\",\"pid\":0,\"tid\":{},\"ts\":{max_ts}}}",
                comp.0
            ));
        }
    }
    format!("{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ns\"}}\n", lines.join(",\n"))
}

/// Expected type of one `args` entry.
#[derive(Debug, Clone, Copy)]
enum ArgKind {
    Num,
    Str,
    Bool,
}

impl ArgKind {
    fn matches(self, v: &json::Value) -> bool {
        match self {
            ArgKind::Num => v.as_f64().is_some(),
            ArgKind::Str => v.as_str().is_some(),
            ArgKind::Bool => matches!(v, json::Value::Bool(_)),
        }
    }

    fn describe(self) -> &'static str {
        match self {
            ArgKind::Num => "number",
            ArgKind::Str => "string",
            ArgKind::Bool => "bool",
        }
    }
}

/// The `args` schema the exporter promises for each known event name and
/// phase, mirroring [`render_of`]. `E` events never carry args. Unknown
/// names (foreign traces run through the lint) are not checked.
fn required_args(name: &str, ph: &str) -> Option<&'static [(&'static str, ArgKind)]> {
    const NONE: &[(&str, ArgKind)] = &[];
    match (name, ph) {
        (_, "E") => Some(NONE),
        ("row_open", "B") => Some(&[("row", ArgKind::Num)]),
        ("barrier", "B") => Some(&[("phase", ArgKind::Num)]),
        ("refresh", "B") => Some(NONE),
        ("skip_window", "X") => Some(&[("delta", ArgKind::Num)]),
        ("simb_issue", "i") => Some(&[("pc", ArgKind::Num), ("category", ArgKind::Str)]),
        ("simb_stall", "i") => Some(&[("reason", ArgKind::Str)]),
        ("spad_access", "i") => Some(&[("spad", ArgKind::Str), ("count", ArgKind::Num)]),
        ("serdes_send", "i") => Some(&[("bytes", ArgKind::Num)]),
        ("flit_hop", "i") => Some(&[("delivered", ArgKind::Bool)]),
        ("burst_done", "i") => Some(&[("read", ArgKind::Bool)]),
        ("act" | "pre" | "rd" | "wr" | "ref" | "credit_stall", "i") => Some(NONE),
        _ => None,
    }
}

/// Validates that `text` is a well-formed Chrome trace document: parseable
/// JSON, a `traceEvents` array, non-decreasing timestamps in array order,
/// per thread stack-balanced `B`/`E` pairs with matching names, and — for
/// every event name this exporter produces — an `args` object carrying the
/// promised keys with the promised types (e.g. `simb_issue` must carry a
/// numeric `pc` and a string `category`).
///
/// # Errors
///
/// Returns a description of the first structural violation.
pub fn lint(text: &str) -> Result<LintReport, String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(json::Value::as_array)
        .ok_or("missing traceEvents array")?;
    let mut report = LintReport { events: events.len(), ..LintReport::default() };
    let mut last_ts: Option<f64> = None;
    let mut stacks: Vec<(f64, Vec<String>)> = Vec::new(); // (tid, open names)
    for (i, ev) in events.iter().enumerate() {
        let ph = ev.get("ph").and_then(json::Value::as_str).ok_or(format!("event {i}: no ph"))?;
        if ph == "M" {
            continue;
        }
        let ts = ev.get("ts").and_then(json::Value::as_f64).ok_or(format!("event {i}: no ts"))?;
        if let Some(prev) = last_ts {
            if ts < prev {
                return Err(format!("event {i}: ts {ts} < previous {prev}"));
            }
        }
        last_ts = Some(ts);
        let tid =
            ev.get("tid").and_then(json::Value::as_f64).ok_or(format!("event {i}: no tid"))?;
        let name = ev
            .get("name")
            .and_then(json::Value::as_str)
            .ok_or(format!("event {i}: no name"))?
            .to_string();
        let si = match stacks.iter().position(|(t, _)| *t == tid) {
            Some(si) => si,
            None => {
                stacks.push((tid, Vec::new()));
                stacks.len() - 1
            }
        };
        if let Some(spec) = required_args(&name, ph) {
            for (key, kind) in spec {
                let v = ev
                    .get("args")
                    .and_then(|a| a.get(key))
                    .ok_or(format!("event {i}: {ph} \"{name}\" missing args.{key}"))?;
                if !kind.matches(v) {
                    return Err(format!(
                        "event {i}: {ph} \"{name}\" args.{key} is not a {}",
                        kind.describe()
                    ));
                }
            }
            report.args_checked += 1;
        }
        match ph {
            "B" => stacks[si].1.push(name),
            "E" => match stacks[si].1.pop() {
                Some(top) if top == name => report.spans += 1,
                Some(top) => {
                    return Err(format!("event {i}: E \"{name}\" closes B \"{top}\" (tid {tid})"))
                }
                None => return Err(format!("event {i}: E \"{name}\" without B (tid {tid})")),
            },
            "i" => report.instants += 1,
            "X" => {
                ev.get("dur")
                    .and_then(json::Value::as_f64)
                    .ok_or(format!("event {i}: X no dur"))?;
                report.completes += 1;
            }
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
    }
    for (tid, stack) in &stacks {
        if let Some(name) = stack.last() {
            return Err(format!("unclosed B \"{name}\" on tid {tid}"));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DramCmdKind, SpadKind};

    fn reg() -> CompRegistry {
        let mut r = CompRegistry::default();
        r.register("cube0/vault0/core");
        r.register("cube0/vault0/pg0/bank0");
        r
    }

    fn rec(now: u64, comp: u32, event: TraceEvent) -> Record {
        Record { now, comp: CompId(comp), event }
    }

    #[test]
    fn export_passes_lint() {
        let records = vec![
            rec(0, 1, TraceEvent::DramCmd { kind: DramCmdKind::Act }),
            rec(0, 1, TraceEvent::RowOpen { row: 7 }),
            rec(5, 0, TraceEvent::SimbIssue { pc: 3, category: "computation" }),
            rec(6, 0, TraceEvent::SpadAccess { kind: SpadKind::Pgsm, count: 32 }),
            rec(9, 1, TraceEvent::DramCmd { kind: DramCmdKind::Pre }),
            rec(9, 1, TraceEvent::RowClose),
            rec(10, 0, TraceEvent::SkipWindow { delta: 40 }),
            rec(50, 0, TraceEvent::SimbStall { reason: "hazard" }),
        ];
        let text = export(&records, &reg());
        let report = lint(&text).expect("well-formed");
        // 2 metadata + 8 records.
        assert_eq!(report.events, 10);
        assert_eq!(report.spans, 1);
        assert_eq!(report.instants, 5);
        assert_eq!(report.completes, 1);
        // Every record renders a known name, so all eight args payloads
        // were schema-checked.
        assert_eq!(report.args_checked, 8);
        assert!(text.contains("\"thread_name\""));
        assert!(text.contains("cube0/vault0/pg0/bank0"));
        assert!(text.contains("\"pc\":3"));
        assert!(text.contains("\"delta\":40"));
    }

    #[test]
    fn lint_rejects_missing_or_mistyped_args() {
        let missing = r#"{"traceEvents":[
            {"ph":"i","name":"simb_issue","pid":0,"tid":0,"ts":1,"s":"t"}
        ]}"#;
        assert!(lint(missing).unwrap_err().contains("missing args.pc"));
        let mistyped = r#"{"traceEvents":[
            {"ph":"i","name":"simb_issue","pid":0,"tid":0,"ts":1,"s":"t",
             "args":{"pc":"three","category":"computation"}}
        ]}"#;
        assert!(lint(mistyped).unwrap_err().contains("args.pc is not a number"));
        let bad_bool = r#"{"traceEvents":[
            {"ph":"i","name":"flit_hop","pid":0,"tid":0,"ts":1,"s":"t","args":{"delivered":1}}
        ]}"#;
        assert!(lint(bad_bool).unwrap_err().contains("args.delivered is not a bool"));
        let bad_complete = r#"{"traceEvents":[
            {"ph":"X","name":"skip_window","pid":0,"tid":0,"ts":1,"dur":4}
        ]}"#;
        assert!(lint(bad_complete).unwrap_err().contains("missing args.delta"));
    }

    #[test]
    fn lint_skips_args_of_unknown_names() {
        let foreign = r#"{"traceEvents":[
            {"ph":"i","name":"not_ours","pid":0,"tid":0,"ts":1,"s":"t"}
        ]}"#;
        let report = lint(foreign).expect("unknown names are not schema-checked");
        assert_eq!(report.args_checked, 0);
        assert_eq!(report.instants, 1);
    }

    #[test]
    fn orphan_end_is_dropped_and_tail_begin_autoclosed() {
        // Simulates a ring that lost the head of the stream: an E with no B,
        // then a B with no E.
        let records = vec![
            rec(3, 1, TraceEvent::RowClose),
            rec(4, 1, TraceEvent::RowOpen { row: 1 }),
            rec(9, 0, TraceEvent::BarrierEnter { phase: 0 }),
        ];
        let text = export(&records, &reg());
        let report = lint(&text).expect("repaired trace must lint");
        assert_eq!(report.spans, 2, "both spans auto-closed");
    }

    #[test]
    fn nested_spans_close_in_order() {
        let records = vec![
            rec(1, 0, TraceEvent::RefreshBegin),
            rec(2, 0, TraceEvent::BarrierEnter { phase: 1 }),
            rec(3, 0, TraceEvent::BarrierRelease),
            rec(4, 0, TraceEvent::RefreshEnd),
        ];
        let report = lint(&export(&records, &reg())).expect("nested spans");
        assert_eq!(report.spans, 2);
    }

    #[test]
    fn lint_rejects_regressing_timestamps() {
        let bad = r#"{"traceEvents":[
            {"ph":"i","name":"a","pid":0,"tid":0,"ts":5,"s":"t"},
            {"ph":"i","name":"b","pid":0,"tid":0,"ts":4,"s":"t"}
        ]}"#;
        assert!(lint(bad).unwrap_err().contains("ts"));
    }

    #[test]
    fn lint_rejects_unbalanced_spans() {
        let unopened = r#"{"traceEvents":[{"ph":"E","name":"s","pid":0,"tid":0,"ts":1}]}"#;
        assert!(lint(unopened).unwrap_err().contains("without B"));
        let unclosed = r#"{"traceEvents":[{"ph":"B","name":"s","pid":0,"tid":0,"ts":1}]}"#;
        assert!(lint(unclosed).unwrap_err().contains("unclosed"));
        let crossed = r#"{"traceEvents":[
            {"ph":"B","name":"a","pid":0,"tid":0,"ts":1},
            {"ph":"E","name":"b","pid":0,"tid":0,"ts":2}
        ]}"#;
        assert!(lint(crossed).unwrap_err().contains("closes"));
    }

    #[test]
    fn lint_rejects_non_trace_json() {
        assert!(lint("not json").is_err());
        assert!(lint("{}").is_err());
        assert!(lint(r#"{"traceEvents":[{"name":"x"}]}"#).is_err());
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json::escape("\u{1}"), "\\u0001");
    }
}
