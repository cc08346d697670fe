//! A finished trace: the drained ring plus the component registry.

use crate::chrome;
use crate::event::CompRegistry;
use crate::sink::Record;

/// Everything captured by one traced run, detached from the machine.
///
/// Produced by `ipim_core::Session` when `MachineConfig::trace.enabled` is
/// set: the session wires a [`RingSink`](crate::RingSink) through the
/// machine, runs, then drains the ring into this self-contained value.
#[derive(Debug, Clone, Default)]
pub struct TraceCapture {
    /// Captured records in emission order (oldest first).
    pub records: Vec<Record>,
    /// Component-id to hierarchical-path mapping for `records`.
    pub components: CompRegistry,
    /// Records evicted because the ring filled.
    pub dropped: u64,
    /// Records emitted in total (`records.len() + dropped`).
    pub total: u64,
}

impl TraceCapture {
    /// Renders the capture as Chrome `trace_event` JSON, loadable in
    /// `chrome://tracing` or Perfetto.
    pub fn to_chrome_json(&self) -> String {
        chrome::export(&self.records, &self.components)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    #[test]
    fn capture_round_trips_through_chrome_export() {
        let mut components = CompRegistry::default();
        let comp = components.register("cube0/vault0/core");
        let records = vec![
            Record {
                now: 1,
                comp,
                event: TraceEvent::SimbIssue { pc: 0, category: "computation" },
            },
            Record { now: 2, comp, event: TraceEvent::BarrierEnter { phase: 0 } },
            Record { now: 9, comp, event: TraceEvent::BarrierRelease },
        ];
        let cap = TraceCapture { records, components, dropped: 0, total: 3 };
        let json = cap.to_chrome_json();
        let report = chrome::lint(&json).expect("valid trace");
        // One metadata row for the component plus the three records.
        assert_eq!(report.events, 4);
        assert_eq!(report.spans, 1);
    }

    #[test]
    fn empty_capture_exports_cleanly() {
        let cap = TraceCapture::default();
        assert!(chrome::lint(&cap.to_chrome_json()).is_ok());
    }
}
