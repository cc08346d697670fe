//! Plain-data results that cross the pool's thread boundary.
//!
//! Workers own the (intentionally `!Send`) machines; only a [`SimResponse`]
//! ever leaves a worker. `PartialEq` on a response is exact — counters,
//! f64 energy terms and output pixels compare bit-for-bit — which is what
//! lets the cache tests assert that a hit is indistinguishable from a cold
//! run, and the pool tests that a pooled run is indistinguishable from a
//! serial one.

use ipim_core::frontend::Image;
use ipim_core::{fnv1a, ExecutionReport, Fidelity, RunOutcome, SessionError};
use ipim_trace::json;

use crate::request::SimRequest;

/// A successfully completed simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct DoneResponse {
    /// Canonical workload name (as the suite spells it).
    pub workload: String,
    /// The request's content-addressed identity
    /// ([`SimRequest::fingerprint`]), echoed so a front tier (the shard
    /// router) can check that the backend derived the same cache key from
    /// the wire bytes it forwarded.
    pub fingerprint: u64,
    /// Wall-clock cycles to machine-wide quiescence.
    pub cycles: u64,
    /// Instructions issued across all vaults.
    pub issued: u64,
    /// Total energy in picojoules.
    pub energy_pj: f64,
    /// Full cycle-accurate report (plain data, exact-comparable).
    pub report: ExecutionReport,
    /// The output image read back from the banks.
    pub output: Image,
    /// FNV-1a over the output's f32 bit patterns (row-major), the cheap
    /// wire-level determinism witness.
    pub output_hash: u64,
    /// Whether `cycles`/`energy_pj` are bit-exact simulation results or
    /// an analytic-tier prediction (in which case `output` is a blank
    /// image and `output_hash` hashes that blank — predictions answer
    /// cost questions, not correctness questions).
    pub fidelity: Fidelity,
}

/// Why a job produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimeoutKind {
    /// The wall-clock deadline passed before a worker could start the job.
    DeadlineBeforeStart,
    /// The simulation exhausted its cycle budget.
    CycleBudget {
        /// The exhausted budget.
        max_cycles: u64,
        /// Vaults that had not halted — the partial progress picture.
        stuck_vaults: usize,
    },
}

/// The service's answer to one [`SimRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum SimResponse {
    /// The simulation ran to quiescence.
    Done(Box<DoneResponse>),
    /// The job timed out (deadline or cycle budget); the worker survives
    /// and moves on to the next job.
    Timeout(TimeoutKind),
    /// The request itself was bad (unknown workload, compile error, ...).
    Error(String),
}

/// Hashes an image's pixels (f32 bit patterns, row-major).
pub fn image_hash(img: &Image) -> u64 {
    let mut bytes = Vec::with_capacity(img.data().len() * 4);
    for px in img.data() {
        bytes.extend_from_slice(&px.to_bits().to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Hashes a full [`ExecutionReport`] — every counter, bank statistic and
/// f64 energy term — into one 64-bit witness, so a wire client can assert
/// report-level bit-identity without shipping the whole report. The hash
/// covers the report's canonical `Debug` rendering (f64s print in
/// shortest-round-trip form, so equal hashes mean bit-equal reports).
pub fn report_hash(report: &ExecutionReport) -> u64 {
    fnv1a(format!("{report:?}").as_bytes())
}

impl SimResponse {
    /// Builds the response for a finished serial run.
    pub fn from_outcome(req: &SimRequest, outcome: RunOutcome) -> Self {
        let output_hash = image_hash(&outcome.output);
        SimResponse::Done(Box::new(DoneResponse {
            workload: req.workload.clone(),
            fingerprint: req.fingerprint(),
            cycles: outcome.report.cycles,
            issued: outcome.report.stats.issued,
            energy_pj: outcome.report.energy.total_pj(),
            report: outcome.report,
            output: outcome.output,
            output_hash,
            fidelity: outcome.fidelity,
        }))
    }

    /// Maps a session error: cycle-budget exhaustion degrades to
    /// [`SimResponse::Timeout`], anything else is a request error.
    pub fn from_error(e: SessionError) -> Self {
        match e {
            SessionError::Timeout(t) => SimResponse::Timeout(TimeoutKind::CycleBudget {
                max_cycles: t.max_cycles,
                stuck_vaults: t.stuck_vaults.len(),
            }),
            other => SimResponse::Error(other.to_string()),
        }
    }

    /// The wire form: one JSON object per response. `Done` sends the
    /// summary, the output hash, the report hash and the request
    /// fingerprint, not the pixels — the hashes are the determinism
    /// witnesses (sharded-vs-serial bit-identity is asserted over them),
    /// and megapixel payloads don't belong on an ndjson control channel.
    pub fn to_json_string(&self) -> String {
        match self {
            SimResponse::Done(d) => {
                // Bit-exact responses keep their historical fields
                // (recorded output hashes stay valid); only predictions
                // carry the fidelity marker.
                let fidelity = match d.fidelity {
                    Fidelity::BitExact => String::new(),
                    f => format!(",\"fidelity\":\"{}\"", f.name()),
                };
                format!(
                    "{{\"status\":\"done\",\"workload\":\"{}\",\"cycles\":{},\"issued\":{},\
                     \"energy_pj\":{:?},\"output_width\":{},\"output_height\":{},\
                     \"output_hash\":\"{:016x}\",\"report_hash\":\"{:016x}\",\
                     \"fingerprint\":\"{:016x}\"{fidelity}}}",
                    json::escape(&d.workload),
                    d.cycles,
                    d.issued,
                    d.energy_pj,
                    d.output.width(),
                    d.output.height(),
                    d.output_hash,
                    report_hash(&d.report),
                    d.fingerprint,
                )
            }
            SimResponse::Timeout(TimeoutKind::DeadlineBeforeStart) => {
                "{\"status\":\"timeout\",\"reason\":\"deadline\"}".to_string()
            }
            SimResponse::Timeout(TimeoutKind::CycleBudget { max_cycles, stuck_vaults }) => format!(
                "{{\"status\":\"timeout\",\"reason\":\"cycle_budget\",\"max_cycles\":{max_cycles},\
                 \"stuck_vaults\":{stuck_vaults}}}"
            ),
            SimResponse::Error(msg) => {
                format!("{{\"status\":\"error\",\"message\":\"{}\"}}", json::escape(msg))
            }
        }
    }

    /// Whether this is a `Done` response.
    pub fn is_done(&self) -> bool {
        matches!(self, SimResponse::Done(_))
    }

    /// Whether this is a `Timeout` response.
    pub fn is_timeout(&self) -> bool {
        matches!(self, SimResponse::Timeout(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_hash_tracks_content() {
        let a = Image::gradient(8, 8);
        let mut b = a.clone();
        assert_eq!(image_hash(&a), image_hash(&b));
        let v = b.get(3, 3);
        b.set(3, 3, v + 1.0);
        assert_ne!(image_hash(&a), image_hash(&b));
    }

    #[test]
    fn wire_forms_are_valid_json() {
        let timeout =
            SimResponse::Timeout(TimeoutKind::CycleBudget { max_cycles: 100, stuck_vaults: 2 });
        let v = json::parse(&timeout.to_json_string()).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("timeout"));
        assert_eq!(v.get("stuck_vaults").unwrap().as_f64(), Some(2.0));

        let err = SimResponse::Error("no such \"kernel\"".into());
        let v = json::parse(&err.to_json_string()).unwrap();
        assert_eq!(v.get("message").unwrap().as_str(), Some("no such \"kernel\""));
        assert!(!err.is_done() && !err.is_timeout());
    }

    #[test]
    fn report_hash_tracks_report_content() {
        let mut a = ExecutionReport {
            cycles: 10,
            stats: Default::default(),
            bank_stats: Default::default(),
            locality: Default::default(),
            energy: Default::default(),
            vaults: 1,
            pes: 32,
        };
        let h = report_hash(&a);
        assert_eq!(h, report_hash(&a.clone()), "hash is a pure function of the report");
        a.cycles += 1;
        assert_ne!(h, report_hash(&a), "any counter change must change the hash");
    }

    #[test]
    fn done_wire_carries_the_identity_witnesses() {
        let done = SimResponse::Done(Box::new(DoneResponse {
            workload: "T".into(),
            fingerprint: 0xabcd,
            cycles: 1,
            issued: 1,
            energy_pj: 1.0,
            report: ExecutionReport {
                cycles: 1,
                stats: Default::default(),
                bank_stats: Default::default(),
                locality: Default::default(),
                energy: Default::default(),
                vaults: 1,
                pes: 32,
            },
            output: Image::splat(1, 1, 0.0),
            output_hash: 0x1234,
            fidelity: Fidelity::BitExact,
        }));
        let v = json::parse(&done.to_json_string()).unwrap();
        assert_eq!(v.get("fingerprint").unwrap().as_str(), Some("000000000000abcd"));
        assert_eq!(v.get("output_hash").unwrap().as_str(), Some("0000000000001234"));
        assert!(v.get("report_hash").unwrap().as_str().is_some());
    }

    #[test]
    fn fidelity_marker_only_on_predictions() {
        let done = |fidelity| {
            SimResponse::Done(Box::new(DoneResponse {
                workload: "T".into(),
                fingerprint: 0xfeed,
                cycles: 1,
                issued: 1,
                energy_pj: 1.0,
                report: ExecutionReport {
                    cycles: 1,
                    stats: Default::default(),
                    bank_stats: Default::default(),
                    locality: Default::default(),
                    energy: Default::default(),
                    vaults: 1,
                    pes: 32,
                },
                output: Image::splat(1, 1, 0.0),
                output_hash: 0,
                fidelity,
            }))
        };
        // Bit-exact responses keep the historical wire shape...
        let exact = done(Fidelity::BitExact).to_json_string();
        assert!(!exact.contains("fidelity"), "unexpected marker: {exact}");
        // ...and predictions are unmistakably marked.
        let v = json::parse(&done(Fidelity::Approximate).to_json_string()).unwrap();
        assert_eq!(v.get("fidelity").unwrap().as_str(), Some("approximate"));
    }
}
