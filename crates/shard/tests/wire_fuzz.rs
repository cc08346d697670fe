//! Malformed-wire robustness, property-tested with the `simkit` harness:
//! garbage and truncated ndjson must be answered **in-band** — one error
//! line per input line — the backend must never die, and the shard front
//! must never dispatch (or retry) a line that failed to parse: parse
//! failures are not idempotent work, they are answers.

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use common::spawn_backend;
use ipim_serve::server::serve_stream;
use ipim_serve::SimRequest;
use ipim_shard::{ShardConfig, ShardRouter};
use ipim_simkit::prop::{check_with, Config, Gen};

/// Printable-ASCII garbage: newline-free so one payload stays one line,
/// whitespace-free so the protocol's blank-line skip doesn't apply.
fn gen_garbage() -> Gen<String> {
    Gen::from_fn(|rng| {
        let len = 1 + (rng.next_u64() % 40) as usize;
        (0..len).map(|_| char::from(33 + (rng.next_u64() % 94) as u8)).collect()
    })
}

/// A strict prefix of a valid request line — a truncated write.
fn gen_truncated() -> Gen<String> {
    Gen::from_fn(|rng| {
        let full =
            SimRequest::named(["Brighten", "Blur", "Shift"][(rng.next_u64() % 3) as usize], 32, 32)
                .to_json_string();
        let cut = 1 + (rng.next_u64() as usize % (full.len() - 1));
        full[..cut].to_string()
    })
}

/// Sends `line` plus one valid request over a fresh connection; returns
/// both response lines. The second response proves the backend survived
/// whatever the first line was; the read timeout turns a dead worker,
/// which would never answer, into a failure instead of a hang.
fn round_trip_pair(addr: &str, line: &str) -> (String, String) {
    let stream = TcpStream::connect(addr).expect("backend reachable");
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut write_half = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    write_half.write_all(line.as_bytes()).unwrap();
    write_half.write_all(b"\n{\"workload\":\"Brighten\",\"width\":64,\"height\":64}\n").unwrap();
    write_half.shutdown(Shutdown::Write).unwrap();
    let mut first = String::new();
    reader.read_line(&mut first).unwrap();
    let mut second = String::new();
    reader.read_line(&mut second).unwrap();
    (first, second)
}

#[test]
fn prop_backend_answers_garbage_inband_and_survives() {
    let backend = spawn_backend(1, 16);
    let cfg = Config { cases: 12, ..Config::default() };
    check_with(cfg, "backend_answers_garbage_inband", &gen_garbage(), |payload| {
        let (first, second) = round_trip_pair(&backend.addr, payload);
        if SimRequest::from_json_str(payload).is_err() {
            assert!(first.contains("\"status\":\"error\""), "payload {payload:?} → {first}");
        }
        assert!(second.contains("\"status\":\"done\""), "backend died after {payload:?}: {second}");
    });
}

#[test]
fn prop_backend_answers_truncated_requests_inband() {
    let backend = spawn_backend(1, 16);
    let cfg = Config { cases: 12, ..Config::default() };
    check_with(cfg, "backend_answers_truncated_inband", &gen_truncated(), |payload| {
        let (first, second) = round_trip_pair(&backend.addr, payload);
        assert!(
            SimRequest::from_json_str(payload).is_err(),
            "a strict prefix must not parse: {payload:?}"
        );
        assert!(first.contains("\"status\":\"error\""), "payload {payload:?} → {first}");
        assert!(second.contains("\"status\":\"done\""), "backend died after {payload:?}: {second}");
    });
}

#[test]
fn prop_shard_front_answers_garbage_without_dispatching() {
    let backend = spawn_backend(1, 16);
    let router = ShardRouter::start(&ShardConfig::over(vec![backend.addr.clone()]));
    let cfg = Config { cases: 12, ..Config::default() };
    check_with(cfg, "shard_front_never_dispatches_garbage", &gen_garbage(), |payload| {
        if SimRequest::from_json_str(payload).is_ok() {
            return; // astronomically unlikely, but then it's a real request
        }
        let before = router.metrics().counter("shard/submitted");
        let input = format!("{payload}\n");
        let mut out = Vec::new();
        serve_stream(input.as_bytes(), &mut out, &router).unwrap();
        let reply = String::from_utf8(out).unwrap();
        assert!(reply.contains("\"status\":\"error\""), "{payload:?} → {reply}");
        assert_eq!(
            router.metrics().counter("shard/submitted"),
            before,
            "a parse failure must be answered at the front, never dispatched"
        );
    });
    router.shutdown();
}

#[test]
fn extreme_sizes_are_answered_inband_and_the_worker_survives() {
    // Well-formed but out of range: a side past u32::MAX must not wrap to
    // a small image, a side below 2 leaves Upsample's half-size input
    // without pixels, and a machine past Table III's or an image past
    // DIV8K's pixel count would exhaust the backend's memory. The valid
    // request behind each line proves the backend's only worker is still
    // alive.
    let backend = spawn_backend(1, 16);
    for (line, expect) in [
        (r#"{"workload":"Brighten","width":4294967360,"height":64}"#, "width must be at most"),
        (r#"{"workload":"Brighten","width":64,"height":4294967360}"#, "height must be at most"),
        (r#"{"workload":"Upsample","width":64,"height":1}"#, "too small"),
        (r#"{"workload":"Brighten","width":1,"height":64}"#, "too small"),
        (r#"{"workload":"Brighten","width":0,"height":0}"#, "too small"),
        (r#"{"workload":"Brighten","width":65536,"height":65536}"#, "at most 33177600 pixels"),
        (r#"{"workload":"Brighten","cubes":9}"#, "cubes must be at most 8"),
        (r#"{"workload":"Brighten","vaults":4294967296}"#, "vaults must be at most 16"),
    ] {
        let (first, second) = round_trip_pair(&backend.addr, line);
        assert!(
            first.contains("\"status\":\"error\"") && first.contains(expect),
            "{line} → {first}"
        );
        assert!(second.contains("\"status\":\"done\""), "backend died after {line}: {second}");
    }
}

#[test]
fn inband_backend_errors_are_final_never_retried() {
    let backend = spawn_backend(1, 16);
    let router = ShardRouter::start(&ShardConfig::over(vec![backend.addr.clone()]));
    // An unknown workload parses fine but fails on the backend — the
    // in-band error line is the answer, not grounds for a retry.
    let line = router.submit(SimRequest::named("NoSuchKernel", 16, 16)).wait();
    assert!(line.contains("\"status\":\"error\""), "{line}");
    let metrics = router.shutdown();
    assert_eq!(metrics.counter("shard/backend_errors"), 1);
    assert_eq!(metrics.counter("shard/retries"), 0, "arrived lines are final");
    assert_eq!(
        backend.pool.metrics().counter("serve/pool/errors"),
        1,
        "the backend served the failing job exactly once"
    );
}
