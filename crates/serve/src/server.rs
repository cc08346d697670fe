//! Newline-delimited-JSON request/response serving.
//!
//! The wire protocol is one JSON object per line: each line of the input is
//! parsed as a [`SimRequest`], submitted to the pool, and answered with one
//! [`SimResponse`] line in the same order. A malformed line yields an
//! `{"status":"error",...}` line rather than killing the stream — the
//! client's line *n* always pairs with response line *n*.
//!
//! Two pacing modes share that framing:
//!
//! * **batch** ([`serve_batch`]) — read until EOF, then answer. Right for
//!   shell pipelines, where the input ends before anyone reads output.
//! * **stream** ([`serve_stream`]) — a reader thread keeps admitting lines
//!   while the writer flushes each response the moment it (and all its
//!   predecessors) resolve. Right for long-lived TCP connections, where a
//!   client pipelines requests and consumes answers as they land.
//!
//! The same functions serve both transports the `ipim_served` binary
//! offers: stdin/stdout (shell pipelines, test harnesses) and a
//! `std::net::TcpListener` accept loop (one batch/stream per connection).
//!
//! Each response line reaches the transport in **one** write, newline
//! included, and [`serve_tcp`] sets `TCP_NODELAY` on every connection.
//! Writing the line and its `\n` separately sends two TCP segments: Nagle
//! holds the second until the peer ACKs the first, and a peer that delays
//! its ACK (~40 ms on Linux) stalls every response by that much.
//!
//! Both pacing modes are generic over a [`LineService`]: anything that
//! admits a parsed request and eventually resolves it to one response
//! line. [`ServePool`] is the local implementation; the `ipim-shard`
//! front tier implements the same trait over a fleet of TCP backends, so
//! the wire framing, ordering guarantee and in-band error handling are
//! written exactly once.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::mpsc;

use crate::pool::{ServePool, Ticket};
use crate::request::SimRequest;
use crate::response::SimResponse;

/// A handle to one admitted request's eventually-resolved response line.
pub trait PendingLine: Send {
    /// Blocks until the response is ready and returns its ndjson line
    /// (no trailing newline).
    fn into_line(self) -> String;
}

/// Anything that can stand behind the ndjson protocol: admits parsed
/// requests (blocking for backpressure) and answers each with exactly one
/// response line. Implementations must tolerate any request — protocol
/// problems are reported in-band by the returned line, never by panicking.
pub trait LineService: Sync {
    /// The pending-response handle [`dispatch`](Self::dispatch) returns.
    type Pending: PendingLine;
    /// Admits one request, returning a handle to its eventual response.
    fn dispatch(&self, req: SimRequest) -> Self::Pending;
}

impl PendingLine for Ticket {
    fn into_line(self) -> String {
        self.wait().to_json_string()
    }
}

impl LineService for ServePool {
    type Pending = Ticket;

    fn dispatch(&self, req: SimRequest) -> Ticket {
        self.submit(req)
    }
}

/// What one served batch did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Request lines read (blank lines are skipped, not counted).
    pub requests: usize,
    /// Lines that failed to parse into a request.
    pub parse_errors: usize,
}

/// Serves one batch: reads request lines until EOF, fans them out across
/// `pool`, then writes response lines in request order.
///
/// Submission happens while reading — the pool's bounded queue provides the
/// backpressure — so a batch larger than the queue depth streams through
/// the workers rather than being buffered whole.
///
/// # Errors
///
/// Propagates I/O errors from the transport; protocol-level problems
/// (malformed JSON, unknown workloads) are reported in-band.
pub fn serve_batch<R: BufRead, W: Write, S: LineService>(
    input: R,
    mut output: W,
    service: &S,
) -> std::io::Result<ServeSummary> {
    let mut summary = ServeSummary::default();
    // A pending response per line, Err carrying the in-band parse failure.
    let mut pending: Vec<Result<S::Pending, String>> = Vec::new();
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        summary.requests += 1;
        match SimRequest::from_json_str(&line) {
            Ok(req) => pending.push(Ok(service.dispatch(req))),
            Err(msg) => {
                summary.parse_errors += 1;
                pending.push(Err(msg));
            }
        }
    }
    for entry in pending {
        let line = match entry {
            Ok(p) => p.into_line(),
            Err(msg) => SimResponse::Error(format!("bad request: {msg}")).to_json_string(),
        };
        write_line(&mut output, line)?;
    }
    output.flush()?;
    Ok(summary)
}

/// Serves one connection in streaming mode: a reader thread parses and
/// submits request lines as they arrive, while this thread writes each
/// response line **as soon as it completes**, flushing per line. Response
/// order still matches request order — streaming changes *when* line *n*
/// is written (the moment jobs 1..=n have all resolved), never which line
/// pairs with which.
///
/// This is the long-lived-connection mode: a client that pipelines K
/// requests starts consuming answers while later requests are still being
/// produced, instead of waiting for its own EOF as in [`serve_batch`].
///
/// # Errors
///
/// Propagates I/O errors from the transport; protocol-level problems are
/// reported in-band, exactly as in batch mode.
pub fn serve_stream<R, W, S>(input: R, mut output: W, service: &S) -> std::io::Result<ServeSummary>
where
    R: BufRead + Send,
    W: Write,
    S: LineService,
{
    std::thread::scope(|scope| {
        // The reader owns admission; the channel carries pending responses
        // (or in-band parse failures) in request order. Bounded-ness comes
        // from the service itself: `dispatch` blocks when it is full.
        let (tx, rx) = mpsc::channel::<std::io::Result<Result<S::Pending, String>>>();
        scope.spawn(move || {
            for line in input.lines() {
                let entry = match line {
                    Ok(l) if l.trim().is_empty() => continue,
                    Ok(l) => Ok(SimRequest::from_json_str(&l).map(|req| service.dispatch(req))),
                    Err(e) => Err(e),
                };
                if tx.send(entry).is_err() {
                    return; // writer hit an I/O error and hung up
                }
            }
        });
        let mut summary = ServeSummary::default();
        for entry in rx {
            summary.requests += 1;
            let line = match entry? {
                Ok(p) => p.into_line(),
                Err(msg) => {
                    summary.parse_errors += 1;
                    SimResponse::Error(format!("bad request: {msg}")).to_json_string()
                }
            };
            write_line(&mut output, line)?;
            // The per-response flush is the whole point of this mode.
            output.flush()?;
        }
        Ok(summary)
    })
}

/// Hands one response line and its newline to the transport in a single
/// write (see the module docs for the stall two writes cause on TCP).
fn write_line<W: Write>(output: &mut W, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    output.write_all(line.as_bytes())
}

/// Accepts TCP connections forever, serving each as one ndjson batch — or,
/// with `streaming`, in per-response-flush [`serve_stream`] mode (the
/// client half-closes its write side to mark end-of-input either way).
/// Every accepted connection gets `TCP_NODELAY`: a client pipelining
/// several requests must not see response *n*+1 held back until response
/// *n* is acknowledged. A connection that fails or carries unparseable
/// lines is logged to stderr ([`connection_note`]); a clean one is not.
/// Neither stops the accept loop.
///
/// # Errors
///
/// Returns only listener-level failures (e.g. the socket was closed).
pub fn serve_tcp<S: LineService>(
    listener: &TcpListener,
    service: &S,
    streaming: bool,
) -> std::io::Result<()> {
    for stream in listener.incoming() {
        let stream = stream?;
        let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "?".into());
        let served = stream.set_nodelay(true).and_then(|()| {
            let reader = BufReader::new(stream.try_clone()?);
            if streaming {
                serve_stream(reader, &stream, service)
            } else {
                serve_batch(reader, &stream, service)
            }
        });
        if let Some(note) = connection_note(&peer, &served) {
            eprintln!("{note}");
        }
    }
    Ok(())
}

/// The stderr line a closed connection earns: none for a clean one, a
/// `serve_tcp:` note for one that failed or carried unparseable lines.
fn connection_note(peer: &str, served: &std::io::Result<ServeSummary>) -> Option<String> {
    match served {
        Ok(s) if s.parse_errors == 0 => None,
        Ok(s) => Some(format!(
            "serve_tcp: {peer}: {} of {} request line(s) did not parse",
            s.parse_errors, s.requests
        )),
        Err(e) => Some(format!("serve_tcp: {peer}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use ipim_trace::json;

    #[test]
    fn batch_answers_in_request_order_with_inband_errors() {
        let pool = ServePool::start(&PoolConfig { workers: 2, queue_depth: 8, cache_capacity: 8 });
        let input = "\
{\"workload\":\"Brighten\"}\n\
\n\
this is not json\n\
{\"workload\":\"Shift\",\"width\":64,\"height\":64}\n";
        let mut out = Vec::new();
        let summary = serve_batch(input.as_bytes(), &mut out, &pool).unwrap();
        assert_eq!(summary, ServeSummary { requests: 3, parse_errors: 1 });
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().trim().lines().collect();
        assert_eq!(lines.len(), 3, "one response line per request line");
        let statuses: Vec<String> = lines
            .iter()
            .map(|l| json::parse(l).unwrap().get("status").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(statuses, ["done", "error", "done"]);
        let first = json::parse(lines[0]).unwrap();
        assert_eq!(first.get("workload").unwrap().as_str(), Some("Brighten"));
        pool.shutdown();
    }

    #[test]
    fn stream_mode_answers_before_eof() {
        use std::io::{BufRead as _, Write as _};
        use std::net::{Shutdown, TcpStream};

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let pool =
                ServePool::start(&PoolConfig { workers: 1, queue_depth: 4, cache_capacity: 4 });
            let (stream, _) = listener.accept().unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            let summary = serve_stream(reader, &stream, &pool).unwrap();
            pool.shutdown();
            summary
        });
        let client = TcpStream::connect(addr).unwrap();
        let mut write_half = client.try_clone().unwrap();
        let mut reader = BufReader::new(client);
        // Request → response, twice, WITHOUT closing the write side in
        // between: only the per-response flush makes the first read return.
        for (line, expect) in [
            ("{\"workload\":\"Brighten\"}\n", "\"status\":\"done\""),
            ("not json\n", "\"status\":\"error\""),
        ] {
            write_half.write_all(line.as_bytes()).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            assert!(reply.contains(expect), "{reply}");
        }
        write_half.shutdown(Shutdown::Write).unwrap();
        let summary = server.join().unwrap();
        assert_eq!(summary, ServeSummary { requests: 2, parse_errors: 1 });
    }

    #[test]
    fn stream_and_batch_agree_on_responses() {
        let pool = ServePool::start(&PoolConfig { workers: 2, queue_depth: 8, cache_capacity: 8 });
        let input = "{\"workload\":\"Brighten\"}\nbad\n{\"workload\":\"Shift\"}\n";
        let mut batch_out = Vec::new();
        serve_batch(input.as_bytes(), &mut batch_out, &pool).unwrap();
        let mut stream_out = Vec::new();
        serve_stream(input.as_bytes(), &mut stream_out, &pool).unwrap();
        assert_eq!(
            std::str::from_utf8(&batch_out).unwrap(),
            std::str::from_utf8(&stream_out).unwrap(),
            "pacing must not change the answers"
        );
        pool.shutdown();
    }

    /// A transport that records every `write` call it is handed.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_line_reaches_the_transport_in_one_write() {
        // A line and its newline in two writes become two TCP segments,
        // and Nagle holds the second for the peer's delayed ACK.
        let pool = ServePool::start(&PoolConfig { workers: 1, queue_depth: 4, cache_capacity: 4 });
        let input = "{\"workload\":\"Brighten\"}\nnot json\n{\"workload\":\"Shift\"}\n";
        let mut batch = CountingWriter::default();
        serve_batch(input.as_bytes(), &mut batch, &pool).unwrap();
        let mut stream = CountingWriter::default();
        serve_stream(input.as_bytes(), &mut stream, &pool).unwrap();
        for (mode, out) in [("batch", batch), ("stream", stream)] {
            assert_eq!(out.writes.len(), 3, "{mode}: one write per response line");
            for w in &out.writes {
                assert_eq!(w.iter().filter(|&&b| b == b'\n').count(), 1, "{mode}: {w:?}");
                assert_eq!(w.last(), Some(&b'\n'), "{mode}: the write must end the line");
            }
        }
        pool.shutdown();
    }

    #[test]
    fn only_failed_or_malformed_connections_are_logged() {
        let summary = |parse_errors| Ok(ServeSummary { requests: 3, parse_errors });
        assert_eq!(connection_note("peer", &summary(0)), None);
        assert_eq!(
            connection_note("peer", &summary(1)).as_deref(),
            Some("serve_tcp: peer: 1 of 3 request line(s) did not parse")
        );
        let failed = Err(std::io::Error::other("reset"));
        assert_eq!(connection_note("peer", &failed).as_deref(), Some("serve_tcp: peer: reset"));
    }

    #[test]
    fn tcp_round_trip() {
        use std::io::{Read, Write as _};
        use std::net::{Shutdown, TcpStream};

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let pool =
                ServePool::start(&PoolConfig { workers: 1, queue_depth: 4, cache_capacity: 4 });
            // Serve exactly one connection, then stop.
            let (stream, _) = listener.accept().unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            serve_batch(reader, &stream, &pool).unwrap();
            pool.shutdown();
        });
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(b"{\"workload\":\"Brighten\"}\n").unwrap();
        client.shutdown(Shutdown::Write).unwrap();
        let mut reply = String::new();
        client.read_to_string(&mut reply).unwrap();
        assert!(reply.contains("\"status\":\"done\""), "{reply}");
        server.join().unwrap();
    }
}
