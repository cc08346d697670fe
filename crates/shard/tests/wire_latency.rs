//! Wire latency: a request the backend already has cached costs a round
//! trip of wire work, not a TCP timer. Writing a response line and its
//! newline as two segments lets Nagle hold the newline until the router's
//! delayed ACK fires (~40 ms on Linux), so 50 cached requests took over
//! 2 s; framed as one write per line over `TCP_NODELAY` links they take
//! milliseconds.

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ipim_serve::server::serve_tcp;
use ipim_serve::{PoolConfig, ServePool, SimRequest};
use ipim_shard::{ShardConfig, ShardRouter};

#[test]
fn cached_requests_through_the_router_are_not_held_by_a_tcp_timer() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind backend");
    let addr = listener.local_addr().expect("local addr").to_string();
    let serving = listener.try_clone().expect("clone listener");
    let pool =
        Arc::new(ServePool::start(&PoolConfig { workers: 1, queue_depth: 4, cache_capacity: 4 }));
    let server = {
        let pool = pool.clone();
        std::thread::spawn(move || serve_tcp(&serving, &*pool, true))
    };
    let router = ShardRouter::start(&ShardConfig::over(vec![addr.clone()]));

    // The cold run compiles and simulates; it is not timed.
    let req = SimRequest::named("Brighten", 64, 32);
    let cold = router.submit(req.clone()).wait();
    assert!(cold.contains("\"status\":\"done\""), "{cold}");
    let started = Instant::now();
    for i in 0..50 {
        assert_eq!(router.submit(req.clone()).wait(), cold, "cached request {i}");
    }
    let elapsed = started.elapsed();
    router.shutdown();

    // `serve_tcp` returns once an accept fails: make the listener
    // non-blocking and wake the accept it is blocked in.
    listener.set_nonblocking(true).expect("non-blocking listener");
    drop(TcpStream::connect(&addr));
    let _ = server.join().expect("backend server panicked");

    assert_eq!(pool.metrics().counter("serve/cache/hits"), 50);
    assert!(
        elapsed < Duration::from_secs(1),
        "50 cached requests took {elapsed:?}: responses are waiting on a TCP timer"
    );
}
