//! Backend failure mid-wave: every job still completes — rerouted via
//! retry onto the survivors — and the answers stay bit-identical to a
//! serial run. Simulation determinism is what makes this assertable: a
//! job that ran twice (once lost with its backend, once on a survivor)
//! produces the same bits either way.

mod common;

use common::{assert_nothing_in_flight, spawn_backend};
use ipim_serve::{PoolConfig, ServePool, SimRequest};
use ipim_shard::{HashRing, RetryPolicy, ShardConfig, ShardRouter};

#[test]
fn backend_killed_mid_wave_loses_no_jobs() {
    let mut backends: Vec<_> = (0..3).map(|_| spawn_backend(1, 64)).collect();
    let addrs: Vec<String> = backends.iter().map(|b| b.addr.clone()).collect();
    let config = ShardConfig {
        retry: RetryPolicy { max_attempts: 6, backoff_ms: 5, jitter_ms: 2 },
        probe_ms: 20,
        queue_depth: 64,
        ..ShardConfig::over(addrs)
    };
    let ring = HashRing::new(3, config.replicas);
    let router = ShardRouter::start(&config);

    // A wave of distinct jobs; `victim` is whichever backend owns the
    // most of them, so killing it is guaranteed to strand routed work.
    let jobs: Vec<SimRequest> = ["Brighten", "Blur", "Shift", "Histogram"]
        .into_iter()
        .flat_map(|w| {
            [(64, 32), (96, 64), (128, 64), (64, 96)].map(|(x, y)| SimRequest::named(w, x, y))
        })
        .collect();
    let mut owned = [0usize; 3];
    for j in &jobs {
        owned[ring.owner(j.fingerprint())] += 1;
    }
    let victim = (0..3).max_by_key(|&b| owned[b]).unwrap();
    assert!(owned[victim] > 0, "victim must own part of the wave: {owned:?}");

    // Submit the first half, crash the victim mid-wave, submit the rest.
    let half = jobs.len() / 2;
    let mut tickets: Vec<_> = jobs[..half].iter().map(|j| router.submit(j.clone())).collect();
    backends[victim].kill();
    tickets.extend(jobs[half..].iter().map(|j| router.submit(j.clone())));

    let sharded: Vec<String> = tickets.into_iter().map(|t| t.wait()).collect();
    let metrics = router.shutdown();

    for (i, line) in sharded.iter().enumerate() {
        assert!(
            line.contains("\"status\":\"done\""),
            "job {i} did not survive the backend crash: {line}"
        );
    }
    assert_eq!(metrics.counter("shard/completed"), jobs.len() as u64);
    assert_eq!(metrics.counter("shard/errors"), 0, "no job may exhaust its retry budget");
    assert!(metrics.counter("shard/ejections") >= 1, "the crashed backend must have been ejected");
    assert_eq!(metrics.counter("shard/fingerprint_mismatches"), 0);
    // The stranded jobs were charged to the victim and bounced: the
    // bounce released those charges, their retries charged a survivor.
    assert_nothing_in_flight(&metrics, 3);

    // Bit-identity with a serial run survives the failover.
    let serial_pool =
        ServePool::start(&PoolConfig { workers: 1, queue_depth: 64, cache_capacity: 64 });
    let serial: Vec<String> =
        jobs.iter().map(|r| serial_pool.submit(r.clone()).wait().to_json_string()).collect();
    serial_pool.shutdown();
    assert_eq!(sharded, serial, "failover must not change a single answered bit");
}
