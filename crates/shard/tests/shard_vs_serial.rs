//! The shard tier's determinism bar: a sharded run over N real-TCP
//! backends answers **bit-identically** to the same job list run serially
//! on one local pool — same wire lines, hence same output hashes, report
//! hashes and cache fingerprints. This is what makes the distributed tier
//! semantically invisible: only throughput changes.

mod common;

use common::{assert_nothing_in_flight, spawn_backend};
use ipim_serve::{PoolConfig, ServePool, SimRequest};
use ipim_shard::{HashRing, ShardConfig, ShardRouter};

/// One serial 1-worker pool's answers to `jobs`, in order.
fn serial_lines(jobs: &[SimRequest]) -> Vec<String> {
    let pool = ServePool::start(&PoolConfig { workers: 1, queue_depth: 64, cache_capacity: 32 });
    let lines = jobs.iter().map(|r| pool.submit(r.clone()).wait().to_json_string()).collect();
    pool.shutdown();
    lines
}

/// A mixed, deterministic job list: several workloads and sizes,
/// duplicates (cache-hit path), a multi-cube job (inter-cube tiling over
/// SERDES) and an unknown workload (in-band error path).
fn job_list() -> Vec<SimRequest> {
    let mut jobs = vec![
        SimRequest::named("Brighten", 64, 32),
        SimRequest::named("Blur", 96, 64),
        SimRequest::named("Shift", 64, 64),
        SimRequest::named("Histogram", 64, 64),
        SimRequest::named("Brighten", 64, 64),
        SimRequest::named("Blur", 64, 96),
        SimRequest { cubes: 2, ..SimRequest::named("Brighten", 128, 128) },
        SimRequest::named("NoSuchKernel", 16, 16),
    ];
    // Duplicates. `run_all` submits every job before waiting, so a repeat
    // may find its owner busy and land on its second choice; either
    // backend answers it bit-identically (a cache hit or a fresh run).
    jobs.push(jobs[0].clone());
    jobs.push(jobs[3].clone());
    jobs.push(jobs[6].clone());
    jobs
}

#[test]
fn sharded_run_is_bit_identical_to_serial() {
    let backends: Vec<_> = (0..3).map(|_| spawn_backend(1, 32)).collect();
    let addrs: Vec<String> = backends.iter().map(|b| b.addr.clone()).collect();
    let router = ShardRouter::start(&ShardConfig::over(addrs));

    let jobs = job_list();
    let sharded = router.run_all(jobs.clone());
    let metrics = router.shutdown();

    // Serial reference: one pool, one worker, same jobs, same order.
    let serial = serial_lines(&jobs);

    assert_eq!(sharded.len(), serial.len());
    for (i, (s, r)) in sharded.iter().zip(&serial).enumerate() {
        assert_eq!(s, r, "job {i} ({}) diverged between sharded and serial", jobs[i].workload);
    }

    // Every response arrived exactly once and every backend derived the
    // same cache key we routed on.
    assert_eq!(metrics.counter("shard/submitted"), jobs.len() as u64);
    assert_eq!(
        metrics.counter("shard/completed") + metrics.counter("shard/backend_errors"),
        jobs.len() as u64
    );
    assert_eq!(metrics.counter("shard/fingerprint_mismatches"), 0);
    assert_eq!(metrics.counter("shard/errors"), 0, "no job may be lost to front errors");
    assert_nothing_in_flight(&metrics, 3);
}

#[test]
fn duplicates_route_to_the_same_backend_and_hit_its_cache() {
    let backends: Vec<_> = (0..3).map(|_| spawn_backend(1, 32)).collect();
    let addrs: Vec<String> = backends.iter().map(|b| b.addr.clone()).collect();
    let config = ShardConfig::over(addrs);
    let ring = HashRing::new(3, config.replicas);
    let router = ShardRouter::start(&config);

    let req = SimRequest::named("Brighten", 64, 64);
    let owner = ring.owner(req.fingerprint());
    let first = router.submit(req.clone()).wait();
    let second = router.submit(req.clone()).wait();
    assert_eq!(first, second, "a cache hit must be bit-identical to the cold run");
    let metrics = router.shutdown();
    assert_eq!(
        metrics.counter(&format!("shard/backend{owner}/answered")),
        2,
        "both submissions must land on the ring owner"
    );
    assert_eq!(backends[owner].pool.metrics().counter("serve/cache/hits"), 1);
}

#[test]
fn busy_owner_spills_to_the_second_choice() {
    let backends: Vec<_> = (0..2).map(|_| spawn_backend(1, 32)).collect();
    let addrs: Vec<String> = backends.iter().map(|b| b.addr.clone()).collect();
    let config = ShardConfig::over(addrs);
    let ring = HashRing::new(2, config.replicas);
    let router = ShardRouter::start(&config);

    // A job of tens of milliseconds, then a distinct job with the same
    // ring owner (a cycle budget that never binds picks the fingerprint).
    let slow = SimRequest::named("Gemm", 32, 32);
    let owner = ring.owner(slow.fingerprint());
    let quick = (0..)
        .map(|i| SimRequest {
            max_cycles: 1_000_000_000 + i,
            ..SimRequest::named("Brighten", 64, 32)
        })
        .find(|r| ring.owner(r.fingerprint()) == owner)
        .expect("some budget shares the owner");

    // Back to back: the slow job is still in flight on the owner when the
    // quick one is routed, so the idle second choice takes it.
    let tickets = [router.submit(slow.clone()), router.submit(quick.clone())];
    let sharded: Vec<String> = tickets.into_iter().map(|t| t.wait()).collect();
    let metrics = router.shutdown();

    assert_eq!(sharded, serial_lines(&[slow, quick]), "spilling must not change an answer");
    assert_eq!(metrics.counter("shard/spills"), 1);
    for b in 0..2 {
        assert_eq!(metrics.counter(&format!("shard/backend{b}/answered")), 1, "backend {b}");
    }
    assert_nothing_in_flight(&metrics, 2);
}

#[test]
fn deadline_expired_in_a_backend_queue_is_shed_at_the_link() {
    let backend = spawn_backend(1, 32);
    let config = ShardConfig { window: 1, ..ShardConfig::over(vec![backend.addr.clone()]) };
    let router = ShardRouter::start(&config);

    // With a window of 1 the slow job holds the connection's only slot
    // and the link thread holds the second job; the third waits in the
    // backend queue past its deadline, so the link sheds it when it pops.
    // The slow job must outlast that deadline by a margin on a fast host.
    let slow = SimRequest::named("Gemm", 64, 64);
    let queued = SimRequest { deadline_ms: Some(5), ..SimRequest::named("Brighten", 64, 32) };
    let tickets = [router.submit(slow.clone()), router.submit(slow), router.submit(queued)];
    let lines: Vec<String> = tickets.into_iter().map(|t| t.wait()).collect();
    let metrics = router.shutdown();

    assert!(lines[2].contains("\"status\":\"timeout\""), "{}", lines[2]);
    assert!(lines[2].contains("deadline"), "{}", lines[2]);
    assert_eq!(metrics.counter("shard/shed"), 1);
    assert_eq!(metrics.counter("shard/backend0/dispatched"), 3, "shed after dispatch");
    assert_eq!(metrics.counter("shard/backend0/answered"), 2);
    assert_nothing_in_flight(&metrics, 1);
}
