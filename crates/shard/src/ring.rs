//! Consistent-hash ring over backend indices.
//!
//! Each backend contributes `replicas` points at
//! `fnv1a("shard:{backend}:{replica}")`; a request's
//! [`fingerprint`](ipim_serve::SimRequest::fingerprint) routes to the first
//! point clockwise from its own position (its *owner*); the next distinct
//! backend clockwise is its *second choice*. Two properties fall out of
//! this construction and are what the shard tier leans on:
//!
//! * **Determinism** — the ring, and both choices for every fingerprint,
//!   are pure functions of (backend count, replicas), so every shard front
//!   with the same config offers every job the same two backends. Which of
//!   the two serves it depends on their in-flight counts at dispatch; the
//!   answer does not, because simulation is deterministic.
//! * **Minimal disruption** — ejecting a backend only moves the keys that
//!   backend owned; everyone else's cache locality survives the failure.

use ipim_serve::fnv1a;

/// A consistent-hash ring mapping `u64` fingerprints to backend indices.
pub struct HashRing {
    /// `(point, backend)` pairs sorted by point.
    points: Vec<(u64, usize)>,
    backends: usize,
}

impl HashRing {
    /// Builds the ring for `backends` backends with `replicas` virtual
    /// nodes each (minimum 1 of each).
    pub fn new(backends: usize, replicas: usize) -> Self {
        let backends = backends.max(1);
        let replicas = replicas.max(1);
        let mut points: Vec<(u64, usize)> = (0..backends)
            .flat_map(|b| {
                (0..replicas).map(move |r| (fnv1a(format!("shard:{b}:{r}").as_bytes()), b))
            })
            .collect();
        points.sort_unstable();
        Self { points, backends }
    }

    /// Backends on the ring.
    pub fn backends(&self) -> usize {
        self.backends
    }

    /// The backend owning `fingerprint` when every backend is healthy.
    pub fn owner(&self, fingerprint: u64) -> usize {
        self.walk(fingerprint).next().expect("ring is never empty")
    }

    /// Ring order from the fingerprint's position: every backend exactly
    /// once, starting at the owner.
    fn walk(&self, fingerprint: u64) -> impl Iterator<Item = usize> + '_ {
        let start = self.points.partition_point(|&(p, _)| p < fingerprint);
        let n = self.points.len();
        let mut seen = vec![false; self.backends];
        (0..n).filter_map(move |i| {
            let (_, b) = self.points[(start + i) % n];
            if seen[b] {
                None
            } else {
                seen[b] = true;
                Some(b)
            }
        })
    }

    /// Routes `fingerprint`: the first healthy backend in ring order that
    /// the job has not `tried` yet. When every healthy backend was already
    /// tried, the first healthy one again (a backend may have recovered
    /// since the job last saw it fail). `None` only when nothing is
    /// healthy.
    pub fn route(&self, fingerprint: u64, healthy: &[bool], tried: &[usize]) -> Option<usize> {
        debug_assert_eq!(healthy.len(), self.backends);
        let mut fallback = None;
        for b in self.walk(fingerprint) {
            if !healthy[b] {
                continue;
            }
            if !tried.contains(&b) {
                return Some(b);
            }
            if fallback.is_none() {
                fallback = Some(b);
            }
        }
        fallback
    }

    /// The job's two choices: the first two healthy backends in ring order
    /// that it has not `tried`. The first always equals
    /// [`route`](Self::route); the second is `None` when fewer than two
    /// such backends exist. `None` only when nothing is healthy.
    pub fn two_choices(
        &self,
        fingerprint: u64,
        healthy: &[bool],
        tried: &[usize],
    ) -> Option<(usize, Option<usize>)> {
        let mut eligible = self.walk(fingerprint).filter(|&b| healthy[b] && !tried.contains(&b));
        match eligible.next() {
            Some(first) => Some((first, eligible.next())),
            None => self.route(fingerprint, healthy, tried).map(|b| (b, None)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipim_simkit::prop::{check, u64_any, Gen};

    #[test]
    fn owner_is_deterministic_across_ring_builds() {
        let a = HashRing::new(4, 32);
        let b = HashRing::new(4, 32);
        check("same_config_routes_identically", &u64_any(), |&fp| {
            assert_eq!(a.owner(fp), b.owner(fp));
        });
    }

    #[test]
    fn replicas_spread_load_across_backends() {
        let ring = HashRing::new(4, 32);
        let mut counts = [0usize; 4];
        // A deterministic sweep of well-spread fingerprints.
        for i in 0..4096u64 {
            counts[ring.owner(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))] += 1;
        }
        for (b, &c) in counts.iter().enumerate() {
            assert!(
                c > 4096 / 16,
                "backend {b} owns only {c}/4096 keys — ring badly unbalanced: {counts:?}"
            );
        }
    }

    #[test]
    fn ejection_moves_only_the_ejected_backends_keys() {
        let ring = HashRing::new(3, 32);
        let all = [true, true, true];
        let down1 = [true, false, true];
        check("healthy_keys_keep_their_owner", &u64_any(), |&fp| {
            let owner = ring.route(fp, &all, &[]).unwrap();
            let rerouted = ring.route(fp, &down1, &[]).unwrap();
            if owner == 1 {
                assert_ne!(rerouted, 1, "ejected backend must not receive keys");
            } else {
                assert_eq!(rerouted, owner, "healthy backends keep their keys");
            }
        });
    }

    #[test]
    fn route_skips_tried_backends_then_falls_back() {
        let ring = HashRing::new(3, 16);
        let healthy = [true, true, true];
        check("tried_backends_are_avoided_then_revisited", &u64_any(), |&fp| {
            let first = ring.route(fp, &healthy, &[]).unwrap();
            let second = ring.route(fp, &healthy, &[first]).unwrap();
            let third = ring.route(fp, &healthy, &[first, second]).unwrap();
            let exhausted = ring.route(fp, &healthy, &[first, second, third]).unwrap();
            let mut distinct = [first, second, third];
            distinct.sort_unstable();
            assert_eq!(distinct, [0, 1, 2], "all three backends visited once each");
            assert_eq!(exhausted, first, "exhausted tried-list falls back, never refuses");
        });
    }

    #[test]
    fn two_choices_extend_route_with_a_distinct_eligible_second() {
        let ring = HashRing::new(4, 8);
        let gen = Gen::from_fn(|rng| {
            let fp = rng.next_u64();
            let healthy: Vec<bool> = (0..4).map(|_| rng.next_u64() % 4 != 0).collect();
            let tried: Vec<usize> = (0..4).filter(|_| rng.next_u64() % 3 == 0).collect();
            (fp, healthy, tried)
        });
        check("second_choice_is_distinct_and_eligible", &gen, |(fp, healthy, tried)| {
            let choices = ring.two_choices(*fp, healthy, tried);
            assert_eq!(choices.map(|c| c.0), ring.route(*fp, healthy, tried));
            let eligible: Vec<usize> =
                ring.walk(*fp).filter(|&b| healthy[b] && !tried.contains(&b)).collect();
            match choices {
                Some((first, Some(second))) => {
                    assert_ne!(first, second);
                    assert!(healthy[second] && !tried.contains(&second));
                    assert_eq!(eligible[..2], [first, second], "the first two clockwise");
                }
                _ => assert!(eligible.len() < 2, "a second choice existed: {eligible:?}"),
            }
        });
    }

    #[test]
    fn route_is_none_only_when_nothing_is_healthy() {
        let ring = HashRing::new(4, 8);
        let gen =
            Gen::from_fn(|rng| (0..4).map(|_| rng.next_u64() % 2 == 0).collect::<Vec<bool>>());
        check("route_finds_any_healthy_backend", &gen, |healthy| {
            let routed = ring.route(7, healthy, &[]);
            assert_eq!(routed.is_some(), healthy.iter().any(|&h| h));
            if let Some(b) = routed {
                assert!(healthy[b], "routed backend must be healthy");
            }
        });
    }
}
