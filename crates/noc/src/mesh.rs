//! 2D-mesh network built from input-queued routers.

use std::collections::VecDeque;

use ipim_trace::{CompId, TraceEvent, Tracer};

use crate::router::{Flit, Port, PORTS};
use crate::{NodeId, Packet, Router};

/// Mesh construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshConfig {
    /// Mesh columns.
    pub width: u8,
    /// Mesh rows.
    pub height: u8,
    /// Flit capacity of each router input queue.
    pub queue_capacity: usize,
}

impl Default for MeshConfig {
    fn default() -> Self {
        // A 4×4 mesh connects the 16 vaults of one cube (paper Table III).
        Self { width: 4, height: 4, queue_capacity: 8 }
    }
}

/// A 2D-mesh interconnect transporting [`Packet`]s between nodes.
///
/// Each [`tick`](Mesh::tick) moves each flit at most one hop, so latency is
/// one cycle per hop (Table III: `tNoC` = 1 ns/hop). Bounded input queues
/// provide credit-style back-pressure.
#[derive(Debug, Clone)]
pub struct Mesh<P> {
    config: MeshConfig,
    routers: Vec<Router<P>>,
    delivered: VecDeque<Packet<P>>,
    flit_hops: u64,
    tracer: Tracer,
    router_comps: Vec<CompId>,
}

impl<P: Clone> Mesh<P> {
    /// Creates an idle mesh.
    pub fn new(config: MeshConfig) -> Self {
        assert!(config.width >= 1 && config.height >= 1, "mesh must be non-empty");
        let routers = (0..config.height)
            .flat_map(|y| (0..config.width).map(move |x| NodeId { x, y }))
            .map(|id| Router::new(id, config.queue_capacity))
            .collect();
        Self {
            config,
            routers,
            delivered: VecDeque::new(),
            flit_hops: 0,
            tracer: Tracer::default(),
            router_comps: Vec::new(),
        }
    }

    /// The construction parameters.
    pub fn config(&self) -> &MeshConfig {
        &self.config
    }

    /// Attaches a tracer, with one component id per router (row-major, the
    /// same order as [`MeshConfig`] node indexing).
    ///
    /// # Panics
    ///
    /// Panics unless exactly one component id is supplied per router.
    pub fn attach_trace(&mut self, tracer: Tracer, router_comps: Vec<CompId>) {
        assert_eq!(router_comps.len(), self.routers.len(), "one component id per router");
        self.tracer = tracer;
        self.router_comps = router_comps;
    }

    fn index(&self, n: NodeId) -> usize {
        assert!(n.x < self.config.width && n.y < self.config.height, "node {n} outside mesh");
        n.y as usize * self.config.width as usize + n.x as usize
    }

    fn neighbour(&self, n: NodeId, port: Port) -> Option<NodeId> {
        match port {
            Port::North if n.y > 0 => Some(NodeId { x: n.x, y: n.y - 1 }),
            Port::South if n.y + 1 < self.config.height => Some(NodeId { x: n.x, y: n.y + 1 }),
            Port::East if n.x + 1 < self.config.width => Some(NodeId { x: n.x + 1, y: n.y }),
            Port::West if n.x > 0 => Some(NodeId { x: n.x - 1, y: n.y }),
            _ => None,
        }
    }

    /// Injects a packet at its source node's local port.
    ///
    /// Returns `false` (and drops nothing — the caller retries) when the
    /// local input queue lacks space for all flits of the packet; this is
    /// the back-pressure a vault NIC sees.
    ///
    /// # Panics
    ///
    /// Panics if the packet's `src` or `dst` lies outside the mesh.
    pub fn inject(&mut self, packet: Packet<P>, now: u64) -> bool {
        let src = self.index(packet.src);
        self.index(packet.dst); // validate dst
        let flits = packet.flits();
        let local = Router::<P>::port_index(Port::Local);
        let cap = self.routers[src].capacity;
        if self.routers[src].inputs[local].len() + flits as usize > cap {
            return false;
        }
        let dst = packet.dst;
        let id = packet.id;
        for i in 0..flits {
            let is_tail = i + 1 == flits;
            self.routers[src].inputs[local].push_back(Flit {
                id,
                dst,
                is_tail,
                payload: is_tail.then(|| packet.clone()),
                moved_at: now,
            });
        }
        true
    }

    /// Advances the network one cycle; returns packets whose tail flit
    /// reached the destination this cycle.
    pub fn tick(&mut self, now: u64) -> Vec<Packet<P>> {
        // For every router and every output port, move at most one flit.
        for r in 0..self.routers.len() {
            if self.routers[r].queued_flits() == 0 {
                // Nothing can move; the port loop would only release every
                // output allocation (each owner's input is empty).
                self.routers[r].alloc.iter_mut().for_each(|a| *a = None);
                continue;
            }
            let node = self.routers[r].id;
            for (out, &port) in PORTS.iter().enumerate() {
                // Which input currently owns this output?
                let owner = match self.routers[r].alloc[out] {
                    Some(i) => Some(i),
                    None => self.routers[r].pick_input_for(out, now),
                };
                let Some(input) = owner else { continue };
                // The owner's head flit must still route to this output (a
                // wormhole allocation only ever sees flits of one packet).
                let Some(head) = self.routers[r].inputs[input].front() else {
                    self.routers[r].alloc[out] = None;
                    continue;
                };
                if head.moved_at == now {
                    continue;
                }
                if Router::<P>::port_index(self.routers[r].route(head.dst)) != out {
                    // Interleaved packet from the same input wants another
                    // output; release allocation.
                    self.routers[r].alloc[out] = None;
                    continue;
                }
                match port {
                    Port::Local => {
                        // Eject at destination.
                        let mut flit = self.routers[r].inputs[input].pop_front().expect("head");
                        flit.moved_at = now;
                        self.routers[r].stats.flits_forwarded += 1;
                        if self.tracer.enabled() {
                            let comp = self.router_comps[r];
                            self.tracer.emit(now, comp, || TraceEvent::FlitHop { delivered: true });
                        }
                        let is_tail = flit.is_tail;
                        if let Some(p) = flit.payload.take() {
                            self.delivered.push_back(p);
                        }
                        self.routers[r].alloc[out] = if is_tail { None } else { Some(input) };
                    }
                    _ => {
                        let Some(next) = self.neighbour(node, port) else {
                            // X-Y routing never routes off-mesh for valid
                            // destinations; a flit here is a bug.
                            panic!("flit routed off mesh edge at {node}");
                        };
                        let next_idx = self.index(next);
                        let downstream_port = Router::<P>::port_index(match port {
                            Port::North => Port::South,
                            Port::South => Port::North,
                            Port::East => Port::West,
                            Port::West => Port::East,
                            Port::Local => unreachable!(),
                        });
                        if self.routers[next_idx].inputs[downstream_port].len()
                            >= self.routers[next_idx].capacity
                        {
                            self.routers[r].stats.stall_cycles += 1;
                            if self.tracer.enabled() {
                                let comp = self.router_comps[r];
                                self.tracer.emit(now, comp, || TraceEvent::CreditStall);
                            }
                            self.routers[r].alloc[out] = Some(input);
                            continue;
                        }
                        let mut flit = self.routers[r].inputs[input].pop_front().expect("head");
                        flit.moved_at = now;
                        let is_tail = flit.is_tail;
                        self.routers[next_idx].inputs[downstream_port].push_back(flit);
                        self.routers[r].stats.flits_forwarded += 1;
                        self.flit_hops += 1;
                        if self.tracer.enabled() {
                            let comp = self.router_comps[r];
                            self.tracer
                                .emit(now, comp, || TraceEvent::FlitHop { delivered: false });
                        }
                        self.routers[r].alloc[out] = if is_tail { None } else { Some(input) };
                    }
                }
            }
        }
        self.delivered.drain(..).collect()
    }

    /// Whether any flit is still in flight.
    pub fn is_idle(&self) -> bool {
        self.routers.iter().all(|r| r.queued_flits() == 0) && self.delivered.is_empty()
    }

    /// Sound lower bound on the next cycle `>= now` at which a
    /// [`tick`](Mesh::tick) can change mesh state. An idle mesh never acts
    /// spontaneously (`None`); a mesh with flits in flight moves them every
    /// cycle, so the bound is `now` itself — routers have no timers, which
    /// keeps this exact rather than conservative.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        let routers = self.routers.iter().filter_map(|r| r.next_event(now)).min();
        match routers {
            Some(t) => Some(t),
            None if !self.delivered.is_empty() => Some(now),
            None => None,
        }
    }

    /// Total link traversals (flit-hops), for interconnect energy.
    pub fn flit_hops(&self) -> u64 {
        self.flit_hops
    }

    /// Manhattan hop distance between two nodes.
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        (a.x.abs_diff(b.x) + a.y.abs_diff(b.y)) as u32
    }

    /// Sum of router statistics across the mesh.
    pub fn total_stats(&self) -> crate::RouterStats {
        let mut s = crate::RouterStats::default();
        for r in &self.routers {
            s.flits_forwarded += r.stats.flits_forwarded;
            s.stall_cycles += r.stats.stall_cycles;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh<u32> {
        Mesh::new(MeshConfig::default())
    }

    fn packet(id: u64, src: (u8, u8), dst: (u8, u8), bytes: u32, val: u32) -> Packet<u32> {
        Packet {
            id: crate::PacketId(id),
            src: NodeId { x: src.0, y: src.1 },
            dst: NodeId { x: dst.0, y: dst.1 },
            bytes,
            payload: val,
        }
    }

    fn run(m: &mut Mesh<u32>, start: u64, n: usize) -> (Vec<Packet<u32>>, u64) {
        let mut out = Vec::new();
        let mut now = start;
        while out.len() < n {
            out.extend(m.tick(now));
            now += 1;
            assert!(now < start + 10_000, "packets not delivered");
        }
        (out, now)
    }

    #[test]
    fn delivers_single_packet() {
        let mut m = mesh();
        assert!(m.inject(packet(1, (0, 0), (3, 3), 16, 42), 0));
        let (got, _) = run(&mut m, 0, 1);
        assert_eq!(got[0].payload, 42);
        assert!(m.is_idle());
    }

    #[test]
    fn latency_scales_with_hops() {
        let mut near = mesh();
        assert!(near.inject(packet(1, (0, 0), (1, 0), 16, 0), 0));
        let (_, t_near) = run(&mut near, 0, 1);
        let mut far = mesh();
        assert!(far.inject(packet(1, (0, 0), (3, 3), 16, 0), 0));
        let (_, t_far) = run(&mut far, 0, 1);
        assert!(t_far > t_near, "far={t_far} near={t_near}");
    }

    #[test]
    fn local_delivery_same_node() {
        let mut m = mesh();
        assert!(m.inject(packet(1, (2, 2), (2, 2), 16, 7), 0));
        let (got, _) = run(&mut m, 0, 1);
        assert_eq!(got[0].payload, 7);
    }

    #[test]
    fn multi_flit_packet_arrives_whole() {
        let mut m = mesh();
        assert!(m.inject(packet(1, (0, 0), (2, 1), 64, 9), 0)); // 4 flits
        let (got, _) = run(&mut m, 0, 1);
        assert_eq!(got[0].payload, 9);
        assert_eq!(got[0].flits(), 4);
        assert!(m.is_idle());
    }

    #[test]
    fn many_packets_all_arrive() {
        let mut m = mesh();
        let mut now = 0;
        let mut sent = 0u64;
        let mut received = Vec::new();
        while sent < 40 {
            let p = packet(sent, ((sent % 4) as u8, 0), (3, 3), 16, sent as u32);
            if m.inject(p, now) {
                sent += 1;
            }
            received.extend(m.tick(now));
            now += 1;
        }
        while received.len() < 40 {
            received.extend(m.tick(now));
            now += 1;
            assert!(now < 10_000);
        }
        let mut vals: Vec<u32> = received.iter().map(|p| p.payload).collect();
        vals.sort_unstable();
        assert_eq!(vals, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn injection_backpressure_when_full() {
        let mut m = mesh();
        let mut accepted = 0;
        for i in 0..20 {
            if m.inject(packet(i, (0, 0), (3, 3), 16, 0), 0) {
                accepted += 1;
            }
        }
        assert!(accepted >= 1);
        assert!(accepted <= 8, "queue capacity must bound injection: {accepted}");
    }

    #[test]
    fn hop_count_is_manhattan() {
        let m = mesh();
        assert_eq!(m.hops(NodeId { x: 0, y: 0 }, NodeId { x: 3, y: 2 }), 5);
        assert_eq!(m.hops(NodeId { x: 1, y: 1 }, NodeId { x: 1, y: 1 }), 0);
    }

    #[test]
    fn flit_hops_counted() {
        let mut m = mesh();
        assert!(m.inject(packet(1, (0, 0), (2, 0), 16, 0), 0));
        run(&mut m, 0, 1);
        assert_eq!(m.flit_hops(), 2);
    }

    #[test]
    #[should_panic(expected = "outside mesh")]
    fn inject_out_of_range_panics() {
        let mut m = mesh();
        m.inject(packet(1, (0, 0), (9, 9), 16, 0), 0);
    }

    #[test]
    fn one_by_one_mesh_delivers_locally() {
        let mut m: Mesh<u32> = Mesh::new(MeshConfig { width: 1, height: 1, queue_capacity: 4 });
        assert!(m.inject(packet(1, (0, 0), (0, 0), 16, 5), 0));
        let mut now = 0;
        let mut got = Vec::new();
        while got.is_empty() {
            got.extend(m.tick(now));
            now += 1;
            assert!(now < 100);
        }
        assert_eq!(got[0].payload, 5);
    }
}
