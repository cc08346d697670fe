//! The full iPIM machine: cubes of vaults connected by per-cube 2D meshes
//! and inter-cube SERDES links, with machine-wide barrier coordination.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use ipim_dram::ACCESS_BYTES;
use ipim_isa::{Program, RemoteTarget};
use ipim_noc::{Mesh, MeshConfig, NodeId, Packet, PacketId};
use ipim_trace::{CompId, CompRegistry, MetricsRegistry, SharedSink, TraceEvent, Tracer};

use crate::regs::RegTable;
use crate::stats::VaultStats;
use crate::vault::{InMsg, OutMsg, Vault, VaultId};
use crate::{EnergyBook, EnergyParams, Engine, MachineConfig};

/// Fixed latency of an inter-cube SERDES traversal in cycles (link + both
/// gateways; Table III's 0.08 ns/hop link delay is dominated by
/// serialization, which this constant folds in).
const SERDES_LATENCY: u64 = 8;

/// Payload routed through a cube's mesh.
#[derive(Debug, Clone, PartialEq)]
enum NetMsg {
    Fwd { origin: VaultId, target: RemoteTarget, dram_addr: u32, tag: u64 },
    Resp { tag: u64 },
}

/// Error returned when a simulation exceeds its cycle budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimTimeout {
    /// Cycle budget that was exhausted.
    pub max_cycles: u64,
    /// Vaults that had not halted.
    pub stuck_vaults: Vec<usize>,
}

impl fmt::Display for SimTimeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulation did not quiesce within {} cycles ({} vaults still running)",
            self.max_cycles,
            self.stuck_vaults.len()
        )
    }
}

impl std::error::Error for SimTimeout {}

/// Result of running a program to completion.
///
/// `PartialEq` compares every counter and energy term exactly (f64 equality
/// included): two reports are equal only when the runs were bit-identical,
/// which is what the engine-equivalence and serve-pool determinism tests
/// assert.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Wall-clock cycles until machine-wide quiescence.
    pub cycles: u64,
    /// Summed per-vault statistics.
    pub stats: VaultStats,
    /// Summed DRAM command counters.
    pub bank_stats: ipim_dram::BankStats,
    /// Summed row-buffer locality counters.
    pub locality: ipim_dram::RowLocality,
    /// Energy broken down by component.
    pub energy: EnergyBook,
    /// Number of vaults that executed the program.
    pub vaults: usize,
    /// Total PEs in the simulated machine.
    pub pes: usize,
}

impl ExecutionReport {
    /// Runtime in seconds at the 1 GHz clock.
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 * 1e-9
    }

    /// Aggregate DRAM bytes moved (16 B per access).
    pub fn dram_bytes(&self) -> u64 {
        (self.bank_stats.reads + self.bank_stats.writes) * ACCESS_BYTES as u64
    }

    /// Achieved DRAM bandwidth in GB/s.
    pub fn dram_bandwidth_gbs(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.dram_bytes() as f64 / self.cycles as f64
        }
    }
}

/// The simulated iPIM machine.
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
    energy_params: EnergyParams,
    vaults: Vec<Vault>,
    meshes: Vec<Mesh<NetMsg>>,
    mesh_shape: (u8, u8),
    serdes: VecDeque<(u64, usize, InMsg)>, // (deliver_at, global vault, msg)
    serdes_bits: u64,
    now: u64,
    next_packet: u64,
    barrier_release_at: Option<u64>,
    tracer: Tracer,
    comp_engine: CompId,
    comp_serdes: CompId,
}

impl Machine {
    /// Builds a machine from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`MachineConfig::validate`]).
    pub fn new(config: MachineConfig) -> Self {
        config.validate().unwrap_or_else(|e| panic!("invalid machine config: {e}"));
        let mut vaults = Vec::with_capacity(config.total_vaults());
        for cube in 0..config.cubes {
            for vault in 0..config.vaults_per_cube {
                vaults.push(Vault::new(VaultId { cube, vault }, &config));
            }
        }
        let width = (config.vaults_per_cube as f64).sqrt().ceil() as u8;
        let width = width.max(1);
        let height = (config.vaults_per_cube as u8).div_ceil(width);
        let meshes = (0..config.cubes)
            .map(|_| Mesh::new(MeshConfig { width, height, queue_capacity: 8 }))
            .collect();
        Self {
            config,
            energy_params: EnergyParams::default(),
            vaults,
            meshes,
            mesh_shape: (width, height),
            serdes: VecDeque::new(),
            serdes_bits: 0,
            now: 0,
            next_packet: 0,
            barrier_release_at: None,
            tracer: Tracer::default(),
            comp_engine: CompId::default(),
            comp_serdes: CompId::default(),
        }
    }

    /// Wires `sink` through every instrumented component — the cycle
    /// engine, the SERDES gateway, each cube's mesh routers, and each
    /// vault's control core, memory controllers, and banks — and returns
    /// the registry mapping component ids to hierarchical paths (e.g.
    /// `cube0/vault3/pg1/bank2`).
    ///
    /// Components register in deterministic machine-construction order, so
    /// two identically configured runs assign identical ids — the property
    /// the engine-equivalence tests rely on when comparing event streams.
    /// Call before [`run`](Self::run); without a call, every tracer stays
    /// detached and emit sites cost a single branch.
    pub fn attach_trace(&mut self, sink: SharedSink) -> CompRegistry {
        let tracer = Tracer::attached(sink);
        let mut registry = CompRegistry::default();
        self.comp_engine = registry.register("machine/engine");
        self.comp_serdes = registry.register("machine/serdes");
        let (w, _) = self.mesh_shape;
        for (c, mesh) in self.meshes.iter_mut().enumerate() {
            let comps = (0..mesh.config().width as usize * mesh.config().height as usize)
                .map(|i| {
                    registry.register(&format!(
                        "cube{c}/router{}_{}",
                        i % w as usize,
                        i / w as usize
                    ))
                })
                .collect();
            mesh.attach_trace(tracer.clone(), comps);
        }
        for v in &mut self.vaults {
            let id = v.id();
            let prefix = format!("cube{}/vault{}", id.cube, id.vault);
            v.attach_trace(&tracer, &mut registry, &prefix);
        }
        self.tracer = tracer;
        registry
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Overrides the energy constants (defaults are Table III).
    pub fn set_energy_params(&mut self, params: EnergyParams) {
        self.energy_params = params;
    }

    /// Current simulation time in cycles.
    pub fn now(&self) -> u64 {
        self.now
    }

    fn vault_index(&self, cube: usize, vault: usize) -> usize {
        assert!(cube < self.config.cubes && vault < self.config.vaults_per_cube);
        cube * self.config.vaults_per_cube + vault
    }

    fn node_of(&self, vault: usize) -> NodeId {
        NodeId {
            x: (vault % self.mesh_shape.0 as usize) as u8,
            y: (vault / self.mesh_shape.0 as usize) as u8,
        }
    }

    /// Access a vault (host upload / inspection).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn vault(&self, cube: usize, vault: usize) -> &Vault {
        &self.vaults[self.vault_index(cube, vault)]
    }

    /// Mutable access to a vault.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn vault_mut(&mut self, cube: usize, vault: usize) -> &mut Vault {
        let i = self.vault_index(cube, vault);
        &mut self.vaults[i]
    }

    /// Loads the same program into every vault (the SPMD model: per-vault
    /// behaviour differentiates through the identity registers A0–A3).
    pub fn load_program_all(&mut self, program: &Program) {
        let program = Arc::new(program.clone());
        let regs = Arc::new(RegTable::decode(program.instructions(), &self.config));
        for v in &mut self.vaults {
            v.load_program(Arc::clone(&program), Arc::clone(&regs));
        }
    }

    /// Runs until machine-wide quiescence or `max_cycles`.
    ///
    /// # Errors
    ///
    /// Returns [`SimTimeout`] if the machine does not quiesce in time (which
    /// usually indicates a barrier mismatch or an infinite loop in the
    /// program).
    pub fn run(&mut self, max_cycles: u64) -> Result<ExecutionReport, SimTimeout> {
        let deadline = self.now + max_cycles;
        // `quiet_streak` counts consecutive cycles with no observable work;
        // while work happens, ticking again is almost certainly cheaper than
        // computing the machine-wide event bound, and a single quiet cycle
        // sandwiched between busy ones (a bursting memory controller, say)
        // would waste the probe too. Only a second consecutive quiet cycle
        // triggers the skip-ahead probe. The counter is a pure scheduling
        // heuristic: it decides *when* to look for a jump, never whether one
        // is sound.
        let mut quiet_streak = 0u32;
        while !self.quiesced() {
            if self.now >= deadline {
                let stuck = self
                    .vaults
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| !v.is_halted())
                    .map(|(i, _)| i)
                    .collect();
                return Err(SimTimeout { max_cycles, stuck_vaults: stuck });
            }
            match self.config.engine {
                Engine::Legacy => {
                    self.tick();
                }
                // The machine API is bit-exact by contract: when a Machine
                // is driven directly under `Engine::Analytic`, run with the
                // skip-ahead semantics. The analytic *prediction* path lives
                // in `crate::analytic::predict` and never builds a Machine.
                Engine::SkipAhead | Engine::Analytic if quiet_streak < 2 => {
                    quiet_streak = if self.tick() { 0 } else { quiet_streak + 1 };
                }
                Engine::SkipAhead | Engine::Analytic => {
                    // Advance directly to the earliest cycle any component
                    // can act. A bound of `now` (or an event already due)
                    // means this cycle is live: fall back to a real tick.
                    // With no event at all (a wedged machine) skip straight
                    // to the deadline so the timeout path stays identical.
                    let target = self.next_event().unwrap_or(deadline).min(deadline);
                    if target > self.now {
                        let delta = target - self.now;
                        self.tracer
                            .emit(self.now, self.comp_engine, || TraceEvent::SkipWindow { delta });
                        for v in &mut self.vaults {
                            v.skip(self.now, delta);
                        }
                        self.now = target;
                        quiet_streak = 0;
                    } else {
                        quiet_streak = if self.tick() { 0 } else { quiet_streak + 1 };
                    }
                }
            }
        }
        Ok(self.report())
    }

    /// Sound lower bound on the next cycle `>= now` at which [`tick`]
    /// (Self::tick) can change machine state: the minimum over the SERDES
    /// head-of-queue delivery, the pending barrier release, and every mesh's
    /// and vault's own bound. `None` means the machine is fully quiescent.
    fn next_event(&self) -> Option<u64> {
        let now = self.now;
        let mut t = u64::MAX;
        // Deliveries only ever pop from the SERDES queue head, so the head's
        // timestamp (not the queue minimum) is the next delivery.
        if let Some(&(at, _, _)) = self.serdes.front() {
            t = t.min(at.max(now));
        }
        if let Some(at) = self.barrier_release_at {
            t = t.min(at.max(now));
        }
        for m in &self.meshes {
            if let Some(e) = m.next_event(now) {
                t = t.min(e);
            }
        }
        for v in &self.vaults {
            if t <= now {
                // Already clamped to `now`; later vaults cannot lower it.
                return Some(now);
            }
            if let Some(e) = v.next_event(now) {
                t = t.min(e);
            }
        }
        if t == u64::MAX {
            None
        } else {
            Some(t)
        }
    }

    fn quiesced(&self) -> bool {
        self.vaults.iter().all(Vault::is_halted)
            && self.meshes.iter().all(Mesh::is_idle)
            && self.serdes.is_empty()
    }

    /// Advances the whole machine one cycle.
    ///
    /// Returns whether the cycle did observable work anywhere in the
    /// machine. The skip-ahead engine only computes [`next_event`]
    /// (Self::next_event) after a quiet cycle — a heuristic, so a
    /// pessimistic `true` is always safe.
    pub fn tick(&mut self) -> bool {
        let now = self.now;
        let mut progress = false;

        // 1. SERDES deliveries.
        while self.serdes.front().is_some_and(|e| e.0 <= now) {
            let (_, v, msg) = self.serdes.pop_front().expect("front checked");
            self.vaults[v].deliver(msg, now);
            progress = true;
        }

        // 2. Mesh deliveries.
        for cube in 0..self.meshes.len() {
            for packet in self.meshes[cube].tick(now) {
                progress = true;
                let vault_local =
                    packet.dst.y as usize * self.mesh_shape.0 as usize + packet.dst.x as usize;
                let v = cube * self.config.vaults_per_cube + vault_local;
                let msg = match packet.payload {
                    NetMsg::Fwd { origin, target, dram_addr, tag } => InMsg::ServeReq {
                        origin,
                        pg: target.pg as usize,
                        pe: target.pe as usize,
                        dram_addr,
                        tag,
                    },
                    NetMsg::Resp { tag } => InMsg::ReqDone { tag },
                };
                self.vaults[v].deliver(msg, now);
            }
        }

        // 3. Vault execution.
        for v in &mut self.vaults {
            progress |= v.tick(now);
        }

        // 4. Functional fills for newly issued remote requests: snapshot the
        // remote value now and write it into the requester's VSM (programs
        // separate producer and consumer phases with `sync`, so this is
        // sequentially consistent; see vault module docs).
        for vi in 0..self.vaults.len() {
            for (_tag, target, dram_addr, vsm_addr) in self.vaults[vi].take_pending_req_fills() {
                let src = self.vault_index(target.chip as usize, target.vault as usize);
                let data = self.vaults[src].read_bank16(
                    target.pg as usize,
                    target.pe as usize,
                    dram_addr & !(ACCESS_BYTES as u32 - 1),
                );
                self.vaults[vi].fill_vsm(vsm_addr, data);
            }
        }

        // 5. Route outboxes.
        for vi in 0..self.vaults.len() {
            for msg in self.vaults[vi].take_outbox() {
                self.route(vi, msg, now);
                progress = true;
            }
        }

        // 6. Barrier coordination.
        progress |= self.coordinate_barrier(now);

        self.now += 1;
        // Flits still in flight keep the machine hot even on cycles where
        // none crossed a hop boundary (e.g. all blocked on back-pressure).
        progress || self.meshes.iter().any(|m| !m.is_idle())
    }

    fn route(&mut self, from: usize, msg: OutMsg, now: u64) {
        match msg {
            OutMsg::ReqForward { origin, target, dram_addr, tag } => {
                let dst_global = self.vault_index(target.chip as usize, target.vault as usize);
                let payload = NetMsg::Fwd { origin, target, dram_addr, tag };
                self.send(from, dst_global, payload, 16, now);
            }
            OutMsg::ReqResponse { origin, tag } => {
                let dst_global = self.vault_index(origin.cube, origin.vault);
                self.send(from, dst_global, NetMsg::Resp { tag }, ACCESS_BYTES as u32, now);
            }
        }
    }

    fn send(&mut self, from: usize, to: usize, payload: NetMsg, bytes: u32, now: u64) {
        let from_cube = from / self.config.vaults_per_cube;
        let to_cube = to / self.config.vaults_per_cube;
        if from_cube == to_cube {
            let packet = Packet {
                id: PacketId(self.next_packet),
                src: self.node_of(from % self.config.vaults_per_cube),
                dst: self.node_of(to % self.config.vaults_per_cube),
                bytes,
                payload,
            };
            self.next_packet += 1;
            // The mesh applies back-pressure; a vault NIC with a full local
            // queue simply retries next cycle. We retry by requeueing
            // through the serdes path with a one-cycle delay to keep the
            // simulator deadlock-free.
            if !self.meshes[from_cube].inject(packet.clone(), now) {
                let msg = to_in_msg(packet.payload);
                self.serdes.push_back((now + 1, to, msg));
            }
        } else {
            // Inter-cube: fixed SERDES + remote-mesh-diameter latency
            // (detailed per-hop routing is modelled intra-cube, where >98 %
            // of traffic lives; see DESIGN.md).
            self.serdes_bits += bytes as u64 * 8;
            self.tracer.emit(now, self.comp_serdes, || TraceEvent::SerdesSend { bytes });
            let diameter = (self.mesh_shape.0 + self.mesh_shape.1) as u64;
            let at = now + SERDES_LATENCY + diameter;
            self.serdes.push_back((at, to, to_in_msg(payload)));
            // Keep the queue sorted by delivery time (we only ever push
            // near-future events, so this stays cheap).
            let mut v: Vec<_> = self.serdes.drain(..).collect();
            v.sort_by_key(|e| e.0);
            self.serdes = v.into();
        }
    }

    /// Returns whether barrier state changed this cycle.
    fn coordinate_barrier(&mut self, now: u64) -> bool {
        if let Some(at) = self.barrier_release_at {
            if now >= at {
                for v in &mut self.vaults {
                    v.release_barrier(now);
                }
                self.barrier_release_at = None;
                return true;
            }
            return false;
        }
        let mut waiting = 0;
        let mut running = 0;
        let mut phase: Option<u32> = None;
        for v in &self.vaults {
            if let Some(p) = v.at_barrier() {
                waiting += 1;
                match phase {
                    None => phase = Some(p),
                    Some(q) => {
                        assert_eq!(p, q, "vaults waiting at different sync phases: program bug")
                    }
                }
            } else if !v.is_halted() {
                running += 1;
            }
        }
        if waiting > 0 && running == 0 {
            // All participating vaults reached the barrier: master vault
            // gathers slave signals and broadcasts proceed (Sec. IV-D) —
            // two mesh traversals plus bookkeeping.
            let diameter = (self.mesh_shape.0 + self.mesh_shape.1) as u64;
            self.barrier_release_at = Some(now + 2 * diameter + 4);
            return true;
        }
        false
    }

    /// Summed DRAM command and row-locality counters across every bank.
    fn dram_totals(&self) -> (ipim_dram::BankStats, ipim_dram::RowLocality) {
        let mut bank_stats = ipim_dram::BankStats::default();
        let mut locality = ipim_dram::RowLocality::default();
        for v in &self.vaults {
            for mc in &v.mcs {
                let b = mc.total_bank_stats();
                bank_stats.acts += b.acts;
                bank_stats.pres += b.pres;
                bank_stats.reads += b.reads;
                bank_stats.writes += b.writes;
                bank_stats.refs += b.refs;
                locality.row_hits += mc.locality.row_hits;
                locality.row_misses += mc.locality.row_misses;
                locality.row_conflicts += mc.locality.row_conflicts;
            }
        }
        (bank_stats, locality)
    }

    /// Builds the final execution report (also usable mid-run).
    pub fn report(&self) -> ExecutionReport {
        let mut stats = VaultStats::default();
        for v in &self.vaults {
            stats.absorb(&v.stats);
        }
        let (bank_stats, locality) = self.dram_totals();
        let max_cycles = stats.cycles;
        let energy = self.energy(&stats, &bank_stats, max_cycles);
        ExecutionReport {
            cycles: max_cycles,
            stats,
            bank_stats,
            locality,
            energy,
            vaults: self.vaults.len(),
            pes: self.config.total_pes(),
        }
    }

    /// Snapshots every counter in the machine into a fresh metrics
    /// registry, under the same hierarchical paths the trace uses
    /// (per-vault `cube{c}/vault{v}/...`, per-cube mesh counters, and a
    /// `machine/...` aggregate). Deterministic for a deterministic run, so
    /// the engine-equivalence tests compare whole registries.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::default();
        reg.counter_add("machine/cycles", self.now);
        reg.counter_add("machine/serdes_bits", self.serdes_bits);
        for (c, mesh) in self.meshes.iter().enumerate() {
            let s = mesh.total_stats();
            reg.counter_add(&format!("cube{c}/mesh/flits_forwarded"), s.flits_forwarded);
            reg.counter_add(&format!("cube{c}/mesh/credit_stalls"), s.stall_cycles);
            reg.counter_add(&format!("cube{c}/mesh/flit_hops"), mesh.flit_hops());
        }
        let mut total = VaultStats::default();
        for v in &self.vaults {
            let id = v.id();
            let prefix = format!("cube{}/vault{}", id.cube, id.vault);
            v.stats.record_into(&mut reg, &prefix);
            reg.histogram_observe("machine/vault_cycles", v.stats.cycles);
            total.absorb(&v.stats);
        }
        total.record_into(&mut reg, "machine/total");
        let (bank, locality) = self.dram_totals();
        reg.counter_add("dram/acts", bank.acts);
        reg.counter_add("dram/pres", bank.pres);
        reg.counter_add("dram/reads", bank.reads);
        reg.counter_add("dram/writes", bank.writes);
        reg.counter_add("dram/refs", bank.refs);
        reg.counter_add("dram/row_hits", locality.row_hits);
        reg.counter_add("dram/row_misses", locality.row_misses);
        reg.counter_add("dram/row_conflicts", locality.row_conflicts);
        reg
    }

    fn energy(
        &self,
        stats: &VaultStats,
        bank_stats: &ipim_dram::BankStats,
        cycles: u64,
    ) -> EnergyBook {
        let noc_hops = self.meshes.iter().map(Mesh::flit_hops).sum::<u64>();
        compose_energy(
            &self.energy_params,
            &self.config,
            stats,
            bank_stats,
            cycles,
            noc_hops,
            self.serdes_bits,
            self.vaults.len(),
        )
    }
}

/// Composes an [`EnergyBook`] from counters — the single Table III energy
/// formula, shared by the cycle engines (via [`Machine::report`]) and the
/// analytic predictor (`crate::analytic`), so the two tiers can never
/// diverge on how counters turn into picojoules.
#[allow(clippy::too_many_arguments)]
pub(crate) fn compose_energy(
    p: &EnergyParams,
    config: &MachineConfig,
    stats: &VaultStats,
    bank_stats: &ipim_dram::BankStats,
    cycles: u64,
    noc_hops: u64,
    serdes_bits: u64,
    n_vaults: usize,
) -> EnergyBook {
    let n_banks = config.total_vaults() * config.pes_per_vault();
    let dram = ipim_dram::DramEnergy::from_stats(bank_stats, &p.dram, cycles, n_banks);
    let bits = 128.0;
    EnergyBook {
        dram,
        simd_pj: stats.simd_ops as f64 * p.simd_pj,
        int_alu_pj: stats.int_alu_ops as f64 * p.int_alu_pj,
        addr_rf_pj: stats.addr_rf_accesses as f64 * p.addr_rf_pj,
        data_rf_pj: stats.data_rf_accesses as f64 * p.data_rf_pj,
        pgsm_pj: stats.pgsm_accesses as f64 * p.pgsm_pj,
        vsm_pj: stats.vsm_accesses as f64 * p.vsm_pj,
        pe_bus_pj: stats.dram_accesses as f64 * bits * p.pe_bus_pj_per_bit,
        tsv_pj: stats.tsv_transfers as f64 * bits * p.tsv_pj_per_bit,
        noc_pj: noc_hops as f64 * bits * p.noc_pj_per_bit_hop,
        serdes_pj: serdes_bits as f64 * p.serdes_pj_per_bit,
        // mW × ns = pJ; one control core per vault.
        ctrl_core_pj: p.ctrl_core_mw * cycles as f64 * n_vaults as f64,
    }
}

fn to_in_msg(payload: NetMsg) -> InMsg {
    match payload {
        NetMsg::Fwd { origin, target, dram_addr, tag } => InMsg::ServeReq {
            origin,
            pg: target.pg as usize,
            pe: target.pe as usize,
            dram_addr,
            tag,
        },
        NetMsg::Resp { tag } => InMsg::ReqDone { tag },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;

    #[test]
    fn empty_machine_quiesces_immediately() {
        let mut m = Machine::new(MachineConfig::vault_slice(1));
        let report = m.run(10).expect("nothing to do");
        assert_eq!(report.stats.issued, 0);
        assert_eq!(report.vaults, 1);
        assert_eq!(report.pes, 32);
    }

    #[test]
    fn report_bandwidth_of_idle_machine_is_zero() {
        let m = Machine::new(MachineConfig::vault_slice(1));
        let report = m.report();
        assert_eq!(report.dram_bytes(), 0);
        assert_eq!(report.dram_bandwidth_gbs(), 0.0);
    }

    #[test]
    fn mesh_shape_covers_all_vaults() {
        // 16 vaults -> 4x4 mesh; 3 vaults -> 2x2 (one idle node is fine).
        let m = Machine::new(MachineConfig::default());
        assert_eq!(m.mesh_shape, (4, 4));
        let m3 = Machine::new(MachineConfig::vault_slice(3));
        assert!(m3.mesh_shape.0 as usize * m3.mesh_shape.1 as usize >= 3);
    }

    #[test]
    fn node_mapping_is_injective() {
        let m = Machine::new(MachineConfig::default());
        let mut seen = std::collections::HashSet::new();
        for v in 0..16 {
            assert!(seen.insert(m.node_of(v)), "vault {v} collides");
        }
    }

    #[test]
    #[should_panic(expected = "invalid machine config")]
    fn invalid_config_rejected_at_construction() {
        let _ = Machine::new(MachineConfig { cubes: 0, ..MachineConfig::default() });
    }

    #[test]
    fn sim_timeout_formats() {
        let t = SimTimeout { max_cycles: 7, stuck_vaults: vec![0, 3] };
        let s = t.to_string();
        assert!(s.contains('7') && s.contains('2'), "{s}");
    }
}
