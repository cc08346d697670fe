//! Instruction reordering (paper Algorithm 1) and memory-order enforcement
//! (paper Sec. V-C, Fig. 5).
//!
//! Both passes operate on the straight-line regions of the kernel IR after
//! register allocation:
//!
//! 1. A *dependency graph* is built from true/anti/output register
//!    dependences plus conservative memory dependences between same-tagged
//!    aliasing accesses (these are correctness edges and always present).
//! 2. *Memory-order enforcement* optionally adds ordering edges chaining
//!    every DRAM access in program order — deferring bursts of consecutive
//!    memory instructions (which would clog the 16-entry DRAM request
//!    queue) and preserving the input program's row-buffer-friendly access
//!    order.
//! 3. *Reordering* list-schedules the graph: each node carries a
//!    ready-time estimate `T(v)`; ready loads whose `T` has passed are
//!    preferred, otherwise the smallest `T` wins — exposing ILP to the
//!    in-order core exactly as the paper's Algorithm 1 does.
//!
//! Cost: the graph builder keeps, per register and per self-conflicting
//! memory tag, the list of earlier accesses, so each instruction visits
//! only its own predecessors, each a bounded number of times (through its
//! few register operands and its memory tag). Building therefore costs
//! `O(|V| + |E|)`. `|E|` itself can grow quadratically in region length,
//! because a RAW edge runs from *every* earlier writer of a register, not
//! only the last. The scheduler keeps its ready set in two binary heaps
//! keyed by `(T(v), v)`, ready loads and every ready node, and drops a
//! node scheduled from one heap when it surfaces in the other:
//! `O(|V| log |V| + |E|)`. One [`reorder`] call builds and schedules
//! every region in the same buffers (the region copy, access lists,
//! successor lists, indegrees, weights and scheduler arrays): a region
//! grows what earlier regions of the call allocated instead of
//! allocating its own.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ipim_arch::{ExecUnit, LatencyParams};
use ipim_isa::{Instruction, RegRef};

use crate::kb::{straight_regions, Item, MemTag};

/// Algorithm 1's estimate of a DRAM access's bank latency: a row hit.
const ROW_HIT: u64 = 16;

/// The latency a data dependence on `inst` carries into `T(v)`: the unit
/// latency [`LatencyParams::unit_latency`] gives at Table III's defaults,
/// plus [`ROW_HIT`] for a DRAM access.
fn latency_estimate(inst: &Instruction) -> u64 {
    match LatencyParams::default().unit_latency(inst) {
        (ExecUnit::Mem(_), path) => ROW_HIT + path,
        (_, latency) => latency,
    }
}

fn is_dram(inst: &Instruction) -> bool {
    inst.accesses_dram()
}

fn is_load(inst: &Instruction) -> bool {
    matches!(inst, Instruction::LdRf { .. } | Instruction::LdPgsm { .. })
}

/// The dependency graph of one straight region.
///
/// Edges carry a latency weight: data dependences propagate the producer's
/// estimated latency into the consumer's ready time `T(v)`, while pure
/// *ordering* edges (memory-order enforcement) only force schedule order
/// (weight 1) — they must not spread the memory stream apart.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepGraph {
    /// `succ[i]` = (follower, latency weight) pairs.
    pub succ: Vec<Vec<(usize, u64)>>,
    /// Number of predecessors per node.
    pub indegree: Vec<usize>,
    /// Edge count (for complexity assertions in tests).
    pub edges: usize,
}

impl DepGraph {
    /// Empties the graph to `n` edgeless nodes. Successor lists keep their
    /// allocations: surplus ones wait in `spare` for a larger region.
    fn reset(&mut self, n: usize, spare: &mut Vec<Vec<(usize, u64)>>) {
        spare.extend(self.succ.drain(n.min(self.succ.len())..));
        let missing = n - self.succ.len();
        self.succ.extend((0..missing).map(|_| spare.pop().unwrap_or_default()));
        for succ in &mut self.succ {
            succ.clear();
        }
        self.indegree.clear();
        self.indegree.resize(n, 0);
        self.edges = 0;
    }
}

/// Builds the dependency graph of `block`; when `enforce_memory_order` is
/// set, DRAM accesses are additionally chained in program order.
pub fn build_dep_graph(
    block: &[(Instruction, Option<MemTag>)],
    enforce_memory_order: bool,
) -> DepGraph {
    let mut graph = DepGraph::default();
    AccessLists::new().build(block, enforce_memory_order, &mut graph);
    graph
}

/// Registers per file in [`AccessLists`]' flat numbering.
const FILE_REGS: usize = 256;

/// Index of `r` in one flat numbering of the DataRF, then the AddrRF, then
/// the CtrlRF.
fn flat(r: RegRef) -> usize {
    match r {
        RegRef::Data(d) => d.index(),
        RegRef::Addr(a) => FILE_REGS + a.index(),
        RegRef::Ctrl(c) => 2 * FILE_REGS + c.index(),
    }
}

/// The earlier accesses of the region being built, per register and per
/// self-conflicting memory tag, and the builder's per-node arrays. One
/// value serves every region of a [`reorder`] call: after each region only
/// the lists it touched are emptied, and every array is left as it was
/// found.
struct AccessLists {
    /// Per flat register: the earlier instructions that wrote it.
    writers: Vec<Vec<usize>>,
    /// Per flat register: the earlier instructions that read it.
    readers: Vec<Vec<usize>>,
    /// Flat registers whose lists are not empty.
    touched: Vec<usize>,
    /// Per self-conflicting tag: the earlier accesses, and the earlier ones
    /// that write its memory.
    mem: Vec<(MemTag, Vec<usize>, Vec<usize>)>,
    /// Per node: the weight of its edge into the current instruction found
    /// so far (0: none yet; every weight is at least 1). All 0 between
    /// instructions.
    weight: Vec<u64>,
    /// The sources of the current instruction's edges.
    preds: Vec<usize>,
    /// Memory-order edges `(p, j)` no dependence already implies.
    chain: Vec<(usize, usize)>,
    /// Successor lists of larger regions than the current one.
    spare: Vec<Vec<(usize, u64)>>,
}

impl AccessLists {
    fn new() -> Self {
        AccessLists {
            writers: vec![Vec::new(); 3 * FILE_REGS],
            readers: vec![Vec::new(); 3 * FILE_REGS],
            touched: Vec::new(),
            mem: Vec::new(),
            weight: Vec::new(),
            preds: Vec::new(),
            chain: Vec::new(),
            spare: Vec::new(),
        }
    }

    fn touch(&mut self, r: usize) {
        if self.writers[r].is_empty() && self.readers[r].is_empty() {
            self.touched.push(r);
        }
    }

    /// [`build_dep_graph`] over these lists into `graph`, whose previous
    /// contents it replaces.
    fn build(
        &mut self,
        block: &[(Instruction, Option<MemTag>)],
        enforce_memory_order: bool,
        graph: &mut DepGraph,
    ) {
        let n = block.len();
        graph.reset(n, &mut self.spare);
        if self.weight.len() < n {
            self.weight.resize(n, 0);
        }
        // The last load and the last store, which memory-order enforcement
        // chains to the next access of the same kind.
        let (mut prev_load, mut prev_store) = (None, None);

        for (j, (inst, tag)) in block.iter().enumerate() {
            let (weight, preds) = (&mut self.weight, &mut self.preds);
            let mut found = |i: usize, w: u64| {
                if weight[i] == 0 {
                    preds.push(i);
                }
                weight[i] = weight[i].max(w);
            };
            // RAW: every earlier writer of a register j reads; the edge
            // carries the producer's latency.
            inst.for_each_read(|r| {
                for &i in &self.writers[flat(r)] {
                    found(i, latency_estimate(&block[i].0));
                }
            });
            // WAR and WAW: every earlier reader and writer of the register
            // j writes. Anti, output and memory dependences constrain
            // order, not data readiness.
            let written = inst.written().map(flat);
            if let Some(r) = written {
                for &i in self.readers[r].iter().chain(&self.writers[r]) {
                    found(i, 1);
                }
            }
            // Conservative memory dependences: same self-conflicting tag,
            // at least one of the pair writing that memory.
            let mem = tag.filter(MemTag::self_conflicts).map(|t| {
                self.mem.iter().position(|(m, ..)| *m == t).unwrap_or_else(|| {
                    self.mem.push((t, Vec::new(), Vec::new()));
                    self.mem.len() - 1
                })
            });
            let writes_mem = mem_writes(inst);
            if let Some(k) = mem {
                let (_, accesses, mem_writers) = &self.mem[k];
                for &i in if writes_mem { accesses } else { mem_writers } {
                    found(i, 1);
                }
            }
            // Memory-order enforcement (Fig. 5's added edges) chains DRAM
            // accesses of the same kind in program order: the load stream
            // and the store stream each keep the input program's
            // row-buffer-friendly order, while the write buffer decouples
            // the two streams from each other. A dependence edge already
            // orders the pair and weighs at least 1.
            if enforce_memory_order && is_dram(inst) {
                let prev = if is_load(inst) { &mut prev_load } else { &mut prev_store };
                if let Some(p) = prev.replace(j).filter(|&p| self.weight[p] == 0) {
                    self.chain.push((p, j));
                }
            }

            graph.indegree[j] = self.preds.len();
            graph.edges += self.preds.len();
            for i in self.preds.drain(..) {
                graph.succ[i].push((j, self.weight[i]));
                self.weight[i] = 0;
            }

            inst.for_each_read(|r| {
                let r = flat(r);
                if self.readers[r].last() != Some(&j) {
                    self.touch(r);
                    self.readers[r].push(j);
                }
            });
            if let Some(r) = written {
                self.touch(r);
                self.writers[r].push(j);
            }
            if let Some(k) = mem {
                self.mem[k].1.push(j);
                if writes_mem {
                    self.mem[k].2.push(j);
                }
            }
        }
        for r in self.touched.drain(..) {
            self.writers[r].clear();
            self.readers[r].clear();
        }
        self.mem.clear();
        // The ordering edges follow every dependence edge of their source.
        for (p, j) in self.chain.drain(..) {
            graph.succ[p].push((j, 1));
            graph.indegree[j] += 1;
            graph.edges += 1;
        }
    }
}

/// Whether the instruction writes the memory named by its tag.
fn mem_writes(inst: &Instruction) -> bool {
    matches!(
        inst,
        Instruction::StRf { .. }
            | Instruction::StPgsm { .. }
            | Instruction::LdPgsm { .. } // writes the PGSM
            | Instruction::WrPgsm { .. }
            | Instruction::WrVsm { .. }
            | Instruction::SetiVsm { .. }
    )
}

/// A ready node, keyed by `(T(v), v)`: the smallest key is the earliest
/// ready time, original position breaking ties for determinism.
type Ready = Reverse<(u64, usize)>;

/// Algorithm 1's list scheduler, with arrays that one [`reorder`] call
/// reuses for every region.
#[derive(Default)]
struct Scheduler {
    /// Ready-time estimate `T(v)`.
    t: Vec<u64>,
    /// Predecessors not yet scheduled.
    left: Vec<usize>,
    scheduled: Vec<bool>,
    /// Ready loads, and every ready node (loads included). A node
    /// scheduled from one heap stays in the other until it surfaces.
    loads: BinaryHeap<Ready>,
    ready: BinaryHeap<Ready>,
    order: Vec<usize>,
}

impl Scheduler {
    /// Paper Algorithm 1 over `block` and its `graph`: the new order, as
    /// indices into `block`.
    fn schedule(&mut self, block: &[(Instruction, Option<MemTag>)], graph: &DepGraph) -> &[usize] {
        let n = block.len();
        self.t.clear();
        self.t.resize(n, 0);
        self.left.clone_from(&graph.indegree);
        self.scheduled.clear();
        self.scheduled.resize(n, false);
        self.loads.clear();
        self.ready.clear();
        self.order.clear();
        for v in 0..n {
            if self.left[v] == 0 {
                self.push_ready(block, v);
            }
        }
        for step in 1..=n as u64 {
            // Priority: a ready load whose T has passed, else smallest T.
            // A ready node's T is final (all its predecessors are
            // scheduled), so each heap's top is the linear scan's minimum.
            while let Some(&Reverse((_, v))) = self.loads.peek() {
                if !self.scheduled[v] {
                    break;
                }
                self.loads.pop();
            }
            let v = match self.loads.peek() {
                Some(&Reverse((t, v))) if t <= step => {
                    self.loads.pop();
                    v
                }
                _ => loop {
                    let Reverse((_, v)) =
                        self.ready.pop().expect("graph is acyclic so ready is non-empty");
                    if !self.scheduled[v] {
                        break v;
                    }
                },
            };
            self.scheduled[v] = true;
            self.t[v] = self.t[v].max(step);
            self.order.push(v);
            for &(u, w) in &graph.succ[v] {
                self.t[u] = self.t[u].max(self.t[v] + w);
                self.left[u] -= 1;
                if self.left[u] == 0 {
                    self.push_ready(block, u);
                }
            }
        }
        &self.order
    }

    fn push_ready(&mut self, block: &[(Instruction, Option<MemTag>)], v: usize) {
        let key = Reverse((self.t[v], v));
        if is_load(&block[v].0) {
            self.loads.push(key);
        }
        self.ready.push(key);
    }
}

/// Paper Algorithm 1: list-schedules `block` against its dependency graph,
/// returning the new order as indices into the original block.
pub fn schedule_order(block: &[(Instruction, Option<MemTag>)], graph: &DepGraph) -> Vec<usize> {
    Scheduler::default().schedule(block, graph).to_vec()
}

/// Applies memory-order enforcement + reordering to every straight region.
pub fn reorder(items: &mut [Item], enforce_memory_order: bool) {
    let mut lists = AccessLists::new();
    let mut graph = DepGraph::default();
    let mut scheduler = Scheduler::default();
    let mut block: Vec<(Instruction, Option<MemTag>)> = Vec::new();
    for range in straight_regions(items) {
        if range.len() < 2 {
            continue;
        }
        block.clear();
        block.extend(items[range.clone()].iter().map(|it| match it {
            Item::Inst(i, t) => (*i, *t),
            _ => unreachable!("straight regions contain only instructions"),
        }));
        lists.build(&block, enforce_memory_order, &mut graph);
        let order = scheduler.schedule(&block, &graph);
        for (slot, &src) in range.zip(order) {
            items[slot] = Item::Inst(block[src].0, block[src].1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::KernelBuilder;
    use ipim_frontend::SourceId;
    use ipim_isa::{
        AddrOperand, AddrReg, ArfOp, ArfSrc, CompMode, CompOp, CrfOp, CrfSrc, CtrlReg, DataReg,
        DataType, Instruction, RemoteTarget, SimbMask, VecMask,
    };
    use ipim_simkit::check;
    use ipim_simkit::prop::{tuple2, tuple3, tuple4, u32_in, u8_in, vec_of, Gen};

    /// The all-pairs builder [`build_dep_graph`] replaced: every pair of
    /// instructions is compared. The access-list builder must reproduce
    /// its graph field for field.
    fn reference_dep_graph(
        block: &[(Instruction, Option<MemTag>)],
        enforce_memory_order: bool,
    ) -> DepGraph {
        let reads = |inst: &Instruction| {
            let mut out = Vec::new();
            inst.for_each_read(|r| out.push(r));
            out
        };
        let writes = |inst: &Instruction| inst.written().into_iter().collect::<Vec<_>>();
        let n = block.len();
        let mut succ: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
        let mut indegree = vec![0usize; n];
        let mut edges = 0usize;
        let add_edge = |succ: &mut Vec<Vec<(usize, u64)>>,
                        indegree: &mut Vec<usize>,
                        edges: &mut usize,
                        a: usize,
                        b: usize,
                        w: u64| {
            if let Some(e) = succ[a].iter_mut().find(|(t, _)| *t == b) {
                e.1 = e.1.max(w);
                return;
            }
            succ[a].push((b, w));
            indegree[b] += 1;
            *edges += 1;
        };

        for j in 0..n {
            let (bj, tj) = &block[j];
            let rj = reads(bj);
            let wj = writes(bj);
            for (i, (bi, ti)) in block.iter().enumerate().take(j) {
                let ri = reads(bi);
                let wi = writes(bi);
                // Register dependences: RAW, WAR, WAW.
                let raw = wi.iter().any(|w| rj.contains(w));
                let war = ri.iter().any(|r| wj.contains(r));
                let waw = wi.iter().any(|w| wj.contains(w));
                // Conservative memory dependences: same tag,
                // self-conflicting, at least one write to that memory.
                let mem = match (ti, tj) {
                    (Some(a), Some(b)) if a == b && a.self_conflicts() => {
                        mem_writes(bi) || mem_writes(bj)
                    }
                    _ => false,
                };
                if raw {
                    add_edge(&mut succ, &mut indegree, &mut edges, i, j, latency_estimate(bi));
                } else if war || waw || mem {
                    add_edge(&mut succ, &mut indegree, &mut edges, i, j, 1);
                }
            }
        }

        if enforce_memory_order {
            let mut prev_load: Option<usize> = None;
            let mut prev_store: Option<usize> = None;
            for (j, (inst, _)) in block.iter().enumerate() {
                if !is_dram(inst) {
                    continue;
                }
                let prev = if is_load(inst) { &mut prev_load } else { &mut prev_store };
                if let Some(p) = *prev {
                    add_edge(&mut succ, &mut indegree, &mut edges, p, j, 1);
                }
                *prev = Some(j);
            }
        }

        DepGraph { succ, indegree, edges }
    }

    /// Raw encoding of one generated instruction: `(kind, three register
    /// indices, operand-mode bits, (tag variant, tag id))`, kept primitive
    /// so failing blocks shrink structurally.
    type RawInst = (u32, (u8, u8, u8), u32, (u32, u32));

    /// Instruction kinds [`materialize`] knows.
    const KINDS: u32 = 18;

    fn arb_block() -> Gen<Vec<RawInst>> {
        // Few registers per file, so blocks are dense with dependences;
        // equal indices in different files must not alias.
        let reg = || u8_in(0, 5);
        vec_of(
            tuple4(
                u32_in(0, KINDS),
                tuple3(reg(), reg(), reg()),
                u32_in(0, 8),
                tuple2(u32_in(0, 7), u32_in(0, 2)),
            ),
            0,
            40,
        )
    }

    /// Builds every register-touching instruction kind, with every
    /// `MemTag` variant (or none) attached to any of them.
    fn materialize(raw: &[RawInst]) -> Vec<(Instruction, Option<MemTag>)> {
        let m = mask();
        raw.iter()
            .map(|&(kind, (a, b, c), mode, (tag, id))| {
                let (d, ar, cr) = (DataReg::new, AddrReg::new, CtrlReg::new);
                let addr = |bit: u32, r: u8| {
                    if mode & bit != 0 {
                        AddrOperand::Indirect(ar(r))
                    } else {
                        AddrOperand::Imm(16 * r as u32)
                    }
                };
                let crf = |bit: u32, r: u8| {
                    if mode & bit != 0 {
                        CrfSrc::Reg(cr(r))
                    } else {
                        CrfSrc::Imm(r as i32)
                    }
                };
                let inst = match kind {
                    0 => Instruction::Comp {
                        op: [CompOp::Add, CompOp::Mac, CompOp::CvtI2F, CompOp::Div]
                            [mode as usize % 4],
                        dtype: DataType::F32,
                        mode: CompMode::VectorVector,
                        dst: d(a),
                        src1: d(b),
                        src2: d(c),
                        vec_mask: VecMask::ALL,
                        simb_mask: m,
                    },
                    1 => Instruction::CalcArf {
                        op: ArfOp::Add,
                        dst: ar(a),
                        src1: ar(b),
                        src2: if mode & 1 != 0 { ArfSrc::Reg(ar(c)) } else { ArfSrc::Imm(4) },
                        simb_mask: m,
                    },
                    2 | 3 => Instruction::Mov {
                        to_arf: kind == 2,
                        arf: ar(a),
                        drf: d(b),
                        lane: 0,
                        simb_mask: m,
                    },
                    4 => Instruction::LdRf { dram_addr: addr(1, b), drf: d(a), simb_mask: m },
                    5 => Instruction::StRf { dram_addr: addr(1, b), drf: d(a), simb_mask: m },
                    6 => Instruction::LdPgsm {
                        dram_addr: addr(1, a),
                        pgsm_addr: addr(2, b),
                        simb_mask: m,
                    },
                    7 => Instruction::StPgsm {
                        dram_addr: addr(1, a),
                        pgsm_addr: addr(2, b),
                        simb_mask: m,
                    },
                    8 => Instruction::RdPgsm { pgsm_addr: addr(1, b), drf: d(a), simb_mask: m },
                    9 => Instruction::WrPgsm { pgsm_addr: addr(1, b), drf: d(a), simb_mask: m },
                    10 => Instruction::RdVsm { vsm_addr: addr(1, b), drf: d(a), simb_mask: m },
                    11 => Instruction::WrVsm { vsm_addr: addr(1, b), drf: d(a), simb_mask: m },
                    12 => Instruction::SetiVsm { vsm_addr: 16 * a as u32, imm: 1 },
                    13 => Instruction::Req {
                        target: RemoteTarget { chip: 0, vault: 1, pg: 0, pe: 0 },
                        dram_addr: crf(1, a),
                        vsm_addr: crf(2, b),
                    },
                    14 => Instruction::Reset { drf: d(a), simb_mask: m },
                    15 => Instruction::SetiDrf {
                        drf: d(a),
                        imm: 0,
                        vec_mask: VecMask::ALL,
                        simb_mask: m,
                    },
                    16 => Instruction::SetiCrf { dst: cr(a), imm: 1 },
                    _ => Instruction::CalcCrf {
                        op: CrfOp::Add,
                        dst: cr(a),
                        src1: cr(b),
                        src2: crf(1, c),
                    },
                };
                let tag = match tag {
                    0 => None,
                    1 => Some(MemTag::DramBuffer(SourceId(id))),
                    2 => Some(MemTag::DramRmw(SourceId(id))),
                    3 => Some(MemTag::DramSpill(id)),
                    4 => Some(MemTag::Pgsm(SourceId(id))),
                    5 => Some(MemTag::PgsmStage(SourceId(id))),
                    _ => Some(MemTag::Vsm),
                };
                (inst, tag)
            })
            .collect()
    }

    #[test]
    fn dep_graph_matches_all_pairs_reference() {
        check("dep_graph_matches_all_pairs_reference", &arb_block(), |raw| {
            let block = materialize(raw);
            for memory_order in [false, true] {
                assert_eq!(
                    build_dep_graph(&block, memory_order),
                    reference_dep_graph(&block, memory_order),
                    "memory_order={memory_order}"
                );
            }
        });
    }

    /// The linear-scan scheduler [`Scheduler`] replaced: it scans the
    /// whole ready set at every step. The heap scheduler must pick exactly
    /// what it picks.
    fn reference_schedule_order(
        block: &[(Instruction, Option<MemTag>)],
        graph: &DepGraph,
    ) -> Vec<usize> {
        let n = block.len();
        let mut t = vec![0u64; n];
        let mut indegree = graph.indegree.clone();
        let mut ready: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        for step in 1..=n as u64 {
            // Priority: a ready load whose T has passed, else smallest T
            // (original position breaks ties for determinism).
            let pick = ready
                .iter()
                .enumerate()
                .filter(|(_, &v)| is_load(&block[v].0) && t[v] <= step)
                .min_by_key(|(_, &v)| (t[v], v))
                .map(|(i, _)| i)
                .unwrap_or_else(|| {
                    ready
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &v)| (t[v], v))
                        .map(|(i, _)| i)
                        .expect("graph is acyclic so ready is non-empty")
                });
            let v = ready.swap_remove(pick);
            t[v] = t[v].max(step);
            order.push(v);
            for &(u, w) in &graph.succ[v] {
                t[u] = t[u].max(t[v] + w);
                indegree[u] -= 1;
                if indegree[u] == 0 {
                    ready.push(u);
                }
            }
        }
        order
    }

    #[test]
    fn schedule_matches_linear_scan_reference() {
        check("schedule_matches_linear_scan_reference", &arb_block(), |raw| {
            let block = materialize(raw);
            for memory_order in [false, true] {
                let graph = build_dep_graph(&block, memory_order);
                assert_eq!(
                    schedule_order(&block, &graph),
                    reference_schedule_order(&block, &graph),
                    "memory_order={memory_order}"
                );
            }
        });
    }

    #[test]
    fn access_lists_carry_nothing_across_regions() {
        // `reorder` builds and schedules every region with one
        // `AccessLists`, one `DepGraph` and one `Scheduler`: a region's
        // graph (every edge, weight and indegree) and order must not depend
        // on the regions before it, larger or smaller.
        check(
            "access_lists_carry_nothing_across_regions",
            &tuple3(arb_block(), arb_block(), arb_block()),
            |(a, b, c)| {
                let mut lists = AccessLists::new();
                let mut graph = DepGraph::default();
                let mut scheduler = Scheduler::default();
                for (raw, memory_order) in [(a, true), (b, false), (c, true)] {
                    let block = materialize(raw);
                    let reference = reference_dep_graph(&block, memory_order);
                    lists.build(&block, memory_order, &mut graph);
                    assert_eq!(graph, reference, "memory_order={memory_order}");
                    assert_eq!(
                        scheduler.schedule(&block, &graph),
                        reference_schedule_order(&block, &reference)
                    );
                }
            },
        );
    }

    fn mask() -> SimbMask {
        SimbMask::all(32)
    }

    fn comp(dst: u8, a: u8, b: u8) -> Instruction {
        Instruction::Comp {
            op: CompOp::Add,
            dtype: DataType::F32,
            mode: CompMode::VectorVector,
            dst: DataReg::new(dst),
            src1: DataReg::new(a),
            src2: DataReg::new(b),
            vec_mask: VecMask::ALL,
            simb_mask: mask(),
        }
    }

    fn ld(addr: u32, drf: u8) -> Instruction {
        Instruction::LdRf {
            dram_addr: AddrOperand::Imm(addr),
            drf: DataReg::new(drf),
            simb_mask: mask(),
        }
    }

    fn st(addr: u32, drf: u8) -> Instruction {
        Instruction::StRf {
            dram_addr: AddrOperand::Imm(addr),
            drf: DataReg::new(drf),
            simb_mask: mask(),
        }
    }

    fn tag(s: u32) -> Option<MemTag> {
        Some(MemTag::DramBuffer(SourceId(s)))
    }

    #[test]
    fn raw_dependences_preserved() {
        let block = vec![(ld(0, 1), tag(0)), (comp(2, 1, 1), None), (st(16, 2), tag(1))];
        let graph = build_dep_graph(&block, false);
        let order = schedule_order(&block, &graph);
        let pos = |i: usize| order.iter().position(|&v| v == i).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(1) < pos(2));
    }

    #[test]
    fn independent_load_hoisted_above_compute() {
        // c = a+a ; d = b+b ; ld x — the load is independent and should
        // move before at least one compute (Algorithm 1 prefers ready
        // loads).
        let block = vec![
            (comp(2, 1, 1), None),
            (comp(3, 2, 2), None),
            (comp(4, 3, 3), None),
            (ld(0, 5), tag(0)),
        ];
        let graph = build_dep_graph(&block, false);
        let order = schedule_order(&block, &graph);
        let load_pos = order.iter().position(|&v| v == 3).unwrap();
        assert!(load_pos < 3, "load should be hoisted: {order:?}");
    }

    #[test]
    fn war_and_waw_block_reordering() {
        // st reads r2; the comp after writes r2 (WAR) — order must hold.
        let block = vec![(st(0, 2), tag(0)), (comp(2, 1, 1), None)];
        let graph = build_dep_graph(&block, false);
        assert!(graph.succ[0].iter().any(|(t, _)| *t == 1));
        // WAW:
        let block = vec![(comp(2, 1, 1), None), (comp(2, 3, 3), None)];
        let graph = build_dep_graph(&block, false);
        assert!(graph.succ[0].iter().any(|(t, _)| *t == 1));
    }

    #[test]
    fn rmw_memory_conflicts_are_ordered() {
        let t = Some(MemTag::DramRmw(SourceId(7)));
        let block = vec![(ld(0, 1), t), (st(0, 1), t), (ld(0, 2), t)];
        let graph = build_dep_graph(&block, false);
        // ld→st (reg RAW + mem), st→ld (mem).
        assert!(graph.succ[1].iter().any(|(t, _)| *t == 2));
    }

    #[test]
    fn disjoint_buffer_accesses_not_ordered() {
        let block = vec![(st(0, 1), tag(0)), (st(16, 2), tag(0))];
        let graph = build_dep_graph(&block, false);
        assert!(graph.succ[0].is_empty(), "disjoint stores may reorder");
    }

    #[test]
    fn memory_order_chains_dram_accesses() {
        let block = vec![(ld(0, 1), tag(0)), (comp(3, 1, 1), None), (ld(16, 2), tag(0))];
        let without = build_dep_graph(&block, false);
        assert!(!without.succ[0].iter().any(|(t, _)| *t == 2));
        let with = build_dep_graph(&block, true);
        assert!(with.succ[0].iter().any(|(t, _)| *t == 2), "loads chained in program order");
    }

    #[test]
    fn reorder_is_a_permutation() {
        let mut kb = KernelBuilder::new();
        kb.begin_straight();
        kb.push_mem(ld(0, 1), MemTag::DramBuffer(SourceId(0)));
        kb.push_mem(ld(16, 2), MemTag::DramBuffer(SourceId(0)));
        kb.push(comp(3, 1, 2));
        kb.push_mem(st(32, 3), MemTag::DramBuffer(SourceId(1)));
        kb.end_straight();
        let mut items = kb.finish();
        let before: Vec<_> = items
            .iter()
            .filter_map(|i| match i {
                Item::Inst(inst, _) => Some(*inst),
                _ => None,
            })
            .collect();
        reorder(&mut items, true);
        let mut after: Vec<_> = items
            .iter()
            .filter_map(|i| match i {
                Item::Inst(inst, _) => Some(*inst),
                _ => None,
            })
            .collect();
        assert_eq!(after.len(), before.len());
        // Same multiset of instructions.
        let key = |i: &Instruction| format!("{i}");
        let mut b: Vec<_> = before.iter().map(key).collect();
        let mut a: Vec<_> = after.iter().map(key).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // And the store still comes last (it depends on everything).
        after.retain(|i| matches!(i, Instruction::StRf { .. }));
        assert_eq!(after.len(), 1);
    }

    #[test]
    fn schedule_handles_empty_and_single() {
        let block: Vec<(Instruction, Option<MemTag>)> = vec![];
        let graph = build_dep_graph(&block, true);
        assert!(schedule_order(&block, &graph).is_empty());
    }
}
