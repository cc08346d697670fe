//! The traced, decomposed form of one bit-exact job: the public calls
//! `Session::simulate` composes (`Machine::new`, `host::upload`,
//! `load_program_all`, `Machine::run`, `host::read_back`), each in its own
//! span, plus the arch/dram/noc counters the job's report and metrics hold.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use ipim_core::frontend::{Image, SourceId};
use ipim_core::trace::{Metric, MetricsRegistry, Record, TraceEvent, TraceSink};
use ipim_core::{host, CompiledProgram, ExecutionReport, Machine, MachineConfig};

use crate::spans::{mean_ms, Recorder, Span};
use crate::stats::ratio;

/// Counts the skip-ahead engine's `SkipWindow` events and ignores the rest,
/// so a whole 128² run fits without a ring buffer (nothing is dropped).
#[derive(Debug, Default, Clone, Copy)]
pub struct SkipCount {
    /// Windows jumped.
    pub windows: u64,
    /// Cycles jumped.
    pub cycles: u64,
}

impl TraceSink for SkipCount {
    fn record(&mut self, rec: Record) {
        if let TraceEvent::SkipWindow { delta } = rec.event {
            self.windows += 1;
            self.cycles += delta;
        }
    }
}

/// What one decomposed job produced.
pub struct Replayed {
    /// The execution report.
    pub report: ExecutionReport,
    /// The output image read back.
    pub output: Image,
    /// `Machine::metrics` after the run.
    pub metrics: MetricsRegistry,
    /// Skip windows seen while it ran.
    pub skip: SkipCount,
    /// Host ns inside `Machine::run`.
    pub run_ns: u64,
}

/// Runs `program` on a fresh machine through the decomposed public calls,
/// recording `arch.build`, `arch.run` and `arch.readback` spans under
/// `parent`.
pub fn replay(
    rec: &Recorder,
    parent: Option<u64>,
    req: Option<u64>,
    config: &MachineConfig,
    program: &CompiledProgram,
    inputs: &[(SourceId, Image)],
    max_cycles: u64,
) -> Result<Replayed, String> {
    let sink = Rc::new(RefCell::new(SkipCount::default()));
    let mut machine = rec.time("arch.build", parent, req, || {
        let mut m = Machine::new(config.clone());
        m.attach_trace(sink.clone());
        for (src, img) in inputs {
            host::upload(&mut m, &program.map, *src, img);
        }
        m.load_program_all(&program.program);
        m
    });
    let open = rec.open("arch.run", parent, req);
    let report = machine.run(max_cycles);
    let run_ns = rec.close(open);
    let report = report.map_err(|e| format!("simulation: {e}"))?;
    let output = rec.time("arch.readback", parent, req, || {
        host::read_back(&machine, &program.map, program.output_source())
    });
    let metrics = machine.metrics();
    let skip = *sink.borrow();
    Ok(Replayed { report, output, metrics, skip, run_ns })
}

/// Sums of the counters behind the arch, dram and noc layer metrics.
/// Host counters cover every run; modelled counters cover each distinct
/// job once, so they do not depend on how many times a job repeated.
#[derive(Debug, Default)]
pub struct Totals {
    runs: u64,
    run_ns: u64,
    run_cycles: u64,
    run_issued: u64,
    skip_windows: u64,
    skipped: u64,
    cycles: u64,
    vault_cycles: u64,
    issued: u64,
    stalls: [u64; 6],
    row_hits: u64,
    row_accesses: u64,
    acts: u64,
    reads: u64,
    writes: u64,
    dram_bytes: u64,
    flit_hops: u64,
    credit_stalls: u64,
    serdes_bits: u64,
}

fn counter_sum(m: &MetricsRegistry, suffix: &str) -> u64 {
    m.iter()
        .filter(|(path, _)| path.ends_with(suffix))
        .map(|(_, v)| if let Metric::Counter(c) = v { *c } else { 0 })
        .sum()
}

impl Totals {
    /// Adds one run's host time and engine bookkeeping.
    pub fn add_run(&mut self, r: &Replayed) {
        self.runs += 1;
        self.run_ns += r.run_ns;
        self.run_cycles += r.metrics.counter("machine/cycles");
        self.run_issued += r.report.stats.issued;
        self.skip_windows += r.skip.windows;
        self.skipped += r.skip.cycles;
    }

    /// Adds one distinct job's modelled counters.
    pub fn add_job(&mut self, r: &Replayed) {
        let rep = &r.report;
        let s = &rep.stats.stalls;
        self.cycles += rep.cycles;
        self.vault_cycles += rep.stats.cycles * rep.vaults as u64;
        self.issued += rep.stats.issued;
        let stalls = [s.hazard, s.queue_full, s.tsv, s.branch, s.sync, s.vsm_interlock];
        for (acc, v) in self.stalls.iter_mut().zip(stalls) {
            *acc += v;
        }
        let loc = &rep.locality;
        self.row_hits += loc.row_hits;
        self.row_accesses += loc.row_hits + loc.row_misses + loc.row_conflicts;
        self.acts += rep.bank_stats.acts;
        self.reads += rep.bank_stats.reads;
        self.writes += rep.bank_stats.writes;
        self.dram_bytes += rep.dram_bytes();
        self.flit_hops += counter_sum(&r.metrics, "/mesh/flit_hops");
        self.credit_stalls += counter_sum(&r.metrics, "/mesh/credit_stalls");
        self.serdes_bits += r.metrics.counter("machine/serdes_bits");
    }

    /// Writes the arch, dram and noc layer metrics: host times from the
    /// spans, ratios over the summed counters. Stall shares and IPC are
    /// per vault-cycle.
    pub fn write(&self, spans: &[Span], layers: &mut BTreeMap<&'static str, f64>) {
        if self.runs == 0 {
            return;
        }
        let f = |v: u64| v as f64;
        layers.insert("arch.run_ms", mean_ms(spans, "arch.run"));
        layers.insert("arch.build_ms", mean_ms(spans, "arch.build"));
        layers.insert("arch.readback_ms", mean_ms(spans, "arch.readback"));
        layers.insert("arch.sim_mcps", ratio(f(self.run_cycles), f(self.run_ns) / 1e3));
        layers.insert("arch.ns_per_issue", ratio(f(self.run_ns), f(self.run_issued)));
        layers.insert("arch.skip_ratio", ratio(f(self.skipped), f(self.run_cycles)));
        layers.insert("arch.skip_window_cycles", ratio(f(self.skipped), f(self.skip_windows)));
        layers.insert("arch.ipc", ratio(f(self.issued), f(self.vault_cycles)));
        let stall_names = [
            "arch.stall.hazard",
            "arch.stall.queue_full",
            "arch.stall.tsv",
            "arch.stall.branch",
            "arch.stall.sync",
            "arch.stall.vsm_interlock",
        ];
        for (name, v) in stall_names.into_iter().zip(self.stalls) {
            layers.insert(name, ratio(f(v), f(self.vault_cycles)));
        }
        layers.insert("dram.row_hit_ratio", ratio(f(self.row_hits), f(self.row_accesses)));
        layers.insert("dram.acts", f(self.acts));
        layers.insert("dram.reads", f(self.reads));
        layers.insert("dram.writes", f(self.writes));
        layers.insert("dram.bytes_per_cycle", ratio(f(self.dram_bytes), f(self.cycles)));
        layers.insert("noc.flit_hops", f(self.flit_hops));
        layers.insert("noc.credit_stalls", f(self.credit_stalls));
        layers.insert("noc.serdes_bits", f(self.serdes_bits));
    }
}
