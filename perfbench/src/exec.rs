//! Runs cells and passes. A direct cell goes through the crates' public
//! entry points one call at a time (`Machine::new`, kernel `install`,
//! `Machine::run`, kernel `verify`); a `figures` pass goes through
//! `sweep::run_specs_profiled` in the per-figure batches. Every cell runs
//! under `catch_unwind`, so a verifier panic, a deadlock panic or a digest
//! mismatch becomes a counted failure instead of an abort.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use kernels::runner::KernelSpec;
use kernels::workloads::{BarrierWorkload, LockWorkload, ReductionWorkload};
use kernels::{barriers, locks, reductions};
use ppc_bench::sweep::{self, CellSource, RunSpec, SweepOptions};
use sim_machine::{Machine, MachineConfig, RunResult};
use sim_stats::HostObsReport;

use crate::calib::{self, Probe};
use crate::cells::{Batch, Cell};
use crate::digest::{Checker, Digest};
use crate::spans::Spans;

/// Counts and host times one pass accumulates for the layer metrics.
/// Host-profile fields stay zero unless the pass ran with hostobs.
#[derive(Debug, Clone, Default)]
pub struct LayerAcc {
    pub new_ns: u64,
    pub install_ns: u64,
    pub run_ns: u64,
    pub verify_ns: u64,
    pub events: u64,
    pub instructions: u64,
    /// Summed `RunResult::host` fields.
    pub host_wall_ns: u64,
    pub host_accounted_ns: u64,
    /// Dispatch-category nanos, keyed by the profiler's own names.
    pub host_cats: BTreeMap<&'static str, u64>,
    pub scheduled: u64,
    pub far_spills: u64,
    pub peak_depth: u64,
    pub updates: u64,
    pub useful_updates: u64,
    pub misses: u64,
    pub messages: u64,
    pub flits: u64,
    pub hops: u64,
    /// Highest per-node memory-module and receive-port utilization.
    pub dram_busy_max: f64,
    pub rx_busy_max: f64,
    /// Sweep pool (figures only).
    pub pool_busy_ns: u64,
    pub pool_avail_ns: u64,
    pub batch_tail_ns: u64,
    pub cells_simulated: u64,
    pub memo_hits: u64,
}

impl LayerAcc {
    fn add_traffic(&mut self, d: &Digest) {
        // Digest order: [true, false, prolif, repl, term, drop] updates;
        // [cold, true, false, evict, drop, excl] misses.
        self.updates += d.updates.iter().sum::<u64>();
        self.useful_updates += d.updates[0];
        self.misses += d.misses[..5].iter().sum::<u64>();
        self.messages += d.net[0];
        self.flits += d.net[2];
        self.hops += d.net[3];
    }

    fn add_run(&mut self, r: &RunResult) {
        self.instructions += r.instructions;
        let cycles = r.cycles.max(1) as f64;
        for n in &r.per_node {
            self.dram_busy_max = self.dram_busy_max.max(n.mem_busy as f64 / cycles);
            self.rx_busy_max = self.rx_busy_max.max(n.rx_busy as f64 / cycles);
        }
        if let Some(h) = r.host.as_deref() {
            self.add_host(h);
        }
    }

    fn add_host(&mut self, h: &HostObsReport) {
        self.host_wall_ns += h.wall_nanos;
        self.host_accounted_ns += h.accounted_nanos();
        for c in &h.cats {
            *self.host_cats.entry(c.name).or_default() += c.nanos;
        }
        self.scheduled += h.queue.scheduled;
        self.far_spills += h.queue.far_spills;
        self.peak_depth = self.peak_depth.max(h.queue.peak_depth);
    }
}

/// One pass over a workload's cells.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host time to simulate and verify every cell (figures: the sweep
    /// batches; the cache-key pass is set-up, not wall).
    pub wall_ns: u64,
    /// `Machine::new` + `install` over the cells (figures: the key pass).
    pub setup_ns: u64,
    /// Simulated instructions retired in this pass.
    pub instructions: u64,
    /// Host time of each simulated cell.
    pub cell_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// `(cell label, reason)` of each failed cell.
    pub failures: Vec<(String, String)>,
    /// Broken benchmark invariants (memo isolation); these make the run
    /// incorrect even when no cell failed.
    pub broken: Vec<String>,
    pub layer: LayerAcc,
    /// Host-speed probe times taken during the pass, in seconds.
    pub probes: Vec<f64>,
}

impl Pass {
    /// `ns` host nanoseconds of this pass as calibrated seconds.
    pub fn secs(&self, ns: u64) -> f64 {
        ns as f64 / 1e9 * calib::factor(&self.probes)
    }

    fn probe(&mut self, probe: &mut Probe, threads: usize) -> Duration {
        let (time, took) = probe.run(threads);
        self.probes.push(time);
        took
    }
}

/// Installed kernel plus what its verifier needs.
enum Installed {
    Lock(LockWorkload, locks::LockLayout),
    Barrier(BarrierWorkload, barriers::BarrierLayout),
    Reduction(ReductionWorkload, reductions::ReductionLayout),
}

fn install(m: &mut Machine, kernel: &KernelSpec) -> Installed {
    match *kernel {
        KernelSpec::Lock(w) => Installed::Lock(w, locks::install(m, &w)),
        KernelSpec::Barrier(w) => Installed::Barrier(w, barriers::install(m, &w)),
        KernelSpec::Reduction(w) => Installed::Reduction(w, reductions::install(m, &w)),
    }
}

fn verify(m: &mut Machine, inst: &Installed) {
    match inst {
        Installed::Lock(w, l) => locks::verify(m, w, l),
        Installed::Barrier(w, l) => barriers::verify(m, w, l),
        Installed::Reduction(w, l) => reductions::verify(m, w, l),
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string());
    format!("panic: {msg}")
}

/// The cell with the host profiler on (the traced run's extra layer
/// detail: dispatch categories and event-queue analytics).
pub fn with_hostobs(c: &Cell) -> Cell {
    let mut c = c.clone();
    c.cfg.hostobs = MachineConfig::paper_hostobs(c.spec.procs, c.spec.protocol).hostobs;
    c
}

/// The cell with the sim-stats collectors off.
pub fn without_obs(c: &Cell) -> Cell {
    let mut c = c.clone();
    c.cfg.obs = MachineConfig::paper(c.spec.procs, c.spec.protocol).obs;
    c
}

/// Where a traced pass hangs its spans.
pub struct Trace<'a> {
    pub spans: &'a mut Spans,
    pub parent: usize,
    pub pass: usize,
}

/// Builds, installs, runs and verifies one cell: the result, the events
/// dispatched, and the instants before `Machine::new`, after it, after
/// `install`, after `Machine::run` and after `verify`.
pub fn simulate(cell: &Cell) -> (RunResult, u64, [Instant; 5]) {
    let t0 = Instant::now();
    let mut m = Machine::new(cell.cfg.clone());
    let t1 = Instant::now();
    let inst = install(&mut m, &cell.spec.kernel);
    let t2 = Instant::now();
    let r = m.run();
    let t3 = Instant::now();
    verify(&mut m, &inst);
    let t4 = Instant::now();
    (r, m.events_dispatched(), [t0, t1, t2, t3, t4])
}

/// One direct pass: every cell, serially, in order.
pub fn direct_pass(
    cells: &[Cell],
    checker: &mut Checker,
    probe: &mut Probe,
    mut trace: Option<Trace>,
) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    let mut probing = Duration::ZERO;
    for cell in cells {
        pass.attempted += 1;
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| simulate(cell)));
        let t_end = Instant::now();
        probing += pass.probe(probe, 1);
        let cell_id = trace.as_ref().map(|t| format!("pass{}/{}", t.pass, cell.label)).unwrap_or_default();
        let cell_span = trace.as_mut().map(|t| t.spans.add("cell", t.parent, &cell_id, t0, t_end));
        let (r, events, [_, t1, t2, t3, t4]) = match outcome {
            Ok(done) => done,
            Err(payload) => {
                pass.failed += 1;
                pass.failures.push((cell.label.clone(), panic_text(payload)));
                continue;
            }
        };
        if let (Some(t), Some(id)) = (trace.as_mut(), cell_span) {
            for (name, a, b) in
                [("Machine::new", t0, t1), ("install", t1, t2), ("Machine::run", t2, t3), ("verify", t3, t4)]
            {
                t.spans.add(name, id, &cell_id, a, b);
            }
        }
        let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as u64;
        pass.setup_ns += ns(t0, t2);
        pass.cell_ns.push(ns(t0, t_end));
        let l = &mut pass.layer;
        l.new_ns += ns(t0, t1);
        l.install_ns += ns(t1, t2);
        l.run_ns += ns(t2, t3);
        l.verify_ns += ns(t3, t4);
        l.events += events;
        l.add_run(&r);
        let digest = Digest::of_run(&r);
        l.add_traffic(&digest);
        if let Err(why) = checker.check(&cell.label, cell.seeded(), &digest) {
            pass.failed += 1;
            pass.failures.push((cell.label.clone(), why));
        }
    }
    pass.wall_ns = (start.elapsed() - probing).as_nanos() as u64;
    pass.instructions = pass.layer.instructions;
    pass
}

/// One `figures` pass: the cache-key pass (set-up), then the nine sweep
/// batches with the disk cache off and the memo table cleared first.
pub fn figures_pass(
    batches: &[Batch],
    workers: usize,
    unique: usize,
    checker: &mut Checker,
    probe: &mut Probe,
    mut trace: Option<Trace>,
) -> Pass {
    let mut pass = Pass::default();
    let specs: Vec<Vec<RunSpec>> = batches
        .iter()
        .map(|b| b.cells.iter().map(|c| RunSpec::with_config(c.spec, c.cfg.clone())).collect())
        .collect();
    let cell_id = |pass_no: usize, c: &Cell| format!("pass{pass_no}/{}", c.label);

    // Set-up: one cache key per cell, each building and installing a
    // throwaway machine.
    let keys_span = trace.as_mut().map(|t| t.spans.open("keys", Some(t.parent)));
    let t_keys = Instant::now();
    let keyed = catch_unwind(AssertUnwindSafe(|| {
        let mut times = Vec::new();
        for spec in specs.iter().flatten() {
            let a = Instant::now();
            std::hint::black_box(spec.cache_key());
            times.push((a, Instant::now()));
        }
        times
    }));
    pass.setup_ns = t_keys.elapsed().as_nanos() as u64;
    if let (Some(t), Some(parent), Ok(times)) = (trace.as_mut(), keys_span, keyed.as_ref()) {
        t.spans.close(parent);
        for (c, (a, b)) in batches.iter().flat_map(|b| &b.cells).zip(times) {
            t.spans.add("cache_key", parent, &cell_id(t.pass, c), *a, *b);
        }
    }
    if let Err(payload) = keyed {
        let why = panic_text(payload);
        for c in batches.iter().flat_map(|b| &b.cells) {
            pass.attempted += 1;
            pass.failed += 1;
            pass.failures.push((c.label.clone(), format!("cache key: {why}")));
        }
        return pass;
    }

    sweep::clear_memo();
    let opts = SweepOptions { workers, disk_cache: None };
    let (mut simulated, mut from_memory, mut from_disk) = (0, 0, 0);
    for (batch, specs) in batches.iter().zip(&specs) {
        pass.attempted += batch.cells.len() as u64;
        let batch_span = trace.as_mut().map(|t| t.spans.open("batch", Some(t.parent)));
        let t0 = Instant::now();
        let ran = catch_unwind(AssertUnwindSafe(|| sweep::run_specs_profiled(specs, &opts)));
        pass.wall_ns += t0.elapsed().as_nanos() as u64;
        pass.probe(probe, opts.workers);
        let (outs, stats, profile) = match ran {
            Ok(done) => done,
            Err(payload) => {
                let why = panic_text(payload);
                pass.failed += batch.cells.len() as u64;
                pass.failures
                    .extend(batch.cells.iter().map(|c| (c.label.clone(), format!("{}: {why}", batch.name))));
                continue;
            }
        };
        simulated += stats.simulated;
        from_memory += stats.from_memory;
        from_disk += stats.from_disk;
        let l = &mut pass.layer;
        l.pool_busy_ns += profile.worker_busy_ns().iter().sum::<u64>();
        l.pool_avail_ns += profile.wall_ns * profile.workers as u64;
        for w in 0..profile.workers {
            let last_end =
                profile.cells.iter().filter(|c| c.worker == w).map(|c| c.end_ns).max().unwrap_or(0);
            l.batch_tail_ns += profile.wall_ns.saturating_sub(last_end);
        }
        if let (Some(t), Some(id)) = (trace.as_mut(), batch_span) {
            t.spans.close(id);
            t.spans.note(id, batch.name);
            for rec in &profile.cells {
                let at = |ns: u64| t0 + Duration::from_nanos(ns);
                let c = &batch.cells[rec.index];
                let span = t.spans.add("cell", id, &cell_id(t.pass, c), at(rec.start_ns), at(rec.end_ns));
                t.spans.note(span, &format!("worker={} source={}", rec.worker, rec.source.name()));
            }
        }
        for ((cell, out), rec) in batch.cells.iter().zip(&outs).zip(&profile.cells) {
            let digest = Digest::of_outcome(out);
            if rec.source == CellSource::Simulated {
                pass.cell_ns.push(rec.duration_ns());
                pass.instructions += checker.instructions(&cell.label);
                pass.layer.add_traffic(&digest);
            }
            if let Err(why) = checker.check(&cell.label, cell.seeded(), &digest) {
                pass.failed += 1;
                pass.failures.push((cell.label.clone(), why));
            }
        }
    }
    pass.layer.cells_simulated = simulated as u64;
    pass.layer.memo_hits = from_memory as u64;
    if pass.failed == 0 && (from_disk != 0 || simulated != unique) {
        pass.broken.push(format!(
            "memo isolation: {simulated} cells simulated (want {unique}), {from_disk} from disk (want 0)"
        ));
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{direct_cells, figure_batches, unique_figure_cells, Workload, DEFAULT_SEED};
    use sim_proto::Protocol;

    fn update_cell(label_prefix: &str) -> Cell {
        direct_cells(Workload::Update32p, DEFAULT_SEED)
            .into_iter()
            .find(|c| c.spec.protocol == Protocol::CompetitiveUpdate && c.label.starts_with(label_prefix))
            .expect("update-32p has the cell")
    }

    #[test]
    fn a_perturbed_cell_trips_the_digest_check() {
        let cell = update_cell("MCS");
        let mut perturbed = cell.clone();
        perturbed.cfg.cu_threshold = 1;
        let pass = direct_pass(&[cell, perturbed], &mut Checker::new(DEFAULT_SEED), &mut Probe::new(), None);
        assert_eq!((pass.attempted, pass.failed), (2, 1), "{:?}", pass.failures);
        assert!(pass.failures[0].1.starts_with("digest mismatch"), "{:?}", pass.failures);
    }

    #[test]
    fn a_panicking_cell_is_a_counted_failure() {
        let mut stuck = update_cell("tk");
        stuck.cfg.max_cycles = 1_000;
        let fine = update_cell("cb");
        let pass = direct_pass(&[stuck, fine], &mut Checker::new(DEFAULT_SEED), &mut Probe::new(), None);
        assert_eq!((pass.attempted, pass.failed), (2, 1));
        assert!(pass.failures[0].1.starts_with("panic:"), "{:?}", pass.failures);
        assert_eq!(pass.cell_ns.len(), 1, "the cell after the panic still ran");
    }

    #[test]
    fn the_seed_moves_only_the_random_delay_digests() {
        let digests = |seed: u64| -> Vec<(bool, Digest)> {
            direct_cells(Workload::Inval32p, seed)
                .iter()
                .map(|c| (c.seeded(), Digest::of_run(&simulate(c).0)))
                .collect()
        };
        let (a, b) = (digests(DEFAULT_SEED), digests(7));
        assert!(a.iter().any(|(seeded, _)| *seeded));
        for ((seeded, da), (_, db)) in a.iter().zip(&b) {
            assert_eq!(*seeded, da != db, "seeded={seeded}: {da:?} vs {db:?}");
        }
        // Off the default seed the checker holds seeded cells to their
        // first pass instead of the reference.
        let cells = direct_cells(Workload::Inval32p, 7);
        let mut checker = Checker::new(7);
        for _ in 0..2 {
            let pass = direct_pass(&cells, &mut checker, &mut Probe::new(), None);
            assert_eq!(pass.failed, 0, "{:?}", pass.failures);
        }
    }

    #[test]
    fn every_figures_pass_simulates_every_unique_cell() {
        let batches = figure_batches(DEFAULT_SEED);
        let mut checker = Checker::new(DEFAULT_SEED);
        for _ in 0..2 {
            let pass =
                figures_pass(&batches, 2, unique_figure_cells(), &mut checker, &mut Probe::new(), None);
            assert_eq!((pass.attempted, pass.failed), (184, 0), "{:?}", pass.failures);
            assert!(pass.broken.is_empty(), "{:?}", pass.broken);
            assert_eq!((pass.layer.cells_simulated, pass.layer.memo_hits), (144, 40));
        }
    }
}
