//! The benchmark's workloads, built cell by cell with explicit counts and
//! seed. Nothing here reads the environment: `PPC_SCALE` and the other
//! harness knobs never reach a cell (the binary refuses to start when any
//! `PPC_*` variable is set).

use kernels::runner::{ExperimentSpec, KernelSpec};
use kernels::workloads::{
    BarrierKind, BarrierWorkload, LockKind, LockWorkload, PostRelease, ReductionKind, ReductionWorkload,
};
use sim_machine::MachineConfig;
use sim_proto::Protocol;

/// The seed the reference digests were recorded at (the paper machine's
/// own default, so default-seed cells are exactly the figure cells).
pub const DEFAULT_SEED: u64 = 0x5eed;

/// Lock acquisitions per lock cell (the paper runs 32000).
const LOCK_ACQUIRES: u32 = 3_200;
/// Episodes per barrier or reduction cell (the paper runs 5000).
const EPISODES: u32 = 500;
/// The `observed` workload's smaller counts: the collectors make every
/// event about three times as costly.
const OBSERVED_LOCK_ACQUIRES: u32 = 1_600;
const OBSERVED_EPISODES: u32 = 250;
/// Critical-section length of the lock program (paper: 50 cycles).
const CS_CYCLES: u32 = 50;
/// Machine sizes of the latency figures.
const PROC_SWEEP: [usize; 6] = [1, 2, 4, 8, 16, 32];
/// Machine size of the traffic figures and the direct-call workloads.
const BIG: usize = 32;

const WI: Protocol = Protocol::WriteInvalidate;
const PU: Protocol = Protocol::PureUpdate;
const CU: Protocol = Protocol::CompetitiveUpdate;
const PROTOCOLS: [Protocol; 3] = [WI, PU, CU];

/// One benchmark workload; each runs in a process of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Figures,
    Inval32p,
    Update32p,
    Observed,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Figures, Workload::Inval32p, Workload::Update32p, Workload::Observed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Figures => "figures",
            Workload::Inval32p => "inval-32p",
            Workload::Update32p => "update-32p",
            Workload::Observed => "observed",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload is in the benchmark and which layer it bypasses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Figures => {
                "every cell of Figures 8-16 in the nine sweep batches all_figures issues, the job users run; the only one using the pool, memo dedup and batch tails; bypasses the sim-stats collectors"
            }
            Workload::Inval32p => {
                "WI at 32 procs, direct calls: the directory, ownership and miss path; bypasses update fan-out and classification"
            }
            Workload::Update32p => {
                "PU and CU at 32 procs, direct calls: update fan-out, the update classifier and message volume; bypasses the WI invalidation path"
            }
            Workload::Observed => {
                "MCS lock, centralized barrier and parallel reduction under WI/PU/CU with the sim-stats collectors on, the only workload paying for the stats hooks; bypasses the sweep pool"
            }
        }
    }

    /// Passes every run makes at least, so the tail percentile has ten
    /// cells beyond it whatever the host speed.
    pub fn min_passes(self) -> usize {
        match self {
            Workload::Figures => 3,
            Workload::Inval32p | Workload::Observed => 12,
            Workload::Update32p => 6,
        }
    }
}

/// One simulation: an experiment and the full machine it runs on.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Stable name: kernel, count, protocol and size. Cells with equal
    /// labels simulate identically (observing never perturbs a run), so
    /// they share one reference digest.
    pub label: String,
    pub spec: ExperimentSpec,
    pub cfg: MachineConfig,
}

impl Cell {
    fn new(tag: &str, kernel: KernelSpec, protocol: Protocol, procs: usize, seed: u64) -> Cell {
        let mut cfg = MachineConfig::paper(procs, protocol);
        cfg.seed = seed;
        Cell {
            label: format!("{tag}-{}-p{procs}", protocol.label()),
            spec: ExperimentSpec { procs, protocol, kernel },
            cfg,
        }
    }

    /// The cell with the sim-stats collectors on.
    fn observed(mut self) -> Cell {
        self.cfg.obs = MachineConfig::paper_observed(self.spec.procs, self.spec.protocol).obs;
        self
    }

    /// Whether the seed reaches the simulated result (only the
    /// random-delay lock draws from the per-processor streams).
    pub fn seeded(&self) -> bool {
        matches!(
            self.spec.kernel,
            KernelSpec::Lock(LockWorkload { post_release: PostRelease::Random { .. }, .. })
        )
    }
}

fn lock(kind: LockKind, total_acquires: u32, post_release: PostRelease) -> KernelSpec {
    KernelSpec::Lock(LockWorkload { kind, total_acquires, cs_cycles: CS_CYCLES, post_release })
}

fn barrier(kind: BarrierKind, episodes: u32) -> KernelSpec {
    KernelSpec::Barrier(BarrierWorkload { kind, episodes })
}

fn reduction(kind: ReductionKind, episodes: u32) -> KernelSpec {
    KernelSpec::Reduction(ReductionWorkload { kind, episodes, skew: 0 })
}

fn locks() -> Vec<(String, KernelSpec)> {
    [LockKind::Ticket, LockKind::Mcs, LockKind::McsUpdateConscious]
        .into_iter()
        .map(|k| (format!("{}{LOCK_ACQUIRES}", k.label()), lock(k, LOCK_ACQUIRES, PostRelease::None)))
        .collect()
}

fn barriers() -> Vec<(String, KernelSpec)> {
    [BarrierKind::Centralized, BarrierKind::Dissemination, BarrierKind::Tree]
        .into_iter()
        .map(|k| (format!("{}{EPISODES}", k.label()), barrier(k, EPISODES)))
        .collect()
}

fn reductions() -> Vec<(String, KernelSpec)> {
    [ReductionKind::Sequential, ReductionKind::Parallel]
        .into_iter()
        .map(|k| (format!("{}{EPISODES}", k.label()), reduction(k, EPISODES)))
        .collect()
}

/// The eight paper kernels plus the seeded Section 4.1 random-delay lock.
fn direct_kernels() -> Vec<(String, KernelSpec)> {
    let mut ks = locks();
    ks.extend(barriers());
    ks.extend(reductions());
    // MCS, because at 32 processors the ticket lock's queue absorbs a
    // delay this short and its result would not depend on the seed.
    let bound = 2 * CS_CYCLES;
    ks.push((
        format!("MCS{LOCK_ACQUIRES}rd"),
        lock(LockKind::Mcs, LOCK_ACQUIRES, PostRelease::Random { bound }),
    ));
    ks
}

/// A named batch of cells, submitted to the sweep as one call.
pub struct Batch {
    pub name: &'static str,
    pub cells: Vec<Cell>,
}

/// The nine per-figure batches `all_figures` issues, in its order: a
/// latency table over every machine size, then the miss and update tables
/// at 32 processors (whose cells the memo table serves a second time).
pub fn figure_batches(seed: u64) -> Vec<Batch> {
    let latency = |rows: &[(String, KernelSpec)]| -> Vec<Cell> {
        let mut cells = Vec::new();
        for (tag, k) in rows {
            for proto in PROTOCOLS {
                cells.extend(PROC_SWEEP.iter().map(|&p| Cell::new(tag, *k, proto, p, seed)));
            }
        }
        cells
    };
    let traffic = |rows: &[(String, KernelSpec)], protos: &[Protocol]| -> Vec<Cell> {
        let mut cells = Vec::new();
        for (tag, k) in rows {
            cells.extend(protos.iter().map(|&proto| Cell::new(tag, *k, proto, BIG, seed)));
        }
        cells
    };
    let mut batches = Vec::new();
    for (figs, rows) in [
        (["fig08", "fig09", "fig10"], locks()),
        (["fig11", "fig12", "fig13"], barriers()),
        (["fig14", "fig15", "fig16"], reductions()),
    ] {
        batches.push(Batch { name: figs[0], cells: latency(&rows) });
        batches.push(Batch { name: figs[1], cells: traffic(&rows, &PROTOCOLS) });
        batches.push(Batch { name: figs[2], cells: traffic(&rows, &[PU, CU]) });
    }
    batches
}

/// The cells of a direct-call workload, in execution order.
pub fn direct_cells(w: Workload, seed: u64) -> Vec<Cell> {
    let at = |protos: &[Protocol]| -> Vec<Cell> {
        let mut cells = Vec::new();
        for proto in protos {
            cells.extend(direct_kernels().into_iter().map(|(tag, k)| Cell::new(&tag, k, *proto, BIG, seed)));
        }
        cells
    };
    match w {
        Workload::Figures => panic!("figures runs through the sweep, not direct calls"),
        Workload::Inval32p => at(&[WI]),
        Workload::Update32p => at(&[PU, CU]),
        Workload::Observed => {
            let picks = [
                (
                    format!("MCS{OBSERVED_LOCK_ACQUIRES}"),
                    lock(LockKind::Mcs, OBSERVED_LOCK_ACQUIRES, PostRelease::None),
                ),
                (format!("cb{OBSERVED_EPISODES}"), barrier(BarrierKind::Centralized, OBSERVED_EPISODES)),
                (format!("pr{OBSERVED_EPISODES}"), reduction(ReductionKind::Parallel, OBSERVED_EPISODES)),
            ];
            let mut cells = Vec::new();
            for (tag, k) in &picks {
                cells.extend(PROTOCOLS.iter().map(|&proto| Cell::new(tag, *k, proto, BIG, seed).observed()));
            }
            cells
        }
    }
}

/// Cells per pass, counting the memo-served repeats of `figures`.
pub fn cells_per_pass(w: Workload) -> usize {
    match w {
        Workload::Figures => figure_batches(DEFAULT_SEED).iter().map(|b| b.cells.len()).sum(),
        _ => direct_cells(w, DEFAULT_SEED).len(),
    }
}

/// Cells a figures pass simulates once the memo table has deduplicated it.
pub fn unique_figure_cells() -> usize {
    let mut labels: Vec<String> =
        figure_batches(DEFAULT_SEED).into_iter().flat_map(|b| b.cells).map(|c| c.label).collect();
    labels.sort();
    labels.dedup();
    labels.len()
}

/// Every distinct cell of every workload at `seed`, for recording the
/// reference digests.
pub fn all_cells(seed: u64) -> Vec<Cell> {
    let mut cells: Vec<Cell> = figure_batches(seed).into_iter().flat_map(|b| b.cells).collect();
    for w in [Workload::Inval32p, Workload::Update32p, Workload::Observed] {
        cells.extend(direct_cells(w, seed));
    }
    let mut seen = std::collections::HashSet::new();
    cells.retain(|c| seen.insert(c.label.clone()));
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_match_all_figures_batching() {
        let sizes: Vec<usize> = figure_batches(DEFAULT_SEED).iter().map(|b| b.cells.len()).collect();
        assert_eq!(sizes, [54, 9, 6, 54, 9, 6, 36, 6, 4]);
        assert_eq!(cells_per_pass(Workload::Figures), 184);
        assert_eq!(unique_figure_cells(), 144);
    }

    #[test]
    fn direct_workloads_have_their_cells() {
        assert_eq!(direct_cells(Workload::Inval32p, 1).len(), 9);
        assert_eq!(direct_cells(Workload::Update32p, 1).len(), 18);
        assert_eq!(direct_cells(Workload::Observed, 1).len(), 9);
        assert!(direct_cells(Workload::Observed, 1).iter().all(|c| c.cfg.obs.enabled));
        let seeded: Vec<_> = direct_cells(Workload::Inval32p, 7).into_iter().filter(Cell::seeded).collect();
        assert_eq!(seeded.len(), 1);
        assert_eq!(seeded[0].cfg.seed, 7);
    }

    #[test]
    fn labels_identify_cells() {
        let cells = all_cells(DEFAULT_SEED);
        // Figure cells shared with the direct workloads collapse onto one
        // label; the random-delay lock (under three protocols) and the
        // smaller observed cells are the only others.
        assert_eq!(cells.len(), 144 + 3 + 9);
    }
}
