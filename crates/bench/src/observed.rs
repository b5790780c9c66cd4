//! Fully-observed single runs, shared by the diagnostic binaries
//! (`obs_report`, `line_profile`, `net_profile`): name → kernel lookup
//! and a run helper that enables cycle accounting, line provenance,
//! network telemetry, and message tracing.

use kernels::runner::KernelSpec;
use kernels::workloads::{
    BarrierKind, BarrierWorkload, LockKind, LockWorkload, PostRelease, ReductionKind, ReductionWorkload,
};
use sim_machine::{Machine, MachineConfig, RunResult, Trace, TraceEvent};
use sim_proto::Protocol;
use sim_stats::Json;

use crate::{barrier_workload, lock_workload, reduction_workload, PROTOCOLS};

/// Command-line shape shared by the diagnostic binaries: positional
/// arguments, an optional `--json` flag anywhere on the line, and any
/// value-taking options the binary declares (e.g. `--window <c1>:<c2>`).
#[derive(Debug, Clone, Default)]
pub struct DiagArgs {
    /// Whether `--json` was passed (machine-readable output to stdout).
    pub json: bool,
    /// The remaining positional arguments, in order.
    pub positional: Vec<String>,
    /// Raw values of the declared value-taking options, keyed by flag
    /// name, in the order passed (read via [`DiagArgs::opt`]).
    pub options: Vec<(String, String)>,
}

impl DiagArgs {
    /// Parses the process arguments. Unknown `--flags` are an error so a
    /// typo (`--jsno`) fails loudly instead of being read as a kernel name.
    pub fn parse() -> Result<DiagArgs, String> {
        Self::parse_from(std::env::args().skip(1))
    }

    /// [`DiagArgs::parse`] accepting the given value-taking options, each
    /// of which consumes the following argument as its value.
    pub fn parse_with(value_flags: &[&str]) -> Result<DiagArgs, String> {
        Self::parse_from_with(std::env::args().skip(1), value_flags)
    }

    /// [`DiagArgs::parse`] over an explicit argument list (unit-testable).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<DiagArgs, String> {
        Self::parse_from_with(args, &[])
    }

    /// [`DiagArgs::parse_with`] over an explicit argument list.
    pub fn parse_from_with(
        args: impl IntoIterator<Item = String>,
        value_flags: &[&str],
    ) -> Result<DiagArgs, String> {
        let mut out = DiagArgs::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--json" => out.json = true,
                s if value_flags.contains(&s) => {
                    let v = it.next().ok_or_else(|| format!("{s} needs a value"))?;
                    out.options.push((a, v));
                }
                s if s.starts_with("--") => return Err(format!("unknown flag {s:?}")),
                _ => out.positional.push(a),
            }
        }
        Ok(out)
    }

    /// The value of value-taking option `name` (last one wins when
    /// repeated), or `None` when it was not passed.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.options.iter().rev().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Positional argument `i`, or `default` when absent.
    pub fn pos_or<'a>(&'a self, i: usize, default: &'a str) -> &'a str {
        self.positional.get(i).map(String::as_str).unwrap_or(default)
    }

    /// Positional argument `i` parsed as a count `>= 1`.
    pub fn count_or(&self, i: usize, default: usize) -> Result<usize, String> {
        match self.positional.get(i) {
            None => Ok(default),
            Some(s) => match s.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(format!("invalid count {s:?}; expected an integer >= 1")),
            },
        }
    }
}

/// Runs `kernel` under every protocol and assembles the full
/// machine-readable document the diagnostic binaries share for `--json`:
/// per-protocol cycles, instructions, classified traffic, and the complete
/// observability report (stall accounts, lineage, critical path). The
/// document is canonical (recursively sorted keys), so two runs of the
/// same spec emit byte-identical output.
pub fn observed_json(kernel_name: &str, procs: usize, kernel: &KernelSpec) -> Json {
    let runs = PROTOCOLS
        .into_iter()
        .map(|protocol| {
            let (r, _events) = run_observed(procs, protocol, kernel);
            let obs = r.obs.as_ref().expect("machine ran observed");
            Json::obj([
                ("protocol", Json::from(protocol_name(protocol))),
                ("cycles", Json::U64(r.cycles)),
                ("instructions", Json::U64(r.instructions)),
                ("traffic", r.traffic.to_json()),
                ("obs", obs.to_json()),
            ])
        })
        .collect();
    Json::obj([("kernel", Json::from(kernel_name)), ("procs", Json::from(procs)), ("runs", Json::Arr(runs))])
        .canonical()
}

/// One protocol's entry in the `obs_report` document: cycles,
/// instructions, dropped trace events, classified traffic, and the full
/// observability report (stall accounts, lineage, critical path, network
/// telemetry).
pub fn report_run_json(label: &str, r: &RunResult) -> Json {
    let obs = r.obs.as_ref().expect("machine ran observed");
    Json::obj([
        ("protocol", Json::from(label)),
        ("cycles", Json::U64(r.cycles)),
        ("instructions", Json::U64(r.instructions)),
        ("trace_dropped", Json::U64(r.trace_dropped)),
        ("traffic", r.traffic.to_json()),
        ("obs", obs.to_json()),
    ])
}

/// The `obs_report` document over its per-protocol entries (see
/// [`report_run_json`]). Canonical key order: repeated runs of the same
/// spec emit byte-identical documents.
pub fn report_document(kernel_name: &str, procs: usize, runs: Vec<Json>) -> Json {
    Json::obj([("kernel", Json::from(kernel_name)), ("procs", Json::from(procs)), ("runs", Json::Arr(runs))])
        .canonical()
}

/// The kernels the diagnostic binaries accept by name, at the current
/// `PPC_SCALE` workload.
pub fn kernel_by_name(name: &str) -> Option<KernelSpec> {
    Some(match name {
        "ticket-lock" => KernelSpec::Lock(lock_workload(LockKind::Ticket)),
        "mcs-lock" => KernelSpec::Lock(lock_workload(LockKind::Mcs)),
        "uc-mcs-lock" => KernelSpec::Lock(lock_workload(LockKind::McsUpdateConscious)),
        "tas-lock" => KernelSpec::Lock(lock_workload(LockKind::TestAndSet)),
        "ttas-lock" => KernelSpec::Lock(lock_workload(LockKind::TestAndTestAndSet)),
        "anderson-lock" => KernelSpec::Lock(lock_workload(LockKind::AndersonQueue)),
        "central-barrier" => KernelSpec::Barrier(barrier_workload(BarrierKind::Centralized)),
        "dissemination-barrier" => KernelSpec::Barrier(barrier_workload(BarrierKind::Dissemination)),
        "tree-barrier" => KernelSpec::Barrier(barrier_workload(BarrierKind::Tree)),
        "par-reduction" => KernelSpec::Reduction(reduction_workload(ReductionKind::Parallel)),
        "seq-reduction" => KernelSpec::Reduction(reduction_workload(ReductionKind::Sequential)),
        _ => return None,
    })
}

/// The kernel names [`kernel_by_name`] accepts (for usage messages).
pub const KERNEL_NAMES: [&str; 11] = [
    "ticket-lock",
    "mcs-lock",
    "uc-mcs-lock",
    "tas-lock",
    "ttas-lock",
    "anderson-lock",
    "central-barrier",
    "dissemination-barrier",
    "tree-barrier",
    "par-reduction",
    "seq-reduction",
];

/// The cells the golden pins share (`tests/observed_reports.rs` and the
/// fingerprint-chain pin in `tests/hostobs.rs`): one lock, one barrier
/// and one reduction, with explicit counts (no `PPC_SCALE` scaling).
pub fn pinned_kernels() -> [(&'static str, KernelSpec); 3] {
    [
        (
            "mcs-lock",
            KernelSpec::Lock(LockWorkload {
                kind: LockKind::Mcs,
                total_acquires: 64,
                cs_cycles: 50,
                post_release: PostRelease::None,
            }),
        ),
        (
            "central-barrier",
            KernelSpec::Barrier(BarrierWorkload { kind: BarrierKind::Centralized, episodes: 12 }),
        ),
        (
            "par-reduction",
            KernelSpec::Reduction(ReductionWorkload { kind: ReductionKind::Parallel, episodes: 12, skew: 0 }),
        ),
    ]
}

/// Installs, runs, and verifies `kernel` on an already-configured machine.
pub fn run_kernel(m: &mut Machine, kernel: &KernelSpec) -> RunResult {
    use kernels::{barriers, locks, reductions};
    match kernel {
        KernelSpec::Lock(w) => {
            let layout = locks::install(m, w);
            let r = m.run();
            locks::verify(m, w, &layout);
            r
        }
        KernelSpec::Barrier(w) => {
            let layout = barriers::install(m, w);
            let r = m.run();
            barriers::verify(m, w, &layout);
            r
        }
        KernelSpec::Reduction(w) => {
            let layout = reductions::install(m, w);
            let r = m.run();
            reductions::verify(m, w, &layout);
            r
        }
    }
}

/// Runs `kernel` on an observed machine with full message tracing; returns
/// the result (phase names installed) and the recorded event stream.
pub fn run_observed(procs: usize, protocol: Protocol, kernel: &KernelSpec) -> (RunResult, Vec<TraceEvent>) {
    let mut m = Machine::new(MachineConfig::paper_observed(procs, protocol));
    m.enable_trace(Trace::new(Trace::MAX_CAPACITY));
    let mut r = run_kernel(&mut m, kernel);
    if let Some(obs) = r.obs.as_mut() {
        obs.set_phase_names(kernels::phase::names());
    }
    let trace = m.take_trace().expect("tracing was enabled");
    (r, trace.events().to_vec())
}

/// The grep-able per-run summary line every diagnostic binary prints:
/// `== tag == N cycles, detail, detail`. One format across `obs_report`,
/// `line_profile`, `crit_path`, `net_profile`, and `harness_profile`, so
/// scripts (and the CI smoke jobs) can match `^== ` regardless of which
/// tool produced the output. Empty detail strings are skipped, which lets
/// callers pass conditional suffixes unconditionally.
pub fn summary_line<I>(tag: &str, cycles: u64, details: I) -> String
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let mut s = format!("== {tag} == {cycles} cycles");
    for d in details {
        let d = d.as_ref();
        if !d.is_empty() {
            s.push_str(", ");
            s.push_str(d);
        }
    }
    s
}

/// Long protocol label ("WI"/"PU"/"CU") used by the diagnostic outputs.
pub fn protocol_name(p: Protocol) -> &'static str {
    match p {
        Protocol::WriteInvalidate => "WI",
        Protocol::PureUpdate => "PU",
        Protocol::CompetitiveUpdate => "CU",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diag_args_parse_flags_and_positionals() {
        let a = DiagArgs::parse_from(["mcs-lock".into(), "--json".into(), "8".into()]).unwrap();
        assert!(a.json);
        assert_eq!(a.pos_or(0, "x"), "mcs-lock");
        assert_eq!(a.count_or(1, 4).unwrap(), 8);
        assert_eq!(a.pos_or(2, "fallback"), "fallback");
        assert_eq!(a.count_or(2, 7).unwrap(), 7);
        assert!(DiagArgs::parse_from(["--jsno".into()]).is_err());
        assert!(DiagArgs::parse_from(["k".into(), "0".into()]).unwrap().count_or(1, 4).is_err());
    }

    #[test]
    fn diag_args_value_flags_consume_their_value() {
        let a = DiagArgs::parse_from_with(
            ["mcs-lock".into(), "--window".into(), "100:200".into(), "--json".into()],
            &["--window"],
        )
        .unwrap();
        assert!(a.json);
        assert_eq!(a.opt("--window"), Some("100:200"));
        assert_eq!(a.opt("--record"), None);
        assert_eq!(a.positional, vec!["mcs-lock".to_string()]);
        // A declared flag with no value fails loudly.
        let err = DiagArgs::parse_from_with(["--window".into()], &["--window"]).unwrap_err();
        assert!(err.contains("--window"), "{err}");
        // Undeclared value flags are still unknown flags.
        assert!(DiagArgs::parse_from(["--window".into(), "1:2".into()]).is_err());
        // Last repeat wins.
        let a = DiagArgs::parse_from_with(
            ["--window".into(), "1:2".into(), "--window".into(), "3:4".into()],
            &["--window"],
        )
        .unwrap();
        assert_eq!(a.opt("--window"), Some("3:4"));
    }

    #[test]
    fn summary_line_is_uniform_and_skips_empty_details() {
        assert_eq!(summary_line("WI", 1234, std::iter::empty::<&str>()), "== WI == 1234 cycles");
        assert_eq!(
            summary_line("PU", 99, ["3 flow pairs", "", "7 slices"]),
            "== PU == 99 cycles, 3 flow pairs, 7 slices"
        );
    }

    #[test]
    fn every_listed_kernel_resolves() {
        for name in KERNEL_NAMES {
            assert!(kernel_by_name(name).is_some(), "{name}");
        }
        assert!(kernel_by_name("no-such-kernel").is_none());
    }
}
