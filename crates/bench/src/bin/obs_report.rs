//! End-to-end observability demo: runs one kernel under all three
//! protocols with cycle accounting, periodic sampling, and message tracing
//! enabled, then writes two artifacts into the output directory:
//!
//! * `report.json` — per-protocol measurements: classified traffic, the
//!   full observability report (per-node stall accounts, per-phase splits,
//!   component gauges, message counts/latencies, link flits, time series);
//! * `trace.json` — a Chrome `trace_event` array (open in Perfetto or
//!   `chrome://tracing`) with one process per protocol: CPU state timelines
//!   as tracks, matched send→handle async flows, halt markers.
//!
//! Usage: `obs_report [kernel] [procs] [out_dir] [--json]` (defaults:
//! `mcs-lock 8 obs-out`). With `--json` the report document is also
//! printed to stdout (the per-protocol status lines move to stderr).
//! Kernels: `ticket-lock`, `mcs-lock`, `uc-mcs-lock`, `tas-lock`,
//! `ttas-lock`, `anderson-lock`, `central-barrier`,
//! `dissemination-barrier`, `tree-barrier`, `par-reduction`,
//! `seq-reduction`. Workloads honor `PPC_SCALE` like the figure binaries.

use std::process::ExitCode;

use ppc_bench::observed::{
    kernel_by_name, protocol_name, report_document, report_run_json, run_observed, summary_line, DiagArgs,
};
use ppc_bench::PROTOCOLS;
use sim_machine::export_run;
use sim_stats::ChromeTrace;

fn main() -> ExitCode {
    let args = match DiagArgs::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}; usage: obs_report [kernel] [procs] [out_dir] [--json]");
            return ExitCode::FAILURE;
        }
    };
    let kernel_name = args.pos_or(0, "mcs-lock");
    let procs = match args.count_or(1, 8) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let out_dir = args.pos_or(2, "obs-out");
    let Some(kernel) = kernel_by_name(kernel_name) else {
        eprintln!("unknown kernel {kernel_name:?}; see the doc comment for the list");
        return ExitCode::FAILURE;
    };
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {out_dir}: {e}");
        return ExitCode::FAILURE;
    }

    let mut runs = Vec::new();
    let mut trace = ChromeTrace::new();
    let mut next_flow_id = 0;
    for (i, protocol) in PROTOCOLS.into_iter().enumerate() {
        let (r, events) = run_observed(procs, protocol, &kernel);
        let pid = i as u64 + 1;
        let label = protocol_name(protocol);
        let stats = export_run(&mut trace, pid, label, &r, &events, next_flow_id);
        next_flow_id = stats.next_flow_id;
        let status = summary_line(
            label,
            r.cycles,
            [
                format!("{} flow pairs", stats.flow_pairs),
                format!("{} state slices", stats.slices),
                if r.trace_dropped > 0 {
                    format!("{} trace events dropped", r.trace_dropped)
                } else {
                    String::new()
                },
            ],
        );
        if args.json {
            eprintln!("{status}");
        } else {
            println!("{status}");
        }
        runs.push(report_run_json(label, &r));
    }

    let report = report_document(kernel_name, procs, runs);
    let report_path = format!("{out_dir}/report.json");
    let trace_path = format!("{out_dir}/trace.json");
    if let Err(e) = std::fs::write(&report_path, report.render_pretty()) {
        eprintln!("cannot write {report_path}: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&trace_path, trace.render()) {
        eprintln!("cannot write {trace_path}: {e}");
        return ExitCode::FAILURE;
    }
    let wrote = format!("wrote {report_path} and {trace_path} ({} trace events)", trace.len());
    if args.json {
        eprintln!("{wrote}");
        println!("{}", report.render_pretty());
    } else {
        println!("{wrote}");
    }
    ExitCode::SUCCESS
}
