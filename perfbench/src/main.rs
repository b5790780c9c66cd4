//! Host-speed benchmark of the coherence-protocol simulator.
//!
//! ```text
//! perfbench --workload <figures|inval-32p|update-32p|observed> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --record-reference <file>
//! ```
//!
//! A run repeats passes over the workload's cells for about `--seconds`
//! (at least the workload's minimum pass count) and reports medians of
//! host times calibrated against the host's current speed (see `calib`).
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced passes, prints the per-layer metrics,
//! and writes the span file. Simulated results are the correctness check:
//! every kernel verifier must pass and every cell's digest must match
//! `reference.txt`. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod calib;
mod cells;
mod digest;
mod exec;
mod report;
mod spans;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use sim_stats::Json;

use calib::Probe;
use cells::{Cell, Workload, DEFAULT_SEED};
use digest::{Checker, Digest};
use exec::{Pass, Trace};
use report::{MetricDef, TracedRun, END_TO_END, PER_LAYER};
use spans::Spans;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_dir: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]\n       perfbench --record-reference <file>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut spans_dir = PathBuf::from("perfbench/out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).unwrap_or_else(|| usage())),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().ok().filter(|s: &f64| *s > 0.0).unwrap_or_else(|| usage()),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--spans-dir" => spans_dir = PathBuf::from(value),
            _ => usage(),
        }
    }
    Args { workload: workload.unwrap_or_else(|| usage()), seed, seconds, trace, spans_dir }
}

/// Harness knobs (`PPC_SCALE`, `PPC_HOSTOBS`, `PPC_CHECKPOINT_EVERY`, ...)
/// change what a run costs; the benchmark builds every cell explicitly and
/// refuses to run beside any of them.
fn refuse_harness_env() {
    let set: Vec<String> = std::env::vars().map(|(k, _)| k).filter(|k| k.starts_with("PPC_")).collect();
    if !set.is_empty() {
        eprintln!("perfbench: refusing to run with {} set; unset it first", set.join(", "));
        std::process::exit(2);
    }
}

/// Peak resident memory of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Repeats `round` until at least `min` rounds ran and another round
/// would overrun `seconds`.
fn repeat(seconds: f64, min: usize, mut round: impl FnMut(usize)) {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut n = 0;
    loop {
        let t = Instant::now();
        round(n);
        n += 1;
        let last = t.elapsed();
        if n >= min && start.elapsed() + last / 2 >= budget {
            break;
        }
    }
}

/// Sweep workers for `figures`: the pool's default (one per host core),
/// capped at two so the benchmark fits a two-core host.
fn figure_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// One pass over `cells`, traced when `trace` is given.
fn run_pass(cells: &PassCells, checker: &mut Checker, probe: &mut Probe, trace: Option<Trace>) -> Pass {
    match cells {
        PassCells::Figures(batches) => {
            exec::figures_pass(batches, figure_workers(), cells::unique_figure_cells(), checker, probe, trace)
        }
        PassCells::Direct(cells) => exec::direct_pass(cells, checker, probe, trace),
    }
}

enum PassCells {
    Figures(Vec<cells::Batch>),
    Direct(Vec<Cell>),
}

fn pass_cells(w: Workload, seed: u64) -> PassCells {
    match w {
        Workload::Figures => PassCells::Figures(cells::figure_batches(seed)),
        _ => PassCells::Direct(cells::direct_cells(w, seed)),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    refuse_harness_env();
    if argv.first().map(String::as_str) == Some("--record-reference") {
        let [_, path] = &argv[..] else { usage() };
        record_reference(path);
        return;
    }
    let args = parse_args(&argv);
    let w = args.workload;
    let mut checker = Checker::new(args.seed);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_cores={} figure_workers={}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        figure_workers()
    );
    println!("why: {}", w.why());

    let untraced = pass_cells(w, args.seed);
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut no_obs: Vec<Pass> = Vec::new();
    let mut spans = Spans::new();
    let mut probe = Probe::new();
    if args.trace {
        // Traced passes add spans and, on direct workloads, the host
        // profiler; untraced passes in between give the overhead base.
        let traced_cells = match &untraced {
            PassCells::Figures(_) => pass_cells(w, args.seed),
            PassCells::Direct(cs) => PassCells::Direct(cs.iter().map(exec::with_hostobs).collect()),
        };
        let obs_off = match (&untraced, w) {
            (PassCells::Direct(cs), Workload::Observed) => {
                Some(cs.iter().map(exec::without_obs).collect::<Vec<_>>())
            }
            _ => None,
        };
        let root = spans.open("workload", None);
        spans.note(root, w.name());
        // Alternate which kind runs first, so a cold first pass does not
        // bias the ratios.
        repeat(args.seconds, 2, |n| {
            for kind in [n % 2, 1 - n % 2] {
                let span = spans.open("pass", Some(root));
                if kind == 0 {
                    spans.note(span, "untraced");
                    plain.push(run_pass(&untraced, &mut checker, &mut probe, None));
                    if let Some(cells) = &obs_off {
                        no_obs.push(exec::direct_pass(cells, &mut checker, &mut probe, None));
                    }
                } else {
                    let trace = Trace { spans: &mut spans, parent: span, pass: n };
                    traced.push(run_pass(&traced_cells, &mut checker, &mut probe, Some(trace)));
                }
                spans.close(span);
            }
        });
        spans.close(root);
    } else {
        repeat(args.seconds, w.min_passes(), |_| {
            plain.push(run_pass(&untraced, &mut checker, &mut probe, None))
        });
    }

    let all: Vec<&Pass> = plain.iter().chain(&traced).chain(&no_obs).collect();
    let attempted: u64 = all.iter().map(|p| p.attempted).sum();
    let failed: u64 = all.iter().map(|p| p.failed).sum();
    let broken: Vec<&String> = all.iter().flat_map(|p| &p.broken).collect();
    for (label, why) in all.iter().flat_map(|p| &p.failures).take(20) {
        println!("FAIL workload={} cell={label} seed={}: {why}", w.name(), args.seed);
    }
    for b in &broken {
        println!("BROKEN workload={}: {b}", w.name());
    }
    println!(
        "cells: {attempted} attempted, {failed} failed, cell_fail_frac {} ({} passes)",
        failed as f64 / attempted.max(1) as f64,
        plain.len()
    );

    let factors: Vec<f64> = all.iter().map(|p| calib::factor(&p.probes)).collect();
    println!(
        "host-speed factor per pass: median {:.4}, range {:.4}-{:.4}; times below are calibrated seconds",
        report::median(&factors),
        factors.iter().copied().fold(f64::INFINITY, f64::min),
        factors.iter().copied().fold(0.0, f64::max),
    );
    let metrics: Vec<(&MetricDef, f64)> = if args.trace {
        let run = TracedRun { workload: w, plain: &plain, traced: &traced, no_obs: &no_obs };
        let values = report::per_layer(&run);
        println!("per-layer metrics ({} traced passes):", traced.len());
        for (def, (_, v)) in PER_LAYER.iter().zip(&values) {
            let shown = v.map_or("absent".to_string(), |v| format!("{v:.6} {}", def.unit));
            println!(
                "  {:<26} {shown:<36} ({} is better) [{}] should move {}",
                def.name, def.better, def.layer, def.moves
            );
        }
        println!(
            "note: cache/directory and classifier host time is hidden inside proto.* and isa.*; splitting it needs tracing inside the program"
        );
        println!("span self time by name (raw):");
        for (name, (count, total, own)) in spans.by_name() {
            println!(
                "  {name:<14} {count:>6} spans {:>12.6} s total {:>12.6} s self",
                total as f64 / 1e9,
                own as f64 / 1e9
            );
        }
        let path = args.spans_dir.join(format!("spans-{}-seed{}.json", w.name(), args.seed));
        let written = std::fs::create_dir_all(&args.spans_dir)
            .and_then(|_| std::fs::write(&path, spans.to_json().render()));
        match written {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: could not write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
        // Absent metrics read 0 in the result line.
        PER_LAYER.iter().zip(values).map(|(d, (_, v))| (d, v.unwrap_or(0.0))).collect()
    } else {
        let e2e = report::end_to_end(w, &plain, peak_rss_mb());
        for (def, v) in END_TO_END.iter().zip(&e2e.values) {
            let extra = match def.name {
                "cell_tail_s" => format!(" (p{} of {} cells)", e2e.tail_p, e2e.tail_n),
                "cell_p50_s" => format!(" (of {} cells)", e2e.tail_n),
                _ => String::new(),
            };
            println!("  {:<16} {v:.6} {} ({} is better){extra}", def.name, def.unit, def.better);
        }
        END_TO_END.iter().zip(e2e.values).collect()
    };

    let result =
        Json::obj([
            ("correct", Json::Bool(failed == 0 && broken.is_empty())),
            ("attempted", Json::U64(attempted)),
            ("failed", Json::U64(failed)),
            (
                "metrics",
                Json::obj(metrics.into_iter().map(|(d, v)| {
                    (d.name, Json::obj([("value", Json::F64(v)), ("unit", Json::from(d.unit))]))
                })),
            ),
        ]);
    println!("{}", result.render());
}

/// Runs every distinct cell once at the default seed and writes its digest.
fn record_reference(path: &str) {
    let mut out = String::from(
        "# Per-cell digests at the default seed: label cycles instructions\n# misses(cold true false evict drop excl) updates(true false prolif repl term drop)\n# net(messages local flits hops). Written by `perfbench --record-reference`.\n",
    );
    let cells = cells::all_cells(DEFAULT_SEED);
    for (i, cell) in cells.iter().enumerate() {
        // Record with the collectors off, so observed cells are checked
        // against a run nothing observed.
        let (r, _, _) = exec::simulate(&exec::without_obs(cell));
        out.push_str(&format!("{} {}\n", cell.label, Digest::of_run(&r).to_line()));
        eprintln!("[{}/{}] {}", i + 1, cells.len(), cell.label);
    }
    std::fs::write(path, out).unwrap_or_else(|e| panic!("writing {path}: {e}"));
}
