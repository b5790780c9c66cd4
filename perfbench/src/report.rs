//! Metric definitions and their reduction from passes to one value each.
//! End-to-end metrics come from untraced passes; per-layer metrics from
//! the traced run. Host times are in calibrated seconds (`Pass::secs`). A per-layer metric a workload does not exercise is
//! reported absent (printed as such, and as 0 in the result line).

use crate::cells::Workload;
use crate::exec::{LayerAcc, Pass};

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// For per-layer metrics: the crate (or benchmark part) measured, and
    /// which end-to-end metric on which workload it should move.
    pub layer: &'static str,
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, layer, moves }
}

pub const END_TO_END: [MetricDef; 6] = [
    m("wall_s", "s", "lower", "", ""),
    m("sim_instr_per_s", "instr/s", "higher", "", ""),
    m("setup_s", "s", "lower", "", ""),
    m("cell_p50_s", "s", "lower", "", ""),
    m("cell_tail_s", "s", "lower", "", ""),
    m("peak_rss_mb", "MB", "lower", "", ""),
];

pub const PER_LAYER: [MetricDef; 34] = [
    m("sweep.pool_util", "frac", "higher", "sweep", "wall_s on figures; none on direct workloads"),
    m("sweep.batch_tail_s", "s", "lower", "sweep", "wall_s on figures; none on direct workloads"),
    m("sweep.key_s", "s", "lower", "sweep", "setup_s on figures; none on direct workloads"),
    m("sweep.cells_simulated", "count", "lower", "sweep", "wall_s on figures; none on direct workloads"),
    m("sweep.memo_hits", "count", "higher", "sweep", "wall_s on figures; none on direct workloads"),
    m("kernels.install_s", "s", "lower", "kernels", "setup_s on every workload"),
    m("kernels.verify_s", "s", "lower", "kernels", "wall_s on reduction-heavy cells"),
    m("machine.new_s", "s", "lower", "sim-machine", "setup_s on every workload"),
    m("machine.run_s", "s", "lower", "sim-machine", "wall_s and sim_instr_per_s on every workload"),
    m("machine.events", "count", "lower", "sim-machine", "wall_s and sim_instr_per_s on every workload"),
    m("machine.ns_per_event", "ns", "lower", "sim-machine", "wall_s and sim_instr_per_s on every workload"),
    m("machine.events_per_instr", "ratio", "lower", "sim-machine", "sim_instr_per_s on every workload"),
    m("engine.scheduled", "count", "lower", "sim-engine", "sim_instr_per_s on update-32p"),
    m("engine.far_spills", "count", "lower", "sim-engine", "sim_instr_per_s on update-32p"),
    m("engine.peak_depth", "count", "lower", "sim-engine", "sim_instr_per_s on update-32p"),
    m("engine.pop_share", "frac", "lower", "sim-engine", "sim_instr_per_s on update-32p"),
    m(
        "isa.instructions",
        "count",
        "lower",
        "sim-isa",
        "sim_instr_per_s on inval-32p (fixed by the programs)",
    ),
    m("isa.step_share", "frac", "lower", "sim-isa", "sim_instr_per_s on inval-32p"),
    m("proto.deliver_share", "frac", "lower", "sim-proto", "sim_instr_per_s on update-32p"),
    m("proto.home_share", "frac", "lower", "sim-proto", "sim_instr_per_s on inval-32p"),
    m("proto.wb_share", "frac", "lower", "sim-proto", "sim_instr_per_s on inval-32p and update-32p"),
    m("proto.updates", "count", "lower", "sim-proto", "sim_instr_per_s on update-32p"),
    m("proto.useful_update_frac", "frac", "higher", "sim-proto", "sim_instr_per_s on update-32p"),
    m("mem.misses", "count", "lower", "sim-mem", "sim_instr_per_s on inval-32p"),
    m("mem.dram_busy_max", "frac", "lower", "sim-mem", "sim_instr_per_s on inval-32p"),
    m("net.messages", "count", "lower", "sim-net", "sim_instr_per_s on update-32p"),
    m("net.flits", "count", "lower", "sim-net", "sim_instr_per_s on update-32p"),
    m("net.hops_per_msg", "hops", "lower", "sim-net", "sim_instr_per_s on update-32p"),
    m("net.route_share", "frac", "lower", "sim-net", "sim_instr_per_s on update-32p"),
    m("net.rx_busy_max", "frac", "lower", "sim-net", "sim_instr_per_s on update-32p"),
    m("stats.sample_share", "frac", "lower", "sim-stats", "wall_s on observed only"),
    m("stats.obs_ratio", "ratio", "lower", "sim-stats", "wall_s on observed only"),
    m("trace.overhead", "ratio", "lower", "traced run", "none (profiler cost; ROADMAP 2a lowers it)"),
    m(
        "trace.accounted_frac",
        "frac",
        "higher",
        "traced run",
        "none (profiler coverage; ROADMAP 2a raises it)",
    ),
];

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear interpolation between order statistics.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The highest percentile of the ladder that leaves at least ten of `n`
/// samples beyond it.
pub fn tail_percentile(n: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// Cells one pass times (figures: the unique, simulated ones).
pub fn timed_cells_per_pass(w: Workload) -> usize {
    match w {
        Workload::Figures => crate::cells::unique_figure_cells(),
        _ => crate::cells::cells_per_pass(w),
    }
}

pub struct EndToEnd {
    /// In [`END_TO_END`] order.
    pub values: Vec<f64>,
    pub tail_p: f64,
    pub tail_n: usize,
}

pub fn end_to_end(w: Workload, passes: &[Pass], peak_rss_mb: f64) -> EndToEnd {
    let wall: Vec<f64> = passes.iter().map(|p| p.secs(p.wall_ns)).collect();
    let rate: Vec<f64> = passes.iter().map(|p| p.instructions as f64 / p.secs(p.wall_ns.max(1))).collect();
    let setup: Vec<f64> = passes.iter().map(|p| p.secs(p.setup_ns)).collect();
    let cells: Vec<f64> = passes.iter().flat_map(|p| p.cell_ns.iter().map(|&ns| p.secs(ns))).collect();
    // Fixed per workload (not per run) so faster hosts compare the same
    // percentile.
    let tail_p = tail_percentile(timed_cells_per_pass(w) * w.min_passes());
    EndToEnd {
        values: vec![
            median(&wall),
            median(&rate),
            median(&setup),
            median(&cells),
            percentile(&cells, tail_p),
            peak_rss_mb,
        ],
        tail_p,
        tail_n: cells.len(),
    }
}

/// What the traced run measured, pass kind by pass kind.
pub struct TracedRun<'a> {
    pub workload: Workload,
    /// Passes with tracing off (the end-to-end configuration).
    pub plain: &'a [Pass],
    /// Passes with spans (and, for direct workloads, hostobs) on.
    pub traced: &'a [Pass],
    /// `observed` only: the same cells with the collectors off.
    pub no_obs: &'a [Pass],
}

/// Per-layer values in [`PER_LAYER`] order; `None` where the workload does
/// not exercise the layer.
pub fn per_layer(run: &TracedRun) -> Vec<(&'static str, Option<f64>)> {
    let med = |passes: &[Pass], f: &dyn Fn(&Pass) -> f64| -> f64 {
        median(&passes.iter().map(f).collect::<Vec<_>>())
    };
    let t = |f: &dyn Fn(&LayerAcc) -> f64| med(run.traced, &|p| f(&p.layer));
    // Host times of the traced passes, in calibrated seconds.
    let ts = |f: &dyn Fn(&LayerAcc) -> u64| med(run.traced, &|p| p.secs(f(&p.layer)));
    let figures = run.workload == Workload::Figures;
    let direct = !figures;
    let some_if = |cond: bool, v: f64| cond.then_some(v);
    // Share of the profiled run wall time charged to one dispatch
    // category, read by name so a renamed or removed one reads absent.
    let share = |cat: &str| -> Option<f64> {
        let present = run.traced.iter().all(|p| p.layer.host_cats.contains_key(cat));
        (direct && present).then(|| t(&|l| l.host_cats[cat] as f64 / l.host_wall_ns.max(1) as f64))
    };
    let first = run.traced.first().map(|p| p.layer.clone()).unwrap_or_default();
    let wall_ratio =
        |a: &[Pass], b: &[Pass]| med(a, &|p| p.secs(p.wall_ns)) / med(b, &|p| p.secs(p.wall_ns)).max(1e-12);
    let updates = first.updates > 0;
    vec![
        ("sweep.pool_util", some_if(figures, t(&|l| l.pool_busy_ns as f64 / l.pool_avail_ns.max(1) as f64))),
        ("sweep.batch_tail_s", some_if(figures, ts(&|l| l.batch_tail_ns))),
        ("sweep.key_s", some_if(figures, med(run.traced, &|p| p.secs(p.setup_ns)))),
        ("sweep.cells_simulated", some_if(figures, first.cells_simulated as f64)),
        ("sweep.memo_hits", some_if(figures, first.memo_hits as f64)),
        ("kernels.install_s", some_if(direct, ts(&|l| l.install_ns))),
        ("kernels.verify_s", some_if(direct, ts(&|l| l.verify_ns))),
        ("machine.new_s", some_if(direct, ts(&|l| l.new_ns))),
        ("machine.run_s", some_if(direct, ts(&|l| l.run_ns))),
        ("machine.events", some_if(direct, first.events as f64)),
        (
            "machine.ns_per_event",
            some_if(direct, med(run.plain, &|p| p.secs(p.layer.run_ns) * 1e9 / p.layer.events.max(1) as f64)),
        ),
        ("machine.events_per_instr", some_if(direct, first.events as f64 / first.instructions.max(1) as f64)),
        ("engine.scheduled", some_if(direct, first.scheduled as f64)),
        ("engine.far_spills", some_if(direct, first.far_spills as f64)),
        ("engine.peak_depth", some_if(direct, first.peak_depth as f64)),
        ("engine.pop_share", share("event-pop")),
        ("isa.instructions", some_if(direct, first.instructions as f64)),
        ("isa.step_share", share("cpu-step")),
        ("proto.deliver_share", share("proto-deliver")),
        ("proto.home_share", share("proto-home")),
        ("proto.wb_share", share("wb-issue")),
        ("proto.updates", Some(first.updates as f64)),
        (
            "proto.useful_update_frac",
            some_if(updates, first.useful_updates as f64 / first.updates.max(1) as f64),
        ),
        ("mem.misses", Some(first.misses as f64)),
        ("mem.dram_busy_max", some_if(direct, first.dram_busy_max)),
        ("net.messages", Some(first.messages as f64)),
        ("net.flits", Some(first.flits as f64)),
        ("net.hops_per_msg", Some(first.hops as f64 / first.messages.max(1) as f64)),
        ("net.route_share", share("net-route")),
        ("net.rx_busy_max", some_if(direct, first.rx_busy_max)),
        ("stats.sample_share", share("stats-sample")),
        ("stats.obs_ratio", (!run.no_obs.is_empty()).then(|| wall_ratio(run.plain, run.no_obs))),
        ("trace.overhead", Some(wall_ratio(run.traced, run.plain))),
        (
            "trace.accounted_frac",
            some_if(direct, t(&|l| l.host_accounted_ns as f64 / l.host_wall_ns.max(1) as f64)),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty() && s.len() <= 16 && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_fit_the_result_schema() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name).collect();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(d.name), "bad metric name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(d.better == "lower" || d.better == "higher");
        }
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "metric names are unique");
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
    }

    #[test]
    fn per_layer_reduction_names_every_defined_metric_in_order() {
        let passes = [Pass::default()];
        let run = TracedRun { workload: Workload::Inval32p, plain: &passes, traced: &passes, no_obs: &[] };
        let got: Vec<&str> = per_layer(&run).into_iter().map(|(n, _)| n).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = sim_stats::Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|e| {
                    let field = |k: &str| e.get(k).and_then(|v| v.as_str()).unwrap_or_default().to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let defs = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter().map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), defs(&END_TO_END));
        assert_eq!(listed("per_layer"), defs(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workload list")
            .iter()
            .map(|e| {
                let field = |k: &str| e.get(k).and_then(|v| v.as_str()).unwrap_or_default().to_string();
                format!("{}: {}", field("name"), field("why"))
            })
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| format!("{}: {}", w.name(), w.why())).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn percentiles_interpolate_and_the_tail_keeps_ten_beyond() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[0.0, 10.0], 25.0), 2.5);
        assert_eq!(tail_percentile(108), 90.0);
        assert_eq!(tail_percentile(432), 95.0);
        assert_eq!(tail_percentile(12), 50.0);
    }
}
