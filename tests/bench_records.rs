//! Unified benchmark-registry contracts.
//!
//! * Every committed repo-root `BENCH_*.json` parses strictly through the
//!   [`BenchRecord`] envelope — unknown or missing fields reject, so the
//!   four legacy schemas really are migrated, and stay migrated.
//! * The CI gate fails on an injected cycle-count regression: exact
//!   metrics tolerate zero drift, wall metrics get the tolerance band.
//! * Profiler `--json` documents are canonical: two runs of the same
//!   spec emit byte-identical output with recursively sorted keys.

use std::path::{Path, PathBuf};

use kernels::runner::KernelSpec;
use kernels::workloads::{LockKind, LockWorkload};
use ppc_bench::diff::{gate_record, gate_spec_digest};
use ppc_bench::observed::observed_json;
use ppc_bench::registry::{gate_check, gate_passes, BenchRecord, BENCH_SCHEMA};
use sim_stats::Json;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root resolves")
}

/// A small fixed workload, built directly so the tests run fast no matter
/// what `PPC_SCALE` is set to.
fn small_lock(kind: LockKind) -> KernelSpec {
    KernelSpec::Lock(LockWorkload { total_acquires: 160, ..LockWorkload::paper(kind) })
}

#[test]
fn every_committed_bench_file_is_on_the_unified_schema() {
    let root = repo_root();
    let mut found = Vec::new();
    for entry in std::fs::read_dir(&root).expect("repo root lists") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("").to_string();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let record = BenchRecord::from_file(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(record.schema, BENCH_SCHEMA, "{name}");
        assert!(!record.bench.is_empty() && !record.title.is_empty(), "{name}: empty envelope fields");
        assert!(!record.spec_digest.is_empty(), "{name}: empty spec digest");
        found.push(record.bench);
    }
    found.sort();
    // The three migrated legacy benches plus the CI gate baseline.
    for expected in ["gate", "harness", "obs", "sweep"] {
        assert!(found.iter().any(|b| b == expected), "no committed BENCH record for {expected:?}: {found:?}");
    }
}

#[test]
fn strict_parsing_rejects_unknown_and_missing_fields() {
    let gate = repo_root().join("BENCH_gate.json");
    let text = std::fs::read_to_string(&gate).expect("committed gate baseline exists");
    let Json::Obj(pairs) = Json::parse(&text).expect("gate baseline parses") else {
        panic!("gate baseline must be an object")
    };
    let mut extra = pairs.clone();
    extra.push(("surprise".to_string(), Json::U64(1)));
    assert!(BenchRecord::from_json(&Json::Obj(extra)).unwrap_err().contains("unknown"));
    let missing: Vec<_> = pairs.iter().filter(|(k, _)| k != "metrics").cloned().collect();
    assert!(BenchRecord::from_json(&Json::Obj(missing)).unwrap_err().contains("missing"));
}

#[test]
fn gate_fails_on_an_injected_cycle_regression() {
    let kernel = small_lock(LockKind::Mcs);
    let baseline = gate_record("mcs-lock", 2, &kernel);
    assert_eq!(baseline.spec_digest, gate_spec_digest("mcs-lock", 2));
    // The same measurement gates green against itself (wall band 100%).
    assert!(gate_passes(&gate_check(&baseline, &baseline, 1.0)));
    // Inject a one-cycle regression into an exact metric: the gate must
    // fail no matter how generous the wall band is.
    let mut regressed = baseline.clone();
    let Json::Obj(metrics) = &mut regressed.metrics else { panic!("metrics is an object") };
    let cycles = metrics.iter_mut().find(|(k, _)| k == "cycles_wi").expect("cycles_wi metric exists");
    let Json::U64(v) = &mut cycles.1 else { panic!("cycles_wi is an integer") };
    *v += 1;
    let checks = gate_check(&baseline, &regressed, 1000.0);
    assert!(!gate_passes(&checks), "a cycle-count regression must fail the gate");
    let failed: Vec<_> = checks.iter().filter(|c| !c.pass).map(|c| c.metric.as_str()).collect();
    assert_eq!(failed, ["cycles_wi"], "only the injected regression fails");
}

/// Asserts every object in the tree has sorted keys.
fn assert_sorted(v: &Json, path: &str) {
    match v {
        Json::Obj(pairs) => {
            for w in pairs.windows(2) {
                assert!(w[0].0 < w[1].0, "{path}: key {:?} out of order (after {:?})", w[1].0, w[0].0);
            }
            for (k, v) in pairs {
                assert_sorted(v, &format!("{path}.{k}"));
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                assert_sorted(item, &format!("{path}[{i}]"));
            }
        }
        _ => {}
    }
}

#[test]
fn profiler_json_documents_are_canonical_and_byte_identical() {
    let kernel = small_lock(LockKind::Ticket);
    // Two independent runs of the same spec: the shared `--json` document
    // (crit_path / line_profile / net_profile) must render byte-identically
    // with recursively sorted keys.
    let first = observed_json("ticket-lock", 2, &kernel).render_pretty();
    let second = observed_json("ticket-lock", 2, &kernel).render_pretty();
    assert_eq!(first, second, "repeated runs must emit byte-identical JSON");
    assert_sorted(&Json::parse(&first).expect("document parses"), "$");
    // The committed bench records hold the same discipline.
    let gate = BenchRecord::from_file(&repo_root().join("BENCH_gate.json")).expect("gate record parses");
    assert_sorted(&Json::parse(&gate.render_file()).expect("round-trips"), "BENCH_gate");
}
