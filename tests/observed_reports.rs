//! Byte-level pin of the observed reports.
//!
//! Closure and reconciliation tests check that the observability reports
//! agree with themselves; this test checks that they do not move. Each
//! cell runs one kernel under one protocol on an observed 8-processor
//! machine and renders the document `obs_report --json` prints for it
//! (traffic plus the obs, lineage, crit and netobs sections). The
//! rendering's byte length and 128-bit `StableHasher` digest must match
//! `tests/golden/observed_reports.txt`.
//!
//! On a mismatch the test writes every cell's JSON and the would-be golden
//! file under the Cargo target directory, so the drift can be diffed
//! against a run of the previous code. A deliberate change to a report
//! re-records the golden file from that output.

use std::fmt::Write as _;

use ppc_bench::observed::{pinned_kernels, protocol_name, report_document, report_run_json, run_observed};
use ppc_bench::PROTOCOLS;
use sim_engine::StableHasher;

const GOLDEN: &str = include_str!("golden/observed_reports.txt");
const PROCS: usize = 8;

#[test]
fn observed_reports_match_their_golden_digests() {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("observed_reports");
    let mut actual = String::new();
    let mut rendered = Vec::new();
    for (name, kernel) in pinned_kernels() {
        for protocol in PROTOCOLS {
            let label = protocol_name(protocol);
            let (r, _events) = run_observed(PROCS, protocol, &kernel);
            let doc = report_document(name, PROCS, vec![report_run_json(label, &r)]).render_pretty();
            let mut h = StableHasher::new();
            h.write(doc.as_bytes());
            let cell = format!("{name}/{label}");
            let _ = writeln!(actual, "{cell} {} {}", doc.len(), h.finish_hex());
            rendered.push((format!("{name}-{label}.json"), doc));
        }
    }
    let expected: String = GOLDEN.lines().filter(|l| !l.starts_with('#')).map(|l| format!("{l}\n")).collect();
    if actual != expected {
        std::fs::create_dir_all(&out_dir).expect("create the output directory");
        for (file, doc) in &rendered {
            std::fs::write(out_dir.join(file), doc).expect("write a cell's report");
        }
        std::fs::write(out_dir.join("observed_reports.txt"), &actual).expect("write the digests");
        panic!(
            "observed reports drifted from tests/golden/observed_reports.txt; \
             reports and digests written to {}\nexpected:\n{expected}actual:\n{actual}",
            out_dir.display()
        );
    }
}
