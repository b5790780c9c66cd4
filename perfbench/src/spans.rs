//! In-memory spans recorded by the benchmark around each call into a
//! layer (workload → pass → batch → cell → phase), written out at exit.
//! Spans of one cell share its cell id; self times are derived at the
//! end as a span's duration minus the union of its children.

use std::collections::BTreeMap;
use std::time::Instant;

use sim_stats::Json;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    /// Id shared by every span of one cell (`pass/label`), empty above.
    cell: String,
    /// Free-form detail, e.g. the sweep worker and cell source.
    note: String,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { epoch: Instant::now(), spans: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.ns(Instant::now());
        self.push(Span { name, parent, cell: String::new(), note: String::new(), start_ns: now, end_ns: now })
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    pub fn note(&mut self, id: usize, note: &str) {
        self.spans[id].note = note.to_string();
    }

    /// Records a finished span of cell `cell`.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: usize,
        cell: &str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span {
            name,
            parent: Some(parent),
            cell: cell.to_string(),
            note: String::new(),
            start_ns,
            end_ns,
        })
    }

    fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Self time of every span, in ids order.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                // Children may overlap (sweep workers run cells side by
                // side), so subtract their union, clipped to the parent.
                kids.sort_unstable();
                let mut covered = 0;
                let mut cursor = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Per span name: (count, total ns, self ns).
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += own;
        }
        out
    }

    pub fn to_json(&self) -> Json {
        let selfs = self.self_times();
        let spans = self
            .spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(id, (s, own))| {
                Json::obj([
                    ("id", Json::from(id)),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("name", Json::from(s.name)),
                    ("cell", Json::from(s.cell.as_str())),
                    ("note", Json::from(s.note.as_str())),
                    ("start_ns", Json::U64(s.start_ns)),
                    ("end_ns", Json::U64(s.end_ns)),
                    ("self_ns", Json::U64(own)),
                ])
            })
            .collect();
        Json::obj([("spans", Json::Arr(spans))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, parent, cell: String::new(), note: String::new(), start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut s = Spans::new();
        let root = s.push(span("batch", None, 0, 100));
        s.push(span("cell", Some(root), 10, 50));
        s.push(span("cell", Some(root), 30, 70)); // overlaps the first
        s.push(span("cell", Some(root), 90, 120)); // runs past the parent
        assert_eq!(s.self_times(), vec![100 - 60 - 10, 40, 40, 30]);
        assert_eq!(s.by_name()["cell"], (3, 110, 110));
    }
}
