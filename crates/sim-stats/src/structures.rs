//! Address → registered-structure lookup shared by the classifier and the
//! critical-path profiler.
//!
//! Kernels register named address ranges that may overlap; the latest
//! registration covering an address wins. Every classified miss and
//! update, every observed message, and every observed wait resolves an
//! address this way, so the ranges are flattened into a sorted table of
//! disjoint segments and each lookup is a binary search. The table is
//! rebuilt lazily on the first lookup after a burst of registrations.

use std::collections::BinaryHeap;

use sim_mem::Addr;

/// Named half-open address ranges, in registration order, with a lookup
/// that returns the index of the last-registered range covering an
/// address.
#[derive(Debug, Clone, Default)]
pub(crate) struct StructureTable {
    names: Vec<String>,
    /// `[lo, hi)` per registration, parallel to `names`.
    ranges: Vec<(Addr, Addr)>,
    /// Disjoint `(lo, hi, index)` segments in ascending address order;
    /// valid unless `stale`.
    segments: Vec<(Addr, Addr, u32)>,
    stale: bool,
    /// Segment-table rebuilds so far.
    rebuilds: u64,
}

impl StructureTable {
    /// Registers `name` over `[lo, hi)` and returns its index.
    pub(crate) fn push(&mut self, name: &str, lo: Addr, hi: Addr) -> usize {
        self.names.push(name.to_string());
        self.ranges.push((lo, hi));
        self.stale = true;
        self.ranges.len() - 1
    }

    /// Registered names, in registration order.
    pub(crate) fn names(&self) -> &[String] {
        &self.names
    }

    /// The index of the last-registered range containing `addr`.
    pub(crate) fn lookup(&mut self, addr: Addr) -> Option<usize> {
        if self.stale {
            self.rebuild();
        }
        let after = self.segments.partition_point(|&(lo, _, _)| lo <= addr);
        let &(_, hi, index) = self.segments.get(after.checked_sub(1)?)?;
        (addr < hi).then_some(index as usize)
    }

    /// Flattens the ranges into disjoint segments: a sweep over the range
    /// boundaries keeps the registrations open at each point in a max-heap
    /// by index, whose top (after dropping ranges already closed) owns the
    /// span up to the next boundary.
    fn rebuild(&mut self) {
        let ranges = &self.ranges;
        let mut opening: Vec<usize> = (0..ranges.len()).filter(|&i| ranges[i].0 < ranges[i].1).collect();
        opening.sort_by_key(|&i| ranges[i].0);
        let mut bounds: Vec<Addr> = opening.iter().flat_map(|&i| [ranges[i].0, ranges[i].1]).collect();
        bounds.sort_unstable();
        bounds.dedup();
        self.segments.clear();
        let mut open = BinaryHeap::new();
        let mut next = 0;
        for span in bounds.windows(2) {
            let (lo, hi) = (span[0], span[1]);
            while next < opening.len() && ranges[opening[next]].0 <= lo {
                open.push(opening[next]);
                next += 1;
            }
            while open.peek().is_some_and(|&i| ranges[i].1 <= lo) {
                open.pop();
            }
            // The top range starts at or before `lo` and ends at a
            // boundary past it, so it covers all of `[lo, hi)`.
            if let Some(&i) = open.peek() {
                match self.segments.last_mut() {
                    Some(last) if last.1 == lo && last.2 as usize == i => last.1 = hi,
                    _ => self.segments.push((lo, hi, i as u32)),
                }
            }
        }
        self.stale = false;
        self.rebuilds += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The linear scan the segment table replaces: the last-registered
    /// range containing `addr`.
    fn scan(ranges: &[(Addr, Addr)], addr: Addr) -> Option<usize> {
        ranges.iter().rposition(|&(lo, hi)| (lo..hi).contains(&addr))
    }

    #[test]
    fn lookup_matches_the_last_registration_scan() {
        let mut rng = sim_engine::SplitMix64::new(0x5e9_7ab1e);
        for round in 0..200 {
            let mut t = StructureTable::default();
            let count = rng.next_range(1, 40) as usize;
            for k in 0..count {
                // Word-aligned ranges in a small window so overlaps, nesting
                // and duplicates are common; some are zero words long.
                let lo = 0x1000 + 4 * rng.next_below(64) as Addr;
                let words = match rng.next_below(8) {
                    0 => 0,
                    1 => 16,
                    _ => rng.next_range(1, 6) as Addr,
                };
                let name = format!("s{}", rng.next_below(4));
                t.push(&name, lo, lo + 4 * words);
                // Nested duplicate of the previous range now and then.
                if k > 0 && rng.next_below(5) == 0 {
                    let (plo, phi) = t.ranges[t.ranges.len() - 1];
                    t.push(&name, plo, phi);
                }
            }
            let ranges = t.ranges.clone();
            for addr in (0x1000 - 8..0x1000 + 4 * 90).step_by(4) {
                for probe in [addr, addr + 1, addr + 3] {
                    assert_eq!(t.lookup(probe), scan(&ranges, probe), "round {round}, addr {probe:#x}");
                }
            }
        }
    }

    #[test]
    fn a_burst_of_registrations_rebuilds_once() {
        let mut t = StructureTable::default();
        assert_eq!(t.lookup(0x40), None);
        assert_eq!(t.rebuilds, 0, "an empty table has nothing to build");
        for k in 0..16 {
            t.push(&format!("s{k}"), 0x100 * k, 0x100 * k + 8);
        }
        assert_eq!(t.rebuilds, 0, "registering does not rebuild");
        assert_eq!(t.lookup(0x304), Some(3));
        assert_eq!(t.lookup(0x308), None);
        assert_eq!(t.rebuilds, 1, "16 registrations, one rebuild");
        for addr in 0..0x1000 {
            t.lookup(addr);
        }
        assert_eq!(t.rebuilds, 1, "lookups reuse the table");
        t.push("late", 0x300, 0x304);
        assert_eq!(t.lookup(0x300), Some(16), "a later registration wins");
        assert_eq!(t.lookup(0x304), Some(3));
        assert_eq!(t.rebuilds, 2);
    }
}
