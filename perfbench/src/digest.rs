//! Per-cell result digests and the reference table they are checked
//! against. A digest holds the simulated outcome a host-speed change must
//! not move: cycles, instructions, the miss and update classes, and the
//! network counters.

use std::collections::HashMap;

use kernels::runner::ExperimentOutcome;
use sim_machine::RunResult;
use sim_net::NetCounters;
use sim_stats::TrafficReport;

/// Reference digests recorded at [`crate::cells::DEFAULT_SEED`] by
/// `perfbench --record-reference perfbench/reference.txt`.
const REFERENCE: &str = include_str!("../reference.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub cycles: u64,
    /// Instructions retired; a sweep outcome does not carry them, so
    /// `figures` cells compare everything else and take this from the
    /// reference.
    pub instructions: Option<u64>,
    pub misses: [u64; 6],
    pub updates: [u64; 6],
    pub net: [u64; 4],
}

impl Digest {
    fn new(cycles: u64, instructions: Option<u64>, traffic: &TrafficReport, net: &NetCounters) -> Digest {
        let (m, u) = (&traffic.misses, &traffic.updates);
        Digest {
            cycles,
            instructions,
            misses: [m.cold, m.true_sharing, m.false_sharing, m.eviction, m.drop, m.exclusive_requests],
            updates: [u.true_sharing, u.false_sharing, u.proliferation, u.replacement, u.termination, u.drop],
            net: [net.messages, net.local_messages, net.flits, net.total_hops],
        }
    }

    pub fn of_run(r: &RunResult) -> Digest {
        Digest::new(r.cycles, Some(r.instructions), &r.traffic, &r.net)
    }

    pub fn of_outcome(o: &ExperimentOutcome) -> Digest {
        Digest::new(o.cycles, None, &o.traffic, &o.net)
    }

    /// Equal on every field both sides carry.
    pub fn matches(&self, other: &Digest) -> bool {
        let instr_ok = match (self.instructions, other.instructions) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        };
        instr_ok
            && self.cycles == other.cycles
            && self.misses == other.misses
            && self.updates == other.updates
            && self.net == other.net
    }

    /// One reference-file line (without the label).
    pub fn to_line(self) -> String {
        let instr = self.instructions.expect("reference digests come from direct runs");
        let nums: Vec<String> = [self.cycles, instr]
            .iter()
            .chain(&self.misses)
            .chain(&self.updates)
            .chain(&self.net)
            .map(u64::to_string)
            .collect();
        nums.join(" ")
    }

    fn parse(fields: &[&str]) -> Option<Digest> {
        let nums: Vec<u64> = fields.iter().map(|f| f.parse().ok()).collect::<Option<_>>()?;
        if nums.len() != 18 {
            return None;
        }
        let mut d = Digest {
            cycles: nums[0],
            instructions: Some(nums[1]),
            misses: [0; 6],
            updates: [0; 6],
            net: [0; 4],
        };
        d.misses.copy_from_slice(&nums[2..8]);
        d.updates.copy_from_slice(&nums[8..14]);
        d.net.copy_from_slice(&nums[14..18]);
        Some(d)
    }
}

/// The reference table: cell label to digest at the default seed.
pub fn reference() -> HashMap<String, Digest> {
    parse_reference(REFERENCE)
}

fn parse_reference(text: &str) -> HashMap<String, Digest> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let fields: Vec<&str> = l.split_whitespace().collect();
            let d = Digest::parse(&fields[1..]).unwrap_or_else(|| panic!("malformed reference line: {l}"));
            (fields[0].to_string(), d)
        })
        .collect()
}

/// Checks each cell's digest. Seed-independent cells must equal the
/// reference. A seeded cell equals the reference at the default seed; at
/// another seed it must repeat its own first digest on every pass.
pub struct Checker {
    reference: HashMap<String, Digest>,
    check_seeded: bool,
    first_seen: HashMap<String, Digest>,
}

impl Checker {
    pub fn new(seed: u64) -> Checker {
        Checker::with_reference(reference(), seed)
    }

    pub fn with_reference(reference: HashMap<String, Digest>, seed: u64) -> Checker {
        Checker { reference, check_seeded: seed == crate::cells::DEFAULT_SEED, first_seen: HashMap::new() }
    }

    /// `Err` names what differed.
    pub fn check(&mut self, label: &str, seeded: bool, got: &Digest) -> Result<(), String> {
        if seeded && !self.check_seeded {
            let first = *self.first_seen.entry(label.to_string()).or_insert(*got);
            return if first.matches(got) {
                Ok(())
            } else {
                Err(format!("digest changed between passes: {first:?} then {got:?}"))
            };
        }
        match self.reference.get(label) {
            None => Err("no reference digest for this cell".to_string()),
            Some(want) if want.matches(got) => Ok(()),
            Some(want) => Err(format!("digest mismatch: want {want:?}, got {got:?}")),
        }
    }

    /// Reference instructions of a cell (for sweep outcomes, which lack them).
    pub fn instructions(&self, label: &str) -> u64 {
        self.reference.get(label).and_then(|d| d.instructions).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_covers_every_cell() {
        let table = reference();
        for c in crate::cells::all_cells(crate::cells::DEFAULT_SEED) {
            assert!(table.contains_key(&c.label), "{} missing from reference.txt", c.label);
        }
    }

    #[test]
    fn lines_round_trip() {
        let d = Digest {
            cycles: 9,
            instructions: Some(8),
            misses: [1, 2, 3, 4, 5, 6],
            updates: [7, 8, 9, 10, 11, 12],
            net: [13, 14, 15, 16],
        };
        let table = parse_reference(&format!("# comment\nx {}\n", d.to_line()));
        assert_eq!(table["x"], d);
    }
}
