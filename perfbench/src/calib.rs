//! Host-speed calibration. Shared hosts drift in speed by tens of percent
//! within a minute, which would swamp any change worth measuring. After
//! every direct cell and every sweep batch the benchmark times a short,
//! fixed piece of its own code whose mix resembles the simulator's hot path
//! (hash-map updates, a binary heap, small allocations, scattered writes to
//! a few megabytes), on as many threads as the pass keeps busy. Each pass
//! then scales its host times by
//! `NOMINAL_S / median(its probe times)`. The probe is the benchmark's code,
//! not the simulator's, so a faster simulator still reads faster while a
//! slower host does not. Probe time is excluded from every reported time;
//! the probe's 4 MB table per thread is part of `peak_rss_mb`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::report::median;

/// Median probe time on the host the bounds were set on (2-core x86-64 VM
/// at 2.0 GHz): scaled times are seconds as that host measures them at its
/// typical speed.
pub const NOMINAL_S: f64 = 0.012;
/// Steps of one probe (about 12 ms on that host).
const STEPS: u64 = 50_000;
/// Words of the probe's table (4 MB).
const TABLE_WORDS: usize = 1 << 19;

/// Host-speed factor of a pass from its probe times.
pub fn factor(probes: &[f64]) -> f64 {
    if probes.is_empty() {
        1.0
    } else {
        NOMINAL_S / median(probes)
    }
}

pub struct Probe {
    /// Allocated once, so probes do not time page faults.
    table: Vec<u64>,
    /// Threads that probe alongside this one. They live as long as the
    /// probe, so their allocations stay in one place and `peak_rss_mb`
    /// does not depend on which threads the allocator saw come and go.
    helpers: Vec<Helper>,
}

struct Helper {
    go: Option<mpsc::Sender<()>>,
    done: mpsc::Receiver<f64>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Helper {
    fn spawn() -> Helper {
        let (go, wake) = mpsc::channel::<()>();
        let (report, done) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let mut table = vec![1; TABLE_WORDS];
            while wake.recv().is_ok() {
                if report.send(probe(&mut table)).is_err() {
                    break;
                }
            }
        });
        Helper { go: Some(go), done, thread: Some(thread) }
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        // Closing the channel ends the helper's loop.
        self.go.take();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Probe {
    pub fn new() -> Probe {
        Probe { table: vec![1; TABLE_WORDS], helpers: Vec::new() }
    }

    /// Runs the probe on `threads` threads at once (as many as the work it
    /// calibrates keeps busy). Returns the mean probe time in seconds and
    /// the host time the whole call took.
    pub fn run(&mut self, threads: usize) -> (f64, Duration) {
        let start = Instant::now();
        while self.helpers.len() + 1 < threads {
            self.helpers.push(Helper::spawn());
        }
        let helpers = &self.helpers[..threads.max(1) - 1];
        for h in helpers {
            h.go.as_ref().expect("helper is running").send(()).expect("probe helper is alive");
        }
        let mut total = probe(&mut self.table);
        for h in helpers {
            total += h.done.recv().expect("probe helper reports");
        }
        (total / threads.max(1) as f64, start.elapsed())
    }
}

/// One probe over `table`; returns its host time in seconds.
fn probe(table: &mut [u64]) -> f64 {
    let start = Instant::now();
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(1 << 12);
    let mut heap = BinaryHeap::with_capacity(1 << 10);
    let mask = table.len() - 1;
    let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x & 0x3FFF;
        *map.entry(k).or_insert(0) += i;
        acc = acc.wrapping_add(map.get(&(k ^ 1)).copied().unwrap_or(i));
        heap.push(Reverse(x >> 44));
        if heap.len() > 512 {
            acc ^= heap.pop().map_or(0, |r| r.0);
        }
        let j = (x >> 20) as usize & mask;
        table[j] = table[j].wrapping_add(acc);
        if i % 16 == 0 {
            let v: Vec<u64> = Vec::with_capacity(4 + (x & 15) as usize);
            acc ^= black_box(v).capacity() as u64;
        }
    }
    black_box((acc, &map, &heap));
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_scales_the_median_probe_to_the_nominal_time() {
        assert_eq!(factor(&[]), 1.0);
        assert!((factor(&[NOMINAL_S * 2.0, NOMINAL_S * 2.0, 9.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn helpers_probe_alongside_and_stop_with_the_probe() {
        let mut p = Probe::new();
        let (mean, took) = p.run(2);
        assert!(mean > 0.0 && took.as_secs_f64() >= mean / 2.0);
        assert_eq!(p.helpers.len(), 1);
        p.run(1);
        assert_eq!(p.helpers.len(), 1, "helpers are reused, not respawned");
    }
}
