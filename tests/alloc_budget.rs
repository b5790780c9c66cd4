//! Allocation budget of the event hot path.
//!
//! A counting global allocator tallies the heap allocations made on the
//! thread that runs `Machine::run`, and each test divides them by the
//! events dispatched. Event-queue nodes and protocol-handler effects are
//! recycled, so what remains per event is mostly block data carried by
//! messages. The lock budgets are half the rate this code had while the
//! queue kept one growable bucket per wheel slot and every handler
//! returned a freshly allocated effects struct; the barrier budget is half
//! the rate while the classifier kept live update records in a map of maps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kernels::workloads::{BarrierKind, BarrierWorkload, LockKind, LockWorkload, PostRelease};
use kernels::{barriers, locks};
use sim_machine::{Machine, MachineConfig};
use sim_proto::Protocol;

struct Counting;

thread_local! {
    /// Allocations made by this thread; tests run on threads of their own.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a plain thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations per dispatched event while `run` drives an installed
/// kernel to completion on `cfg` (set-up and verification excluded).
fn allocs_per_event<L>(
    cfg: MachineConfig,
    install: impl FnOnce(&mut Machine) -> L,
    verify: impl FnOnce(&mut Machine, &L),
) -> f64 {
    let mut m = Machine::new(cfg);
    let layout = install(&mut m);
    let before = ALLOCS.with(Cell::get);
    m.run();
    let allocs = ALLOCS.with(Cell::get) - before;
    verify(&mut m, &layout);
    allocs as f64 / m.events_dispatched() as f64
}

/// The rate of an 8-processor MCS-lock cell. The budgets below halve the
/// old rates: 0.813 under WI and 0.949 under PU.
fn lock_allocs_per_event(cfg: MachineConfig) -> f64 {
    let w = LockWorkload {
        kind: LockKind::Mcs,
        total_acquires: 800,
        cs_cycles: 50,
        post_release: PostRelease::None,
    };
    allocs_per_event(cfg, |m| locks::install(m, &w), |m, layout| locks::verify(m, &w, layout))
}

#[test]
fn wi_cell_stays_within_its_allocation_budget() {
    const BUDGET: f64 = 0.813 / 2.0;
    let rate = lock_allocs_per_event(MachineConfig::paper(8, Protocol::WriteInvalidate));
    assert!(rate <= BUDGET, "WI: {rate:.3} allocations per event, budget {BUDGET:.3}");
}

#[test]
fn pu_cell_stays_within_its_allocation_budget() {
    const BUDGET: f64 = 0.949 / 2.0;
    let rate = lock_allocs_per_event(MachineConfig::paper(8, Protocol::PureUpdate));
    assert!(rate <= BUDGET, "PU: {rate:.3} allocations per event, budget {BUDGET:.3}");
}

// The observed cells run the same lock with every observability
// collector on. Per-message and per-wait collector updates are keyed by
// dense indices, so observing adds little beyond the journey records and
// samples it keeps. Each budget halves the rate of the collectors that
// keyed by tuples and strings and walked an allocated route per message:
// 1.209 under WI, 1.419 under PU and 1.394 under CU.

#[test]
fn observed_wi_cell_stays_within_its_allocation_budget() {
    const BUDGET: f64 = 1.209 / 2.0;
    let rate = lock_allocs_per_event(MachineConfig::paper_observed(8, Protocol::WriteInvalidate));
    assert!(rate <= BUDGET, "observed WI: {rate:.3} allocations per event, budget {BUDGET:.3}");
}

#[test]
fn observed_pu_cell_stays_within_its_allocation_budget() {
    const BUDGET: f64 = 1.419 / 2.0;
    let rate = lock_allocs_per_event(MachineConfig::paper_observed(8, Protocol::PureUpdate));
    assert!(rate <= BUDGET, "observed PU: {rate:.3} allocations per event, budget {BUDGET:.3}");
}

#[test]
fn observed_cu_cell_stays_within_its_allocation_budget() {
    const BUDGET: f64 = 1.394 / 2.0;
    let rate = lock_allocs_per_event(MachineConfig::paper_observed(8, Protocol::CompetitiveUpdate));
    assert!(rate <= BUDGET, "observed CU: {rate:.3} allocations per event, budget {BUDGET:.3}");
}

// The centralized barrier under PU delivers an update of the counter and
// the flag to every sharer each episode, and each delivery opened a live
// update record. The classifier kept those in a map of maps, so every
// record that was consumed and reopened freed and allocated an inner map.
// Its records are now bits in a dense per-(node, block) record. The budget
// halves the rate of the map-of-maps classifier: 0.0764 (this code
// measures 0.0068).

#[test]
fn pu_central_barrier_cell_stays_within_its_allocation_budget() {
    const BUDGET: f64 = 0.0764 / 2.0;
    let w = BarrierWorkload { kind: BarrierKind::Centralized, episodes: 100 };
    let rate = allocs_per_event(
        MachineConfig::paper(8, Protocol::PureUpdate),
        |m| barriers::install(m, &w),
        |m, layout| barriers::verify(m, &w, layout),
    );
    assert!(rate <= BUDGET, "PU barrier: {rate:.4} allocations per event, budget {BUDGET:.4}");
}
