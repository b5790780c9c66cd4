//! Handler outcomes.

use sim_mem::{BlockAddr, Word};

use crate::msg::Msg;

/// What a protocol handler wants the machine to do.
///
/// Handlers are pure state transitions over one node; everything with a
/// time dimension is pushed into an `Effects` buffer the caller owns and
/// scheduled by `sim-machine`. The machine drains the buffer after each
/// handler and [`Effects::clear`]s it for the next one, so the vectors keep
/// their capacity and the per-event path never allocates for them.
/// Observability stays out of this struct by design: handlers report
/// classification and line-provenance facts straight into the
/// [`sim_stats::Classifier`] they are handed, which is a passive sink —
/// recording never feeds back into the effects, so simulated time and
/// traffic are identical whether provenance capture is on or off.
#[derive(Debug, Default)]
pub struct Effects {
    /// Messages to inject into the network now, in send order (the order
    /// fixes the events' tie-breaking sequence numbers).
    pub sends: Vec<Msg>,
    /// Requests to re-process at this node's home memory (directory
    /// transactions deferred while the block was busy). Each passes through
    /// the memory server again.
    pub requeue_home: Vec<Msg>,
    /// A pending CPU read completed with this value.
    pub read_done: Option<Word>,
    /// The in-flight write-buffer head transaction completed; the machine
    /// retires the entry and issues the next.
    pub write_retired: bool,
    /// A pending CPU atomic completed, returning the old value.
    pub atomic_done: Option<Word>,
    /// Cache lines of this node that changed (filled, updated, invalidated):
    /// the machine wakes any processor spin-parked on them.
    pub touched_blocks: Vec<BlockAddr>,
    /// Ack bookkeeping advanced; the machine re-checks a pending fence.
    pub sync_progress: bool,
}

impl Effects {
    /// Resets every field, keeping the vectors' capacity.
    pub fn clear(&mut self) {
        self.sends.clear();
        self.requeue_home.clear();
        self.read_done = None;
        self.write_retired = false;
        self.atomic_done = None;
        self.touched_blocks.clear();
        self.sync_progress = false;
    }

    /// Whether the buffer holds nothing at all.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
            && self.requeue_home.is_empty()
            && self.read_done.is_none()
            && !self.write_retired
            && self.atomic_done.is_none()
            && self.touched_blocks.is_empty()
            && !self.sync_progress
    }
}

/// Runs `handler` against a fresh buffer and returns what it pushed.
#[cfg(test)]
pub(crate) fn collect(handler: impl FnOnce(&mut Effects)) -> Effects {
    let mut fx = Effects::default();
    handler(&mut fx);
    fx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_resets_every_field_and_keeps_capacity() {
        let mut fx = Effects {
            read_done: Some(7),
            write_retired: true,
            atomic_done: Some(3),
            touched_blocks: vec![BlockAddr(0x40)],
            sync_progress: true,
            ..Default::default()
        };
        assert!(!fx.is_empty());
        fx.clear();
        assert!(fx.is_empty());
        assert!(fx.touched_blocks.capacity() >= 1, "capacity survives the clear");
    }
}
