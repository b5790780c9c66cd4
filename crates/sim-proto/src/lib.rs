//! Coherence protocols: write-invalidate (WI), pure update (PU), and
//! competitive update (CU).
//!
//! This crate contains the protocol *policy* — every state transition, every
//! message, every classification hook — as functions over per-node state
//! ([`ProtoNode`]). It performs no scheduling itself: handlers push
//! messages to send and completions to signal into an [`Effects`] buffer
//! the caller owns, and the machine layer (`sim-machine`) turns those into
//! timed events. This split keeps the protocols unit-testable without a
//! network or clock.
//!
//! Protocol summaries (Section 3.1 of the paper):
//!
//! * **WI** — the DASH directory protocol under release consistency.
//!   Read misses fetch a shared copy (forwarded from a dirty owner when
//!   necessary). Writes obtain exclusive ownership, invalidating sharers;
//!   invalidation acks flow to the *writer* and are only waited for at
//!   release (fence) points. Atomic operations execute in the cache
//!   controller on an exclusively-held block.
//! * **PU** — write-through update. Writes (and atomics) are applied by the
//!   *home memory*, which multicasts updates to all other sharers and tells
//!   the writer how many acks to expect; sharers ack the writer directly.
//!   A block cached by its writer alone switches to *private-update* mode
//!   and stops generating traffic until another node accesses it.
//! * **CU** — PU plus a per-line counter: each arriving update increments
//!   it, local references reset it, and at the threshold (4) the line is
//!   dropped and the home is told to stop sending updates.
//!
//! Write misses under PU/CU are write-allocate: the writer becomes a sharer
//! of the block it writes. This is what makes MCS-style algorithms, whose
//! acquire/release touch *other* processors' queue nodes, accumulate
//! sharers and update traffic under update protocols — the central
//! pathology the paper reports (Section 4.1) and the reason its
//! update-conscious MCS variant flushes its neighbors' queue nodes.

pub mod effects;
pub mod msg;
pub mod node;
pub mod upd;
pub mod wi;

pub use effects::Effects;
pub use msg::{AtomicOp, MemService, Msg, MsgKind};
pub use node::{ProtoConfig, ProtoNode, Protocol};
