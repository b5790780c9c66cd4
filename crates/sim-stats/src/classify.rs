//! The event-driven classifier.

use sim_engine::snapshot::{SnapError, SnapReader, SnapWriter};
use sim_engine::{Cycle, NodeId};
use sim_mem::{Addr, BlockAddr, BlockTable, Geometry};

use crate::lineage::{Lineage, LineageReport};
use crate::report::{MissClass, MissStats, TrafficReport, UpdateClass, UpdateStats};
use crate::structures::StructureTable;

/// Per-home-node update accounting for the network telemetry layer: which
/// home directory's traffic turned out useful vs useless, and how many
/// update deliveries each home's region generated. Indexed by home node.
#[derive(Debug, Clone, Default)]
pub struct HomeUpdates {
    /// End-of-lifetime update classification, bucketed by the updated
    /// word's home node.
    pub classified: Vec<UpdateStats>,
    /// `(applied, dropped)` update arrivals at sharer caches, bucketed by
    /// the updated word's home node.
    pub deliveries: Vec<(u64, u64)>,
}

impl HomeUpdates {
    fn new(num_nodes: usize) -> Self {
        HomeUpdates {
            classified: vec![UpdateStats::default(); num_nodes],
            deliveries: vec![(0, 0); num_nodes],
        }
    }
}

/// Why a cache copy went away — recorded when it happens, consumed when the
/// node misses on the block again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossCause {
    /// Invalidated by another processor's write; carries the written word's
    /// address and the writer so the next miss can be split into true vs
    /// false sharing.
    External { word_addr: Addr, writer: NodeId },
    /// Displaced by a direct-mapped conflict.
    Eviction,
    /// Self-invalidated: competitive-update drop or an explicit flush.
    SelfInvalidate,
}

/// Most words a block may hold: one bit each in [`CopyRecord`]'s masks.
const MAX_WORDS: usize = 16;

/// Most nodes a machine may have: one bit each in [`BlockState::holders`].
const MAX_NODES: usize = 64;

/// The last globally-visible write of one word, packed as
/// `cycle << 8 | (writer + 1)`; 0 means no write yet.
#[derive(Debug, Clone, Copy, Default)]
struct LastWrite(u64);

impl LastWrite {
    fn new(writer: NodeId, at: Cycle) -> Self {
        assert!(writer < MAX_NODES && at >> 56 == 0, "write by node {writer} at cycle {at} does not fit");
        LastWrite(at << 8 | (writer as u64 + 1))
    }

    fn get(self) -> Option<(NodeId, Cycle)> {
        (self.0 != 0).then(|| ((self.0 & 0xff) as NodeId - 1, self.0 >> 8))
    }
}

/// How much is known of one (node, block) copy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum CopyState {
    /// No miss, fill or loss has named the copy; the record holds live
    /// update records only.
    #[default]
    Unseen,
    /// A miss or a loss named the copy; it was never installed.
    Seen,
    /// The copy was installed at least once.
    Cached,
}

/// Why the copy last went away; the word and writer of an external loss
/// live in [`CopyRecord`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Loss {
    #[default]
    None,
    External,
    Eviction,
    SelfInvalidate,
}

/// Copy history and live update records of one (node, block) pair,
/// packed into 16 bytes.
///
/// A live update record is a delivered update not yet consumed or dead;
/// bit `w` of `live` stands for word `w`. `referenced` marks the live
/// records whose block has seen a reference to another word since their
/// delivery (the false-sharing evidence); it is always a subset of `live`.
#[derive(Debug, Clone, Copy, Default)]
struct CopyRecord {
    /// Cycle of the last loss (meaningful unless `loss` is `None`).
    lost_at: Cycle,
    live: u16,
    referenced: u16,
    state: CopyState,
    loss: Loss,
    /// Word index and writer of an external loss.
    loss_word: u8,
    loss_writer: u8,
}

const _: () = assert!(std::mem::size_of::<CopyRecord>() == 16);

impl CopyRecord {
    /// Marks the copy as named by a miss or a loss, which gives it a copy
    /// history even if it was never installed.
    fn see(&mut self) {
        if self.state == CopyState::Unseen {
            self.state = CopyState::Seen;
        }
    }

    fn lost(&self) -> Option<(Cycle, Loss)> {
        (self.loss != Loss::None).then_some((self.lost_at, self.loss))
    }
}

/// Classification state of one block.
///
/// Most blocks are touched by a few nodes only, so copy records are kept
/// for those nodes alone, in node order; `holders` says which nodes have
/// one, and a record's index is the number of holders below its node.
#[derive(Debug, Clone, Default)]
struct BlockState {
    /// Last globally-visible write of each word.
    writes: [LastWrite; MAX_WORDS],
    holders: u64,
    records: Vec<CopyRecord>,
}

/// The bit of `node` in [`BlockState::holders`].
fn node_bit(node: NodeId) -> u64 {
    assert!(node < MAX_NODES, "node {node} out of range");
    1 << node
}

impl BlockState {
    /// The index in `records` of `node`'s record, if it has one.
    fn index(&self, node: NodeId) -> Option<usize> {
        let bit = node_bit(node);
        (self.holders & bit != 0).then(|| (self.holders & (bit - 1)).count_ones() as usize)
    }

    fn record(&self, node: NodeId) -> Option<&CopyRecord> {
        self.index(node).map(|i| &self.records[i])
    }

    fn record_mut(&mut self, node: NodeId) -> Option<&mut CopyRecord> {
        self.index(node).map(|i| &mut self.records[i])
    }

    /// The record of `node`, made empty if absent.
    fn record_or_insert(&mut self, node: NodeId) -> &mut CopyRecord {
        let bit = node_bit(node);
        let at = (self.holders & (bit - 1)).count_ones() as usize;
        if self.holders & bit == 0 {
            self.holders |= bit;
            self.records.insert(at, CopyRecord::default());
        }
        &mut self.records[at]
    }
}

/// Classifies every miss and update message of a run, given raw events from
/// the protocol layer.
///
/// Event order contract (enforced by the machine): for any word, the
/// `word_written` commit event is emitted no later than the invalidations
/// or update deliveries that the write causes.
///
/// Every block the classifier has seen holds a [`BlockState`] slot in a
/// [`BlockTable`], whose slot number is the block's id: the last writer of
/// each word and a [`CopyRecord`] per node that touched the block. Each
/// event costs one table lookup and no hashing.
#[derive(Debug)]
pub struct Classifier {
    geom: Geometry,
    blocks: BlockTable<BlockState>,
    /// Registered data-structure address ranges for attribution.
    structures: StructureTable,
    report: TrafficReport,
    finished: bool,
    /// Per-line provenance recorder (PR 3). `None` — the default — keeps
    /// every code path below branch-free on the lineage side, so the
    /// classifier behaves bit-identically to a build without it.
    lineage: Option<Box<Lineage>>,
    /// Per-home update accounting for network telemetry (PR 5). Same
    /// passivity contract as `lineage`: `None` by default, pure mirror of
    /// the classifications when on.
    home_updates: Option<Box<HomeUpdates>>,
}

impl Classifier {
    /// Creates a classifier for a machine with the given geometry.
    pub fn new(geom: Geometry) -> Self {
        assert!(geom.words_per_block() as usize <= MAX_WORDS, "blocks of more than {MAX_WORDS} words");
        assert!(geom.num_nodes <= MAX_NODES, "more than {MAX_NODES} nodes");
        Classifier {
            geom,
            blocks: BlockTable::new(&geom),
            structures: StructureTable::default(),
            report: TrafficReport::default(),
            finished: false,
            lineage: None,
            home_updates: None,
        }
    }

    // ------------------------------------------------------------------
    // Lineage (per-line provenance; see [`crate::lineage`])
    // ------------------------------------------------------------------

    /// Switches on per-line provenance recording. Passive: the classified
    /// totals are unchanged; lineage only mirrors and annotates them.
    pub fn enable_lineage(&mut self) {
        self.lineage = Some(Box::new(Lineage::new(self.geom.num_nodes, self.geom.block_bytes)));
    }

    /// The live lineage recorder, when enabled.
    pub fn lineage(&self) -> Option<&Lineage> {
        self.lineage.as_deref()
    }

    /// Freezes and detaches the lineage report. Call after
    /// [`Classifier::finish`] so end-of-run update classifications are
    /// mirrored in.
    pub fn take_lineage(&mut self) -> Option<LineageReport> {
        self.lineage.take().map(|l| l.into_report())
    }

    /// Switches on per-home-node update accounting. Passive like lineage:
    /// classifications are mirrored into per-home buckets, nothing else
    /// changes.
    pub fn enable_home_stats(&mut self) {
        self.home_updates = Some(Box::new(HomeUpdates::new(self.geom.num_nodes)));
    }

    /// Detaches the per-home update accounting. Call after
    /// [`Classifier::finish`] so end-of-run classifications are included.
    pub fn take_home_stats(&mut self) -> Option<HomeUpdates> {
        self.home_updates.take().map(|h| *h)
    }

    /// `node` entered program `phase` (bridged from the machine's `Phase`
    /// markers so provenance events carry the acting node's phase).
    pub fn set_phase(&mut self, node: NodeId, phase: u16) {
        if let Some(l) = self.lineage.as_mut() {
            l.set_phase(node, phase);
        }
    }

    /// The home directory entry for `block` moved `from` → `to` while
    /// handling `msg` from `actor`. No-op (and no-cost) when lineage is off.
    pub fn dir_transition(
        &mut self,
        block: BlockAddr,
        from: &'static str,
        to: &'static str,
        actor: NodeId,
        msg: &'static str,
        now: Cycle,
    ) {
        if let Some(l) = self.lineage.as_mut() {
            l.dir_transition(block, from, to, actor, msg, now);
        }
    }

    /// An update message from `writer` arrived at `node`'s cache (applied,
    /// or a competitive-threshold `dropped`). Record the writer→victim edge
    /// before [`Classifier::update_delivered`] / `update_caused_drop` runs.
    pub fn update_arrival(&mut self, node: NodeId, addr: Addr, writer: NodeId, dropped: bool, now: Cycle) {
        if let Some(l) = self.lineage.as_mut() {
            let block = self.geom.block_of(addr);
            l.update_arrival(node, block, writer, dropped, now);
        }
        if let Some(h) = self.home_updates.as_mut() {
            let d = &mut h.deliveries[self.geom.home_of(addr)];
            if dropped {
                d.1 += 1;
            } else {
                d.0 += 1;
            }
        }
    }

    /// Registers a named address range (a shared data structure) so the
    /// report can attribute classified traffic to it — the analysis style
    /// the paper uses ("the vast majority of this useless traffic
    /// corresponds to changes in the centralized counter"). Ranges are
    /// half-open `[addr, addr + words*4)`; later registrations win on
    /// overlap.
    pub fn register_structure(&mut self, name: &str, addr: Addr, words: u32) {
        self.structures.push(name, addr, addr + 4 * words);
        self.report.by_structure.push(crate::report::StructureTraffic {
            name: name.to_string(),
            misses: Default::default(),
            updates: Default::default(),
        });
        if let Some(l) = self.lineage.as_mut() {
            l.register_structure(name, addr, addr + 4 * words);
        }
    }

    /// The registered structure covering `addr`, if any, as its index in
    /// registration order (later registrations win on overlap, matching
    /// traffic attribution). Resolve it with
    /// [`Classifier::structure_names`].
    pub fn structure_of(&mut self, addr: Addr) -> Option<usize> {
        self.structures.lookup(addr)
    }

    /// Registered structure names, in registration order.
    pub fn structure_names(&self) -> &[String] {
        self.structures.names()
    }

    /// The last globally-visible writer of `addr` and the commit cycle —
    /// the causal source of a wait that ended on that word. Feeds the
    /// critical-path profiler's chain merges.
    pub fn last_writer_of(&self, addr: Addr) -> Option<(NodeId, Cycle)> {
        self.blocks.get(self.geom.block_of(addr)).and_then(|b| b.writes[self.geom.word_index(addr)].get())
    }

    fn bump_miss(&mut self, addr: Addr, class: MissClass) {
        self.report.misses.bump(class);
        if let Some(i) = self.structure_of(addr) {
            self.report.by_structure[i].misses.bump(class);
        }
        if let Some(l) = self.lineage.as_mut() {
            l.mirror_miss(self.geom.block_of(addr), class);
        }
    }

    fn bump_update(&mut self, addr: Addr, class: UpdateClass) {
        self.report.updates.bump(class);
        if let Some(i) = self.structure_of(addr) {
            self.report.by_structure[i].updates.bump(class);
        }
        if let Some(l) = self.lineage.as_mut() {
            l.mirror_update(self.geom.block_of(addr), class);
        }
        if let Some(h) = self.home_updates.as_mut() {
            h.classified[self.geom.home_of(addr)].bump(class);
        }
    }

    /// The id of `block`, making its slot if absent.
    fn block_id(&mut self, block: BlockAddr) -> usize {
        self.blocks.id_or_insert_with(block, BlockState::default)
    }

    /// The copy record of `node` for block `id`, made empty if absent.
    fn record(&mut self, id: usize, node: NodeId) -> &mut CopyRecord {
        self.blocks.slot_mut(id).record_or_insert(node)
    }

    /// Classifies (and kills) every live update record of `node` for block
    /// `id` with `class(referenced)`.
    fn kill_live(&mut self, id: usize, node: NodeId, class: impl Fn(bool) -> UpdateClass) {
        let Some(rec) = self.blocks.slot_mut(id).record_mut(node) else { return };
        let (live, referenced) = (rec.live, rec.referenced);
        rec.live = 0;
        rec.referenced = 0;
        let base = self.blocks.key(id).0;
        for widx in Bits(live.into()) {
            self.bump_update(base + 4 * widx as Addr, class(referenced & 1 << widx != 0));
        }
    }

    // ------------------------------------------------------------------
    // Reference counting
    // ------------------------------------------------------------------

    /// A processor issued a shared read.
    pub fn count_read(&mut self) {
        self.report.shared_reads += 1;
    }

    /// A processor issued a shared write.
    pub fn count_write(&mut self) {
        self.report.shared_writes += 1;
    }

    /// A processor issued a shared atomic operation.
    pub fn count_atomic(&mut self) {
        self.report.shared_atomics += 1;
    }

    // ------------------------------------------------------------------
    // Write visibility
    // ------------------------------------------------------------------

    /// A write to `addr` by `writer` became globally visible.
    pub fn word_written(&mut self, writer: NodeId, addr: Addr, now: Cycle) {
        let id = self.block_id(self.geom.block_of(addr));
        self.blocks.slot_mut(id).writes[self.geom.word_index(addr)] = LastWrite::new(writer, now);
        if let Some(l) = self.lineage.as_mut() {
            l.note_write(writer, self.geom.block_of(addr));
        }
    }

    // ------------------------------------------------------------------
    // Copy lifecycle
    // ------------------------------------------------------------------

    /// `node` installed a copy of `block` in its cache.
    pub fn copy_acquired(&mut self, node: NodeId, block: BlockAddr) {
        let id = self.block_id(block);
        let rec = self.record(id, node);
        rec.state = CopyState::Cached;
        rec.loss = Loss::None;
    }

    /// `node` lost its copy of `block`. For [`LossCause::Eviction`] and
    /// [`LossCause::SelfInvalidate`], any live update records die here too
    /// (replacement updates, or leftover records at a drop/flush).
    pub fn copy_lost(&mut self, node: NodeId, block: BlockAddr, cause: LossCause, now: Cycle) {
        let id = self.block_id(block);
        let geom = self.geom;
        let rec = self.record(id, node);
        rec.see();
        rec.lost_at = now;
        rec.loss = match cause {
            LossCause::External { word_addr, writer } => {
                assert_eq!(geom.block_of(word_addr), block, "invalidating write outside the lost block");
                rec.loss_word = geom.word_index(word_addr) as u8;
                assert!(writer < MAX_NODES, "writer {writer} out of range");
                rec.loss_writer = writer as u8;
                Loss::External
            }
            LossCause::Eviction => Loss::Eviction,
            LossCause::SelfInvalidate => Loss::SelfInvalidate,
        };
        if let Some(l) = self.lineage.as_mut() {
            match cause {
                LossCause::External { word_addr, writer } => {
                    l.invalidation(node, block, writer, word_addr, now)
                }
                LossCause::Eviction | LossCause::SelfInvalidate => l.copy_lost_local(node, block),
            }
        }
        self.kill_live(id, node, |referenced| match cause {
            LossCause::Eviction => UpdateClass::Replacement,
            // Records still live when the block self-invalidates or is
            // invalidated externally were never going to be consumed:
            // useless. Active false sharing wins over proliferation, as in
            // the paper's algorithm.
            LossCause::SelfInvalidate | LossCause::External { .. } => {
                if referenced {
                    UpdateClass::FalseSharing
                } else {
                    UpdateClass::Proliferation
                }
            }
        });
    }

    /// A write under WI hit a read-shared copy and issued an exclusive
    /// (upgrade) request.
    pub fn exclusive_request(&mut self, _node: NodeId, block: BlockAddr) {
        self.report.misses.exclusive_requests += 1;
        if let Some(i) = self.structure_of(block.0) {
            self.report.by_structure[i].misses.exclusive_requests += 1;
        }
        if let Some(l) = self.lineage.as_mut() {
            l.mirror_exclusive(block);
        }
    }

    // ------------------------------------------------------------------
    // Misses
    // ------------------------------------------------------------------

    /// `node` missed on the word at `addr`; classify and count the miss.
    /// Call at miss-detection time, before the refill's `copy_acquired`.
    pub fn classify_miss(&mut self, node: NodeId, addr: Addr, now: Cycle) -> MissClass {
        let block = self.geom.block_of(addr);
        let widx = self.geom.word_index(addr);
        let id = self.block_id(block);
        let rec = self.record(id, node);
        rec.see();
        let history = *rec;
        let class = if history.state != CopyState::Cached {
            MissClass::Cold
        } else {
            match history.lost() {
                // A refill after a protocol-initiated state change that
                // never removed the copy, or a re-miss with no recorded
                // loss: treat conservatively as cold-start-like truth is
                // unreachable; count as true sharing only with evidence.
                None => MissClass::Cold,
                Some((_, Loss::Eviction)) => MissClass::Eviction,
                Some((_, Loss::SelfInvalidate)) => MissClass::Drop,
                Some((lost_at, _)) => {
                    let same_word =
                        history.loss_word as usize == widx && history.loss_writer as NodeId != node;
                    let later_write = self.blocks.slot(id).writes[widx]
                        .get()
                        .is_some_and(|(w, t)| w != node && t >= lost_at);
                    if same_word || later_write {
                        MissClass::TrueSharing
                    } else {
                        MissClass::FalseSharing
                    }
                }
            }
        };
        if let Some(l) = self.lineage.as_mut() {
            l.miss(node, block, addr, class, now);
        }
        self.bump_miss(addr, class);
        class
    }

    // ------------------------------------------------------------------
    // Updates
    // ------------------------------------------------------------------

    /// An update message for `addr` was applied at `node`'s cache. Kills
    /// (and classifies) any live record for the same word, then opens a new
    /// record.
    pub fn update_delivered(&mut self, node: NodeId, addr: Addr) {
        let id = self.block_id(self.geom.block_of(addr));
        let bit = 1 << self.geom.word_index(addr);
        let rec = self.record(id, node);
        let overwritten = rec.live & bit != 0;
        let was_referenced = rec.referenced & bit != 0;
        rec.live |= bit;
        rec.referenced &= !bit;
        if overwritten {
            let class = if was_referenced { UpdateClass::FalseSharing } else { UpdateClass::Proliferation };
            self.bump_update(addr, class);
        }
    }

    /// The update for `addr` arriving at `node` tripped the competitive
    /// threshold: it is a *drop* update and never opens a record.
    pub fn update_caused_drop(&mut self, _node: NodeId, addr: Addr) {
        self.bump_update(addr, UpdateClass::Drop);
    }

    /// `node`'s processor *read* the word at `addr` (plain load, spin
    /// check, or atomic — all consume the value). Consumes a live record
    /// for that word as a true-sharing update and marks sibling records'
    /// blocks as referenced.
    pub fn word_referenced(&mut self, node: NodeId, addr: Addr) {
        let block = self.geom.block_of(addr);
        let widx = self.geom.word_index(addr);
        if let Some(l) = self.lineage.as_mut() {
            l.note_read(node, block);
        }
        let Some(rec) = self.blocks.get_mut(block).and_then(|b| b.record_mut(node)) else { return };
        let bit = 1 << widx;
        let consumed = rec.live & bit != 0;
        rec.live &= !bit;
        rec.referenced = rec.live;
        if consumed {
            self.bump_update(addr, UpdateClass::TrueSharing);
        }
    }

    /// `node`'s processor *wrote* the word at `addr`. A write does not
    /// consume an update's value, so a live record for the same word stays
    /// live (it will die useless); sibling records observe block activity
    /// for the false-sharing distinction.
    pub fn word_write_referenced(&mut self, node: NodeId, addr: Addr) {
        let bit = 1 << self.geom.word_index(addr);
        if let Some(rec) = self.blocks.get_mut(self.geom.block_of(addr)).and_then(|b| b.record_mut(node)) {
            rec.referenced |= rec.live & !bit;
        }
    }

    // ------------------------------------------------------------------
    // Finalization
    // ------------------------------------------------------------------

    /// Ends the run: classifies all still-live update records (termination,
    /// or false sharing when the block saw unrelated references) and
    /// freezes the report.
    pub fn finish(&mut self) -> &TrafficReport {
        assert!(!self.finished, "Classifier::finish called twice");
        self.finished = true;
        for id in 0..self.blocks.len() {
            for node in Bits(self.blocks.slot(id).holders) {
                self.kill_live(id, node, |referenced| {
                    if referenced {
                        UpdateClass::FalseSharing
                    } else {
                        UpdateClass::Termination
                    }
                });
            }
        }
        &self.report
    }

    /// The report accumulated so far (final after [`Classifier::finish`]).
    pub fn report(&self) -> &TrafficReport {
        &self.report
    }

    // ------------------------------------------------------------------
    // Checkpointing
    // ------------------------------------------------------------------

    /// Serializes the mutable classification state — writer history, copy
    /// histories, live update records, and every report counter — in a
    /// deterministic (sorted) order. Structure *registrations* and the
    /// passive instruments (lineage, home stats) are not serialized: the
    /// restore target is built by the same install path, which re-registers
    /// structures identically, and instruments restart fresh (checkpoints
    /// are taken on obs-off runs; windowed replay turns instruments on
    /// after restore).
    pub fn encode_state(&self, w: &mut SnapWriter) {
        w.bool(self.finished);
        let ids: Vec<usize> = self.blocks.ids_ascending().collect();
        let writes: Vec<(Addr, NodeId, Cycle)> = ids
            .iter()
            .flat_map(|&id| {
                let base = self.blocks.key(id).0;
                let words = self.blocks.slot(id).writes.iter().enumerate();
                words.filter_map(move |(widx, lw)| lw.get().map(|(n, c)| (base + 4 * widx as Addr, n, c)))
            })
            .collect();
        w.usize(writes.len());
        for (a, n, c) in writes {
            w.u32(a);
            w.usize(n);
            w.u64(c);
        }
        // Copy histories, then live update records, each keyed by
        // (node, block) in ascending order.
        let by_node = |keep: fn(&CopyRecord) -> bool| -> Vec<(NodeId, BlockAddr, CopyRecord)> {
            (0..self.geom.num_nodes)
                .flat_map(|n| ids.iter().map(move |&id| (n, id)))
                .filter_map(|(n, id)| Some((n, self.blocks.key(id), *self.blocks.slot(id).record(n)?)))
                .filter(|(_, _, rec)| keep(rec))
                .collect()
        };
        let histories = by_node(|rec| rec.state != CopyState::Unseen);
        w.usize(histories.len());
        for (n, b, rec) in histories {
            w.usize(n);
            w.u32(b.0);
            w.bool(rec.state == CopyState::Cached);
            match rec.lost() {
                None => w.bool(false),
                Some((cycle, loss)) => {
                    w.bool(true);
                    w.u64(cycle);
                    match loss {
                        Loss::External => {
                            w.u8(0);
                            w.u32(b.0 + 4 * rec.loss_word as Addr);
                            w.usize(rec.loss_writer as NodeId);
                        }
                        Loss::Eviction => w.u8(1),
                        Loss::SelfInvalidate => w.u8(2),
                        Loss::None => unreachable!("lost() is None for Loss::None"),
                    }
                }
            }
        }
        let live = by_node(|rec| rec.live != 0);
        w.usize(live.len());
        for (n, b, rec) in live {
            w.usize(n);
            w.u32(b.0);
            w.usize(rec.live.count_ones() as usize);
            for widx in Bits(rec.live.into()) {
                w.usize(widx);
                w.bool(rec.referenced & 1 << widx != 0);
            }
        }
        encode_report(w, &self.report);
    }

    /// Restores state captured by [`Classifier::encode_state`] into a
    /// classifier built by the same install path (same geometry, same
    /// structure registrations — enforced by a `by_structure` length check).
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.finished = r.bool()?;
        self.blocks.clear();
        let geom = self.geom;
        let word = |a: Addr| -> Result<(BlockAddr, usize), SnapError> {
            if a % 4 != 0 {
                return Err(SnapError::Corrupt("unaligned word address"));
            }
            Ok((geom.block_of(a), geom.word_index(a)))
        };
        let node = |n: usize| if n < geom.num_nodes { Ok(n) } else { Err(SnapError::Corrupt("node id")) };
        let block = |b: Addr| {
            if geom.block_of(b).0 == b {
                Ok(BlockAddr(b))
            } else {
                Err(SnapError::Corrupt("unaligned block address"))
            }
        };
        for _ in 0..r.usize()? {
            let (b, widx) = word(r.u32()?)?;
            let n = node(r.usize()?)?;
            let c = r.u64()?;
            if c >> 56 != 0 {
                return Err(SnapError::Corrupt("last-write cycle out of range"));
            }
            let id = self.block_id(b);
            self.blocks.slot_mut(id).writes[widx] = LastWrite::new(n, c);
        }
        for _ in 0..r.usize()? {
            let n = node(r.usize()?)?;
            let b = block(r.u32()?)?;
            let ever_cached = r.bool()?;
            let mut rec = CopyRecord {
                state: if ever_cached { CopyState::Cached } else { CopyState::Seen },
                ..CopyRecord::default()
            };
            if r.bool()? {
                rec.lost_at = r.u64()?;
                rec.loss = match r.u8()? {
                    0 => {
                        let (wb, widx) = word(r.u32()?)?;
                        if wb != b {
                            return Err(SnapError::Corrupt("invalidating write outside the lost block"));
                        }
                        rec.loss_word = widx as u8;
                        rec.loss_writer = node(r.usize()?)? as u8;
                        Loss::External
                    }
                    1 => Loss::Eviction,
                    2 => Loss::SelfInvalidate,
                    _ => return Err(SnapError::Corrupt("loss-cause tag")),
                };
            }
            let id = self.block_id(b);
            *self.record(id, n) = rec;
        }
        let words = geom.words_per_block() as usize;
        for _ in 0..r.usize()? {
            let n = node(r.usize()?)?;
            let b = block(r.u32()?)?;
            let id = self.block_id(b);
            for _ in 0..r.usize()? {
                let widx = r.usize()?;
                if widx >= words {
                    return Err(SnapError::Corrupt("live update word index"));
                }
                let referenced = r.bool()?;
                let rec = self.record(id, n);
                rec.live |= 1 << widx;
                rec.referenced |= u16::from(referenced) << widx;
            }
        }
        decode_report(r, &mut self.report)
    }
}

/// The indices of the set bits of a mask, ascending.
struct Bits(u64);

impl Iterator for Bits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        (self.0 != 0).then(|| {
            let i = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            i
        })
    }
}

fn encode_miss_stats(w: &mut SnapWriter, m: &MissStats) {
    for v in [m.cold, m.true_sharing, m.false_sharing, m.eviction, m.drop, m.exclusive_requests] {
        w.u64(v);
    }
}

fn decode_miss_stats(r: &mut SnapReader<'_>) -> Result<MissStats, SnapError> {
    Ok(MissStats {
        cold: r.u64()?,
        true_sharing: r.u64()?,
        false_sharing: r.u64()?,
        eviction: r.u64()?,
        drop: r.u64()?,
        exclusive_requests: r.u64()?,
    })
}

fn encode_update_stats(w: &mut SnapWriter, u: &UpdateStats) {
    for v in [u.true_sharing, u.false_sharing, u.proliferation, u.replacement, u.termination, u.drop] {
        w.u64(v);
    }
}

fn decode_update_stats(r: &mut SnapReader<'_>) -> Result<UpdateStats, SnapError> {
    Ok(UpdateStats {
        true_sharing: r.u64()?,
        false_sharing: r.u64()?,
        proliferation: r.u64()?,
        replacement: r.u64()?,
        termination: r.u64()?,
        drop: r.u64()?,
    })
}

/// Report counters travel by registration index; names come from the
/// restore target's own registrations.
fn encode_report(w: &mut SnapWriter, rep: &TrafficReport) {
    encode_miss_stats(w, &rep.misses);
    encode_update_stats(w, &rep.updates);
    w.u64(rep.shared_reads);
    w.u64(rep.shared_writes);
    w.u64(rep.shared_atomics);
    w.usize(rep.by_structure.len());
    for s in &rep.by_structure {
        encode_miss_stats(w, &s.misses);
        encode_update_stats(w, &s.updates);
    }
}

fn decode_report(r: &mut SnapReader<'_>, rep: &mut TrafficReport) -> Result<(), SnapError> {
    rep.misses = decode_miss_stats(r)?;
    rep.updates = decode_update_stats(r)?;
    rep.shared_reads = r.u64()?;
    rep.shared_writes = r.u64()?;
    rep.shared_atomics = r.u64()?;
    let n = r.usize()?;
    if n != rep.by_structure.len() {
        return Err(SnapError::Corrupt("structure registration count mismatch"));
    }
    for s in rep.by_structure.iter_mut() {
        s.misses = decode_miss_stats(r)?;
        s.updates = decode_update_stats(r)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    fn classifier() -> Classifier {
        Classifier::new(Geometry::new(4))
    }

    const B: Addr = 0x1000; // block base
    const W0: Addr = 0x1000;
    const W1: Addr = 0x1004;

    #[test]
    fn first_touch_is_cold() {
        let mut c = classifier();
        assert_eq!(c.classify_miss(0, W0, 10), MissClass::Cold);
        assert_eq!(c.report().misses.cold, 1);
    }

    #[test]
    fn invalidation_on_same_word_is_true_sharing() {
        let mut c = classifier();
        c.classify_miss(0, W0, 0);
        c.copy_acquired(0, BlockAddr(B));
        // Node 1 writes W0; node 0's copy dies.
        c.word_written(1, W0, 100);
        c.copy_lost(0, BlockAddr(B), LossCause::External { word_addr: W0, writer: 1 }, 101);
        assert_eq!(c.classify_miss(0, W0, 200), MissClass::TrueSharing);
    }

    #[test]
    fn invalidation_on_other_word_is_false_sharing() {
        let mut c = classifier();
        c.classify_miss(0, W0, 0);
        c.copy_acquired(0, BlockAddr(B));
        c.word_written(1, W1, 100);
        c.copy_lost(0, BlockAddr(B), LossCause::External { word_addr: W1, writer: 1 }, 101);
        assert_eq!(c.classify_miss(0, W0, 200), MissClass::FalseSharing);
    }

    #[test]
    fn later_write_to_missed_word_upgrades_to_true_sharing() {
        let mut c = classifier();
        c.classify_miss(0, W0, 0);
        c.copy_acquired(0, BlockAddr(B));
        // Invalidated by a write to W1, but before node 0 re-reads W0,
        // node 2 also writes W0: the miss fetches genuinely new data.
        c.word_written(1, W1, 100);
        c.copy_lost(0, BlockAddr(B), LossCause::External { word_addr: W1, writer: 1 }, 101);
        c.word_written(2, W0, 150);
        assert_eq!(c.classify_miss(0, W0, 200), MissClass::TrueSharing);
    }

    #[test]
    fn own_write_does_not_make_true_sharing() {
        let mut c = classifier();
        c.classify_miss(0, W0, 0);
        c.copy_acquired(0, BlockAddr(B));
        c.word_written(1, W1, 100);
        c.copy_lost(0, BlockAddr(B), LossCause::External { word_addr: W1, writer: 1 }, 101);
        // Node 0's own (earlier) write to W0 is not evidence of sharing.
        c.word_written(0, W0, 150);
        assert_eq!(c.classify_miss(0, W0, 200), MissClass::FalseSharing);
    }

    #[test]
    fn eviction_and_drop_misses() {
        let mut c = classifier();
        c.classify_miss(0, W0, 0);
        c.copy_acquired(0, BlockAddr(B));
        c.copy_lost(0, BlockAddr(B), LossCause::Eviction, 10);
        assert_eq!(c.classify_miss(0, W0, 20), MissClass::Eviction);
        c.copy_acquired(0, BlockAddr(B));
        c.copy_lost(0, BlockAddr(B), LossCause::SelfInvalidate, 30);
        assert_eq!(c.classify_miss(0, W0, 40), MissClass::Drop);
    }

    #[test]
    fn update_consumed_by_reference_is_true_sharing() {
        let mut c = classifier();
        c.copy_acquired(0, BlockAddr(B));
        c.update_delivered(0, W0);
        c.word_referenced(0, W0);
        assert_eq!(c.report().updates.true_sharing, 1);
        assert_eq!(c.report().updates.total(), 1);
    }

    #[test]
    fn overwritten_unreferenced_update_is_proliferation() {
        let mut c = classifier();
        c.update_delivered(0, W0);
        c.update_delivered(0, W0); // overwrites the first
        assert_eq!(c.report().updates.proliferation, 1);
        c.finish();
        // The second record terminates.
        assert_eq!(c.report().updates.termination, 1);
    }

    #[test]
    fn overwritten_update_with_block_activity_is_false_sharing() {
        let mut c = classifier();
        c.update_delivered(0, W0);
        c.word_referenced(0, W1); // touches another word of the block
        c.update_delivered(0, W0);
        assert_eq!(c.report().updates.false_sharing, 1);
    }

    #[test]
    fn replaced_block_yields_replacement_updates() {
        let mut c = classifier();
        c.update_delivered(0, W0);
        c.update_delivered(0, W1);
        c.copy_lost(0, BlockAddr(B), LossCause::Eviction, 10);
        assert_eq!(c.report().updates.replacement, 2);
    }

    #[test]
    fn drop_update_classified_directly() {
        let mut c = classifier();
        c.update_delivered(0, W0);
        // The 4th update trips the threshold; protocol reports it directly
        // and invalidates the block.
        c.update_caused_drop(0, W1);
        c.copy_lost(0, BlockAddr(B), LossCause::SelfInvalidate, 10);
        let u = c.report().updates;
        assert_eq!(u.drop, 1);
        assert_eq!(u.proliferation, 1, "the older live record dies useless");
    }

    #[test]
    fn termination_vs_false_at_end() {
        let mut c = classifier();
        c.update_delivered(0, W0);
        c.update_delivered(1, W0);
        c.word_referenced(1, W1);
        c.finish();
        let u = c.report().updates;
        assert_eq!(u.termination, 1, "node 0's record never saw block activity");
        assert_eq!(u.false_sharing, 1, "node 1 touched the block elsewhere");
    }

    #[test]
    fn reference_only_consumes_matching_word() {
        let mut c = classifier();
        c.update_delivered(0, W0);
        c.word_referenced(0, W1);
        assert_eq!(c.report().updates.true_sharing, 0);
        c.word_referenced(0, W0);
        assert_eq!(c.report().updates.true_sharing, 1);
        // A second reference does not double count.
        c.word_referenced(0, W0);
        assert_eq!(c.report().updates.true_sharing, 1);
    }

    #[test]
    fn refill_clears_loss_record() {
        let mut c = classifier();
        c.classify_miss(0, W0, 0);
        c.copy_acquired(0, BlockAddr(B));
        c.copy_lost(0, BlockAddr(B), LossCause::Eviction, 5);
        c.classify_miss(0, W0, 10);
        c.copy_acquired(0, BlockAddr(B));
        // Copy present again; a (hypothetical) re-miss with no loss recorded
        // falls back to cold classification.
        assert_eq!(c.classify_miss(0, W0, 20), MissClass::Cold);
    }

    #[test]
    #[should_panic(expected = "finish called twice")]
    fn finish_twice_panics() {
        let mut c = classifier();
        c.finish();
        c.finish();
    }

    #[test]
    fn state_round_trips_and_resumes_identically() {
        // Build two classifiers through the same registration path, drive
        // one partway, checkpoint it into the other, then drive both through
        // identical further events: final reports must match exactly.
        let build = || {
            let mut c = Classifier::new(Geometry::new(4));
            c.register_structure("lock", B, 2);
            c
        };
        let mut a = build();
        let mut b = build();
        a.classify_miss(0, W0, 0);
        a.copy_acquired(0, BlockAddr(B));
        a.word_written(1, W0, 100);
        a.copy_lost(0, BlockAddr(B), LossCause::External { word_addr: W0, writer: 1 }, 101);
        a.copy_lost(2, BlockAddr(B), LossCause::Eviction, 102);
        a.update_delivered(0, W1);
        a.update_delivered(3, W0);
        a.count_read();
        a.count_write();
        a.count_atomic();

        let mut w = sim_engine::SnapWriter::new();
        a.encode_state(&mut w);
        let bytes = w.into_vec();
        let mut r = sim_engine::SnapReader::new(&bytes);
        b.restore_state(&mut r).expect("restore");
        r.finish().expect("no trailing bytes");

        // The re-encoded state is byte-identical (deterministic order).
        let mut w2 = sim_engine::SnapWriter::new();
        b.encode_state(&mut w2);
        assert_eq!(bytes, w2.into_vec(), "re-encode is byte-identical");

        for c in [&mut a, &mut b] {
            assert_eq!(c.classify_miss(0, W0, 200), MissClass::TrueSharing);
            c.word_referenced(0, W1); // consumes the live update
            c.classify_miss(2, W0, 210);
            c.finish();
        }
        assert_eq!(a.report().misses, b.report().misses);
        assert_eq!(a.report().updates, b.report().updates);
        assert_eq!(a.report().shared_reads, b.report().shared_reads);
        assert_eq!(a.report().by_structure[0].misses, b.report().by_structure[0].misses);
    }

    #[test]
    fn restore_rejects_structure_count_mismatch() {
        let mut a = Classifier::new(Geometry::new(4));
        a.register_structure("lock", B, 1);
        let mut w = sim_engine::SnapWriter::new();
        a.encode_state(&mut w);
        let bytes = w.into_vec();
        let mut plain = Classifier::new(Geometry::new(4)); // no registrations
        let mut r = sim_engine::SnapReader::new(&bytes);
        assert!(plain.restore_state(&mut r).is_err(), "registration paths differ");
    }

    #[test]
    fn restore_rejects_writes_it_cannot_hold() {
        // A one-entry last-writer table, then empty copy and live tables.
        let blob = |addr: Addr, node: NodeId, cycle: Cycle| {
            let mut w = SnapWriter::new();
            w.bool(false);
            w.usize(1);
            w.u32(addr);
            w.usize(node);
            w.u64(cycle);
            w.usize(0);
            w.usize(0);
            encode_report(&mut w, &TrafficReport::default());
            w.into_vec()
        };
        let restore = |bytes: Vec<u8>| classifier().restore_state(&mut SnapReader::new(&bytes));
        assert!(restore(blob(W1, 3, 7)).is_ok());
        assert!(restore(blob(W1 + 2, 3, 7)).is_err(), "unaligned word");
        assert!(restore(blob(W1, 4, 7)).is_err(), "node past the machine");
        assert!(restore(blob(W1, 3, 1 << 60)).is_err(), "cycle past the record's range");
    }

    #[test]
    fn lineage_is_passive_and_mirrors_balance() {
        let mut plain = classifier();
        let mut observed = classifier();
        observed.enable_lineage();
        for c in [&mut plain, &mut observed] {
            c.classify_miss(0, W0, 0);
            c.copy_acquired(0, BlockAddr(B));
            c.word_written(1, W0, 100);
            c.copy_lost(0, BlockAddr(B), LossCause::External { word_addr: W0, writer: 1 }, 101);
            c.classify_miss(0, W0, 200);
            c.update_delivered(0, W1);
            c.update_delivered(0, W1);
            c.exclusive_request(2, BlockAddr(B));
            c.finish();
        }
        assert_eq!(plain.report().misses, observed.report().misses);
        assert_eq!(plain.report().updates, observed.report().updates);
        let misses = observed.report().misses;
        let updates = observed.report().updates;
        let lin = observed.take_lineage().expect("lineage enabled");
        assert_eq!(lin.miss_totals(), misses, "per-block miss mirrors balance");
        assert_eq!(lin.update_totals(), updates, "per-block update mirrors balance");
        assert!(lin.blocks[0].provenance.is_some(), "true-sharing miss carries its chain");
    }

    /// Reference model of the classification rules over ordered maps:
    /// what the classifier must compute, written as plainly as possible.
    #[derive(Default)]
    struct Model {
        last_writer: BTreeMap<Addr, (NodeId, Cycle)>,
        copies: BTreeMap<(NodeId, BlockAddr), CopyModel>,
        /// Live update records: (node, block) → word index → block referenced.
        live: BTreeMap<(NodeId, BlockAddr), BTreeMap<usize, bool>>,
        structures: StructureTable,
        report: TrafficReport,
        home: Vec<UpdateStats>,
        finished: bool,
    }

    #[derive(Clone, Copy, Default)]
    struct CopyModel {
        ever_cached: bool,
        lost: Option<(Cycle, LossCause)>,
    }

    impl Model {
        fn new(geom: &Geometry) -> Self {
            Model { home: vec![UpdateStats::default(); geom.num_nodes], ..Model::default() }
        }

        fn register_structure(&mut self, name: &str, addr: Addr, words: u32) {
            self.structures.push(name, addr, addr + 4 * words);
            self.report.by_structure.push(crate::report::StructureTraffic {
                name: name.to_string(),
                misses: Default::default(),
                updates: Default::default(),
            });
        }

        fn bump_update(&mut self, geom: &Geometry, addr: Addr, class: UpdateClass) {
            self.report.updates.bump(class);
            if let Some(i) = self.structures.lookup(addr) {
                self.report.by_structure[i].updates.bump(class);
            }
            self.home[geom.home_of(addr)].bump(class);
        }

        fn copy_lost(
            &mut self,
            geom: &Geometry,
            node: NodeId,
            block: BlockAddr,
            cause: LossCause,
            now: Cycle,
        ) {
            self.copies.entry((node, block)).or_default().lost = Some((now, cause));
            for (widx, referenced) in self.live.remove(&(node, block)).unwrap_or_default() {
                let class = match (cause, referenced) {
                    (LossCause::Eviction, _) => UpdateClass::Replacement,
                    (_, true) => UpdateClass::FalseSharing,
                    (_, false) => UpdateClass::Proliferation,
                };
                self.bump_update(geom, block.0 + 4 * widx as Addr, class);
            }
        }

        fn classify_miss(&mut self, geom: &Geometry, node: NodeId, addr: Addr) -> MissClass {
            let h = *self.copies.entry((node, geom.block_of(addr))).or_default();
            let class = match (h.ever_cached, h.lost) {
                (false, _) | (true, None) => MissClass::Cold,
                (true, Some((_, LossCause::Eviction))) => MissClass::Eviction,
                (true, Some((_, LossCause::SelfInvalidate))) => MissClass::Drop,
                (true, Some((lost_at, LossCause::External { word_addr, writer }))) => {
                    let later = self.last_writer.get(&addr).is_some_and(|&(w, t)| w != node && t >= lost_at);
                    if (word_addr == addr && writer != node) || later {
                        MissClass::TrueSharing
                    } else {
                        MissClass::FalseSharing
                    }
                }
            };
            self.report.misses.bump(class);
            if let Some(i) = self.structures.lookup(addr) {
                self.report.by_structure[i].misses.bump(class);
            }
            class
        }

        fn update_delivered(&mut self, geom: &Geometry, node: NodeId, addr: Addr) {
            let recs = self.live.entry((node, geom.block_of(addr))).or_default();
            if let Some(referenced) = recs.insert(geom.word_index(addr), false) {
                let class = if referenced { UpdateClass::FalseSharing } else { UpdateClass::Proliferation };
                self.bump_update(geom, addr, class);
            }
        }

        fn word_referenced(&mut self, geom: &Geometry, node: NodeId, addr: Addr, write: bool) {
            let key = (node, geom.block_of(addr));
            let widx = geom.word_index(addr);
            let Some(recs) = self.live.get_mut(&key) else { return };
            let consumed = !write && recs.remove(&widx).is_some();
            for (&w, referenced) in recs.iter_mut() {
                *referenced |= w != widx;
            }
            if recs.is_empty() {
                self.live.remove(&key);
            }
            if consumed {
                self.bump_update(geom, addr, UpdateClass::TrueSharing);
            }
        }

        fn finish(&mut self, geom: &Geometry) {
            self.finished = true;
            for ((_, block), recs) in std::mem::take(&mut self.live) {
                for (widx, referenced) in recs {
                    let class = if referenced { UpdateClass::FalseSharing } else { UpdateClass::Termination };
                    self.bump_update(geom, block.0 + 4 * widx as Addr, class);
                }
            }
        }

        /// The checkpoint format of [`Classifier::encode_state`], written
        /// out from the ordered maps.
        fn encode(&self) -> Vec<u8> {
            let mut w = SnapWriter::new();
            w.bool(self.finished);
            w.usize(self.last_writer.len());
            for (&a, &(n, c)) in &self.last_writer {
                w.u32(a);
                w.usize(n);
                w.u64(c);
            }
            w.usize(self.copies.len());
            for (&(n, b), h) in &self.copies {
                w.usize(n);
                w.u32(b.0);
                w.bool(h.ever_cached);
                w.bool(h.lost.is_some());
                if let Some((cycle, cause)) = h.lost {
                    w.u64(cycle);
                    match cause {
                        LossCause::External { word_addr, writer } => {
                            w.u8(0);
                            w.u32(word_addr);
                            w.usize(writer);
                        }
                        LossCause::Eviction => w.u8(1),
                        LossCause::SelfInvalidate => w.u8(2),
                    }
                }
            }
            w.usize(self.live.len());
            for (&(n, b), recs) in &self.live {
                w.usize(n);
                w.u32(b.0);
                w.usize(recs.len());
                for (&widx, &referenced) in recs {
                    w.usize(widx);
                    w.bool(referenced);
                }
            }
            encode_report(&mut w, &self.report);
            w.into_vec()
        }
    }

    fn encoded(c: &Classifier) -> Vec<u8> {
        let mut w = SnapWriter::new();
        c.encode_state(&mut w);
        w.into_vec()
    }

    /// One seeded stream of classifier events over `num_nodes` nodes, fed
    /// to the classifier and the model alike; every answer, the checkpoint
    /// bytes, and the final reports must agree. Halfway through, the
    /// classifier is checkpointed and replaced by a restored copy. A
    /// `narrow` stream touches only two words of two blocks, so that
    /// same-word and same-cycle coincidences are common.
    fn differential_stream(seed: u64, num_nodes: usize, narrow: bool, steps: usize) {
        let geom = Geometry::new(num_nodes);
        let mut rng = sim_engine::SplitMix64::new(seed);
        // A few blocks in each of several regions, at allocator-like
        // stagger offsets, so the stream revisits blocks often.
        let regions = [0u32, 1, 5, 31].map(|r| r << geom.region_shift);
        let blocks: Vec<Addr> = regions
            .iter()
            .flat_map(|&base| {
                (0..3u32).map(move |i| base + geom.block_bytes * (1 + 31 * i + 7 * (base >> 22)))
            })
            .collect();
        let pool: Vec<Addr> = if narrow { vec![blocks[0], blocks[4]] } else { blocks.clone() };
        let (words, word_bytes) = if narrow { (2, 8) } else { (geom.words_per_block() as u64, 4) };
        let build = || {
            let mut c = Classifier::new(geom);
            c.enable_home_stats();
            c.register_structure("whole", blocks[0], 32);
            c.register_structure("word", blocks[4] + 8, 1);
            c
        };
        let mut c = build();
        let mut m = Model::new(&geom);
        m.register_structure("whole", blocks[0], 32);
        m.register_structure("word", blocks[4] + 8, 1);
        let mut now: Cycle = 0;
        for step in 0..steps {
            now += rng.next_below(3);
            let node = rng.next_below(num_nodes as u64) as NodeId;
            let other = rng.next_below(num_nodes as u64) as NodeId;
            let block = BlockAddr(pool[rng.next_below(pool.len() as u64) as usize]);
            let addr = block.0 + word_bytes * rng.next_below(words) as Addr;
            let ctx = format!("seed {seed:#x}, {num_nodes} nodes, step {step}");
            match rng.next_below(10) {
                0 => {
                    c.word_written(node, addr, now);
                    m.last_writer.insert(addr, (node, now));
                }
                1 => {
                    c.copy_acquired(node, block);
                    m.copies.insert((node, block), CopyModel { ever_cached: true, lost: None });
                }
                2 => {
                    let cause = match rng.next_below(3) {
                        0 => LossCause::External { word_addr: addr, writer: other },
                        1 => LossCause::Eviction,
                        _ => LossCause::SelfInvalidate,
                    };
                    c.copy_lost(node, block, cause, now);
                    m.copy_lost(&geom, node, block, cause, now);
                }
                3 => {
                    assert_eq!(c.classify_miss(node, addr, now), m.classify_miss(&geom, node, addr), "{ctx}")
                }
                4 => {
                    c.update_delivered(node, addr);
                    m.update_delivered(&geom, node, addr);
                }
                5 => {
                    c.update_caused_drop(node, addr);
                    m.bump_update(&geom, addr, UpdateClass::Drop);
                }
                6 | 7 => {
                    c.word_referenced(node, addr);
                    m.word_referenced(&geom, node, addr, false);
                }
                8 => {
                    c.word_write_referenced(node, addr);
                    m.word_referenced(&geom, node, addr, true);
                }
                _ => assert_eq!(c.last_writer_of(addr), m.last_writer.get(&addr).copied(), "{ctx}"),
            }
            if step == steps / 2 {
                let bytes = encoded(&c);
                assert_eq!(bytes, m.encode(), "{ctx}: checkpoint bytes");
                let mut restored = build();
                let mut r = SnapReader::new(&bytes);
                restored.restore_state(&mut r).expect("restore");
                r.finish().expect("no trailing bytes");
                assert_eq!(encoded(&restored), bytes, "{ctx}: re-encode");
                // The restored classifier carries on; home stats restart
                // fresh after a restore, so the model's do too.
                c = restored;
                m.home = vec![UpdateStats::default(); num_nodes];
            }
        }
        assert_eq!(encoded(&c), m.encode(), "seed {seed:#x}: checkpoint bytes before finish");
        c.finish();
        m.finish(&geom);
        assert_eq!(format!("{:?}", c.report()), format!("{:?}", m.report), "seed {seed:#x}: reports");
        assert_eq!(encoded(&c), m.encode(), "seed {seed:#x}: checkpoint bytes after finish");
        assert_eq!(c.take_home_stats().expect("enabled").classified, m.home, "seed {seed:#x}: home stats");
    }

    #[test]
    fn classifier_matches_an_ordered_map_reference_model() {
        let mut seeds = sim_engine::SplitMix64::new(0xc1a5);
        for num_nodes in [1, 2, 3, 8, 16, 32] {
            for narrow in [false, true] {
                for _ in 0..3 {
                    differential_stream(seeds.next_u64(), num_nodes, narrow, 4000);
                }
            }
        }
    }
}

#[cfg(test)]
mod attribution_tests {
    use super::*;

    const B: Addr = 0x1000;

    #[test]
    fn traffic_attributes_to_registered_ranges() {
        let mut c = Classifier::new(Geometry::new(4));
        c.register_structure("counter", B, 1);
        c.register_structure("flag", B + 4, 1);
        // A miss on the counter word.
        c.classify_miss(0, B, 0);
        // An update on the flag word, consumed.
        c.update_delivered(1, B + 4);
        c.word_referenced(1, B + 4);
        // An update outside any range.
        c.update_delivered(1, B + 0x100);
        c.word_referenced(1, B + 0x100);
        let r = c.finish();
        assert_eq!(r.by_structure.len(), 2);
        assert_eq!(r.by_structure[0].name, "counter");
        assert_eq!(r.by_structure[0].misses.cold, 1);
        assert_eq!(r.by_structure[0].updates.total(), 0);
        assert_eq!(r.by_structure[1].name, "flag");
        assert_eq!(r.by_structure[1].updates.true_sharing, 1);
        // Global totals include the unattributed update.
        assert_eq!(r.updates.true_sharing, 2);
    }

    #[test]
    fn later_registration_wins_on_overlap() {
        let mut c = Classifier::new(Geometry::new(4));
        c.register_structure("whole-block", B, 16);
        c.register_structure("first-word", B, 1);
        c.classify_miss(0, B, 0); // first-word
        c.classify_miss(0, B + 4, 0); // whole-block
        let r = c.finish();
        assert_eq!(r.by_structure[1].misses.cold, 1, "first-word wins its overlap");
        assert_eq!(r.by_structure[0].misses.cold, 1, "rest of the block still attributed");
    }

    #[test]
    fn home_stats_mirror_update_totals() {
        let geom = Geometry::new(4);
        let mut plain = Classifier::new(geom);
        let mut observed = Classifier::new(geom);
        observed.enable_home_stats();
        for c in [&mut plain, &mut observed] {
            c.update_arrival(0, B, 1, false, 5);
            c.update_delivered(0, B);
            c.word_referenced(0, B);
            c.update_arrival(0, B + 4, 1, true, 6);
            c.update_caused_drop(0, B + 4);
            c.update_arrival(2, B + 8, 1, false, 7);
            c.update_delivered(2, B + 8); // survives to termination
            c.finish();
        }
        assert_eq!(plain.report().updates, observed.report().updates, "home stats are passive");
        let h = observed.take_home_stats().expect("home stats enabled");
        let mut merged = UpdateStats::default();
        for s in &h.classified {
            merged.merge(s);
        }
        assert_eq!(merged, observed.report().updates, "per-home buckets balance the totals");
        let home = geom.home_of(B);
        assert_eq!(h.deliveries[home], (2, 1), "applied and dropped arrivals bucket by home");
        assert!(observed.take_home_stats().is_none(), "taking detaches");
    }

    #[test]
    fn drop_and_termination_updates_attribute_too() {
        let mut c = Classifier::new(Geometry::new(4));
        c.register_structure("s", B, 16);
        c.update_delivered(0, B);
        c.update_caused_drop(0, B + 4);
        c.copy_lost(0, BlockAddr(B), LossCause::SelfInvalidate, 1);
        c.update_delivered(2, B + 8); // survives to the end
        let r = c.finish();
        let s = &r.by_structure[0];
        assert_eq!(s.updates.drop, 1);
        assert_eq!(s.updates.proliferation, 1);
        assert_eq!(s.updates.termination, 1);
    }
}
