//! Dense tables keyed by block address.
//!
//! The directory, the memory store and the traffic classifier look up
//! per-block state on nearly every event. The address space is sparse —
//! each node homes a multi-megabyte region but kernels touch a few
//! kilobytes of it, starting at the allocator's per-node stagger — yet
//! within a region the touched blocks sit close together. A
//! [`BlockTable`] therefore splits a block address by shifts into its
//! region and its block offset in that region. It keeps pages only for the
//! span of regions touched, and each region's index page covers only the
//! span of offsets touched so far. Index entries name slots in one dense
//! vector, so a lookup is two bounds checks and no hashing.

use crate::geometry::{BlockAddr, Geometry};

/// Index entries a page grows by; pages start and end on a multiple.
const CHUNK: u32 = 64;

/// Index entry of a block with no slot.
const ABSENT: u32 = u32::MAX;

/// The index of one home region.
#[derive(Debug, Clone, Default)]
struct Page {
    /// Block offset (within the region) that `index[0]` stands for.
    base: u32,
    /// Slot number per block offset from `base`, or [`ABSENT`].
    index: Vec<u32>,
}

/// A map from block address to `T`, with slots numbered densely in
/// insertion order.
///
/// A slot, once made, stays until [`BlockTable::clear`], so a slot number
/// is a stable block id. Walking the pages visits blocks in ascending
/// address order ([`BlockTable::iter_ascending`]).
#[derive(Debug, Clone)]
pub struct BlockTable<T> {
    block_shift: u32,
    region_shift: u32,
    /// Region number of `pages[0]`.
    first_region: usize,
    /// One page per region, from the lowest to the highest touched.
    pages: Vec<Page>,
    /// The block of each slot.
    keys: Vec<BlockAddr>,
    slots: Vec<T>,
}

impl<T> BlockTable<T> {
    /// An empty table for addresses laid out by `geom`.
    pub fn new(geom: &Geometry) -> Self {
        assert!(geom.block_bytes.is_power_of_two(), "block size must be a power of two");
        BlockTable {
            block_shift: geom.block_bytes.trailing_zeros(),
            region_shift: geom.region_shift,
            first_region: 0,
            pages: Vec::new(),
            keys: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// The region number and in-region block offset of `block`.
    fn split(&self, block: BlockAddr) -> (usize, u32) {
        let region = (block.0 >> self.region_shift) as usize;
        let offset = (block.0 & ((1 << self.region_shift) - 1)) >> self.block_shift;
        (region, offset)
    }

    /// The slot number of `block`, if it has one.
    #[inline]
    fn id(&self, block: BlockAddr) -> Option<usize> {
        let (region, offset) = self.split(block);
        let page = self.pages.get(region.wrapping_sub(self.first_region))?;
        let slot = *page.index.get(offset.wrapping_sub(page.base) as usize)?;
        (slot != ABSENT).then_some(slot as usize)
    }

    /// The slot number of `block`, making the slot with `make` if absent.
    #[inline]
    pub fn id_or_insert_with(&mut self, block: BlockAddr, make: impl FnOnce() -> T) -> usize {
        match self.id(block) {
            Some(id) => id,
            None => self.insert_new(block, make()),
        }
    }

    fn insert_new(&mut self, block: BlockAddr, value: T) -> usize {
        let (region, offset) = self.split(block);
        if self.pages.is_empty() {
            self.first_region = region;
        } else if region < self.first_region {
            self.pages.splice(0..0, (region..self.first_region).map(|_| Page::default()));
            self.first_region = region;
        }
        let r = region - self.first_region;
        if r >= self.pages.len() {
            self.pages.resize_with(r + 1, Page::default);
        }
        let page = &mut self.pages[r];
        if page.index.is_empty() {
            page.base = offset - offset % CHUNK;
        } else if offset < page.base {
            let base = offset - offset % CHUNK;
            page.index.splice(0..0, std::iter::repeat(ABSENT).take((page.base - base) as usize));
            page.base = base;
        }
        let at = (offset - page.base) as usize;
        if at >= page.index.len() {
            page.index.resize(at - at % CHUNK as usize + CHUNK as usize, ABSENT);
        }
        let id = self.slots.len();
        assert!(id < ABSENT as usize, "block table full");
        page.index[at] = id as u32;
        self.keys.push(block);
        self.slots.push(value);
        id
    }

    /// The value of `block`, if it has a slot.
    #[inline]
    pub fn get(&self, block: BlockAddr) -> Option<&T> {
        self.id(block).map(|id| &self.slots[id])
    }

    /// The value of `block` for update, if it has a slot.
    #[inline]
    pub fn get_mut(&mut self, block: BlockAddr) -> Option<&mut T> {
        self.id(block).map(|id| &mut self.slots[id])
    }

    /// The value of `block`, making it with `make` if absent.
    #[inline]
    pub fn get_or_insert_with(&mut self, block: BlockAddr, make: impl FnOnce() -> T) -> &mut T {
        let id = self.id_or_insert_with(block, make);
        &mut self.slots[id]
    }

    /// The value in slot `id`.
    pub fn slot(&self, id: usize) -> &T {
        &self.slots[id]
    }

    /// The value in slot `id`, for update.
    pub fn slot_mut(&mut self, id: usize) -> &mut T {
        &mut self.slots[id]
    }

    /// The block that slot `id` belongs to.
    pub fn key(&self, id: usize) -> BlockAddr {
        self.keys[id]
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Slot numbers in ascending block-address order.
    pub fn ids_ascending(&self) -> impl Iterator<Item = usize> + '_ {
        self.pages.iter().flat_map(|p| p.index.iter().filter(|&&s| s != ABSENT).map(|&s| s as usize))
    }

    /// Every block and its value, in ascending block-address order.
    pub fn iter_ascending(&self) -> impl Iterator<Item = (BlockAddr, &T)> + '_ {
        self.ids_ascending().map(|id| (self.keys[id], &self.slots[id]))
    }

    /// Removes every slot.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.keys.clear();
        self.slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharedAlloc;

    fn geom() -> Geometry {
        Geometry::new(32)
    }

    /// Blocks in several regions at the allocator's stagger offsets, in a
    /// shuffled order so pages grow both up and down.
    fn scattered_blocks(g: &Geometry) -> Vec<BlockAddr> {
        let mut rng = sim_engine::SplitMix64::new(0x7ab1e);
        let mut blocks: Vec<BlockAddr> = [0usize, 1, 7, 31]
            .into_iter()
            .flat_map(|n| {
                let first = g.region_base(n) + g.block_bytes * (1 + 31 * n as u32);
                (0..40u32).map(move |i| BlockAddr(first + g.block_bytes * (i * i % 97)))
            })
            .collect();
        blocks.sort();
        blocks.dedup();
        for i in (1..blocks.len()).rev() {
            blocks.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        blocks
    }

    #[test]
    fn finds_what_was_inserted_and_nothing_else() {
        let g = geom();
        let blocks = scattered_blocks(&g);
        let mut t = BlockTable::new(&g);
        for (i, &b) in blocks.iter().enumerate() {
            assert_eq!(t.id_or_insert_with(b, || i), i, "slots number in insertion order");
        }
        assert_eq!(t.len(), blocks.len());
        for (i, &b) in blocks.iter().enumerate() {
            assert_eq!(t.get(b), Some(&i));
            assert_eq!(t.key(i), b);
            assert_eq!(t.id_or_insert_with(b, || unreachable!("present")), i);
        }
        // Neighbours never touched, a region never touched, and addresses
        // past every page all read absent.
        let present: std::collections::BTreeSet<BlockAddr> = blocks.iter().copied().collect();
        for &b in &blocks {
            for probe in [b.0.wrapping_sub(g.block_bytes), b.0 + g.block_bytes, b.0 + 64 * g.block_bytes] {
                let probe = BlockAddr(probe);
                assert_eq!(t.get(probe).is_some(), present.contains(&probe), "{probe:?}");
            }
        }
        assert!(t.get(BlockAddr(g.region_base(3))).is_none());
        assert!(t.get(BlockAddr(!(g.block_bytes - 1))).is_none(), "the highest block");
    }

    #[test]
    fn pages_cover_only_the_touched_span() {
        let g = geom();
        let mut t = BlockTable::new(&g);
        // The last node's first block sits 962 blocks into its region.
        let first = g.region_base(31) + g.block_bytes * (1 + 31 * 31);
        t.get_or_insert_with(BlockAddr(first), || ());
        assert_eq!(t.pages.len(), 1, "regions below the first touched cost nothing");
        let page = &t.pages[0];
        assert_eq!(page.index.len(), CHUNK as usize, "one chunk, not the region's whole prefix");
        assert!(page.base <= 962 && 962 < page.base + CHUNK);
        assert!(t.get(BlockAddr(g.region_base(0) + g.block_bytes)).is_none(), "below the first region");
    }

    #[test]
    fn ascending_walk_equals_a_sort() {
        let g = geom();
        let blocks = scattered_blocks(&g);
        let mut t = BlockTable::new(&g);
        for &b in &blocks {
            t.get_or_insert_with(b, || b.0 ^ 0x5a5a);
        }
        let mut sorted: Vec<(BlockAddr, u32)> = blocks.iter().map(|&b| (b, b.0 ^ 0x5a5a)).collect();
        sorted.sort();
        let walked: Vec<(BlockAddr, u32)> = t.iter_ascending().map(|(b, &v)| (b, v)).collect();
        assert_eq!(walked, sorted);
    }

    #[test]
    fn clear_then_reinsert() {
        let g = geom();
        let blocks = scattered_blocks(&g);
        let mut t = BlockTable::new(&g);
        for &b in &blocks {
            *t.get_or_insert_with(b, || 0u8) += 1;
        }
        t.clear();
        assert!(t.is_empty());
        assert!(blocks.iter().all(|&b| t.get(b).is_none()), "clear forgets every block");
        for &b in blocks.iter().rev() {
            *t.get_or_insert_with(b, || 0u8) += 2;
        }
        assert_eq!(t.len(), blocks.len());
        assert!(blocks.iter().all(|&b| t.get(b) == Some(&2)), "re-inserted slots start fresh");
        assert_eq!(t.id(blocks[blocks.len() - 1]), Some(0), "slot numbers restart at 0");
    }

    #[test]
    fn allocator_placements_fit_in_small_pages() {
        let g = geom();
        let mut alloc = SharedAlloc::new(g);
        let mut t = BlockTable::new(&g);
        for n in 0..g.num_nodes {
            for _ in 0..4 {
                t.get_or_insert_with(g.block_of(alloc.alloc_block_on(n, 16)), || ());
            }
        }
        assert_eq!(t.len(), 4 * g.num_nodes);
        // Four consecutive blocks span one chunk, or two where they cross a
        // chunk boundary.
        assert!(t.pages.iter().all(|p| p.index.len() <= 2 * CHUNK as usize), "small pages");
    }
}
