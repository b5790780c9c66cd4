//! Backing store for shared memory.

use crate::geometry::{Addr, BlockAddr, Geometry, Word};
use crate::table::BlockTable;

/// The machine's main memory contents, kept at block granularity.
///
/// The simulated address space is sparse (each node owns a multi-megabyte
/// home region but kernels touch a few kilobytes), so blocks materialize on
/// first touch in a dense [`BlockTable`], zero-filled — matching the usual
/// zero-initialized shared segment the paper's kernels assume.
#[derive(Debug, Clone)]
pub struct MemStore {
    geom: Geometry,
    blocks: BlockTable<Box<[Word]>>,
}

impl MemStore {
    /// Creates an empty (all-zero) memory for addresses laid out by `geom`.
    pub fn new(geom: &Geometry) -> Self {
        MemStore { geom: *geom, blocks: BlockTable::new(geom) }
    }

    fn block_mut(&mut self, block: BlockAddr) -> &mut Box<[Word]> {
        let words = self.geom.words_per_block() as usize;
        self.blocks.get_or_insert_with(block, || vec![0; words].into_boxed_slice())
    }

    /// Reads the word at `addr`.
    pub fn read_word(&self, addr: Addr) -> Word {
        let block = self.geom.block_of(addr);
        self.blocks.get(block).map_or(0, |b| b[self.geom.word_index(addr)])
    }

    /// Writes the word at `addr`.
    pub fn write_word(&mut self, addr: Addr, val: Word) {
        let idx = self.geom.word_index(addr);
        self.block_mut(self.geom.block_of(addr))[idx] = val;
    }

    /// A copy of the whole block containing `addr` (for cache fills).
    pub fn read_block(&mut self, block: BlockAddr) -> Box<[Word]> {
        self.block_mut(block).clone()
    }

    /// Overwrites the whole block (writebacks).
    pub fn write_block(&mut self, block: BlockAddr, data: &[Word]) {
        let b = self.block_mut(block);
        assert_eq!(data.len(), b.len());
        b.copy_from_slice(data);
    }

    /// Number of materialized blocks.
    pub fn resident_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Every materialized block in ascending address order, for
    /// checkpointing.
    pub fn sorted_blocks(&self) -> impl Iterator<Item = (BlockAddr, &[Word])> + '_ {
        self.blocks.iter_ascending().map(|(b, d)| (b, &d[..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let g = Geometry::new(4);
        let m = MemStore::new(&g);
        assert_eq!(m.read_word(0x1234 & !3), 0);
    }

    #[test]
    fn word_roundtrip() {
        let g = Geometry::new(4);
        let mut m = MemStore::new(&g);
        m.write_word(0x100, 42);
        assert_eq!(m.read_word(0x100), 42);
        assert_eq!(m.read_word(0x104), 0, "neighbors untouched");
    }

    #[test]
    fn block_roundtrip() {
        let g = Geometry::new(4);
        let mut m = MemStore::new(&g);
        m.write_word(0x40, 1);
        m.write_word(0x7c, 2);
        let blk = m.read_block(g.block_of(0x40));
        assert_eq!(blk[0], 1);
        assert_eq!(blk[15], 2);
        let mut new = blk.clone();
        new[3] = 9;
        m.write_block(g.block_of(0x40), &new);
        assert_eq!(m.read_word(0x4c), 9);
    }

    #[test]
    fn sorted_blocks_equal_a_sort() {
        let g = Geometry::new(4);
        let mut rng = sim_engine::SplitMix64::new(0x5707e);
        let mut m = MemStore::new(&g);
        let mut blocks = Vec::new();
        for _ in 0..200 {
            let region = rng.next_below(4) as u32;
            let addr = (region << g.region_shift) + 4 * rng.next_below(1 << 14) as u32;
            m.write_word(addr, addr);
            blocks.push(g.block_of(addr));
        }
        // A read of an untouched block does not materialize it.
        assert_eq!(m.read_word(3 << g.region_shift), 0);
        blocks.sort();
        blocks.dedup();
        assert_eq!(m.resident_blocks(), blocks.len());
        let walked: Vec<BlockAddr> = m.sorted_blocks().map(|(b, _)| b).collect();
        assert_eq!(walked, blocks);
        for (b, data) in m.sorted_blocks() {
            for (i, &w) in data.iter().enumerate() {
                assert!(w == 0 || w == b.0 + 4 * i as u32, "word {i} of {b:?} holds {w:#x}");
            }
        }
    }
}
