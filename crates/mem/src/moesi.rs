//! Direct-mapped MOESI cache model.
//!
//! The paper assumes write-allocate caches kept consistent by a MOESI
//! write-invalidate protocol (§2, citing Sweazey & Smith). Both the 256 KB
//! processor cache and the (much smaller) CNI device caches are direct-mapped
//! with 64-byte blocks (§4.1). This module models only coherence *state* —
//! data movement cost is charged by [`crate::system::NodeMemSystem`] using the
//! [`crate::timing`] tables.
//!
//! The model answers three questions:
//!
//! 1. What happens on a processor/device access (hit, miss, upgrade)?
//! 2. What must be evicted to make room (and does the victim need a
//!    writeback)?
//! 3. How does the cache react to a snooped bus transaction (supply data,
//!    downgrade, invalidate)?

use serde::{Deserialize, Serialize};

use crate::addr::{BlockAddr, BlockHome, CACHE_BLOCK_BYTES};

/// MOESI coherence states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MoesiState {
    /// Dirty, exclusive: this cache owns the only copy and it differs from
    /// the home.
    Modified,
    /// Dirty, shared: this cache owns the block (must supply data and write
    /// it back on eviction) but other caches may hold Shared copies.
    Owned,
    /// Clean, exclusive: only copy, identical to the home.
    Exclusive,
    /// Clean (from this cache's point of view), possibly shared.
    Shared,
    /// Not present.
    Invalid,
}

impl MoesiState {
    /// Does this state confer write permission without a bus transaction?
    pub fn can_write_silently(self) -> bool {
        matches!(self, MoesiState::Modified | MoesiState::Exclusive)
    }

    /// Does this state hold valid (readable) data?
    pub fn is_valid(self) -> bool {
        !matches!(self, MoesiState::Invalid)
    }

    /// Must a line in this state be written back to its home when evicted or
    /// invalidated?
    pub fn is_dirty(self) -> bool {
        matches!(self, MoesiState::Modified | MoesiState::Owned)
    }

    /// Is this cache responsible for supplying data to a snooped read?
    pub fn supplies_data(self) -> bool {
        // Under MOESI, M/O/E owners supply data cache-to-cache. A Shared
        // holder could also supply it on some buses, but MBus lets the home
        // respond; we follow the conservative choice.
        matches!(
            self,
            MoesiState::Modified | MoesiState::Owned | MoesiState::Exclusive
        )
    }
}

/// The cache's reaction to a snooped bus transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnoopAction {
    /// Previous state of the line (Invalid if the block was not cached).
    pub prev: MoesiState,
    /// Whether this cache supplies the data cache-to-cache.
    pub supplies_data: bool,
    /// Whether this cache had to write the block back to its home (only on
    /// invalidating snoops of dirty lines when the requester does not take
    /// ownership of the dirty data — in this model the requester always does,
    /// so this is informational).
    pub was_dirty: bool,
}

/// The result of an access lookup (before any fill).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Data present with sufficient permission; no bus transaction needed.
    Hit,
    /// Data present but a write needs an ownership upgrade (invalidate other
    /// copies). The line stays in place.
    UpgradeMiss,
    /// Data absent; a full fetch (and possibly an eviction) is needed.
    Miss,
}

/// A victim that must leave the cache to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Block being evicted.
    pub block: BlockAddr,
    /// Its state at eviction time.
    pub state: MoesiState,
    /// Home of the evicted block (where a writeback, if needed, goes).
    pub home: BlockHome,
}

impl Eviction {
    /// Whether the eviction requires a writeback bus transaction.
    pub fn needs_writeback(&self) -> bool {
        self.state.is_dirty()
    }
}

/// Sets per page of a cache's tag array. Pages are allocated on the first
/// fill of one of their sets, so a cache's resident memory follows the sets
/// a run touches rather than its configured capacity.
const PAGE_SETS: usize = 64;

type Page = [u64; PAGE_SETS];

/// Bits 0–2 of a packed line: the [`MoesiState`].
const STATE_MASK: u64 = 0b111;
/// Bit 3: the block's home is the device (clear: memory).
const HOME_DEVICE: u64 = 1 << 3;
/// Bit 4: the set holds a tag. Clear only in an empty set, which is what
/// tells an empty set apart from an invalidated line that keeps its tag
/// (the case [`Cache::snarf_fill`] depends on).
const TAG_PRESENT: u64 = 1 << 4;
/// Bits 5–63: the block number, which serves as the tag.
const BLOCK_SHIFT: u32 = 5;

/// One set of a direct-mapped cache packed into a `u64`; zero is the empty
/// set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedLine(u64);

impl PackedLine {
    const EMPTY: PackedLine = PackedLine(0);

    fn new(block: BlockAddr, state: MoesiState, home: BlockHome) -> Self {
        assert!(
            block.0 >> (u64::BITS - BLOCK_SHIFT) == 0,
            "{block} does not fit a packed cache tag"
        );
        let home = match home {
            BlockHome::Memory => 0,
            BlockHome::Device => HOME_DEVICE,
        };
        PackedLine(block.0 << BLOCK_SHIFT | TAG_PRESENT | home | state as u64)
    }

    fn has_tag(self) -> bool {
        self.0 & TAG_PRESENT != 0
    }

    /// Whether the set holds `block`'s tag (in any state, Invalid included).
    fn holds(self, block: BlockAddr) -> bool {
        self.has_tag() && self.block() == block
    }

    fn block(self) -> BlockAddr {
        BlockAddr(self.0 >> BLOCK_SHIFT)
    }

    /// The inverse of the `state as u64` encoding (declaration order).
    fn state(self) -> MoesiState {
        match self.0 & STATE_MASK {
            0 => MoesiState::Modified,
            1 => MoesiState::Owned,
            2 => MoesiState::Exclusive,
            3 => MoesiState::Shared,
            _ => MoesiState::Invalid,
        }
    }

    fn home(self) -> BlockHome {
        if self.0 & HOME_DEVICE != 0 {
            BlockHome::Device
        } else {
            BlockHome::Memory
        }
    }

    fn with_state(self, state: MoesiState) -> Self {
        PackedLine(self.0 & !STATE_MASK | state as u64)
    }

    /// The valid line a fill of `block` into this set would displace.
    fn victim_for(self, block: BlockAddr) -> Option<Eviction> {
        (self.has_tag() && self.block() != block && self.state().is_valid())
            .then(|| self.eviction())
    }

    fn eviction(self) -> Eviction {
        Eviction {
            block: self.block(),
            state: self.state(),
            home: self.home(),
        }
    }
}

/// A direct-mapped, write-allocate MOESI cache.
///
/// ```
/// use cni_mem::moesi::{Cache, MoesiState, AccessOutcome};
/// use cni_mem::addr::{BlockAddr, BlockHome};
///
/// let mut cache = Cache::new("proc", 256 * 1024);
/// let blk = BlockAddr(7);
/// assert_eq!(cache.lookup(blk), MoesiState::Invalid);
/// assert_eq!(cache.classify_read(blk), AccessOutcome::Miss);
/// cache.fill(blk, MoesiState::Exclusive, BlockHome::Memory);
/// assert_eq!(cache.classify_read(blk), AccessOutcome::Hit);
/// assert_eq!(cache.classify_write(blk), AccessOutcome::Hit);
/// ```
// No serde derives: the fixed-size pages would need a serde helper, and
// nothing serializes a cache.
#[derive(Debug, Clone)]
pub struct Cache {
    name: String,
    /// The tag array in pages of [`PAGE_SETS`] packed lines; a page that was
    /// never filled is `None` and reads as empty sets.
    pages: Box<[Option<Box<Page>>]>,
    num_sets: usize,
    hits: u64,
    misses: u64,
    upgrade_misses: u64,
    evictions: u64,
    writebacks: u64,
    snoop_invalidations: u64,
    snarf_fills: u64,
}

impl Cache {
    /// Creates a direct-mapped cache of `size_bytes` capacity with 64-byte
    /// blocks. No tag storage is allocated until a set is first filled.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is not a positive multiple of the block size.
    pub fn new(name: &str, size_bytes: usize) -> Self {
        assert!(
            size_bytes >= CACHE_BLOCK_BYTES && size_bytes.is_multiple_of(CACHE_BLOCK_BYTES),
            "cache size must be a positive multiple of {CACHE_BLOCK_BYTES} bytes, got {size_bytes}"
        );
        let num_sets = size_bytes / CACHE_BLOCK_BYTES;
        Cache {
            name: name.to_owned(),
            pages: vec![None; num_sets.div_ceil(PAGE_SETS)].into_boxed_slice(),
            num_sets,
            hits: 0,
            misses: 0,
            upgrade_misses: 0,
            evictions: 0,
            writebacks: 0,
            snoop_invalidations: 0,
            snarf_fills: 0,
        }
    }

    /// The cache's name (used in traces and statistics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of sets (== number of blocks for a direct-mapped cache).
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    fn set_index(&self, block: BlockAddr) -> usize {
        (block.0 % self.num_sets as u64) as usize
    }

    /// The packed line in set `idx` (empty if its page was never filled).
    fn line(&self, idx: usize) -> PackedLine {
        self.pages[idx / PAGE_SETS]
            .as_ref()
            .map_or(PackedLine::EMPTY, |page| PackedLine(page[idx % PAGE_SETS]))
    }

    /// Stores `line` in set `idx`, allocating the set's page on first use.
    fn store(&mut self, idx: usize, line: PackedLine) {
        let page = self.pages[idx / PAGE_SETS].get_or_insert_with(|| Box::new([0; PAGE_SETS]));
        page[idx % PAGE_SETS] = line.0;
    }

    /// Current state of `block` (Invalid if not present).
    pub fn lookup(&self, block: BlockAddr) -> MoesiState {
        let line = self.line(self.set_index(block));
        if line.holds(block) {
            line.state()
        } else {
            MoesiState::Invalid
        }
    }

    /// Classifies a read access without changing state.
    pub fn classify_read(&self, block: BlockAddr) -> AccessOutcome {
        if self.lookup(block).is_valid() {
            AccessOutcome::Hit
        } else {
            AccessOutcome::Miss
        }
    }

    /// Classifies a write access without changing state.
    pub fn classify_write(&self, block: BlockAddr) -> AccessOutcome {
        match self.lookup(block) {
            MoesiState::Modified | MoesiState::Exclusive => AccessOutcome::Hit,
            MoesiState::Owned | MoesiState::Shared => AccessOutcome::UpgradeMiss,
            MoesiState::Invalid => AccessOutcome::Miss,
        }
    }

    /// Records a hit (used by the system model for bookkeeping symmetry).
    pub fn note_hit(&mut self) {
        self.hits += 1;
    }

    /// Returns the victim that a fill of `block` would displace, if any.
    pub fn peek_victim(&self, block: BlockAddr) -> Option<Eviction> {
        self.line(self.set_index(block)).victim_for(block)
    }

    /// Installs `block` in `state`, returning the eviction it displaced (if
    /// the victim was valid). Counts a miss.
    pub fn fill(
        &mut self,
        block: BlockAddr,
        state: MoesiState,
        home: BlockHome,
    ) -> Option<Eviction> {
        self.misses += 1;
        let idx = self.set_index(block);
        let victim = self.line(idx).victim_for(block);
        if let Some(ev) = &victim {
            self.evictions += 1;
            if ev.needs_writeback() {
                self.writebacks += 1;
            }
        }
        self.store(idx, PackedLine::new(block, state, home));
        victim
    }

    /// Installs a block obtained by snarfing a bus transfer (fills only; does
    /// not count as a demand miss). Returns the eviction, if any.
    ///
    /// Data snarfing (§5.1.2): a cache with a tag match in Invalid state, or
    /// an empty set, may grab data it observes on the bus. Real snarfing
    /// implementations require an address (tag) match; we model the common
    /// case where the receive-queue blocks were previously cached and later
    /// invalidated, so the tag still matches. An empty set has no tag to
    /// match, so it never snarfs.
    pub fn snarf_fill(&mut self, block: BlockAddr, home: BlockHome) -> bool {
        let idx = self.set_index(block);
        let line = self.line(idx);
        let can_snarf = line.holds(block) && line.state() == MoesiState::Invalid;
        if can_snarf {
            self.store(idx, PackedLine::new(block, MoesiState::Shared, home));
            self.snarf_fills += 1;
        }
        can_snarf
    }

    /// Transitions an already-present block to a new state.
    ///
    /// # Panics
    ///
    /// Panics if the block is not present; callers must fill first.
    pub fn set_state(&mut self, block: BlockAddr, state: MoesiState) {
        let idx = self.set_index(block);
        let line = self.line(idx);
        if !line.holds(block) {
            panic!("{}: set_state on absent block {block}", self.name);
        }
        self.store(idx, line.with_state(state));
    }
    /// Records an upgrade miss (write to a Shared/Owned line) and grants
    /// ownership, transitioning the line to Modified.
    ///
    /// # Panics
    ///
    /// Panics if the block is not present.
    pub fn upgrade_to_modified(&mut self, block: BlockAddr) {
        self.upgrade_misses += 1;
        self.set_state(block, MoesiState::Modified);
    }

    /// Reacts to a snooped coherent read (another agent wants a Shared copy).
    ///
    /// M → O, E → S; O and S are unchanged; Invalid does nothing.
    pub fn snoop_read(&mut self, block: BlockAddr) -> SnoopAction {
        let prev = self.lookup(block);
        let supplies = prev.supplies_data();
        let was_dirty = prev.is_dirty();
        match prev {
            MoesiState::Modified => self.set_state(block, MoesiState::Owned),
            MoesiState::Exclusive => self.set_state(block, MoesiState::Shared),
            _ => {}
        }
        SnoopAction {
            prev,
            supplies_data: supplies,
            was_dirty,
        }
    }

    /// Reacts to a snooped invalidating transaction (read-exclusive or
    /// invalidate): the local copy, if any, is invalidated and dirty data is
    /// handed to the requester.
    pub fn snoop_invalidate(&mut self, block: BlockAddr) -> SnoopAction {
        let prev = self.lookup(block);
        let supplies = prev.supplies_data();
        let was_dirty = prev.is_dirty();
        if prev.is_valid() {
            self.set_state(block, MoesiState::Invalid);
            self.snoop_invalidations += 1;
        }
        SnoopAction {
            prev,
            supplies_data: supplies,
            was_dirty,
        }
    }

    /// Evicts `block` if present, returning the eviction record.
    pub fn evict(&mut self, block: BlockAddr) -> Option<Eviction> {
        let idx = self.set_index(block);
        let line = self.line(idx);
        if !(line.holds(block) && line.state().is_valid()) {
            return None;
        }
        let ev = line.eviction();
        self.store(idx, PackedLine::EMPTY);
        self.evictions += 1;
        if ev.needs_writeback() {
            self.writebacks += 1;
        }
        Some(ev)
    }

    /// Number of valid lines currently resident.
    pub fn resident_blocks(&self) -> usize {
        self.pages
            .iter()
            .flatten()
            .flat_map(|page| page.iter())
            .filter(|&&word| {
                let line = PackedLine(word);
                line.has_tag() && line.state().is_valid()
            })
            .count()
    }

    /// Demand hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Upgrade (ownership) misses observed so far.
    pub fn upgrade_misses(&self) -> u64 {
        self.upgrade_misses
    }

    /// Evictions observed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Dirty writebacks observed so far.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Lines invalidated by snoops so far.
    pub fn snoop_invalidations(&self) -> u64 {
        self.snoop_invalidations
    }

    /// Blocks grabbed off the bus by snarfing so far.
    pub fn snarf_fills(&self) -> u64 {
        self.snarf_fills
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(n: u64) -> BlockAddr {
        BlockAddr(n)
    }

    #[test]
    fn new_cache_is_empty_and_misses() {
        let cache = Cache::new("t", 1024);
        assert_eq!(cache.num_sets(), 16);
        assert_eq!(cache.lookup(blk(3)), MoesiState::Invalid);
        assert_eq!(cache.classify_read(blk(3)), AccessOutcome::Miss);
        assert_eq!(cache.classify_write(blk(3)), AccessOutcome::Miss);
        assert_eq!(cache.resident_blocks(), 0);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn cache_size_must_be_block_multiple() {
        let _ = Cache::new("bad", 100);
    }

    #[test]
    fn fill_then_hit() {
        let mut cache = Cache::new("t", 1024);
        assert!(cache
            .fill(blk(5), MoesiState::Exclusive, BlockHome::Memory)
            .is_none());
        assert_eq!(cache.classify_read(blk(5)), AccessOutcome::Hit);
        assert_eq!(cache.classify_write(blk(5)), AccessOutcome::Hit);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn shared_write_requires_upgrade() {
        let mut cache = Cache::new("t", 1024);
        cache.fill(blk(5), MoesiState::Shared, BlockHome::Memory);
        assert_eq!(cache.classify_write(blk(5)), AccessOutcome::UpgradeMiss);
        cache.upgrade_to_modified(blk(5));
        assert_eq!(cache.lookup(blk(5)), MoesiState::Modified);
        assert_eq!(cache.upgrade_misses(), 1);
    }

    #[test]
    fn direct_mapped_conflict_evicts_and_writes_back_dirty_victim() {
        let mut cache = Cache::new("t", 1024); // 16 sets
        cache.fill(blk(1), MoesiState::Modified, BlockHome::Memory);
        // Block 17 maps to the same set as block 1 (17 mod 16 == 1).
        let ev = cache
            .fill(blk(17), MoesiState::Exclusive, BlockHome::Memory)
            .unwrap();
        assert_eq!(ev.block, blk(1));
        assert!(ev.needs_writeback());
        assert_eq!(cache.lookup(blk(1)), MoesiState::Invalid);
        assert_eq!(cache.lookup(blk(17)), MoesiState::Exclusive);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.writebacks(), 1);
    }

    #[test]
    fn clean_victim_needs_no_writeback() {
        let mut cache = Cache::new("t", 1024);
        cache.fill(blk(2), MoesiState::Shared, BlockHome::Memory);
        let ev = cache
            .fill(blk(18), MoesiState::Shared, BlockHome::Memory)
            .unwrap();
        assert!(!ev.needs_writeback());
        assert_eq!(cache.writebacks(), 0);
    }

    #[test]
    fn snoop_read_downgrades_owner() {
        let mut cache = Cache::new("t", 1024);
        cache.fill(blk(9), MoesiState::Modified, BlockHome::Memory);
        let action = cache.snoop_read(blk(9));
        assert!(action.supplies_data);
        assert!(action.was_dirty);
        assert_eq!(action.prev, MoesiState::Modified);
        assert_eq!(cache.lookup(blk(9)), MoesiState::Owned);

        cache.fill(blk(10), MoesiState::Exclusive, BlockHome::Memory);
        let action = cache.snoop_read(blk(10));
        assert!(action.supplies_data);
        assert!(!action.was_dirty);
        assert_eq!(cache.lookup(blk(10)), MoesiState::Shared);
    }

    #[test]
    fn snoop_read_of_shared_or_absent_supplies_nothing() {
        let mut cache = Cache::new("t", 1024);
        cache.fill(blk(9), MoesiState::Shared, BlockHome::Memory);
        assert!(!cache.snoop_read(blk(9)).supplies_data);
        assert!(!cache.snoop_read(blk(99)).supplies_data);
        assert_eq!(cache.lookup(blk(9)), MoesiState::Shared);
    }

    #[test]
    fn snoop_invalidate_clears_the_line() {
        let mut cache = Cache::new("t", 1024);
        cache.fill(blk(4), MoesiState::Owned, BlockHome::Device);
        let action = cache.snoop_invalidate(blk(4));
        assert!(action.supplies_data);
        assert!(action.was_dirty);
        assert_eq!(cache.lookup(blk(4)), MoesiState::Invalid);
        assert_eq!(cache.snoop_invalidations(), 1);
        // Invalidating an absent block is a no-op.
        let action = cache.snoop_invalidate(blk(40));
        assert_eq!(action.prev, MoesiState::Invalid);
        assert_eq!(cache.snoop_invalidations(), 1);
    }

    #[test]
    fn snarf_requires_invalid_tag_match() {
        let mut cache = Cache::new("t", 1024);
        // Nothing allocated in the set: cannot snarf.
        assert!(!cache.snarf_fill(blk(6), BlockHome::Memory));
        // Valid line: cannot snarf (already have data).
        cache.fill(blk(6), MoesiState::Shared, BlockHome::Memory);
        assert!(!cache.snarf_fill(blk(6), BlockHome::Memory));
        // Invalidated line with matching tag: snarf succeeds.
        cache.snoop_invalidate(blk(6));
        assert!(cache.snarf_fill(blk(6), BlockHome::Memory));
        assert_eq!(cache.lookup(blk(6)), MoesiState::Shared);
        assert_eq!(cache.snarf_fills(), 1);
        // A different block mapping to the same set does not tag-match.
        cache.snoop_invalidate(blk(6));
        assert!(!cache.snarf_fill(blk(22), BlockHome::Memory));
    }

    #[test]
    fn explicit_evict() {
        let mut cache = Cache::new("t", 1024);
        assert!(cache.evict(blk(8)).is_none());
        cache.fill(blk(8), MoesiState::Modified, BlockHome::Memory);
        let ev = cache.evict(blk(8)).unwrap();
        assert!(ev.needs_writeback());
        assert_eq!(cache.resident_blocks(), 0);
    }

    #[test]
    fn packed_lines_round_trip_every_state_and_home() {
        let states = [
            MoesiState::Modified,
            MoesiState::Owned,
            MoesiState::Exclusive,
            MoesiState::Shared,
            MoesiState::Invalid,
        ];
        assert!(!PackedLine::EMPTY.has_tag());
        assert!(!PackedLine::EMPTY.holds(blk(0)));
        for state in states {
            for home in [BlockHome::Memory, BlockHome::Device] {
                for block in [blk(0), blk(1), blk(4607), blk((1 << 59) - 1)] {
                    let line = PackedLine::new(block, state, home);
                    assert!(line.has_tag() && line.holds(block));
                    assert!(!line.holds(blk(block.0 ^ 1)));
                    assert_eq!(
                        (line.block(), line.state(), line.home()),
                        (block, state, home)
                    );
                    for next in states {
                        let moved = line.with_state(next);
                        assert_eq!((moved.block(), moved.state()), (block, next));
                        assert_eq!(moved.home(), home);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "packed cache tag")]
    fn blocks_beyond_the_tag_width_are_refused() {
        let mut cache = Cache::new("t", 1024);
        cache.fill(blk(1 << 59), MoesiState::Shared, BlockHome::Memory);
    }

    #[test]
    fn snarf_tells_an_empty_set_from_an_invalidated_tag() {
        // 1024 sets in 16 pages. A set in a page that was never allocated,
        // and an empty set in a page that was: neither has a tag to match.
        let mut cache = Cache::new("t", 64 * 1024);
        assert!(!cache.snarf_fill(blk(700), BlockHome::Device));
        assert_eq!(cache.pages.iter().flatten().count(), 0);
        cache.fill(blk(701), MoesiState::Modified, BlockHome::Device);
        assert!(!cache.snarf_fill(blk(700), BlockHome::Device));
        // An evicted line leaves its set empty again.
        cache.evict(blk(701));
        assert!(!cache.snarf_fill(blk(701), BlockHome::Device));
        // An invalidated line keeps its tag, whatever its old state and home.
        cache.fill(blk(701), MoesiState::Owned, BlockHome::Memory);
        cache.snoop_invalidate(blk(701));
        assert!(cache.snarf_fill(blk(701), BlockHome::Device));
        assert_eq!(cache.lookup(blk(701)), MoesiState::Shared);
        assert_eq!(
            cache.peek_victim(blk(701 + 1024)).unwrap().home,
            BlockHome::Device
        );
    }

    #[test]
    fn pages_are_allocated_on_first_fill_and_counted_across_pages() {
        let mut cache = Cache::new("t", 256 * 1024); // 4096 sets, 64 pages
        assert_eq!(cache.pages.len(), 64);
        assert_eq!(cache.pages.iter().flatten().count(), 0);
        // Read-only traffic and snoops allocate nothing.
        assert_eq!(cache.lookup(blk(5)), MoesiState::Invalid);
        cache.snoop_read(blk(5));
        cache.snoop_invalidate(blk(5));
        assert!(cache.evict(blk(5)).is_none());
        assert_eq!(cache.pages.iter().flatten().count(), 0);
        // Sets 0, 63 (page 0), 64 (page 1) and 4095 (page 63).
        for (n, state) in [
            (0, MoesiState::Modified),
            (63, MoesiState::Shared),
            (64, MoesiState::Exclusive),
            (4095, MoesiState::Owned),
        ] {
            cache.fill(blk(n), state, BlockHome::Memory);
        }
        assert_eq!(cache.pages.iter().flatten().count(), 3);
        assert_eq!(cache.resident_blocks(), 4);
        // An invalidated line keeps its tag but is not resident.
        cache.snoop_invalidate(blk(64));
        assert_eq!(cache.resident_blocks(), 3);
        cache.evict(blk(4095));
        assert_eq!(cache.resident_blocks(), 2);
        assert_eq!(cache.pages.iter().flatten().count(), 3);
    }

    #[test]
    fn partial_last_page_covers_every_set() {
        let mut cache = Cache::new("t", 100 * 64); // 100 sets: 1 full + 1 partial page
        assert_eq!(cache.pages.len(), 2);
        cache.fill(blk(99), MoesiState::Exclusive, BlockHome::Device);
        let ev = cache
            .fill(blk(199), MoesiState::Shared, BlockHome::Memory)
            .unwrap();
        assert_eq!((ev.block, ev.home), (blk(99), BlockHome::Device));
        assert_eq!(cache.resident_blocks(), 1);
    }

    #[test]
    #[should_panic(expected = "absent block")]
    fn set_state_on_absent_block_panics() {
        let mut cache = Cache::new("t", 1024);
        cache.set_state(blk(1), MoesiState::Shared);
    }
}
