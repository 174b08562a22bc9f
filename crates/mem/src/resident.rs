//! Resident-set tracking with LRU replacement.
//!
//! Accent's physical memory "tends to act as a disk cache" (paper §4.2.3):
//! a process's resident set at migration time is whatever survived LRU
//! replacement, including stale file pages that will never be touched again.
//! The tracker models a per-space frame budget; when it is exceeded the
//! least recently used page is nominated for page-out.
//!
//! # Cost model
//!
//! The tracker is an intrusive doubly-linked list threaded through a slab
//! of nodes, plus one hash index from page to slab slot. `touch`,
//! `refresh`, `remove` and victim selection are O(1): one hash probe and a
//! constant number of link updates, with no allocation once the slab has
//! grown to the peak resident count (freed slots are reused). The index
//! hashes a [`PageNum`] with one folded multiply instead of SipHash; its
//! iteration order never leaks, because [`ResidentTracker::pages`] sorts
//! and [`ResidentTracker::pages_lru_order`] walks the list.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::page::PageNum;

/// A multiply-shift hasher for page numbers: the 128-bit product of the key
/// with an odd constant, folded to 64 bits, so every key bit reaches both
/// the bucket-index (low) and tag (high) bits of the table.
#[derive(Default, Clone, Copy)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let m = u128::from(self.0 ^ n) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }
}

/// Slot number of a list node on the slab.
type Slot = u32;

/// The "no node" link.
const NIL: Slot = Slot::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    page: PageNum,
    /// The next-older node (towards the LRU end).
    prev: Slot,
    /// The next-newer node (towards the MRU end).
    next: Slot,
}

/// LRU tracker over the resident pages of one address space.
///
/// # Examples
///
/// ```
/// use cor_mem::resident::ResidentTracker;
/// use cor_mem::PageNum;
///
/// let mut rs = ResidentTracker::with_capacity(2);
/// assert_eq!(rs.touch(PageNum(1)), None);
/// assert_eq!(rs.touch(PageNum(2)), None);
/// assert_eq!(rs.touch(PageNum(1)), None); // refresh 1
/// // Inserting a third page evicts the LRU page, which is now 2.
/// assert_eq!(rs.touch(PageNum(3)), Some(PageNum(2)));
/// ```
#[derive(Debug, Clone)]
pub struct ResidentTracker {
    /// List nodes; slots on `free` are unlinked and reusable.
    nodes: Vec<Node>,
    free: Vec<Slot>,
    /// page -> slot of its node
    index: HashMap<PageNum, Slot, BuildHasherDefault<PageHasher>>,
    /// Least recently used node.
    head: Slot,
    /// Most recently used node.
    tail: Slot,
    capacity: Option<usize>,
}

impl Default for ResidentTracker {
    fn default() -> Self {
        ResidentTracker {
            nodes: Vec::new(),
            free: Vec::new(),
            index: HashMap::default(),
            head: NIL,
            tail: NIL,
            capacity: None,
        }
    }
}

impl ResidentTracker {
    /// A tracker with unbounded capacity (no page-outs).
    pub fn unbounded() -> Self {
        ResidentTracker::default()
    }

    /// A tracker that nominates pages for page-out beyond `frames` resident
    /// pages.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero; a process needs at least one frame.
    pub fn with_capacity(frames: usize) -> Self {
        assert!(frames > 0, "resident capacity must be at least one frame");
        ResidentTracker {
            capacity: Some(frames),
            ..ResidentTracker::default()
        }
    }

    /// Changes the capacity. Does not immediately evict; the next `touch`
    /// enforces the new bound one page at a time.
    pub fn set_capacity(&mut self, frames: Option<usize>) {
        assert!(
            frames != Some(0),
            "resident capacity must be at least one frame"
        );
        self.capacity = frames;
    }

    /// Marks `page` as most recently used (inserting it if absent). If the
    /// insertion pushed the tracker over capacity, returns the LRU page;
    /// that page has already been dropped from the tracker and the caller
    /// must page it out.
    #[must_use = "a returned page must be paged out by the caller"]
    pub fn touch(&mut self, page: PageNum) -> Option<PageNum> {
        self.refresh(page);
        match self.capacity {
            Some(cap) if self.index.len() > cap => {
                // The page just touched is the MRU node, never the LRU
                // victim when cap >= 1.
                let victim = self.nodes[self.head as usize].page;
                self.remove(victim);
                Some(victim)
            }
            _ => None,
        }
    }

    /// Marks `page` as most recently used *without* enforcing capacity.
    /// Used on plain access to an already-resident page: budgets are
    /// enforced when pages are installed, so an over-budget tracker (after
    /// a budget shrink or a bulk insertion) drains one page per subsequent
    /// install rather than on reads.
    pub fn refresh(&mut self, page: PageNum) {
        let slot = match self.index.get(&page) {
            Some(&slot) => {
                if slot == self.tail {
                    return;
                }
                self.unlink(slot);
                slot
            }
            None => {
                let node = Node {
                    page,
                    prev: NIL,
                    next: NIL,
                };
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.nodes[slot as usize] = node;
                        slot
                    }
                    None => {
                        let slot = Slot::try_from(self.nodes.len())
                            .ok()
                            .filter(|&s| s != NIL)
                            .expect("resident tracker slab exhausted");
                        self.nodes.push(node);
                        slot
                    }
                };
                self.index.insert(page, slot);
                slot
            }
        };
        self.push_back(slot);
    }

    /// Removes `page` (it was paged out, unmapped, or migrated away).
    pub fn remove(&mut self, page: PageNum) -> bool {
        match self.index.remove(&page) {
            Some(slot) => {
                self.unlink(slot);
                self.free.push(slot);
                true
            }
            None => false,
        }
    }

    /// Forgets everything (e.g. after process excision).
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.index.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Whether `page` is tracked as resident.
    pub fn contains(&self, page: PageNum) -> bool {
        self.index.contains_key(&page)
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The resident pages in ascending page order.
    pub fn pages(&self) -> Vec<PageNum> {
        let mut v: Vec<PageNum> = self.index.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// The resident pages from least to most recently used.
    pub fn pages_lru_order(&self) -> Vec<PageNum> {
        let mut v = Vec::with_capacity(self.index.len());
        let mut slot = self.head;
        while slot != NIL {
            let node = &self.nodes[slot as usize];
            v.push(node.page);
            slot = node.next;
        }
        v
    }

    /// The configured capacity, if bounded.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Detaches `slot` from the list, leaving its own links stale.
    fn unlink(&mut self, slot: Slot) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Links a detached `slot` in as the most recently used node.
    fn push_back(&mut self, slot: Slot) {
        let tail = self.tail;
        let node = &mut self.nodes[slot as usize];
        node.prev = tail;
        node.next = NIL;
        match tail {
            NIL => self.head = slot,
            t => self.nodes[t as usize].next = slot,
        }
        self.tail = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u64) -> PageNum {
        PageNum(n)
    }

    #[test]
    fn unbounded_never_evicts() {
        let mut rs = ResidentTracker::unbounded();
        for i in 0..1000 {
            assert_eq!(rs.touch(p(i)), None);
        }
        assert_eq!(rs.len(), 1000);
    }

    #[test]
    fn lru_eviction_order() {
        let mut rs = ResidentTracker::with_capacity(3);
        assert_eq!(rs.touch(p(1)), None);
        assert_eq!(rs.touch(p(2)), None);
        assert_eq!(rs.touch(p(3)), None);
        assert_eq!(rs.touch(p(4)), Some(p(1)));
        assert_eq!(rs.touch(p(2)), None); // refresh
        assert_eq!(rs.touch(p(5)), Some(p(3)));
        assert!(rs.contains(p(2)) && rs.contains(p(4)) && rs.contains(p(5)));
        assert!(!rs.contains(p(1)) && !rs.contains(p(3)));
    }

    #[test]
    fn retouching_does_not_grow() {
        let mut rs = ResidentTracker::with_capacity(2);
        for _ in 0..10 {
            assert_eq!(rs.touch(p(7)), None);
        }
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn remove_and_clear() {
        let mut rs = ResidentTracker::with_capacity(2);
        let _ = rs.touch(p(1));
        let _ = rs.touch(p(2));
        assert!(rs.remove(p(1)));
        assert!(!rs.remove(p(1)));
        assert_eq!(rs.len(), 1);
        rs.clear();
        assert!(rs.is_empty());
    }

    #[test]
    fn lru_order_listing() {
        let mut rs = ResidentTracker::unbounded();
        let _ = rs.touch(p(5));
        let _ = rs.touch(p(3));
        let _ = rs.touch(p(5)); // refresh: 3 is now LRU
        assert_eq!(rs.pages_lru_order(), vec![p(3), p(5)]);
        assert_eq!(rs.pages(), vec![p(3), p(5)]);
    }

    #[test]
    fn capacity_shrink_enforced_lazily() {
        let mut rs = ResidentTracker::with_capacity(4);
        for i in 0..4 {
            let _ = rs.touch(p(i));
        }
        rs.set_capacity(Some(2));
        assert_eq!(rs.len(), 4);
        assert_eq!(rs.touch(p(10)), Some(p(0)));
        assert_eq!(rs.len(), 4); // shrinks one per touch
        assert_eq!(rs.touch(p(11)), Some(p(1)));
    }
}
