//! Page-cache model: an LRU set of fixed-size blocks keyed by
//! `(file, block index)`.
//!
//! Implemented as a hash map into an intrusive doubly-linked list stored in
//! a slab, giving O(1) touch/insert/evict without unsafe code.

use std::collections::HashMap;

/// Key of one cached block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockKey {
    /// File identifier.
    pub file: u64,
    /// Block index within the file.
    pub block: u64,
}

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Entry {
    key: BlockKey,
    prev: u32,
    next: u32,
}

/// LRU cache of fixed-size blocks with a byte-capacity budget.
#[derive(Debug)]
pub struct PageCache {
    block_size: u64,
    capacity_blocks: usize,
    map: HashMap<BlockKey, u32>,
    slab: Vec<Entry>,
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PageCache {
    /// New cache holding up to `capacity_bytes` in `block_size`-sized blocks.
    pub fn new(capacity_bytes: u64, block_size: u64) -> Self {
        assert!(block_size > 0);
        let capacity_blocks = (capacity_bytes / block_size) as usize;
        PageCache {
            block_size,
            capacity_blocks,
            map: HashMap::with_capacity(capacity_blocks.min(1 << 20)),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Cache block size in bytes.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Number of blocks currently resident.
    pub fn resident(&self) -> usize {
        self.map.len()
    }

    /// (hits, misses, evictions) counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    fn unlink(&mut self, idx: u32) {
        let (p, n) = {
            let e = &self.slab[idx as usize];
            (e.prev, e.next)
        };
        if p != NIL {
            self.slab[p as usize].next = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.slab[n as usize].prev = p;
        } else {
            self.tail = p;
        }
    }

    fn push_front(&mut self, idx: u32) {
        self.slab[idx as usize].prev = NIL;
        self.slab[idx as usize].next = self.head;
        if self.head != NIL {
            self.slab[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Is the block resident? Updates recency and hit/miss counters.
    pub fn access(&mut self, key: BlockKey) -> bool {
        if let Some(&idx) = self.map.get(&key) {
            self.hits += 1;
            self.unlink(idx);
            self.push_front(idx);
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Is the block resident? No side effects.
    pub fn contains(&self, key: BlockKey) -> bool {
        self.map.contains_key(&key)
    }

    /// Insert a block (no-op if already resident, but refreshed), evicting
    /// the LRU block when full. Returns the evicted key, if any.
    pub fn insert(&mut self, key: BlockKey) -> Option<BlockKey> {
        if self.capacity_blocks == 0 {
            return None;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.unlink(idx);
            self.push_front(idx);
            return None;
        }
        let mut evicted = None;
        if self.map.len() >= self.capacity_blocks {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            let vkey = self.slab[victim as usize].key;
            self.map.remove(&vkey);
            self.free.push(victim);
            self.evictions += 1;
            evicted = Some(vkey);
        }
        let idx = if let Some(idx) = self.free.pop() {
            self.slab[idx as usize] = Entry {
                key,
                prev: NIL,
                next: NIL,
            };
            idx
        } else {
            let idx = self.slab.len() as u32;
            self.slab.push(Entry {
                key,
                prev: NIL,
                next: NIL,
            });
            idx
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }

    /// Drop every block belonging to `file` (truncate / delete).
    pub fn invalidate_file(&mut self, file: u64) {
        let victims: Vec<BlockKey> = self
            .map
            .keys()
            .filter(|k| k.file == file)
            .copied()
            .collect();
        for k in victims {
            if let Some(idx) = self.map.remove(&k) {
                self.unlink(idx);
                self.free.push(idx);
            }
        }
    }

    /// Iterate over the blocks of `[offset, offset+len)` of `file`.
    pub fn blocks_of(&self, file: u64, offset: u64, len: u64) -> impl Iterator<Item = BlockKey> {
        let bs = self.block_size;
        let first = offset / bs;
        let last = if len == 0 {
            first
        } else {
            (offset + len - 1) / bs + 1
        };
        (first..last).map(move |block| BlockKey { file, block })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(file: u64, block: u64) -> BlockKey {
        BlockKey { file, block }
    }

    #[test]
    fn hit_after_insert() {
        let mut c = PageCache::new(1024, 256);
        assert!(!c.access(key(1, 0)));
        c.insert(key(1, 0));
        assert!(c.access(key(1, 0)));
        assert_eq!(c.counters(), (1, 1, 0));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = PageCache::new(3 * 256, 256);
        c.insert(key(1, 0));
        c.insert(key(1, 1));
        c.insert(key(1, 2));
        // Touch block 0 so block 1 becomes LRU.
        assert!(c.access(key(1, 0)));
        let evicted = c.insert(key(1, 3)).unwrap();
        assert_eq!(evicted, key(1, 1));
        assert!(c.contains(key(1, 0)));
        assert!(c.contains(key(1, 2)));
        assert!(c.contains(key(1, 3)));
    }

    #[test]
    fn capacity_bounded() {
        let mut c = PageCache::new(10 * 64, 64);
        for b in 0..100 {
            c.insert(key(1, b));
        }
        assert_eq!(c.resident(), 10);
        assert_eq!(c.counters().2, 90);
    }

    #[test]
    fn invalidate_file_only_drops_that_file() {
        let mut c = PageCache::new(100 * 64, 64);
        for b in 0..5 {
            c.insert(key(1, b));
            c.insert(key(2, b));
        }
        c.invalidate_file(1);
        assert_eq!(c.resident(), 5);
        assert!(!c.contains(key(1, 0)));
        assert!(c.contains(key(2, 4)));
        // LRU list stays consistent after invalidation.
        for b in 5..60 {
            c.insert(key(3, b));
        }
        assert!(c.resident() <= 100);
    }

    #[test]
    fn blocks_of_covers_range() {
        let c = PageCache::new(1024, 100);
        let v: Vec<u64> = c.blocks_of(9, 250, 300).map(|k| k.block).collect();
        // Bytes 250..550 → blocks 2..=5.
        assert_eq!(v, vec![2, 3, 4, 5]);
        assert_eq!(c.blocks_of(9, 0, 0).count(), 0);
        assert_eq!(c.blocks_of(9, 0, 1).count(), 1);
        assert_eq!(c.blocks_of(9, 99, 2).count(), 2);
    }

    #[test]
    fn reinsert_refreshes_recency() {
        let mut c = PageCache::new(2 * 64, 64);
        c.insert(key(1, 0));
        c.insert(key(1, 1));
        c.insert(key(1, 0)); // refresh 0; LRU is now 1
        let evicted = c.insert(key(1, 2)).unwrap();
        assert_eq!(evicted, key(1, 1));
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = PageCache::new(0, 64);
        assert_eq!(c.insert(key(1, 0)), None);
        assert!(!c.contains(key(1, 0)));
    }
}
