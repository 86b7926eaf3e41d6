//! Flat, reusable per-scan state for the seed-scanning hot path.
//!
//! The scanner tracks the last extension end of every diagonal, keyed by
//! the NCBI-style offset diagonal `diag = s - q + qlen` ∈ `[0, qlen +
//! slen]`. A `HashMap<i64, _>` there costs a hash + probe per seed hit
//! and reallocates per subject; [`DiagTracker`] is the flat
//! replacement — one array slot per diagonal, validated by an epoch
//! counter so moving to the next subject is O(1) instead of a clear.

/// Epoch-validated flat map from diagonal index to a `u32` value, with
/// `HashMap::get`/`insert` semantics. Reused across subjects via
/// [`DiagTracker::begin`].
#[derive(Debug, Default)]
pub struct DiagTracker {
    epoch: Vec<u32>,
    val: Vec<u32>,
    cur: u32,
}

impl DiagTracker {
    /// Empty tracker; arrays grow to the widest subject seen.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a new scan over `ndiags` diagonals: all slots read as empty.
    pub fn begin(&mut self, ndiags: usize) {
        if self.val.len() < ndiags {
            self.val.resize(ndiags, 0);
            self.epoch.resize(ndiags, 0);
        }
        self.cur = self.cur.wrapping_add(1);
        if self.cur == 0 {
            // Epoch wrapped after 2^32 scans: hard-clear once so stale
            // epoch-0 entries can't read as current.
            self.epoch.fill(0);
            self.cur = 1;
        }
    }

    /// Value stored for diagonal `d` in the current scan, if any.
    #[inline]
    pub fn get(&self, d: usize) -> Option<u32> {
        if self.epoch[d] == self.cur {
            Some(self.val[d])
        } else {
            None
        }
    }

    /// Store `v` for diagonal `d`.
    #[inline]
    pub fn set(&mut self, d: usize, v: u32) {
        self.epoch[d] = self.cur;
        self.val[d] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn tracker_matches_hashmap_semantics() {
        let mut t = DiagTracker::new();
        let mut m: HashMap<usize, u32> = HashMap::new();
        t.begin(64);
        let ops = [(3usize, 7u32), (3, 9), (10, 1), (63, 2), (10, 4)];
        for (d, v) in ops {
            assert_eq!(t.get(d), m.get(&d).copied(), "get before insert {d}");
            t.set(d, v);
            m.insert(d, v);
            assert_eq!(t.get(d), Some(v), "get after insert {d}");
        }
        // New scan: everything reads empty again without clearing.
        t.begin(64);
        for d in [3usize, 10, 63] {
            assert_eq!(t.get(d), None, "stale value survived begin() at {d}");
        }
    }

    #[test]
    fn tracker_grows_between_scans() {
        let mut t = DiagTracker::new();
        t.begin(4);
        t.set(3, 5);
        t.begin(100);
        assert_eq!(t.get(3), None);
        assert_eq!(t.get(99), None);
        t.set(99, 1);
        assert_eq!(t.get(99), Some(1));
    }
}
