//! Per-server health of a striped store: decayed, byte-weighted read
//! latencies that mark slow servers hot, and the crash → rebuild → rejoin
//! lifecycle that keeps a dead server out of reads until its mirror
//! partner has rebuilt it. Every read of a [`crate::Store`] feeds it; only a
//! store with a second copy acts on it, by *skipping* hot and dead servers
//! in favour of their partners — the §4.5 mechanism.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::layout::ServerId;

/// Where a server stands in the crash → rebuild → rejoin lifecycle.
///
/// A server that suffered a hard failure may hold stale or missing
/// stripes, so reads must keep avoiding it until its partner has rebuilt
/// it: `Degraded` (dead, not yet rebuilding) → `Rebuilding` (copy from
/// partner in progress) → `Healthy` (caught up, serving reads again).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResyncState {
    /// In rotation; stripes are trusted.
    Healthy,
    /// Failed and excluded; stripes are suspect.
    Degraded,
    /// Being rebuilt from its mirror partner; still excluded.
    Rebuilding,
}

/// Latency-based hot-spot detector shared by all readers of a store.
///
/// Servers are kept index-major (server `i` of every copy side by side),
/// so [`Self::dead`] and [`Self::skips`] list them in that order.
#[derive(Debug)]
pub struct HealthMonitor {
    /// Copies of the store (groups of servers).
    copies: usize,
    /// Exponentially decayed `(seconds, bytes)` read per server; their
    /// ratio is the server's per-byte latency. Every sample decays both
    /// sums by `1 − alpha` and adds its own, so samples weigh by their
    /// bytes: a 64-byte header read, whose fixed cost makes it ten times
    /// a stripe read per byte, cannot outvote the 512 KB read before it.
    load: Mutex<Vec<(f64, f64)>>,
    /// Smoothing factor.
    alpha: f64,
    /// A server is hot when its latency exceeds `factor ×` the median.
    factor: f64,
    /// Crash/rebuild lifecycle per server (see [`ResyncState`]). A server
    /// that is not `Healthy` is dead: it returned a hard I/O error, and
    /// every later plan routes its ranges to the mirror partner (CEFT
    /// failover on the real path) until a resync brings it back.
    state: Mutex<Vec<ResyncState>>,
    /// Stripes rewritten by read-repair and scrubbing.
    repaired: AtomicU64,
}

/// Lock a monitor table; a poisoned lock means a reader panicked mid-update.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("health monitor lock")
}

impl HealthMonitor {
    /// New monitor for `n` servers in each of `copies` groups.
    pub fn new(n: usize, copies: usize) -> Self {
        HealthMonitor {
            copies,
            load: Mutex::new(vec![(0.0, 0.0); n * copies]),
            alpha: 0.3,
            factor: 4.0,
            state: Mutex::new(vec![ResyncState::Healthy; n * copies]),
            repaired: AtomicU64::new(0),
        }
    }

    fn slot(&self, s: ServerId) -> usize {
        s.index as usize * self.copies + s.group as usize
    }

    fn server(&self, slot: usize) -> ServerId {
        ServerId {
            group: (slot % self.copies) as u8,
            index: (slot / self.copies) as u32,
        }
    }

    /// Mark a server dead after a hard I/O error; all later plans route
    /// its ranges to the mirror partner, and its stripes are considered
    /// stale until [`crate::MirroredStore::resync_server`] has caught it up.
    pub fn mark_dead(&self, s: ServerId) {
        lock(&self.state)[self.slot(s)] = ResyncState::Degraded;
    }

    /// The server's position in the crash → rebuild → rejoin lifecycle.
    pub fn resync_state(&self, s: ServerId) -> ResyncState {
        lock(&self.state)[self.slot(s)]
    }

    /// Enter `Rebuilding` (the server stays excluded from reads).
    pub fn begin_resync(&self, s: ServerId) {
        lock(&self.state)[self.slot(s)] = ResyncState::Rebuilding;
    }

    /// Rebuild finished: mark `Healthy` and put the server back into
    /// rotation with a fresh latency history.
    pub fn complete_resync(&self, s: ServerId) {
        lock(&self.state)[self.slot(s)] = ResyncState::Healthy;
        lock(&self.load)[self.slot(s)] = (0.0, 0.0);
    }

    /// Count `n` stripes rewritten by read-repair or scrubbing.
    pub fn note_repair(&self, n: u64) {
        self.repaired.fetch_add(n, Ordering::Relaxed);
    }

    /// Total stripes rewritten from a mirror partner so far.
    pub fn repaired_stripes(&self) -> u64 {
        self.repaired.load(Ordering::Relaxed)
    }

    /// Servers currently dead: every server not `Healthy`.
    pub fn dead(&self) -> Vec<ServerId> {
        lock(&self.state)
            .iter()
            .enumerate()
            .filter(|&(_, &st)| st != ResyncState::Healthy)
            .map(|(slot, _)| self.server(slot))
            .collect()
    }

    /// Record an observed read of `bytes` taking `seconds`.
    pub fn record(&self, s: ServerId, bytes: u64, seconds: f64) {
        if bytes == 0 {
            return;
        }
        let mut load = lock(&self.load);
        let (secs, read) = &mut load[self.slot(s)];
        *secs = (1.0 - self.alpha) * *secs + seconds;
        *read = (1.0 - self.alpha) * *read + bytes as f64;
    }

    /// Servers currently considered hot or dead (skippable). Dead servers
    /// are always skipped; hot ones only once enough latency samples exist
    /// to compute a median, and never while a mirror partner is dead: a
    /// hot server is then the only copy left to read, and skipping both
    /// would send the read back to the dead one.
    pub fn skips(&self) -> Vec<ServerId> {
        let mut out = self.dead();
        let dead = out.len();
        // Per-byte latency; 0 for a server with no samples yet.
        let latency: Vec<f64> = lock(&self.load)
            .iter()
            .map(|&(secs, read)| if read > 0.0 { secs / read } else { 0.0 })
            .collect();
        let mut all: Vec<f64> = latency.iter().copied().filter(|&x| x > 0.0).collect();
        if all.len() < 2 {
            return out;
        }
        all.sort_by(f64::total_cmp);
        let median = all[all.len() / 2];
        if median <= 0.0 {
            return out;
        }
        for (slot, &v) in latency.iter().enumerate() {
            let s = self.server(slot);
            let partner_dead = out[..dead].iter().any(|d| d.index == s.index && d != &s);
            if v > self.factor * median && !out.contains(&s) && !partner_dead {
                out.push(s);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// One 512 KB stripe read and one 64-byte header read at the paced
    /// rate of the whole-path benchmark's servers (8 MB/s; a header costs
    /// the fixed ~80 µs of any read).
    const STRIPE_READ: (u64, f64) = (512 << 10, (512 << 10) as f64 / 8e6);
    const HEADER_READ: (u64, f64) = (64, 80e-6);

    fn all_servers(n: u32) -> impl Iterator<Item = ServerId> {
        (0..2u8).flat_map(move |group| (0..n).map(move |index| ServerId { group, index }))
    }

    #[test]
    fn header_reads_between_stripe_reads_flag_nobody() {
        // Opening a volume reads a few headers from server 0 of a group;
        // per byte they cost ten times a stripe read at the same device.
        let mon = HealthMonitor::new(4, 2);
        for _ in 0..50 {
            for s in all_servers(4) {
                mon.record(s, STRIPE_READ.0, STRIPE_READ.1);
            }
            for _ in 0..3 {
                mon.record(
                    ServerId { group: 0, index: 0 },
                    HEADER_READ.0,
                    HEADER_READ.1,
                );
                assert_eq!(mon.skips(), vec![], "a header read marked a server hot");
            }
        }
    }

    #[test]
    fn a_slow_server_is_flagged_as_soon_as_before_and_resync_forgets_it() {
        let mon = HealthMonitor::new(4, 2);
        let slow = ServerId { group: 1, index: 2 };
        for _ in 0..10 {
            for s in all_servers(4) {
                mon.record(s, STRIPE_READ.0, STRIPE_READ.1);
            }
        }
        assert_eq!(mon.skips(), vec![]);
        // Ten times slower: an average with weight 0.3 on each new read
        // passes four times the median on the second one
        // (1 + (1 − 0.7²) × 9 = 5.6), and so do the decayed sums.
        mon.record(slow, STRIPE_READ.0, 10.0 * STRIPE_READ.1);
        assert_eq!(mon.skips(), vec![]);
        mon.record(slow, STRIPE_READ.0, 10.0 * STRIPE_READ.1);
        assert_eq!(mon.skips(), vec![slow]);
        // A rebuilt server starts over: its next read alone is its latency.
        mon.begin_resync(slow);
        mon.complete_resync(slow);
        assert_eq!(mon.skips(), vec![]);
        mon.record(slow, STRIPE_READ.0, STRIPE_READ.1);
        assert_eq!(mon.skips(), vec![]);
    }

    /// One event of the lifecycle walker, on server `usize` of a 2 + 2
    /// store (group-major: 0 and 1 are the primaries).
    #[derive(Debug, Clone, Copy)]
    enum Event {
        Dead(usize),
        Begin(usize),
        Complete(usize),
        Hot(usize),
        Cool(usize),
    }

    const WALK_DEPTH: usize = 6;
    const STRIPE: u64 = 64 << 10;

    fn walk_server(i: usize) -> ServerId {
        ServerId {
            group: (i / 2) as u8,
            index: (i % 2) as u32,
        }
    }

    /// Everything the walk's future depends on: the monitor's lifecycle
    /// states and decayed sums (as bits), and which servers were marked
    /// dead with no completed resync since.
    type Key = (Vec<ResyncState>, Vec<(u64, u64)>, [bool; 4]);

    fn key(mon: &HealthMonitor, out: [bool; 4]) -> Key {
        let load = lock(&mon.load)
            .iter()
            .map(|&(s, r)| (s.to_bits(), r.to_bits()))
            .collect();
        (lock(&mon.state).clone(), load, out)
    }

    fn monitor(k: &Key) -> HealthMonitor {
        let mon = HealthMonitor::new(2, 2);
        *lock(&mon.state) = k.0.clone();
        *lock(&mon.load) =
            k.1.iter()
                .map(|&(s, r)| (f64::from_bits(s), f64::from_bits(r)))
                .collect();
        mon
    }

    /// Every plan of a mirrored read the store could make now: dual-half
    /// in both orientations over both stripes of both servers, and each
    /// group alone. No part may go to a server that is `Degraded` or
    /// `Rebuilding`, or was marked dead and has not completed a resync
    /// since, unless its partner is out too (then no live copy is left).
    fn check_plans(mon: &HealthMonitor, out: [bool; 4], path: &[Event]) {
        let layout = crate::layout::MirroredLayout::new(STRIPE, 2);
        let skips = mon.skips();
        let excluded = |s: ServerId| {
            let slot = s.group as usize * 2 + s.index as usize;
            out[slot] || mon.resync_state(s) != ResyncState::Healthy
        };
        let len = 4 * STRIPE;
        for group in 0..2u8 {
            let plans = [
                layout.plan_read(0, len, group, &skips),
                layout.plan_single_group(0, len, group, &skips),
            ];
            for parts in plans {
                assert_eq!(parts.iter().map(|p| p.len).sum::<u64>(), len, "{path:?}");
                for p in parts {
                    assert!(
                        !excluded(p.server) || excluded(layout.partner(p.server)),
                        "a plan reads {:?} ({:?}) while its partner is live\n  after {path:?}",
                        p.server,
                        mon.resync_state(p.server),
                    );
                }
            }
        }
    }

    fn walk(k: Key, path: &mut Vec<Event>, seen: &mut HashMap<Key, usize>, states: &mut u64) {
        let depth = WALK_DEPTH - path.len();
        if seen.get(&k).is_some_and(|&d| d >= depth) {
            return;
        }
        seen.insert(k.clone(), depth);
        *states += 1;
        if depth == 0 {
            return;
        }
        let events = (0..4).flat_map(|i| {
            [
                Event::Dead(i),
                Event::Begin(i),
                Event::Complete(i),
                Event::Hot(i),
                Event::Cool(i),
            ]
        });
        for e in events {
            let mon = monitor(&k);
            let mut out = k.2;
            let want = match e {
                Event::Dead(i) => {
                    mon.mark_dead(walk_server(i));
                    out[i] = true;
                    Some((i, ResyncState::Degraded))
                }
                Event::Begin(i) => {
                    mon.begin_resync(walk_server(i));
                    Some((i, ResyncState::Rebuilding))
                }
                Event::Complete(i) => {
                    mon.complete_resync(walk_server(i));
                    out[i] = false;
                    Some((i, ResyncState::Healthy))
                }
                Event::Hot(i) => {
                    mon.record(walk_server(i), STRIPE_READ.0, 10.0 * STRIPE_READ.1);
                    None
                }
                Event::Cool(i) => {
                    mon.record(walk_server(i), STRIPE_READ.0, STRIPE_READ.1);
                    None
                }
            };
            path.push(e);
            if let Some((i, state)) = want {
                assert_eq!(mon.resync_state(walk_server(i)), state, "after {path:?}");
            }
            check_plans(&mon, out, path);
            walk(key(&mon, out), path, seen, states);
            path.pop();
        }
    }

    /// Every order of up to six lifecycle events (mark dead, begin and
    /// complete a resync, a hot or a cool read) on any server of a 2 + 2
    /// store, each followed by every mirrored plan the store could make.
    /// Orders that reach the same monitor are walked on once.
    #[test]
    fn every_lifecycle_order_keeps_plans_off_excluded_servers() {
        let mon = HealthMonitor::new(2, 2);
        let (mut seen, mut states) = (HashMap::new(), 0);
        walk(
            key(&mon, [false; 4]),
            &mut Vec::new(),
            &mut seen,
            &mut states,
        );
        assert!(states > 10_000, "only {states} states walked");
    }

    /// The order the walker found: a server dies while its partner is
    /// hot. The partner is the only live copy, so it is not skipped.
    #[test]
    fn a_hot_server_whose_partner_is_dead_is_still_read() {
        let mon = HealthMonitor::new(2, 2);
        let (dead, hot) = (walk_server(0), walk_server(2));
        mon.record(walk_server(1), STRIPE_READ.0, STRIPE_READ.1);
        mon.record(walk_server(3), STRIPE_READ.0, STRIPE_READ.1);
        mon.record(hot, STRIPE_READ.0, 10.0 * STRIPE_READ.1);
        assert_eq!(mon.skips(), vec![hot]);
        mon.mark_dead(dead);
        assert_eq!(mon.skips(), vec![dead]);
        mon.complete_resync(dead);
        assert_eq!(mon.skips(), vec![hot]);
    }

    #[test]
    fn servers_are_listed_index_major() {
        let mon = HealthMonitor::new(3, 2);
        let order = [(1, 2), (0, 2), (1, 0), (0, 1)];
        for (group, index) in order {
            mon.mark_dead(ServerId { group, index });
        }
        let want: Vec<ServerId> = [(1, 0), (0, 1), (0, 2), (1, 2)]
            .into_iter()
            .map(|(group, index)| ServerId { group, index })
            .collect();
        assert_eq!(mon.dead(), want);
    }
}
