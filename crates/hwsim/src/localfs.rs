//! Node-local file system: page cache + read-ahead over the node's disk.
//!
//! Models the behaviour of a 2003 Linux node as seen by an application:
//!
//! * **Reads** behave like a faulting memory-mapped reader — the request is
//!   broken into read-ahead-sized units issued *one at a time*; each unit is
//!   served from the page cache when resident, otherwise from the disk and
//!   then inserted into the cache.
//! * **Writes** are buffered (complete at memory speed, inserted into the
//!   cache) unless `sync` is set, in which case every unit goes to the
//!   platter before completion — the paper's Figure 8 stressor relies on
//!   this to guarantee a disk access per append.
//!
//! File offsets are mapped onto the disk's platter address space by
//! [`file_pos`], giving each file a disjoint, internally-contiguous extent —
//! so intra-file sequential access is sequential at the disk and accesses to
//! different files always seek.

use std::collections::HashMap;

use parblast_simcore::{CompId, Component, Ctx, SimTime};

use crate::cache::{BlockKey, PageCache};
use crate::event::{DiskOp, DiskReq, Ev, FsDone, FsMsg};
use crate::params::NodeParams;

/// Map `(file, offset)` to a platter position: each file gets a disjoint
/// 64 GiB extent, preserving intra-file contiguity.
pub fn file_pos(file: u64, offset: u64) -> u64 {
    debug_assert!(offset < 1 << 36, "file offset exceeds 64 GiB extent");
    (file << 36) | offset
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    MmapRead,
    WriteSync,
    WriteBuffered,
}

#[derive(Debug)]
struct InFlight {
    kind: Kind,
    file: u64,
    offset: u64,
    len: u64,
    unit: u64,
    cursor: u64,           // bytes already completed
    last_unit: (u64, u64), // absolute (start, len) of the unit in flight
    cached_bytes: u64,
    reply_to: CompId,
    tag: u64,
    started: SimTime,
}

/// Node-local file system component.
pub struct LocalFs {
    disk: CompId,
    cache: PageCache,
    readahead: u64,
    write_unit: u64,
    cache_hit_s: f64,
    mmap_fault_s: f64,
    read_gap_s: f64,
    inflight: HashMap<u64, InFlight>,
    next_req: u64,
    // statistics
    reads: u64,
    writes: u64,
    bytes_read: u64,
    bytes_written: u64,
    bytes_from_cache: u64,
    name: String,
}

impl LocalFs {
    /// New file system over `disk` with the given node parameters.
    pub fn new(name: impl Into<String>, disk: CompId, node: &NodeParams) -> Self {
        LocalFs {
            disk,
            // Page-granular cache (4 KiB) so that I/O units of any size
            // map exactly onto cached blocks — a unit must not mark bytes
            // it did not read as resident.
            cache: PageCache::new(node.cache_bytes, 4096),
            readahead: node.readahead,
            write_unit: 1 << 20,
            cache_hit_s: node.cache_hit_s,
            mmap_fault_s: node.mmap_fault_s,
            read_gap_s: node.read_gap_s,
            inflight: HashMap::new(),
            next_req: 1,
            reads: 0,
            writes: 0,
            bytes_read: 0,
            bytes_written: 0,
            bytes_from_cache: 0,
            name: name.into(),
        }
    }

    /// `(ops, bytes)` read and written plus bytes served from cache.
    pub fn stats(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.reads,
            self.bytes_read,
            self.writes,
            self.bytes_written,
            self.bytes_from_cache,
        )
    }

    fn unit_of(&self, st: &InFlight) -> (u64, u64) {
        // Next unit: aligned to the unit size so cache blocks line up.
        let unit = match st.kind {
            Kind::Read | Kind::MmapRead => {
                if st.unit > 0 {
                    st.unit
                } else {
                    self.readahead
                }
            }
            _ => self.write_unit,
        };
        let abs = st.offset + st.cursor;
        let unit_end = (abs / unit + 1) * unit;
        let end = (st.offset + st.len).min(unit_end);
        (abs, end - abs)
    }

    /// Advance one request; issues the next unit or completes it.
    fn step(&mut self, ctx: &mut Ctx<'_, Ev>, req_id: u64) {
        let Some(st) = self.inflight.get(&req_id) else {
            return;
        };
        if st.cursor >= st.len {
            let st = self.inflight.remove(&req_id).unwrap();
            let latency = ctx.now().saturating_sub(st.started);
            match st.kind {
                Kind::Read | Kind::MmapRead => {
                    self.reads += 1;
                    self.bytes_read += st.len;
                    self.bytes_from_cache += st.cached_bytes;
                }
                _ => {
                    self.writes += 1;
                    self.bytes_written += st.len;
                }
            }
            ctx.send(
                st.reply_to,
                Ev::FsDone(FsDone {
                    tag: st.tag,
                    latency,
                    cached_bytes: st.cached_bytes,
                }),
            );
            return;
        }
        let (abs, len) = self.unit_of(st);
        let kind = st.kind;
        let file = st.file;
        match kind {
            Kind::Read | Kind::MmapRead => {
                let all_cached = self
                    .cache
                    .blocks_of(file, abs, len)
                    .collect::<Vec<_>>()
                    .into_iter()
                    .all(|k| self.cache.access(k));
                if all_cached {
                    let st = self.inflight.get_mut(&req_id).unwrap();
                    st.cursor += len;
                    st.cached_bytes += len;
                    ctx.wake_in(
                        SimTime::from_secs_f64(self.cache_hit_s),
                        Ev::Fs(FsMsg::UnitDone { req: req_id }),
                    );
                } else {
                    let st = self.inflight.get_mut(&req_id).unwrap();
                    st.cursor += len;
                    st.last_unit = (abs, len);
                    ctx.send(
                        self.disk,
                        Ev::Disk(DiskReq {
                            op: DiskOp::Read,
                            pos: file_pos(file, abs),
                            len,
                            reply_to: ctx.self_id(),
                            tag: req_id,
                        }),
                    );
                }
            }
            Kind::WriteSync => {
                let st = self.inflight.get_mut(&req_id).unwrap();
                st.cursor += len;
                ctx.send(
                    self.disk,
                    Ev::Disk(DiskReq {
                        op: DiskOp::Write,
                        pos: file_pos(file, abs),
                        len,
                        reply_to: ctx.self_id(),
                        tag: req_id,
                    }),
                );
            }
            Kind::WriteBuffered => {
                let st = self.inflight.get_mut(&req_id).unwrap();
                st.cursor += len;
                ctx.wake_in(
                    SimTime::from_secs_f64(self.cache_hit_s),
                    Ev::Fs(FsMsg::UnitDone { req: req_id }),
                );
            }
        }
    }

    fn fill_cache(&mut self, file: u64, abs: u64, len: u64) {
        let keys: Vec<BlockKey> = self.cache.blocks_of(file, abs, len).collect();
        for k in keys {
            self.cache.insert(k);
        }
    }
}

impl Component<Ev> for LocalFs {
    fn on_event(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
        match ev {
            Ev::Fs(FsMsg::Read {
                file,
                offset,
                len,
                mmap,
                unit,
                reply_to,
                tag,
            }) => {
                let id = self.next_req;
                self.next_req += 1;
                self.inflight.insert(
                    id,
                    InFlight {
                        kind: if mmap { Kind::MmapRead } else { Kind::Read },
                        file,
                        offset,
                        len,
                        unit,
                        cursor: 0,
                        last_unit: (0, 0),
                        cached_bytes: 0,
                        reply_to,
                        tag,
                        started: ctx.now(),
                    },
                );
                self.step(ctx, id);
            }
            Ev::Fs(FsMsg::Write {
                file,
                offset,
                len,
                sync,
                reply_to,
                tag,
            }) => {
                let id = self.next_req;
                self.next_req += 1;
                self.inflight.insert(
                    id,
                    InFlight {
                        kind: if sync {
                            Kind::WriteSync
                        } else {
                            Kind::WriteBuffered
                        },
                        file,
                        offset,
                        len,
                        unit: 0,
                        cursor: 0,
                        last_unit: (0, 0),
                        cached_bytes: 0,
                        reply_to,
                        tag,
                        started: ctx.now(),
                    },
                );
                self.fill_cache(file, offset, len);
                self.step(ctx, id);
            }
            Ev::Fs(FsMsg::Truncate { file }) => {
                self.cache.invalidate_file(file);
            }
            Ev::Fs(FsMsg::UnitDone { req }) => {
                self.step(ctx, req);
            }
            Ev::DiskDone(done) => {
                // The unit just read enters the page cache; memory-mapped
                // readers pay the per-fault overhead before continuing.
                let mut fault = 0.0;
                if let Some(st) = self.inflight.get(&done.tag) {
                    let info = matches!(st.kind, Kind::Read | Kind::MmapRead)
                        .then(|| (st.file, st.last_unit));
                    fault = match st.kind {
                        Kind::MmapRead => self.mmap_fault_s,
                        Kind::Read => self.read_gap_s,
                        _ => 0.0,
                    };
                    if let Some((file, (abs, len))) = info {
                        self.fill_cache(file, abs, len);
                    }
                }
                if fault > 0.0 {
                    ctx.wake_in(
                        SimTime::from_secs_f64(fault),
                        Ev::Fs(FsMsg::UnitDone { req: done.tag }),
                    );
                } else {
                    self.step(ctx, done.tag);
                }
            }
            _ => debug_assert!(false, "localfs received unexpected event"),
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::Disk;
    use crate::params::{DiskParams, HwParams, KIB, MIB};
    use parblast_simcore::Engine;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Sink {
        done: Rc<RefCell<Vec<(SimTime, FsDone)>>>,
    }
    impl Component<Ev> for Sink {
        fn on_event(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
            if let Ev::FsDone(d) = ev {
                self.done.borrow_mut().push((ctx.now(), d));
            }
        }
    }

    #[allow(clippy::type_complexity)]
    fn harness() -> (
        Engine<Ev>,
        CompId,
        CompId,
        CompId,
        Rc<RefCell<Vec<(SimTime, FsDone)>>>,
    ) {
        let p = HwParams::default();
        let mut eng: Engine<Ev> = Engine::new(1);
        let disk = eng.add(Disk::new("d0", DiskParams::default()));
        let fs = eng.add(LocalFs::new("fs0", disk, &p.node));
        let done = Rc::new(RefCell::new(vec![]));
        let sink = eng.add(Sink { done: done.clone() });
        (eng, disk, fs, sink, done)
    }

    #[test]
    fn cold_read_goes_to_disk_then_cache_hits() {
        let (mut eng, disk, fs, sink, done) = harness();
        eng.schedule(
            SimTime::ZERO,
            fs,
            Ev::Fs(FsMsg::Read {
                file: 1,
                offset: 0,
                len: 4 * MIB,
                mmap: false,
                unit: 0,
                reply_to: sink,
                tag: 1,
            }),
        );
        eng.run();
        let cold = done.borrow()[0].1.latency;
        assert_eq!(done.borrow()[0].1.cached_bytes, 0);
        // Same read again: now fully cached, orders of magnitude faster.
        let start = eng.now();
        eng.schedule(
            start,
            fs,
            Ev::Fs(FsMsg::Read {
                file: 1,
                offset: 0,
                len: 4 * MIB,
                mmap: false,
                unit: 0,
                reply_to: sink,
                tag: 2,
            }),
        );
        eng.run();
        let warm = done.borrow()[1].1.latency;
        assert_eq!(done.borrow()[1].1.cached_bytes, 4 * MIB);
        assert!(warm.as_secs_f64() < cold.as_secs_f64() / 20.0);
        let d = eng.component::<Disk>(disk);
        assert_eq!(d.bytes().0, 4 * MIB); // disk touched only once
    }

    #[test]
    fn cold_read_rate_near_media_rate() {
        let (mut eng, _disk, fs, sink, done) = harness();
        let len = 16 * MIB;
        eng.schedule(
            SimTime::ZERO,
            fs,
            Ev::Fs(FsMsg::Read {
                file: 1,
                offset: 0,
                len,
                mmap: false,
                unit: 0,
                reply_to: sink,
                tag: 1,
            }),
        );
        eng.run();
        let t = done.borrow()[0].1.latency.as_secs_f64();
        let bw = len as f64 / MIB as f64 / t;
        assert!((bw - 26.0).abs() / 26.0 < 0.1, "bw = {bw} MiB/s");
    }

    #[test]
    fn sync_write_touches_disk() {
        let (mut eng, disk, fs, sink, done) = harness();
        eng.schedule(
            SimTime::ZERO,
            fs,
            Ev::Fs(FsMsg::Write {
                file: 2,
                offset: 0,
                len: MIB,
                sync: true,
                reply_to: sink,
                tag: 1,
            }),
        );
        eng.run();
        assert_eq!(eng.component::<Disk>(disk).bytes().1, MIB);
        let lat = done.borrow()[0].1.latency.as_secs_f64();
        // ≈ seek + rot + 1 MiB / 32 MB/s ≈ 44 ms.
        assert!(lat > 0.03 && lat < 0.06, "lat = {lat}");
    }

    #[test]
    fn buffered_write_is_memory_speed() {
        let (mut eng, disk, fs, sink, done) = harness();
        eng.schedule(
            SimTime::ZERO,
            fs,
            Ev::Fs(FsMsg::Write {
                file: 2,
                offset: 0,
                len: 700, // paper: mean write is 690 B
                sync: false,
                reply_to: sink,
                tag: 1,
            }),
        );
        eng.run();
        assert_eq!(eng.component::<Disk>(disk).bytes().1, 0);
        let lat = done.borrow()[0].1.latency.as_secs_f64();
        assert!(lat < 1e-3, "lat = {lat}");
    }

    #[test]
    fn truncate_invalidates_cache() {
        let (mut eng, _disk, fs, sink, done) = harness();
        eng.schedule(
            SimTime::ZERO,
            fs,
            Ev::Fs(FsMsg::Read {
                file: 1,
                offset: 0,
                len: MIB,
                mmap: false,
                unit: 0,
                reply_to: sink,
                tag: 1,
            }),
        );
        eng.run();
        let t1 = eng.now();
        eng.schedule(t1, fs, Ev::Fs(FsMsg::Truncate { file: 1 }));
        eng.schedule(
            t1,
            fs,
            Ev::Fs(FsMsg::Read {
                file: 1,
                offset: 0,
                len: MIB,
                mmap: false,
                unit: 0,
                reply_to: sink,
                tag: 2,
            }),
        );
        eng.run();
        assert_eq!(done.borrow()[1].1.cached_bytes, 0);
    }

    #[test]
    fn zero_length_read_completes() {
        let (mut eng, _disk, fs, sink, done) = harness();
        eng.schedule(
            SimTime::ZERO,
            fs,
            Ev::Fs(FsMsg::Read {
                file: 1,
                offset: 5,
                len: 0,
                mmap: false,
                unit: 0,
                reply_to: sink,
                tag: 1,
            }),
        );
        eng.run();
        assert_eq!(done.borrow().len(), 1);
    }

    #[test]
    fn unaligned_read_works() {
        let (mut eng, _disk, fs, sink, done) = harness();
        eng.schedule(
            SimTime::ZERO,
            fs,
            Ev::Fs(FsMsg::Read {
                file: 1,
                offset: 100 * KIB + 17,
                len: 300 * KIB + 5,
                mmap: false,
                unit: 0,
                reply_to: sink,
                tag: 1,
            }),
        );
        eng.run();
        assert_eq!(done.borrow().len(), 1);
    }
}
