//! Deterministic fault injection.
//!
//! A [`FaultSchedule`] is a declarative list of `(time, fault)` pairs built
//! up-front; a [`FaultInjector`] component replays it inside the engine's
//! event queue. Because every fault is applied by an ordinary event at a
//! precise simulation time, two runs with the same schedule and engine seed
//! produce bit-identical traces — there is no out-of-band mutation.
//!
//! Fault classes:
//!
//! * **Server crash/revive** — every component registered for the server is
//!   atomically disabled in the engine (its pending and future events are
//!   dropped, exactly like a powered-off node); revival re-enables them and
//!   sends [`FaultCmd::Reset`] so daemons discard pre-crash state.
//! * **Disk stall/fail/repair** — delivered to the node's [`crate::Disk`]
//!   as [`FaultCmd`]s: a stall freezes the head for a duration, a failure
//!   swallows requests without completions until repaired.
//! * **Network drop/delay** — installs a [`NetFaultRule`] on the
//!   [`crate::Network`], matching messages by `(src, dst)` until a
//!   deadline.

use std::collections::HashMap;

use parblast_simcore::{CompId, Component, Ctx, Engine, SimTime};

use crate::event::{Ev, FaultCmd, NetFaultMode, NetFaultRule};

/// One injectable fault.
#[derive(Debug, Clone)]
pub enum Fault {
    /// Disable every component registered for `server` (see
    /// [`FaultInjector::register_server`]).
    ServerCrash {
        /// Server identifier used at registration.
        server: usize,
    },
    /// Re-enable `server`'s components and send each a [`FaultCmd::Reset`].
    ServerRevive {
        /// Server identifier used at registration.
        server: usize,
    },
    /// Freeze `node`'s disk head for `for_`.
    DiskStall {
        /// Node whose disk stalls.
        node: u32,
        /// Stall duration.
        for_: SimTime,
    },
    /// Hard-fail `node`'s disk: requests vanish until repaired.
    DiskFail {
        /// Node whose disk fails.
        node: u32,
    },
    /// Repair `node`'s disk.
    DiskRepair {
        /// Node whose disk recovers.
        node: u32,
    },
    /// Drop every matching `src → dst` message until `until`.
    NetDrop {
        /// Source filter (`None` = any).
        src: Option<u32>,
        /// Destination filter (`None` = any).
        dst: Option<u32>,
        /// Rule expiry time.
        until: SimTime,
    },
    /// Silently flip bits in one stripe of `file` on `server`'s local disk
    /// (delivered to the server's storage daemon as
    /// [`FaultCmd::CorruptStripe`]). The daemon keeps serving the stripe —
    /// only checksum verification can notice.
    CorruptStripe {
        /// Server identifier used at registration.
        server: usize,
        /// Daemon-local file identifier.
        file: u64,
        /// Stripe index within the daemon's local portion of the file.
        stripe: u64,
    },
    /// Delay every matching `src → dst` message by `delay` until `until`.
    NetDelay {
        /// Source filter (`None` = any).
        src: Option<u32>,
        /// Destination filter (`None` = any).
        dst: Option<u32>,
        /// Extra latency added to matched messages.
        delay: SimTime,
        /// Rule expiry time.
        until: SimTime,
    },
}

/// A fault bound to its injection time.
#[derive(Debug, Clone)]
pub struct FaultEvent {
    /// Simulation time at which the fault fires.
    pub at: SimTime,
    /// What happens.
    pub fault: Fault,
}

/// Declarative, time-ordered fault plan (builder style).
///
/// ```
/// use parblast_hwsim::FaultSchedule;
/// use parblast_simcore::SimTime;
///
/// let plan = FaultSchedule::new()
///     .crash_server(SimTime::from_secs(30), 2)
///     .revive_server(SimTime::from_secs(90), 2)
///     .fail_disk(SimTime::from_secs(10), 5);
/// assert_eq!(plan.events().len(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Empty schedule.
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Append an arbitrary fault event.
    pub fn push(mut self, at: SimTime, fault: Fault) -> Self {
        self.events.push(FaultEvent { at, fault });
        self
    }

    /// Crash `server` at `at`.
    pub fn crash_server(self, at: SimTime, server: usize) -> Self {
        self.push(at, Fault::ServerCrash { server })
    }

    /// Revive `server` at `at`.
    pub fn revive_server(self, at: SimTime, server: usize) -> Self {
        self.push(at, Fault::ServerRevive { server })
    }

    /// Stall `node`'s disk for `for_` starting at `at`.
    pub fn stall_disk(self, at: SimTime, node: u32, for_: SimTime) -> Self {
        self.push(at, Fault::DiskStall { node, for_ })
    }

    /// Hard-fail `node`'s disk at `at`.
    pub fn fail_disk(self, at: SimTime, node: u32) -> Self {
        self.push(at, Fault::DiskFail { node })
    }

    /// Repair `node`'s disk at `at`.
    pub fn repair_disk(self, at: SimTime, node: u32) -> Self {
        self.push(at, Fault::DiskRepair { node })
    }

    /// Silently corrupt `stripe` of `file` on `server` at `at`.
    pub fn corrupt_stripe(self, at: SimTime, server: usize, file: u64, stripe: u64) -> Self {
        self.push(
            at,
            Fault::CorruptStripe {
                server,
                file,
                stripe,
            },
        )
    }

    /// Drop `src → dst` messages from `at` until `until`.
    pub fn drop_messages(
        self,
        at: SimTime,
        src: Option<u32>,
        dst: Option<u32>,
        until: SimTime,
    ) -> Self {
        self.push(at, Fault::NetDrop { src, dst, until })
    }

    /// Delay `src → dst` messages by `delay` from `at` until `until`.
    pub fn delay_messages(
        self,
        at: SimTime,
        src: Option<u32>,
        dst: Option<u32>,
        delay: SimTime,
        until: SimTime,
    ) -> Self {
        self.push(
            at,
            Fault::NetDelay {
                src,
                dst,
                delay,
                until,
            },
        )
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// No faults scheduled?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Component that replays a [`FaultSchedule`].
///
/// Build it, register the targets (servers, disks, the network), then
/// [`install`](FaultInjector::install) it into the engine. Targets are
/// registered by the simulation builder, which knows the component ids;
/// the schedule itself stays purely declarative.
pub struct FaultInjector {
    /// Events sorted by time (stable, so same-time faults keep insertion
    /// order).
    schedule: Vec<FaultEvent>,
    next: usize,
    servers: HashMap<usize, Vec<CompId>>,
    disks: HashMap<u32, CompId>,
    net: Option<CompId>,
    name: String,
}

impl FaultInjector {
    /// New injector for `schedule`.
    pub fn new(schedule: FaultSchedule) -> Self {
        let mut events = schedule.events;
        events.sort_by_key(|e| e.at);
        FaultInjector {
            schedule: events,
            next: 0,
            servers: HashMap::new(),
            disks: HashMap::new(),
            net: None,
            name: "fault-injector".into(),
        }
    }

    /// Register the components that make up data server `server` (its iod
    /// or CEFT daemon, load monitor, …). Crashing the server disables all
    /// of them; reviving re-enables and resets them.
    pub fn register_server(&mut self, server: usize, comps: Vec<CompId>) {
        self.servers.entry(server).or_default().extend(comps);
    }

    /// Register `node`'s disk component.
    pub fn register_disk(&mut self, node: u32, disk: CompId) {
        self.disks.insert(node, disk);
    }

    /// Register the network component.
    pub fn register_net(&mut self, net: CompId) {
        self.net = Some(net);
    }

    /// Add the injector to `eng` and arm its first timer. Returns the
    /// injector's component id (useful for inspection after the run).
    pub fn install(self, eng: &mut Engine<Ev>) -> CompId {
        let first = self.schedule.first().map(|e| e.at);
        let id = eng.add(self);
        if let Some(at) = first {
            eng.schedule(at, id, Ev::Timer(0));
        }
        id
    }

    fn apply(&mut self, ctx: &mut Ctx<'_, Ev>, fault: Fault) {
        match fault {
            Fault::ServerCrash { server } => {
                for &comp in self.servers.get(&server).into_iter().flatten() {
                    ctx.set_component_enabled(comp, false);
                }
            }
            Fault::ServerRevive { server } => {
                let comps = self.servers.get(&server).cloned().unwrap_or_default();
                for comp in comps {
                    ctx.set_component_enabled(comp, true);
                    ctx.send(comp, Ev::Fault(FaultCmd::Reset));
                }
            }
            Fault::DiskStall { node, for_ } => {
                if let Some(&disk) = self.disks.get(&node) {
                    ctx.send(disk, Ev::Fault(FaultCmd::DiskStall { for_ }));
                }
            }
            Fault::DiskFail { node } => {
                if let Some(&disk) = self.disks.get(&node) {
                    ctx.send(disk, Ev::Fault(FaultCmd::DiskFail));
                }
            }
            Fault::DiskRepair { node } => {
                if let Some(&disk) = self.disks.get(&node) {
                    ctx.send(disk, Ev::Fault(FaultCmd::DiskRepair));
                }
            }
            Fault::CorruptStripe {
                server,
                file,
                stripe,
            } => {
                // Delivered to every component of the server; non-storage
                // components (load monitors, …) ignore the command.
                for &comp in self.servers.get(&server).into_iter().flatten() {
                    ctx.send(comp, Ev::Fault(FaultCmd::CorruptStripe { file, stripe }));
                }
            }
            Fault::NetDrop { src, dst, until } => {
                if let Some(net) = self.net {
                    ctx.send(
                        net,
                        Ev::Fault(FaultCmd::NetRule(NetFaultRule {
                            src,
                            dst,
                            until,
                            mode: NetFaultMode::Drop,
                        })),
                    );
                }
            }
            Fault::NetDelay {
                src,
                dst,
                delay,
                until,
            } => {
                if let Some(net) = self.net {
                    ctx.send(
                        net,
                        Ev::Fault(FaultCmd::NetRule(NetFaultRule {
                            src,
                            dst,
                            until,
                            mode: NetFaultMode::Delay(delay),
                        })),
                    );
                }
            }
        }
    }
}

impl Component<Ev> for FaultInjector {
    fn on_event(&mut self, ctx: &mut Ctx<'_, Ev>, _ev: Ev) {
        // Apply every fault due now, then re-arm for the next one.
        while self.next < self.schedule.len() && self.schedule[self.next].at <= ctx.now() {
            let fault = self.schedule[self.next].fault.clone();
            self.next += 1;
            self.apply(ctx, fault);
        }
        if let Some(e) = self.schedule.get(self.next) {
            let wait = e.at.saturating_sub(ctx.now());
            ctx.wake_in(wait, Ev::Timer(0));
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

// ---------------------------------------------------------------------------
// Socket-level fault schedules (shared with `net::chaos`)
// ---------------------------------------------------------------------------

/// Which half of a byte stream a [`SocketFault`] applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SocketDir {
    /// The fault fires when the *read* cursor reaches the offset.
    Read,
    /// The fault fires when the *write* cursor reaches the offset.
    Write,
}

/// One injectable stream fault. Mirrors the failure modes a TCP connection
/// actually exhibits: partial transfers, stalls, and hard resets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketFaultKind {
    /// Cap the next transfer in this direction at `cap` bytes (≥ 1 — a
    /// zero-byte read would forge an EOF, which is a different fault).
    ShortOp {
        /// Maximum bytes the next op may move.
        cap: usize,
    },
    /// Sleep `for_ms` milliseconds before the next op in this direction —
    /// a straggler link, or a slowloris peer when injected on writes.
    Stall {
        /// Stall duration, wall milliseconds.
        for_ms: u64,
    },
    /// Hard-close the underlying transport; every later op in *either*
    /// direction fails with `ConnectionReset`.
    Reset,
}

/// A [`SocketFaultKind`] bound to a byte offset in one direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SocketFault {
    /// Direction whose cursor triggers the fault.
    pub dir: SocketDir,
    /// Cursor position (bytes moved so far in `dir`) at or past which the
    /// fault fires.
    pub at_byte: u64,
    /// What happens.
    pub kind: SocketFaultKind,
}

/// Knobs for [`SocketFaultSchedule::seeded`]: per-connection probabilities
/// and ranges from which a deterministic schedule is drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocketChaosProfile {
    /// Probability this connection gets a hard reset.
    pub reset_prob: f64,
    /// Probability this connection gets short reads/writes sprinkled in.
    pub short_prob: f64,
    /// How many short ops to inject when drawn.
    pub shorts: usize,
    /// Probability this connection gets a stall.
    pub stall_prob: f64,
    /// Stall duration, milliseconds.
    pub stall_ms: u64,
    /// Fault byte offsets are drawn uniformly from `[0, window)`.
    pub window: u64,
    /// Independent draw rounds, one per consecutive `window` of bytes:
    /// round `r` places its faults in `[r*window, (r+1)*window)`. With 1
    /// (the default) the probabilities are per-connection; raising it
    /// makes them per-window-of-traffic, which keeps fault pressure on
    /// long-lived pooled connections instead of only testing their first
    /// few frames.
    pub repeats: usize,
}

impl Default for SocketChaosProfile {
    fn default() -> Self {
        SocketChaosProfile {
            reset_prob: 0.0,
            short_prob: 0.0,
            shorts: 4,
            stall_prob: 0.0,
            stall_ms: 1,
            window: 256,
            repeats: 1,
        }
    }
}

impl SocketChaosProfile {
    /// A profile that only injects connection resets.
    pub fn resets(prob: f64, window: u64) -> Self {
        SocketChaosProfile {
            reset_prob: prob,
            window,
            ..Default::default()
        }
    }

    /// A profile that only injects short reads/writes.
    pub fn short_ops(prob: f64, shorts: usize, window: u64) -> Self {
        SocketChaosProfile {
            short_prob: prob,
            shorts,
            window,
            ..Default::default()
        }
    }

    /// A profile that only injects stalls.
    pub fn stalls(prob: f64, stall_ms: u64, window: u64) -> Self {
        SocketChaosProfile {
            stall_prob: prob,
            stall_ms,
            window,
            ..Default::default()
        }
    }

    /// Re-draw the profile once per consecutive `window` of bytes for
    /// `repeats` windows (probabilities become per-window-of-traffic).
    pub fn with_repeats(mut self, repeats: usize) -> Self {
        self.repeats = repeats.max(1);
        self
    }
}

/// Declarative per-connection stream-fault plan, byte-offset ordered within
/// each direction. Built explicitly (builder style, like [`FaultSchedule`])
/// or drawn deterministically from a seed + [`SocketChaosProfile`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SocketFaultSchedule {
    faults: Vec<SocketFault>,
}

impl SocketFaultSchedule {
    /// Empty schedule (a perfectly healthy connection).
    pub fn new() -> Self {
        SocketFaultSchedule::default()
    }

    /// Cap the read that crosses offset `at_byte` to `cap` bytes.
    pub fn short_read(mut self, at_byte: u64, cap: usize) -> Self {
        self.faults.push(SocketFault {
            dir: SocketDir::Read,
            at_byte,
            kind: SocketFaultKind::ShortOp { cap: cap.max(1) },
        });
        self
    }

    /// Cap the write that crosses offset `at_byte` to `cap` bytes.
    pub fn short_write(mut self, at_byte: u64, cap: usize) -> Self {
        self.faults.push(SocketFault {
            dir: SocketDir::Write,
            at_byte,
            kind: SocketFaultKind::ShortOp { cap: cap.max(1) },
        });
        self
    }

    /// Stall the read that crosses offset `at_byte` by `for_ms` ms.
    pub fn stall_read(mut self, at_byte: u64, for_ms: u64) -> Self {
        self.faults.push(SocketFault {
            dir: SocketDir::Read,
            at_byte,
            kind: SocketFaultKind::Stall { for_ms },
        });
        self
    }

    /// Stall the write that crosses offset `at_byte` by `for_ms` ms.
    pub fn stall_write(mut self, at_byte: u64, for_ms: u64) -> Self {
        self.faults.push(SocketFault {
            dir: SocketDir::Write,
            at_byte,
            kind: SocketFaultKind::Stall { for_ms },
        });
        self
    }

    /// Hard-reset the connection once `dir`'s cursor reaches `at_byte`.
    pub fn reset_at(mut self, dir: SocketDir, at_byte: u64) -> Self {
        self.faults.push(SocketFault {
            dir,
            at_byte,
            kind: SocketFaultKind::Reset,
        });
        self
    }

    /// Draw a schedule from `seed` and `profile`. The same `(seed,
    /// profile)` always yields the same schedule — chaos tests replay
    /// byte-identically across runs and machines.
    pub fn seeded(seed: u64, profile: &SocketChaosProfile) -> Self {
        let mut rng = parblast_simcore::SimRng::new(seed);
        let mut s = SocketFaultSchedule::new();
        let window = profile.window.max(1);
        for round in 0..profile.repeats.max(1) as u64 {
            let base = round * window;
            if profile.short_prob > 0.0 && rng.chance(profile.short_prob) {
                for _ in 0..profile.shorts {
                    let at = base + rng.below(window);
                    let cap = 1 + rng.below(4) as usize;
                    s = if rng.chance(0.5) {
                        s.short_read(at, cap)
                    } else {
                        s.short_write(at, cap)
                    };
                }
            }
            if profile.stall_prob > 0.0 && rng.chance(profile.stall_prob) {
                let at = base + rng.below(window);
                s = if rng.chance(0.5) {
                    s.stall_read(at, profile.stall_ms)
                } else {
                    s.stall_write(at, profile.stall_ms)
                };
            }
            if profile.reset_prob > 0.0 && rng.chance(profile.reset_prob) {
                let dir = if rng.chance(0.5) {
                    SocketDir::Read
                } else {
                    SocketDir::Write
                };
                s = s.reset_at(dir, base + rng.below(window));
                // The connection dies here; later rounds can never fire.
                break;
            }
        }
        s
    }

    /// The planned faults, in insertion order.
    pub fn faults(&self) -> &[SocketFault] {
        &self.faults
    }

    /// The faults for one direction, sorted by byte offset (stable — ties
    /// keep insertion order).
    pub fn for_dir(&self, dir: SocketDir) -> Vec<SocketFault> {
        let mut v: Vec<SocketFault> = self
            .faults
            .iter()
            .filter(|f| f.dir == dir)
            .copied()
            .collect();
        v.sort_by_key(|f| f.at_byte);
        v
    }

    /// FNV-1a digest over the schedule contents; equal schedules hash
    /// equal, so determinism tests can pin a seed's plan with one number.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        for f in &self.faults {
            mix(match f.dir {
                SocketDir::Read => 0,
                SocketDir::Write => 1,
            });
            mix(f.at_byte);
            match f.kind {
                SocketFaultKind::ShortOp { cap } => {
                    mix(2);
                    mix(cap as u64);
                }
                SocketFaultKind::Stall { for_ms } => {
                    mix(3);
                    mix(for_ms);
                }
                SocketFaultKind::Reset => mix(4),
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DiskDone, DiskOp, DiskReq, NetSend};
    use crate::params::{DiskParams, NetParams, MIB};
    use crate::{Disk, Network};
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Sink {
        done: Rc<RefCell<Vec<(SimTime, u64)>>>,
    }
    impl Component<Ev> for Sink {
        fn on_event(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
            match ev {
                Ev::DiskDone(DiskDone { tag, .. }) => {
                    self.done.borrow_mut().push((ctx.now(), tag));
                }
                Ev::User(_) => {
                    self.done.borrow_mut().push((ctx.now(), 0));
                }
                _ => {}
            }
        }
    }

    fn disk_req(pos: u64, reply_to: CompId, tag: u64) -> DiskReq {
        DiskReq {
            op: DiskOp::Read,
            pos,
            len: MIB,
            reply_to,
            tag,
        }
    }

    #[test]
    fn failed_disk_swallows_requests_until_repair() {
        let mut eng: Engine<Ev> = Engine::new(0);
        let done = Rc::new(RefCell::new(vec![]));
        let sink = eng.add(Sink { done: done.clone() });
        let disk = eng.add(Disk::new("d0", DiskParams::default()));
        let plan = FaultSchedule::new()
            .fail_disk(SimTime::from_secs(1), 0)
            .repair_disk(SimTime::from_secs(5), 0);
        let mut inj = FaultInjector::new(plan);
        inj.register_disk(0, disk);
        inj.install(&mut eng);
        // One request before the failure (completes), one during (lost),
        // one after repair (completes).
        eng.schedule(SimTime::ZERO, disk, Ev::Disk(disk_req(0, sink, 1)));
        eng.schedule(
            SimTime::from_secs(2),
            disk,
            Ev::Disk(disk_req(1 << 30, sink, 2)),
        );
        eng.schedule(
            SimTime::from_secs(6),
            disk,
            Ev::Disk(disk_req(2 << 30, sink, 3)),
        );
        eng.run();
        let tags: Vec<u64> = done.borrow().iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, vec![1, 3]);
        let d = eng.component::<Disk>(disk);
        assert!(!d.is_failed());
        assert_eq!(d.dropped_requests(), 1);
    }

    #[test]
    fn disk_failure_voids_in_flight_request() {
        let mut eng: Engine<Ev> = Engine::new(0);
        let done = Rc::new(RefCell::new(vec![]));
        let sink = eng.add(Sink { done: done.clone() });
        let disk = eng.add(Disk::new("d0", DiskParams::default()));
        // 64 MiB at 26 MB/s ≈ 2.5 s service; fail at 1 s, mid-service.
        let plan = FaultSchedule::new().fail_disk(SimTime::from_secs(1), 0);
        let mut inj = FaultInjector::new(plan);
        inj.register_disk(0, disk);
        inj.install(&mut eng);
        eng.schedule(
            SimTime::ZERO,
            disk,
            Ev::Disk(DiskReq {
                op: DiskOp::Read,
                pos: 0,
                len: 64 * MIB,
                reply_to: sink,
                tag: 9,
            }),
        );
        eng.run();
        assert!(done.borrow().is_empty(), "voided request must not complete");
        assert_eq!(eng.component::<Disk>(disk).dropped_requests(), 1);
    }

    #[test]
    fn stalled_disk_delays_service() {
        let service = |eng: &mut Engine<Ev>, stall: Option<SimTime>| {
            let done = Rc::new(RefCell::new(vec![]));
            let sink = eng.add(Sink { done: done.clone() });
            let disk = eng.add(Disk::new("d0", DiskParams::default()));
            if let Some(for_) = stall {
                let plan = FaultSchedule::new().stall_disk(SimTime::ZERO, 0, for_);
                let mut inj = FaultInjector::new(plan);
                inj.register_disk(0, disk);
                inj.install(eng);
            }
            eng.schedule(SimTime::ZERO, disk, Ev::Disk(disk_req(0, sink, 1)));
            eng.run();
            let t = done.borrow()[0].0;
            t
        };
        let clean = service(&mut Engine::new(0), None);
        let stalled = service(&mut Engine::new(0), Some(SimTime::from_secs(3)));
        let extra = stalled.saturating_sub(clean).as_secs_f64();
        assert!((extra - 3.0).abs() < 0.01, "stall added {extra} s");
    }

    #[test]
    fn net_rules_drop_and_expire() {
        let mut eng: Engine<Ev> = Engine::new(0);
        let done = Rc::new(RefCell::new(vec![]));
        let sink = eng.add(Sink { done: done.clone() });
        let net = eng.add(Network::new("net", 2, vec![], NetParams::default()));
        let plan =
            FaultSchedule::new().drop_messages(SimTime::ZERO, Some(0), None, SimTime::from_secs(2));
        let mut inj = FaultInjector::new(plan);
        inj.register_net(net);
        inj.install(&mut eng);
        let send = |eng: &mut Engine<Ev>, at: SimTime, src: u32| {
            eng.schedule(
                at,
                net,
                Ev::Net(NetSend {
                    src_node: src,
                    dst_node: 1,
                    bytes: 1024,
                    dst: sink,
                    payload: Box::new(42u32),
                }),
            );
        };
        send(&mut eng, SimTime::from_secs(1), 0); // dropped (rule active)
        send(&mut eng, SimTime::from_secs(1), 1); // delivered (src filter)
        send(&mut eng, SimTime::from_secs(3), 0); // delivered (rule expired)
        eng.run();
        assert_eq!(done.borrow().len(), 2);
        assert_eq!(eng.component::<Network>(net).dropped(), 1);
    }

    #[test]
    fn net_delay_slows_matched_messages() {
        let mut eng: Engine<Ev> = Engine::new(0);
        let done = Rc::new(RefCell::new(vec![]));
        let sink = eng.add(Sink { done: done.clone() });
        let net = eng.add(Network::new("net", 2, vec![], NetParams::default()));
        let plan = FaultSchedule::new().delay_messages(
            SimTime::ZERO,
            None,
            Some(1),
            SimTime::from_secs(2),
            SimTime::from_secs(100),
        );
        let mut inj = FaultInjector::new(plan);
        inj.register_net(net);
        inj.install(&mut eng);
        eng.schedule(
            SimTime::from_secs(1),
            net,
            Ev::Net(NetSend {
                src_node: 0,
                dst_node: 1,
                bytes: 1024,
                dst: sink,
                payload: Box::new(42u32),
            }),
        );
        eng.run();
        let t = done.borrow()[0].0.as_secs_f64();
        assert!(t > 3.0 && t < 3.1, "delayed delivery at {t}");
        assert_eq!(eng.component::<Network>(net).delayed(), 1);
    }

    #[test]
    fn crash_disables_and_revive_resets() {
        struct Echo {
            got: Rc<RefCell<Vec<SimTime>>>,
            resets: Rc<RefCell<u32>>,
        }
        impl Component<Ev> for Echo {
            fn on_event(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
                match ev {
                    Ev::Fault(FaultCmd::Reset) => *self.resets.borrow_mut() += 1,
                    _ => self.got.borrow_mut().push(ctx.now()),
                }
            }
        }
        let mut eng: Engine<Ev> = Engine::new(0);
        let got = Rc::new(RefCell::new(vec![]));
        let resets = Rc::new(RefCell::new(0));
        let echo = eng.add(Echo {
            got: got.clone(),
            resets: resets.clone(),
        });
        let plan = FaultSchedule::new()
            .crash_server(SimTime::from_secs(1), 7)
            .revive_server(SimTime::from_secs(3), 7);
        let mut inj = FaultInjector::new(plan);
        inj.register_server(7, vec![echo]);
        inj.install(&mut eng);
        for s in [0u64, 2, 4] {
            eng.schedule(SimTime::from_secs(s), echo, Ev::Timer(s));
        }
        eng.run();
        // t=2 lands in the crash window and is dropped by the engine.
        let times: Vec<u64> = got
            .borrow()
            .iter()
            .map(|t| t.as_nanos() / 1_000_000_000)
            .collect();
        assert_eq!(times, vec![0, 4]);
        assert_eq!(*resets.borrow(), 1);
        assert_eq!(eng.events_dropped(), 1);
    }

    #[test]
    fn socket_schedule_builder_sorts_per_direction() {
        let s = SocketFaultSchedule::new()
            .short_read(100, 2)
            .short_read(10, 1)
            .stall_write(50, 5)
            .reset_at(SocketDir::Write, 20);
        assert_eq!(s.faults().len(), 4);
        let reads = s.for_dir(SocketDir::Read);
        assert_eq!(
            reads.iter().map(|f| f.at_byte).collect::<Vec<_>>(),
            vec![10, 100]
        );
        let writes = s.for_dir(SocketDir::Write);
        assert_eq!(
            writes.iter().map(|f| f.at_byte).collect::<Vec<_>>(),
            vec![20, 50]
        );
    }

    #[test]
    fn socket_schedule_repeats_draw_per_window() {
        let p = SocketChaosProfile::short_ops(1.0, 2, 100).with_repeats(3);
        let s = SocketFaultSchedule::seeded(9, &p);
        // Two shorts per round, three rounds, each inside its own window.
        assert_eq!(s.faults().len(), 6);
        for (i, f) in s.faults().iter().enumerate() {
            let round = (i / 2) as u64;
            assert!(
                f.at_byte >= round * 100 && f.at_byte < (round + 1) * 100,
                "fault {i} at {} escaped round {round}'s window",
                f.at_byte
            );
        }
        // A reset kills the connection, so no later round ever draws.
        let p = SocketChaosProfile::resets(1.0, 100).with_repeats(5);
        let s = SocketFaultSchedule::seeded(9, &p);
        assert_eq!(s.faults().len(), 1);
        assert!(s.faults()[0].at_byte < 100);
    }

    #[test]
    fn socket_schedule_seeded_is_deterministic() {
        let p = SocketChaosProfile {
            reset_prob: 0.7,
            short_prob: 0.7,
            shorts: 3,
            stall_prob: 0.7,
            stall_ms: 2,
            window: 512,
            repeats: 1,
        };
        for seed in [0u64, 42, 1003, u64::MAX] {
            let a = SocketFaultSchedule::seeded(seed, &p);
            let b = SocketFaultSchedule::seeded(seed, &p);
            assert_eq!(a, b);
            assert_eq!(a.digest(), b.digest());
        }
        // Different seeds should (at these probabilities) disagree for at
        // least one of a handful of draws.
        let base = SocketFaultSchedule::seeded(1, &p).digest();
        assert!(
            (2..20).any(|s| SocketFaultSchedule::seeded(s, &p).digest() != base),
            "every seed produced the same schedule"
        );
    }

    #[test]
    fn socket_schedule_zero_prob_is_empty() {
        let p = SocketChaosProfile::default();
        assert_eq!(
            SocketFaultSchedule::seeded(9, &p),
            SocketFaultSchedule::new()
        );
    }

    #[test]
    fn socket_short_cap_is_clamped_to_one() {
        let s = SocketFaultSchedule::new().short_read(0, 0);
        match s.faults()[0].kind {
            SocketFaultKind::ShortOp { cap } => assert_eq!(cap, 1),
            other => panic!("unexpected {other:?}"),
        }
    }
}
