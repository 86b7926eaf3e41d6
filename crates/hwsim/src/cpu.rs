//! Node CPU model: generalized processor sharing over the node's CPUs.
//!
//! Jobs (`CpuMsg::Run`) represent application compute — one BLAST chunk
//! scan, TCP stack work, etc. A job uses at most one CPU; with more jobs
//! than CPUs everybody slows down proportionally, which is how resource
//! contention between the file-system server role and the worker role of a
//! shared node manifests (§4.5 of the paper).

use std::collections::HashMap;

use parblast_simcore::{CompId, Component, Ctx, PsJobId, PsResource, SimTime};

use crate::event::{CpuDone, CpuMsg, Ev};

/// Simulated node CPU set.
pub struct Cpu {
    ps: PsResource,
    pending: HashMap<PsJobId, (CompId, u64)>,
    generation: u64,
    injected: f64,
    name: String,
}

impl Cpu {
    /// New CPU resource with `cpus` processors.
    pub fn new(name: impl Into<String>, cpus: f64) -> Self {
        Cpu {
            ps: PsResource::new(SimTime::ZERO, cpus),
            pending: HashMap::new(),
            generation: 0,
            injected: 0.0,
            name: name.into(),
        }
    }

    fn reschedule(&mut self, ctx: &mut Ctx<'_, Ev>) {
        self.generation += 1;
        if let Some(at) = self.ps.next_completion(ctx.now()) {
            let generation = self.generation;
            // Never schedule a wake at the current instant: rounding can
            // make next_completion() == now while advance() needs a strictly
            // positive step to retire the job.
            let at = at.max(ctx.now().saturating_add(SimTime::from_nanos(1)));
            ctx.schedule_at(at, ctx.self_id(), Ev::Cpu(CpuMsg::Wake { generation }));
        }
    }

    fn drain(&mut self, ctx: &mut Ctx<'_, Ev>) {
        for id in self.ps.advance(ctx.now()) {
            if let Some((reply_to, tag)) = self.pending.remove(&id) {
                ctx.send(reply_to, Ev::CpuDone(CpuDone { tag }));
            }
        }
    }

    /// Jobs currently running (including injected background work).
    pub fn active(&self) -> usize {
        self.ps.active()
    }

    /// Time-averaged load (jobs) since start.
    pub fn average_load(&self, now: SimTime) -> f64 {
        self.ps.average_load(now)
    }

    /// Total background CPU-seconds injected (e.g. TCP processing).
    pub fn injected_work(&self) -> f64 {
        self.injected
    }
}

impl Component<Ev> for Cpu {
    fn on_event(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
        let Ev::Cpu(msg) = ev else {
            debug_assert!(false, "cpu received non-cpu event");
            return;
        };
        match msg {
            CpuMsg::Run {
                work,
                reply_to,
                tag,
            } => {
                self.drain(ctx);
                if work <= 0.0 {
                    ctx.send(reply_to, Ev::CpuDone(CpuDone { tag }));
                } else {
                    let id = self.ps.add(ctx.now(), work);
                    self.pending.insert(id, (reply_to, tag));
                }
                self.reschedule(ctx);
            }
            CpuMsg::Inject { work } => {
                if work > 0.0 {
                    self.drain(ctx);
                    let id = self.ps.add(ctx.now(), work);
                    // Background work: completion is tracked but unreported.
                    self.pending.insert(id, (CompId::NONE, 0));
                    self.injected += work;
                    self.reschedule(ctx);
                }
            }
            CpuMsg::Wake { generation } => {
                if generation != self.generation {
                    return; // stale wake-up
                }
                self.drain(ctx);
                self.reschedule(ctx);
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parblast_simcore::Engine;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Sink {
        done: Rc<RefCell<Vec<(SimTime, u64)>>>,
    }
    impl Component<Ev> for Sink {
        fn on_event(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
            if let Ev::CpuDone(CpuDone { tag }) = ev {
                self.done.borrow_mut().push((ctx.now(), tag));
            }
        }
    }

    #[test]
    fn single_job_takes_its_work_time() {
        let mut eng: Engine<Ev> = Engine::new(0);
        let cpu = eng.add(Cpu::new("cpu0", 2.0));
        let done = Rc::new(RefCell::new(vec![]));
        let sink = eng.add(Sink { done: done.clone() });
        eng.schedule(
            SimTime::ZERO,
            cpu,
            Ev::Cpu(CpuMsg::Run {
                work: 5.0,
                reply_to: sink,
                tag: 7,
            }),
        );
        eng.run();
        let v = done.borrow();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1, 7);
        assert!((v[0].0.as_secs_f64() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn two_jobs_fit_two_cpus_without_slowdown() {
        let mut eng: Engine<Ev> = Engine::new(0);
        let cpu = eng.add(Cpu::new("cpu0", 2.0));
        let done = Rc::new(RefCell::new(vec![]));
        let sink = eng.add(Sink { done: done.clone() });
        for tag in 0..2 {
            eng.schedule(
                SimTime::ZERO,
                cpu,
                Ev::Cpu(CpuMsg::Run {
                    work: 3.0,
                    reply_to: sink,
                    tag,
                }),
            );
        }
        eng.run();
        for &(t, _) in done.borrow().iter() {
            assert!((t.as_secs_f64() - 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn four_jobs_on_two_cpus_halve_speed() {
        let mut eng: Engine<Ev> = Engine::new(0);
        let cpu = eng.add(Cpu::new("cpu0", 2.0));
        let done = Rc::new(RefCell::new(vec![]));
        let sink = eng.add(Sink { done: done.clone() });
        for tag in 0..4 {
            eng.schedule(
                SimTime::ZERO,
                cpu,
                Ev::Cpu(CpuMsg::Run {
                    work: 3.0,
                    reply_to: sink,
                    tag,
                }),
            );
        }
        eng.run();
        for &(t, _) in done.borrow().iter() {
            assert!((t.as_secs_f64() - 6.0).abs() < 1e-6, "t={t}");
        }
    }

    #[test]
    fn injected_work_slows_foreground_job() {
        let mut eng: Engine<Ev> = Engine::new(0);
        let cpu = eng.add(Cpu::new("cpu0", 1.0));
        let done = Rc::new(RefCell::new(vec![]));
        let sink = eng.add(Sink { done: done.clone() });
        eng.schedule(SimTime::ZERO, cpu, Ev::Cpu(CpuMsg::Inject { work: 2.0 }));
        eng.schedule(
            SimTime::ZERO,
            cpu,
            Ev::Cpu(CpuMsg::Run {
                work: 2.0,
                reply_to: sink,
                tag: 1,
            }),
        );
        eng.run();
        // Both share one CPU at rate 1/2 → foreground finishes at t = 4.
        let v = done.borrow();
        assert!((v[0].0.as_secs_f64() - 4.0).abs() < 1e-6, "t={}", v[0].0);
    }

    #[test]
    fn zero_work_completes_immediately() {
        let mut eng: Engine<Ev> = Engine::new(0);
        let cpu = eng.add(Cpu::new("cpu0", 2.0));
        let done = Rc::new(RefCell::new(vec![]));
        let sink = eng.add(Sink { done: done.clone() });
        eng.schedule(
            SimTime::from_secs(1),
            cpu,
            Ev::Cpu(CpuMsg::Run {
                work: 0.0,
                reply_to: sink,
                tag: 9,
            }),
        );
        eng.run();
        let v = done.borrow();
        assert_eq!(v[0], (SimTime::from_secs(1), 9));
    }
}
