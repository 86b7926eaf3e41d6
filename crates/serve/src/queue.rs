//! Admission control: a bounded, priority-aware FIFO of pending queries.
//!
//! The queue is the service's backpressure point. Capacity is fixed at
//! construction; offering a query to a full queue is rejected immediately
//! (the client sees the refusal instead of unbounded latency). Queries
//! carry an optional absolute deadline — a query still waiting when its
//! deadline passes is dropped at batch-formation time rather than wasting
//! a slot in a scan.
//!
//! Scheduling discipline: strict priority across the three classes,
//! first-come-first-served within a class. Starvation across classes is
//! the operator's choice (interactive traffic pre-empting bulk is the
//! point); within a class the FIFO order is a hard invariant, enforced by
//! proptests in `tests/properties.rs`.

use std::collections::VecDeque;

use parblast_simcore::SimTime;

/// Scheduling class of a query. Lower value = served first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive traffic (a user waiting at a browser).
    Interactive = 0,
    /// The default class.
    #[default]
    Normal = 1,
    /// Throughput-oriented background work (batch re-annotation jobs).
    Bulk = 2,
}

impl Priority {
    /// All classes, highest priority first.
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Normal, Priority::Bulk];
}

/// One admitted unit of work: an opaque query plus its serving metadata.
/// `payload` indexes the caller's query storage (the sim path never
/// dereferences it; the real path uses it to find the query bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    /// Caller-assigned identifier (unique per workload).
    pub id: u64,
    /// Scheduling class.
    pub priority: Priority,
    /// When the query arrived at the service.
    pub arrival: SimTime,
    /// Absolute drop-dead time; `None` waits forever.
    pub deadline: Option<SimTime>,
    /// Index into the caller's query set.
    pub payload: usize,
}

impl Query {
    /// A `Normal`-priority query with no deadline.
    pub fn new(id: u64, arrival: SimTime) -> Self {
        Query {
            id,
            priority: Priority::Normal,
            arrival,
            deadline: None,
            payload: 0,
        }
    }
}

/// Why a query was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The queue is at capacity; the client should back off and retry.
    QueueFull {
        /// The configured capacity it hit.
        capacity: usize,
    },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
        }
    }
}

impl std::error::Error for AdmitError {}

/// Bounded multi-class admission queue.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    capacity: usize,
    lanes: [VecDeque<Query>; 3],
    admitted: u64,
    rejected: u64,
    expired: u64,
}

impl AdmissionQueue {
    /// Empty queue holding at most `capacity` queries.
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            capacity: capacity.max(1),
            lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            admitted: 0,
            rejected: 0,
            expired: 0,
        }
    }

    /// Queries currently waiting.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(VecDeque::is_empty)
    }

    /// Total queries admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Total queries refused for lack of space (backpressure).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Total queries dropped because their deadline passed while queued.
    pub fn expired(&self) -> u64 {
        self.expired
    }

    /// Offer a query for admission. Full queue → `Err(QueueFull)` and the
    /// rejection counter ticks.
    pub fn offer(&mut self, q: Query) -> Result<(), AdmitError> {
        if self.len() >= self.capacity {
            self.rejected += 1;
            return Err(AdmitError::QueueFull {
                capacity: self.capacity,
            });
        }
        self.admitted += 1;
        self.lanes[q.priority as usize].push_back(q);
        Ok(())
    }

    /// Take the next scan-sharing batch: up to `max` queries, strict
    /// priority across classes, FIFO within a class. Queries whose
    /// deadline is `< now` are dropped (counted in [`Self::expired`]) and
    /// never occupy a batch slot.
    pub fn take_batch(&mut self, max: usize, now: SimTime) -> Vec<Query> {
        self.take_batch_with_expired(max, now).0
    }

    /// [`Self::take_batch`], but also returns the queries it dropped on an
    /// expired deadline. A networked server must answer *every* accepted
    /// query, so it needs the expired ones back to send each a typed
    /// response instead of silently losing them.
    pub fn take_batch_with_expired(
        &mut self,
        max: usize,
        now: SimTime,
    ) -> (Vec<Query>, Vec<Query>) {
        let mut batch = Vec::new();
        let mut dropped = Vec::new();
        for lane in &mut self.lanes {
            while batch.len() < max {
                match lane.pop_front() {
                    None => break,
                    Some(q) => match q.deadline {
                        Some(d) if d < now => {
                            self.expired += 1;
                            dropped.push(q);
                        }
                        _ => batch.push(q),
                    },
                }
            }
            if batch.len() >= max {
                break;
            }
        }
        (batch, dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(id: u64, prio: Priority) -> Query {
        Query {
            id,
            priority: prio,
            arrival: SimTime::ZERO,
            deadline: None,
            payload: 0,
        }
    }

    #[test]
    fn backpressure_rejects_beyond_capacity() {
        let mut aq = AdmissionQueue::new(2);
        assert!(aq.offer(q(1, Priority::Normal)).is_ok());
        assert!(aq.offer(q(2, Priority::Normal)).is_ok());
        assert_eq!(
            aq.offer(q(3, Priority::Normal)),
            Err(AdmitError::QueueFull { capacity: 2 })
        );
        assert_eq!(aq.admitted(), 2);
        assert_eq!(aq.rejected(), 1);
        // Draining frees space again.
        assert_eq!(aq.take_batch(2, SimTime::ZERO).len(), 2);
        assert!(aq.offer(q(3, Priority::Normal)).is_ok());
    }

    #[test]
    fn strict_priority_then_fifo() {
        let mut aq = AdmissionQueue::new(16);
        aq.offer(q(1, Priority::Bulk)).unwrap();
        aq.offer(q(2, Priority::Normal)).unwrap();
        aq.offer(q(3, Priority::Interactive)).unwrap();
        aq.offer(q(4, Priority::Normal)).unwrap();
        let ids: Vec<u64> = aq
            .take_batch(4, SimTime::ZERO)
            .iter()
            .map(|x| x.id)
            .collect();
        assert_eq!(ids, vec![3, 2, 4, 1]);
    }

    #[test]
    fn expired_queries_never_reach_a_batch() {
        let mut aq = AdmissionQueue::new(16);
        let mut early = q(1, Priority::Normal);
        early.deadline = Some(SimTime::from_secs(5));
        aq.offer(early).unwrap();
        aq.offer(q(2, Priority::Normal)).unwrap();
        let batch = aq.take_batch(4, SimTime::from_secs(10));
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].id, 2);
        assert_eq!(aq.expired(), 1);
    }

    #[test]
    fn expired_queries_are_returned_for_response() {
        let mut aq = AdmissionQueue::new(16);
        let mut early = q(1, Priority::Normal);
        early.deadline = Some(SimTime::from_secs(5));
        aq.offer(early).unwrap();
        aq.offer(q(2, Priority::Normal)).unwrap();
        let (batch, dropped) = aq.take_batch_with_expired(4, SimTime::from_secs(10));
        assert_eq!(batch.len(), 1);
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].id, 1);
        assert_eq!(aq.expired(), 1);
    }

    #[test]
    fn batch_respects_max() {
        let mut aq = AdmissionQueue::new(64);
        for i in 0..10 {
            aq.offer(q(i, Priority::Normal)).unwrap();
        }
        assert_eq!(aq.take_batch(4, SimTime::ZERO).len(), 4);
        assert_eq!(aq.len(), 6);
    }
}
