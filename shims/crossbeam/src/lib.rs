//! Workspace-local stand-in for `crossbeam`.
//!
//! Provides the subset the workspace uses: [`channel::unbounded`] MPMC
//! channels with crossbeam's semantics — cloneable senders and receivers,
//! `send` failing once every receiver is gone, `recv` failing once every
//! sender is gone and the queue has drained, and receiver iteration.

#![warn(missing_docs)]

/// Multi-producer multi-consumer FIFO channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    struct Inner<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone;
    /// carries the unsent message.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    /// Sending half of an unbounded channel.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// Receiving half of an unbounded channel.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Create an unbounded FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    impl<T> Sender<T> {
        /// Enqueue `value`; fails only when every receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.inner.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(value));
            }
            self.inner
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push_back(value);
            self.inner.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.inner.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender: wake blocked receivers so they observe the
                // disconnect. The queue lock is taken first because a
                // receiver checks `senders` while holding it and only
                // gives it up by parking on `ready`: once the lock is
                // ours, every receiver has either parked (and is woken
                // now) or will re-check and see zero. Notifying without
                // it could fall between a receiver's check and its park,
                // and that receiver would then wait for ever.
                let _queue = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
                self.inner.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Dequeue the next value, blocking while the channel is empty;
        /// fails once it is empty and every sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.inner.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                q = self.inner.ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Non-blocking iterator-style drain helper.
        pub fn try_recv(&self) -> Option<T> {
            self.inner
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_front()
        }

        /// Messages currently queued.
        pub fn len(&self) -> usize {
            self.inner
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .len()
        }

        /// Is the queue currently empty?
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Blocking iterator over received values, ending at disconnect.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.inner.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Borrowing blocking iterator (see [`Receiver::iter`]).
    pub struct Iter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    /// Owning blocking iterator.
    pub struct IntoIter<T> {
        receiver: Receiver<T>,
    }

    impl<T> Iterator for IntoIter<T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;
        fn into_iter(self) -> IntoIter<T> {
            IntoIter { receiver: self }
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel;

    #[test]
    fn fifo_and_disconnect() {
        let (tx, rx) = channel::unbounded::<u32>();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        let got: Vec<u32> = rx.into_iter().collect();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn send_fails_without_receivers() {
        let (tx, rx) = channel::unbounded::<u32>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn multi_consumer_drains_everything() {
        let (tx, rx) = channel::unbounded::<u64>();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut handles = vec![];
        for _ in 0..4 {
            let rx = rx.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = 0u64;
                while rx.recv().is_ok() {
                    got += 1;
                }
                got
            }));
        }
        drop(rx);
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let (tx, rx) = channel::unbounded::<&'static str>();
        let h = std::thread::spawn(move || rx.recv().unwrap());
        std::thread::sleep(std::time::Duration::from_millis(20));
        tx.send("hello").unwrap();
        assert_eq!(h.join().unwrap(), "hello");
    }

    /// `Sender::drop` once notified without the queue lock: a receiver
    /// that had just seen one sender left and not yet parked missed the
    /// wake-up and hung (about once in a million rounds of this shape,
    /// which is how `ParallelBlast::run_batch` ends every batch). Two
    /// threads each send one message and drop their sender while the
    /// receiver iterates to the disconnect.
    #[test]
    fn last_sender_drop_never_loses_the_wakeup() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::{mpsc, Arc};
        use std::time::Duration;

        const ROUNDS: u64 = 2_000_000;
        // Channels are handed out a batch at a time, so a round costs the
        // sends, drops and receives under test and nothing else.
        const BATCH: u64 = 500;
        let done = Arc::new(AtomicU64::new(0));
        let (finished_tx, finished_rx) = mpsc::channel::<()>();
        let progress = Arc::clone(&done);
        std::thread::spawn(move || {
            let hands: Vec<mpsc::Sender<Vec<channel::Sender<u64>>>> = (0..2)
                .map(|_| {
                    let (hand_tx, hand_rx) = mpsc::channel::<Vec<channel::Sender<u64>>>();
                    std::thread::spawn(move || {
                        for tx in hand_rx.into_iter().flatten() {
                            tx.send(1).expect("receiver alive");
                        }
                    });
                    hand_tx
                })
                .collect();
            for _ in 0..ROUNDS / BATCH {
                let (first, (second, receivers)): (Vec<_>, (Vec<_>, Vec<_>)) = (0..BATCH)
                    .map(|_| {
                        let (tx, rx) = channel::unbounded::<u64>();
                        (tx.clone(), (tx, rx))
                    })
                    .unzip();
                hands[0].send(first).expect("sender thread alive");
                hands[1].send(second).expect("sender thread alive");
                for rx in receivers {
                    assert_eq!(rx.into_iter().sum::<u64>(), 2);
                    progress.fetch_add(1, Ordering::Relaxed);
                }
            }
            finished_tx.send(()).expect("test alive");
        });
        // Watchdog: a lost wake-up parks the round for good.
        let mut seen = 0;
        loop {
            match finished_rx.recv_timeout(Duration::from_secs(10)) {
                Ok(()) => break,
                Err(_) => {
                    let now = done.load(Ordering::Relaxed);
                    assert!(now > seen, "receiver hung in round {now} of {ROUNDS}");
                    seen = now;
                }
            }
        }
        assert_eq!(done.load(Ordering::Relaxed), ROUNDS);
    }
}
