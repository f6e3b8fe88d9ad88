//! The bounded ingest queue: explicit backpressure, never blocking the
//! accept path.
//!
//! Producers (connection handlers) use [`BoundedQueue::try_push`],
//! which fails *immediately* when the queue is at capacity — the
//! handler turns that into a `BUSY retry-after` reply, pushing the wait
//! out to the client instead of absorbing it into unbounded memory or a
//! blocked accept loop (the ESS streaming lesson: overload must be
//! explicit). Consumers (ingest workers) block in [`BoundedQueue::pop`]
//! until there is a batch; the drain's [`BoundedQueue::close`] refuses
//! further pushes and wakes them all, and `pop` reports the end only
//! once the closed queue is also empty, so a drain loses nothing.
//!
//! [`BoundedQueue::requeue_front`] deliberately bypasses the capacity
//! check (and `close`): it is the crash-redelivery path — a worker that
//! is about to die mid-batch puts the batch *back at the head* so the
//! restarted worker picks it up first and no accepted work is lost.
//! Allowing the queue to briefly hold `capacity + 1` items is the price
//! of never dropping a batch on the floor during a panic.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity, closeable MPMC queue with non-blocking producers.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    ready: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (≥ 1).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
            }),
            capacity: capacity.max(1),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Non-blocking push: `Err(item)` when the queue is full or closed,
    /// handing the item back so the caller can reply without cloning.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut q = self.lock();
        if q.closed || q.items.len() >= self.capacity {
            return Err(item);
        }
        q.items.push_back(item);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Put an item back at the *head*, ignoring capacity and `close` —
    /// the crash-redelivery path (see module docs). Never fails.
    pub fn requeue_front(&self, item: T) {
        self.lock().items.push_front(item);
        self.ready.notify_one();
    }

    /// Blocking pop: waits for an item; `None` once the queue is closed
    /// *and* empty (the worker's cue to exit).
    pub fn pop(&self) -> Option<T> {
        let mut q = self.lock();
        loop {
            if let Some(item) = q.items.pop_front() {
                return Some(item);
            }
            if q.closed {
                return None;
            }
            q = self.ready.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Refuse every later [`try_push`](Self::try_push) and wake every
    /// blocked [`pop`](Self::pop); what is queued is still handed out.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Current depth (racy by nature; used for the depth gauge and the
    /// readiness high-watermark check).
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[test]
    fn try_push_fails_fast_at_capacity() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        // Full: the rejected item comes back, and nothing blocks.
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok());
    }

    #[test]
    fn requeue_front_bypasses_capacity_and_orders_first() {
        let q = BoundedQueue::new(1);
        assert!(q.try_push("queued").is_ok());
        q.requeue_front("redelivered");
        assert_eq!(q.len(), 2, "redelivery may exceed capacity by one");
        assert_eq!(q.pop(), Some("redelivered"));
        assert_eq!(q.pop(), Some("queued"));
    }

    #[test]
    fn pop_returns_none_when_closed_and_empty() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        q.close();
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "the end is reported to every caller");
    }

    #[test]
    fn pop_wakes_on_push_from_another_thread() {
        let q = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let started = Arc::new(Barrier::new(2));
        let started2 = Arc::clone(&started);
        let t = std::thread::spawn(move || {
            started2.wait();
            q2.pop()
        });
        // Whether the push lands before the pop or wakes it, the item
        // must arrive: there is no timeout to fall back on.
        started.wait();
        q.try_push(42u32).unwrap();
        assert_eq!(t.join().unwrap(), Some(42));
    }

    #[test]
    fn close_wakes_every_blocked_pop() {
        const POPPERS: usize = 4;
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let started = Arc::new(Barrier::new(POPPERS + 1));
        let poppers: Vec<_> = (0..POPPERS)
            .map(|_| {
                let (q, started) = (Arc::clone(&q), Arc::clone(&started));
                std::thread::spawn(move || {
                    started.wait();
                    q.pop()
                })
            })
            .collect();
        started.wait();
        q.close();
        // A popper that `close` failed to wake would hang this join.
        for popper in poppers {
            assert_eq!(popper.join().unwrap(), None);
        }
    }

    #[test]
    fn close_refuses_pushes_and_hands_out_what_was_queued_in_order() {
        let q = BoundedQueue::new(4);
        for i in 0..3 {
            q.try_push(i).unwrap();
        }
        q.close();
        assert_eq!(q.try_push(3), Err(3), "a closed queue admits nothing");
        assert_eq!(q.len(), 3);
        assert_eq!([q.pop(), q.pop(), q.pop()], [Some(0), Some(1), Some(2)]);
        assert_eq!(q.pop(), None);
    }

    /// A worker killed during the drain puts its batch back: the queue
    /// is closed, not empty, so the restarted worker still gets it.
    #[test]
    fn requeue_front_after_close_is_still_delivered() {
        let q = BoundedQueue::new(1);
        q.try_push("in flight").unwrap();
        q.close();
        let batch = q.pop().unwrap();
        q.requeue_front(batch);
        assert_eq!(q.pop(), Some("in flight"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert!(q.try_push(1).is_ok());
        assert_eq!(q.try_push(2), Err(2));
    }
}
