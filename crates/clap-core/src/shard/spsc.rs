//! Bounded single-producer/single-consumer ring — the per-shard ingest
//! queue. Lock-free on both fast paths (one atomic load + one atomic
//! store each); the only waiting is spin-then-yield backoff at the
//! endpoints, so it behaves sanely even when producer and consumer share
//! a core. Safety argument: `head` is written only by the consumer and
//! `tail` only by the producer; a slot is written before the `Release`
//! store of `tail` that publishes it and read before the `Release` store
//! of `head` that retires it, so the two sides never touch a slot
//! concurrently.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Pads the producer- and consumer-owned counters onto their own
/// cache lines so the two sides don't false-share.
#[repr(align(64))]
struct CacheAligned<T>(T);

/// The bounded SPSC ring. `try_push` may only ever be called from one
/// thread at a time, and `try_pop` from one (possibly different)
/// thread — the sharded front end upholds this by giving each shard
/// exactly one dispatcher and one worker.
pub struct Ring<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next index to pop (consumer-owned, monotonically increasing).
    head: CacheAligned<AtomicUsize>,
    /// Next index to push (producer-owned, monotonically increasing).
    tail: CacheAligned<AtomicUsize>,
    closed: AtomicBool,
}

// SAFETY: the ring hands each value from exactly one producer thread
// to exactly one consumer thread (see the module docs); the atomics
// order the slot accesses.
unsafe impl<T: Send> Sync for Ring<T> {}
unsafe impl<T: Send> Send for Ring<T> {}

impl<T> Ring<T> {
    /// A ring holding at most `capacity` (≥ 1) items.
    pub fn new(capacity: usize) -> Ring<T> {
        let capacity = capacity.max(1);
        let slots = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ring {
            slots,
            head: CacheAligned(AtomicUsize::new(0)),
            tail: CacheAligned(AtomicUsize::new(0)),
            closed: AtomicBool::new(false),
        }
    }

    /// Producer side: enqueues `value`, or returns it when the ring
    /// is full (the backpressure signal).
    pub fn try_push(&self, value: T) -> Result<(), T> {
        let tail = self.tail.0.load(Ordering::Relaxed);
        let head = self.head.0.load(Ordering::Acquire);
        if tail - head == self.slots.len() {
            return Err(value);
        }
        let slot = &self.slots[tail % self.slots.len()];
        // SAFETY: `head ≤ tail - len` fails above, so the consumer
        // has retired this slot; only the producer writes `tail`.
        unsafe { (*slot.get()).write(value) };
        self.tail.0.store(tail + 1, Ordering::Release);
        Ok(())
    }

    /// Consumer side: dequeues the oldest item, or `None` when the
    /// ring is currently empty.
    pub fn try_pop(&self) -> Option<T> {
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let slot = &self.slots[head % self.slots.len()];
        // SAFETY: `head < tail` means the producer published this
        // slot (Acquire pairs with its Release); only the consumer
        // writes `head`.
        let value = unsafe { (*slot.get()).assume_init_read() };
        self.head.0.store(head + 1, Ordering::Release);
        Some(value)
    }

    /// Number of items currently enqueued (approximate under
    /// concurrent access; exact when quiescent).
    pub fn len(&self) -> usize {
        self.tail
            .0
            .load(Ordering::Acquire)
            .wrapping_sub(self.head.0.load(Ordering::Acquire))
    }

    /// True when no items are enqueued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Producer side: true when the ring currently holds `capacity`
    /// items (the saturation signal the `Degrade` policy keys on).
    pub fn is_full(&self) -> bool {
        self.len() >= self.slots.len()
    }

    /// The fixed capacity this ring was built with.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Producer side: marks the stream finished. The consumer must
    /// drain once more *after* observing the flag — `close` is
    /// ordered after every preceding push.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Consumer side: true once the producer closed the ring. Items
    /// pushed before the close may still be pending; drain after.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // `&mut self`: no concurrent access; drop any undrained items.
        while self.try_pop().is_some() {}
    }
}

/// Spin-then-yield wait loop for the ring endpoints. The short spin
/// phase covers the common case (the peer is mid-operation on another
/// core); the yield phase keeps a shared-core configuration — e.g. a
/// single-CPU container, or more shards than cores — live instead of
/// burning the peer's timeslice.
pub struct Backoff {
    spins: u32,
}

impl Backoff {
    const SPIN_LIMIT: u32 = 24;

    #[allow(clippy::new_without_default)]
    pub fn new() -> Backoff {
        Backoff { spins: 0 }
    }

    /// Back off once: cheap CPU hint first, scheduler yield after.
    pub fn snooze(&mut self) {
        if self.spins < Self::SPIN_LIMIT {
            self.spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }

    /// Forget accumulated pressure after useful work happened.
    pub fn reset(&mut self) {
        self.spins = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_capacity() {
        let ring: Ring<u32> = Ring::new(2);
        assert_eq!(ring.capacity(), 2);
        assert!(!ring.is_full());
        assert!(ring.try_push(1).is_ok());
        assert!(ring.try_push(2).is_ok());
        assert!(ring.is_full());
        assert_eq!(ring.try_push(3), Err(3), "full ring rejects");
        assert_eq!(ring.try_pop(), Some(1));
        assert!(!ring.is_full());
        assert!(ring.try_push(3).is_ok());
        assert_eq!(ring.try_pop(), Some(2));
        assert_eq!(ring.try_pop(), Some(3));
        assert_eq!(ring.try_pop(), None);
    }

    #[test]
    fn close_then_drain_protocol() {
        let ring: Ring<u32> = Ring::new(4);
        ring.try_push(7).unwrap();
        ring.close();
        assert!(ring.is_closed());
        assert_eq!(ring.try_pop(), Some(7), "closed rings still drain");
        assert_eq!(ring.try_pop(), None);
    }

    #[test]
    fn cross_thread_transfer_preserves_every_item() {
        const N: u64 = 10_000;
        let ring: Ring<u64> = Ring::new(8);
        std::thread::scope(|s| {
            let consumer = s.spawn(|| {
                let mut seen = Vec::with_capacity(N as usize);
                let mut backoff = Backoff::new();
                loop {
                    while let Some(v) = ring.try_pop() {
                        seen.push(v);
                        backoff.reset();
                    }
                    if ring.is_closed() {
                        while let Some(v) = ring.try_pop() {
                            seen.push(v);
                        }
                        break;
                    }
                    backoff.snooze();
                }
                seen
            });
            let mut backoff = Backoff::new();
            for v in 0..N {
                let mut item = v;
                while let Err(back) = ring.try_push(item) {
                    item = back;
                    backoff.snooze();
                }
            }
            ring.close();
            let seen = consumer.join().unwrap();
            assert_eq!(seen.len() as u64, N);
            assert!(
                seen.windows(2).all(|w| w[0] + 1 == w[1]),
                "SPSC must preserve order"
            );
        });
    }

    #[test]
    fn dropping_nonempty_ring_drops_items() {
        let counted = std::sync::Arc::new(());
        {
            let ring: Ring<std::sync::Arc<()>> = Ring::new(4);
            ring.try_push(counted.clone()).unwrap();
            ring.try_push(counted.clone()).unwrap();
            assert_eq!(std::sync::Arc::strong_count(&counted), 3);
        }
        assert_eq!(std::sync::Arc::strong_count(&counted), 1);
    }
}
