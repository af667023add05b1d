//! Per-link batching: amortising per-packet overhead on busy hops.
//!
//! A [`Batcher`] accumulates items bound for one link and decides when
//! the accumulated batch must be flushed, governed by a [`BatchPolicy`]
//! (size, byte and age bounds). It is pure bookkeeping — the owner
//! encodes and sends the flushed items, and arms a timer for the age
//! bound when [`PushOutcome::ArmTimer`] asks for one. The inter-broker
//! bridges of the pub/sub federation run one batcher per peer link, so
//! N publishes crossing a bridge cost O(1) wire frames.
//!
//! ```
//! use simnet::batch::{BatchPolicy, Batcher, PushOutcome};
//! use simnet::SimDuration;
//!
//! let policy = BatchPolicy {
//!     max_items: 3,
//!     max_bytes: 1024,
//!     max_age: SimDuration::from_millis(50),
//! };
//! let mut batcher: Batcher<&str> = Batcher::new(policy);
//! assert_eq!(batcher.push("a", 1), PushOutcome::ArmTimer);
//! assert_eq!(batcher.push("b", 1), PushOutcome::Buffered);
//! assert_eq!(batcher.push("c", 1), PushOutcome::Flush);
//! assert_eq!(batcher.take(), vec!["a", "b", "c"]);
//! ```

use crate::time::SimDuration;

/// When an accumulating batch is cut and put on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Flush once this many items are buffered.
    pub max_items: usize,
    /// Flush once the buffered payload bytes reach this bound.
    pub max_bytes: usize,
    /// Flush this long after the oldest buffered item arrived, even if
    /// the size bounds are not reached (bounds added latency).
    pub max_age: SimDuration,
}

impl Default for BatchPolicy {
    /// A bridge-friendly default: 32 items / 16 KiB / 25 ms.
    fn default() -> Self {
        BatchPolicy {
            max_items: 32,
            max_bytes: 16 * 1024,
            max_age: SimDuration::from_millis(25),
        }
    }
}

/// What the owner must do after buffering one item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// First item of a fresh batch: arm a flush timer for
    /// [`BatchPolicy::max_age`] from now.
    ArmTimer,
    /// Item buffered; a timer is already running.
    Buffered,
    /// A size or byte bound was reached: flush immediately (the pending
    /// flush timer, if any, becomes a harmless no-op on an empty batch).
    Flush,
}

/// Accumulates items for one link under a [`BatchPolicy`].
#[derive(Debug)]
pub struct Batcher<T> {
    policy: BatchPolicy,
    items: Vec<T>,
    bytes: usize,
    /// Whether a flush timer is armed for the current accumulation run.
    timer_armed: bool,
}

impl<T> Batcher<T> {
    /// An empty batcher.
    pub fn new(policy: BatchPolicy) -> Self {
        Batcher {
            policy,
            items: Vec::new(),
            bytes: 0,
            timer_armed: false,
        }
    }

    /// Number of buffered items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Buffers one item of `bytes` payload and reports what the owner
    /// must do: arm the age timer, nothing, or flush now.
    pub fn push(&mut self, item: T, bytes: usize) -> PushOutcome {
        let fresh = self.items.is_empty();
        self.items.push(item);
        self.bytes += bytes;
        if self.items.len() >= self.policy.max_items || self.bytes >= self.policy.max_bytes {
            self.timer_armed = false;
            return PushOutcome::Flush;
        }
        if fresh && !self.timer_armed {
            self.timer_armed = true;
            return PushOutcome::ArmTimer;
        }
        PushOutcome::Buffered
    }

    /// Drains the buffered items (the owner sends them as one frame).
    /// Returns an empty vec when nothing was buffered — timer flushes
    /// racing a size flush are harmless.
    pub fn take(&mut self) -> Vec<T> {
        self.bytes = 0;
        self.timer_armed = false;
        std::mem::take(&mut self.items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> BatchPolicy {
        BatchPolicy {
            max_items: 4,
            max_bytes: 100,
            max_age: SimDuration::from_millis(10),
        }
    }

    #[test]
    fn item_bound_flushes() {
        let mut b = Batcher::new(policy());
        assert_eq!(b.push(1, 1), PushOutcome::ArmTimer);
        assert_eq!(b.push(2, 1), PushOutcome::Buffered);
        assert_eq!(b.push(3, 1), PushOutcome::Buffered);
        assert_eq!(b.push(4, 1), PushOutcome::Flush);
        assert_eq!(b.take(), vec![1, 2, 3, 4]);
        assert!(b.is_empty());
        assert_eq!(b.bytes, 0);
    }

    #[test]
    fn byte_bound_flushes() {
        let mut b = Batcher::new(policy());
        assert_eq!(b.push("x", 60), PushOutcome::ArmTimer);
        assert_eq!(b.push("y", 60), PushOutcome::Flush);
        assert_eq!(b.take().len(), 2);
    }

    #[test]
    fn timer_rearms_after_flush() {
        let mut b = Batcher::new(policy());
        assert_eq!(b.push(1, 1), PushOutcome::ArmTimer);
        b.take(); // timer flush
        assert_eq!(b.push(2, 1), PushOutcome::ArmTimer, "fresh batch re-arms");
    }

    #[test]
    fn take_on_empty_is_empty() {
        let mut b: Batcher<u8> = Batcher::new(policy());
        assert!(b.take().is_empty());
    }

    #[test]
    fn size_flush_then_push_rearms() {
        let mut b = Batcher::new(policy());
        for i in 0..3 {
            b.push(i, 1);
        }
        assert_eq!(b.push(3, 1), PushOutcome::Flush);
        b.take();
        // The armed timer was consumed by the size flush; the next run
        // must ask for a fresh one.
        assert_eq!(b.push(9, 1), PushOutcome::ArmTimer);
    }
}
