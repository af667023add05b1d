//! The internal event queue.
//!
//! Events are totally ordered by `(time, sequence)`; the sequence number is
//! assigned at scheduling time, so two events scheduled for the same
//! instant fire in scheduling order. This total order is what makes the
//! simulation deterministic.
//!
//! The queue is split into two flat structures instead of a
//! `BinaryHeap<Event>`: a [`TimerWheel`] ordering bare `(time, seq,
//! slot)` triples, and a slab arena holding the event payloads. Pushing
//! an event writes its [`EventKind`] into a recycled arena slot (no
//! per-event heap allocation once the arena has grown to the
//! simulation's high-water mark) and inserts a 20-byte entry into the
//! wheel. The `(time, seq)` order the wheel produces is bit-identical
//! to the old heap's, which the differential tests in
//! [`crate::time`] pin down. A slot is one 64-byte cache line, aligned
//! as one, so taking an event out of a large arena misses once, not
//! twice.

use crate::node::{NodeId, Packet, TimerTag};
use crate::time::{SimTime, TimerWheel};

#[derive(Debug)]
pub(crate) enum EventKind {
    Deliver {
        pkt: Packet,
        /// Destination incarnation at send time; a mismatch at delivery
        /// time means the node crashed in between and the packet is lost.
        epoch: u32,
    },
    Timer {
        node: NodeId,
        tag: TimerTag,
        /// Node incarnation at scheduling time; a crash bumps the epoch,
        /// which silently invalidates every timer armed before it.
        epoch: u32,
    },
    Start(NodeId),
    /// Bring a crashed node back up and run its `on_restart` hook.
    Restart(NodeId),
}

#[derive(Debug)]
pub(crate) struct Event {
    pub(crate) time: SimTime,
    pub kind: EventKind,
}

/// One arena slot; `None` marks a free one.
#[derive(Debug)]
#[repr(align(64))]
struct Slot(Option<EventKind>);

const _: () = assert!(std::mem::size_of::<Slot>() == 64);

#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    wheel: TimerWheel,
    /// Event payload arena.
    arena: Vec<Slot>,
    /// Recycled arena slots, reused LIFO.
    free: Vec<u32>,
    next_seq: u64,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue::default()
    }

    pub(crate) fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.arena[slot as usize] = Slot(Some(kind));
                slot
            }
            None => {
                assert!(self.arena.len() < u32::MAX as usize, "event arena overflow");
                self.arena.push(Slot(Some(kind)));
                (self.arena.len() - 1) as u32
            }
        };
        self.wheel.push(time, seq, slot);
    }

    pub(crate) fn pop(&mut self) -> Option<Event> {
        let (time, _seq, slot) = self.wheel.pop()?;
        let kind = self.arena[slot as usize]
            .0
            .take()
            .expect("wheel entry points at a live arena slot");
        self.free.push(slot);
        Some(Event { time, kind })
    }

    /// `&mut` because peeking may cascade wheel buckets; the observable
    /// order is unaffected.
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        self.wheel.peek_time()
    }

    pub(crate) fn len(&self) -> usize {
        self.wheel.len()
    }

    /// Arena slots currently holding a pending event. Equals [`len`]
    /// unless the slab leaks; chaos tests assert it returns to zero at
    /// quiesce.
    ///
    /// [`len`]: EventQueue::len
    pub(crate) fn arena_in_use(&self) -> usize {
        self.arena.len() - self.free.len()
    }

    /// High-water mark of the arena: total slots ever grown.
    pub(crate) fn arena_capacity(&self) -> usize {
        self.arena.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    fn start(node: u32) -> EventKind {
        EventKind::Start(NodeId(node))
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), start(3));
        q.push(SimTime::from_secs(1), start(1));
        q.push(SimTime::from_secs(2), start(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_nanos() / 1_000_000_000)
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.push(t, start(i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Start(n) => n.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.push(SimTime::from_secs(5), start(0));
        q.push(SimTime::from_secs(4), start(1));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(4)));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
        q.pop();
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn arena_recycles_slots_and_drains_to_zero() {
        let mut q = EventQueue::new();
        for round in 0..5 {
            for i in 0..100 {
                q.push(
                    SimTime::from_nanos((round * 1000 + i) * 1_000_000),
                    start(i as u32),
                );
            }
            assert_eq!(q.arena_in_use(), 100);
            while q.pop().is_some() {}
            assert_eq!(q.arena_in_use(), 0, "slab leaked in round {round}");
            // The high-water mark is reached once and then recycled.
            assert_eq!(q.arena_capacity(), 100);
        }
    }

    #[test]
    fn seq_numbers_stay_monotonic_across_recycling() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), start(0));
        q.push(SimTime::from_secs(1), start(1));
        q.pop();
        q.pop();
        // Slots come back LIFO, so the later event takes the lower slot:
        // the order still follows scheduling.
        q.push(SimTime::from_secs(1), start(2));
        q.push(SimTime::from_secs(1), start(3));
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        assert!(matches!(a.kind, EventKind::Start(NodeId(2))));
        assert!(matches!(b.kind, EventKind::Start(NodeId(3))));
    }
}
