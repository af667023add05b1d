//! Virtual time for the discrete-event simulation.
//!
//! Simulated time is a count of nanoseconds since the start of the
//! simulation, wrapped in the [`SimTime`] newtype; spans between two
//! instants are [`SimDuration`]s. Both are plain `u64`s under the hood,
//! cheap to copy and totally ordered, which is what the event queue needs.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, measured in nanoseconds since the
/// simulation started.
///
/// ```
/// use simnet::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_millis(1500);
/// assert_eq!(t.as_secs_f64(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time in nanoseconds.
///
/// ```
/// use simnet::SimDuration;
/// assert_eq!(SimDuration::from_secs(2) / 4, SimDuration::from_millis(500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from raw nanoseconds since simulation start.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `secs` seconds after simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("`earlier` must not be later than `self`"),
        )
    }

    /// Saturating version of [`SimTime::since`]: returns zero instead of
    /// panicking when `earlier` is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from microseconds.
    pub(crate) const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative"
        );
        SimDuration((secs * 1e9).round() as u64)
    }

    /// The duration in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if this is the zero duration.
    pub(crate) const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub(crate) fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("duration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

// ---------------------------------------------------------------------------
// Hierarchical timer wheel
// ---------------------------------------------------------------------------

/// Number of wheel levels; deadlines beyond the top level's horizon
/// overflow into a fallback binary heap.
const WHEEL_LEVELS: usize = 3;
/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// log2 of the level-0 bucket granularity in nanoseconds (2^20 ns ≈ 1 ms).
const SHIFT0: u32 = 20;

/// Bit shift mapping a nanosecond timestamp to a bucket index at `level`.
const fn level_shift(level: usize) -> u32 {
    SHIFT0 + SLOT_BITS * level as u32
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WheelEntry {
    time_ns: u64,
    seq: u64,
    handle: u32,
}

impl WheelEntry {
    fn key(&self) -> (u64, u64) {
        (self.time_ns, self.seq)
    }
}

impl Ord for WheelEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for WheelEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A flat-`Vec`-backed hierarchical timer wheel ordering `(time, seq)`
/// keys, with a binary-heap fallback for far-future deadlines.
///
/// This is the simulator's event priority queue. The workload it is
/// built for is the city-scale hot path: hundreds of thousands of
/// short-horizon deadlines (packet deliveries a few µs–ms out,
/// keepalives and batch flushes a few seconds out) plus a thin tail of
/// far-future timers (scheduled restarts, scenario stop times).
///
/// Three levels of 64 slots cover deadlines up to ~275 s ahead of the
/// wheel cursor at granularities of ~1 ms / ~67 ms / ~4.3 s (bucket
/// widths `2^20`, `2^26`, `2^32` ns). Pushing is O(1): the entry drops
/// into the finest-grained bucket whose level can still address it,
/// or into the `far` heap beyond the top horizon. Popping advances a
/// monotone cursor: higher-level buckets cascade down as the cursor
/// reaches them, and a level-0 bucket is drained and sorted (by
/// `(time, seq)`, so the simulator's total event order is preserved
/// exactly) into a ready buffer that pops from its tail.
///
/// `pop`/`peek_time` take `&mut self` because both may advance the
/// cursor and cascade buckets; the ordering they observe is unaffected.
///
/// Entries carry an opaque `u32` handle (the event arena slot of a
/// simulation shard); ties on `time` are broken by `seq`, which the
/// caller must keep unique and monotonically increasing — that is what
/// makes replay deterministic across this structure and the old
/// `BinaryHeap` implementation (see the differential tests below).
#[derive(Debug)]
pub struct TimerWheel {
    /// `WHEEL_LEVELS * SLOTS` buckets, index `level * SLOTS + slot`.
    slots: Vec<Vec<WheelEntry>>,
    /// One occupancy bitmap per level; bit `s` set iff bucket slot `s`
    /// is non-empty. Lets `prepare` find the next bucket in O(1).
    occupancy: [u64; WHEEL_LEVELS],
    /// Deadlines beyond the top level's horizon, min-ordered.
    far: std::collections::BinaryHeap<std::cmp::Reverse<WheelEntry>>,
    /// Drained entries sorted descending by `(time, seq)`; popped from
    /// the tail. May also receive entries pushed behind the cursor.
    ready: Vec<WheelEntry>,
    /// Monotone wheel position in nanoseconds: every entry still in a
    /// bucket or in `far` has `time_ns >= cursor_ns`.
    cursor_ns: u64,
    len: usize,
}

impl Default for TimerWheel {
    fn default() -> Self {
        Self::new()
    }
}

impl TimerWheel {
    /// An empty wheel with its cursor at time zero.
    pub fn new() -> Self {
        TimerWheel {
            slots: vec![Vec::new(); WHEEL_LEVELS * SLOTS],
            occupancy: [0; WHEEL_LEVELS],
            far: std::collections::BinaryHeap::new(),
            ready: Vec::new(),
            cursor_ns: 0,
            len: 0,
        }
    }

    /// Number of entries in the wheel.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Inserts an entry. `seq` breaks ties on `time` and must be unique.
    pub fn push(&mut self, time: SimTime, seq: u64, handle: u32) {
        self.len += 1;
        self.insert(WheelEntry {
            time_ns: time.as_nanos(),
            seq,
            handle,
        });
    }

    /// Removes and returns the entry with the smallest `(time, seq)`.
    pub fn pop(&mut self) -> Option<(SimTime, u64, u32)> {
        self.prepare();
        let e = self.ready.pop()?;
        self.len -= 1;
        Some((SimTime::from_nanos(e.time_ns), e.seq, e.handle))
    }

    /// The `time` of the entry the next [`TimerWheel::pop`] returns.
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        self.prepare();
        self.ready.last().map(|e| SimTime::from_nanos(e.time_ns))
    }

    /// Routes an entry to the right home for the current cursor. Does
    /// not touch `len`, so cascades can reuse it for re-insertion.
    fn insert(&mut self, e: WheelEntry) {
        if e.time_ns < self.cursor_ns {
            // The bucket this would have lived in was already drained
            // (the caller schedules at >= now, but `now` can sit mid
            // bucket). Merge into the sorted ready buffer instead.
            let pos = self.ready.partition_point(|r| r.key() > e.key());
            self.ready.insert(pos, e);
            return;
        }
        for level in 0..WHEEL_LEVELS {
            let shift = level_shift(level);
            let bucket = e.time_ns >> shift;
            if bucket - (self.cursor_ns >> shift) < SLOTS as u64 {
                let slot = (bucket & (SLOTS as u64 - 1)) as usize;
                self.slots[level * SLOTS + slot].push(e);
                self.occupancy[level] |= 1 << slot;
                return;
            }
        }
        self.far.push(std::cmp::Reverse(e));
    }

    /// The smallest occupied absolute bucket index at `level`, if any.
    ///
    /// Occupied slots always lie within 64 buckets at or after the
    /// cursor, so rotating the bitmap by the cursor's slot turns
    /// "first occupied slot at/after the cursor" into a trailing-zeros
    /// count.
    fn min_bucket(&self, level: usize) -> Option<u64> {
        let occ = self.occupancy[level];
        if occ == 0 {
            return None;
        }
        let cursor_bucket = self.cursor_ns >> level_shift(level);
        let rotated = occ.rotate_right((cursor_bucket & (SLOTS as u64 - 1)) as u32);
        Some(cursor_bucket + rotated.trailing_zeros() as u64)
    }

    /// Advances the cursor until `ready` holds the next entries (or the
    /// wheel is empty): cascades higher-level buckets down, pulls `far`
    /// entries into range, and drains the winning level-0 bucket.
    fn prepare(&mut self) {
        while self.ready.is_empty() {
            // Candidate next times: per level, the start of its first
            // occupied bucket (a lower bound on its entries); for the
            // far heap, the exact head deadline.
            let mut best: Option<(u64, usize)> = None;
            for level in 0..WHEEL_LEVELS {
                if let Some(bucket) = self.min_bucket(level) {
                    let bound = bucket << level_shift(level);
                    // Ties prefer the highest level so coarse buckets
                    // cascade before a finer bucket with the same lower
                    // bound is drained.
                    if best.is_none_or(|(t, l)| bound < t || (bound == t && level > l)) {
                        best = Some((bound, level));
                    }
                }
            }
            let far_head = self.far.peek().map(|r| r.0.time_ns);
            if let Some(t_far) = far_head {
                if best.is_none_or(|(t, _)| t_far < t) {
                    // The far heap strictly leads every bucket: advance
                    // the cursor to the head's level-0 bucket and
                    // reinsert it there; the next iteration drains it.
                    let e = self.far.pop().expect("peeked entry present").0;
                    self.cursor_ns = self.cursor_ns.max((e.time_ns >> SHIFT0) << SHIFT0);
                    self.insert(e);
                    continue;
                }
            }
            let Some((bound, level)) = best else {
                return; // empty wheel
            };
            let bucket = self.min_bucket(level).expect("level is occupied");
            let slot = (bucket & (SLOTS as u64 - 1)) as usize;
            let index = level * SLOTS + slot;
            self.occupancy[level] &= !(1 << slot);
            if level > 0 {
                // Cascade: each entry re-homes at a strictly finer
                // level now that the cursor has reached its bucket. A
                // coarse bucket holds up to seconds' worth of timers
                // and is drained once per lap, so its buffer is freed
                // rather than kept (measured on `district_ingest`:
                // keeping them is 15 MiB for 0.13 allocations per op).
                self.cursor_ns = self.cursor_ns.max(bound);
                for e in std::mem::take(&mut self.slots[index]) {
                    self.insert(e);
                }
                continue;
            }
            // Drain: no other bucket can hold anything earlier than
            // this level-0 bucket's end (coarser bucket bounds are
            // aligned multiples of its width, and ties cascaded above),
            // so everything due before the bucket end is here or in
            // `far`. Sweep the latter, sort once, serve from the tail.
            // `ready` is empty here, so the swap hands its buffer to the
            // bucket: neither side regrows from nothing next time round.
            self.cursor_ns = (bucket + 1) << SHIFT0;
            std::mem::swap(&mut self.ready, &mut self.slots[index]);
            while self
                .far
                .peek()
                .is_some_and(|r| r.0.time_ns < self.cursor_ns)
            {
                let e = self.far.pop().expect("peeked entry present").0;
                self.ready.push(e);
            }
            self.ready
                .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
            return;
        }
    }
}

#[cfg(test)]
mod wheel_tests {
    use super::*;
    use crate::rng::DeterministicRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The pre-wheel implementation, kept verbatim as the differential
    /// oracle: a binary heap ordered by `(time, seq)`.
    #[derive(Default)]
    struct HeapOracle {
        heap: BinaryHeap<Reverse<WheelEntry>>,
    }

    impl HeapOracle {
        fn push(&mut self, time: SimTime, seq: u64, handle: u32) {
            self.heap.push(Reverse(WheelEntry {
                time_ns: time.as_nanos(),
                seq,
                handle,
            }));
        }
        fn pop(&mut self) -> Option<(SimTime, u64, u32)> {
            self.heap
                .pop()
                .map(|Reverse(e)| (SimTime::from_nanos(e.time_ns), e.seq, e.handle))
        }
    }

    /// A spread of deadlines covering every wheel home: the current
    /// bucket, each level, and the far heap (> ~275 s horizon).
    fn random_delay(rng: &mut DeterministicRng) -> u64 {
        match rng.next_bounded(6) {
            0 => rng.next_bounded(1 << SHIFT0),         // same bucket
            1 => rng.next_bounded(1 << 26),             // level 0/1
            2 => rng.next_bounded(1 << 32),             // level 1/2
            3 => rng.next_bounded(1 << 38),             // level 2 / horizon edge
            4 => (1 << 38) + rng.next_bounded(1 << 42), // far heap
            _ => 0,                                     // immediate
        }
    }

    #[test]
    fn differential_wheel_vs_heap_random_pushes_and_pops() {
        for seed in 0..8u64 {
            let mut rng = DeterministicRng::seed_from(0xD1FF + seed);
            let mut wheel = TimerWheel::new();
            let mut oracle = HeapOracle::default();
            let mut now = 0u64;
            let mut seq = 0u64;
            for _ in 0..4000 {
                if rng.chance(0.6) || wheel.len() == 0 {
                    // Push at `now + delay`; occasionally a burst of
                    // same-time entries to stress tie-breaking.
                    let t = SimTime::from_nanos(now + random_delay(&mut rng));
                    let burst = if rng.chance(0.1) {
                        rng.next_range(2, 6)
                    } else {
                        1
                    };
                    for _ in 0..burst {
                        wheel.push(t, seq, seq as u32);
                        oracle.push(t, seq, seq as u32);
                        seq += 1;
                    }
                } else {
                    let got = wheel.pop();
                    let want = oracle.pop();
                    assert_eq!(got, want, "seed {seed} diverged at seq {seq}");
                    if let Some((t, _, _)) = got {
                        // The simulator never travels backwards.
                        assert!(t.as_nanos() >= now);
                        now = t.as_nanos();
                    }
                }
                assert_eq!(wheel.len(), oracle.heap.len());
            }
            while let Some(want) = oracle.pop() {
                assert_eq!(wheel.pop(), Some(want), "seed {seed} diverged draining");
            }
            assert!(wheel.len() == 0);
            assert_eq!(wheel.pop(), None);
        }
    }

    #[test]
    fn pops_in_time_order_across_all_levels_and_far_heap() {
        let mut wheel = TimerWheel::new();
        // One entry per decade of delay, pushed in shuffled order.
        let mut delays: Vec<u64> = (0..14).map(|i| 10u64.pow(i)).collect();
        delays.push(0);
        delays.push(u64::MAX); // the greatest representable instant
        let mut rng = DeterministicRng::seed_from(99);
        rng.shuffle(&mut delays);
        for (i, &d) in delays.iter().enumerate() {
            wheel.push(SimTime::from_nanos(d), i as u64, i as u32);
        }
        let mut last = None;
        while let Some((t, _, _)) = wheel.pop() {
            assert!(last.is_none_or(|p| p <= t), "out of order: {last:?} {t}");
            last = Some(t);
        }
        assert_eq!(last, Some(SimTime::from_nanos(u64::MAX)));
    }

    #[test]
    fn same_time_entries_pop_in_push_order() {
        let mut wheel = TimerWheel::new();
        let t = SimTime::from_nanos(5_000_000);
        for seq in 0..100u64 {
            wheel.push(t, seq, (99 - seq) as u32);
        }
        for seq in 0..100u64 {
            assert_eq!(wheel.pop(), Some((t, seq, (99 - seq) as u32)));
        }
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut wheel = TimerWheel::new();
        assert_eq!(wheel.peek_time(), None);
        wheel.push(SimTime::from_secs(500), 0, 0); // far heap
        wheel.push(SimTime::from_nanos(1_000_000), 1, 1);
        assert_eq!(wheel.peek_time(), Some(SimTime::from_nanos(1_000_000)));
        assert_eq!(wheel.pop(), Some((SimTime::from_nanos(1_000_000), 1, 1)));
        assert_eq!(wheel.peek_time(), Some(SimTime::from_secs(500)));
        assert_eq!(wheel.pop(), Some((SimTime::from_secs(500), 0, 0)));
        assert_eq!(wheel.peek_time(), None);
    }

    #[test]
    fn push_behind_cursor_still_pops_in_order() {
        let mut wheel = TimerWheel::new();
        wheel.push(SimTime::from_nanos(10_000_000), 0, 0);
        assert!(wheel.pop().is_some()); // cursor now past the 10 ms bucket
                                        // A caller scheduling "at now" lands behind the drained bucket's
                                        // end; it must merge into the ready buffer, not get lost.
        wheel.push(SimTime::from_nanos(10_000_000), 1, 1);
        wheel.push(SimTime::from_nanos(10_000_000), 2, 2);
        wheel.push(SimTime::from_secs(1), 3, 3);
        assert_eq!(wheel.pop(), Some((SimTime::from_nanos(10_000_000), 1, 1)));
        assert_eq!(wheel.pop(), Some((SimTime::from_nanos(10_000_000), 2, 2)));
        assert_eq!(wheel.pop(), Some((SimTime::from_secs(1), 3, 3)));
        assert!(wheel.len() == 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDuration::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_secs(3_600));
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_secs(10);
        let u = t + SimDuration::from_secs(5);
        assert_eq!(u.since(t), SimDuration::from_secs(5));
        assert_eq!(u - t, SimDuration::from_secs(5));
        assert_eq!(u - SimDuration::from_secs(15), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn since_panics_on_future() {
        SimTime::ZERO.since(SimTime::from_secs(1));
    }

    #[test]
    fn saturating_since_clamps() {
        assert_eq!(
            SimTime::ZERO.saturating_since(SimTime::from_secs(1)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn from_secs_f64_rejects_negative() {
        SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimDuration::from_micros(5).to_string(), "5.000us");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    fn duration_mul_div() {
        assert_eq!(SimDuration::from_secs(1) * 3, SimDuration::from_secs(3));
        assert_eq!(SimDuration::from_secs(3) / 3, SimDuration::from_secs(1));
    }
}
