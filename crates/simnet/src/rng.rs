//! Deterministic random number generation for the simulation kernel.
//!
//! The kernel owns all randomness so that a simulation replays bit-for-bit
//! given the same seed. [`DeterministicRng`] is a self-contained
//! xoshiro256** generator (seeded through SplitMix64, as recommended by the
//! xoshiro authors); it is deliberately independent of external crates so
//! that its stream can never change under a dependency upgrade.

/// A deterministic xoshiro256** pseudo-random generator.
///
/// ```
/// use simnet::rng::DeterministicRng;
/// let mut a = DeterministicRng::seed_from(42);
/// let mut b = DeterministicRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterministicRng {
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DeterministicRng {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DeterministicRng { state }
    }

    /// Derives an independent child stream, e.g. one per simulation node,
    /// so per-node randomness does not depend on scheduling order.
    pub fn derive(&self, stream: u64) -> Self {
        // Mix the stream id into a fresh seed through SplitMix64 twice to
        // decorrelate adjacent stream ids.
        let mut sm = self.state[0] ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
        let s = splitmix64(&mut sm);
        DeterministicRng::seed_from(s)
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift rejection method.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "invalid range");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_bounded(hi - lo + 1)
    }

    /// A uniform float in `[lo, hi)`.
    pub fn next_f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_bounded(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element, or `None` for an empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.next_bounded(slice.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DeterministicRng::seed_from(7);
        let mut b = DeterministicRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = DeterministicRng::seed_from(7);
        let mut b = DeterministicRng::seed_from(8);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn derived_streams_are_independent_of_order() {
        let root = DeterministicRng::seed_from(1);
        let mut c1 = root.derive(10);
        let mut c2 = root.derive(20);
        let first = (c1.next_u64(), c2.next_u64());

        let root = DeterministicRng::seed_from(1);
        let mut c2b = root.derive(20);
        let mut c1b = root.derive(10);
        assert_eq!(first, (c1b.next_u64(), c2b.next_u64()));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DeterministicRng::seed_from(3);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bounded_respects_bound() {
        let mut r = DeterministicRng::seed_from(4);
        for _ in 0..1000 {
            assert!(r.next_bounded(7) < 7);
        }
    }

    #[test]
    fn bounded_covers_all_values() {
        let mut r = DeterministicRng::seed_from(5);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[r.next_bounded(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "bound")]
    fn bounded_panics_on_zero() {
        DeterministicRng::seed_from(0).next_bounded(0);
    }

    #[test]
    fn range_inclusive() {
        let mut r = DeterministicRng::seed_from(6);
        for _ in 0..500 {
            let x = r.next_range(10, 12);
            assert!((10..=12).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DeterministicRng::seed_from(9);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DeterministicRng::seed_from(12);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_empty_is_none() {
        let mut r = DeterministicRng::seed_from(13);
        assert!(r.choose::<u8>(&[]).is_none());
        assert_eq!(r.choose(&[42]), Some(&42));
    }
}
