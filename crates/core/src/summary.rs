//! The one `(count, sum, min, max)` fold: a window pane, a district
//! rollup and a tskv bucket all summarize their samples with
//! [`Summary`], so one NaN rule and one signed-zero rule hold from the
//! building tier to the store.

/// Count, sum, min and max of the samples folded in. Carrying the raw
/// count and sum (not the mean) is what makes hierarchical rollups
/// count-weighted: a merged summary's mean weights every sample
/// equally, never a mean of means.
///
/// Count, min and max are exact under any grouping. The sum is not:
/// two groupings of the same `n` samples (a district sum of building
/// sums against a raw fold, say) differ by at most
/// `(n − 1) · f64::EPSILON · Σ|x|`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples folded in.
    pub count: u64,
    /// Sum of the samples; the first NaN folded in, once there is one.
    pub sum: f64,
    /// Least sample, ignoring NaN (`∞` when empty).
    pub min: f64,
    /// Greatest sample, ignoring NaN (`-∞` when empty).
    pub max: f64,
}

impl Summary {
    /// No samples. The sum starts at `-0.0`, the IEEE additive
    /// identity, so a summary of one sample holds that sample bit for
    /// bit (`-0.0` included).
    pub const EMPTY: Summary = Summary {
        count: 0,
        sum: -0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };

    /// Folds one sample in. `#[inline(always)]`: at plain `#[inline]` a
    /// debug build of a caller's loop kept a different NaN than the
    /// release build did.
    #[inline(always)]
    pub fn push(&mut self, v: f64) {
        self.count += 1;
        self.add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another summary in, as if its samples were pushed after
    /// this one's.
    #[inline]
    pub fn merge(&mut self, other: &Summary) {
        self.count += other.count;
        self.add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The arithmetic mean: a NaN sum is returned as it is, and an
    /// empty summary's mean is NaN.
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.sum.is_nan() {
            self.sum
        } else {
            self.sum / self.count as f64
        }
    }

    /// Adds `v` to the sum, keeping the first NaN by assignment: which
    /// operand's payload `+` keeps is left to codegen. The NaN case is a
    /// cold call, so the common case stays a plain add.
    #[inline(always)]
    fn add(&mut self, v: f64) {
        let sum = self.sum + v;
        self.sum = if sum.is_nan() {
            first_nan(self.sum, v, sum)
        } else {
            sum
        };
    }
}

/// The sum after `sum + v` came out NaN: `sum` if it already was, else
/// `v` if it is, else the NaN the addition made (`inf + -inf`).
#[cold]
fn first_nan(sum: f64, v: f64, added: f64) -> f64 {
    if sum.is_nan() {
        sum
    } else if v.is_nan() {
        v
    } else {
        added
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold(values: &[f64]) -> Summary {
        let mut s = Summary::EMPTY;
        for &v in values {
            s.push(v);
        }
        s
    }

    /// The stated sum bound for two groupings of `values`.
    fn sum_bound(values: &[f64]) -> f64 {
        let n = values.len() as f64;
        (n - 1.0).max(0.0) * f64::EPSILON * values.iter().map(|v| v.abs()).sum::<f64>()
    }

    #[test]
    fn a_lone_negative_zero_keeps_its_sign() {
        let s = fold(&[-0.0]);
        assert_eq!(s.sum.to_bits(), (-0.0f64).to_bits());
        assert_eq!(s.mean().to_bits(), (-0.0f64).to_bits());
        assert_eq!(fold(&[0.0]).sum.to_bits(), 0.0f64.to_bits());
        assert_eq!(fold(&[-0.0, 0.0]).sum.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn the_first_nan_survives_pushes_and_merges() {
        let first = f64::from_bits(0x7ff8_0000_0000_0001);
        let second = f64::from_bits(0xfff8_0000_0000_0002);
        let pushed = fold(&[1.0, first, 2.0, second, f64::INFINITY]);
        assert_eq!(pushed.sum.to_bits(), first.to_bits());
        assert_eq!(pushed.mean().to_bits(), first.to_bits());
        assert_eq!(
            (pushed.count, pushed.min, pushed.max),
            (5, 1.0, f64::INFINITY)
        );

        let mut merged = Summary::EMPTY;
        merged.merge(&fold(&[first]));
        merged.merge(&fold(&[3.0, second]));
        assert_eq!(merged.sum.to_bits(), first.to_bits());
        assert_eq!((merged.count, merged.min, merged.max), (3, 3.0, 3.0));

        // With no NaN sample, the NaN that `inf + -inf` makes is kept.
        let made = fold(&[f64::INFINITY, f64::NEG_INFINITY, second]);
        assert!(made.sum.is_nan());
        assert_ne!(made.sum.to_bits(), second.to_bits());
    }

    #[test]
    fn merged_halves_equal_the_whole_fold() {
        let mut rng = simnet::rng::DeterministicRng::seed_from(0x5u64);
        for case in 0..256 {
            let n = rng.next_range(1, 300) as usize;
            let scale = [1.0, 1e3, 1e9][case % 3];
            let values: Vec<f64> = (0..n).map(|_| rng.next_f64_range(-scale, scale)).collect();
            let cut = rng.next_range(0, n as u64) as usize;
            let whole = fold(&values);
            let mut merged = fold(&values[..cut]);
            merged.merge(&fold(&values[cut..]));
            assert_eq!(
                (merged.count, merged.min.to_bits(), merged.max.to_bits()),
                (whole.count, whole.min.to_bits(), whole.max.to_bits()),
                "case {case}"
            );
            assert!(
                (merged.sum - whole.sum).abs() <= sum_bound(&values),
                "case {case}: {} vs {}",
                merged.sum,
                whole.sum
            );
        }
    }

    #[test]
    fn the_empty_summary_is_the_identity() {
        let s = fold(&[2.5, -1.0]);
        let mut merged = Summary::EMPTY;
        merged.merge(&s);
        assert_eq!(merged, s);
        merged.merge(&Summary::EMPTY);
        assert_eq!(merged, s);
        assert!(Summary::EMPTY.mean().is_nan());
        assert_eq!(std::mem::size_of::<Summary>(), 32);
    }
}
