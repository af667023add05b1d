//! Estimators: slice quartiles, exact percentiles and a batch timer.

use std::time::Instant;

/// First quartile, median and third quartile of `values`, by the same
/// rule as Python's `statistics.quantiles(values, n=4)` (exclusive
/// method), which the driver of this benchmark uses for its spreads.
/// Fewer than two values give that value three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => [0.0; 3],
        1 => [v[0]; 3],
        n => [1, 2, 3].map(|i| {
            let pos = i as f64 * (n + 1) as f64 / 4.0;
            let j = (pos.floor() as usize).clamp(1, n - 1);
            let frac = pos - j as f64;
            v[j - 1] + frac * (v[j] - v[j - 1])
        }),
    }
}

/// Wall times of equal-work slices. Interference on a shared box only
/// ever slows a slice, so rates come from the fast quartile; the
/// median and the slow quartile are printed beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slices {
    pub fast_quartile_s: f64,
    pub median_s: f64,
    pub slow_quartile_s: f64,
    pub total_s: f64,
    pub n: usize,
}

impl Slices {
    pub fn of(times_s: &[f64]) -> Slices {
        let [q1, q2, q3] = quartiles(times_s);
        Slices {
            fast_quartile_s: q1,
            median_s: q2,
            slow_quartile_s: q3,
            total_s: times_s.iter().sum(),
            n: times_s.len(),
        }
    }
}

/// The `q`-quantile (0..=1) of an ascending slice by nearest rank.
pub fn percentile_sorted<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Times `routine` over fresh inputs from `setup`, returning seconds per
/// call for each of `passes` timed calls.
///
/// `routine` gives its input back (or whatever it turned it into), and
/// the value is dropped only after the clock stops, so tearing down a
/// 100k-point store is outside the timed region. One untimed warm-up
/// call runs first.
pub fn time_batched<I, O>(
    passes: usize,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> O,
) -> Vec<f64> {
    drop(std::hint::black_box(routine(setup())));
    (0..passes)
        .map(|_| {
            let input = setup();
            let start = Instant::now();
            let output = std::hint::black_box(routine(input));
            let elapsed = start.elapsed().as_secs_f64();
            drop(output);
            elapsed
        })
        .collect()
}

/// Nanoseconds per call of `f`, fast quartile over `passes` batches of
/// `batch` calls (one untimed warm-up batch first).
pub fn ns_per_call(passes: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let times = time_batched(
        passes,
        || (),
        |()| {
            for i in 0..batch {
                f(i);
            }
        },
    );
    quartiles(&times)[0] * 1e9 / batch as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn slices_report_quartiles_total_and_count() {
        let times = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 3.0];
        let s = Slices::of(&times);
        assert_eq!((s.fast_quartile_s, s.median_s, s.n), (1.0, 1.0, 10));
        assert!(s.slow_quartile_s > 1.0);
        assert_eq!(s.total_s, 13.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted::<u32>(&[], 0.5), 0);
    }

    /// An input whose drop is slow and observable.
    struct SlowDrop<'a>(&'a std::cell::Cell<u32>);
    impl Drop for SlowDrop<'_> {
        fn drop(&mut self) {
            std::thread::sleep(std::time::Duration::from_millis(30));
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn batch_timer_keeps_drop_outside_the_clock_and_warms_up() {
        let drops = std::cell::Cell::new(0);
        let calls = std::cell::Cell::new(0);
        let times = time_batched(
            3,
            || SlowDrop(&drops),
            |input| {
                calls.set(calls.get() + 1);
                input
            },
        );
        assert_eq!(times.len(), 3);
        assert_eq!(calls.get(), 4, "one warm-up pass plus three timed");
        assert_eq!(drops.get(), 4);
        // Each drop sleeps 30 ms; a timed region that included it
        // could not be under 10 ms.
        assert!(times.iter().all(|&t| t < 0.010), "{times:?}");
    }
}
