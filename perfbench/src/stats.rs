//! Exact order statistics over retained samples.
//!
//! Every percentile the benchmark prints comes from here, computed from the
//! raw samples of the run. Bucketed estimators (such as
//! `vc_obs::Histogram::quantiles`, which returns the upper bound of a
//! power-of-two bucket) would print the same number for latencies that
//! differ by tens of percent.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, interpolating linearly
/// between the two closest ranks: position `q · (n − 1)` in sorted order.
/// This is the "inclusive" definition of Python's `statistics.quantiles`
/// and numpy's default. `None` for an empty slice.
///
/// Runs in linear time by selection on a copy; the input is left as is.
///
/// # Panics
///
/// When `q` is outside `[0, 1]` or a sample is NaN.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("NaN sample");
    let (_, &mut lo_val, upper) = v.select_nth_unstable_by(lo, cmp);
    if frac == 0.0 {
        return Some(lo_val);
    }
    // The next rank is the smallest element above the selected one.
    let hi_val = upper.iter().copied().min_by(cmp).expect("frac > 0 implies a next rank");
    Some(lo_val + (hi_val - lo_val) * frac)
}

/// The median of `samples` (`percentile(samples, 0.5)`).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_sim::rng::SimRng;

    /// Reference: full sort, then interpolate between the two ranks.
    fn oracle(samples: &[f64], q: f64) -> f64 {
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pos = q * (s.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
    }

    #[test]
    fn matches_sorted_array_oracle() {
        let mut rng = SimRng::seed_from(11);
        for n in [1usize, 2, 3, 7, 10, 199, 200, 201, 1000] {
            // Duplicates included: draw from a small value range half the time.
            let span = if n % 2 == 0 { 5.0 } else { 1e6 };
            let samples: Vec<f64> = (0..n).map(|_| (rng.f64() * span).floor()).collect();
            for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0, rng.f64()] {
                let got = percentile(&samples, q).unwrap();
                let want = oracle(&samples, q);
                assert!((got - want).abs() <= 1e-9 * want.abs().max(1.0), "n={n} q={q}");
            }
        }
    }

    #[test]
    fn small_cases_and_input_untouched() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0]), Some(2.5));
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        assert_eq!(percentile(&samples, 1.0), Some(5.0));
        assert_eq!(percentile(&samples, 0.95), Some(4.8));
        assert_eq!(samples, [5.0, 1.0, 4.0, 2.0, 3.0]);
    }

    #[test]
    fn distinguishes_latencies_a_power_of_two_bucket_merges() {
        // 9 ms vs 15 ms both fall in the (8192, 16384] µs bucket.
        let a = vec![9.0; 300];
        let b = vec![15.0; 300];
        assert_ne!(median(&a), median(&b));
    }
}
