//! Order statistics used by every workload.

use std::time::{Duration, Instant};

/// The `p`-th percentile (0 ≤ p ≤ 100) of `values` by linear
/// interpolation between closest ranks (NumPy's default method). Sorts
/// a copy; returns `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// Median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Arithmetic mean (`None` when empty).
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// The highest of `candidates` (percentiles, ascending) that leaves at
/// least ten samples above it among `n` samples, so a reported tail is
/// never read off fewer than ten values. Falls back to the median.
pub fn supported_tail(n: usize, candidates: &[f64]) -> f64 {
    candidates
        .iter()
        .rev()
        .copied()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0)
        .unwrap_or(50.0)
}

/// A sustained rate over `[start, end)`: each `(time, amount)` event
/// (in time order) is credited evenly over the interval since the event
/// before it, the interval is cut into whole `window`s, and the median
/// window rate is returned — so a burst of contention shorter than half
/// the interval cannot move it. `None` without a whole window.
pub fn windowed_rate(
    start: Instant,
    end: Instant,
    events: &[(Instant, f64)],
    window: Duration,
) -> Option<f64> {
    let w = window.as_secs_f64();
    let n = (end.saturating_duration_since(start).as_secs_f64() / w) as usize;
    let at = |t: Instant| {
        if t >= start {
            t.duration_since(start).as_secs_f64()
        } else {
            -start.duration_since(t).as_secs_f64()
        }
    };
    let mut sums = vec![0.0; n];
    for pair in events.windows(2) {
        let (a, b, amount) = (at(pair[0].0), at(pair[1].0), pair[1].1);
        if b <= a {
            continue;
        }
        for (k, sum) in sums.iter_mut().enumerate() {
            let (lo, hi) = (k as f64 * w, (k + 1) as f64 * w);
            let overlap = b.min(hi) - a.max(lo);
            if overlap > 0.0 {
                *sum += amount * overlap / (b - a);
            }
        }
    }
    let rates: Vec<f64> = sums.iter().map(|s| s / w).collect();
    median(&rates)
}

/// Quartiles `(q1, q2, q3)`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method,
/// which extrapolates past the extremes for very small samples). Needs
/// at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len() as i64;
    let m = len + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&v, 50.0), Some(2.5));
        assert!((percentile(&v, 90.0).unwrap() - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 15.0, 22.5)));
        // statistics.quantiles([5, 1, 4, 2, 3, 9, 7], n=4) == [2.0, 4.0, 7.0]
        assert_eq!(
            quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]),
            Some((2.0, 4.0, 7.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn windowed_rate_credits_each_event_over_its_interval() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // 10 units every 250 ms from t = 0: 40/s in every window.
        let steady: Vec<(Instant, f64)> = (0..=16).map(|i| (at(i * 250), 10.0)).collect();
        let rate = windowed_rate(at(0), at(3999), &steady, Duration::from_secs(1)).unwrap();
        assert!((rate - 40.0).abs() < 1e-9, "rate {rate}");
        // One event 1.5 s after the previous one spreads over 2 windows;
        // a stall in one window of three leaves the median at the steady rate.
        let stalled = [
            (at(0), 0.0),
            (at(1000), 50.0),
            (at(2500), 30.0),
            (at(3000), 50.0),
        ];
        let rate = windowed_rate(at(0), at(3000), &stalled, Duration::from_secs(1)).unwrap();
        assert!((rate - 50.0).abs() < 1e-9, "rate {rate}");
        assert_eq!(
            windowed_rate(at(0), at(500), &steady, Duration::from_secs(1)),
            None
        );
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(1000, &[90.0, 99.0]), 99.0);
        assert_eq!(supported_tail(999, &[90.0, 99.0]), 90.0);
        assert_eq!(supported_tail(100, &[90.0, 99.0]), 90.0);
        assert_eq!(supported_tail(50, &[90.0, 99.0]), 50.0);
    }
}
