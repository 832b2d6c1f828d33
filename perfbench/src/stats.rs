//! Order statistics used by the report: median, quartiles, and the tail
//! rule behind `plan_ms_tail`.

/// Sorted copy of `xs` (total order, so NaN cannot reorder the rest).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a non-empty sample.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// The tail of a latency sample: the highest percentile that still has at
/// least ten samples above it, by nearest rank. With `n` samples sorted
/// ascending, that is the value at index `n - 11` and the percentile
/// `100 (n - 10) / n`. Fewer than eleven samples have no such percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at the tail percentile.
    pub value: f64,
    /// The percentile, in `(0, 100)`.
    pub percentile: f64,
    /// Samples the tail was taken over.
    pub samples: usize,
}

/// Samples that must lie beyond the tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// See [`Tail`].
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let v = sorted(xs);
    Some(Tail {
        value: v[n - TAIL_BEYOND - 1],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
    })
}

/// The `p`-th percentile (0–100) by nearest rank, as the simulator's own
/// completion-time summaries compute it.
pub fn nearest_rank(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let rank = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
    Some(v[rank.min(v.len() - 1)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_above() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_is_order_insensitive_and_needs_eleven_samples() {
        let mut xs: Vec<f64> = (0..11).map(|i| f64::from(i * 7 % 11)).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 0.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
        xs.pop();
        assert_eq!(tail(&xs), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_percentile_rises_with_sample_count() {
        let small: Vec<f64> = (0..20).map(f64::from).collect();
        let large: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&small).unwrap().percentile, 50.0);
        assert_eq!(tail(&large).unwrap().percentile, 99.0);
        assert_eq!(tail(&large).unwrap().value, 989.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(quantile(&xs, 0.25), Some(1.75));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_matches_simulator_convention() {
        let xs: Vec<f64> = (0..21).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 95.0), Some(19.0));
        assert_eq!(nearest_rank(&xs, 0.0), Some(0.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }
}
