//! Order statistics over samples.

/// The median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by the nearest-rank rule (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The tail of `xs`, with its percentile and the sample count: the
/// `cap`-quantile, or, with too few samples for it, the highest percentile
/// that still has at least ten samples above it (the maximum with ten
/// samples or fewer). The cap keeps the tail of long runs off the rare
/// hiccups of a shared host.
pub fn tail(xs: &[f64], cap: f64) -> (f64, f64, usize) {
    let n = xs.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = if n <= 10 {
        n
    } else {
        (n - 10).min((cap * n as f64).ceil() as usize)
    };
    (v[rank - 1], 100.0 * rank as f64 / n as f64, n)
}

/// `xs` as floats.
pub fn floats(xs: &[u64]) -> Vec<f64> {
    xs.iter().map(|x| *x as f64).collect()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_above() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, pct, n) = tail(&xs, 0.99);
        assert_eq!((v, n), (90.0, 100));
        assert!((pct - 90.0).abs() < 1e-9);
        assert_eq!(xs.iter().filter(|x| **x > v).count(), 10);
        assert_eq!(tail(&[3.0, 1.0], 0.99), (3.0, 100.0, 2));
        let many: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&many, 0.99).0, 4950.0);
        assert_eq!(tail(&many, 0.9).0, 4500.0);
    }

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 1.0), 4.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
