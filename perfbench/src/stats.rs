//! Order statistics for timing samples.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-quantile of `xs`, provided at least `min_beyond`
/// samples lie strictly beyond it in sorted order; `None` otherwise.
///
/// A tail percentile read off fewer than ten samples beyond it says more
/// about one unlucky sample than about the tail, so the benchmark asks for
/// `min_beyond = 10` and extends its window until that holds.
pub fn tail_percentile(xs: &[f64], q: f64, min_beyond: usize) -> Option<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let s = sorted(xs);
    let n = s.len();
    let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    (n - 1 - idx >= min_beyond).then(|| s[idx])
}

/// Smallest sample count for which [`tail_percentile`] at `q` has
/// `min_beyond` samples beyond it.
pub fn samples_for_tail(q: f64, min_beyond: usize) -> usize {
    (1..)
        .find(|&n| {
            let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
            n - 1 - idx >= min_beyond
        })
        .expect("some count satisfies the tail rule")
}

/// Spread of `xs` as a percentage of their median: `(max - min) / median`.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn range_pct(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let mid = median(&s);
    (s[s.len() - 1] - s[0]) / mid * 100.0
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
