use perfbench::stats::{median, range_pct, samples_for_tail, tail_percentile};

fn ramp(n: usize) -> Vec<f64> {
    // Shuffled so the functions must sort.
    let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
    v.reverse();
    v
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn p90_needs_ten_samples_beyond_it() {
    // 100 samples: the nearest-rank p90 is the 90th, with 10 beyond.
    assert_eq!(tail_percentile(&ramp(100), 0.9, 10), Some(90.0));
    // 99 samples leave only 9 beyond the p90.
    assert_eq!(tail_percentile(&ramp(99), 0.9, 10), None);
    assert_eq!(samples_for_tail(0.9, 10), 100);
    let n = samples_for_tail(0.9, 10);
    assert!(tail_percentile(&ramp(n), 0.9, 10).is_some());
    assert!(tail_percentile(&ramp(n - 1), 0.9, 10).is_none());
}

#[test]
fn tail_percentile_rejects_empty_input_and_bad_quantiles() {
    assert_eq!(tail_percentile(&[], 0.9, 0), None);
    assert_eq!(tail_percentile(&ramp(10), 1.5, 0), None);
    assert_eq!(tail_percentile(&ramp(10), 1.0, 0), Some(10.0));
}

#[test]
fn range_is_a_share_of_the_median() {
    assert_eq!(range_pct(&[9.0, 10.0, 11.0]), 20.0);
}
