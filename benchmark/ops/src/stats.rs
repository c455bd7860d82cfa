//! Summaries of timing samples.

/// The median of `values` (mean of the two middle values for an even
/// count). Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The value a tenth of the way into the sorted samples from their fast
/// end — the low end for times, the high end for rates.
///
/// Why not the median: on a shared host a neighbour on the same core
/// slows everything by 30–45% for seconds to minutes at a time, and only
/// ever slows. The share of a run spent disturbed swings from a fifth to
/// four fifths between runs of identical code, so the median lands now in
/// the undisturbed population, now in the disturbed one. The fast decile
/// stays inside the undisturbed population as long as a tenth of the run
/// was undisturbed.
pub fn fast_decile(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "fast decile of no samples");
    if higher_is_better {
        v.reverse();
    }
    v[v.len() / 10]
}

/// `(q3 − q1) / median`, with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives (its default "exclusive"
/// method) — the spread the driver computes over repeated runs, printed
/// here over a run's passes. 0 for fewer than two samples.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)) / med
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn fast_decile_picks_the_fast_end() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(fast_decile(&v, false), 3.0);
        assert_eq!(fast_decile(&v, true), 18.0);
        assert_eq!(fast_decile(&[5.0], false), 5.0);
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((quartile_spread(&[1.0, 2.0, 4.0]) - 1.5).abs() < 1e-12);
    }
}
