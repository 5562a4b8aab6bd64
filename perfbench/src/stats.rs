//! Sample statistics: nearest-rank quantiles, medians, and the rule for
//! which tail percentile a sample can support.

/// The percentile ladder a tail is reported on, in parts per ten thousand.
const LADDER: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// Samples that must lie beyond a reported percentile.
pub const BEYOND: usize = 10;

/// The highest ladder percentile (as a fraction) with at least [`BEYOND`]
/// samples beyond its nearest-rank value, or `None` when even the median
/// is unsupported.
pub fn supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .find(|&&p| {
            let rank = (p * n as u64).div_ceil(10_000) as usize;
            n - rank >= BEYOND
        })
        .map(|&p| p as f64 / 10_000.0)
}

/// Nearest-rank quantile of an ascending sample. `None` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts a sample in place (total order; NaN never occurs in timings).
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(f64::total_cmp);
}

/// The median of an unsorted sample (the mean of the middle pair when
/// the count is even). `0.0` when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank lower quartile of an unsorted sample of per-window
/// figures. Other tenants of a shared host only ever add latency, and a
/// slow spell of theirs elevates many consecutive windows, sometimes more
/// than half of a run's; the windows they spared estimate the program's
/// own latency most steadily, and a change to the program moves every
/// window. `0.0` when empty.
pub fn lower_quartile(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    sort(&mut v);
    quantile(&v, 0.25).unwrap_or(0.0)
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Samples a p50 window holds at least.
const P50_WINDOW: usize = 200;

/// p50 and p99 of each of the consecutive windows of a latency sample in
/// arrival order, at most `windows` of each: p50 windows of at least 200
/// samples, p99 windows of at least 1000, so p99 has ten samples beyond
/// it in every window. The caller reports a quantile over windows, so
/// one bad second moves one window, not the result. Errors when the
/// sample cannot support p99 at all.
pub fn windowed_p50_p99(
    label: &str,
    xs: &[f64],
    windows: usize,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let need = BEYOND * 100;
    if xs.len() < need {
        return Err(format!(
            "{label}: {} samples cannot support p99 (need {need})",
            xs.len()
        ));
    }
    Ok((
        windowed(xs, 0.5, P50_WINDOW, windows),
        windowed(xs, 0.99, need, windows),
    ))
}

/// The `q`-quantile of each of `xs`'s consecutive windows: as many
/// windows as `xs` fills with at least `min_len` samples, at most
/// `windows`; the last window takes the remainder.
fn windowed(xs: &[f64], q: f64, min_len: usize, windows: usize) -> Vec<f64> {
    let k = windows.clamp(1, (xs.len() / min_len).max(1));
    let per = xs.len() / k;
    (0..k)
        .map(|w| {
            let end = if w + 1 == k { xs.len() } else { (w + 1) * per };
            let mut win = xs[w * per..end].to_vec();
            sort(&mut win);
            quantile(&win, q).expect("non-empty")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(0.5));
        assert_eq!(supported_percentile(99), Some(0.5));
        assert_eq!(supported_percentile(100), Some(0.9));
        assert_eq!(supported_percentile(999), Some(0.9));
        assert_eq!(supported_percentile(1000), Some(0.99));
        assert_eq!(supported_percentile(9_999), Some(0.99));
        assert_eq!(supported_percentile(10_000), Some(0.999));
        assert_eq!(supported_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn p99_is_refused_below_a_thousand_samples_and_windowed_above() {
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        let err = windowed_p50_p99("ack", &few, 5).unwrap_err();
        assert!(err.contains("999 samples"), "{err}");
        let one: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(
            windowed_p50_p99("ack", &one, 5).unwrap(),
            (vec![900.0, 700.0, 500.0, 300.0, 100.0], vec![990.0])
        );
        // three windows of 1000; one of them has a stall in its tail
        let mut three: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000 + 1)).collect();
        for x in &mut three[1980..2000] {
            *x = 1e6;
        }
        let (p50s, p99s) = windowed_p50_p99("ack", &three, 5).unwrap();
        assert_eq!(p50s.len(), 5);
        assert_eq!(p99s, vec![990.0, 1e6, 990.0]);
        assert_eq!((median(&p50s), median(&p99s)), (500.0, 990.0));
    }

    #[test]
    fn nearest_rank_quantiles_and_medians() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.5), Some(2.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(
            lower_quartile(&[8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0]),
            2.0
        );
        assert_eq!(lower_quartile(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
