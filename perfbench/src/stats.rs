//! The benchmark's own arithmetic: medians, quartiles, the tail-percentile
//! rule, interval self time and failure fractions.

/// Sorted copy of `xs` (NaN-free input assumed; NaN sorts last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median; the mean of the two middle values for an even count, 0 for an
/// empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the default `exclusive` method).
/// A single value is its own quartiles; an empty slice gives zeros.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    // Integer arithmetic as in CPython; `delta` goes negative when the
    // clamp lifts `j`, so it is signed.
    let (n, m) = (4i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread a bound is compared against. 0 when the median is 0.
pub fn spread(xs: &[f64]) -> f64 {
    let q = quartiles(xs);
    let med = median(xs);
    if med == 0.0 {
        0.0
    } else {
        (q[2] - q[0]) / med
    }
}

/// A latency tail: the value at the highest nearest-rank percentile that
/// still has at least ten samples above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile (0–100] the value sits at.
    pub pct: f64,
    /// The latency at that percentile.
    pub value: f64,
    /// Samples strictly above it in rank.
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

/// Highest percentile with at least ten samples beyond it. With ten or
/// fewer samples no percentile qualifies, and the maximum is reported
/// instead (`beyond` = 0 says so).
pub fn tail(xs: &[f64]) -> Tail {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return Tail {
            pct: 0.0,
            value: 0.0,
            beyond: 0,
            n,
        };
    }
    let idx = if n > 10 { n - 11 } else { n - 1 };
    Tail {
        pct: 100.0 * (idx + 1) as f64 / n as f64,
        value: v[idx],
        beyond: n - 1 - idx,
        n,
    }
}

/// Failed jobs as a share of attempted ones.
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Total length of the union of `intervals` (`(start, end)` pairs),
/// each clipped to `[lo, hi]`.
pub fn covered(lo: f64, hi: f64, intervals: &[(f64, f64)]) -> f64 {
    let mut iv: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| e > s)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of a span `[start, end]`: its duration minus the part of it
/// that the union of its child spans covers.
pub fn self_time(start: f64, end: f64, children: &[(f64, f64)]) -> f64 {
    (end - start) - covered(start, end, children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&xs);
        assert!(
            close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
            "{q:?}"
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[2.0, 1.0]);
        assert!(
            close(q[0], 0.75) && close(q[1], 1.5) && close(q[2], 2.25),
            "{q:?}"
        );
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        let q = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!(
            close(q[0], 1.5) && close(q[1], 3.0) && close(q[2], 4.5),
            "{q:?}"
        );
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(spread(&xs), (8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[4.0; 10]), 0.0);
        assert_eq!(spread(&[0.0; 3]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples 1..=100: rank 90 has exactly 10 above it.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.beyond, t.n), (90.0, 10, 100));
        assert!(close(t.pct, 90.0));
        // 11 samples: the minimum is the only rank with 10 above it.
        let xs: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.beyond), (1.0, 10));
        // 25 samples: rank 15.
        let xs: Vec<f64> = (1..=25).map(f64::from).collect();
        assert_eq!(tail(&xs).value, 15.0);
    }

    #[test]
    fn tail_falls_back_to_the_maximum_below_eleven_samples() {
        let t = tail(&[2.0, 9.0, 4.0]);
        assert_eq!((t.value, t.beyond, t.n), (9.0, 0, 3));
        assert!(close(t.pct, 100.0));
        assert_eq!(tail(&[]).n, 0);
    }

    #[test]
    fn failed_frac_counts_against_attempts() {
        assert_eq!(failed_frac(0, 40), 0.0);
        assert_eq!(failed_frac(3, 12), 0.25);
        assert_eq!(failed_frac(0, 0), 0.0);
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // [0, 10] with children [1, 3] and [5, 6]: 3 covered, 7 self.
        assert!(close(self_time(0.0, 10.0, &[(1.0, 3.0), (5.0, 6.0)]), 7.0));
        assert!(close(self_time(0.0, 10.0, &[]), 10.0));
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two threads' children overlapping on [2, 4]: union [1, 6] = 5.
        assert!(close(self_time(0.0, 10.0, &[(1.0, 4.0), (2.0, 6.0)]), 5.0));
        // A child contained in another adds nothing.
        assert!(close(self_time(0.0, 10.0, &[(1.0, 8.0), (2.0, 3.0)]), 3.0));
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        // Start-time rounding can push a child a hair outside its parent.
        assert!(close(self_time(1.0, 5.0, &[(0.5, 2.0), (4.5, 5.5)]), 2.5));
        assert!(close(self_time(0.0, 10.0, &[(0.0, 10.0)]), 0.0));
    }
}
