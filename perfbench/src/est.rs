//! Order statistics and the recall-matched interpolation.
//!
//! The host these figures were tuned on drifts by tens of percent over
//! phases lasting seconds, so a run reduces each phase to one figure per
//! short window and reports the median over windows; open-loop latency
//! percentiles, which host stalls only ever raise, report the lowest window.
//! Percentiles come from raw samples, never from histogram buckets.

/// `p`-quantile (0 ≤ p ≤ 1) of `values`, linear between order statistics.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The point of a ladder where `recall` first reaches `target`, interpolated
/// linearly between the two bracketing rungs: returns `(t, lo)` such that the
/// value at the target is `y[lo] + t · (y[lo + 1] − y[lo])`. `None` when the
/// ladder does not bracket the target.
pub fn bracket(recall: &[f64], target: f64) -> Option<(f64, usize)> {
    let hi = recall.iter().position(|&r| r >= target)?;
    if hi == 0 {
        return None;
    }
    let lo = hi - 1;
    let t = (target - recall[lo]) / (recall[hi] - recall[lo]);
    Some((t, lo))
}

pub fn lerp(y: &[f64], (t, lo): (f64, usize)) -> f64 {
    y[lo] + t * (y[lo + 1] - y[lo])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn bracket_finds_the_crossing() {
        let recall = [0.90, 0.94, 0.96, 0.99];
        let at = bracket(&recall, 0.95).expect("bracketed");
        assert_eq!(at.1, 1);
        assert!((lerp(&[10.0, 20.0, 30.0, 40.0], at) - 25.0).abs() < 1e-9);
        assert!(
            bracket(&recall, 0.80).is_none(),
            "target below the lowest rung"
        );
        assert!(
            bracket(&recall, 0.999).is_none(),
            "target above the highest rung"
        );
    }
}
