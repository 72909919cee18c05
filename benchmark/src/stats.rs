//! Small numeric helpers: order statistics and the seeded generator
//! every workload derives its inputs from.

/// SplitMix64: the benchmark's only source of randomness, so one
/// `--seed` fixes ring start offsets, post schedules and the sim
/// fabric without pulling a dependency in.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at
    /// the sizes used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Nearest-rank quantile of an already sorted slice (`0.0` when
/// empty): the smallest sample with at least `q` of the mass at or
/// below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sort in place and return the median (mean of the middle pair for
/// an even count; `0.0` when empty).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Interquartile range as a share of the median, with the quartiles
/// Python's `statistics.quantiles(values, n=4)` gives (exclusive
/// method) — the spread rule the benchmark contract uses.
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    let med = median(&mut v);
    if v.len() < 2 || med == 0.0 {
        return 0.0;
    }
    let at = |p: f64| {
        // position p*(n+1), 1-based, clamped to the sample range
        let pos = (p * (v.len() as f64 + 1.0)).clamp(1.0, v.len() as f64);
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * (pos - lo as f64)
    };
    (at(0.75) - at(0.25)) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_quantile() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert_eq!(quantile(&v, 0.99), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn splitmix_is_seed_deterministic() {
        let (mut a, mut b) = (SplitMix(7), SplitMix(7));
        assert_eq!(a.next(), b.next());
        assert_ne!(SplitMix(7).next(), SplitMix(8).next());
    }
}
