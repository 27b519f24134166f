//! Summary statistics, seeded randomness and hashing shared by every
//! workload. No dependencies: the generator is an inline splitmix64 and the
//! digest is FNV-1a, so inputs and digests repeat exactly on any host.

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// no samples.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The `n - 1` cut points dividing `v` into `n` groups, by the default
/// ("exclusive") method of Python's `statistics.quantiles`, which is how the
/// benchmark's spread is judged. One sample repeats itself; none gives zeros.
pub fn quantiles(v: &[f64], n: usize) -> Vec<f64> {
    let s = sorted(v);
    let ld = s.len();
    if ld < 2 {
        return vec![s.first().copied().unwrap_or(0.0); n - 1];
    }
    let (m, n) = (ld as i64 + 1, n as i64);
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld as i64 - 1);
            // Negative or beyond-n at the clamped ends: Python extrapolates.
            let delta = (i * m - j * n) as f64;
            let j = j as usize;
            (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
        })
        .collect()
}

/// First and third quartile of `v`.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let q = quantiles(v, 4);
    (q[0], q[2])
}

/// The `p`-th percentile (0–100) of `v`, linearly interpolated between
/// closest ranks; 0 for no samples.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// Geometric mean of positive samples; 0 for no samples.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// splitmix64: the whole input set of a run derives from `--seed` through it.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `0..n` in a seeded order (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// FNV-1a offset basis: the digest of nothing.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a digest `h`.
pub fn fnv64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&v, 4), vec![2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quantiles(&[3.0, 1.0, 2.0], 4), vec![1.0, 2.0, 3.0]);
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5] (extrapolated)
        assert_eq!(quantiles(&[7.0, 5.0], 4), vec![4.5, 6.0, 7.5]);
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn percentile_interpolates_and_keeps_ten_samples_beyond_p95() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        // With 200 samples, p95 leaves ten samples strictly above it.
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        let p = percentile(&v, 95.0);
        assert_eq!(v.iter().filter(|&&x| x > p).count(), 10);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn splitmix_is_seed_deterministic() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix64::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = SplitMix64::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(SplitMix64::new(8).next_u64(), a[0]);
        let mut p = SplitMix64::new(3).permutation(24);
        p.sort_unstable();
        assert_eq!(p, (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn fnv_matches_reference_vector() {
        assert_eq!(fnv64(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
