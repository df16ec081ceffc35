//! The arithmetic behind every reported number: medians, nearest-rank
//! percentiles, the tail rung, self time, and differential time.

/// Samples a tail percentile must have strictly beyond it to be reported.
pub const MIN_BEYOND: u64 = 10;

/// Median of `values`; the mean of the two middle values for an even count.
///
/// # Panics
///
/// Panics if `values` is empty — a metric with no sample is a benchmark bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank sample at quantile `q` of an ascending slice: the
/// smallest sample with at least `q` of the samples at or below it.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A tail percentile `1 - m / 10^k`, kept as integers so the count of
/// samples beyond it is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rung {
    /// Numerator `m` of the tail share.
    pub m: u64,
    /// Denominator `10^k` of the tail share.
    pub den: u64,
}

impl Rung {
    /// The percentile as a fraction, e.g. `0.98` for p98.
    pub fn quantile(self) -> f64 {
        1.0 - self.m as f64 / self.den as f64
    }

    /// Samples strictly beyond this percentile among `n`.
    pub fn beyond(self, n: u64) -> u64 {
        n * self.m / self.den
    }
}

/// The highest percentile of the ladder p50, p80, p90, p98, p99, p99.8,
/// p99.9, … p99.9999 that still has at least [`MIN_BEYOND`] of `n`
/// samples beyond it; `None` when even the median has fewer.
pub fn tail_rung(n: u64) -> Option<Rung> {
    let mut best = None;
    let mut ladder = vec![Rung { m: 1, den: 2 }];
    let mut den = 10;
    while den <= 1_000_000 {
        ladder.push(Rung { m: 2, den });
        ladder.push(Rung { m: 1, den });
        den *= 10;
    }
    for rung in ladder {
        if rung.beyond(n) >= MIN_BEYOND {
            best = Some(rung);
        }
    }
    best
}

/// The tail sample of an ascending slice at [`tail_rung`]: the sample
/// with exactly `rung.beyond(n)` samples above it.
pub fn tail_sample(sorted: &[u64]) -> Option<(Rung, u64)> {
    let n = sorted.len() as u64;
    let rung = tail_rung(n)?;
    Some((rung, sorted[(n - rung.beyond(n) - 1) as usize]))
}

/// A layer's self time: its span minus the spans of the layers it called.
pub fn self_time(total: f64, children: &[f64]) -> f64 {
    total - children.iter().sum::<f64>()
}

/// Time a feature adds: the median of the passes with it minus the
/// median of the same passes without it. Noise can make it negative; it
/// is reported as measured.
pub fn differential(with: &[f64], without: &[f64]) -> f64 {
    median(with) - median(without)
}

/// A 64-bit FNV-1a fingerprint, folded over every byte of a pass's
/// outputs so passes can be compared without keeping their bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds `bytes` into the fingerprint.
    pub fn add(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn nearest_rank_picks_a_sample() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&sorted, 0.5), 50);
        assert_eq!(nearest_rank(&sorted, 0.99), 99);
        assert_eq!(nearest_rank(&sorted, 1.0), 100);
        assert_eq!(nearest_rank(&sorted, 0.0), 1);
    }

    #[test]
    fn tail_rung_keeps_ten_samples_beyond() {
        // 800 apps: p99 has only 8 beyond, so p98 (16 beyond) is reported.
        assert_eq!(tail_rung(800), Some(Rung { m: 2, den: 100 }));
        // 20 000 apps: p99.9 has 20 beyond; p99.98 would have 4.
        assert_eq!(tail_rung(20_000), Some(Rung { m: 1, den: 1_000 }));
        // Exactly ten beyond qualifies.
        assert_eq!(tail_rung(1_000), Some(Rung { m: 1, den: 100 }));
        assert_eq!(tail_rung(999), Some(Rung { m: 2, den: 100 }));
        assert_eq!(tail_rung(20), Some(Rung { m: 1, den: 2 }));
        assert_eq!(tail_rung(19), None);
        for n in [20, 57, 800, 999, 1_000, 20_000, 901_234, 10_000_000] {
            let rung = tail_rung(n).unwrap();
            assert!(rung.beyond(n) >= MIN_BEYOND, "n={n}");
        }
    }

    #[test]
    fn tail_sample_has_exactly_beyond_samples_above_it() {
        let sorted: Vec<u64> = (0..800).collect();
        let (rung, value) = tail_sample(&sorted).unwrap();
        assert_eq!(rung.beyond(800), 16);
        assert_eq!(sorted.iter().filter(|&&v| v > value).count(), 16);
        assert!((rung.quantile() - 0.98).abs() < 1e-12);
        assert_eq!(tail_sample(&[1, 2, 3]), None);
    }

    #[test]
    fn self_time_subtracts_every_child_span() {
        assert_eq!(self_time(10.0, &[]), 10.0);
        assert_eq!(self_time(10.0, &[6.0, 1.5]), 2.5);
        // Children that overrun the parent (clock skew) yield a negative
        // self time rather than a clamped zero.
        assert!(self_time(1.0, &[0.75, 0.5]) < 0.0);
    }

    #[test]
    fn differential_compares_medians_not_single_passes() {
        let with = [5.0, 9.0, 5.5];
        let without = [2.0, 2.5, 1.0];
        assert_eq!(differential(&with, &without), 5.5 - 2.0);
        // An outlier pass on either side does not move the difference.
        assert_eq!(differential(&[5.0, 50.0, 5.5], &[2.0, 2.5, 1.0]), 5.5 - 2.0);
        assert!(differential(&[1.0], &[1.25]) < 0.0);
    }

    #[test]
    fn fingerprint_separates_different_outputs() {
        let mut a = Fingerprint::default();
        a.add(b"report");
        let mut b = Fingerprint::default();
        b.add(b"report");
        assert_eq!(a, b);
        b.add(b"!");
        assert_ne!(a, b);
    }
}
