//! Percentiles from raw samples. End-to-end percentiles never come from
//! the program's log-linear histograms, whose buckets are up to 12.5 %
//! wide.

#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// The `p`-th percentile (`p` in `[0, 100]`), interpolated linearly
    /// between the closest ranks of the sorted samples; 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        match v.len() {
            0 => 0.0,
            1 => v[0],
            n => {
                let rank = p.clamp(0.0, 100.0) / 100.0 * (n - 1) as f64;
                let (lo, frac) = (rank.floor() as usize, rank.fract());
                let hi = (lo + 1).min(n - 1);
                v[lo] + (v[hi] - v[lo]) * frac
            }
        }
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }
}

#[cfg(test)]
mod tests {
    use super::Samples;

    #[test]
    fn percentiles_interpolate_sorted_samples() {
        let mut s = Samples::default();
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 5.0);
        assert!((s.percentile(90.0) - 4.6).abs() < 1e-12);
        assert_eq!(Samples::default().median(), 0.0);
    }
}
