//! A Zipfian sampler over `{0, …, n-1}` with exponent `s`.
//!
//! Implemented by inverse-CDF lookup over the precomputed cumulative weights
//! `w_i = 1 / (i+1)^s`, which is exact and fast enough for workload
//! generation (the table is built once per generator).

use snow_core::hash::SplitMix;

/// A Zipfian distribution over `n` items with skew exponent `s`.
///
/// `s = 0` is the uniform distribution; `s ≈ 0.99` is the YCSB default and a
/// common model for social-graph read popularity.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is negative / non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one item");
        assert!(s.is_finite() && s >= 0.0, "Zipf exponent must be non-negative");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cumulative.push(total);
        }
        // Normalise.
        for c in cumulative.iter_mut() {
            *c /= total;
        }
        Zipf { cumulative }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True if the distribution has a single item.
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Samples an index in `0..n`, most popular first.
    #[inline]
    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.unit();
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("finite weights"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }

    /// The probability mass of item `i`.
    pub fn mass(&self, i: usize) -> f64 {
        if i >= self.cumulative.len() {
            return 0.0;
        }
        if i == 0 {
            self.cumulative[0]
        } else {
            self.cumulative[i] - self.cumulative[i - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masses_sum_to_one_and_decrease() {
        let z = Zipf::new(100, 0.99);
        let total: f64 = (0..100).map(|i| z.mass(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(z.mass(0) > z.mass(1));
        assert!(z.mass(1) > z.mass(50));
        assert_eq!(z.mass(1000), 0.0);
        assert_eq!(z.len(), 100);
        assert!(!z.is_empty());
    }

    #[test]
    fn uniform_when_exponent_is_zero() {
        let z = Zipf::new(10, 0.0);
        for i in 0..10 {
            assert!((z.mass(i) - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn samples_are_in_range_and_skewed() {
        let z = Zipf::new(50, 1.2);
        let mut rng = SplitMix::new(7);
        let mut counts = vec![0usize; 50];
        for _ in 0..20_000 {
            let i = z.sample(&mut rng);
            assert!(i < 50);
            counts[i] += 1;
        }
        // The most popular item should dominate the median item.
        assert!(counts[0] > counts[25] * 4);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let z = Zipf::new(20, 0.8);
        let a: Vec<usize> = {
            let mut rng = SplitMix::new(1);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = SplitMix::new(1);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn zero_items_rejected() {
        let _ = Zipf::new(0, 1.0);
    }
}
