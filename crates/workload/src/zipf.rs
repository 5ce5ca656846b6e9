//! A Zipfian sampler over `{0, …, n-1}` with exponent `s`.
//!
//! Implemented by inverse-CDF lookup over the precomputed cumulative weights
//! `w_i = 1 / (i+1)^s` (the table is built once per generator).  A draw
//! `u` in `[0, 1)` picks the first item whose cumulative weight is not
//! below it: the count of table entries below `u`, clamped to `n − 1`.
//!
//! The lookup is a fixed-trip lower bound: `⌈log₂ n⌉` halvings of the
//! window, each a select the compiler must not turn back into a branch
//! (`std::hint::select_unpredictable`).  The trip count depends only on
//! `n`, so the loop's one branch is always predicted; a search that
//! branches on the comparison mispredicts on about half its halvings,
//! because `u` is uniform, and that, not the search's length, is what a
//! draw cost.

use snow_core::hash::SplitMix;
use std::hint::select_unpredictable;

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

    /// Samples an index in `0..n`, most popular first: the count of table
    /// entries below one uniform draw, clamped to `n − 1`.
    #[inline]
    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        self.lookup(rng.unit())
    }

    /// The count of table entries below `u`, clamped to `n − 1`.
    #[inline]
    fn lookup(&self, u: f64) -> usize {
        let table = &self.cumulative[..];
        // The count lies in `[base, base + len]`; each halving keeps the
        // half it lies in, without a branch on the comparison.
        let (mut base, mut len) = (0, table.len());
        while len > 1 {
            let half = len / 2;
            base = select_unpredictable(table[base + half] < u, base + half, base);
            len -= half;
        }
        (base + usize::from(table[base] < u)).min(table.len() - 1)
    }

    /// How many items have nonzero mass: the first, and each whose
    /// cumulative weight rises above its predecessor's.  A steep exponent
    /// leaves the tail's weights below the total's precision, so the table
    /// stops rising and no draw can reach those items.
    pub fn items_with_mass(&self) -> usize {
        1 + self.cumulative.windows(2).filter(|w| w[1] > w[0]).count()
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

    /// The lookup returns what a `binary_search_by` over the table returned
    /// (the model below), on every table of up to 300 items at five
    /// exponents: for random draws, and for draws equal to each entry and
    /// one step either side of it.
    #[test]
    fn lookup_equals_the_binary_search_it_replaced() {
        fn searched(z: &Zipf, u: f64) -> usize {
            match z.cumulative.binary_search_by(|c| c.partial_cmp(&u).expect("finite weights")) {
                Ok(i) => i,
                Err(i) => i.min(z.cumulative.len() - 1),
            }
        }
        let mut rng = SplitMix::new(60);
        for s in [0.0, 0.6, 0.99, 1.2, 3.0] {
            for n in 1..=300 {
                let z = Zipf::new(n, s);
                let entries = z.cumulative.iter().flat_map(|&c| [c.next_down(), c, c.next_up()]);
                let random = (0..64).map(|_| rng.unit());
                for u in entries.chain(random).chain([0.0]) {
                    assert_eq!(z.lookup(u), searched(&z, u), "n = {n}, s = {s}, u = {u}");
                }
            }
        }
    }

    #[test]
    fn a_steep_exponent_leaves_items_without_mass() {
        assert_eq!(Zipf::new(8, 10.0).items_with_mass(), 8);
        assert_eq!(Zipf::new(8, 60.0).items_with_mass(), 1);
        assert_eq!(Zipf::new(1, 0.0).items_with_mass(), 1);
        assert_eq!(Zipf::new(300, 3.0).items_with_mass(), 300);
    }

    #[test]
    #[should_panic]
    fn zero_items_rejected() {
        let _ = Zipf::new(0, 1.0);
    }
}
