//! Binary codes via the greedy Gilbert–Varshamov construction.
//!
//! Section 6 builds the fooling set for `(βn)-Eq` from a code `C ⊆ {0,1}ⁿ`
//! with pairwise Hamming distance at least `2βn`; Gilbert–Varshamov
//! guarantees `|C| ≥ 2^{(1−H(2β))n}`. The greedy constructions here
//! realize such codes executably: exhaustive-lexicographic for small `n`,
//! randomized-greedy for larger `n`.

use crate::problems::hamming_distance;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// The binary entropy function `H(p) = −p·log₂p − (1−p)·log₂(1−p)`,
/// with `H(0) = H(1) = 0`.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
pub fn binary_entropy(p: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "entropy argument must be in [0,1]"
    );
    if p == 0.0 || p == 1.0 {
        return 0.0;
    }
    -p * p.log2() - (1.0 - p) * (1.0 - p).log2()
}

/// The Gilbert–Varshamov guarantee: a distance-`d` code of size at least
/// `2ⁿ / Vol(n, d−1)` exists, where `Vol` is the Hamming-ball volume.
/// Returned as `log₂` of the size bound (can be fractional).
pub fn gv_log2_size_bound(n: usize, d: usize) -> f64 {
    assert!(d >= 1 && d <= n, "need 1 ≤ d ≤ n");
    // log2 Vol(n, d-1) via log-sum-exp over binomials.
    let mut log_binom = 0.0f64; // log2 C(n, 0)
    let mut vol_terms = vec![0.0f64]; // log2 of each term
    for k in 1..d {
        log_binom += ((n - k + 1) as f64).log2() - (k as f64).log2();
        vol_terms.push(log_binom);
    }
    let max = vol_terms.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let log_vol = max
        + vol_terms
            .iter()
            .map(|&t| 2f64.powf(t - max))
            .sum::<f64>()
            .log2();
    n as f64 - log_vol
}

/// A binary code: a set of `n`-bit codewords with a certified minimum
/// pairwise Hamming distance.
#[derive(Clone, Debug)]
pub struct BinaryCode {
    min_distance: usize,
    words: Vec<Vec<bool>>,
}

impl BinaryCode {
    /// Certified minimum distance.
    pub fn min_distance(&self) -> usize {
        self.min_distance
    }

    /// The codewords.
    pub fn words(&self) -> &[Vec<bool>] {
        &self.words
    }

    /// Number of codewords.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the code is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// `log₂ |C|`.
    pub fn log2_size(&self) -> f64 {
        (self.words.len() as f64).log2()
    }

    /// Exhaustively re-checks the distance property (test helper; `O(|C|²n)`).
    pub fn validate(&self) -> bool {
        for i in 0..self.words.len() {
            for j in (i + 1)..self.words.len() {
                if hamming_distance(&self.words[i], &self.words[j]) < self.min_distance {
                    return false;
                }
            }
        }
        true
    }
}

/// Greedy lexicographic Gilbert–Varshamov code: scans all `2ⁿ` strings in
/// order, keeping each that is ≥ `d` away from everything kept so far.
/// Meets the GV size bound. Only for `n ≤ 22`.
///
/// # Panics
///
/// Panics if `n > 22` (use [`greedy_random_code`]) or `d` is out of range.
pub fn greedy_lexicographic_code(n: usize, d: usize) -> BinaryCode {
    assert!(n <= 22, "exhaustive greedy limited to n ≤ 22");
    assert!(d >= 1 && d <= n, "need 1 ≤ d ≤ n");
    let mut words: Vec<Vec<bool>> = Vec::new();
    for v in 0u64..(1 << n) {
        let cand: Vec<bool> = (0..n).map(|i| v >> i & 1 == 1).collect();
        if words.iter().all(|w| hamming_distance(w, &cand) >= d) {
            words.push(cand);
        }
    }
    BinaryCode {
        min_distance: d,
        words,
    }
}

/// Randomized greedy code for larger `n`: samples random candidates and
/// keeps those far from everything kept, until `target` words are found
/// or `max_attempts` candidates have been tried. Deterministic in `seed`.
pub fn greedy_random_code(
    n: usize,
    d: usize,
    target: usize,
    max_attempts: usize,
    seed: u64,
) -> BinaryCode {
    assert!(d >= 1 && d <= n, "need 1 ≤ d ≤ n");
    use rand::SeedableRng;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut words: Vec<Vec<bool>> = Vec::new();
    let mut attempts = 0;
    while words.len() < target && attempts < max_attempts {
        attempts += 1;
        let cand: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
        if words.iter().all(|w| hamming_distance(w, &cand) >= d) {
            words.push(cand);
        }
    }
    BinaryCode {
        min_distance: d,
        words,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_endpoints_and_peak() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        assert!((binary_entropy(0.5) - 1.0).abs() < 1e-12);
        assert!((binary_entropy(0.11) - binary_entropy(0.89)).abs() < 1e-12);
    }

    #[test]
    fn gv_bound_sane_values() {
        // d = 1: every string is a codeword; bound = n.
        assert!((gv_log2_size_bound(10, 1) - 10.0).abs() < 1e-9);
        // d = n: bound ≥ log2(2^n / 2^{n-?}) — at least 0, at most n.
        let b = gv_log2_size_bound(10, 10);
        assert!((0.0..=10.0).contains(&b));
        // Asymptotic flavor: rate ≥ 1 − H(d/n) approximately.
        let n = 200usize;
        let d = 20usize;
        let rate = gv_log2_size_bound(n, d) / n as f64;
        let asym = 1.0 - binary_entropy(d as f64 / n as f64);
        assert!(rate > asym - 0.08, "rate {rate} vs asymptotic {asym}");
    }

    #[test]
    fn lexicographic_code_has_distance_and_meets_gv() {
        let code = greedy_lexicographic_code(10, 4);
        assert!(code.validate());
        assert!(
            code.log2_size() >= gv_log2_size_bound(10, 4).floor(),
            "greedy {} vs GV {}",
            code.log2_size(),
            gv_log2_size_bound(10, 4)
        );
    }

    #[test]
    fn lexicographic_distance_one_is_everything() {
        let code = greedy_lexicographic_code(5, 1);
        assert_eq!(code.len(), 32);
    }

    #[test]
    fn lexicographic_distance_n_is_two_words() {
        // Only 0…0 and 1…1 are at distance n.
        let code = greedy_lexicographic_code(6, 6);
        assert_eq!(code.len(), 2);
        assert!(code.validate());
    }

    #[test]
    fn random_code_respects_distance_and_grows_exponentially() {
        let n = 64;
        let beta = 0.125; // distance 2βn = 16
        let d = (2.0 * beta * n as f64) as usize;
        let code = greedy_random_code(n, d, 200, 20_000, 7);
        assert!(code.validate());
        // GV predicts ≥ 2^{(1-H(0.25))·64} ≈ 2^{12}; the randomized greedy
        // with a 200 target should have no trouble reaching its target.
        assert!(code.len() >= 190, "got only {} codewords", code.len());
    }

    #[test]
    fn random_code_is_deterministic_in_seed() {
        let a = greedy_random_code(32, 8, 50, 5000, 3);
        let b = greedy_random_code(32, 8, 50, 5000, 3);
        assert_eq!(a.words(), b.words());
    }

    #[test]
    fn code_accessors() {
        let code = greedy_lexicographic_code(4, 2);
        assert_eq!(code.min_distance(), 2);
        assert!(!code.is_empty());
    }
}
