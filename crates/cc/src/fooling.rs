//! Fooling sets and the lower bounds they certify.
//!
//! A **1-fooling set** for `f` is a set `F` of input pairs with
//! `f(x, y) = 1` for every `(x, y) ∈ F`, and for every two pairs
//! `(x, y), (x′, y′) ∈ F`, `f(x, y′) = 0` or `f(x′, y) = 0` (Section 6).
//! Fooling sets certify the Klauck–de Wolf one-sided-error *quantum*
//! bound `Q*₀,½(f) ≥ (log₂ fool¹(f))/4 − 1/2`, which the paper routes
//! through Lemma 3.2 to get the same bound in the **Server model**
//! (`(1−ε)·4^{−2Q} ≤ 1/fool¹(f)`).

use crate::codes::BinaryCode;
use crate::problems::TwoPartyFunction;

/// An explicit 1-fooling set: a list of `(x, y)` pairs.
#[derive(Clone, Debug, Default)]
pub struct FoolingSet {
    pairs: Vec<(Vec<bool>, Vec<bool>)>,
}

impl FoolingSet {
    /// Builds from explicit pairs.
    pub fn from_pairs(pairs: Vec<(Vec<bool>, Vec<bool>)>) -> Self {
        FoolingSet { pairs }
    }

    /// The pairs.
    pub fn pairs(&self) -> &[(Vec<bool>, Vec<bool>)] {
        &self.pairs
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// `log₂` of the size.
    pub fn log2_size(&self) -> f64 {
        (self.pairs.len() as f64).log2()
    }

    /// Checks the 1-fooling conditions against `f`. For promise problems,
    /// cross pairs outside the promise make the set invalid (the bound
    /// argument needs `f` defined there), so the builder must guarantee
    /// cross pairs stay inside the promise — the GV-code construction
    /// does, which is exactly why the paper uses codes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated condition.
    pub fn verify<F: TwoPartyFunction>(&self, f: &F) -> Result<(), String> {
        for (i, (x, y)) in self.pairs.iter().enumerate() {
            if !f.in_promise(x, y) {
                return Err(format!("pair {i} violates the promise"));
            }
            if !f.evaluate(x, y) {
                return Err(format!("pair {i} is not a 1-input"));
            }
        }
        for i in 0..self.pairs.len() {
            for j in (i + 1)..self.pairs.len() {
                let (xi, yi) = &self.pairs[i];
                let (xj, yj) = &self.pairs[j];
                let cross_ij_ok = f.in_promise(xi, yj) && !f.evaluate(xi, yj);
                let cross_ji_ok = f.in_promise(xj, yi) && !f.evaluate(xj, yi);
                if !cross_ij_ok && !cross_ji_ok {
                    return Err(format!(
                        "pairs {i} and {j}: neither cross pair is a (promise-valid) 0-input"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The Klauck–de Wolf one-sided-error quantum bound
    /// `Q*₀,½ ≥ (log₂|F|)/4 − 1/2` (in bits; can be ≤ 0 for tiny sets).
    pub fn kdw_quantum_bound(&self) -> f64 {
        self.log2_size() / 4.0 - 0.5
    }

    /// The Server-model one-sided bound from Lemma 3.2 + Klauck–de Wolf:
    /// from `(1−ε)·4^{−2Q} ≤ 1/|F|`,
    /// `Q ≥ (log₂|F| + log₂(1−ε)) / 4`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `[0, 1)`.
    pub fn server_model_bound(&self, epsilon: f64) -> f64 {
        assert!((0.0..1.0).contains(&epsilon), "ε must be in [0,1)");
        (self.log2_size() + (1.0 - epsilon).log2()) / 4.0
    }
}

/// The diagonal fooling set `{(c, c) : c ∈ C}` for `δ-Eq` built from a
/// code of minimum distance `> δ`: cross pairs `(c, c′)` have Hamming
/// distance ≥ d > δ, so they satisfy the promise and are 0-inputs.
///
/// # Panics
///
/// Panics if the code's distance is not strictly larger than `delta`.
pub fn gap_equality_fooling_set(code: &BinaryCode, delta: usize) -> FoolingSet {
    assert!(
        code.min_distance() > delta,
        "code distance {} must exceed the gap {delta}",
        code.min_distance()
    );
    FoolingSet::from_pairs(
        code.words()
            .iter()
            .map(|w| (w.clone(), w.clone()))
            .collect(),
    )
}

/// The diagonal fooling set for exact Equality: `{(x, x)}` over all
/// `2^min(n, cap)` prefix-supported strings.
pub fn equality_fooling_set(n: usize, cap: usize) -> FoolingSet {
    let k = n.min(cap).min(20);
    let mut pairs = Vec::with_capacity(1 << k);
    for s in 0u64..(1 << k) {
        let x: Vec<bool> = (0..n).map(|i| i < k && s >> i & 1 == 1).collect();
        pairs.push((x.clone(), x));
    }
    FoolingSet::from_pairs(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::greedy_lexicographic_code;
    use crate::problems::{Equality, GapEquality};

    #[test]
    fn equality_fooling_set_is_valid() {
        let fs = equality_fooling_set(8, 6);
        assert_eq!(fs.len(), 64);
        assert!(fs.verify(&Equality::new(8)).is_ok());
    }

    #[test]
    fn gap_equality_fooling_set_from_code() {
        // n = 12, δ = 3; code distance 4 > δ.
        let code = greedy_lexicographic_code(12, 4);
        let fs = gap_equality_fooling_set(&code, 3);
        let f = GapEquality::new(12, 3);
        assert!(fs.verify(&f).is_ok());
        // Size is exponential: GV with d=4 on n=12 gives ≥ 2^5.
        assert!(fs.log2_size() >= 5.0, "log size {}", fs.log2_size());
        assert!(fs.kdw_quantum_bound() > 0.0);
        assert!(fs.server_model_bound(0.5) > 0.0);
    }

    #[test]
    #[should_panic(expected = "must exceed the gap")]
    fn insufficient_code_distance_rejected() {
        let code = greedy_lexicographic_code(8, 2);
        gap_equality_fooling_set(&code, 3);
    }

    #[test]
    fn invalid_fooling_set_detected() {
        // Two pairs whose cross inputs are both 1-inputs for Equality:
        // impossible for Eq's diagonal, so craft one with a repeated x.
        let x = vec![true, false];
        let fs = FoolingSet::from_pairs(vec![(x.clone(), x.clone()), (x.clone(), x.clone())]);
        assert!(fs.verify(&Equality::new(2)).is_err());
    }

    #[test]
    fn zero_input_pair_detected() {
        let fs = FoolingSet::from_pairs(vec![(vec![true], vec![false])]);
        let err = fs.verify(&Equality::new(1)).unwrap_err();
        assert!(err.contains("not a 1-input"));
    }

    #[test]
    fn promise_violation_detected() {
        // δ-Eq with δ=2 on n=4: a pair at distance 1 violates the promise.
        let f = GapEquality::new(4, 2);
        let x = vec![false; 4];
        let mut y = x.clone();
        y[0] = true;
        let fs = FoolingSet::from_pairs(vec![(x, y)]);
        let err = fs.verify(&f).unwrap_err();
        assert!(err.contains("promise"));
    }

    #[test]
    fn bounds_scale_with_log_size() {
        let small = equality_fooling_set(4, 2);
        let large = equality_fooling_set(12, 12);
        assert!(large.kdw_quantum_bound() > small.kdw_quantum_bound());
        assert!(large.server_model_bound(0.25) > small.server_model_bound(0.25));
    }
}
