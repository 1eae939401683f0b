//! Dense state-vector simulation of small quantum registers.

use crate::complex::Complex;
use rand::Rng;

/// Maximum register size (design decision D3 in DESIGN.md): 24 qubits is a
/// 16 M-amplitude vector, 256 MiB — well beyond anything the paper's
/// primitives need (≤ 4) and comfortable for Grover demos (8–16).
pub const MAX_QUBITS: usize = 24;

/// A pure state of `n` qubits as a dense vector of 2ⁿ amplitudes.
///
/// Qubit `q` corresponds to bit `q` of the basis-state index (qubit 0 is
/// the least-significant bit).
///
/// # Example
///
/// ```
/// use qdc_quantum::{StateVector, gates};
///
/// let mut psi = StateVector::zeros(1);
/// psi.apply_single(gates::X, 0);
/// assert_eq!(psi.probability_of(1), 1.0);
/// ```
#[derive(Clone)]
pub struct StateVector {
    n: usize,
    amps: Vec<Complex>,
}

impl std::fmt::Debug for StateVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateVector")
            .field("qubits", &self.n)
            .finish()
    }
}

impl StateVector {
    /// The all-zeros computational basis state `|0…0⟩` on `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > MAX_QUBITS`.
    pub fn zeros(n: usize) -> Self {
        assert!(n > 0, "register needs at least one qubit");
        assert!(n <= MAX_QUBITS, "register capped at {MAX_QUBITS} qubits");
        let mut amps = vec![Complex::ZERO; 1 << n];
        amps[0] = Complex::ONE;
        StateVector { n, amps }
    }

    /// The computational basis state `|index⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^n` or `n` is out of range.
    pub fn basis(n: usize, index: usize) -> Self {
        let mut s = StateVector::zeros(n);
        assert!(index < s.amps.len(), "basis index out of range");
        s.amps[0] = Complex::ZERO;
        s.amps[index] = Complex::ONE;
        s
    }

    /// Builds a state from raw amplitudes, normalizing them.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two in `2..=2^MAX_QUBITS`, or
    /// the vector is (numerically) zero.
    pub fn from_amplitudes(amps: Vec<Complex>) -> Self {
        let len = amps.len();
        assert!(
            len >= 2 && len.is_power_of_two(),
            "amplitude vector length must be a power of two ≥ 2"
        );
        let n = len.trailing_zeros() as usize;
        assert!(n <= MAX_QUBITS, "register capped at {MAX_QUBITS} qubits");
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        assert!(norm > 1e-12, "cannot normalize the zero vector");
        let amps = amps.into_iter().map(|a| a.scale(1.0 / norm)).collect();
        StateVector { n, amps }
    }

    /// Number of qubits.
    #[inline]
    pub fn qubit_count(&self) -> usize {
        self.n
    }

    /// Amplitude of basis state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^n`.
    #[inline]
    pub fn amplitude(&self, index: usize) -> Complex {
        self.amps[index]
    }

    /// Probability of observing the full basis state `index`.
    pub fn probability_of(&self, index: usize) -> f64 {
        self.amps[index].norm_sqr()
    }

    /// Probability that measuring qubit `q` yields `1`.
    pub fn probability_one(&self, q: usize) -> f64 {
        assert!(q < self.n, "qubit index out of range");
        let mask = 1usize << q;
        self.amps
            .iter()
            .enumerate()
            .filter(|&(i, _)| i & mask != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    /// Applies a single-qubit gate (2×2 unitary, row-major) to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_single(&mut self, gate: [[Complex; 2]; 2], q: usize) {
        assert!(q < self.n, "qubit index out of range");
        let mask = 1usize << q;
        for i in 0..self.amps.len() {
            if i & mask == 0 {
                let j = i | mask;
                let a0 = self.amps[i];
                let a1 = self.amps[j];
                self.amps[i] = gate[0][0] * a0 + gate[0][1] * a1;
                self.amps[j] = gate[1][0] * a0 + gate[1][1] * a1;
            }
        }
    }

    /// Applies a single-qubit gate to `target`, controlled on `control`.
    ///
    /// # Panics
    ///
    /// Panics if the indices coincide or are out of range.
    pub fn apply_controlled(&mut self, gate: [[Complex; 2]; 2], control: usize, target: usize) {
        assert!(
            control < self.n && target < self.n,
            "qubit index out of range"
        );
        assert_ne!(control, target, "control and target must differ");
        let cmask = 1usize << control;
        let tmask = 1usize << target;
        for i in 0..self.amps.len() {
            if i & cmask != 0 && i & tmask == 0 {
                let j = i | tmask;
                let a0 = self.amps[i];
                let a1 = self.amps[j];
                self.amps[i] = gate[0][0] * a0 + gate[0][1] * a1;
                self.amps[j] = gate[1][0] * a0 + gate[1][1] * a1;
            }
        }
    }

    /// CNOT with the given control and target.
    pub fn apply_cnot(&mut self, control: usize, target: usize) {
        self.apply_controlled(crate::gates::X, control, target);
    }

    /// Measures qubit `q` in the computational basis, collapsing the state.
    /// Returns the observed bit.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn measure<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> bool {
        let p1 = self.probability_one(q);
        let outcome = rng.gen_bool(p1.clamp(0.0, 1.0));
        self.collapse(q, outcome);
        outcome
    }

    /// Forces qubit `q` into classical value `bit` (post-selection),
    /// renormalizing.
    ///
    /// # Panics
    ///
    /// Panics if the requested outcome has (numerically) zero probability.
    pub fn collapse(&mut self, q: usize, bit: bool) {
        assert!(q < self.n, "qubit index out of range");
        let mask = 1usize << q;
        let keep = if bit { mask } else { 0 };
        let mut norm_sqr = 0.0;
        for (i, a) in self.amps.iter_mut().enumerate() {
            if i & mask == keep {
                norm_sqr += a.norm_sqr();
            } else {
                *a = Complex::ZERO;
            }
        }
        assert!(
            norm_sqr > 1e-12,
            "collapsing onto a zero-probability branch"
        );
        let scale = 1.0 / norm_sqr.sqrt();
        for a in &mut self.amps {
            *a = a.scale(scale);
        }
    }

    /// Measures every qubit, collapsing to a single basis state. Returns
    /// the observed basis index.
    pub fn measure_all<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        let x: f64 = rng.gen();
        let mut acc = 0.0;
        let mut outcome = self.amps.len() - 1;
        for (i, a) in self.amps.iter().enumerate() {
            acc += a.norm_sqr();
            if x < acc {
                outcome = i;
                break;
            }
        }
        for (i, a) in self.amps.iter_mut().enumerate() {
            *a = if i == outcome {
                Complex::ONE
            } else {
                Complex::ZERO
            };
        }
        outcome
    }

    /// `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the registers have different sizes.
    pub fn inner_product(&self, other: &StateVector) -> Complex {
        assert_eq!(self.n, other.n, "inner product needs equal register sizes");
        let mut acc = Complex::ZERO;
        for (a, b) in self.amps.iter().zip(&other.amps) {
            acc += a.conj() * *b;
        }
        acc
    }

    /// Fidelity `|⟨self|other⟩|²`.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner_product(other).norm_sqr()
    }

    /// Expectation value of the tensor product of single-qubit observables
    /// given as 2×2 Hermitian matrices applied at `(qubit, matrix)` pairs
    /// (identity elsewhere). Returns the real part (imaginary part is ~0
    /// for Hermitian inputs).
    pub fn expectation(&self, observables: &[(usize, [[Complex; 2]; 2])]) -> f64 {
        let mut transformed = self.clone();
        for &(q, m) in observables {
            transformed.apply_single(m, q);
        }
        self.inner_product(&transformed).re
    }

    /// Total probability mass (should be 1 up to float error); exposed for
    /// testing invariants.
    pub fn total_probability(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    const EPS: f64 = 1e-12;

    #[test]
    fn zeros_is_normalized_basis_zero() {
        let s = StateVector::zeros(3);
        assert_eq!(s.qubit_count(), 3);
        assert!((s.probability_of(0) - 1.0).abs() < EPS);
        assert!((s.total_probability() - 1.0).abs() < EPS);
    }

    #[test]
    fn x_flips() {
        let mut s = StateVector::zeros(2);
        s.apply_single(gates::X, 1);
        assert!((s.probability_of(0b10) - 1.0).abs() < EPS);
    }

    #[test]
    fn hadamard_superposition_and_inverse() {
        let mut s = StateVector::zeros(1);
        s.apply_single(gates::H, 0);
        assert!((s.probability_of(0) - 0.5).abs() < EPS);
        s.apply_single(gates::H, 0);
        assert!((s.probability_of(0) - 1.0).abs() < EPS);
    }

    #[test]
    fn epr_pair_correlations() {
        let mut s = StateVector::zeros(2);
        s.apply_single(gates::H, 0);
        s.apply_cnot(0, 1);
        assert!((s.probability_of(0b00) - 0.5).abs() < EPS);
        assert!((s.probability_of(0b11) - 0.5).abs() < EPS);
        assert!(s.probability_of(0b01) < EPS);
        // ZZ correlation is +1.
        let zz = s.expectation(&[(0, gates::Z), (1, gates::Z)]);
        assert!((zz - 1.0).abs() < EPS);
    }

    #[test]
    fn measurement_collapses_consistently() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut ones = 0;
        for _ in 0..200 {
            let mut s = StateVector::zeros(2);
            s.apply_single(gates::H, 0);
            s.apply_cnot(0, 1);
            let a = s.measure(0, &mut rng);
            let b = s.measure(1, &mut rng);
            assert_eq!(a, b, "EPR halves must agree");
            ones += usize::from(a);
        }
        assert!(
            ones > 60 && ones < 140,
            "should be roughly balanced, got {ones}"
        );
    }

    #[test]
    fn collapse_renormalizes() {
        let mut s = StateVector::zeros(1);
        s.apply_single(gates::H, 0);
        s.collapse(0, true);
        assert!((s.probability_of(1) - 1.0).abs() < EPS);
    }

    #[test]
    #[should_panic(expected = "zero-probability")]
    fn collapse_on_impossible_branch_panics() {
        let mut s = StateVector::zeros(1);
        s.collapse(0, true);
    }

    #[test]
    fn measure_all_matches_distribution() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut counts = [0usize; 4];
        for _ in 0..400 {
            let mut s = StateVector::zeros(2);
            s.apply_single(gates::H, 0);
            s.apply_single(gates::H, 1);
            counts[s.measure_all(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!(c > 50, "uniform over 4 outcomes, got {counts:?}");
        }
    }

    #[test]
    fn controlled_gate_only_acts_when_control_set() {
        let mut s = StateVector::zeros(2);
        s.apply_controlled(gates::X, 0, 1);
        assert!((s.probability_of(0b00) - 1.0).abs() < EPS);
        s.apply_single(gates::X, 0);
        s.apply_controlled(gates::X, 0, 1);
        assert!((s.probability_of(0b11) - 1.0).abs() < EPS);
    }

    #[test]
    fn from_amplitudes_normalizes() {
        let s = StateVector::from_amplitudes(vec![Complex::real(3.0), Complex::real(4.0)]);
        assert!((s.probability_of(0) - 0.36).abs() < EPS);
        assert!((s.probability_of(1) - 0.64).abs() < EPS);
    }

    #[test]
    fn basis_state_constructor() {
        let s = StateVector::basis(3, 5);
        assert!((s.probability_of(5) - 1.0).abs() < EPS);
    }

    #[test]
    #[should_panic(expected = "capped")]
    fn oversized_register_rejected() {
        StateVector::zeros(MAX_QUBITS + 1);
    }

    #[test]
    fn fidelity_of_orthogonal_states_is_zero() {
        let a = StateVector::basis(2, 0);
        let b = StateVector::basis(2, 3);
        assert!(a.fidelity(&b) < EPS);
        assert!((a.fidelity(&a) - 1.0).abs() < EPS);
    }
}
