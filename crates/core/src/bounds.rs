//! Closed-form bound curves for Figures 2 and 3.
//!
//! Theory lower bounds come with unspecified universal constants; we
//! normalize them to 1 and treat the curves as *shapes* — what the
//! benchmark harnesses compare against measured simulator rounds is the
//! scaling (√n, W/α, crossover positions), not absolute values. All
//! formulas take `log = log₂` and clamp pathological inputs.

/// `log₂ n`, clamped below at 1 to keep denominators sane for tiny `n`.
pub fn log2_clamped(n: usize) -> f64 {
    (n.max(2) as f64).log2().max(1.0)
}

/// Theorem 3.6: the quantum (and classical) verification lower bound
/// `Ω(√(n / (B log n)))` rounds, for Hamiltonian cycle, spanning tree and
/// every Corollary 3.7 problem.
pub fn verification_lower_bound(n: usize, bandwidth: usize) -> f64 {
    (n as f64 / (bandwidth as f64 * log2_clamped(n))).sqrt()
}

/// Theorem 3.8: the α-approximate optimization lower bound
/// `Ω(min(W/α, √n) / √(B log n))` rounds, for MST, min cut, shortest
/// paths and every Corollary 3.9 problem.
pub fn optimization_lower_bound(n: usize, bandwidth: usize, w: f64, alpha: f64) -> f64 {
    assert!(alpha >= 1.0, "approximation ratio is at least 1");
    let numerator = (w / alpha).min((n as f64).sqrt());
    numerator / (bandwidth as f64 * log2_clamped(n)).sqrt()
}

/// The Kutten–Peleg exact-MST upper bound shape `Õ(√n + D)` (also the
/// Das Sarma et al. verification upper bound).
pub fn sqrt_n_plus_d_upper(n: usize, diameter: usize) -> f64 {
    (n as f64).sqrt() + diameter as f64
}

/// Elkin's α-approximate MST upper bound shape `O(W/α + D)`.
pub fn elkin_upper(w: f64, alpha: f64, diameter: usize) -> f64 {
    w / alpha + diameter as f64
}

/// Figure 3's first crossover: below `W = α·√n` the Elkin branch wins.
pub fn fig3_first_crossover(n: usize, alpha: f64) -> f64 {
    alpha * (n as f64).sqrt()
}

/// Figure 3's second knee: at `W = α·n` the lower bound saturates at √n
/// for every `W` (the regime where the reduction's weight gadget tops
/// out).
pub fn fig3_second_crossover(n: usize, alpha: f64) -> f64 {
    alpha * n as f64
}

/// One row of the Figure 2 table: a problem, the classical-era bound and
/// this paper's quantum bound, both instantiated at `(n, B)`.
#[derive(Clone, Debug)]
pub struct Fig2Row {
    /// Problem name.
    pub problem: &'static str,
    /// Previous result (setting + bound), as in the left column.
    pub previous: &'static str,
    /// This paper's result, as in the right column.
    pub new: &'static str,
    /// The new bound's value at `(n, B)` in rounds.
    pub bound_rounds: f64,
}

/// The Figure 2 table instantiated at `(n, B)` (distributed-network half).
pub fn fig2_rows(n: usize, bandwidth: usize) -> Vec<Fig2Row> {
    let v = verification_lower_bound(n, bandwidth);
    let o = optimization_lower_bound(n, bandwidth, n as f64, 1.0);
    vec![
        Fig2Row {
            problem: "Ham, ST, MST verification",
            previous: "Ω(√(n/(B log n))) deterministic, classical",
            new: "Ω(√(n/(B log n))) two-sided error, quantum + entanglement",
            bound_rounds: v,
        },
        Fig2Row {
            problem: "Connectivity & other verification (Cor. 3.7)",
            previous: "Ω(√(n/(B log n))) two-sided error, classical",
            new: "Ω(√(n/(B log n))) two-sided error, quantum + entanglement",
            bound_rounds: v,
        },
        Fig2Row {
            problem: "α-approx MST & other optimization (Cor. 3.9)",
            previous: "Ω(√(n/(B log n))) Monte Carlo, classical (W = Ω(αn))",
            new: "Ω(min(√n, W/α)/√(B log n)) Monte Carlo, quantum + entanglement",
            bound_rounds: o,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verification_bound_scales_as_sqrt_n() {
        let b1 = verification_lower_bound(1 << 10, 16);
        let b2 = verification_lower_bound(1 << 14, 16);
        // ×16 nodes ⇒ ×4/√(log ratio) ≈ ×3.38.
        let ratio = b2 / b1;
        assert!(ratio > 3.0 && ratio < 4.0, "ratio {ratio}");
    }

    #[test]
    fn verification_bound_decreases_in_bandwidth() {
        assert!(verification_lower_bound(4096, 1) > verification_lower_bound(4096, 64));
    }

    #[test]
    fn optimization_bound_has_two_regimes() {
        let n = 1 << 12;
        let alpha = 2.0;
        // Small W: bound grows linearly in W.
        let a = optimization_lower_bound(n, 16, 8.0, alpha);
        let b = optimization_lower_bound(n, 16, 16.0, alpha);
        assert!((b / a - 2.0).abs() < 1e-9);
        // Large W: bound saturates at √n/√(B log n).
        let c = optimization_lower_bound(n, 16, 1e9, alpha);
        let d = optimization_lower_bound(n, 16, 1e12, alpha);
        assert_eq!(c, d);
        assert!((c - verification_lower_bound(n, 16)).abs() < 1e-9);
    }

    #[test]
    fn fig3_crossovers_are_where_branches_meet() {
        let n = 1 << 12;
        let alpha = 2.0;
        let w = fig3_first_crossover(n, alpha);
        // At the first crossover the Elkin branch equals √n (+D terms).
        assert!((w / alpha - (n as f64).sqrt()).abs() < 1e-9);
        assert!(fig3_second_crossover(n, alpha) > w);
    }

    #[test]
    fn fig2_rows_are_consistent() {
        let rows = fig2_rows(1 << 12, 16);
        assert_eq!(rows.len(), 3);
        // At W = n, α = 1 the optimization bound equals the verification
        // bound's √n regime.
        assert!((rows[0].bound_rounds - rows[1].bound_rounds).abs() < 1e-12);
        assert!(rows[2].bound_rounds <= rows[0].bound_rounds + 1e-12);
    }

    #[test]
    fn upper_bounds_behave() {
        assert!(sqrt_n_plus_d_upper(1 << 12, 10) > 64.0);
        assert!(elkin_upper(100.0, 2.0, 5) == 55.0);
    }
}
