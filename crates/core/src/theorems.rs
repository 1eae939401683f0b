//! Parameter composition for Theorems 3.6 and 3.8 (Section 9).
//!
//! Both proofs instantiate the Quantum Simulation Theorem with specific
//! `(L, Γ)`: verification (§9.1) uses `L ≈ √(n/(B log n))`,
//! `Γ ≈ √(B n log n)`; optimization (§9.2) uses
//! `L ≈ min(W/α, √n)/√(B log n)`, `Γ ≈ √(B log n)·max(nα/W, √n)`.
//! Universal constants are normalized to 1 (see `bounds`); the checks
//! that matter — `Γ·L = Θ(n)`, diameter `Θ(log n)`, and the §9.2 weight
//! gadget's decision soundness — are executable and tested.

use crate::bounds::log2_clamped;
use qdc_graph::{EdgeWeights, Graph, Subgraph};
use qdc_simthm::SimulationNetwork;

/// The §9.1 instantiation for Theorem 3.6 (verification).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TheoremParams {
    /// Path length `L`.
    pub l: usize,
    /// Path count `Γ`.
    pub gamma: usize,
}

impl TheoremParams {
    /// Builds the simulation network with these parameters.
    pub fn network(&self) -> SimulationNetwork {
        SimulationNetwork::build(self.gamma, self.l)
    }

    /// `Γ · L`, the leading node-count term.
    pub fn node_scale(&self) -> usize {
        self.gamma * self.l
    }
}

/// Theorem 3.6 parameters: `L = √(n/(B log n))`, `Γ = √(B n log n)`
/// (constants normalized, floors clamped to valid minima).
pub fn theorem36_params(n: usize, bandwidth: usize) -> TheoremParams {
    let logn = log2_clamped(n);
    let l = ((n as f64 / (bandwidth as f64 * logn)).sqrt().floor() as usize).max(3);
    let gamma = ((bandwidth as f64 * n as f64 * logn).sqrt().ceil() as usize).max(1);
    TheoremParams { l, gamma }
}

/// Theorem 3.8 parameters (§9.2): `L = min(W/α, √n)/√(B log n)`,
/// `Γ = √(B log n)·max(nα/W, √n)`.
pub fn theorem38_params(n: usize, bandwidth: usize, w: f64, alpha: f64) -> TheoremParams {
    assert!(alpha >= 1.0 && w >= alpha, "need 1 ≤ α < W");
    let logn = log2_clamped(n);
    let sqrt_blog = (bandwidth as f64 * logn).sqrt();
    let l = (((w / alpha).min((n as f64).sqrt()) / sqrt_blog).floor() as usize).max(3);
    let gamma =
        ((sqrt_blog * (n as f64 * alpha / w).max((n as f64).sqrt())).ceil() as usize).max(1);
    TheoremParams { l, gamma }
}

/// The §9.2 weight gadget: edges of the subnetwork `M` get weight 1,
/// every other network edge gets weight `W`.
///
/// # Panics
///
/// Panics if `w == 0`.
pub fn weight_gadget(graph: &Graph, m: &Subgraph, w: u64) -> EdgeWeights {
    assert!(w >= 1, "aspect ratio weight must be positive");
    let weights = graph
        .edges()
        .map(|e| if m.contains(e) { 1 } else { w })
        .collect();
    EdgeWeights::from_vec(graph, weights)
}

/// The §9.2 decision rule: an α-approximate MST of the gadget weights has
/// weight at most `α(n−1)` **iff** `M` is a connected spanning subgraph
/// (for `W > α·n`, since a disconnected `M` forces at least one weight-`W`
/// edge into any spanning tree).
pub fn decide_connected_from_mst(mst_weight: u64, n: usize, alpha: f64) -> bool {
    mst_weight as f64 <= alpha * (n as f64 - 1.0)
}

/// Verifies the §9.2 separation analytically: connected `M` gives MST
/// weight exactly `n−1`; a `δ`-far `M` forces weight at least
/// `(n−1−δ) + δ·W`. Returns the two weights, or `None` when `n = 0`,
/// when `δ ≥ n` (no `n−1−δ` light edges) or when the far weight
/// exceeds `u64::MAX`.
pub fn thm38_weight_separation(n: usize, delta: usize, w: u64) -> Option<(u64, u64)> {
    let connected = (n as u64).checked_sub(1)?;
    let light = connected.checked_sub(delta as u64)?;
    let far = (delta as u64).checked_mul(w)?.checked_add(light)?;
    Some((connected, far))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdc_graph::{algorithms, predicates};

    #[test]
    fn thm36_product_is_theta_n() {
        for &(n, b) in &[(1usize << 12, 16usize), (1 << 14, 16), (1 << 16, 32)] {
            let p = theorem36_params(n, b);
            let scale = p.node_scale() as f64 / n as f64;
            assert!((0.5..2.0).contains(&scale), "n={n}, B={b}: ΓL/n = {scale}");
        }
    }

    #[test]
    fn thm36_l_matches_verification_bound_scale() {
        let n = 1 << 14;
        let p = theorem36_params(n, 16);
        let bound = crate::bounds::verification_lower_bound(n, 16);
        assert!(
            (p.l as f64 - bound).abs() <= 1.0,
            "L={} vs bound {bound}",
            p.l
        );
    }

    #[test]
    fn thm38_two_regimes() {
        let n = 1 << 14;
        let b = 16;
        // Small W: L grows with W.
        let p1 = theorem38_params(n, b, 64.0, 2.0);
        let p2 = theorem38_params(n, b, 128.0, 2.0);
        assert!(p2.l >= p1.l);
        // Huge W: L saturates at the Theorem 3.6 value.
        let p3 = theorem38_params(n, b, 1e12, 2.0);
        let p4 = theorem36_params(n, b);
        assert_eq!(p3.l, p4.l);
        // ΓL stays Θ(n) across regimes.
        for p in [p1, p2, p3] {
            let scale = p.node_scale() as f64 / n as f64;
            assert!((0.4..3.0).contains(&scale), "scale {scale}");
        }
    }

    #[test]
    fn small_thm36_network_has_log_diameter() {
        let p = theorem36_params(4096, 8);
        // Scale down for an exact-diameter check.
        let small = TheoremParams {
            l: p.l.min(17),
            gamma: p.gamma.min(8),
        };
        let net = small.network();
        let d = algorithms::diameter(net.graph()).unwrap() as usize;
        assert!(d <= net.diameter_upper_bound());
    }

    #[test]
    fn weight_gadget_assigns_and_separates() {
        let net = SimulationNetwork::build(5, 9);
        let m = net.hamiltonian_m();
        let w = 1000;
        let weights = weight_gadget(net.graph(), &m, w);
        assert_eq!(weights.aspect_ratio(), w as f64);
        // M is a Hamiltonian cycle ⇒ spanning connected ⇒ MST = n − 1.
        assert!(predicates::is_hamiltonian_cycle(net.graph(), &m));
        let mst = algorithms::kruskal_mst(net.graph(), &weights);
        assert_eq!(mst.total_weight, net.graph().node_count() as u64 - 1);
        assert!(decide_connected_from_mst(
            mst.total_weight,
            net.graph().node_count(),
            2.0
        ));
    }

    #[test]
    fn weight_gadget_rejects_disconnected_m() {
        let net = SimulationNetwork::build(5, 9);
        let mut m = net.hamiltonian_m();
        // M is a single cycle; removing ONE edge still leaves it
        // connected, so drop TWO edges far apart to split it.
        let victims: Vec<_> = m.edges().collect();
        m.remove(victims[0]);
        m.remove(victims[victims.len() / 2]);
        assert!(!predicates::is_spanning_connected_subgraph(net.graph(), &m));
        let n = net.graph().node_count();
        let alpha = 2.0;
        // W > αn so one W-edge already blows the α(n−1) budget.
        let w = (alpha as u64) * (n as u64) * 2;
        let weights = weight_gadget(net.graph(), &m, w);
        let mst = algorithms::kruskal_mst(net.graph(), &weights);
        assert!(!decide_connected_from_mst(mst.total_weight, n, alpha));
    }

    #[test]
    fn separation_formula() {
        let (conn, far) = thm38_weight_separation(100, 5, 1_000).expect("in range");
        assert_eq!(conn, 99);
        assert_eq!(far, 94 + 5_000);
        assert!(far as f64 > 2.0 * 99.0);
    }

    #[test]
    fn separation_is_none_where_it_would_wrap() {
        // n − 1 below 0, n − 1 − δ below 0, and δ·W past u64::MAX.
        assert_eq!(thm38_weight_separation(0, 0, 1), None);
        assert_eq!(thm38_weight_separation(4, 5, 2), None);
        assert_eq!(thm38_weight_separation(3, 2, u64::MAX), None);
        // δ = n − 1 leaves no light edge: the far weight is δ·W.
        assert_eq!(thm38_weight_separation(4, 3, 10), Some((3, 30)));
    }

    #[test]
    #[should_panic(expected = "1 ≤ α < W")]
    fn thm38_rejects_w_below_alpha() {
        theorem38_params(1024, 8, 1.5, 2.0);
    }
}
