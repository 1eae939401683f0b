//! Corollary 3.10: carrying the Ham hardness to the other two-party
//! graph problems.
//!
//! The paper notes that Hamiltonian-cycle hardness transfers by cheap
//! deterministic reductions to spanning tree, connectivity and
//! s-t connectivity in the communication setting. Ham → ST is
//! [`crate::ham_to_st`]; this module reads the Gap-Eq gadget instances
//! as the other two:
//!
//! * **Gap-Eq → Gap-Connectivity**: the [`crate::gapeq_to_ham`] instance
//!   *is* a connectivity instance — connected iff `x = y`, and `Δ(x, y)`
//!   mismatches leave it exactly `Δ` edge-additions away from connected;
//! * **Gap-Eq → s-t connectivity**: the two end caps of the same instance
//!   are connected iff `x = y`.

use crate::gapeq_ham::node_count_for;
use qdc_graph::NodeId;

/// The s-t pair for the Gap-Eq instance's s-t connectivity reading: the
/// left cap node and the right cap node (`x = y` ⟺ they share the single
/// Hamiltonian cycle; any mismatch strands them in different cycles).
pub fn gapeq_st_pair(n_bits: usize) -> (NodeId, NodeId) {
    let base = node_count_for(n_bits) - 4; // caps are the last 4 nodes
    (NodeId::from(base), NodeId::from(base + 2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gapeq_to_ham;
    use qdc_graph::{generate, predicates};

    #[test]
    fn gapeq_connectivity_reads_equality() {
        let n = 20;
        let x = generate::random_bits(n, 7);
        let (s, t) = gapeq_st_pair(n);
        // Equal: connected (spanning).
        let inst = gapeq_to_ham(&x, &x.clone());
        let sub = inst.full_subgraph();
        assert!(predicates::is_spanning_connected_subgraph(
            inst.graph(),
            &sub
        ));
        assert!(predicates::st_connected(inst.graph(), &sub, s, t));
        // Mismatched: disconnected, with farness = Δ.
        let mut y = x.clone();
        for j in 0..4 {
            y[5 * j] = !y[5 * j];
        }
        let inst = gapeq_to_ham(&x, &y);
        let sub = inst.full_subgraph();
        assert!(!predicates::st_connected(inst.graph(), &sub, s, t));
        assert_eq!(
            predicates::distance_from_spanning_connected(inst.graph(), &sub),
            4
        );
    }

    #[test]
    fn st_pair_lands_on_the_caps() {
        let n = 10;
        let (s, t) = gapeq_st_pair(n);
        let inst = gapeq_to_ham(&vec![false; n], &vec![false; n]);
        // Caps have degree 2 (like everything) and sit past the internal
        // nodes.
        assert!(s.index() >= 2 * (n + 1) + 4 * n);
        assert!(t.index() > s.index());
        assert!(inst.graph().node_count() > t.index());
    }
}
