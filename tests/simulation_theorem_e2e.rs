//! Cross-crate integration tests: Theorem 3.5 end to end — embedding,
//! ownership, audit and the §9.2 decision.

use proptest::prelude::*;
use qdc::congest::{
    CongestConfig, Inbox, Message, NodeAlgorithm, NodeInfo, Outbox, Simulator, TrafficTrace,
};
use qdc::core::theorems;
use qdc::graph::{generate, predicates, GraphBuilder, NodeId};
use qdc::harness::json::Json;
use qdc::harness::{execute_point, PointSpec};
use qdc::simthm::{audit_trace, Party, SimThmPoint, SimulationNetwork};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Observation 8.1: the embedding preserves cycle structure for
    /// arbitrary (simple) matching pairs.
    #[test]
    fn embedding_preserves_cycles(seed in 0u64..2000) {
        let net = SimulationNetwork::build(14, 17); // 14 + 4 = 18 tracks
        let tracks = net.track_count();
        let carol = generate::random_perfect_matching(tracks, seed);
        let david = generate::random_perfect_matching(tracks, seed + 5000);
        // Skip pairs sharing an edge (G would be a multigraph).
        let mut b = GraphBuilder::new(tracks);
        let mut simple = true;
        for &(u, v) in carol.iter().chain(&david) {
            let before = b.edge_count();
            b.add_edge_if_absent(NodeId::from(u), NodeId::from(v));
            simple &= b.edge_count() > before;
        }
        prop_assume!(simple);
        let g = b.build();
        let m = net.embed_matchings(&carol, &david);
        prop_assert_eq!(
            predicates::cycle_count_two_regular(net.graph(), &m).unwrap(),
            predicates::cycle_count_two_regular(&g, &g.full_subgraph()).unwrap()
        );
        // And Hamiltonicity transfers both ways.
        prop_assert_eq!(
            predicates::is_hamiltonian_cycle(net.graph(), &m),
            predicates::is_hamiltonian_cycle(&g, &g.full_subgraph())
        );
    }

    /// Ownership sets partition the nodes at every time within the
    /// horizon, monotonically growing toward the middle.
    #[test]
    fn ownership_is_a_monotone_partition(l_exp in 3u32..7) {
        let net = SimulationNetwork::build(4, (1usize << l_exp) + 1);
        for t in 0..net.horizon() {
            for v in net.graph().nodes() {
                let now = net.owner(v, t);
                let next = net.owner(v, t + 1);
                // Carol/David regions only grow; the server only shrinks.
                if now == Party::Carol {
                    prop_assert_eq!(next, Party::Carol);
                }
                if now == Party::David {
                    prop_assert_eq!(next, Party::David);
                }
            }
        }
    }
}

/// A broadcast-happy algorithm for audit stress.
struct Saturate {
    rounds_left: usize,
}

impl NodeAlgorithm for Saturate {
    fn on_start(&mut self, _info: &NodeInfo, out: &mut Outbox) {
        out.broadcast(Message::from_uint(1, 8));
    }
    fn on_round(&mut self, _info: &NodeInfo, _inbox: &Inbox, out: &mut Outbox) {
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            out.broadcast(Message::from_uint(1, 8));
        }
    }
    fn is_terminated(&self) -> bool {
        self.rounds_left == 0
    }
}

#[test]
fn audit_budget_holds_across_network_sizes() {
    for &(gamma, l) in &[(4usize, 17usize), (8, 33), (16, 65)] {
        let net = SimulationNetwork::build(gamma, l);
        let bandwidth = 8;
        let sim = Simulator::new(net.graph(), CongestConfig::quantum(bandwidth));
        let horizon = net.horizon();
        let mut trace = TrafficTrace::default();
        sim.run_observed(
            |_| Saturate {
                rounds_left: horizon.saturating_sub(1),
            },
            horizon,
            &mut trace,
        );
        let audit = audit_trace(&net, &trace, bandwidth);
        assert!(audit.within_horizon);
        assert!(
            audit.within_budget,
            "Γ={gamma}, L={l}: max {} vs budget {}",
            audit.max_paid_per_round, audit.per_round_budget
        );
        // The budget must be Θ(B log L), not Θ(ΓB): paid traffic cannot
        // scale with the number of paths.
        assert!(audit.per_round_budget <= 6 * 8 * (l.ilog2() as u64 + 1));
    }
}

#[test]
fn audit_budget_saturates_at_huge_bandwidths() {
    // Γ = 4, L = 9 has k = 3 highways, so 6·k·B is 18·2^62 and 18·2^63,
    // both past u64::MAX. Wrapped, the budgets read 2^63 and 0, and the
    // second refused a run that paid a few bits a round.
    for bandwidth in [1usize << 62, 1 << 63] {
        let point = PointSpec::SimThm(SimThmPoint {
            gamma: 4,
            l: 9,
            bandwidth,
        });
        let (record, trace) = execute_point(0, &point).expect("the point runs");
        let extra = |key| record.extra.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
        assert_eq!(extra("per_round_budget"), Some(&Json::Num(u64::MAX)));
        assert_eq!(record.accept, Some(true), "B = {bandwidth}");

        let net = SimulationNetwork::build_even_tracks(4, 9);
        let audit = audit_trace(&net, &trace.expect("simthm points are traced"), bandwidth);
        assert_eq!(audit.per_round_budget, u64::MAX);
        assert!(audit.within_budget && audit.rounds > 1);
        assert_eq!(audit.total_budget(), u64::MAX);
    }
}

#[test]
fn thm38_decision_procedure_is_sound_on_random_instances() {
    // Full §9.2 loop: random matchings → embed → weight gadget →
    // (sequential) MST → threshold decision == spanning-connectivity.
    for seed in 0..10u64 {
        let net = SimulationNetwork::build(14, 17);
        let tracks = net.track_count();
        let carol = generate::random_perfect_matching(tracks, seed);
        let david = generate::random_perfect_matching(tracks, seed + 100);
        let m = net.embed_matchings(&carol, &david);
        let n = net.graph().node_count();
        let alpha = 2.0;
        let w = (alpha as u64) * (n as u64) * 2;
        let weights = theorems::weight_gadget(net.graph(), &m, w);
        let mst = qdc::graph::algorithms::kruskal_mst(net.graph(), &weights);
        let accept = theorems::decide_connected_from_mst(mst.total_weight, n, alpha);
        assert_eq!(
            accept,
            predicates::is_spanning_connected_subgraph(net.graph(), &m),
            "seed {seed}"
        );
    }
}

#[test]
fn horizon_and_diameter_relationship() {
    // The theorem needs diameter ≪ horizon ≪ L: check across sizes.
    for &l in &[17usize, 33, 65, 129] {
        let net = SimulationNetwork::build(6, l);
        let d = qdc::graph::algorithms::diameter(net.graph()).unwrap() as usize;
        assert!(d <= net.diameter_upper_bound());
        assert!(net.horizon() >= l / 2 - 2);
        if l >= 65 {
            assert!(
                d < net.horizon(),
                "L={l}: diameter {d} should sit below the horizon {}",
                net.horizon()
            );
        }
    }
}
