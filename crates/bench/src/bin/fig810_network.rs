//! Figures 8, 10, 13: the simulation network's shape.
//!
//! Regenerates Observation D.2: `N(Γ, L)` has `Θ(ΓL)` nodes and diameter
//! `Θ(log L)`; also shows the highway ablation (diameter without
//! highways is `Θ(L)`), and Observation 8.1 (cycles of the embedded `M`
//! equal cycles of the matching graph `G`).

use qdc_bench::{print_header, print_row};
use qdc_graph::{algorithms, generate, predicates, GraphBuilder, NodeId};
use qdc_simthm::SimulationNetwork;

fn ladder_without_highways(gamma: usize, l: usize) -> qdc_graph::Graph {
    let mut b = GraphBuilder::new(gamma * l);
    for t in 0..gamma {
        for p in 0..(l - 1) {
            b.add_edge(NodeId::from(t * l + p), NodeId::from(t * l + p + 1));
        }
    }
    for a in 0..gamma {
        for c in (a + 1)..gamma {
            b.add_edge(NodeId::from(a * l), NodeId::from(c * l));
            b.add_edge(NodeId::from(a * l + l - 1), NodeId::from(c * l + l - 1));
        }
    }
    b.build()
}

fn main() {
    println!("=== Figures 8/10/13 + Observation D.2: size and diameter of N(Γ, L) ===\n");
    let widths = [6, 6, 6, 8, 8, 14, 10, 16];
    print_header(
        &[
            "Γ",
            "L",
            "k",
            "nodes",
            "ΓL",
            "diam (with)",
            "4k+8",
            "diam (no hwy)",
        ],
        &widths,
    );
    for &(gamma, l) in &[
        (4usize, 9usize),
        (4, 17),
        (4, 33),
        (4, 65),
        (8, 33),
        (16, 33),
    ] {
        let net = SimulationNetwork::build(gamma, l);
        let with = algorithms::diameter(net.graph()).unwrap();
        let without = algorithms::diameter(&ladder_without_highways(gamma, net.length())).unwrap();
        print_row(
            &[
                &gamma.to_string(),
                &net.length().to_string(),
                &net.highway_count().to_string(),
                &net.graph().node_count().to_string(),
                &(gamma * net.length()).to_string(),
                &with.to_string(),
                &net.diameter_upper_bound().to_string(),
                &without.to_string(),
            ],
            &widths,
        );
    }
    println!("\nAblation (design decision D5): highways take the diameter from Θ(L) to Θ(log L).");

    println!("\n=== Observation 8.1: cycles(M) = cycles(G) for random matchings ===\n");
    let widths = [8, 10, 12, 12, 8];
    print_header(
        &["tracks", "seed", "cycles(G)", "cycles(M)", "equal"],
        &widths,
    );
    let mut shown = 0;
    let mut seed = 0u64;
    while shown < 6 {
        seed += 1;
        let net = SimulationNetwork::build_even_tracks(13, 17); // 13 + 4 = 17 → Γ = 14
        let tracks = net.track_count();
        let carol = generate::random_perfect_matching(tracks, seed);
        let david = generate::random_perfect_matching(tracks, seed + 1000);
        // Skip seeds where the two matchings share a pair (G would need a
        // multigraph).
        let mut b = GraphBuilder::new(tracks);
        let mut simple = true;
        for &(a, c) in carol.iter().chain(&david) {
            let before = b.edge_count();
            b.add_edge_if_absent(NodeId::from(a), NodeId::from(c));
            simple &= b.edge_count() > before;
        }
        if !simple {
            continue;
        }
        let g = b.build();
        let gc = predicates::cycle_count_two_regular(&g, &g.full_subgraph()).unwrap();
        let m = net.embed_matchings(&carol, &david);
        let mc = predicates::cycle_count_two_regular(net.graph(), &m).unwrap();
        assert_eq!(gc, mc);
        print_row(
            &[
                &tracks.to_string(),
                &seed.to_string(),
                &gc.to_string(),
                &mc.to_string(),
                &(gc == mc).to_string(),
            ],
            &widths,
        );
        shown += 1;
    }
    println!("\nThe embedding is cycle-structure-preserving, so deciding Ham(M) on N decides");
    println!("Ham(G) in the Server model — the hinge of the Quantum Simulation Theorem.");
}
