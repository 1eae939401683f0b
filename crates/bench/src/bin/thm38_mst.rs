//! Theorem 3.8: the α-approximate MST lower bound and the §9.2 reduction.
//!
//! Prints the parameter composition across `(W, α)`, then executes the
//! §9.2 decision procedure end to end: assign weight 1 to `M`-edges and
//! `W` to the rest, run an α-approximate distributed MST, accept iff the
//! tree weighs at most `α(n−1)` — distinguishing connected `M` from
//! δ-far `M` with zero error on the far side, exactly as the proof
//! demands (0-error on 1-inputs is what the gap reduction needs).

use qdc_algos::mst::mst_approx_sweep;
use qdc_bench::{fmt_f, print_header, print_row};
use qdc_congest::CongestConfig;
use qdc_core::{bounds, theorems};
use qdc_graph::generate;
use qdc_simthm::SimulationNetwork;

fn main() {
    let bandwidth = 48;
    let n_theory = 1usize << 14;

    println!("=== §9.2 parameters across the (W, α) plane at n = {n_theory} ===\n");
    let widths = [10, 6, 8, 10, 12, 12];
    print_header(&["W", "α", "L", "Γ", "Γ·L / n", "Ω-bound"], &widths);
    for &(w, alpha) in &[
        (64f64, 2f64),
        (512.0, 2.0),
        (4096.0, 2.0),
        (4096.0, 8.0),
        (1e9, 2.0),
    ] {
        let p = theorems::theorem38_params(n_theory, bandwidth, w, alpha);
        print_row(
            &[
                &fmt_f(w),
                &fmt_f(alpha),
                &p.l.to_string(),
                &p.gamma.to_string(),
                &fmt_f(p.node_scale() as f64 / n_theory as f64),
                &fmt_f(bounds::optimization_lower_bound(
                    n_theory, bandwidth, w, alpha,
                )),
            ],
            &widths,
        );
    }

    println!("\n=== §9.2 decision procedure, executed (α-approx MST ⇒ Gap-Ham decision) ===\n");
    let net = SimulationNetwork::build_even_tracks(13, 17);
    let tracks = net.track_count();
    let n = net.graph().node_count();
    let alpha = 2.0;
    let w = (alpha as u64) * (n as u64) * 2; // W > αn: the separating regime
    println!(
        "network: {} nodes, tracks = {tracks}, α = {alpha}, W = {w}\n",
        n
    );

    let widths = [10, 14, 16, 14, 12];
    print_header(
        &[
            "Δ planted",
            "cycles in M",
            "approx MST wt",
            "α(n−1) thr",
            "accept",
        ],
        &widths,
    );
    let (carol, base_david) = generate::hamiltonian_matching_pair(tracks);
    for &delta in &[0usize, 1, 2, 4] {
        // Plant δ "breaks": rotate δ pairs of David's matching so G splits
        // into more cycles.
        let mut david = base_david.clone();
        for j in 0..delta {
            let a = 2 * j;
            let b = 2 * j + 1;
            if b < david.len() {
                let (x1, y1) = david[a];
                let (x2, y2) = david[b];
                david[a] = (x1, y2);
                david[b] = (x2, y1);
            }
        }
        let m = net.embed_matchings(&carol, &david);
        let cycles = qdc_graph::predicates::cycle_count_two_regular(net.graph(), &m).unwrap();
        let weights = theorems::weight_gadget(net.graph(), &m, w);
        let run = mst_approx_sweep(
            net.graph(),
            CongestConfig::classical(bandwidth),
            &weights,
            alpha,
        );
        let accept = theorems::decide_connected_from_mst(run.total_weight, n, alpha);
        // Soundness: accept iff M is (spanning-)connected.
        let truly_connected =
            qdc_graph::predicates::is_spanning_connected_subgraph(net.graph(), &m);
        assert_eq!(accept, truly_connected, "§9.2 decision soundness");
        print_row(
            &[
                &delta.to_string(),
                &cycles.to_string(),
                &run.total_weight.to_string(),
                &fmt_f(alpha * (n as f64 - 1.0)),
                &accept.to_string(),
            ],
            &widths,
        );
    }
    println!("\nConnected M ⇒ MST = n−1 ≤ α(n−1); each extra cycle forces a weight-W edge,");
    println!("blowing the budget — so an α-approximate MST solves Gap-Ham, and the Gap-Ham");
    println!("hardness (Theorems 3.4 + 3.5) transfers: Ω(min(W/α, √n)/√(B log n)) rounds.");
}
