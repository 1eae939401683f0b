//! Figure 2: the lower-bounds table, predicted and measured.
//!
//! Prints (a) the paper's table instantiated at concrete `(n, B)` and
//! (b) measured rounds of our distributed Ham/ST verifiers on the
//! Theorem 3.5 hard networks across a size sweep — the measured upper
//! bound should track the √n shape of the quantum lower bound (they are
//! tight up to polylog factors).

use qdc_algos::verify::{verify_hamiltonian_cycle, verify_spanning_tree};
use qdc_bench::{fmt_f, print_header, print_row};
use qdc_congest::CongestConfig;
use qdc_core::bounds;
use qdc_simthm::SimulationNetwork;

fn main() {
    let bandwidth = 64;

    println!("=== Figure 2 (a): the bounds table at n = 4096, B = 16 ===\n");
    let widths = [44, 52, 62, 10];
    print_header(
        &[
            "problem",
            "previous",
            "this paper (quantum + entanglement)",
            "rounds",
        ],
        &widths,
    );
    for row in bounds::fig2_rows(4096, 16) {
        print_row(
            &[row.problem, row.previous, row.new, &fmt_f(row.bound_rounds)],
            &widths,
        );
    }

    println!(
        "\n=== Figure 2 (b): measured verification rounds vs the Ω(√(n/(B log n))) shape ===\n"
    );
    let widths = [8, 8, 8, 10, 12, 12, 16];
    print_header(
        &[
            "Γ",
            "L",
            "n",
            "diam",
            "Ham rounds",
            "ST rounds",
            "Ω-bound (rounds)",
        ],
        &widths,
    );
    for &(gamma, l) in &[(6usize, 9usize), (9, 17), (13, 17), (19, 33), (27, 33)] {
        let net = SimulationNetwork::build_even_tracks(gamma, l);
        let m = net.hamiltonian_m();
        let n = net.graph().node_count();
        let cfg = CongestConfig::classical(bandwidth);
        let ham = verify_hamiltonian_cycle(net.graph(), cfg, &m);
        assert!(ham.accept, "embedded M is a Hamiltonian cycle");
        let st = verify_spanning_tree(net.graph(), cfg, &m);
        assert!(!st.accept, "a cycle is not a tree");
        let diam = qdc_graph::algorithms::diameter(net.graph()).unwrap();
        print_row(
            &[
                &gamma.to_string(),
                &net.length().to_string(),
                &n.to_string(),
                &diam.to_string(),
                &ham.ledger.rounds.to_string(),
                &st.ledger.rounds.to_string(),
                &fmt_f(bounds::verification_lower_bound(n, bandwidth)),
            ],
            &widths,
        );
    }
    println!("\nShape check: measured rounds and the bound both grow ~√n (constants differ —");
    println!("the verifiers are Õ(√n + D), the bound is Ω(√(n/(B log n))); tight up to polylogs).");
}
