//! Theorem 3.6: the verification lower bound, parameters and measured
//! near-tightness.
//!
//! Prints the §9.1 parameter composition `(L, Γ)` across `n`, verifying
//! `Γ·L = Θ(n)` and `L ≈ √(n/(B log n))`; then runs the distributed Ham
//! and ST verifiers (plus the Ham → ST reduction of the proof) on scaled
//! networks, showing the measured Õ(√n + D) rounds against the Ω-curve.

use qdc_algos::verify::{verify_hamiltonian_cycle, verify_spanning_tree};
use qdc_bench::{fmt_f, print_header, print_row};
use qdc_congest::CongestConfig;
use qdc_core::{bounds, theorems};
use qdc_gadgets::ham_to_st::verify_ham_via_spanning_tree;
use qdc_simthm::SimulationNetwork;

fn main() {
    let bandwidth = 64;

    println!("=== §9.1: parameter composition L = √(n/(B log n)), Γ = √(B n log n) ===\n");
    let widths = [10, 8, 10, 12, 10];
    print_header(&["n", "L", "Γ", "Γ·L / n", "Ω-bound"], &widths);
    for &n in &[1usize << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18] {
        let p = theorems::theorem36_params(n, bandwidth);
        print_row(
            &[
                &n.to_string(),
                &p.l.to_string(),
                &p.gamma.to_string(),
                &fmt_f(p.node_scale() as f64 / n as f64),
                &fmt_f(bounds::verification_lower_bound(n, bandwidth)),
            ],
            &widths,
        );
    }

    println!("\n=== measured verification rounds on hard networks (scaled) ===\n");
    let widths = [8, 10, 12, 12, 14, 12];
    print_header(
        &[
            "n",
            "√n",
            "Ham rounds",
            "ST rounds",
            "Ham→ST agree",
            "Ω-bound",
        ],
        &widths,
    );
    for &(gamma, l) in &[(6usize, 9usize), (11, 17), (19, 17), (27, 33), (43, 33)] {
        let net = SimulationNetwork::build_even_tracks(gamma, l);
        let m = net.hamiltonian_m();
        let n = net.graph().node_count();
        let cfg = CongestConfig::classical(bandwidth);
        let ham = verify_hamiltonian_cycle(net.graph(), cfg, &m);
        let st = verify_spanning_tree(net.graph(), cfg, &m);
        // The Theorem 3.6 proof's reduction: Ham via an ST oracle.
        let via_st = verify_ham_via_spanning_tree(net.graph(), &m);
        assert!(ham.accept && !st.accept && via_st);
        print_row(
            &[
                &n.to_string(),
                &fmt_f((n as f64).sqrt()),
                &ham.ledger.rounds.to_string(),
                &st.ledger.rounds.to_string(),
                &(via_st == ham.accept).to_string(),
                &fmt_f(bounds::verification_lower_bound(n, bandwidth)),
            ],
            &widths,
        );
    }
    println!("\nTheorem 3.6: no quantum algorithm (even with entanglement) can verify Ham or");
    println!("ST on these networks in o(√(n/(B log n))) rounds; the measured classical");
    println!("verifiers are within polylog factors — quantumness buys essentially nothing.");
}
