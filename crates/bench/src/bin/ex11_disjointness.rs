//! Example 1.1: distributed Set Disjointness — the quantum speedup.
//!
//! Prints measured rounds of the classical streaming protocol and the
//! quantum (Grover round-trip) protocol at small scale, then the
//! closed-form curves across `b`, locating the crossover where quantum
//! communication genuinely wins — the phenomenon that forces the paper to
//! abandon Disjointness-based lower bounds.

use qdc_algos::disjointness::{
    classical_disjointness, classical_rounds, ex11_instance, quantum_disjointness, quantum_rounds,
    EX11_PROTOCOL_SEED,
};
use qdc_bench::{fmt_f, print_header, print_row};
use qdc_congest::{CongestConfig, NullTelemetry};

fn main() {
    let d = 16; // path length (distance between the input holders)
    let bandwidth = 16;
    let seed = EX11_PROTOCOL_SEED;

    println!("=== Example 1.1 (a): measured runs at distance D = {d}, B = {bandwidth} ===\n");
    let widths = [8, 12, 14, 14, 12];
    print_header(
        &["b", "disjoint?", "classical rds", "quantum rds", "q wins?"],
        &widths,
    );
    for &b in &[64usize, 256, 1024, 4096] {
        let (x, y, planted) = ex11_instance(b);
        let classical = CongestConfig::classical(bandwidth);
        let (c_run, _) = classical_disjointness(&x, &y, d, classical, &mut NullTelemetry);
        let quantum = CongestConfig::quantum(bandwidth);
        let (q_run, _) = quantum_disjointness(&x, &y, d, quantum, seed, &mut NullTelemetry);
        assert_eq!(c_run.disjoint, !planted);
        assert_eq!(q_run.disjoint, !planted);
        print_row(
            &[
                &b.to_string(),
                &c_run.disjoint.to_string(),
                &c_run.ledger.rounds.to_string(),
                &q_run.ledger.rounds.to_string(),
                &(q_run.ledger.rounds < c_run.ledger.rounds).to_string(),
            ],
            &widths,
        );
    }

    println!("\n=== Example 1.1 (b): closed-form crossover (D = {d}, B = {bandwidth}) ===\n");
    let widths = [12, 16, 16, 10];
    print_header(
        &["b", "classical D+b/B", "quantum 2D·π√b/4", "q wins?"],
        &widths,
    );
    let mut crossover = None;
    for k in 6..=24 {
        let b = 1usize << k;
        let c = classical_rounds(b, d, bandwidth);
        let q = quantum_rounds(b, d);
        if q < c && crossover.is_none() {
            crossover = Some(b);
        }
        print_row(
            &[
                &format!("2^{k}"),
                &c.to_string(),
                &q.to_string(),
                &(q < c).to_string(),
            ],
            &widths,
        );
    }
    match crossover {
        Some(b) => println!(
            "\nQuantum wins for b ≥ {b} (analytic crossover √b ≈ (π/2)·D·B = {}).",
            fmt_f(std::f64::consts::FRAC_PI_2 * d as f64 * bandwidth as f64)
        ),
        None => println!("\nNo crossover in range (increase b)."),
    }
    println!("In the paper's regime (b = √n, D = O(log n)) this is the Õ(n^1/4·D)-round");
    println!("quantum Disjointness of [AA05] beating the classical Ω̃(√n) bound.");
}
