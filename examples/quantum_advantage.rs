//! Example 1.1: the one place quantum communication *does* win — and why
//! that forced the paper to invent the Server model.
//!
//! ```sh
//! cargo run --release --example quantum_advantage
//! ```

use qdc::algos::disjointness::{
    classical_disjointness, classical_rounds, quantum_disjointness, quantum_rounds,
};
use qdc::congest::{CongestConfig, NullTelemetry, RunOptions};
use qdc::graph::generate;
use qdc::quantum::grover::{disjointness_queries, success_probability};

fn main() {
    // Grover itself, exactly simulated: quadratically fewer queries.
    println!("Grover search (state-vector simulation):");
    for &bits in &[8usize, 12, 16] {
        let n = 1usize << bits;
        let k = qdc::quantum::grover::optimal_iterations(n, 1);
        let p = success_probability(n, 1, k);
        println!("  {n:>6} items: {k:>4} queries, success probability {p:.4}");
    }

    // The distributed protocol: two nodes at distance D on a path.
    let d = 12;
    let bandwidth = 16;
    let b = 1024;
    let x = generate::random_bits(b, 1);
    let mut y: Vec<bool> = x.iter().map(|&v| !v).collect();
    y[500] = x[500]; // plant one intersection

    let options = RunOptions::default();
    let cfg = CongestConfig::classical(bandwidth);
    let (classical, _) = classical_disjointness(&x, &y, d, cfg, options, &mut NullTelemetry);
    let cfg = CongestConfig::quantum(bandwidth);
    let seed = 42; // the Grover measurement stream
    let (quantum, _) = quantum_disjointness(&x, &y, d, cfg, seed, options, &mut NullTelemetry);
    println!("\ndistributed Disjointness, b = {b}, D = {d}, B = {bandwidth}:");
    println!(
        "  classical streaming: answer disjoint={}, {} rounds ({} bits)",
        classical.disjoint, classical.ledger.rounds, classical.ledger.bits
    );
    println!(
        "  quantum (Grover):    answer disjoint={}, {} rounds ({} qubits, {} queries)",
        quantum.disjoint,
        quantum.ledger.rounds,
        quantum.ledger.bits,
        disjointness_queries(b)
    );

    // Where the curves cross.
    println!("\nclosed-form crossover (D = {d}, B = {bandwidth}):");
    for k in [14usize, 16, 18, 20, 22] {
        let b = 1usize << k;
        let c = classical_rounds(b, d, bandwidth);
        let q = quantum_rounds(b, d);
        println!(
            "  b = 2^{k:<2}: classical {c:>8}, quantum {q:>8}  → {}",
            if q < c {
                "QUANTUM WINS"
            } else {
                "classical wins"
            }
        );
    }

    println!("\nThis is why the paper cannot reduce from Disjointness like Das Sarma et al.:");
    println!("quantumly, Disj is easy (O(√b) communication). The paper's fix: prove Ω(n)");
    println!("bounds for IPmod3 and Gap-Eq in the *Server model* via nonlocal games, where");
    println!("no Grover-style shortcut exists — then reduce those to graph verification.");
}
