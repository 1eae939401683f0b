//! Quickstart: build the paper's hard network, run a real distributed
//! MST on it, and see the Theorem 3.8 story in numbers.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use qdc::algos::mst::{mst_approx_sweep, mst_exact};
use qdc::congest::CongestConfig;
use qdc::core::{bounds, theorems};
use qdc::simthm::SimulationNetwork;

fn main() {
    // 1. The Theorem 3.5 network: Γ paths of length L plus log L highways.
    let net = SimulationNetwork::build(14, 17);
    let n = net.graph().node_count();
    let diam = qdc::graph::algorithms::diameter(net.graph()).expect("connected") as usize;
    println!(
        "network: {} nodes, diameter {} (≈ log L), horizon {}",
        n,
        diam,
        net.horizon()
    );

    // 2. Embed a Server-model instance: two perfect matchings on the
    //    track labels form the subnetwork M (a Hamiltonian cycle here).
    let m = net.hamiltonian_m();
    println!(
        "embedded M: {} edges, Hamiltonian = {}",
        m.edge_count(),
        qdc::graph::predicates::is_hamiltonian_cycle(net.graph(), &m)
    );

    // 3. The §9.2 weight gadget: M-edges weight 1, everything else W.
    let alpha = 2.0;
    let w = 4 * n as u64; // W > αn, the separating regime
    let weights = theorems::weight_gadget(net.graph(), &m, w);
    println!("weights: aspect ratio W = {}", weights.aspect_ratio());

    // 4. Run both distributed MST algorithms and compare with theory.
    let cfg = CongestConfig::classical(64);
    let exact = mst_exact(net.graph(), cfg, &weights);
    let approx = mst_approx_sweep(net.graph(), cfg, &weights, alpha);
    println!(
        "exact MST   (Kutten–Peleg style): weight {}, {} rounds",
        exact.total_weight, exact.ledger.rounds
    );
    println!(
        "approx MST  (Elkin-style sweep):  weight {}, {} rounds",
        approx.total_weight, approx.ledger.rounds
    );

    // 5. The lower bound no algorithm — classical or quantum — can beat.
    let lower = bounds::optimization_lower_bound(n, 64, w as f64, alpha);
    println!(
        "Theorem 3.8: any {}-approximate quantum MST needs Ω({lower:.2}) rounds here;",
        alpha
    );
    println!("the exact algorithm's √n-ish round count is optimal up to polylog factors —");
    println!("quantum communication cannot substantially speed this up.");
}
