//! The Quantum Simulation Theorem in action: run a real distributed
//! algorithm on the hard network, and watch Carol, David and the server
//! re-enact it with O(B log L) communication per round.
//!
//! ```sh
//! cargo run --release --example simulation_theorem
//! ```

use qdc::algos::verify::verify_hamiltonian_cycle;
use qdc::congest::{CongestConfig, NullTelemetry};
use qdc::simthm::{audited_flood, Party, SimulationNetwork};

fn main() {
    let net = SimulationNetwork::build(11, 33); // 11 paths + 5 highways
    let m = net.hamiltonian_m();
    let bandwidth = 32;

    println!(
        "network N: Γ = {}, L = {}, k = {} highways, {} nodes, horizon L/2−2 = {}",
        net.path_count(),
        net.length(),
        net.highway_count(),
        net.graph().node_count(),
        net.horizon()
    );

    // Ownership at a few times (Equations 36–38).
    for t in [0usize, 3, net.horizon()] {
        let (mut c, mut d, mut s) = (0, 0, 0);
        for v in net.graph().nodes() {
            match net.owner(v, t) {
                Party::Carol => c += 1,
                Party::David => d += 1,
                Party::Server => s += 1,
            }
        }
        println!("t = {t:>2}: Carol owns {c:>4}, David owns {d:>4}, server owns {s:>4}");
    }

    // Run the component flood on the quantum channel and audit it.
    let run = audited_flood(&net, &m, bandwidth, NullTelemetry);
    let (report, audit) = (run.report, run.audit);
    println!(
        "\nflood ran {} rounds ({} qubits total on the network)",
        report.rounds, report.bits_sent
    );
    println!(
        "three-party audit: Carol paid {} qubits, David paid {}, max {}/round",
        audit.carol_bits, audit.david_bits, audit.max_paid_per_round
    );
    println!(
        "Theorem 3.5 budget 6kB = {} per round → within budget: {}",
        audit.per_round_budget, audit.within_budget
    );
    let all_same = run.nodes.windows(2).all(|w| w[0].label() == w[1].label());
    println!(
        "labels converged within the horizon: {all_same} — {}",
        if all_same {
            "the flood finished early"
        } else {
            "as the theorem predicts: deciding Ham(M) needs more than L/2−2 rounds"
        }
    );

    // And the full multi-stage verifier agrees with ground truth.
    let run = verify_hamiltonian_cycle(net.graph(), CongestConfig::classical(64), &m);
    println!(
        "\ndistributed Ham verification: accept = {}, {} rounds over {} stages",
        run.accept, run.ledger.rounds, run.ledger.stages
    );
    println!("⇒ a T-round algorithm here yields a ≤ 6kB·T-bit Server protocol for Ham —");
    println!("  and Ham needs Ω(Γ) Server bits (Theorem 3.4), so T = Ω(Γ/(B log L)).");
}
