//! Theorem 3.5: the Quantum Simulation Theorem, audited on real runs.
//!
//! Runs an event-driven component-labeling algorithm (the core of a Ham
//! verifier) on `N(Γ, L)` with an embedded subnetwork `M`, traces every
//! message, and charges each to the party owning its sender under the
//! ownership schedule `S_C^t / S_D^t / S_S^t`. The audited Carol+David
//! cost must stay within `6kB` per round — which is exactly the
//! `O(B log L)`-per-round claim of Theorem 3.5.

use qdc_bench::{print_header, print_row};
use qdc_congest::{NullTelemetry, RunOptions};
use qdc_simthm::{audited_flood, SimulationNetwork};

fn main() {
    let bandwidth = 32;
    println!("=== Theorem 3.5: per-round Carol+David cost vs the 6kB budget ===\n");
    println!("workload: min-label flood along the embedded M (quantum channel, B = {bandwidth})\n");
    let widths = [6, 6, 6, 10, 10, 12, 14, 12, 10];
    print_header(
        &[
            "Γ",
            "L",
            "k",
            "horizon",
            "rounds",
            "paid bits",
            "max/round",
            "6kB budget",
            "within",
        ],
        &widths,
    );
    for &(gamma, l) in &[(11usize, 17usize), (11, 33), (11, 65), (27, 33), (59, 33)] {
        let net = SimulationNetwork::build_even_tracks(gamma, l);
        let m = net.hamiltonian_m();
        let run = audited_flood(&net, &m, bandwidth, RunOptions::default(), NullTelemetry);
        let audit = run.audit;
        assert!(audit.within_budget, "Theorem 3.5 budget must hold");
        print_row(
            &[
                &net.path_count().to_string(),
                &net.length().to_string(),
                &net.highway_count().to_string(),
                &net.horizon().to_string(),
                &run.report.rounds.to_string(),
                &audit.total_paid().to_string(),
                &audit.max_paid_per_round.to_string(),
                &audit.per_round_budget.to_string(),
                &audit.within_budget.to_string(),
            ],
            &widths,
        );
    }
    println!("\nReading: the paid traffic per round is bounded by 6kB = O(B log L) regardless");
    println!("of Γ — so a T-round distributed algorithm yields an O(B log L · T)-bit Server");
    println!("protocol, and the Ω(Γ) Server-model hardness forces T = Ω(Γ/(B log L)).");
}
