//! Figure 3: the MST time/aspect-ratio trade-off.
//!
//! For fixed `n` and `α`, sweeps the weight aspect ratio `W` and prints:
//! the Theorem 3.8 lower bound `Ω(min(W/α, √n)/√(B log n))`, the two
//! upper-bound branches (Elkin `O(W/α + D)`, Kutten–Peleg `Õ(√n + D)`),
//! and the **measured** rounds of both distributed MST algorithms on a
//! Theorem 3.8 hard network with the §9.2 weight gadget. The
//! reproduction target is the *shape*: the approximate branch grows
//! linearly in `W`, the exact branch is flat, and they cross near
//! `W = Θ(α√n)` — the solid line of Figure 3.

use qdc_algos::mst::{mst_approx_sweep, mst_exact};
use qdc_bench::{fmt_f, print_header, print_row};
use qdc_congest::CongestConfig;
use qdc_core::{bounds, theorems};
use qdc_simthm::SimulationNetwork;

fn main() {
    let bandwidth = 48;
    let alpha = 2.0;

    // A fixed Theorem 3.8-style network (scaled down for the simulator).
    let net = SimulationNetwork::build_even_tracks(13, 17);
    let n = net.graph().node_count();
    let diam = qdc_graph::algorithms::diameter(net.graph()).unwrap() as usize;
    let m = net.hamiltonian_m();

    println!("=== Figure 3: T(n, W) for n = {n}, α = {alpha}, B = {bandwidth}, D = {diam} ===\n");
    println!(
        "theory crossovers: W = α√n ≈ {}, W = αn ≈ {}\n",
        fmt_f(bounds::fig3_first_crossover(n, alpha)),
        fmt_f(bounds::fig3_second_crossover(n, alpha))
    );

    let widths = [8, 14, 14, 14, 16, 16, 12];
    print_header(
        &[
            "W",
            "lower Ω(·)",
            "upper W/α+D",
            "upper √n+D",
            "measured approx",
            "measured exact",
            "ratio ok",
        ],
        &widths,
    );
    for &w in &[2u64, 8, 32, 128, 512, 2048] {
        let weights = theorems::weight_gadget(net.graph(), &m, w);
        let cfg = CongestConfig::classical(bandwidth);
        let approx = mst_approx_sweep(net.graph(), cfg, &weights, alpha);
        let exact = mst_exact(net.graph(), cfg, &weights);
        let reference = qdc_graph::algorithms::kruskal_mst(net.graph(), &weights);
        assert_eq!(
            exact.total_weight, reference.total_weight,
            "exact MST must match Kruskal"
        );
        let ratio_ok = approx.total_weight as f64 <= alpha * reference.total_weight as f64;
        print_row(
            &[
                &w.to_string(),
                &fmt_f(bounds::optimization_lower_bound(
                    n, bandwidth, w as f64, alpha,
                )),
                &fmt_f(bounds::elkin_upper(w as f64, alpha, diam)),
                &fmt_f(bounds::sqrt_n_plus_d_upper(n, diam)),
                &approx.ledger.rounds.to_string(),
                &exact.ledger.rounds.to_string(),
                &ratio_ok.to_string(),
            ],
            &widths,
        );
    }
    println!("\nShape check: 'measured approx' grows ~W/α while 'measured exact' stays flat;");
    println!("the winner flips at the crossover, matching the solid line of Figure 3.");
}
