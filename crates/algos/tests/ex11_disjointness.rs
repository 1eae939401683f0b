//! Integration tests for Example 1.1 distributed Set Disjointness: the
//! classical streaming protocol and the quantum Grover round-trip
//! protocol, run on the real CONGEST simulator over a length-D path.
//!
//! This is the test-suite form of the `ex11_disjointness` bin's
//! assertions: planted-intersection and disjoint instances across
//! b ∈ {64, 256, 1024}, answer correctness on both channels, measured
//! round counts against the closed forms, and the crossover ordering.

use qdc_algos::disjointness::{
    classical_disjointness, classical_rounds, quantum_disjointness, quantum_rounds, DisjointnessRun,
};
use qdc_congest::{CongestConfig, NullTelemetry};
use qdc_graph::generate;

/// The bin's Grover measurement seed.
const SEED: u64 = 11;

/// An unobserved classical run over a `d`-hop path at budget `B`.
fn classical(x: &[bool], y: &[bool], d: usize, bandwidth: usize) -> DisjointnessRun {
    let cfg = CongestConfig::classical(bandwidth);
    classical_disjointness(x, y, d, cfg, &mut NullTelemetry).0
}

/// An unobserved quantum run over a `d`-hop path at budget `B`.
fn quantum(x: &[bool], y: &[bool], d: usize, bandwidth: usize) -> DisjointnessRun {
    let cfg = CongestConfig::quantum(bandwidth);
    quantum_disjointness(x, y, d, cfg, SEED, &mut NullTelemetry).0
}

/// The bin's instance family: pseudorandom `x`, complemented `y`
/// (disjoint by construction), optionally one shared element forced in
/// at `b/2` on both sides.
fn instance(b: usize, plant: bool) -> (Vec<bool>, Vec<bool>, bool) {
    let mut x = generate::random_bits(b, 100 + b as u64);
    let mut y: Vec<bool> = x.iter().map(|&v| !v).collect();
    if plant {
        x[b / 2] = true;
        y[b / 2] = true;
    }
    let planted = x.iter().zip(&y).any(|(&a, &c)| a && c);
    assert_eq!(planted, plant, "the plant site must actually intersect");
    (x, y, planted)
}

#[test]
fn ex11_both_protocols_decide_planted_and_disjoint_instances() {
    let d = 16;
    let bandwidth = 16;
    for b in [64usize, 256, 1024] {
        for plant in [false, true] {
            let (x, y, planted) = instance(b, plant);

            let c_run = classical(&x, &y, d, bandwidth);
            assert_eq!(
                c_run.disjoint, !planted,
                "classical verdict wrong at b = {b}, plant = {plant}"
            );

            let q_run = quantum(&x, &y, d, bandwidth);
            assert_eq!(
                q_run.disjoint, !planted,
                "quantum verdict wrong at b = {b}, plant = {plant}"
            );
        }
    }
}

#[test]
fn ex11_measured_rounds_match_the_closed_forms() {
    let d = 16;
    let bandwidth = 16;
    for b in [64usize, 256, 1024] {
        let (x, y, _) = instance(b, b >= 256);

        let c_run = classical(&x, &y, d, bandwidth);
        let c_pred = classical_rounds(b, d, bandwidth);
        assert!(
            (c_pred..=c_pred + 2).contains(&c_run.ledger.rounds),
            "classical b = {b}: measured {} vs predicted {c_pred}",
            c_run.ledger.rounds
        );

        let q_run = quantum(&x, &y, d, bandwidth);
        assert_eq!(
            q_run.ledger.rounds,
            quantum_rounds(b, d),
            "the quantum bounce is exactly 2·D rounds per query (b = {b})"
        );
    }
}

#[test]
fn ex11_seeded_entry_point_is_reproducible() {
    let (x, y, _) = instance(256, true);
    let run = |seed| {
        let (run, report) = quantum_disjointness(
            &x,
            &y,
            4,
            CongestConfig::quantum(16),
            seed,
            &mut NullTelemetry,
        );
        (run.disjoint, run.ledger.rounds, report.bits_sent)
    };
    assert_eq!(run(11), run(11), "equal seeds give byte-equal outcomes");
}

#[test]
fn ex11_crossover_ordering_holds_on_the_measured_curve() {
    // At D = 2 the quantum protocol's 2·D·⌈(π/4)√b⌉ rounds undercut the
    // classical ⌈b/B⌉ + D − 1 pipeline only once b clears the analytic
    // crossover √b ≈ (π/2)·D·B — below it, classical wins.
    let d = 2;
    let bandwidth = 12;
    let mut saw_classical_win = false;
    let mut saw_quantum_win = false;
    for b in [64usize, 1024, 4096] {
        let (x, y, _) = instance(b, b >= 256);
        let c_run = classical(&x, &y, d, bandwidth);
        let q_run = quantum(&x, &y, d, bandwidth);
        let predicted_q_wins = quantum_rounds(b, d) < classical_rounds(b, d, bandwidth);
        let measured_q_wins = q_run.ledger.rounds < c_run.ledger.rounds;
        assert_eq!(
            measured_q_wins, predicted_q_wins,
            "measured ordering diverges from the closed forms at b = {b}"
        );
        saw_classical_win |= !measured_q_wins;
        saw_quantum_win |= measured_q_wins;
    }
    assert!(saw_classical_win, "the grid must include pre-crossover b");
    assert!(saw_quantum_win, "the grid must include post-crossover b");
}
