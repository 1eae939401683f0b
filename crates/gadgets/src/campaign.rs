//! Campaign adapter: one seeded gadget point → one verification instance.
//!
//! The campaign harness (`qdc-harness`) sweeps gadget reductions over
//! input sizes and seeds; this module turns a plain-data
//! [`GadgetPoint`] into a concrete [`TwoPartyGraphInstance`] plus the
//! *expected* Hamiltonicity verdict, computed from the reduction's own
//! predicted cycle count (Lemma C.3 for `IPmod3 → Ham`, the Figure 7
//! invariant for `Gap-Eq → Ham`). The harness runs a distributed
//! verifier on the instance and cross-checks its answer against the
//! prediction — every campaign point is therefore also a correctness
//! probe of the whole reduction-plus-verifier pipeline.
//!
//! Instances are generated from a seeded ChaCha8 stream, so a point is
//! a pure function of `(family, bits, seed)` and campaigns replay
//! byte-identically regardless of sharding.

use crate::gapeq_ham;
use crate::instance::TwoPartyGraphInstance;
use crate::ipmod3_ham;
use qdc_graph::predicates;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Which Section 7 reduction a point exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GadgetFamily {
    /// `IPmod3ₙ → Ham` (Figures 4–6, 12; Lemma C.3).
    Ipmod3,
    /// `(βn)-Eq → (βn)-Ham` (Figure 7).
    GapEq,
}

impl GadgetFamily {
    /// Stable lowercase name, used in campaign records.
    pub fn name(self) -> &'static str {
        match self {
            GadgetFamily::Ipmod3 => "ipmod3",
            GadgetFamily::GapEq => "gapeq",
        }
    }
}

/// One cell of a gadget campaign grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GadgetPoint {
    /// The reduction family.
    pub family: GadgetFamily,
    /// Input length `n` of the two-party problem (one gadget per bit).
    pub bits: usize,
    /// Seed for the ChaCha8 stream generating `x` and `y`.
    pub seed: u64,
}

/// A generated instance with its predicted verdict.
#[derive(Clone, Debug)]
pub struct GadgetExperiment {
    /// The reduced two-party graph instance.
    pub instance: TwoPartyGraphInstance,
    /// Whether the reduction predicts `G` is a Hamiltonian cycle
    /// (cycle count 1).
    pub expected_ham: bool,
    /// The reduction's predicted cycle count.
    pub predicted_cycles: u64,
    /// Whether the sequential reference predicate agrees with the
    /// prediction — `false` would mean the reduction itself is broken.
    pub prediction_holds: bool,
}

/// Builds the instance for one point and checks the reduction's cycle
/// prediction against the sequential reference predicate.
///
/// # Panics
///
/// Panics if `bits == 0` (the reductions need at least one input bit).
/// Campaign specs are validated before any point runs.
pub fn run_point(point: &GadgetPoint) -> GadgetExperiment {
    let mut rng = ChaCha8Rng::seed_from_u64(point.seed);
    let x: Vec<bool> = (0..point.bits).map(|_| rng.gen_bool(0.5)).collect();
    let mut y: Vec<bool> = (0..point.bits).map(|_| rng.gen_bool(0.5)).collect();
    // Half the GapEq points get y = x, otherwise random y's are almost
    // never equal and the accept branch would go unexercised.
    if point.family == GadgetFamily::GapEq && rng.gen_bool(0.5) {
        y = x.clone();
    }
    let (instance, predicted) = match point.family {
        GadgetFamily::Ipmod3 => (
            ipmod3_ham::ipmod3_to_ham(&x, &y),
            ipmod3_ham::predicted_cycle_count(&x, &y),
        ),
        GadgetFamily::GapEq => (
            gapeq_ham::gapeq_to_ham(&x, &y),
            gapeq_ham::predicted_cycle_count(&x, &y),
        ),
    };
    let sub = instance.full_subgraph();
    let is_ham = predicates::is_hamiltonian_cycle(instance.graph(), &sub);
    GadgetExperiment {
        expected_ham: predicted == 1,
        predicted_cycles: predicted as u64,
        prediction_holds: is_ham == (predicted == 1),
        instance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gadget_points_are_deterministic() {
        for family in [GadgetFamily::Ipmod3, GadgetFamily::GapEq] {
            let p = GadgetPoint {
                family,
                bits: 6,
                seed: 3,
            };
            let a = run_point(&p);
            let b = run_point(&p);
            assert_eq!(a.expected_ham, b.expected_ham);
            assert_eq!(a.predicted_cycles, b.predicted_cycles);
            assert_eq!(
                a.instance.graph().edge_count(),
                b.instance.graph().edge_count()
            );
        }
    }

    #[test]
    fn gadget_prediction_matches_sequential_reference() {
        for family in [GadgetFamily::Ipmod3, GadgetFamily::GapEq] {
            for seed in 0..16 {
                let p = GadgetPoint {
                    family,
                    bits: 5,
                    seed,
                };
                let exp = run_point(&p);
                assert!(
                    exp.prediction_holds,
                    "{} seed {seed}: predicted {} cycles but reference disagrees",
                    family.name(),
                    exp.predicted_cycles
                );
            }
        }
    }

    #[test]
    fn gadget_gapeq_seeds_cover_both_verdicts() {
        let verdicts: Vec<bool> = (0..32)
            .map(|seed| {
                run_point(&GadgetPoint {
                    family: GadgetFamily::GapEq,
                    bits: 6,
                    seed,
                })
                .expected_ham
            })
            .collect();
        assert!(verdicts.iter().any(|&v| v));
        assert!(verdicts.iter().any(|&v| !v));
    }
}
