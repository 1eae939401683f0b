//! The gadget reductions of Section 7 (and Appendix C) of the paper.
//!
//! Two-party graph problems (Definition 3.3) split the edge set of a graph
//! `G` between Carol and David; here we build the graphs that *reduce*
//! hard communication problems to Hamiltonian-cycle verification:
//!
//! * [`ipmod3_ham`] — `IPmod3ₙ → Ham`: a chain of 3-track permutation
//!   gadgets (Figures 4–6, 12) such that `G` is a Hamiltonian cycle iff
//!   `Σᵢ xᵢyᵢ ≢ 0 (mod 3)` (Lemma C.3), with each player's edges forming a
//!   perfect matching (as Theorem 3.5's embedding requires);
//! * [`gapeq_ham`] — `(βn)-Eq → (βn)-Ham`: a chain of 2-track pass/turn
//!   gadgets (Figure 7) such that `G` is a Hamiltonian cycle iff `x = y`,
//!   and a Hamming distance of `δ` produces `δ + 1` disjoint cycles (the
//!   paper counts `δ`; the off-by-one is an artifact of the end caps and
//!   irrelevant to the Ω(βn) gap);
//! * [`ham_to_st`] — the Ham → spanning-tree reduction used in the proof
//!   of Theorem 3.6 (check degrees, delete one edge);
//! * [`corollaries`] — the Corollary 3.10 transfers: the Gap-Eq
//!   instances read as connectivity and s-t-connectivity problems.
//!
//! The gadget wirings are our own (the paper's figures pin down only the
//! boundary interface); every stated invariant — Observation 7.1,
//! Lemma 7.2, Lemma C.3, the δ-cycle count — is verified by exhaustive and
//! property-based tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod corollaries;
pub mod gapeq_ham;
pub mod ham_to_st;
pub mod instance;
pub mod ipmod3_ham;

pub use campaign::{GadgetExperiment, GadgetFamily, GadgetPoint};
pub use gapeq_ham::gapeq_to_ham;
pub use instance::TwoPartyGraphInstance;
pub use ipmod3_ham::ipmod3_to_ham;
