//! Distributed CONGEST algorithms: the upper-bound side of the paper.
//!
//! The paper's lower bounds are meaningful because near-matching *upper*
//! bounds exist classically: MST in Õ(√n + D) (Kutten–Peleg), α-approximate
//! MST in O(W/α + D) (Elkin), Õ(√n + D) verification (Das Sarma et al.),
//! and the Grover-based quantum Disjointness protocol of Example 1.1.
//! This crate implements executable counterparts on the `qdc-congest`
//! simulator:
//!
//! * [`flood`] — leader election and BFS-tree construction;
//! * [`tree`] — the shared communication patterns (one-round exchange,
//!   convergecast and broadcast over a rooted forest, and the relaxing and
//!   pipelined floods) and the public aggregation over a BFS tree;
//! * [`fragments`] — the two-phase fragment engine (Controlled-GHS-style
//!   local merging up to size √n, then globally pipelined Borůvka over a
//!   BFS tree), used for both MST and connected-component counting;
//! * [`mst`] — exact MST (Kutten–Peleg style) and the Elkin-style
//!   threshold-sweep α-approximation whose round count scales as `W/α`;
//! * [`verify`] / [`verify_ext`] — distributed verification of every
//!   Section 2.2 / Appendix A.2 problem: Hamiltonian cycle, spanning
//!   tree, connectivity, spanning connected subgraph, cycle and e-cycle
//!   containment, bipartiteness, s-t connectivity, cut, s-t cut,
//!   edge-on-all-paths and simple path, plus distributed least-element
//!   lists (Cohen's pruned flood) in [`lel`] — the full Corollary 3.7
//!   roster;
//! * [`sssp`] — distributed Bellman–Ford single-source distances, and
//!   [`apsp`] — pipelined-BFS all-pairs distances / diameter (the
//!   \[HW12\] upper bound the conclusion's open problems refer to);
//! * [`disjointness`] — Example 1.1: classical streaming vs quantum
//!   (Grover) distributed Set Disjointness.
//!
//! ## Composition and accounting conventions
//!
//! Multi-phase algorithms are composed of successive simulator runs with
//! state carried between stages; a [`Ledger`] accumulates rounds, messages
//! and bits across stages. Every stage runs and is charged in one step
//! (the crate-private `Ledger::run`), so a stage cannot run uncharged;
//! only the Example 1.1 protocols, observed by a telemetry sink, charge
//! their run themselves. The five patterns most stages share — a
//! one-round neighbour exchange, a convergecast up a rooted forest, a
//! broadcast down it, a flood that relaxes every node's value to a
//! fixpoint, and a flood that pipelines a queue of entries one per edge
//! per round — are written once in [`tree`], and callers supply only
//! their message codec and their selection rule. Phase switches happen
//! at global quiescence — the standard synchronous-model idealization.
//! Message widths are derived from `n` and the maximum weight; stages
//! assert that one logical message fits in the `B`-bit budget (i.e.
//! `B = Θ(log n)` as in the paper; the lower-bound formulas take the same
//! `B`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apsp;
pub mod disjointness;
pub mod flood;
pub mod fragments;
pub mod ledger;
pub mod lel;
pub mod mst;
pub mod sssp;
pub mod tree;
pub mod verify;
pub mod verify_ext;
pub mod widths;

pub use ledger::Ledger;
