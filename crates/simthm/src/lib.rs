//! The Quantum Simulation Theorem machinery (Section 8 / Appendix D).
//!
//! Theorem 3.5 is the bridge from Server-model hardness to distributed
//! lower bounds: there is a `B`-model network `N` of `Θ(ΓL)` nodes and
//! diameter `Θ(log L)` such that any distributed algorithm deciding
//! Hamiltonian-cycle verification on `N` in `T ≤ L/2 − 2` rounds can be
//! simulated by Carol, David and the free server with only
//! `O(B log L)` bits of Carol/David communication per round.
//!
//! This crate implements both halves executably:
//!
//! * [`network`] — the construction of `N`: `Γ` paths of length `L`,
//!   boundary cliques, and `k = log₂(L−1)` geometrically-spaced
//!   **highways** that crush the diameter to `Θ(log L)` (Figures 8, 10,
//!   13), plus the embedding of a pair of perfect matchings `(E_C, E_D)`
//!   as the subnetwork `M` with `cycles(M) = cycles(G)` (Observation 8.1);
//! * [`simulate`] — the ownership sets `S_C^t / S_D^t / S_S^t`
//!   (Equations 36–38) and a traffic **audit**: every message of a real
//!   simulator run is charged to the party owning its sender, verifying
//!   that the Carol/David-paid traffic stays within the `6kB`-per-round
//!   budget the proof of Theorem 3.5 uses. [`audited_flood`] is the one
//!   audited workload every Theorem 3.5 experiment runs;
//! * [`campaign`] — the grid-sweep adapter: one Γ×L parameter point run
//!   deterministically, under any telemetry sink, for the `qdc-harness`
//!   campaign runner.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod network;
pub mod simulate;

pub use campaign::{SimThmOutcome, SimThmPoint};
pub use network::{Party, SimulationNetwork};
pub use simulate::{audit_trace, audited_flood, AuditedFlood, ComponentFlood, ThreePartyAudit};
