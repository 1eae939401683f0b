//! Graph substrate for the `qdc` workspace.
//!
//! This crate provides the graph machinery that the rest of the
//! reproduction of Elkin–Klauck–Nanongkai–Pandurangan (PODC 2014) is built
//! on: an undirected [`Graph`] type, [`EdgeWeights`] with aspect-ratio
//! tracking, [`Subgraph`] indicators (the "subnetwork M of N" of the paper's
//! Section 2.2), every verification predicate from Appendix A.2, sequential
//! reference algorithms (BFS, Dijkstra, Kruskal, Stoer–Wagner, …) used as
//! oracles by the distributed algorithms, and deterministic random-graph
//! generators.
//!
//! # Example
//!
//! ```
//! use qdc_graph::{Graph, predicates};
//!
//! // A 4-cycle is a Hamiltonian cycle of itself.
//! let g = Graph::cycle(4);
//! let all = g.full_subgraph();
//! assert!(predicates::is_hamiltonian_cycle(&g, &all));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dsu;
mod graph;
mod subgraph;
mod weighted;

pub mod algorithms;
pub mod generate;
pub mod lel;
pub mod optimization;
pub mod predicates;

pub use dsu::DisjointSets;
pub use graph::{EdgeId, Graph, GraphBuilder, NodeId};
pub use subgraph::Subgraph;
pub use weighted::EdgeWeights;
