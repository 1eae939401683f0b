//! A synchronous CONGEST(B) network simulator.
//!
//! The paper's model (Section 2.1 / Appendix A.1): a synchronous network
//! of `n` processors on an undirected graph; per round, each node may send
//! one message of at most `B` bits (classical) or `B` qubits (quantum)
//! through each incident edge; internal computation is free; the cost
//! measure is the number of rounds. This crate implements that model as a
//! deterministic lockstep simulator with **bit-exact congestion
//! accounting** (design decision D1 in DESIGN.md): every message carries
//! its exact bit length, oversized sends panic, and the run report records
//! rounds, messages and bits/qubits per direction.
//!
//! The simulator is generic over the node algorithm type (no trait
//! objects), so distributed algorithms read like ordinary Rust state
//! machines. See `qdc-algos` for BFS, leader election, MST, and the
//! verification algorithms built on top.
//!
//! The model the paper analyzes is fault-free; the simulator also
//! supports deterministic, seeded **fault injection** for robustness
//! work ([`ChaosConfig`] / [`FaultPlan`] / [`Simulator::try_run`]):
//! message drops, crash-stop failures, and payload corruption, replayed
//! byte-exactly per seed, with structured [`SimError`]s instead of
//! panics on discipline violations.
//!
//! Round-level **observability** is opt-in via the [`telemetry`] module:
//! a [`Telemetry`] sink watches every round of an observed run
//! ([`Simulator::try_run_observed`] and friends) without perturbing it,
//! and [`RoundProfiler`] folds the event stream into a serializable
//! [`TelemetryReport`]. The default [`NullTelemetry`] sink compiles the
//! instrumentation away entirely. For runs whose length dwarfs memory,
//! the [`stream`] module offers [`StreamSink`]: an O(1)-state sink that
//! emits each round as `qdc-telemetry-stream/v1` JSONL the moment it
//! commits, keeping only mergeable aggregates (running totals, a fixed
//! utilisation histogram, and deterministic top-K sketches) in memory.
//! These archives, and every campaign and service document downstream,
//! read and write through one strict JSON layer: the [`json`] module.
//!
//! # Example
//!
//! ```
//! use qdc_congest::{CongestConfig, Inbox, Message, NodeInfo, Outbox, Simulator, NodeAlgorithm};
//! use qdc_graph::Graph;
//!
//! /// Each node floods a token once and terminates.
//! struct Flood { seen: bool }
//!
//! impl NodeAlgorithm for Flood {
//!     fn on_start(&mut self, info: &NodeInfo, out: &mut Outbox) {
//!         if info.id.0 == 0 {
//!             self.seen = true;
//!             out.broadcast(Message::from_bit(true));
//!         }
//!     }
//!     fn on_round(&mut self, _info: &NodeInfo, inbox: &Inbox, out: &mut Outbox) {
//!         if !self.seen && !inbox.is_empty() {
//!             self.seen = true;
//!             out.broadcast(Message::from_bit(true));
//!         }
//!     }
//!     fn is_terminated(&self) -> bool { self.seen }
//! }
//!
//! let g = Graph::path(4);
//! let sim = Simulator::new(&g, CongestConfig::classical(8));
//! let (nodes, report) = sim.run(|_| Flood { seen: false }, 100);
//! assert!(report.completed);
//! assert!(nodes.iter().all(|n| n.seen));
//! // Distance 3 to the far end, plus one round draining the last
//! // rebroadcast (the run ends at quiescence: all nodes terminated and
//! // no messages in flight).
//! assert_eq!(report.rounds, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
mod chaos;
mod message;
mod sim;

pub mod json;
pub mod stream;
pub mod telemetry;
pub mod topology;

pub use bits::{BitReader, BitString};
pub use chaos::{ChaosConfig, FaultAction, FaultPlan, FaultStats};
pub use message::Message;
pub use sim::{
    ChannelKind, CongestConfig, Inbox, NodeAlgorithm, NodeInfo, Outbox, RunOptions, RunReport,
    SimError, Simulator, StepSummary, Stepper, TracedMessage, TracedRound, TracedRoundIter,
    TrafficTrace, WatchdogReport,
};
pub use stream::{
    read_aggregate, StreamAggregate, StreamHeader, StreamReader, StreamRecord, StreamSink,
    StreamTotals, TopEntry, TopK, TotalsOverflow, STREAM_FLUSH_BYTES, STREAM_SCHEMA,
};
pub use telemetry::{
    EdgeTotals, NodeClass, NodeTotals, NullTelemetry, QubitSplit, RoundProfile, RoundProfiler,
    Telemetry, TelemetryParseError, TelemetryReport, TELEMETRY_SCHEMA,
};
