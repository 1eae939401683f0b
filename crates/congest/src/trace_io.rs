//! JSONL archival for [`TrafficTrace`] — hand-rolled, no serde.
//!
//! A traced run is the unit the campaign harness archives: one header
//! line naming the schema, then one line per round listing the messages
//! delivered that round and the count the fault layer dropped. The
//! format is deliberately tiny and fully specified here, so offline
//! tooling (or a later replay) can consume it without this crate:
//!
//! ```text
//! {"schema":"qdc-trace/v1","rounds":2}
//! {"round":1,"dropped":0,"messages":[{"from":0,"to":1,"bits":4}]}
//! {"round":2,"dropped":1,"messages":[]}
//! ```
//!
//! [`TrafficTrace::from_jsonl`] inverts [`TrafficTrace::to_jsonl`]
//! exactly (a round-trip is byte-identical, and the parser demands the
//! final newline the writer always emits), tolerates insignificant
//! whitespace, and rejects anything else with a line-numbered
//! [`TraceParseError`] instead of panicking.

use crate::jsonl::{Cursor, LineError};
use crate::sim::{TracedMessage, TrafficTrace};
use qdc_graph::NodeId;
use std::fmt::Write as _;

/// The schema tag emitted on (and required of) the header line.
pub const TRACE_SCHEMA: &str = "qdc-trace/v1";

/// A malformed trace archive: which line failed and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was expected or found.
    pub msg: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for TraceParseError {}

impl From<LineError> for TraceParseError {
    fn from(e: LineError) -> Self {
        TraceParseError {
            line: e.line,
            msg: e.msg,
        }
    }
}

impl TrafficTrace {
    /// Serializes the trace as JSONL: a schema header line, then one
    /// line per round. The output ends with a newline.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"schema\":\"{TRACE_SCHEMA}\",\"rounds\":{}}}",
            self.rounds.len()
        );
        for (r, msgs) in self.rounds.iter().enumerate() {
            let dropped = self.dropped.get(r).copied().unwrap_or(0);
            let _ = write!(
                out,
                "{{\"round\":{},\"dropped\":{dropped},\"messages\":[",
                r + 1
            );
            for (i, m) in msgs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"from\":{},\"to\":{},\"bits\":{}}}",
                    m.from.0, m.to.0, m.bits
                );
            }
            out.push_str("]}\n");
        }
        out
    }

    /// Parses a JSONL archive produced by [`to_jsonl`]
    /// (TrafficTrace::to_jsonl). Insignificant whitespace is tolerated;
    /// a wrong schema tag, a wrong round number, a missing final newline
    /// (the writer always emits one — the parser demands it, keeping the
    /// round-trip contract symmetric), or any malformed line is rejected
    /// with a [`TraceParseError`].
    pub fn from_jsonl(text: &str) -> Result<TrafficTrace, TraceParseError> {
        if !text.is_empty() && !text.ends_with('\n') {
            return Err(TraceParseError {
                line: text.lines().count(),
                msg: "missing final newline (to_jsonl always emits one)".into(),
            });
        }
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l))
            .filter(|(_, l)| !l.trim().is_empty());
        let (line_no, header) = lines.next().ok_or(TraceParseError {
            line: 1,
            msg: "empty trace archive".into(),
        })?;
        let mut c = Cursor::new(line_no, header);
        c.expect("{")?;
        c.expect("\"schema\"")?;
        c.expect(":")?;
        c.expect(&format!("\"{TRACE_SCHEMA}\""))?;
        c.expect(",")?;
        c.expect("\"rounds\"")?;
        c.expect(":")?;
        let round_count = c.parse_u64()? as usize;
        c.expect("}")?;
        c.end()?;

        let mut trace = TrafficTrace::default();
        for (line_no, line) in lines {
            let mut c = Cursor::new(line_no, line);
            c.expect("{")?;
            c.expect("\"round\"")?;
            c.expect(":")?;
            let round = c.parse_u64()? as usize;
            if round != trace.rounds.len() + 1 {
                return Err(c
                    .err(format!(
                        "round {round} out of order (expected {})",
                        trace.rounds.len() + 1
                    ))
                    .into());
            }
            c.expect(",")?;
            c.expect("\"dropped\"")?;
            c.expect(":")?;
            let dropped = c.parse_u64()?;
            c.expect(",")?;
            c.expect("\"messages\"")?;
            c.expect(":")?;
            c.expect("[")?;
            let mut msgs = Vec::new();
            if c.peek() != Some(b']') {
                loop {
                    c.expect("{")?;
                    c.expect("\"from\"")?;
                    c.expect(":")?;
                    let from = c.parse_u64()?;
                    c.expect(",")?;
                    c.expect("\"to\"")?;
                    c.expect(":")?;
                    let to = c.parse_u64()?;
                    c.expect(",")?;
                    c.expect("\"bits\"")?;
                    c.expect(":")?;
                    let bits = c.parse_u64()? as usize;
                    c.expect("}")?;
                    let narrow = |v: u64, what: &str| -> Result<u32, TraceParseError> {
                        u32::try_from(v)
                            .map_err(|_| c.err(format!("{what} id {v} exceeds u32")).into())
                    };
                    msgs.push(TracedMessage {
                        from: NodeId(narrow(from, "sender")?),
                        to: NodeId(narrow(to, "receiver")?),
                        bits,
                    });
                    if c.peek() == Some(b',') {
                        c.expect(",")?;
                    } else {
                        break;
                    }
                }
            }
            c.expect("]")?;
            c.expect("}")?;
            c.end()?;
            trace.rounds.push(msgs);
            trace.dropped.push(dropped);
        }
        if trace.rounds.len() != round_count {
            return Err(TraceParseError {
                line: trace.rounds.len() + 1,
                msg: format!(
                    "header promised {round_count} rounds, archive has {}",
                    trace.rounds.len()
                ),
            });
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        ChaosConfig, CongestConfig, Inbox, Message, NodeAlgorithm, NodeInfo, Outbox, Simulator,
    };
    use qdc_graph::Graph;

    fn sample_trace() -> TrafficTrace {
        TrafficTrace {
            rounds: vec![
                vec![
                    TracedMessage {
                        from: NodeId(0),
                        to: NodeId(1),
                        bits: 4,
                    },
                    TracedMessage {
                        from: NodeId(1),
                        to: NodeId(0),
                        bits: 0,
                    },
                ],
                vec![],
                vec![TracedMessage {
                    from: NodeId(2),
                    to: NodeId(0),
                    bits: 17,
                }],
            ],
            dropped: vec![0, 3, 1],
        }
    }

    #[test]
    fn trace_jsonl_round_trips_byte_exactly() {
        let trace = sample_trace();
        let text = trace.to_jsonl();
        let back = TrafficTrace::from_jsonl(&text).expect("parses");
        assert_eq!(back.rounds, trace.rounds);
        assert_eq!(back.dropped, trace.dropped);
        // And re-serializing reproduces the exact bytes.
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn trace_jsonl_empty_trace_round_trips() {
        let trace = TrafficTrace::default();
        let text = trace.to_jsonl();
        assert_eq!(
            text,
            format!("{{\"schema\":\"{TRACE_SCHEMA}\",\"rounds\":0}}\n")
        );
        let back = TrafficTrace::from_jsonl(&text).expect("parses");
        assert!(back.rounds.is_empty());
        assert!(back.dropped.is_empty());
    }

    #[test]
    fn trace_jsonl_from_a_real_chaos_run_replays_offline() {
        // Archive a traced chaos run, then recover it and check the
        // per-round totals still match the report — the "replayed
        // offline" contract the harness relies on.
        struct Pulse {
            left: usize,
        }
        impl NodeAlgorithm for Pulse {
            fn on_start(&mut self, _: &NodeInfo, out: &mut Outbox) {
                out.broadcast(Message::from_uint(3, 8));
            }
            fn on_round(&mut self, _: &NodeInfo, _: &Inbox, out: &mut Outbox) {
                if self.left > 0 {
                    self.left -= 1;
                    out.broadcast(Message::from_uint(3, 8));
                }
            }
            fn is_terminated(&self) -> bool {
                true
            }
        }
        let g = Graph::cycle(7);
        let sim = Simulator::new(&g, CongestConfig::classical(16));
        let chaos = ChaosConfig {
            seed: 5,
            drop_prob: 0.2,
            ..ChaosConfig::fault_free(40)
        };
        let mut trace = TrafficTrace::default();
        let (_, report) = sim
            .try_run_observed(|_| Pulse { left: 4 }, &chaos, &mut trace)
            .expect("completes");
        let recovered = TrafficTrace::from_jsonl(&trace.to_jsonl()).expect("parses");
        let delivered: usize = recovered.rounds.iter().map(Vec::len).sum();
        assert_eq!(delivered as u64, report.messages_sent);
        assert_eq!(
            recovered.dropped.iter().sum::<u64>(),
            report.messages_dropped
        );
        assert_eq!(recovered.rounds, trace.rounds);
    }

    #[test]
    fn trace_jsonl_rejects_malformed_input() {
        let reject = |text: &str, why: &str| {
            let err = TrafficTrace::from_jsonl(text).expect_err(why);
            assert!(err.line >= 1);
        };
        reject("", "empty input");
        reject(
            "{\"schema\":\"qdc-trace/v2\",\"rounds\":0}\n",
            "wrong schema",
        );
        reject(
            "{\"schema\":\"qdc-trace/v1\",\"rounds\":2}\n",
            "missing rounds",
        );
        reject(
            "{\"schema\":\"qdc-trace/v1\",\"rounds\":1}\n{\"round\":2,\"dropped\":0,\"messages\":[]}\n",
            "round out of order",
        );
        reject(
            "{\"schema\":\"qdc-trace/v1\",\"rounds\":1}\n{\"round\":1,\"dropped\":0,\"messages\":[}\n",
            "broken message list",
        );
        reject(
            "{\"schema\":\"qdc-trace/v1\",\"rounds\":1}\n{\"round\":1,\"dropped\":0,\"messages\":[]} x\n",
            "trailing garbage",
        );
        // Errors are line-numbered and displayable.
        let err = TrafficTrace::from_jsonl("nonsense").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn trace_jsonl_newline_contract_is_symmetric() {
        // The writer always ends with `\n`; the parser must demand it,
        // so a truncated archive (e.g. a half-flushed file) can never
        // round-trip to different bytes than it parsed from.
        let text = sample_trace().to_jsonl();
        assert!(text.ends_with('\n'), "writer always emits a final newline");
        let clipped = &text[..text.len() - 1];
        let err = TrafficTrace::from_jsonl(clipped).expect_err("missing newline is rejected");
        assert_eq!(err.line, clipped.lines().count());
        assert!(err.msg.contains("missing final newline"));
        // Empty input stays an "empty archive" error, not a newline one.
        let err = TrafficTrace::from_jsonl("").unwrap_err();
        assert!(err.msg.contains("empty trace archive"));
    }

    #[test]
    fn trace_jsonl_tolerates_whitespace() {
        let text = " { \"schema\" : \"qdc-trace/v1\" , \"rounds\" : 1 }\n\
                    { \"round\" : 1 , \"dropped\" : 2 , \"messages\" : [ \
                    { \"from\" : 3 , \"to\" : 4 , \"bits\" : 5 } ] }\n";
        let trace = TrafficTrace::from_jsonl(text).expect("whitespace is insignificant");
        assert_eq!(trace.dropped, vec![2]);
        assert_eq!(
            trace.rounds,
            vec![vec![TracedMessage {
                from: NodeId(3),
                to: NodeId(4),
                bits: 5
            }]]
        );
    }
}
