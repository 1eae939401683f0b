//! Property tests for the streaming telemetry plane: the O(1)-memory
//! [`StreamSink`] must be indistinguishable — counter for counter —
//! from the exact in-memory [`RoundProfiler`], and its artifacts must
//! compose.
//!
//! Four contracts on random connected graphs and seeds:
//!
//! 1. **Exactness (fault-free)**: a [`StreamSink`] observing the same
//!    run as a [`RoundProfiler`] reproduces its totals, per-round
//!    series, utilisation histogram, and — with sketch capacity at
//!    least the number of distinct keys — its hottest-edge/node
//!    rankings with zero error bound;
//! 2. **Exactness (chaos)**: the same under seeded drops, corruption,
//!    and a crash, including the fault counters;
//! 3. **Merge laws**: `merge(a, b) == merge(b, a)` for footer
//!    aggregates of unrelated runs, and merging an aggregate of zeroes
//!    is the identity on every counter;
//! 4. **Thread invariance**: a campaign run with streaming telemetry
//!    writes byte-identical archives at `--threads`/`--sim-threads`
//!    1 and 4, and those archives' footers match the totals of the
//!    exact-mode profiles of the same campaign;
//! 5. **Eviction**: with fewer slots than keys, [`TopK`] follows its
//!    documented space-saving rule observe by observe (a reference
//!    model kept here is the oracle), and keeps the space-saving
//!    bounds on every tracked key.
//!
//! The CI chaos job re-runs these under several `QDC_CHAOS_SEED`
//! values; each individual case stays fully deterministic.

use proptest::prelude::*;
use qdc::algos::flood::{chaos_round_budget, robust_broadcast};
use qdc::congest::{
    read_aggregate, ChaosConfig, CongestConfig, Inbox, Message, NodeAlgorithm, NodeInfo, Outbox,
    QubitSplit, RoundProfiler, RunOptions, Simulator, StreamAggregate, StreamSink, TelemetryReport,
    TopEntry, TopK,
};
use qdc::graph::{generate, Graph, NodeId};
use std::cmp::Reverse;

/// CI-provided seed perturbation (defaults to 0 for local runs).
fn env_seed() -> u64 {
    std::env::var("QDC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Min-label flood with implicit termination (quiescence-driven).
struct MinFlood {
    label: u64,
}

impl NodeAlgorithm for MinFlood {
    fn on_start(&mut self, _: &NodeInfo, out: &mut Outbox) {
        out.broadcast(Message::from_uint(self.label, 16));
    }
    fn on_round(&mut self, _: &NodeInfo, inbox: &Inbox, out: &mut Outbox) {
        let best = inbox.iter().filter_map(|(_, m)| m.as_uint(16)).min();
        if let Some(b) = best {
            if b < self.label {
                self.label = b;
                out.broadcast(Message::from_uint(b, 16));
            }
        }
    }
    fn is_terminated(&self) -> bool {
        true
    }
}

/// A sketch capacity that makes both top-K trackers exact: at least one
/// slot per distinct key they can ever see.
fn exact_cap(g: &Graph) -> usize {
    g.edge_count().max(g.node_count()).max(1)
}

/// Asserts the streamed footer reproduces the exact profile: shared
/// totals, utilisation histogram, class split, and — in the exact
/// sketch regime — the full hottest-edge/node rankings with `err = 0`.
fn assert_stream_matches_profile(
    agg: &StreamAggregate,
    profile: &TelemetryReport,
) -> Result<(), TestCaseError> {
    let t = &agg.totals;
    prop_assert_eq!(t.rounds as usize, profile.rounds.len());
    prop_assert_eq!(t.messages, profile.total_messages());
    prop_assert_eq!(t.bits, profile.total_bits());
    prop_assert_eq!(t.dropped, profile.total_dropped());
    prop_assert_eq!(t.corrupted_bits, profile.total_corrupted_bits());
    let crashes: u64 = profile.rounds.iter().map(|r| r.crashes).sum();
    prop_assert_eq!(t.crashes, crashes);
    let quiescent = profile.rounds.iter().filter(|r| r.quiescent).count() as u64;
    prop_assert_eq!(t.quiescent, quiescent);
    for q in 0..5 {
        let fold: u64 = profile.rounds.iter().map(|r| r.util[q]).sum();
        prop_assert_eq!(t.util[q], fold, "util bucket {} diverged", q);
    }
    let split_fold: (u64, u64, u64) = profile.rounds.iter().fold((0, 0, 0), |acc, r| {
        (
            acc.0 + r.path_bits,
            acc.1 + r.highway_bits,
            acc.2 + r.cross_bits,
        )
    });
    prop_assert_eq!((t.path_bits, t.highway_bits, t.cross_bits), split_fold);

    // Qubit/classical split: the footer must fold the per-round splits
    // exactly, and be absent iff the profiler recorded none.
    let qsplit_fold =
        profile
            .rounds
            .iter()
            .filter_map(|r| r.qsplit)
            .fold(None::<QubitSplit>, |acc, q| {
                let mut acc = acc.unwrap_or_default();
                acc.classical_bits += q.classical_bits;
                acc.qubit_bits += q.qubit_bits;
                Some(acc)
            });
    prop_assert_eq!(t.qsplit, qsplit_fold, "footer qsplit diverged");

    // Exact regime: the sketch IS the full ranking of every edge that
    // carried traffic, error-free. The sketch only observes deliveries,
    // so silent edges (which `hottest_edges` ranks too) are left out —
    // the same filter the node ranking below applies.
    let edges = agg.top_edges.ranked();
    let exact: Vec<_> = profile
        .hottest_edges(profile.edge_totals.len())
        .into_iter()
        .filter(|(_, t)| t.bits > 0 || t.messages > 0)
        .collect();
    prop_assert_eq!(edges.len(), exact.len());
    for (e, (index, totals)) in edges.iter().zip(&exact) {
        prop_assert_eq!(e.index, *index);
        prop_assert_eq!(e.bits, totals.bits);
        prop_assert_eq!(e.messages, totals.messages);
        prop_assert_eq!(e.err, 0, "exact regime must carry no error bound");
    }
    // Node ranking under the same (bits desc, index asc) contract; the
    // stream sink counts each delivery once at the sender and once at
    // the receiver, so the per-node weight is sent + received.
    let mut exact_nodes: Vec<(usize, u64, u64)> = profile
        .node_totals
        .iter()
        .enumerate()
        .map(|(i, n)| {
            (
                i,
                n.sent_bits + n.recv_bits,
                n.sent_messages + n.recv_messages,
            )
        })
        .filter(|&(_, bits, messages)| bits > 0 || messages > 0)
        .collect();
    exact_nodes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let nodes = agg.top_nodes.ranked();
    prop_assert_eq!(nodes.len(), exact_nodes.len());
    for (e, (index, bits, messages)) in nodes.iter().zip(&exact_nodes) {
        prop_assert_eq!(e.index, *index);
        prop_assert_eq!(e.bits, *bits);
        prop_assert_eq!(e.messages, *messages);
        prop_assert_eq!(e.err, 0);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Fault-free: streaming aggregates equal the exact profiler's, and
    /// the bytes on the wire parse back to the sink's own footer.
    #[test]
    fn stream_sink_matches_exact_profiler_fault_free(
        n in 4usize..20,
        extra in 0usize..8,
        seed in 0u64..200,
    ) {
        let g = generate::random_connected(n, n + extra, seed ^ env_seed());
        let cfg = CongestConfig::classical(16);
        let make = |info: &NodeInfo| MinFlood { label: 1000 + info.id.0 as u64 };
        let sim = Simulator::new(&g, cfg);

        let mut profiler = RoundProfiler::new(g.node_count(), g.edge_count(), 16);
        let (exact_nodes, exact_report) = sim.run_observed(make, 100, &mut profiler);
        let profile = profiler.finish();

        let mut sink = StreamSink::new(
            Vec::new(), g.node_count(), g.edge_count(), 16, exact_cap(&g),
        );
        let (stream_nodes, stream_report) = sim.run_observed(make, 100, &mut sink);
        let agg = sink.finish().expect("Vec<u8> writes cannot fail");

        prop_assert_eq!(exact_report, stream_report);
        for (a, b) in exact_nodes.iter().zip(&stream_nodes) {
            prop_assert_eq!(a.label, b.label, "observation changed the algorithm");
        }
        assert_stream_matches_profile(&agg, &profile)?;
    }

    /// Chaos: the stream sink accounts every fault exactly as the
    /// profiler does, and the archive round-trips through the strict
    /// reader.
    #[test]
    fn stream_sink_matches_exact_profiler_under_chaos(
        n in 4usize..16,
        extra in 0usize..6,
        seed in 0u64..100,
        drop in 0.0f64..=0.25,
    ) {
        let g = generate::random_connected(n, n + extra, seed.wrapping_add(env_seed()));
        let give_up = chaos_round_budget(n, drop);
        let chaos = ChaosConfig {
            seed: seed ^ env_seed().rotate_left(29),
            drop_prob: drop,
            crash_schedule: vec![(NodeId(n as u32 - 1), 3)],
            corrupt_prob: 0.05,
            max_rounds_watchdog: give_up + 5,
        };
        let cfg = CongestConfig::classical(8);
        let options = RunOptions::default();

        let mut profiler = RoundProfiler::new(g.node_count(), g.edge_count(), 8);
        let exact = robust_broadcast(&g, cfg, options, NodeId(0), &chaos, give_up, &mut profiler);
        let profile = profiler.finish();

        let mut sink = StreamSink::new(
            Vec::new(), g.node_count(), g.edge_count(), 8, exact_cap(&g),
        );
        let streamed = robust_broadcast(&g, cfg, options, NodeId(0), &chaos, give_up, &mut sink);

        match (exact, streamed) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.informed, b.informed);
                prop_assert_eq!(a.report, b.report);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "sink choice changed the outcome: {a:?} vs {b:?}"),
        }
        let agg = sink.finish().expect("Vec<u8> writes cannot fail");
        assert_stream_matches_profile(&agg, &profile)?;
    }

    /// Quantum accounting under chaos: the streaming sink and the exact
    /// profiler agree on the qubit/classical split — in plain qubit
    /// accounting and in EPR/teleportation charging mode alike — and
    /// the archive (whose strict reader cross-checks footer vs streamed
    /// round lines) round-trips.
    #[test]
    fn stream_sink_matches_exact_profiler_qsplit_under_chaos(
        n in 4usize..14,
        extra in 0usize..5,
        seed in 0u64..80,
        drop in 0.0f64..=0.2,
        teleport in any::<bool>(),
    ) {
        let g = generate::random_connected(n, n + extra, seed.wrapping_add(env_seed()));
        let give_up = chaos_round_budget(n, drop);
        let chaos = ChaosConfig {
            seed: seed ^ env_seed().rotate_left(17),
            drop_prob: drop,
            crash_schedule: vec![(NodeId(n as u32 - 1), 4)],
            corrupt_prob: 0.05,
            max_rounds_watchdog: give_up + 5,
        };
        // Teleportation charges 2 classical bits per qubit against the
        // same budget, so the teleport channel gets twice the width.
        let cfg = if teleport {
            CongestConfig::quantum_teleport(16)
        } else {
            CongestConfig::quantum(8)
        };
        let bandwidth = cfg.bandwidth_bits;
        let options = RunOptions::default();

        let mut profiler = RoundProfiler::new(g.node_count(), g.edge_count(), bandwidth)
            .with_quantum(teleport);
        let exact = robust_broadcast(&g, cfg, options, NodeId(0), &chaos, give_up, &mut profiler);
        let profile = profiler.finish();

        let mut sink = StreamSink::new(
            Vec::new(), g.node_count(), g.edge_count(), bandwidth, exact_cap(&g),
        ).with_quantum(teleport);
        let streamed = robust_broadcast(&g, cfg, options, NodeId(0), &chaos, give_up, &mut sink);

        match (exact, streamed) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.informed, b.informed);
                prop_assert_eq!(a.report, b.report);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "sink choice changed the outcome: {a:?} vs {b:?}"),
        }
        let agg = sink.finish().expect("Vec<u8> writes cannot fail");
        assert_stream_matches_profile(&agg, &profile)?;

        // Every delivered bit is a qubit; teleport mode charges two
        // classical bits alongside each, plain mode none.
        let q = agg.totals.qsplit.expect("quantum sinks always record a split");
        prop_assert_eq!(q.qubit_bits, agg.totals.bits);
        let expected_classical = if teleport { 2 * agg.totals.bits } else { 0 };
        prop_assert_eq!(q.classical_bits, expected_classical);
    }

    /// Merge laws on real footers: commutative across unrelated runs,
    /// identity against an empty aggregate of the same shape.
    #[test]
    fn stream_merge_is_commutative_with_identity(
        n in 4usize..14,
        extra in 0usize..6,
        seed in 0u64..100,
    ) {
        let make = |info: &NodeInfo| MinFlood { label: 1000 + info.id.0 as u64 };
        let run = |nodes: usize, s: u64| {
            let g = generate::random_connected(nodes, nodes + extra, s);
            let sim = Simulator::new(&g, CongestConfig::classical(16));
            let mut sink = StreamSink::new(
                Vec::new(), g.node_count(), g.edge_count(), 16, exact_cap(&g),
            );
            sim.run_observed(make, 100, &mut sink);
            sink.finish().expect("Vec<u8> writes cannot fail")
        };
        let a = run(n, seed ^ env_seed());
        let b = run(n + 1, (seed ^ env_seed()).wrapping_mul(31) + 7);

        let mut ab = a.clone();
        ab.merge(&b).expect("no overflow");
        let mut ba = b.clone();
        ba.merge(&a).expect("no overflow");
        prop_assert_eq!(&ab, &ba, "merge must be commutative");

        // Counters compose additively under the merge.
        prop_assert_eq!(ab.totals.rounds, a.totals.rounds + b.totals.rounds);
        prop_assert_eq!(ab.totals.bits, a.totals.bits + b.totals.bits);
        prop_assert_eq!(ab.totals.messages, a.totals.messages + b.totals.messages);

        // Merging a same-shape empty aggregate changes nothing.
        let empty = StreamAggregate::new(
            a.header.nodes, a.header.edges, a.header.bandwidth, a.header.top_k,
        );
        let mut a_id = a.clone();
        a_id.merge(&empty).expect("no overflow");
        prop_assert_eq!(a_id, a, "the empty aggregate is the merge identity");
    }
}

/// The rule [`TopK`] documents, kept deliberately plain: a hit adds;
/// below capacity a newcomer is pushed with `err` 0; otherwise it
/// replaces the (bits asc, index desc) minimum, whose weight it carries
/// and is charged as `err`.
fn space_saving_observe(
    model: &mut Vec<TopEntry>,
    cap: usize,
    index: usize,
    bits: u64,
    messages: u64,
) {
    if let Some(e) = model.iter_mut().find(|e| e.index == index) {
        e.bits += bits;
        e.messages += messages;
        return;
    }
    let err = if model.len() < cap {
        0
    } else {
        let victim = (0..model.len())
            .min_by_key(|&i| (model[i].bits, Reverse(model[i].index)))
            .expect("a full sketch has a minimum");
        model.swap_remove(victim).bits
    };
    model.push(TopEntry {
        index,
        bits: err + bits,
        messages,
        err,
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Weighted streams over more keys than slots: after every observe
    /// the sketch ranks exactly what the reference model holds, its
    /// weights sum to everything observed, and every tracked key's true
    /// weight lies in `[bits - err, bits]`.
    #[test]
    fn topk_evicts_by_the_space_saving_rule(
        keys in 1usize..=64,
        cap in 1usize..=8,
        stream in prop::collection::vec((0usize..64, 0u64..16, 1u64..4), 100..400),
    ) {
        let mut sketch = TopK::new(cap);
        let mut model = Vec::new();
        let mut true_bits = vec![0u64; keys];
        let mut true_messages = vec![0u64; keys];
        let mut observed = 0u64;
        for (key, bits, messages) in stream {
            let index = key % keys;
            sketch.observe(index, bits, messages);
            space_saving_observe(&mut model, cap, index, bits, messages);
            true_bits[index] += bits;
            true_messages[index] += messages;
            observed += bits;

            model.sort_by_key(|e| (Reverse(e.bits), e.index));
            let ranked = sketch.ranked();
            prop_assert_eq!(&ranked, &model);
            prop_assert_eq!(ranked.iter().map(|e| e.bits).sum::<u64>(), observed);
            for e in &ranked {
                prop_assert!(
                    e.bits - e.err <= true_bits[e.index] && true_bits[e.index] <= e.bits,
                    "key {} weighs {} outside [{}, {}]",
                    e.index, true_bits[e.index], e.bits - e.err, e.bits
                );
                prop_assert!(e.messages <= true_messages[e.index]);
            }
        }
    }
}

/// A campaign with streaming telemetry writes byte-identical archives
/// at every thread count, and each footer matches the exact profile of
/// the same point. This is the end-to-end form of the byte-identity
/// acceptance criterion (the unit layers prove it for the sink alone).
#[test]
fn stream_campaign_archives_are_byte_identical_across_thread_counts() {
    use qdc::harness::{builtin, run_campaign, RunOptions, StreamTelemetry, TelemetryMode};

    let spec = builtin("telemetry_smoke").expect("builtin");
    let dir_for = |tag: &str| {
        let dir =
            std::env::temp_dir().join(format!("qdc_stream_prop_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let run = |dir: &std::path::Path, threads: usize, sim_threads: usize| {
        let options = RunOptions {
            threads,
            sim_threads,
            telemetry: TelemetryMode::Stream(StreamTelemetry::new(
                dir.to_string_lossy().into_owned(),
            )),
            ..RunOptions::default()
        };
        run_campaign(&spec, &options).expect("campaign runs")
    };

    let dir1 = dir_for("t1");
    let dir4 = dir_for("t4");
    let one = run(&dir1, 1, 1);
    let four = run(&dir4, 4, 4);
    assert_eq!(one.deterministic_jsonl(), four.deterministic_jsonl());
    // Stream mode keeps archives on disk, never in the outcome.
    assert!(one.telemetry.iter().all(Option::is_none));

    // Exact-mode reference profiles for the counter cross-check.
    let exact = run_campaign(
        &spec,
        &RunOptions {
            telemetry: TelemetryMode::Exact,
            ..RunOptions::default()
        },
    )
    .expect("campaign runs");

    for i in 0..spec.points().len() {
        let name = format!("point_{i}.telemetry.jsonl");
        let a = std::fs::read(dir1.join(&name)).expect("archive written");
        let b = std::fs::read(dir4.join(&name)).expect("archive written");
        assert_eq!(
            a, b,
            "archive {name} must be byte-identical at 1 vs 4 threads"
        );

        let agg = read_aggregate(&a[..]).expect("archive parses strictly");
        let profile = exact.telemetry[i].as_ref().expect("exact profile kept");
        assert_eq!(agg.totals.rounds as usize, profile.rounds.len());
        assert_eq!(agg.totals.messages, profile.total_messages());
        assert_eq!(agg.totals.bits, profile.total_bits());
        assert_eq!(agg.totals.dropped, profile.total_dropped());
        assert_eq!(agg.header.nodes, profile.nodes);
        assert_eq!(agg.header.edges, profile.edges);
        assert_eq!(agg.header.bandwidth, profile.bandwidth);
    }

    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir4);
}
