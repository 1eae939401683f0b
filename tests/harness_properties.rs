//! Property tests for the campaign harness's determinism contract.
//!
//! The harness promises (see `crates/harness/src/runner.rs`):
//!
//! 1. **Thread invariance**: for any valid spec, the deterministic JSONL
//!    and the aggregate produced on 1 thread and on 4 threads are
//!    byte-for-byte identical.
//! 2. **Record fidelity**: the per-point record the runner emits matches
//!    a direct single-run execution of the same point — sharding adds
//!    nothing and loses nothing.
//!
//! Specs are generated randomly but kept small (a campaign point is a
//! full simulator run, so case counts are modest and deliberate).

use proptest::prelude::*;
use qdc::harness::{run_campaign, summary_json, CampaignGrid, CampaignSpec, PointSpec, RunOptions};

/// CI-provided seed perturbation (defaults to 0 for local runs).
fn env_seed() -> u64 {
    std::env::var("QDC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn opts(threads: usize) -> RunOptions {
    RunOptions {
        threads,
        ..RunOptions::default()
    }
}

/// Builds a random small-but-valid grid of the chosen kind from a flat
/// tuple of draws (the vendored proptest has no combinator layer, so the
/// mapping from raw draws to a structured grid lives here).
#[allow(clippy::too_many_arguments)]
fn make_grid(
    kind: usize,
    axis_a: Vec<usize>,
    axis_b: Vec<usize>,
    seeds: Vec<u64>,
    drop_pm: Vec<u32>,
    bandwidth: usize,
) -> CampaignGrid {
    match kind % 4 {
        0 => CampaignGrid::SimThm {
            // Draws are ≥ 1; lengths need ≥ 3. The flood sends id-width
            // words, so B must comfortably exceed log₂(node count).
            gammas: axis_a,
            lengths: axis_b.into_iter().map(|l| l + 2).collect(),
            bandwidth: 16 + bandwidth,
        },
        1 => CampaignGrid::Chaos {
            nodes: 4 + axis_a[0] % 10,
            extra_edges: axis_b[0] % 5,
            drop_pm,
            seeds,
            // Robust broadcast sends 2-bit token/ack words.
            bandwidth: bandwidth.max(2),
        },
        2 => CampaignGrid::Gadgets {
            bit_sizes: axis_a.into_iter().map(|b| b.min(6)).collect(),
            seeds,
            // The verifier's fragment engine convergecasts (size, weight,
            // edge-id) triples; same B as the gadget_sweep builtin.
            bandwidth: 32 + bandwidth,
        },
        // Both Disjointness channels — the quantum points exercise the
        // qubit-budgeted links under the same 1-vs-N-thread contract.
        _ => CampaignGrid::Ex11 {
            bits: axis_a.into_iter().map(|a| 8 << (a % 4)).collect(),
            // b ≤ 64 needs a 6-bit query register; 8 is the floor here.
            bandwidths: axis_b.into_iter().map(|b| 8 + (b % 8)).collect(),
            distances: seeds.iter().map(|s| 1 + (s % 4) as usize).collect(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Contract 1: thread count never changes the deterministic output.
    #[test]
    fn aggregate_is_thread_invariant(
        (kind, axis_a, axis_b, seeds, drop_pm, bandwidth) in (
            0usize..4,
            proptest::collection::vec(1usize..8, 1..3),
            proptest::collection::vec(1usize..10, 1..3),
            proptest::collection::vec(0u64..64, 1..3),
            proptest::collection::vec(0u32..300, 1..3),
            1usize..32,
        )
    ) {
        let spec = CampaignSpec {
            name: format!("prop_{}", seeds[0] ^ env_seed()),
            grid: make_grid(kind, axis_a, axis_b, seeds, drop_pm, bandwidth),
        };
        prop_assert!(spec.validate().is_ok(), "generated specs are valid");
        let one = run_campaign(&spec, &opts(1)).expect("1-thread run");
        let four = run_campaign(&spec, &opts(4)).expect("4-thread run");
        prop_assert_eq!(
            one.deterministic_jsonl(),
            four.deterministic_jsonl(),
            "per-point records must not depend on the thread count"
        );
        prop_assert_eq!(one.aggregate, four.aggregate);
        // The summary's deterministic core (the aggregate object) agrees
        // byte for byte; threads/wall_ms legitimately differ.
        prop_assert_eq!(
            one.aggregate.to_json().to_json(),
            four.aggregate.to_json().to_json()
        );
        // Both summaries are valid JSON documents.
        qdc::congest::json::parse(&summary_json(&one)).expect("summary parses");
        qdc::congest::json::parse(&summary_json(&four)).expect("summary parses");
    }

    /// Contract 2: a sharded record equals a direct single-run record.
    #[test]
    fn sharded_records_match_direct_execution(
        (kind, axis_a, axis_b, seeds, drop_pm, bandwidth) in (
            0usize..4,
            proptest::collection::vec(1usize..8, 1..3),
            proptest::collection::vec(1usize..10, 1..3),
            proptest::collection::vec(0u64..64, 1..3),
            proptest::collection::vec(0u32..300, 1..3),
            1usize..32,
        )
    ) {
        let spec = CampaignSpec {
            name: "prop_direct".to_string(),
            grid: make_grid(kind, axis_a, axis_b, seeds, drop_pm, bandwidth),
        };
        let out = run_campaign(&spec, &opts(3)).expect("3-thread run");
        let points: Vec<PointSpec> = spec.points();
        prop_assert_eq!(out.records.len(), points.len());
        // Spot-check first and last points (a full re-run of every point
        // would double the test's cost for no extra coverage).
        for &i in &[0, points.len() - 1] {
            let (direct, _) = qdc::harness::execute_point(i, &points[i])
                .expect("generated points execute cleanly");
            let got = &out.records[i];
            prop_assert_eq!(got.index, direct.index);
            prop_assert_eq!(got.kind, direct.kind);
            prop_assert_eq!(&got.metrics, &direct.metrics);
            prop_assert_eq!(got.accept, direct.accept);
            prop_assert_eq!(&got.error, &direct.error);
            prop_assert_eq!(
                qdc::harness::record_json(&spec.name, got, false),
                qdc::harness::record_json(&spec.name, &direct, false)
            );
        }
    }
}
