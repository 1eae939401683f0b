//! Property tests for the campaign service's deterministic core.
//!
//! The service promises (see `crates/service/src/core.rs`):
//!
//! 1. **Quota safety**: no interleaving of submissions, dispatches and
//!    completions ever leaves the queue over its bound or a client over
//!    its quota — and every rejection names the first violated rule
//!    with the numbers that prove it.
//! 2. **Accounting consistency**: the lifecycle counters always
//!    reconcile (the per-state counts sum to the jobs submitted, so
//!    every job is in exactly one state; client counters never run
//!    backwards).
//! 3. **Spec round-trip**: any shape-valid spec survives
//!    `spec_to_json → parse_spec` structurally and byte-exactly.
//! 4. **Journal triage**: cutting a real journal at *any* byte, inside a
//!    multi-byte character of its campaign's name too, and recovering it
//!    (`journal::recover`, what the startup scan and `campaign verify`
//!    run) yields a clean recovery exactly on record boundaries and a
//!    torn tail after the right prefix everywhere else — recovery can
//!    never call a torn file clean or a clean file torn.

use proptest::prelude::*;
use qdc::harness::journal;
use qdc::harness::{
    builtin, parse_spec, run_campaign, spec_to_json, CampaignGrid, CampaignSpec, RunOptions,
};
use qdc::service::{JobState, QuotaConfig, ServiceCore, SubmitError};

/// One scripted operation against the core.
fn apply_op(
    core: &mut ServiceCore,
    running: &mut Vec<u64>,
    last_taken: &mut u64,
    op: u8,
    client: u8,
    which: u8,
    flag: bool,
) {
    let client = format!("client_{}", client % 4);
    match op % 4 {
        // Submit (half the weight: two opcodes).
        0 | 1 => {
            let spec = if which.is_multiple_of(2) {
                builtin("simthm_smoke").expect("builtin")
            } else {
                builtin("telemetry_smoke").expect("builtin")
            };
            let requested = spec.points().len() as u64;
            let queued_before = core.queued_jobs(&client);
            let active_before = core.active_points(&client);
            let depth_before = core.queue_depth();
            match core.submit(&client, spec, flag) {
                Ok(_) => {}
                Err(SubmitError::QueueFull { depth, max }) => {
                    assert_eq!(depth, depth_before);
                    assert!(depth >= max, "queue_full only fires at the bound");
                }
                Err(SubmitError::ClientQueueFull { queued, max }) => {
                    assert_eq!(queued, queued_before);
                    assert!(queued >= max, "client_queue_full only fires at the bound");
                    assert!(
                        depth_before < core.quotas().max_queue,
                        "the global bound is checked first"
                    );
                }
                Err(SubmitError::QuotaExceeded {
                    requested: r,
                    active,
                    max,
                }) => {
                    assert_eq!(r, requested);
                    assert_eq!(active, active_before);
                    assert!(active + r > max, "quota_exceeded only fires past the bound");
                }
                Err(SubmitError::InvalidSpec(_)) => {
                    panic!("builtins are valid; InvalidSpec is impossible here")
                }
            }
        }
        2 => {
            if let Some(job) = core.take_next() {
                // Nothing is re-enqueued in this test, so FIFO dispatch
                // means ids come out in strictly increasing order.
                assert!(job.id > *last_taken, "take_next honors FIFO order");
                *last_taken = job.id;
                running.push(job.id);
            }
        }
        _ => {
            if !running.is_empty() {
                let id = running.remove(usize::from(which) % running.len());
                core.finish(id, flag);
            }
        }
    }
}

/// The invariants that must hold after every single operation.
fn check_invariants(core: &ServiceCore) {
    let quotas = core.quotas();
    assert!(
        core.queue_depth() <= quotas.max_queue,
        "queue depth within bound"
    );
    let by_state: u64 = [
        JobState::Queued,
        JobState::Running,
        JobState::Completed,
        JobState::Interrupted,
    ]
    .iter()
    .map(|&s| core.count_in_state(s))
    .sum();
    assert_eq!(
        by_state,
        core.clients()
            .map(|(_, stats)| stats.submitted)
            .sum::<u64>(),
        "each submitted job in exactly one state"
    );
    assert_eq!(
        core.count_in_state(JobState::Queued),
        core.queue_depth() as u64,
        "queued state and queue agree"
    );
    for (client, stats) in core.clients() {
        assert!(
            core.queued_jobs(client) <= quotas.max_queued_per_client,
            "client queue within bound"
        );
        assert!(
            core.active_points(client) <= quotas.max_points_per_client,
            "client points within quota"
        );
        assert!(
            stats.completed <= stats.submitted,
            "completions never exceed submissions"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Contracts 1 and 2: random op sequences against tight quotas.
    #[test]
    fn service_core_quotas_hold_under_any_interleaving(
        ops in proptest::collection::vec(
            (0u8..4, 0u8..8, 0u8..8, any::<bool>()),
            1..60,
        )
    ) {
        let mut core = ServiceCore::new(QuotaConfig {
            max_queue: 5,
            max_queued_per_client: 2,
            max_points_per_client: 9,
        });
        let mut running = Vec::new();
        let mut last_taken = 0u64;
        for (op, client, which, flag) in ops {
            apply_op(&mut core, &mut running, &mut last_taken, op, client, which, flag);
            check_invariants(&core);
        }
        // Drain everything and confirm the quotas free up completely.
        while let Some(job) = core.take_next() {
            running.push(job.id);
        }
        for id in running.drain(..) {
            core.finish(id, false);
        }
        check_invariants(&core);
        for (client, _) in core.clients() {
            prop_assert_eq!(core.active_points(client), 0, "drained clients hold no points");
        }
    }

    /// Contract 3: shape round-trip for arbitrary (even semantically
    /// invalid) grids — serialization must not depend on validation.
    #[test]
    fn service_spec_round_trips_any_shape(
        (kind, name_tag, axis_a, axis_b, seeds, (drop_pm, bandwidth)) in (
            0usize..3,
            0u64..1000,
            proptest::collection::vec(0usize..50, 0..4),
            proptest::collection::vec(0usize..50, 0..4),
            proptest::collection::vec(0u64..1000, 0..4),
            (proptest::collection::vec(0u32..1001, 0..4), 0usize..64),
        )
    ) {
        let grid = match kind {
            0 => CampaignGrid::SimThm {
                gammas: axis_a.clone(),
                lengths: axis_b.clone(),
                bandwidth,
            },
            1 => CampaignGrid::Chaos {
                nodes: axis_a.first().copied().unwrap_or(0),
                extra_edges: axis_b.first().copied().unwrap_or(0),
                drop_pm,
                seeds: seeds.clone(),
                bandwidth,
            },
            _ => CampaignGrid::Gadgets {
                bit_sizes: axis_a.clone(),
                seeds: seeds.clone(),
                bandwidth,
            },
        };
        let spec = CampaignSpec {
            name: format!("prop_{name_tag}"),
            grid,
        };
        let text = spec_to_json(&spec).to_json();
        let back = parse_spec(&text).expect("own output parses");
        prop_assert_eq!(&back, &spec, "structural round-trip");
        prop_assert_eq!(spec_to_json(&back).to_json(), text, "byte-exact round-trip");
    }
}

/// Contract 4: the classifier's verdict at every cut point of two
/// journals, one of an ASCII-named campaign and one whose name holds
/// two-, three- and four-byte characters, so that some cuts split one.
#[test]
fn service_journal_triage_is_exact_at_any_cut() {
    for name in ["telemetry_smoke", "télémétrie ✓ 🛰"] {
        let mut spec = builtin("telemetry_smoke").expect("builtin");
        spec.name = name.to_string();
        let jsonl = run_campaign(&spec, &RunOptions::default())
            .expect("runs")
            .deterministic_jsonl()
            .into_bytes();
        for cut in 0..=jsonl.len() {
            let prefix = &jsonl[..cut];
            let full_lines = prefix.iter().filter(|&&b| b == b'\n').count();
            let boundary = cut == 0 || prefix.ends_with(b"\n");
            let at = format!("`{name}` cut at byte {cut}");
            match journal::recover(prefix, name) {
                Ok(clean) if clean.truncated_bytes == 0 => {
                    assert!(boundary, "{at}: clean verdicts only on record boundaries");
                    assert_eq!(clean.committed, full_lines, "{at}");
                }
                Ok(torn) => {
                    assert!(!boundary, "{at}: boundary cuts must be clean");
                    assert_eq!(torn.committed, full_lines, "{at}");
                    assert_eq!(
                        torn.kept_bytes + torn.truncated_bytes,
                        cut,
                        "{at}: every byte accounted for"
                    );
                }
                Err(reason) => panic!("{at}: a self-journal prefix can never be foreign: {reason}"),
            }
        }
    }
}
