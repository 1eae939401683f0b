//! Experiment-campaign harness: declarative grids, deterministic
//! parallel execution, machine-readable results.
//!
//! The paper's empirical claims (the Theorem 3.5 traffic budget, the
//! robustness of the flood under loss, the gadget reductions' cycle
//! predictions) are statements about *families* of instances, not
//! single runs. This crate runs whole families:
//!
//! * [`CampaignSpec`] declares a named grid of experiment points —
//!   a Γ×L simulation-theorem sweep, a chaos seed ensemble, or a
//!   gadget instance sweep ([`spec`]);
//! * [`run_campaign`] validates the spec up front (structured
//!   [`CampaignError`]s for every degenerate input), expands the grid,
//!   shards the points round-robin across a [`std::thread::scope`]
//!   worker pool, and folds the per-point records into an
//!   order-independent [`Aggregate`] ([`runner`]);
//! * records and summaries serialize through a tiny hand-rolled JSON
//!   layer ([`json`]) with fixed field order and integer-only metrics,
//!   which is what makes the headline guarantee checkable: **the same
//!   spec produces byte-identical deterministic output on 1 or N
//!   threads**.
//!
//! Campaigns are **crash-safe**: [`run_campaign_journaled`] streams
//! every committed point through a durable fsync-per-line journal
//! ([`journal`]), recovers interrupted journals (torn tails truncated
//! on a record boundary), and resumes at the first missing index;
//! point panics, structured simulator errors, and wall-clock deadline
//! overruns are isolated into `qdc-campaign-failure/v1` records
//! ([`PointFailure`]) with supervised, deterministically-backed-off
//! retries instead of aborting the grid.
//!
//! The `campaign` binary in `qdc-bench` is the CLI front end; the
//! root-level `tests/harness_properties.rs` property-tests the
//! determinism contract with random small specs, and
//! `tests/crash_resume_properties.rs` kill-and-resumes journals at
//! every prefix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod json;
pub mod point;
pub mod runner;
pub mod spec;
pub mod spec_io;

pub use journal::{recover, Journal, RecoveredEntry, Recovery};
pub use json::Json;
pub use point::{
    execute_point, failure_json, record_json, stream_telemetry_archives, stream_telemetry_path,
    validate_failure_line, validate_record_line, PointFailure, PointRecord, StreamTelemetry,
    TelemetryMode,
};
pub use runner::{
    journal_summary_json, run_campaign, run_campaign_journaled, summary_json, validate_summary,
    Aggregate, CampaignOutcome, CampaignRunError, CancelToken, JournalConfig, JournalOutcome,
    RunOptions,
};
pub use spec::{
    builtin, builtin_names, validate_output_paths, CampaignError, CampaignGrid, CampaignSpec,
    PointSpec, CAMPAIGN_SCHEMA, FAILURE_SCHEMA, POINT_SCHEMA,
};
pub use spec_io::{parse_spec, spec_from_json, spec_to_json};
