//! The service's three wire schemas, with writers and strict
//! validators in the workspace's conformance-locked style.
//!
//! * `qdc-job/v1` — one job's receipt/status document (returned by
//!   `POST /jobs` and `GET /jobs/<id>`);
//! * `qdc-service-status/v1` — the whole-service snapshot
//!   (`GET /status`);
//! * `qdc-service-error/v1` — every structured rejection, from a full
//!   queue to an unknown path.
//!
//! Like the campaign schemas, each document has a fixed field order,
//! integer-only counters, and one key table, checked by
//! [`qdc_congest::json::check`], that rejects unknown, reordered or
//! mistyped fields; `tests/golden_schemas.rs` at the workspace root
//! pins example bytes for all three.

use crate::core::{Job, JobState, ServiceCore, SubmitError};
use qdc_congest::json::{self, Json, Shape, Table};
use qdc_harness::{Aggregate, Recovery};

/// Schema tag of a job receipt/status document.
pub const JOB_SCHEMA: &str = "qdc-job/v1";
/// Schema tag of the service status snapshot.
pub const STATUS_SCHEMA: &str = "qdc-service-status/v1";
/// Schema tag of a structured rejection.
pub const ERROR_SCHEMA: &str = "qdc-service-error/v1";

/// Renders one job in `state` as a `qdc-job/v1` document, with
/// `progress`, the fold of the job's journal, as its `committed` count
/// and aggregate. The `aggregate` field is the one optional tail:
/// present exactly when the journal holds records to fold.
pub fn job_json(job: &Job, state: JobState, progress: &Recovery) -> String {
    let committed = progress.committed as u64;
    let mut fields = vec![
        ("schema".to_string(), Json::Str(JOB_SCHEMA.to_string())),
        ("id".to_string(), Json::Num(job.id)),
        ("campaign".to_string(), Json::Str(job.spec.name.clone())),
        ("client".to_string(), Json::Str(job.client.clone())),
        ("telemetry".to_string(), Json::Bool(job.telemetry)),
        ("points".to_string(), Json::Num(job.spec.point_count())),
        ("state".to_string(), Json::Str(state.as_str().to_string())),
        ("committed".to_string(), Json::Num(committed)),
    ];
    if committed > 0 {
        fields.push(("aggregate".to_string(), progress.aggregate.to_json()));
    }
    Json::Obj(fields).to_json()
}

/// Renders the service snapshot as a `qdc-service-status/v1` document:
/// global job counts by state, then per-client lifetime counters in
/// client-key order.
pub fn status_json(core: &ServiceCore) -> String {
    let [queued, running, completed, interrupted] = [
        JobState::Queued,
        JobState::Running,
        JobState::Completed,
        JobState::Interrupted,
    ]
    .map(|s| core.count_in_state(s));
    let jobs = queued + running + completed + interrupted;
    let clients = core
        .clients()
        .map(|(key, stats)| {
            (
                key.to_string(),
                Json::obj([
                    ("submitted", Json::Num(stats.submitted)),
                    ("rejected", Json::Num(stats.rejected)),
                    ("completed", Json::Num(stats.completed)),
                ]),
            )
        })
        .collect();
    Json::obj([
        ("schema", Json::Str(STATUS_SCHEMA.to_string())),
        ("jobs", Json::Num(jobs)),
        ("queued", Json::Num(queued)),
        ("running", Json::Num(running)),
        ("completed", Json::Num(completed)),
        ("interrupted", Json::Num(interrupted)),
        ("clients", Json::Obj(clients)),
    ])
    .to_json()
}

/// Renders a structured rejection as a `qdc-service-error/v1` document.
/// `status` is the HTTP status the document travels with, `error` a
/// stable machine-readable slug, `message` the human-readable detail.
pub fn error_json(status: u16, error: &str, message: &str) -> String {
    Json::obj([
        ("schema", Json::Str(ERROR_SCHEMA.to_string())),
        ("status", Json::Num(u64::from(status))),
        ("error", Json::Str(error.to_string())),
        ("message", Json::Str(message.to_string())),
    ])
    .to_json()
}

/// Maps a queue/quota rejection to its HTTP status, slug, and rendered
/// `qdc-service-error/v1` body. Spec errors are the client's fault
/// (400); every resource rejection is 429, distinguishable by slug.
pub fn submit_error_json(err: &SubmitError) -> (u16, String) {
    let (status, slug) = match err {
        SubmitError::InvalidSpec(_) => (400, "invalid_spec"),
        SubmitError::QueueFull { .. } => (429, "queue_full"),
        SubmitError::ClientQueueFull { .. } => (429, "client_queue_full"),
        SubmitError::QuotaExceeded { .. } => (429, "quota_exceeded"),
    };
    (status, error_json(status, slug, &err.to_string()))
}

/// The `qdc-job/v1` key table: a known `state` word, integer counters,
/// and — on jobs with committed results — the campaign aggregate.
const JOB_TABLE: Table = Table {
    required: &[
        ("schema", Shape::Tag(JOB_SCHEMA)),
        ("id", Shape::U64),
        ("campaign", Shape::Str),
        ("client", Shape::Str),
        ("telemetry", Shape::Bool),
        ("points", Shape::U64),
        (
            "state",
            Shape::OneOf(&["queued", "running", "completed", "interrupted"]),
        ),
        ("committed", Shape::U64),
    ],
    optional: &[("aggregate", Shape::Table(&Aggregate::TABLE))],
};

const CLIENT_TABLE: Table = Table {
    required: &[
        ("submitted", Shape::U64),
        ("rejected", Shape::U64),
        ("completed", Shape::U64),
    ],
    optional: &[],
};

/// The `qdc-service-status/v1` key table: job counts by state, then
/// per-client counters keyed by client.
const STATUS_TABLE: Table = Table {
    required: &[
        ("schema", Shape::Tag(STATUS_SCHEMA)),
        ("jobs", Shape::U64),
        ("queued", Shape::U64),
        ("running", Shape::U64),
        ("completed", Shape::U64),
        ("interrupted", Shape::U64),
        ("clients", Shape::MapOf(&CLIENT_TABLE)),
    ],
    optional: &[],
};

/// The `qdc-service-error/v1` key table: `status` is an HTTP status.
const ERROR_TABLE: Table = Table {
    required: &[
        ("schema", Shape::Tag(ERROR_SCHEMA)),
        ("status", Shape::U64In(100, 599)),
        ("error", Shape::Str),
        ("message", Shape::Str),
    ],
    optional: &[],
};

/// Strict conformance check for one `qdc-job/v1` document against
/// `JOB_TABLE`. A trailing newline is accepted.
pub fn validate_job(text: &str) -> Result<(), String> {
    json::check(&json::parse(text)?, &JOB_TABLE)
}

/// Strict conformance check for one `qdc-service-status/v1` document
/// against `STATUS_TABLE`. A trailing newline is accepted.
pub fn validate_status(text: &str) -> Result<(), String> {
    json::check(&json::parse(text)?, &STATUS_TABLE)
}

/// Strict conformance check for one `qdc-service-error/v1` document
/// against `ERROR_TABLE`. A trailing newline is accepted.
pub fn validate_error(text: &str) -> Result<(), String> {
    json::check(&json::parse(text)?, &ERROR_TABLE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{QuotaConfig, ServiceCore};
    use qdc_harness::{builtin, CampaignError};

    fn filled_core() -> ServiceCore {
        let mut core = ServiceCore::new(QuotaConfig::default());
        let a = core
            .submit("alice", builtin("simthm_smoke").expect("builtin"), false)
            .expect("admits");
        core.submit("bob", builtin("telemetry_smoke").expect("builtin"), true)
            .expect("admits");
        let job = core.take_next().expect("dispatch");
        assert_eq!(job.id, a);
        core.finish(a, false);
        core
    }

    #[test]
    fn wire_job_document_validates_in_every_state() {
        let job = Job {
            id: 1,
            client: "alice".into(),
            spec: builtin("simthm_smoke").expect("builtin"),
            telemetry: false,
        };
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Completed,
            JobState::Interrupted,
        ] {
            let text = job_json(&job, state, &Recovery::default());
            validate_job(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        }
        // A running job with committed lines carries the aggregate tail.
        let mut progress = Recovery {
            committed: 2,
            ..Recovery::default()
        };
        progress.aggregate.points = 2;
        progress.aggregate.ok = 2;
        let text = job_json(&job, JobState::Running, &progress);
        assert!(text.contains("\"aggregate\":{"), "{text}");
        validate_job(&text).expect("validates with aggregate");
    }

    #[test]
    fn wire_status_document_round_trips_counters() {
        let core = filled_core();
        let text = status_json(&core);
        validate_status(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert!(text.contains("\"jobs\":2"), "{text}");
        assert!(text.contains("\"completed\":1"), "{text}");
        assert!(
            text.contains("\"alice\":{\"submitted\":1,\"rejected\":0,\"completed\":1}"),
            "{text}"
        );
    }

    #[test]
    fn wire_submit_errors_map_to_stable_statuses_and_slugs() {
        for (err, want_status, want_slug) in [
            (
                SubmitError::InvalidSpec(CampaignError::EmptyName),
                400,
                "invalid_spec",
            ),
            (
                SubmitError::QueueFull { depth: 3, max: 3 },
                429,
                "queue_full",
            ),
            (
                SubmitError::ClientQueueFull { queued: 2, max: 2 },
                429,
                "client_queue_full",
            ),
            (
                SubmitError::QuotaExceeded {
                    requested: 9,
                    active: 1,
                    max: 8,
                },
                429,
                "quota_exceeded",
            ),
        ] {
            let (status, body) = submit_error_json(&err);
            assert_eq!(status, want_status);
            assert!(
                body.contains(&format!("\"error\":\"{want_slug}\"")),
                "{body}"
            );
            validate_error(&body).unwrap_or_else(|e| panic!("{body}: {e}"));
        }
    }

    #[test]
    fn wire_validators_reject_malformed_documents() {
        for bad in [
            // Wrong schema tags.
            "{\"schema\":\"qdc-job/v2\",\"id\":1,\"campaign\":\"x\",\"client\":\"c\",\
             \"telemetry\":false,\"points\":4,\"state\":\"queued\",\"committed\":0}",
            // Unknown state word.
            "{\"schema\":\"qdc-job/v1\",\"id\":1,\"campaign\":\"x\",\"client\":\"c\",\
             \"telemetry\":false,\"points\":4,\"state\":\"paused\",\"committed\":0}",
            // Reordered fields.
            "{\"id\":1,\"schema\":\"qdc-job/v1\",\"campaign\":\"x\",\"client\":\"c\",\
             \"telemetry\":false,\"points\":4,\"state\":\"queued\",\"committed\":0}",
        ] {
            assert!(validate_job(bad).is_err(), "should reject: {bad}");
        }
        assert!(
            validate_status("{\"schema\":\"qdc-service-status/v1\",\"jobs\":0}").is_err(),
            "missing counters"
        );
        assert!(
            validate_error(
                "{\"schema\":\"qdc-service-error/v1\",\"status\":999,\
                 \"error\":\"x\",\"message\":\"y\"}"
            )
            .is_err(),
            "out-of-range status"
        );
    }
}
