//! Resident campaign service: a job queue, per-client quotas, and
//! streaming JSONL endpoints over a hand-rolled HTTP/1.1 layer.
//!
//! The batch `campaign` CLI runs one spec and exits; this crate keeps a
//! process resident so campaigns can be *submitted* — queued behind
//! admission control, executed by a worker pool through the crash-safe
//! journaled runner, and observed live over plain HTTP. The layering
//! keeps every policy decision testable without a socket:
//!
//! * [`core`] — the deterministic scheduler: bounded FIFO queue,
//!   per-client quotas ([`QuotaConfig`]), job lifecycle
//!   ([`JobState`]), structured rejections ([`SubmitError`]). A plain
//!   library; property tests drive it directly.
//! * [`scan`] — the startup data-dir scan that makes the service
//!   SIGKILL-durable: each journal goes through
//!   [`qdc_harness::journal::resume`], the reader `campaign resume`
//!   uses, which truncates torn tails on record boundaries; incomplete
//!   jobs are re-enqueued and completed ones restored.
//! * [`wire`] — the three service schemas (`qdc-job/v1`,
//!   `qdc-service-status/v1`, `qdc-service-error/v1`), writers and
//!   strict validators, golden-locked at the workspace root.
//! * [`http`] — a minimal HTTP/1.1 reader/writer over [`std::io`]
//!   (one request per connection, chunked streaming out, hard size
//!   limits in), testable against byte buffers.
//! * [`server`] — the only socket code: accept loop, connection
//!   threads, worker pool, graceful [`CancelToken`]-driven shutdown.
//!
//! The headline invariant carries over from the harness: a job's
//! streamed `/records` bytes are **identical** to what a direct
//! `campaign run --deterministic` of the same spec writes, because
//! workers always run the deterministic resumable form and the stream
//! serves only committed journal bytes.
//!
//! [`CancelToken`]: qdc_harness::CancelToken

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core;
pub mod http;
pub mod scan;
pub mod server;
pub mod wire;

pub use crate::core::{ClientStats, Job, JobState, QuotaConfig, ServiceCore, SubmitError};
pub use scan::{scan_data_dir, ScanReport};
pub use server::{Server, ServiceConfig};
pub use wire::{
    error_json, job_json, status_json, submit_error_json, validate_error, validate_job,
    validate_status, ERROR_SCHEMA, JOB_SCHEMA, STATUS_SCHEMA,
};
