//! The socket adapter: a resident HTTP server wrapping the
//! deterministic [`ServiceCore`].
//!
//! # Endpoints
//!
//! | route | method | reply |
//! |---|---|---|
//! | `/jobs` | POST | `qdc-job/v1` receipt (201), or a structured rejection |
//! | `/jobs/<id>` | GET | `qdc-job/v1`, progress folded from the journal |
//! | `/jobs/<id>/records` | GET | chunked JSONL tail of the journal, woken by its commits |
//! | `/jobs/<id>/telemetry` | GET | all telemetry archives, concatenated |
//! | `/jobs/<id>/telemetry/<i>` | GET | one point's archive, byte-exact |
//! | `/status` | GET | `qdc-service-status/v1` snapshot |
//!
//! # Back-pressure and isolation
//!
//! Admission control happens *before* any work: the queue and quota
//! checks in [`ServiceCore::submit_held`] run under one mutex and reject
//! with a structured `qdc-service-error/v1` body. A slow reader can
//! never block a worker, because the streaming endpoint reads only the
//! committed journal *file* — workers append through the fsync
//! discipline of [`qdc_harness::Journal`] and never hand bytes to a
//! socket. Each connection gets its own thread and a read timeout, so
//! a stalled client costs one thread, not the accept loop.
//!
//! # Wake-ups
//!
//! Nothing on the request path sleeps on a timer. The accept blocks, a
//! worker waits on the queue's condvar, and a records stream waits on
//! its job's [`CommitWatch`], which the worker's run publishes after
//! each batch's `sync_data` and closes once the core lets the job go.
//! The only timed waits left are the shutdown thread's check of the
//! [`CancelToken`] (see [`Server::run`]) and the backoff after an
//! accept error.
//!
//! # Durability
//!
//! Every admitted job is persisted as `job_<id>.json` before its 201
//! receipt is sent. The core holds the job back from the workers while
//! the document is written and synced outside its mutex, and rolls the
//! admission back if that fails. Every result line is fsync'd by the
//! journaled runner before a running job's stream may send it, so a
//! power cut cannot take back a line a client has read. A SIGKILL at
//! any instant loses at most work that was never acknowledged; on
//! restart [`Server::bind`] rescans the data dir, truncates torn journal
//! tails on record boundaries, re-enqueues incomplete jobs, and the
//! resumed output is byte-identical to an uninterrupted run (the
//! workers always run the deterministic form).

use crate::core::{Job, JobState, QuotaConfig, ServiceCore};
use crate::http::{read_request, write_json_response, ChunkedWriter, HttpError, Request};
use crate::scan::{finished_state, job_doc_json, job_paths, parse_job_doc, scan_data_dir};
use crate::wire::{error_json, job_json, status_json, submit_error_json};
use qdc_congest::json::{self, Json};
use qdc_harness::{
    builtin, journal, run_campaign_journaled, spec_from_json, stream_telemetry_archives,
    stream_telemetry_path, CampaignSpec, CancelToken, CommitWatch, Committed, JournalConfig,
    Recovery, RunOptions, TelemetryMode,
};
use std::io::{self, BufReader, Read as _, Seek as _, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How the service runs: storage location, worker sizing, quotas.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Directory for job documents, journals, and telemetry archives.
    pub data_dir: PathBuf,
    /// Campaign worker threads (jobs running concurrently).
    pub workers: usize,
    /// Point-level threads inside each campaign run (the determinism
    /// contract makes any value safe).
    pub job_threads: usize,
    /// Admission limits.
    pub quotas: QuotaConfig,
    /// Per-point throttle passed to every run (testing aid: lets CI
    /// keep a job running long enough to observe it mid-flight).
    pub throttle_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            data_dir: PathBuf::from("qdc_service_data"),
            workers: 2,
            job_threads: 1,
            quotas: QuotaConfig::default(),
            throttle_ms: 0,
        }
    }
}

/// How often the shutdown thread checks the cancel token.
const CANCEL_CHECK: Duration = Duration::from_millis(20);

struct ServiceState {
    core: Mutex<ServiceCore>,
    /// Wakes the workers: a job was queued, or the service is stopping.
    wake: Condvar,
    config: ServiceConfig,
    cancel: CancelToken,
    /// The bound address, an unspecified IP mapped to loopback: where
    /// the shutdown thread connects to wake the blocked accept loop.
    addr: SocketAddr,
}

/// Locks the core. A thread that panicked while holding the lock leaves
/// the mutex poisoned; the guard is recovered instead of propagating
/// the panic, so one failed request cannot make every later request and
/// every worker panic too. The core stays valid through such a panic:
/// it changes only inside `ServiceCore` methods, whose one-step updates
/// panic only on an invariant that was already broken.
fn lock_core(state: &ServiceState) -> MutexGuard<'_, ServiceCore> {
    state.core.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A bound, recovered, not-yet-serving campaign service.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServiceState>,
    scan_warnings: Vec<String>,
}

impl Server {
    /// Binds the listener, creates the data dir, and replays it: torn
    /// journals are truncated on record boundaries, completed jobs are
    /// counted, and every incomplete job goes back on the queue. New job
    /// ids start past every id the data dir names, so a skipped damaged
    /// job's files are never reused. Port `0` binds an
    /// ephemeral port (see [`local_addr`](Server::local_addr)).
    pub fn bind(addr: &str, config: ServiceConfig, cancel: CancelToken) -> io::Result<Server> {
        std::fs::create_dir_all(&config.data_dir)?;
        let report = scan_data_dir(&config.data_dir)?;
        let mut core = ServiceCore::new(config.quotas);
        core.reserve_ids_through(report.max_id);
        for (job, completed) in report.jobs {
            core.restore(job, completed);
        }
        let listener = TcpListener::bind(addr)?;
        let mut addr = listener.local_addr()?;
        if addr.ip().is_unspecified() {
            addr.set_ip(if addr.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            });
        }
        Ok(Server {
            listener,
            state: Arc::new(ServiceState {
                core: Mutex::new(core),
                wake: Condvar::new(),
                config,
                cancel,
                addr,
            }),
            scan_warnings: report.warnings,
        })
    }

    /// The address actually bound (resolves an ephemeral port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Damaged data-dir entries the startup scan skipped.
    pub fn scan_warnings(&self) -> &[String] {
        &self.scan_warnings
    }

    /// Serves until the cancel token fires: accepts connections (one
    /// thread each), runs the worker pool, then drains.
    ///
    /// The accept blocks, so a request is served the moment it arrives.
    /// The cancel token is an atomic flag that a signal handler sets and
    /// that therefore cannot wake anything, so one shutdown thread
    /// checks it every 20 ms and is the one thread that waits for it. On cancel it wakes every other waiter: the workers, every
    /// open records stream (through its job's watch), and the accept
    /// loop, by connecting to the bound address. It notifies each
    /// condvar while holding the mutex its waiters check the token
    /// under, so no wake-up is lost, and it needs no live worker.
    /// Shutdown order matters — stop accepting, let in-flight jobs reach
    /// their next journal flush (the cancel token interrupts them
    /// between points), join the workers, return. Queued jobs stay
    /// queued on disk; a restart re-enqueues them.
    pub fn run(self) -> io::Result<()> {
        let spawn = |task: fn(&ServiceState)| {
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || task(&state))
        };
        let workers: Vec<_> = (0..self.state.config.workers.max(1))
            .map(|_| spawn(worker_loop))
            .collect();
        let shutdown = spawn(shutdown_on_cancel);

        while !self.state.cancel.is_cancelled() {
            match self.listener.accept() {
                // The shutdown thread's wake-up, or a client too late to
                // be served.
                Ok(_) if self.state.cancel.is_cancelled() => break,
                Ok((stream, peer)) => {
                    let state = Arc::clone(&self.state);
                    std::thread::spawn(move || {
                        // A failed connection only costs that client.
                        let _ = handle_connection(&state, stream, peer);
                    });
                }
                // A real accept error (EMFILE, ...): back off, don't spin.
                Err(_) => std::thread::sleep(Duration::from_millis(15)),
            }
        }

        let _ = shutdown.join();
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// Waits for the cancel token, then wakes the workers, every open
/// records stream and the accept loop (see [`Server::run`]).
fn shutdown_on_cancel(state: &ServiceState) {
    while !state.cancel.is_cancelled() {
        std::thread::sleep(CANCEL_CHECK);
    }
    {
        let core = lock_core(state);
        state.wake.notify_all();
        for watch in core.watches() {
            watch.wake();
        }
    }
    // If the accept loop has already stopped, the refused connection is
    // just as good.
    let _ = TcpStream::connect(state.addr);
}

/// Pulls jobs FIFO until shutdown. Every run is the deterministic
/// resumable form: `with_wall: false`, `resume: true`, journal under
/// the data dir — which is precisely what makes the service's streamed
/// bytes equal to a direct `campaign <spec> --deterministic`.
fn worker_loop(state: &ServiceState) {
    loop {
        let (job, watch) = {
            let mut core = lock_core(state);
            loop {
                if state.cancel.is_cancelled() {
                    return;
                }
                if let Some(job) = core.take_next() {
                    let watch = core.watch(job.id);
                    break (job, watch);
                }
                core = state
                    .wake
                    .wait(core)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };

        let (_, records_path, telemetry_dir) = job_paths(&state.config.data_dir, job.id);
        let journal_config = JournalConfig {
            out_path: records_path.to_string_lossy().into_owned(),
            telemetry_dir: job
                .telemetry
                .then(|| telemetry_dir.to_string_lossy().into_owned()),
            resume: true,
            with_wall: false,
            watch,
        };
        let options = RunOptions {
            threads: state.config.job_threads.max(1),
            telemetry: if job.telemetry {
                TelemetryMode::Exact
            } else {
                TelemetryMode::Off
            },
            throttle_ms: state.config.throttle_ms,
            ..RunOptions::default()
        };
        let result = run_campaign_journaled(&job.spec, &options, &journal_config, &state.cancel);
        let interrupted = match result {
            Ok(outcome) => outcome.interrupted,
            Err(e) => {
                // Journal I/O, a failed archive or a refused fold: the
                // journal stays a resumable prefix, so leave the job
                // resumable and let the operator see why.
                eprintln!("job {}: {e}", job.id);
                true
            }
        };
        // Letting the job go closes its watch: its streams drain the
        // final journal and end.
        lock_core(state).finish(job.id, interrupted);
    }
}

/// One request per connection: parse, route, answer, close.
fn handle_connection(state: &ServiceState, stream: TcpStream, peer: SocketAddr) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    match read_request(&mut reader) {
        Ok(None) => Ok(()),
        Ok(Some(req)) => route(state, &req, peer, &mut writer),
        Err(HttpError::PayloadTooLarge { declared }) => write_json_response(
            &mut writer,
            413,
            &error_json(
                413,
                "payload_too_large",
                &format!("{declared} bytes declared"),
            ),
        ),
        Err(HttpError::BadRequest(msg)) => {
            write_json_response(&mut writer, 400, &error_json(400, "bad_request", &msg))
        }
        Err(HttpError::Io(e)) => Err(e),
    }
}

/// The service's URL space, parsed.
enum Route {
    Jobs,
    Job(u64),
    Records(u64),
    TelemetryAll(u64),
    TelemetryPoint(u64, u64),
    Status,
    Unknown,
}

fn parse_route(path: &str) -> Route {
    if path == "/status" {
        return Route::Status;
    }
    if path == "/jobs" {
        return Route::Jobs;
    }
    let Some(rest) = path.strip_prefix("/jobs/") else {
        return Route::Unknown;
    };
    let mut parts = rest.split('/');
    let Some(id) = parts.next().and_then(|s| s.parse::<u64>().ok()) else {
        return Route::Unknown;
    };
    match (parts.next(), parts.next(), parts.next()) {
        (None, _, _) => Route::Job(id),
        (Some("records"), None, _) => Route::Records(id),
        (Some("telemetry"), None, _) => Route::TelemetryAll(id),
        (Some("telemetry"), Some(i), None) => match i.parse::<u64>() {
            Ok(i) => Route::TelemetryPoint(id, i),
            Err(_) => Route::Unknown,
        },
        _ => Route::Unknown,
    }
}

fn route(
    state: &ServiceState,
    req: &Request,
    peer: SocketAddr,
    w: &mut TcpStream,
) -> io::Result<()> {
    match (parse_route(&req.path), req.method.as_str()) {
        (Route::Jobs, "POST") => submit(state, req, peer, w),
        (Route::Job(id), "GET") => job_status(state, id, w),
        (Route::Records(id), "GET") => stream_records(state, id, w),
        (Route::TelemetryAll(id), "GET") => telemetry_all(state, id, w),
        (Route::TelemetryPoint(id, i), "GET") => telemetry_point(state, id, i, w),
        (Route::Status, "GET") => {
            let body = {
                let core = lock_core(state);
                status_json(&core)
            };
            write_json_response(w, 200, &body)
        }
        (Route::Unknown, _) => not_found(w, &format!("no such path `{}`", req.path)),
        (_, method) => write_json_response(
            w,
            405,
            &error_json(
                405,
                "method_not_allowed",
                &format!("`{method}` is not valid here"),
            ),
        ),
    }
}

fn not_found(w: &mut TcpStream, message: &str) -> io::Result<()> {
    write_json_response(w, 404, &error_json(404, "not_found", message))
}

fn storage_failure(w: &mut TcpStream, message: &str) -> io::Result<()> {
    write_json_response(w, 500, &error_json(500, "storage_failure", message))
}

/// The submission body: a raw spec document, or a wrapper selecting a
/// builtin / attaching a telemetry request.
fn parse_submission(doc: &Json) -> Result<(CampaignSpec, bool), String> {
    let first_key = match doc {
        Json::Obj(fields) => fields.first().map(|(k, _)| k.as_str()),
        _ => return Err("submission must be an object".into()),
    };
    let telemetry = match doc.get("telemetry") {
        None => false,
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err("`telemetry` must be a boolean".into()),
    };
    match first_key {
        Some("builtin") => {
            json::require_keys(doc, &["builtin"], &["telemetry"])?;
            let Some(Json::Str(name)) = doc.get("builtin") else {
                return Err("`builtin` must be a string".into());
            };
            let spec = builtin(name).ok_or_else(|| format!("unknown builtin `{name}`"))?;
            Ok((spec, telemetry))
        }
        Some("spec") => {
            json::require_keys(doc, &["spec"], &["telemetry"])?;
            let spec = spec_from_json(doc.get("spec").expect("checked above"))?;
            Ok((spec, telemetry))
        }
        _ => Ok((spec_from_json(doc)?, false)),
    }
}

fn submit(
    state: &ServiceState,
    req: &Request,
    peer: SocketAddr,
    w: &mut TcpStream,
) -> io::Result<()> {
    let client = match req.header("x-qdc-client") {
        Some(token) if !token.is_empty() => token.to_string(),
        _ => peer.ip().to_string(),
    };
    let parsed = std::str::from_utf8(&req.body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(|text| json::parse(text.trim()))
        .and_then(|doc| parse_submission(&doc));
    let (spec, telemetry) = match parsed {
        Ok(p) => p,
        Err(msg) => {
            return write_json_response(w, 400, &error_json(400, "bad_request", &msg));
        }
    };

    let admitted = lock_core(state).submit_held(&client, spec.clone(), telemetry);
    let held = match admitted {
        Ok(id) => HeldJob { state, id },
        Err(e) => {
            let (status, body) = submit_error_json(&e);
            return write_json_response(w, status, &body);
        }
    };
    // Persist the submission before acknowledging it: once the 201 is
    // on the wire, a restart must find the job. The flush runs outside
    // the core lock; until the job is released no worker can take it.
    let job = Job {
        id: held.id,
        client,
        spec,
        telemetry,
    };
    let (doc_path, _, _) = job_paths(&state.config.data_dir, job.id);
    if let Err(e) = persist_job_doc(&doc_path, &job) {
        // An unpersisted job would vanish on restart despite its
        // receipt, so the admission is rolled back before the reply.
        drop(held);
        return storage_failure(w, &format!("could not persist job: {e}"));
    }
    held.release();
    // Its id is new to the data dir, so it has no journal.
    let receipt = job_json(&job, JobState::Queued, &Recovery::default());
    write_json_response(w, 201, &receipt)
}

/// A job admitted held while its document is persisted outside the
/// core lock. Dropping it rolls the admission back, so every exit from
/// the submit path but [`release`](HeldJob::release), a panic included,
/// leaves the core as if the job had never been submitted.
struct HeldJob<'a> {
    state: &'a ServiceState,
    id: u64,
}

impl HeldJob<'_> {
    /// Hands the persisted job to the workers.
    fn release(self) {
        lock_core(self.state).release(self.id);
        self.state.wake.notify_one();
        std::mem::forget(self);
    }
}

impl Drop for HeldJob<'_> {
    fn drop(&mut self) {
        lock_core(self.state).abort_queued(self.id);
    }
}

fn persist_job_doc(path: &std::path::Path, job: &Job) -> io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(job_doc_json(job.id, &job.client, job.telemetry, &job.spec).as_bytes())?;
    file.write_all(b"\n")?;
    file.sync_data()
}

/// Job `id`'s submission, read from its `job_<id>.json`, or `None` once
/// the request is answered: 404 without a document, a structured 500
/// when it cannot be read.
fn read_job(state: &ServiceState, id: u64, w: &mut TcpStream) -> io::Result<Option<Job>> {
    let (doc_path, _, _) = job_paths(&state.config.data_dir, id);
    let error = match std::fs::read(&doc_path).map(|doc| parse_job_doc(&doc)) {
        Ok(Ok(job)) => return Ok(Some(job)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return not_found(w, &format!("no job {id}")).map(|()| None)
        }
        Err(e) => e.to_string(),
        Ok(Err(e)) => e,
    };
    storage_failure(w, &format!("cannot read job {id}'s submission: {error}")).map(|()| None)
}

/// `GET /jobs/<id>` — the job's document, with its progress folded from
/// the journal in every state: the core's state while it holds the job,
/// then the startup scan's rule. A journal that cannot be read, or that
/// resume would refuse, answers a structured 500.
fn job_status(state: &ServiceState, id: u64, w: &mut TcpStream) -> io::Result<()> {
    // The core first: once it has let a job go, the journal is final.
    let live = lock_core(state).state(id);
    let Some(job) = read_job(state, id, w)? else {
        return Ok(());
    };
    let (_, records_path, _) = job_paths(&state.config.data_dir, id);
    // Read-only: a worker may be appending to this file, so never
    // truncate it (`journal::resume` would). A job no worker has
    // started yet may have no journal.
    let progress = match std::fs::read(&records_path) {
        Ok(bytes) => journal::check(&bytes, &job.spec),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Recovery::default()),
        Err(e) => Err(e.to_string()),
    };
    match progress {
        Ok(progress) => {
            let job_state = live.unwrap_or_else(|| finished_state(&job, &progress));
            write_json_response(w, 200, &job_json(&job, job_state, &progress))
        }
        Err(e) => storage_failure(w, &format!("cannot fold job {id}'s journal: {e}")),
    }
}

/// `GET /jobs/<id>/records` — the journal as chunked JSONL, whole
/// lines only. While the core holds the job, the stream waits on its
/// commit watch and sends each published durable length as it comes,
/// so a record goes out once its batch is synced and never before. It
/// ends once the core has let the job go and the final journal is
/// drained to its last newline, or at shutdown with what was durable.
/// Reads the file, never the worker: back-pressure from a slow client
/// stops *this* thread at the socket, nothing else.
fn stream_records(state: &ServiceState, id: u64, w: &mut TcpStream) -> io::Result<()> {
    let (doc_path, records_path, _) = job_paths(&state.config.data_dir, id);
    // The document is on disk before the job's id is ever sent.
    if !doc_path.is_file() {
        return not_found(w, &format!("no job {id}"));
    }
    // Taken before the file is read: without a watch the job is
    // finished and its journal final.
    let watch = lock_core(state).watch(id);
    let mut chunks = ChunkedWriter::begin(w, 200, "application/jsonl")?;
    let mut sent = 0u64;
    if let Some(watch) = watch {
        let last = stream_durable(state, &watch, &records_path, &mut chunks)?;
        if !last.closed {
            // Shutdown: stop at what is durable.
            return chunks.finish();
        }
        sent = last.len;
    }
    // Read only from the last streamed boundary, and only whole lines:
    // a torn tail stays unsent.
    let mut tail = Vec::new();
    if let Ok(mut file) = std::fs::File::open(&records_path) {
        if file.seek(io::SeekFrom::Start(sent)).is_ok() {
            let _ = file.read_to_end(&mut tail);
        }
    }
    let whole = tail.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
    if whole > 0 {
        chunks.chunk(&tail[..whole])?;
    }
    chunks.finish()
}

/// Sends a live job's journal up to each durable length its watch
/// publishes, until the watch closes or the service is cancelled, and
/// returns the last state it sent up to. Published lengths are record
/// boundaries, so every chunk is whole lines, and the bytes below them
/// never change.
fn stream_durable(
    state: &ServiceState,
    watch: &CommitWatch,
    records_path: &std::path::Path,
    chunks: &mut ChunkedWriter<&mut TcpStream>,
) -> io::Result<Committed> {
    let mut sent = 0u64;
    loop {
        let now = watch.wait_until(|c| c.len > sent || c.closed || state.cancel.is_cancelled());
        if now.len > sent {
            let mut file = std::fs::File::open(records_path)?;
            file.seek(io::SeekFrom::Start(sent))?;
            let mut lines = Vec::new();
            file.take(now.len - sent).read_to_end(&mut lines)?;
            if lines.len() as u64 != now.len - sent {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            chunks.chunk(&lines)?;
            sent = now.len;
        }
        if now.closed || state.cancel.is_cancelled() {
            return Ok(now);
        }
    }
}

/// Job `id`'s telemetry directory, or `None` once the request is
/// answered: as [`read_job`] answers it, or with a 404 for a job
/// submitted without telemetry.
fn telemetry_dir(state: &ServiceState, id: u64, w: &mut TcpStream) -> io::Result<Option<PathBuf>> {
    match read_job(state, id, w)? {
        Some(job) if job.telemetry => Ok(Some(job_paths(&state.config.data_dir, id).2)),
        Some(_) => {
            not_found(w, &format!("job {id} was submitted without telemetry")).map(|()| None)
        }
        None => Ok(None),
    }
}

/// Read window for archive streaming: the serving thread never holds
/// more than this much archive in memory, however large the file is.
const TELEMETRY_CHUNK_BYTES: usize = 64 * 1024;

/// Copies one committed archive through the chunked writer with a
/// bounded buffer. Archives land atomically (every writer, committer
/// and stream sink alike, stages a `.part` file and renames it into
/// place), so a file visible at its final path is complete and can be
/// streamed without coordination.
fn stream_archive_file(
    chunks: &mut ChunkedWriter<&mut TcpStream>,
    path: &std::path::Path,
) -> io::Result<()> {
    let mut file = std::fs::File::open(path)?;
    let mut buf = vec![0u8; TELEMETRY_CHUNK_BYTES];
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            return Ok(());
        }
        chunks.chunk(&buf[..n])?;
    }
}

/// `GET /jobs/<id>/telemetry` — every archived point profile so far,
/// concatenated in point order (each archive is itself JSONL, so the
/// concatenation is too). Streamed chunk-by-chunk from the committed
/// bytes on disk: memory stays O(chunk) no matter how many points the
/// campaign has or how long each archive is, and back-pressure from a
/// slow client parks this thread at the socket, nothing else.
fn telemetry_all(state: &ServiceState, id: u64, w: &mut TcpStream) -> io::Result<()> {
    let Some(dir) = telemetry_dir(state, id, w)? else {
        return Ok(());
    };
    // No directory yet just means no point has committed an archive.
    let archives = stream_telemetry_archives(&dir).unwrap_or_default();
    let mut chunks = ChunkedWriter::begin(w, 200, "application/jsonl")?;
    for path in archives {
        stream_archive_file(&mut chunks, &path)?;
    }
    chunks.finish()
}

/// `GET /jobs/<id>/telemetry/<i>` — one point's `qdc-telemetry/v1`
/// archive, byte-exact (pipe it straight into `profile -`). Streamed
/// with the same bounded window as the concatenated endpoint.
fn telemetry_point(state: &ServiceState, id: u64, index: u64, w: &mut TcpStream) -> io::Result<()> {
    let Some(dir) = telemetry_dir(state, id, w)? else {
        return Ok(());
    };
    let path = stream_telemetry_path(&dir, index as usize);
    if !path.is_file() {
        return not_found(w, &format!("job {id} has no archive for point {index}"));
    }
    let mut chunks = ChunkedWriter::begin(w, 200, "application/jsonl")?;
    stream_archive_file(&mut chunks, &path)?;
    chunks.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with(config: ServiceConfig) -> ServiceState {
        ServiceState {
            core: Mutex::new(ServiceCore::new(QuotaConfig::default())),
            wake: Condvar::new(),
            config,
            cancel: CancelToken::new(),
            addr: SocketAddr::from((Ipv4Addr::LOCALHOST, 0)),
        }
    }

    /// Serves one raw request on a loopback socket and returns the reply.
    fn serve_one(state: &ServiceState, request: &[u8]) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let mut client =
            TcpStream::connect(listener.local_addr().expect("bound")).expect("connects");
        client.write_all(request).expect("sends");
        let (stream, peer) = listener.accept().expect("accepts");
        handle_connection(state, stream, peer).expect("serves");
        let mut response = String::new();
        client.read_to_string(&mut response).expect("reads");
        response
    }

    #[test]
    fn server_survives_a_poisoned_core_lock() {
        let state = state_with(ServiceConfig::default());
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _core = state.core.lock();
                panic!("a handler panics while it holds the core");
            });
            assert!(holder.join().is_err());
        });
        assert!(state.core.is_poisoned());

        let response = serve_one(&state, b"GET /status HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    }

    #[test]
    fn server_rolls_back_a_job_it_cannot_persist() {
        // A data dir that does not exist: creating the job document fails.
        let state = state_with(ServiceConfig {
            data_dir: PathBuf::from("no-such-service-dir/for-this-test"),
            ..ServiceConfig::default()
        });
        let body = br#"{"builtin":"simthm_smoke"}"#;
        let mut request = format!(
            "POST /jobs HTTP/1.1\r\nX-QDC-Client: alice\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body);
        let response = serve_one(&state, &request);
        assert!(response.starts_with("HTTP/1.1 500"), "{response}");
        assert!(response.contains("could not persist job"), "{response}");

        let mut core = lock_core(&state);
        assert_eq!(core.queue_depth(), 0, "the admission is rolled back");
        assert_eq!(core.watches().count(), 0);
        let stats = core.clients().next().expect("the client is known").1;
        assert_eq!((stats.submitted, stats.rejected), (0, 0));
        assert!(core.take_next().is_none());
    }
}
