//! Loopback integration tests: a real [`Server`] on an ephemeral port,
//! driven by a raw [`TcpStream`] client. The headline assertion is the
//! service's determinism contract — the bytes streamed from
//! `/jobs/<id>/records` are identical to what an in-process
//! deterministic run of the same spec produces — plus the structured
//! rejection and recovery behaviours that need an actual socket.

use qdc_harness::json::{self, Json};
use qdc_harness::{builtin, run_campaign, Aggregate, CancelToken, RunOptions};
use qdc_service::scan::job_doc_json;
use qdc_service::{
    validate_error, validate_job, validate_status, QuotaConfig, Server, ServiceConfig,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qdc_loopback_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// A running server plus the handle needed to stop it cleanly.
struct TestServer {
    addr: String,
    cancel: CancelToken,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl TestServer {
    fn start(config: ServiceConfig) -> TestServer {
        let (server, warnings) = TestServer::start_on("127.0.0.1:0", config);
        assert!(warnings.is_empty(), "clean data dir");
        server
    }

    /// Binds `addr`, recovers the data dir and serves; returns the
    /// startup scan's warnings beside the server.
    fn start_on(addr: &str, config: ServiceConfig) -> (TestServer, Vec<String>) {
        let cancel = CancelToken::new();
        let server = Server::bind(addr, config, cancel.clone()).expect("binds");
        let warnings = server.scan_warnings().to_vec();
        let addr = server.local_addr().expect("bound").to_string();
        let handle = std::thread::spawn(move || server.run());
        let server = TestServer {
            addr,
            cancel,
            handle: Some(handle),
        };
        (server, warnings)
    }

    fn stop(self) {
        self.stop_within(Duration::from_secs(30));
    }

    /// Cancels the server and joins it, failing instead of hanging if
    /// it is still running `deadline` after the cancel.
    fn stop_within(mut self, deadline: Duration) {
        self.cancel.cancel();
        let cancelled = Instant::now();
        let handle = self.handle.take().expect("started");
        while !handle.is_finished() {
            assert!(
                cancelled.elapsed() < deadline,
                "server still running {deadline:?} after cancel"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.join().expect("no panic").expect("clean shutdown");
    }
}

/// Sends one raw request and returns `(status, body)` with chunked
/// bodies reassembled.
fn http(addr: &str, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read");
    let text = String::from_utf8(response).expect("utf8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("head/body split");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = if head.contains("Transfer-Encoding: chunked") {
        dechunk(body)
    } else {
        body.to_string()
    };
    (status, body)
}

fn dechunk(mut body: &str) -> String {
    let mut out = String::new();
    loop {
        let (size_line, rest) = body.split_once("\r\n").expect("chunk size line");
        let size = usize::from_str_radix(size_line.trim(), 16).expect("hex chunk size");
        if size == 0 {
            return out;
        }
        out.push_str(&rest[..size]);
        body = rest[size..].strip_prefix("\r\n").expect("chunk terminator");
    }
}

fn get(addr: &str, path: &str) -> (u16, String) {
    http(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

/// Like [`get`], but keeps the chunked framing visible: returns the
/// size of every chunk alongside the reassembled body. The framing is
/// the evidence that the server streamed from disk in bounded windows
/// instead of buffering the whole file into one response.
fn get_chunk_profile(addr: &str, path: &str) -> (u16, Vec<usize>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .expect("send");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read");
    let text = String::from_utf8(response).expect("utf8 response");
    let (head, mut body) = text.split_once("\r\n\r\n").expect("head/body split");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    assert!(
        head.contains("Transfer-Encoding: chunked"),
        "expected a chunked response, got:\n{head}"
    );
    let mut sizes = Vec::new();
    let mut out = String::new();
    loop {
        let (size_line, rest) = body.split_once("\r\n").expect("chunk size line");
        let size = usize::from_str_radix(size_line.trim(), 16).expect("hex chunk size");
        if size == 0 {
            return (status, sizes, out);
        }
        sizes.push(size);
        out.push_str(&rest[..size]);
        body = rest[size..].strip_prefix("\r\n").expect("chunk terminator");
    }
}

fn post(addr: &str, path: &str, client: &str, body: &str) -> (u16, String) {
    http(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nx-qdc-client: {client}\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Polls `/jobs/<id>` until the job reaches a terminal state.
fn wait_terminal(addr: &str, id: u64) -> String {
    for _ in 0..400 {
        let (status, body) = get(addr, &format!("/jobs/{id}"));
        assert_eq!(status, 200, "{body}");
        validate_job(body.trim_end()).expect("job document conforms");
        if body.contains("\"state\":\"completed\"") || body.contains("\"state\":\"interrupted\"") {
            return body;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    panic!("job {id} never reached a terminal state");
}

#[test]
fn loopback_streamed_records_match_a_direct_deterministic_run() {
    let dir = temp_dir("stream");
    let server = TestServer::start(ServiceConfig {
        data_dir: dir.clone(),
        ..ServiceConfig::default()
    });

    let (status, receipt) = post(
        &server.addr,
        "/jobs",
        "alice",
        "{\"builtin\":\"simthm_smoke\"}",
    );
    assert_eq!(status, 201, "{receipt}");
    validate_job(receipt.trim_end()).expect("receipt conforms");
    assert!(receipt.contains("\"id\":1"), "{receipt}");
    assert!(receipt.contains("\"points\":4"), "{receipt}");

    let done = wait_terminal(&server.addr, 1);
    assert!(done.contains("\"state\":\"completed\""), "{done}");
    assert!(done.contains("\"committed\":4"), "{done}");

    // The service's streamed bytes ARE the deterministic JSONL.
    let (status, streamed) = get(&server.addr, "/jobs/1/records");
    assert_eq!(status, 200);
    let spec = builtin("simthm_smoke").expect("builtin");
    let direct = run_campaign(&spec, &RunOptions::default())
        .expect("runs")
        .deterministic_jsonl();
    assert_eq!(streamed, direct, "streamed records are byte-identical");

    // And so is the journal on disk.
    let on_disk = std::fs::read_to_string(dir.join("job_1.records.jsonl")).expect("journal exists");
    assert_eq!(on_disk, direct);

    let (status, body) = get(&server.addr, "/status");
    assert_eq!(status, 200);
    validate_status(body.trim_end()).expect("status conforms");
    assert!(
        body.contains("\"alice\":{\"submitted\":1,\"rejected\":0,\"completed\":1}"),
        "{body}"
    );

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loopback_live_progress_folds_the_committed_prefix() {
    let dir = temp_dir("progress");
    let server = TestServer::start(ServiceConfig {
        data_dir: dir.clone(),
        throttle_ms: 150,
        ..ServiceConfig::default()
    });
    let (status, receipt) = post(
        &server.addr,
        "/jobs",
        "alice",
        "{\"builtin\":\"simthm_smoke\"}",
    );
    assert_eq!(status, 201, "{receipt}");

    // Whatever prefix a poll happens to see, a running job's aggregate
    // is the fold of exactly that many records of a direct run.
    let direct = run_campaign(
        &builtin("simthm_smoke").expect("builtin"),
        &RunOptions::default(),
    )
    .expect("runs");
    let mut observed = 0;
    for _ in 0..400 {
        let (status, body) = get(&server.addr, "/jobs/1");
        assert_eq!(status, 200, "{body}");
        let doc = json::parse(body.trim_end()).expect("job document parses");
        match doc.get("state") {
            Some(Json::Str(s)) if s == "completed" => break,
            Some(Json::Str(s)) if s == "running" => {}
            _ => {
                std::thread::sleep(std::time::Duration::from_millis(10));
                continue;
            }
        }
        let k = doc
            .get("committed")
            .and_then(Json::as_u64)
            .expect("committed") as usize;
        if k > 0 {
            let expected = Aggregate::fold_full(&direct.records[..k], &[]);
            assert_eq!(doc.get("aggregate"), Some(&expected.to_json()), "{body}");
            observed += 1;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(observed > 0, "no running document with committed records");
    wait_terminal(&server.addr, 1);

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loopback_rejections_are_structured_and_counted() {
    let dir = temp_dir("reject");
    let server = TestServer::start(ServiceConfig {
        data_dir: dir.clone(),
        quotas: QuotaConfig {
            max_queue: 64,
            max_queued_per_client: 8,
            max_points_per_client: 5,
        },
        // Keep the first job in the queue long enough for its points to
        // count as active while the second submission arrives.
        throttle_ms: 40,
        ..ServiceConfig::default()
    });

    let (status, first) = post(
        &server.addr,
        "/jobs",
        "alice",
        "{\"builtin\":\"simthm_smoke\"}",
    );
    assert_eq!(status, 201, "{first}");

    // 4 of 5 points in use — a second smoke grid must be rejected.
    let (status, rejected) = post(
        &server.addr,
        "/jobs",
        "alice",
        "{\"builtin\":\"simthm_smoke\"}",
    );
    assert_eq!(status, 429, "{rejected}");
    validate_error(rejected.trim_end()).expect("error conforms");
    assert!(
        rejected.contains("\"error\":\"quota_exceeded\""),
        "{rejected}"
    );

    // A different client still has its full budget.
    let (status, other) = post(
        &server.addr,
        "/jobs",
        "bob",
        "{\"builtin\":\"simthm_smoke\"}",
    );
    assert_eq!(status, 201, "{other}");

    // Semantic spec errors are 400 invalid_spec…
    let (status, invalid) = post(
        &server.addr,
        "/jobs",
        "alice",
        "{\"name\":\"x\",\"grid\":{\"kind\":\"simthm\",\"gammas\":[],\"lengths\":[9],\"bandwidth\":16}}",
    );
    assert_eq!(status, 400, "{invalid}");
    assert!(invalid.contains("\"error\":\"invalid_spec\""), "{invalid}");

    // …shape errors and unknown builtins are 400 bad_request…
    let (status, shapeless) = post(&server.addr, "/jobs", "alice", "{\"builtin\":\"nope\"}");
    assert_eq!(status, 400, "{shapeless}");
    assert!(
        shapeless.contains("\"error\":\"bad_request\""),
        "{shapeless}"
    );

    // …and transport-level junk is also structured.
    let (status, not_found) = get(&server.addr, "/jobs/99");
    assert_eq!(status, 404);
    assert!(not_found.contains("\"error\":\"not_found\""), "{not_found}");
    let (status, wrong_method) = get(&server.addr, "/jobs");
    assert_eq!(status, 405, "{wrong_method}");
    assert!(
        wrong_method.contains("\"error\":\"method_not_allowed\""),
        "{wrong_method}"
    );
    let (status, oversized) = http(
        &server.addr,
        &format!("POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 1 << 20),
    );
    assert_eq!(status, 413, "{oversized}");
    assert!(
        oversized.contains("\"error\":\"payload_too_large\""),
        "{oversized}"
    );

    // The admission rejections (quota, invalid spec) landed in alice's
    // counters; the malformed body never reached admission, so it is
    // deliberately not counted.
    let (_, body) = get(&server.addr, "/status");
    assert!(
        body.contains("\"alice\":{\"submitted\":1,\"rejected\":2,"),
        "{body}"
    );

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loopback_interrupted_service_resumes_byte_identically() {
    let dir = temp_dir("resume");
    let config = ServiceConfig {
        data_dir: dir.clone(),
        workers: 1,
        // Slow the grid down so cancellation reliably lands mid-job.
        throttle_ms: 30,
        ..ServiceConfig::default()
    };
    let server = TestServer::start(config.clone());
    let (status, receipt) = post(
        &server.addr,
        "/jobs",
        "alice",
        "{\"builtin\":\"simthm_smoke\",\"telemetry\":false}",
    );
    assert_eq!(status, 201, "{receipt}");
    // Give the worker time to start and commit at least one point,
    // then shut the service down mid-grid.
    std::thread::sleep(std::time::Duration::from_millis(80));
    server.stop();

    let partial = std::fs::read_to_string(dir.join("job_1.records.jsonl")).unwrap_or_default();
    let partial_lines = partial.lines().count();
    assert!(
        partial_lines < 4,
        "shutdown landed mid-grid ({partial_lines} lines)"
    );

    // Restart on the same data dir: the job is re-enqueued and finishes.
    let server = TestServer::start(config);
    let done = wait_terminal(&server.addr, 1);
    assert!(done.contains("\"state\":\"completed\""), "{done}");
    let (_, streamed) = get(&server.addr, "/jobs/1/records");
    let direct = run_campaign(
        &builtin("simthm_smoke").expect("builtin"),
        &RunOptions::default(),
    )
    .expect("runs")
    .deterministic_jsonl();
    assert_eq!(
        streamed, direct,
        "resumed-and-streamed records are byte-identical to a direct run"
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loopback_telemetry_archives_are_served_byte_exactly() {
    let dir = temp_dir("telemetry");
    let server = TestServer::start(ServiceConfig {
        data_dir: dir.clone(),
        ..ServiceConfig::default()
    });
    let (status, receipt) = post(
        &server.addr,
        "/jobs",
        "alice",
        "{\"builtin\":\"telemetry_smoke\",\"telemetry\":true}",
    );
    assert_eq!(status, 201, "{receipt}");
    wait_terminal(&server.addr, 1);

    let (status, single) = get(&server.addr, "/jobs/1/telemetry/0");
    assert_eq!(status, 200);
    let on_disk =
        std::fs::read_to_string(dir.join("job_1.telemetry").join("point_0.telemetry.jsonl"))
            .expect("archive exists");
    assert_eq!(single, on_disk, "single archive is byte-exact");

    let (status, all) = get(&server.addr, "/jobs/1/telemetry");
    assert_eq!(status, 200);
    let second =
        std::fs::read_to_string(dir.join("job_1.telemetry").join("point_1.telemetry.jsonl"))
            .expect("archive exists");
    assert_eq!(all, format!("{on_disk}{second}"), "concatenated in order");

    // A large archive must arrive as many bounded chunks, never one
    // file-sized buffer. Plant an oversized archive next to the real
    // ones (the endpoints serve committed bytes verbatim), then check
    // the chunk framing: every chunk is at most the 64 KiB read window,
    // and the file is big enough that several windows are required.
    let line = "{\"round\":1,\"messages\":4,\"bits\":64,\"dropped\":0,\"corrupted\":0,\
                \"crashes\":0,\"quiescent\":0,\"util\":[0,4,0,0,0],\"split\":[64,0,0]}\n";
    let big: String = line.repeat(2500); // ~330 KiB, > 5 read windows
    std::fs::write(
        dir.join("job_1.telemetry").join("point_7.telemetry.jsonl"),
        &big,
    )
    .expect("plant archive");
    let (status, sizes, body) = get_chunk_profile(&server.addr, "/jobs/1/telemetry/7");
    assert_eq!(status, 200);
    assert_eq!(body, big, "streamed bytes equal the file");
    assert!(
        sizes.len() >= 5,
        "a {}-byte archive must take several chunks, got {:?}",
        big.len(),
        sizes
    );
    assert!(
        sizes.iter().all(|&s| s <= 64 * 1024),
        "every chunk fits the bounded read window, got {sizes:?}"
    );

    // Telemetry of a job submitted without it is a structured 404.
    let (status, receipt) = post(
        &server.addr,
        "/jobs",
        "alice",
        "{\"builtin\":\"simthm_smoke\"}",
    );
    assert_eq!(status, 201, "{receipt}");
    wait_terminal(&server.addr, 2);
    let (status, no_telemetry) = get(&server.addr, "/jobs/2/telemetry");
    assert_eq!(status, 404, "{no_telemetry}");

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loopback_requests_are_served_on_arrival() {
    let dir = temp_dir("arrival");
    let server = TestServer::start(ServiceConfig {
        data_dir: dir.clone(),
        ..ServiceConfig::default()
    });
    // Every round trip is a fresh connection, so any wait before the
    // accept is paid 20 times over.
    let started = Instant::now();
    for _ in 0..20 {
        let (status, body) = get(&server.addr, "/status");
        assert_eq!(status, 200, "{body}");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(150),
        "20 sequential /status round trips took {elapsed:?}"
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loopback_idle_wildcard_server_stops_promptly_on_cancel() {
    let dir = temp_dir("wildcard");
    let (server, warnings) = TestServer::start_on(
        "0.0.0.0:0",
        ServiceConfig {
            data_dir: dir.clone(),
            ..ServiceConfig::default()
        },
    );
    assert!(warnings.is_empty(), "clean data dir");
    // Let the accept loop block with nothing to serve: the shutdown
    // wake-up must find it through the unspecified address.
    std::thread::sleep(Duration::from_millis(100));
    server.stop_within(Duration::from_secs(2));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The startup-scan fixture of `scan.rs`: job 1 has a complete journal,
/// job 2 half a journal and a torn tail, job 3 none, job 4 a foreign
/// journal and job 5 one record more than its grid, so the scan skips
/// jobs 4 and 5.
fn write_scan_fixture(dir: &Path) {
    let spec = builtin("simthm_smoke").expect("builtin");
    let jsonl = run_campaign(&spec, &RunOptions::default())
        .expect("runs")
        .deterministic_jsonl();
    for (id, client) in [(1, "a"), (2, "b"), (3, "c"), (4, "d"), (5, "e")] {
        std::fs::write(
            dir.join(format!("job_{id}.json")),
            job_doc_json(id, client, false, &spec),
        )
        .expect("write doc");
    }
    std::fs::write(dir.join("job_1.records.jsonl"), &jsonl).expect("write");
    let two_lines: String = jsonl.lines().take(2).map(|l| format!("{l}\n")).collect();
    std::fs::write(
        dir.join("job_2.records.jsonl"),
        format!("{two_lines}{{\"torn"),
    )
    .expect("write");
    std::fs::write(
        dir.join("job_4.records.jsonl"),
        jsonl.replace("simthm_smoke", "someone_elses"),
    )
    .expect("write");
    let last = jsonl.lines().last().expect("line");
    let over_long = format!("{jsonl}{}\n", last.replace("\"point\":3", "\"point\":4"));
    std::fs::write(dir.join("job_5.records.jsonl"), over_long).expect("write");
}

#[test]
fn loopback_never_reuses_a_skipped_jobs_id() {
    let dir = temp_dir("skipped");
    write_scan_fixture(&dir);
    let skipped = [
        "job_4.json",
        "job_4.records.jsonl",
        "job_5.json",
        "job_5.records.jsonl",
    ];
    let before: Vec<Vec<u8>> = skipped
        .iter()
        .map(|name| std::fs::read(dir.join(name)).expect("fixture file"))
        .collect();

    let (server, warnings) = TestServer::start_on(
        "127.0.0.1:0",
        ServiceConfig {
            data_dir: dir.clone(),
            ..ServiceConfig::default()
        },
    );
    assert_eq!(warnings.len(), 2, "jobs 4 and 5 are skipped: {warnings:?}");
    let (status, receipt) = post(
        &server.addr,
        "/jobs",
        "alice",
        "{\"builtin\":\"simthm_smoke\"}",
    );
    assert_eq!(status, 201, "{receipt}");
    assert!(receipt.contains("\"id\":6"), "{receipt}");

    // The new job runs on a journal of its own, and the skipped jobs'
    // files are left exactly as they were.
    let done = wait_terminal(&server.addr, 6);
    assert!(done.contains("\"state\":\"completed\""), "{done}");
    let (_, streamed) = get(&server.addr, "/jobs/6/records");
    let direct = run_campaign(
        &builtin("simthm_smoke").expect("builtin"),
        &RunOptions::default(),
    )
    .expect("runs")
    .deterministic_jsonl();
    assert_eq!(streamed, direct);
    server.stop();
    for (name, bytes) in skipped.iter().zip(&before) {
        let after = std::fs::read(dir.join(name)).expect("still there");
        assert!(&after == bytes, "{name} changed");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
