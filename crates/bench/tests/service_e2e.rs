//! End-to-end tests over the real binaries: `campaign serve` spawned as
//! a child process, killed with real signals, and restarted — plus the
//! `campaign verify` exit-code contract and the `profile -` stdin path.
//!
//! The SIGKILL test is the service's headline durability claim: a
//! process killed without warning mid-job leaves a journal that is a
//! clean record-boundary prefix, and a restart on the same data dir
//! resumes it to bytes identical to an uninterrupted in-process run.

use qdc_harness::{builtin, journal, run_campaign, RunOptions};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qdc_e2e_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// A `campaign serve` child plus the address it printed.
struct ServeChild {
    child: Child,
    addr: String,
}

fn spawn_serve(data_dir: &Path, extra: &[&str]) -> ServeChild {
    let mut child = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .arg("serve")
        .args(["--addr", "127.0.0.1:0"])
        .args(["--data-dir", data_dir.to_str().expect("utf8 path")])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn campaign serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read the listening line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
        .to_string();
    ServeChild { child, addr }
}

fn http(addr: &str, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read");
    let text = String::from_utf8(response).expect("utf8");
    let (head, body) = text.split_once("\r\n\r\n").expect("head/body");
    let status = head
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
        let (size_line, rest) = body.split_once("\r\n").expect("chunk size");
        let size = usize::from_str_radix(size_line.trim(), 16).expect("hex size");
        if size == 0 {
            return out;
        }
        out.push_str(&rest[..size]);
        body = rest[size..].strip_prefix("\r\n").expect("chunk end");
    }
}

fn post_job(addr: &str, body: &str) -> (u16, String) {
    http(
        addr,
        &format!(
            "POST /jobs HTTP/1.1\r\nHost: t\r\nx-qdc-client: e2e\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn wait_completed(addr: &str, id: u64) {
    for _ in 0..600 {
        let (status, body) = http(addr, &format!("GET /jobs/{id} HTTP/1.1\r\nHost: t\r\n\r\n"));
        assert_eq!(status, 200, "{body}");
        if body.contains("\"state\":\"completed\"") {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("job {id} never completed");
}

#[test]
fn e2e_sigkill_midjob_then_restart_resumes_byte_identically() {
    let dir = temp_dir("sigkill");
    // Throttle so the kill reliably lands mid-grid.
    let mut serve = spawn_serve(&dir, &["--workers", "1", "--throttle-ms", "60"]);
    let (status, receipt) = post_job(&serve.addr, "{\"builtin\":\"simthm_smoke\"}");
    assert_eq!(status, 201, "{receipt}");

    // Wait for the first committed line, then SIGKILL — no drain, no
    // flush, the hard way down.
    let journal_path = dir.join("job_1.records.jsonl");
    for _ in 0..200 {
        if std::fs::read_to_string(&journal_path)
            .map(|t| t.lines().count() >= 1)
            .unwrap_or(false)
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    serve.child.kill().expect("SIGKILL");
    serve.child.wait().expect("reaped");

    // The journal is a clean record-boundary prefix even after SIGKILL.
    let partial = std::fs::read_to_string(&journal_path).expect("journal exists");
    let partial_lines = partial.lines().count();
    assert!(
        (1..4).contains(&partial_lines),
        "kill landed mid-grid ({partial_lines} of 4 lines)"
    );
    assert!(partial.ends_with('\n'), "prefix ends on a record boundary");
    let recovery = journal::recover(&partial, "simthm_smoke").expect("own journal");
    assert_eq!(
        (recovery.entries.len(), recovery.truncated_bytes),
        (partial_lines, 0),
        "journal after SIGKILL should be clean"
    );

    // Restart on the same data dir: the scan re-enqueues job 1 and a
    // worker finishes the missing tail.
    let mut serve = spawn_serve(&dir, &["--workers", "1"]);
    wait_completed(&serve.addr, 1);
    let (status, streamed) = http(
        &serve.addr,
        "GET /jobs/1/records HTTP/1.1\r\nHost: t\r\n\r\n",
    );
    assert_eq!(status, 200);
    let direct = run_campaign(
        &builtin("simthm_smoke").expect("builtin"),
        &RunOptions::default(),
    )
    .expect("runs")
    .deterministic_jsonl();
    assert_eq!(
        streamed, direct,
        "post-SIGKILL resumed stream is byte-identical to a direct run"
    );

    serve.child.kill().expect("cleanup kill");
    serve.child.wait().expect("reaped");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn e2e_sigterm_drains_and_exits_130() {
    let dir = temp_dir("sigterm");
    let mut serve = spawn_serve(&dir, &["--workers", "1", "--throttle-ms", "40"]);
    let (status, receipt) = post_job(&serve.addr, "{\"builtin\":\"simthm_smoke\"}");
    assert_eq!(status, 201, "{receipt}");
    std::thread::sleep(Duration::from_millis(60));

    let term = Command::new("kill")
        .args(["-TERM", &serve.child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let exit = serve.child.wait().expect("reaped");
    assert_eq!(exit.code(), Some(130), "graceful interrupt exits 130");

    // Whatever the drain committed is a clean prefix on disk.
    let journal = std::fs::read_to_string(dir.join("job_1.records.jsonl")).unwrap_or_default();
    let recovery = journal::recover(&journal, "simthm_smoke").expect("own journal");
    assert_eq!(recovery.truncated_bytes, 0, "drained journal is clean");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn e2e_campaign_verify_exit_codes() {
    let dir = temp_dir("verify");
    let direct = run_campaign(
        &builtin("simthm_smoke").expect("builtin"),
        &RunOptions::default(),
    )
    .expect("runs")
    .deterministic_jsonl();

    let clean = dir.join("clean.jsonl");
    std::fs::write(&clean, &direct).expect("write");
    let torn = dir.join("torn.jsonl");
    std::fs::write(&torn, format!("{direct}{{\"torn")).expect("write");
    let garbage = dir.join("garbage.jsonl");
    std::fs::write(&garbage, "not a journal\n").expect("write");

    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_campaign"))
            .arg("verify")
            .args(args)
            .output()
            .expect("run campaign verify")
    };

    let out = run(&[clean.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("clean"));

    let out = run(&[torn.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(0), "recoverable is still usable");
    assert!(String::from_utf8_lossy(&out.stdout).contains("recoverable"));

    // The same file against the wrong campaign is foreign: exit 5.
    let out = run(&[
        clean.to_str().expect("utf8"),
        "--campaign",
        "other_campaign",
    ]);
    assert_eq!(out.status.code(), Some(5));

    let out = run(&[garbage.to_str().expect("utf8")]);
    assert_eq!(
        out.status.code(),
        Some(5),
        "unclassifiable garbage is foreign"
    );

    let out = run(&[dir.join("missing.jsonl").to_str().expect("utf8")]);
    assert_eq!(
        out.status.code(),
        Some(4),
        "unreadable file is an I/O error"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn e2e_profile_reads_stdin_identically_to_a_file() {
    let dir = temp_dir("profile_stdin");
    // Produce a real telemetry archive through the campaign binary.
    let status = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["telemetry_smoke", "--deterministic"])
        .args(["--out", dir.join("r.jsonl").to_str().expect("utf8")])
        .args(["--summary", dir.join("s.json").to_str().expect("utf8")])
        .args(["--telemetry-dir", dir.join("t").to_str().expect("utf8")])
        .stdout(Stdio::null())
        .status()
        .expect("run campaign");
    assert!(status.success());
    let archive = dir.join("t").join("point_0.telemetry.jsonl");

    let from_file = Command::new(env!("CARGO_BIN_EXE_profile"))
        .arg(&archive)
        .output()
        .expect("profile <file>");
    assert!(from_file.status.success());

    let mut piped = Command::new(env!("CARGO_BIN_EXE_profile"))
        .arg("-")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("profile -");
    piped
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(&std::fs::read(&archive).expect("archive bytes"))
        .expect("feed stdin");
    let piped = piped.wait_with_output().expect("reaped");
    assert!(piped.status.success());

    // Identical tables, modulo the path in the header line.
    let file_text = String::from_utf8(from_file.stdout).expect("utf8");
    let pipe_text = String::from_utf8(piped.stdout).expect("utf8");
    let tail = |s: &str| {
        s.split_once('\n')
            .map(|(_, t)| t.to_string())
            .expect("body")
    };
    assert_eq!(tail(&file_text), tail(&pipe_text));
    assert!(pipe_text.starts_with("profile `-`:"), "{pipe_text}");

    let _ = std::fs::remove_dir_all(&dir);
}
