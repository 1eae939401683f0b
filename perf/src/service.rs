//! The `service_loopback` workload: an in-process service on an
//! ephemeral loopback port and closed-loop raw-HTTP clients.

use crate::inputs::{self, POOL};
use crate::trace::Tracer;
use crate::workloads::{Batch, Bench, Sample};
use qdc_harness::json::{self, Json};
use qdc_harness::{run_campaign, spec_to_json, CancelToken, RunOptions};
use qdc_service::{validate_job, validate_status, Server, ServiceConfig};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A served request must complete within this; a slower one fails.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// Concurrent closed-loop clients (one connection each at a time).
const CLIENTS: usize = 2;

/// A `Server` running on its own thread, stopped and joined on drop.
pub struct Loopback {
    addr: String,
    cancel: CancelToken,
    handle: Option<JoinHandle<io::Result<()>>>,
}

impl Loopback {
    /// Serves `data_dir` on `127.0.0.1:0` with one worker running one
    /// point thread, under the default quotas.
    pub fn start(data_dir: &Path) -> Result<Loopback, String> {
        let cancel = CancelToken::new();
        let config = ServiceConfig {
            data_dir: data_dir.to_path_buf(),
            workers: 1,
            job_threads: 1,
            ..ServiceConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config, cancel.clone())
            .map_err(|e| format!("service bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("service address: {e}"))?
            .to_string();
        Ok(Loopback {
            addr,
            cancel,
            handle: Some(std::thread::spawn(move || server.run())),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> &str {
        &self.addr
    }
}

impl Drop for Loopback {
    fn drop(&mut self) {
        self.cancel.cancel();
        if let Some(handle) = self.handle.take() {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("service stopped with an error: {e}"),
                Err(_) => eprintln!("service thread panicked"),
            }
        }
    }
}

/// Sends one request on a fresh connection and returns the status and
/// the (de-chunked) body.
fn request(addr: &str, head: &str, body: &str) -> Result<(u16, String), String> {
    let exchange = || -> io::Result<Vec<u8>> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
        stream
            .write_all(format!("{head}Content-Length: {}\r\n\r\n{body}", body.len()).as_bytes())?;
        let mut response = Vec::new();
        stream.read_to_end(&mut response)?;
        Ok(response)
    };
    let response = exchange().map_err(|e| format!("request failed: {e}"))?;
    let text = String::from_utf8(response).map_err(|_| "response is not UTF-8")?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or("response has no head")?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("response has no status")?;
    let body = if head.contains("Transfer-Encoding: chunked") {
        dechunk(body)?
    } else {
        body.to_string()
    };
    Ok((status, body))
}

fn dechunk(mut body: &str) -> Result<String, String> {
    let mut out = String::new();
    loop {
        let (size, rest) = body.split_once("\r\n").ok_or("torn chunk header")?;
        let size = usize::from_str_radix(size.trim(), 16).map_err(|_| "bad chunk size")?;
        if size == 0 {
            return Ok(out);
        }
        out.push_str(rest.get(..size).ok_or("torn chunk")?);
        body = rest[size..].strip_prefix("\r\n").ok_or("torn chunk end")?;
    }
}

/// Timings of one checked client cycle, in milliseconds.
#[derive(Clone, Copy, Debug)]
pub struct Cycle {
    /// `POST /jobs` until its 201 receipt.
    pub ack_ms: f64,
    /// `POST /jobs` until the last streamed record.
    pub done_ms: f64,
    /// `GET /status` alone.
    pub status_ms: f64,
}

/// One client cycle: submit `body`, long-poll the job's records and
/// compare them with `expected`, then read and validate `/status`.
pub fn cycle(
    addr: &str,
    client: &str,
    body: &str,
    expected: &str,
    tracer: &mut Tracer,
) -> Result<Cycle, String> {
    tracer.span("perf.cycle", |t| {
        let start = Instant::now();
        let head = format!("POST /jobs HTTP/1.1\r\nHost: perf\r\nx-qdc-client: {client}\r\n");
        let (status, receipt) = t.span("service.post_jobs", |_| request(addr, &head, body))?;
        let ack_ms = ms(start);
        if status != 201 {
            return Err(format!("submit answered {status}: {receipt}"));
        }
        validate_job(&receipt)?;
        let id = json::parse(&receipt)?
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("receipt has no id")?;
        let head = format!("GET /jobs/{id}/records HTTP/1.1\r\nHost: perf\r\n");
        let (status, records) = t.span("service.get_records", |_| request(addr, &head, ""))?;
        let done_ms = ms(start);
        if status != 200 || records != expected {
            return Err(format!(
                "job {id}: streamed records differ from the reference"
            ));
        }
        let start = Instant::now();
        let (status, doc) = t.span("service.get_status", |_| {
            request(addr, "GET /status HTTP/1.1\r\nHost: perf\r\n", "")
        })?;
        let status_ms = ms(start);
        if status != 200 {
            return Err(format!("status answered {status}"));
        }
        validate_status(&doc)?;
        Ok(Cycle {
            ack_ms,
            done_ms,
            status_ms,
        })
    })
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// The seeded spec pool as submission bodies, with the deterministic
/// JSONL each must stream back (computed in-process).
pub fn pool(seed: u64) -> Result<(Vec<String>, Vec<String>), String> {
    let specs = inputs::service_pool(seed);
    let bodies = specs
        .iter()
        .map(|s| Json::obj([("spec", spec_to_json(s))]).to_json())
        .collect();
    let expected = specs
        .iter()
        .map(|s| {
            run_campaign(s, &RunOptions::default())
                .map(|out| out.deterministic_jsonl())
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    Ok((bodies, expected))
}

/// `service_loopback`.
pub struct ServiceBench {
    server: Loopback,
    seed: u64,
    bodies: Vec<String>,
    expected: Vec<String>,
    /// Cycles each client has started, across runs (indexes the seeded
    /// spec sequence).
    started: [u64; CLIENTS],
}

impl ServiceBench {
    /// Builds the pool, starts the service on `dir` and runs one
    /// checked warm-up cycle.
    pub fn new(seed: u64, dir: &Path) -> Result<ServiceBench, String> {
        let (bodies, expected) = pool(seed)?;
        let server = Loopback::start(&dir.join("service"))?;
        cycle(
            server.addr(),
            "perf-warmup",
            &bodies[0],
            &expected[0],
            &mut Tracer::off(),
        )?;
        Ok(ServiceBench {
            server,
            seed,
            bodies,
            expected,
            started: [0; CLIENTS],
        })
    }
}

impl Bench for ServiceBench {
    fn run(&mut self, until: Instant, tracer: &mut Tracer) -> Batch {
        let start = Instant::now();
        let forks: Vec<Tracer> = (0..CLIENTS)
            .map(|c| tracer.fork((c as u64 + 1) << 40))
            .collect();
        let this = &*self;
        let results: Vec<(Batch, Tracer, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = forks
                .into_iter()
                .enumerate()
                .map(|(c, mut t)| {
                    let mut k = this.started[c];
                    scope.spawn(move || {
                        let client = format!("perf-{c}");
                        let mut batch = Batch::default();
                        let mut done = Sample::default();
                        while Instant::now() < until {
                            let j = (inputs::derive(this.seed, 100 + c as u64, k) % POOL as u64)
                                as usize;
                            k += 1;
                            batch.attempted += 1;
                            match cycle(
                                this.server.addr(),
                                &client,
                                &this.bodies[j],
                                &this.expected[j],
                                &mut t,
                            ) {
                                Ok(cy) => {
                                    done.ops += 1;
                                    done.latencies_ms.push(cy.done_ms);
                                }
                                Err(e) => {
                                    if batch.failed == 0 {
                                        eprintln!("{client}: {e}");
                                    }
                                    batch.failed += 1;
                                }
                            }
                        }
                        batch.samples.push(done);
                        (batch, t, k)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client threads do not panic"))
                .collect()
        });
        // The clients run side by side, so the whole run is one sample.
        // It runs no probe: its latency is mostly the server's poll
        // sleeps, which the host's speed leaves alone, so its times are
        // plain wall-clock.
        let mut whole = Sample {
            secs: start.elapsed().as_secs_f64(),
            ..Sample::default()
        };
        let mut batch = Batch::default();
        for (c, (b, t, k)) in results.into_iter().enumerate() {
            batch.attempted += b.attempted;
            batch.failed += b.failed;
            for s in b.samples {
                whole.ops += s.ops;
                whole.latencies_ms.extend(s.latencies_ms);
            }
            tracer.absorb(t);
            self.started[c] = k;
        }
        batch.samples.push(whole);
        batch
    }
}
