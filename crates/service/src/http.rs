//! A deliberately minimal HTTP/1.1 layer — just enough for the
//! service's six endpoints, hand-rolled over [`std::io`] so the
//! workspace's no-external-dependencies discipline holds.
//!
//! Scope decisions, all in the name of smallness:
//!
//! * one request per connection, answered with `Connection: close`
//!   (the streaming endpoint holds the connection open for its body,
//!   then closes — no keep-alive state machine);
//! * requests are `method path HTTP/1.1` plus headers and an optional
//!   `Content-Length` body — no `Transfer-Encoding` on the way *in*;
//! * responses are either a fixed body with `Content-Length` or a
//!   chunked stream ([`ChunkedWriter`]) for the JSONL tail;
//! * hard limits guard both directions: oversized header blocks are a
//!   `400`, oversized bodies a `413` ([`HttpError::PayloadTooLarge`]),
//!   so a misbehaving client cannot balloon the server's memory;
//! * a head that is not UTF-8 is a `400` like any other malformed head,
//!   and so is a body that ends before its `Content-Length`.
//!
//! Everything here is testable against in-memory byte buffers; the
//! only socket code in the crate lives in [`crate::server`].

use std::io::{self, BufRead, IoSlice, Write};

/// Longest accepted request line + header block, in bytes.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Longest accepted request body, in bytes. Campaign specs are a few
/// hundred bytes; 64 KiB leaves two orders of magnitude of headroom.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// One parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// The method verb, as sent (`GET`, `POST`, …).
    pub method: String,
    /// The request path (query strings are not used by this service and
    /// are kept attached).
    pub path: String,
    /// Header name/value pairs, names lowercased, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (empty when there was no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of the named header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == want)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be served at the transport layer.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header, or framing.
    BadRequest(String),
    /// The declared body exceeds [`MAX_BODY_BYTES`].
    PayloadTooLarge {
        /// The declared `Content-Length`.
        declared: usize,
    },
    /// The underlying stream failed (including read timeouts).
    Io(io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            HttpError::PayloadTooLarge { declared } => write!(
                f,
                "payload too large: {declared} bytes declared, {MAX_BODY_BYTES} allowed"
            ),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

/// Reads one head line (request line or header), charging it against
/// the shared `MAX_HEAD_BYTES` budget **as the bytes arrive**: the read
/// itself is capped at the remaining budget, so a peer that streams an
/// endless line with no `\n` is cut off after at most `MAX_HEAD_BYTES`
/// buffered bytes instead of growing server memory without bound
/// (`read_until` alone buffers until a newline shows up). A line that
/// is not UTF-8 is a malformed head, not a transport failure. Returns
/// an empty string on clean EOF.
fn read_head_line(stream: &mut impl BufRead, head: &mut usize) -> Result<String, HttpError> {
    let budget = (MAX_HEAD_BYTES - *head) as u64;
    let mut line = Vec::new();
    // One byte past the budget distinguishes "exactly fits" from
    // "still going when the budget ran out".
    let n = io::Read::take(&mut *stream, budget + 1).read_until(b'\n', &mut line)?;
    *head += n;
    if *head > MAX_HEAD_BYTES {
        return Err(HttpError::BadRequest(format!(
            "header block exceeds {MAX_HEAD_BYTES} bytes"
        )));
    }
    String::from_utf8(line)
        .map_err(|_| HttpError::BadRequest("request head is not valid UTF-8".into()))
}

/// Reads and parses one request. `Ok(None)` means the peer closed the
/// connection cleanly before sending anything.
pub fn read_request(stream: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    let mut head = 0usize;
    let line = read_head_line(stream, &mut head)?;
    if line.is_empty() {
        return Ok(None);
    }
    let line = line.trim_end_matches(['\r', '\n']);
    let mut parts = line.split(' ');
    let (Some(method), Some(path), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequest(format!(
            "malformed request line `{line}`"
        )));
    };
    if method.is_empty() || path.is_empty() {
        return Err(HttpError::BadRequest(format!(
            "malformed request line `{line}`"
        )));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol version `{version}`"
        )));
    }
    let (method, path) = (method.to_string(), path.to_string());

    let mut headers = Vec::new();
    loop {
        let raw = read_head_line(stream, &mut head)?;
        if raw.is_empty() {
            return Err(HttpError::BadRequest("truncated header block".into()));
        }
        let raw = raw.trim_end_matches(['\r', '\n']);
        if raw.is_empty() {
            break;
        }
        let Some((name, value)) = raw.split_once(':') else {
            return Err(HttpError::BadRequest(format!("malformed header `{raw}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut body = Vec::new();
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::BadRequest(format!("malformed content-length `{v}`")))
        })
        .transpose()?;
    if let Some(declared) = content_length {
        if declared > MAX_BODY_BYTES {
            return Err(HttpError::PayloadTooLarge { declared });
        }
        body.resize(declared, 0);
        stream.read_exact(&mut body).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => {
                HttpError::BadRequest("body shorter than its content-length".into())
            }
            _ => HttpError::Io(e),
        })?;
    }
    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// The reason phrase for the status codes this service emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes a complete fixed-length JSON response and flushes it. The
/// body is sent exactly as given plus a trailing newline (every body
/// this service emits is a single JSON document; the newline makes
/// `curl | python3 -m json.tool` pipelines clean). Head and body go out
/// in one write: on an unbuffered socket every write is its own send.
pub fn write_json_response(w: &mut impl Write, status: u16, body: &str) -> io::Result<()> {
    let reason = status_text(status);
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}\n",
        body.len() + 1
    );
    w.write_all(response.as_bytes())?;
    w.flush()
}

/// Writes every byte of `bufs`, in order, with as few vectored writes as
/// the writer allows: one when it takes them all at once.
fn write_all_vectored(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> io::Result<()> {
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// An in-progress chunked response: the streaming endpoint writes the
/// headers once, then any number of byte chunks, then the terminator.
/// Each chunk is flushed immediately — a tailing client sees lines as
/// they commit, not when the response ends. The head and each chunk go
/// out in one write, the chunk's payload uncopied.
pub struct ChunkedWriter<W: Write> {
    inner: W,
}

impl<W: Write> ChunkedWriter<W> {
    /// Writes the response head and returns the chunk writer.
    pub fn begin(mut inner: W, status: u16, content_type: &str) -> io::Result<ChunkedWriter<W>> {
        let reason = status_text(status);
        let head = format!(
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
             Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        );
        inner.write_all(head.as_bytes())?;
        inner.flush()?;
        Ok(ChunkedWriter { inner })
    }

    /// Sends one chunk (skipped silently when empty: a zero-length
    /// chunk would terminate the stream).
    pub fn chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        let size = format!("{:x}\r\n", bytes.len());
        let mut bufs = [
            IoSlice::new(size.as_bytes()),
            IoSlice::new(bytes),
            IoSlice::new(b"\r\n"),
        ];
        write_all_vectored(&mut self.inner, &mut bufs)?;
        self.inner.flush()
    }

    /// Sends the terminating zero chunk.
    pub fn finish(mut self) -> io::Result<()> {
        self.inner.write_all(b"0\r\n\r\n")?;
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: impl AsRef<[u8]>) -> Result<Option<Request>, HttpError> {
        read_request(&mut Cursor::new(raw.as_ref().to_vec()))
    }

    #[test]
    fn http_parses_a_post_with_body_and_case_insensitive_headers() {
        let req = parse(
            "POST /jobs HTTP/1.1\r\nHost: x\r\nX-QDC-Client: alice\r\n\
             Content-Length: 4\r\n\r\nabcd",
        )
        .expect("parses")
        .expect("non-empty");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.header("x-qdc-client"), Some("alice"));
        assert_eq!(req.header("X-Qdc-Client"), Some("alice"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn http_get_without_length_has_an_empty_body() {
        let req = parse("GET /status HTTP/1.1\r\n\r\n")
            .expect("parses")
            .expect("non-empty");
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn http_clean_eof_is_none_not_an_error() {
        assert!(parse("").expect("clean close").is_none());
    }

    #[test]
    fn http_rejects_malformed_requests() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /x HTTP/2\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: pony\r\n\r\n",
            b"GET /x HTTP/1.1\r\nTruncated: yes",
            b"GET /jobs/\xff HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/1.1\r\nX-Name: caf\xc3\r\n\r\n",
            b"POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::BadRequest(_))),
                "should reject: {:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn http_rejects_oversized_bodies_and_heads() {
        let big = format!("POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 1 << 20);
        assert!(matches!(
            parse(&big),
            Err(HttpError::PayloadTooLarge { declared }) if declared == 1 << 20
        ));
        let huge_head = format!(
            "GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(parse(&huge_head), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn http_cuts_off_a_newline_free_line_at_the_head_budget() {
        // A peer that streams bytes forever without ever sending `\n`.
        // Before the bounded read, `read_line` would buffer this without
        // limit (and this test would never return); now the connection
        // is rejected after at most MAX_HEAD_BYTES buffered bytes.
        struct EndlessAs;
        impl io::Read for EndlessAs {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                buf.fill(b'a');
                Ok(buf.len())
            }
        }
        // …as the request line,
        let mut endless = io::BufReader::new(EndlessAs);
        assert!(matches!(
            read_request(&mut endless),
            Err(HttpError::BadRequest(_))
        ));
        // …and as a header line after a valid request line.
        let mut endless_header = io::BufReader::new(io::Read::chain(
            Cursor::new(b"GET /x HTTP/1.1\r\nX-Pad: ".to_vec()),
            EndlessAs,
        ));
        assert!(matches!(
            read_request(&mut endless_header),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn http_fixed_response_is_well_formed() {
        let mut buf = Vec::new();
        write_json_response(&mut buf, 201, "{\"ok\":true}").expect("writes");
        let text = String::from_utf8(buf).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 201 Created\r\n"), "{text}");
        assert!(text.contains("Content-Length: 12\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}\n"), "{text}");
    }

    /// Records what a response writes and counts its write calls. Each
    /// call takes at most `room` bytes, like a socket whose send buffer
    /// has that much space.
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
        room: usize,
    }

    impl CountingWriter {
        fn with_room(room: usize) -> Self {
            CountingWriter {
                bytes: Vec::new(),
                writes: 0,
                room,
            }
        }
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.writes += 1;
            let mut taken = 0;
            for buf in bufs {
                let take = buf.len().min(self.room - taken);
                self.bytes.extend_from_slice(&buf[..take]);
                taken += take;
            }
            Ok(taken)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A chunked response of two lines and a 64 KiB telemetry window.
    fn chunked_response(w: &mut CountingWriter, window: &[u8]) -> Vec<usize> {
        let mut writes = Vec::new();
        let mut chunks = ChunkedWriter::begin(&mut *w, 200, "application/jsonl").expect("head");
        for bytes in [&b"line one\n"[..], b"", b"line two\n", window] {
            chunks.chunk(bytes).expect("chunk");
            writes.push(chunks.inner.writes);
        }
        chunks.finish().expect("terminator");
        writes.push(w.writes);
        writes
    }

    #[test]
    fn http_sends_each_response_head_and_chunk_with_one_write() {
        let mut w = CountingWriter::with_room(usize::MAX);
        write_json_response(&mut w, 201, "{\"ok\":true}").expect("writes");
        assert_eq!(w.writes, 1, "head and body in one write");
        assert_eq!(
            String::from_utf8(w.bytes).expect("utf8"),
            "HTTP/1.1 201 Created\r\nContent-Type: application/json\r\n\
             Content-Length: 12\r\nConnection: close\r\n\r\n{\"ok\":true}\n"
        );

        let window = vec![b'x'; 64 * 1024];
        let mut w = CountingWriter::with_room(usize::MAX);
        // Head, first chunk, nothing for the empty one, then one write
        // per chunk and one for the terminator.
        assert_eq!(chunked_response(&mut w, &window), [2, 2, 3, 4, 5]);
        let mut expected = b"HTTP/1.1 200 OK\r\nContent-Type: application/jsonl\r\n\
            Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n\
            9\r\nline one\n\r\n9\r\nline two\n\r\n10000\r\n"
            .to_vec();
        expected.extend_from_slice(&window);
        expected.extend_from_slice(b"\r\n0\r\n\r\n");
        assert_eq!(w.bytes, expected);

        // A writer that takes 7 bytes a call gets the same bytes.
        let mut short = CountingWriter::with_room(7);
        chunked_response(&mut short, &window);
        assert_eq!(short.bytes, expected);
        let mut short = CountingWriter::with_room(7);
        write_json_response(&mut short, 404, "{}").expect("writes");
        let mut whole = CountingWriter::with_room(usize::MAX);
        write_json_response(&mut whole, 404, "{}").expect("writes");
        assert_eq!(short.bytes, whole.bytes);
    }

    #[test]
    fn http_chunked_stream_frames_and_terminates() {
        let mut buf = Vec::new();
        {
            let mut w = ChunkedWriter::begin(&mut buf, 200, "application/jsonl").expect("head");
            w.chunk(b"line one\n").expect("chunk");
            w.chunk(b"").expect("empty chunk is a no-op");
            w.chunk(b"line two\n").expect("chunk");
            w.finish().expect("terminator");
        }
        let text = String::from_utf8(buf).expect("utf8");
        assert!(text.contains("Transfer-Encoding: chunked\r\n"), "{text}");
        assert!(text.contains("9\r\nline one\n\r\n"), "{text}");
        assert!(text.contains("9\r\nline two\n\r\n"), "{text}");
        assert!(text.ends_with("0\r\n\r\n"), "{text}");
    }
}
