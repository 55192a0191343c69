//! A deliberately small HTTP/1.1 subset: enough for the eval service and
//! its clients (the load generator and the socket tests), nothing more.
//!
//! Supported: request line + headers + `Content-Length` bodies,
//! keep-alive (the HTTP/1.1 default) and `Connection: close`, and
//! responses with a fixed header set. Not supported: chunked encoding,
//! trailers, pipelining beyond one in-flight request per connection,
//! TLS. Limits guard the parser: oversized request heads or bodies are
//! rejected before buffering them. [`Client`] reads responses through
//! the same bounded head and body readers.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body; kernels are text, so this is generous.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Upper bound on a response body [`Client`] accepts: a guard against a
/// garbage `Content-Length`, far above any reply the service sends.
const MAX_REPLY_BYTES: usize = 64 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Request method, uppercased (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path (query string included, if any).
    pub path: String,
    /// Headers as `(lowercased-name, value)` pairs.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header (name compared case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }

    /// Whether the client asked to close the connection after this
    /// exchange. `Connection` is a comma-separated token list (RFC 9110
    /// §7.6.1), so `close` must be matched as a token — clients send
    /// values like `keep-alive, close` or `close, TE`.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.split(',').any(|token| token.trim().eq_ignore_ascii_case("close")))
    }
}

/// Why reading a request failed.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection before sending a request.
    Eof,
    /// The read timed out (the stream has a read timeout configured).
    TimedOut,
    /// The bytes were not a parseable HTTP request.
    Malformed(String),
    /// Request head or body exceeded the configured limits.
    TooLarge(&'static str),
    /// Underlying transport error.
    Io(io::Error),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Eof => write!(f, "connection closed"),
            ReadError::TimedOut => write!(f, "read timed out"),
            ReadError::Malformed(m) => write!(f, "malformed request: {m}"),
            ReadError::TooLarge(what) => write!(f, "{what} too large"),
            ReadError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

/// Reads one request from a buffered stream.
///
/// A read timeout on the underlying socket surfaces as
/// [`ReadError::TimedOut`] — the server's connection loop uses that as
/// its shutdown poll point.
pub fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Request, ReadError> {
    let head = read_head(reader, "request head")?;
    let mut lines = head.lines();
    let request_line = lines.next().ok_or_else(|| ReadError::Malformed("empty head".into()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("missing method".into()))?
        .to_ascii_uppercase();
    let path = parts.next().ok_or_else(|| ReadError::Malformed("missing path".into()))?.to_string();
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!("unsupported version {version}")));
    }
    let headers = parse_headers(lines)?;
    let body = read_body(reader, &headers, MAX_BODY_BYTES, "request body")?;
    Ok(Request { method, path, headers, body })
}

/// Reads one message head (start line and headers, up to the blank
/// line) as text, one line per `\n`.
fn read_head(reader: &mut BufReader<TcpStream>, what: &'static str) -> Result<String, ReadError> {
    let mut head = Vec::new();
    // Read byte-wise until the blank line; BufReader makes this cheap,
    // and it never over-reads into the body.
    loop {
        let mut line = Vec::new();
        match read_line(reader, &mut line, MAX_HEAD_BYTES, what) {
            Ok(()) => {}
            // A timeout on an idle connection (nothing consumed yet) is
            // the server's shutdown poll point; a timeout mid-message
            // leaves the parser desynchronized, so the connection must
            // be torn down instead of re-parsed.
            Err(ReadError::TimedOut) if head.is_empty() && line.is_empty() => {
                return Err(ReadError::TimedOut)
            }
            Err(ReadError::TimedOut) => {
                return Err(ReadError::Malformed("stalled mid-request".into()))
            }
            Err(e) => return Err(e),
        }
        if head.is_empty() && line.is_empty() {
            return Err(ReadError::Eof);
        }
        if line.is_empty() || line == b"\r" {
            break;
        }
        if head.len() + line.len() > MAX_HEAD_BYTES {
            return Err(ReadError::TooLarge(what));
        }
        head.extend_from_slice(&line);
        head.push(b'\n');
    }
    String::from_utf8(head).map_err(|_| ReadError::Malformed(format!("non-utf8 {what}")))
}

/// First value of header `name` (compared case-insensitively) among
/// `(lowercased-name, value)` pairs.
fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    let name = name.to_ascii_lowercase();
    headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
}

/// Parses header lines into `(lowercased-name, value)` pairs.
fn parse_headers<'a>(
    lines: impl Iterator<Item = &'a str>,
) -> Result<Vec<(String, String)>, ReadError> {
    let mut headers = Vec::new();
    for line in lines {
        let line = line.trim_end_matches('\r');
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ReadError::Malformed(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(headers)
}

/// Reads the `Content-Length` body `headers` announce, refusing one
/// longer than `cap` before buffering it.
fn read_body(
    reader: &mut BufReader<TcpStream>,
    headers: &[(String, String)],
    cap: usize,
    what: &'static str,
) -> Result<Vec<u8>, ReadError> {
    let content_length = header(headers, "content-length")
        .map(|v| v.parse::<usize>())
        .transpose()
        .map_err(|_| ReadError::Malformed("bad content-length".into()))?
        .unwrap_or(0);
    if content_length > cap {
        return Err(ReadError::TooLarge(what));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| match io_to_read_error(e) {
        ReadError::TimedOut => ReadError::Malformed("stalled mid-body".into()),
        other => other,
    })?;
    Ok(body)
}

/// Reads one `\n`-terminated line (terminator stripped) with a length cap.
fn read_line(
    reader: &mut BufReader<TcpStream>,
    out: &mut Vec<u8>,
    cap: usize,
    what: &'static str,
) -> Result<(), ReadError> {
    loop {
        let available = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) => return Err(io_to_read_error(e)),
        };
        if available.is_empty() {
            // EOF: a partial line is malformed, a clean boundary is EOF
            // (signalled by the caller seeing an empty first line).
            return Ok(());
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(i) => {
                out.extend_from_slice(&available[..i]);
                reader.consume(i + 1);
                if out.last() == Some(&b'\r') {
                    out.pop();
                }
                return Ok(());
            }
            None => {
                out.extend_from_slice(available);
                let n = available.len();
                reader.consume(n);
                if out.len() > cap {
                    return Err(ReadError::TooLarge(what));
                }
            }
        }
    }
}

fn io_to_read_error(e: io::Error) -> ReadError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ReadError::TimedOut,
        io::ErrorKind::UnexpectedEof => ReadError::Eof,
        _ => ReadError::Io(e),
    }
}

/// An HTTP response under construction.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond the standard set.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with the given status and a JSON body.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: body.into_bytes(),
        }
    }

    /// A response with the given status and a plain-text body.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".into(), "text/plain; charset=utf-8".into())],
            body: body.into().into_bytes(),
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Serializes the response to `stream`, flushing it. `close` emits
    /// `Connection: close`; otherwise keep-alive is advertised.
    pub fn write(&self, stream: &mut TcpStream, close: bool) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason(self.status),
            self.body.len(),
            if close { "close" } else { "keep-alive" }
        );
        for (k, v) in &self.headers {
            head.push_str(k);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        // One write per response: splitting head and body into separate
        // small segments triggers Nagle + delayed-ACK stalls (~40ms per
        // round trip) on loopback keep-alive connections.
        let mut frame = head.into_bytes();
        frame.extend_from_slice(&self.body);
        stream.write_all(&frame)?;
        stream.flush()
    }
}

/// Canonical reason phrases for the status codes the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// A parsed HTTP response, as [`Client`] reads it.
#[derive(Clone, Debug)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Headers as `(lowercased-name, value)` pairs.
    pub headers: Vec<(String, String)>,
    /// The body, decoded as UTF-8 (lossily).
    pub body: String,
}

impl Reply {
    /// First value of a header (name compared case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }
}

/// One keep-alive client connection to the service: each request goes
/// out as one write with Nagle off (a head and a body in two small
/// segments stall on Nagle plus delayed ACK, see [`Response::write`]),
/// and every response is read through one [`BufReader`] kept for the
/// life of the connection, so bytes read ahead are never dropped.
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `addr` with `TCP_NODELAY` set.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { reader: BufReader::new(stream) })
    }

    /// Bounds how long [`Client::read_reply`] waits for the server.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one request, head and body in one frame, and reads its
    /// response.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> Result<Reply, ReadError> {
        let frame = format!(
            "{method} {path} HTTP/1.1\r\nHost: specrecon\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.write_frame(frame.as_bytes()).map_err(ReadError::Io)?;
        self.read_reply()
    }

    /// Writes raw bytes in one write (the tests' malformed requests).
    pub fn write_frame(&mut self, frame: &[u8]) -> io::Result<()> {
        let stream = self.reader.get_mut();
        stream.write_all(frame)?;
        stream.flush()
    }

    /// Reads one response: status line, headers and `Content-Length`
    /// body. [`ReadError::Eof`] when the server closed the connection at
    /// a response boundary.
    pub fn read_reply(&mut self) -> Result<Reply, ReadError> {
        let head = read_head(&mut self.reader, "response head")?;
        let mut lines = head.lines();
        let status_line = lines.next().unwrap_or_default();
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ReadError::Malformed(format!("bad status line {status_line:?}")))?;
        let headers = parse_headers(lines)?;
        let body = read_body(&mut self.reader, &headers, MAX_REPLY_BYTES, "response body")?;
        Ok(Reply { status, headers, body: String::from_utf8_lossy(&body).into_owned() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Round-trips a raw request string through a real socket pair.
    fn parse_raw(raw: &str) -> Result<Request, ReadError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(raw.as_bytes()).unwrap();
        drop(client);
        let (server_side, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(server_side);
        read_request(&mut reader)
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse_raw("POST /v1/eval HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/eval");
        assert_eq!(req.body, b"abcd");
        assert_eq!(req.header("host"), Some("x"));
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_get_without_body_and_connection_close() {
        let req = parse_raw("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
        assert!(req.wants_close());
    }

    #[test]
    fn connection_header_is_a_token_list() {
        // `close` anywhere in the comma-separated list means close...
        for value in ["close", "Close", " close ", "keep-alive, close", "close, TE", "te,close"] {
            let req = parse_raw(&format!("GET / HTTP/1.1\r\nConnection: {value}\r\n\r\n")).unwrap();
            assert!(req.wants_close(), "Connection: {value:?} must close");
        }
        // ...but `close` as a substring of another token does not.
        for value in ["keep-alive", "closed", "not-close", "upgrade"] {
            let req = parse_raw(&format!("GET / HTTP/1.1\r\nConnection: {value}\r\n\r\n")).unwrap();
            assert!(!req.wants_close(), "Connection: {value:?} must keep alive");
        }
    }

    #[test]
    fn empty_connection_is_eof_and_garbage_is_malformed() {
        assert!(matches!(parse_raw(""), Err(ReadError::Eof)));
        assert!(matches!(parse_raw("NOT-HTTP\r\n\r\n"), Err(ReadError::Malformed(_))));
        assert!(matches!(parse_raw("GET / HTTP/2.0\r\n\r\n"), Err(ReadError::Malformed(_))));
    }

    #[test]
    fn oversized_body_is_rejected_without_buffering() {
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(matches!(parse_raw(&raw), Err(ReadError::TooLarge(_))));
    }

    #[test]
    fn response_serialization_is_parseable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        Response::json(200, "{\"ok\":true}".into())
            .with_header("Retry-After", "1")
            .write(&mut server_side, true)
            .unwrap();
        drop(server_side);
        let mut text = String::new();
        BufReader::new(client).read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
    }
}
