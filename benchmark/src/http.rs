//! A minimal HTTP/1.1 client over one keep-alive connection: the load
//! generator of the `serve-*` workloads. It understands exactly what the
//! service emits: a status line, `Content-Length`, `Connection`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response, body included.
#[derive(Debug, PartialEq)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    /// The server announced `Connection: close`.
    pub close: bool,
}

/// Bytes read past the end of one response stay here for the next.
#[derive(Default)]
pub struct ReadBuf(Vec<u8>);

/// Reads one response from `r`, using and refilling `buf`.
pub fn read_response(r: &mut impl Read, buf: &mut ReadBuf) -> io::Result<Response> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head_end = loop {
        if let Some(at) = buf.0.windows(4).position(|w| w == b"\r\n\r\n") {
            break at + 4;
        }
        if buf.0.len() > 64 * 1024 {
            return Err(bad("response head too large"));
        }
        fill(r, buf)?;
    };
    let head = std::str::from_utf8(&buf.0[..head_end]).map_err(|_| bad("head is not utf-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = None;
    let mut close = false;
    for line in lines {
        let Some((key, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        if key.eq_ignore_ascii_case("content-length") {
            length = value.parse::<usize>().ok();
        } else if key.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or_else(|| bad("no content-length"))?;
    if length > 64 * 1024 * 1024 {
        return Err(bad("response body too large"));
    }
    while buf.0.len() < head_end + length {
        fill(r, buf)?;
    }
    let body = buf.0[head_end..head_end + length].to_vec();
    buf.0.drain(..head_end + length);
    Ok(Response { status, body, close })
}

fn fill(r: &mut impl Read, buf: &mut ReadBuf) -> io::Result<()> {
    let mut chunk = [0u8; 16 * 1024];
    match r.read(&mut chunk)? {
        0 => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-response")),
        n => {
            buf.0.extend_from_slice(&chunk[..n]);
            Ok(())
        }
    }
}

/// One request as bytes; sent with a single write so that head and body
/// leave in one segment.
pub fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// A keep-alive connection to the service.
pub struct Conn {
    stream: TcpStream,
    buf: ReadBuf,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        // A request that takes this long has failed; do not hang the run.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn { stream, buf: ReadBuf::default() })
    }

    /// Sends one request and reads its response.
    pub fn send(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        self.stream.write_all(&request_bytes(method, path, body))?;
        read_response(&mut self.stream, &mut self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hands out its bytes a few at a time, as a socket may.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.0.len().min(7).min(out.len());
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn reads_a_keep_alive_pair_then_a_close() {
        const WIRE: &[u8] =
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: keep-alive\r\n\r\nhello\
              HTTP/1.1 422 Unprocessable Entity\r\ncontent-length: 2\r\n\r\n{}\
              HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
        fn check(mut wire: impl Read) {
            let mut buf = ReadBuf::default();
            let a = read_response(&mut wire, &mut buf).unwrap();
            assert_eq!(a, Response { status: 200, body: b"hello".to_vec(), close: false });
            let b = read_response(&mut wire, &mut buf).unwrap();
            assert_eq!(b, Response { status: 422, body: b"{}".to_vec(), close: false });
            let c = read_response(&mut wire, &mut buf).unwrap();
            assert_eq!(c, Response { status: 200, body: Vec::new(), close: true });
            let end = read_response(&mut wire, &mut buf).unwrap_err();
            assert_eq!(end.kind(), io::ErrorKind::UnexpectedEof);
        }
        check(WIRE);
        check(Trickle(WIRE));
    }

    #[test]
    fn rejects_a_response_without_a_length() {
        let mut wire = &b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nbody"[..];
        let err = read_response(&mut wire, &mut ReadBuf::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn frames_a_request_with_its_length() {
        let bytes = request_bytes("POST", "/v1/eval", b"{\"a\":1}");
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("POST /v1/eval HTTP/1.1\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"a\":1}"));
    }
}
