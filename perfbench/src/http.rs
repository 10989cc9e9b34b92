//! The client half of HTTP/1.1 the benchmark needs: request encoding,
//! incremental response framing and cheap field extraction.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// The route a request exercises; metrics are kept per route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Route {
    /// `GET /v1/group/{name}/{user}`.
    Group,
    /// `GET /v1/recommend/{name}/{group}`.
    Recommend,
    /// `GET /v1/stats`.
    Stats,
    /// `POST /v1/rate`.
    Rate,
    /// `POST /v1/feedback`.
    Feedback,
}

impl Route {
    /// Every route, in report order.
    pub const ALL: [Route; 5] = [
        Route::Group,
        Route::Recommend,
        Route::Stats,
        Route::Rate,
        Route::Feedback,
    ];

    /// Name used in metric keys.
    pub fn name(self) -> &'static str {
        match self {
            Route::Group => "group",
            Route::Recommend => "recommend",
            Route::Stats => "stats",
            Route::Rate => "rate",
            Route::Feedback => "feedback",
        }
    }

    /// Whether the route journals a record (answers 202).
    pub fn is_write(self) -> bool {
        matches!(self, Route::Rate | Route::Feedback)
    }

    /// The status a correct server answers with.
    pub fn expected_status(self) -> u16 {
        if self.is_write() {
            202
        } else {
            200
        }
    }
}

/// One generated request, transport-independent: the traced run feeds
/// the same fields to `route_full` that the socket run puts on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Route it exercises.
    pub route: Route,
    /// `GET` or `POST`.
    pub method: &'static str,
    /// Path without the query string.
    pub path: String,
    /// Query string without `?` (may be empty).
    pub query: String,
    /// JSON body (empty for `GET`).
    pub body: String,
}

impl Request {
    /// The request as HTTP/1.1 wire bytes (keep-alive).
    pub fn encode(&self) -> Vec<u8> {
        let target = if self.query.is_empty() {
            self.path.clone()
        } else {
            format!("{}?{}", self.path, self.query)
        };
        let mut out = format!("{} {target} HTTP/1.1\r\nHost: bench\r\n", self.method);
        if !self.body.is_empty() {
            out.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                self.body.len()
            ));
        }
        out.push_str("\r\n");
        out.push_str(&self.body);
        out.into_bytes()
    }
}

/// One framed response: status and the byte range of its body inside
/// the buffer it was parsed from, plus the total bytes it occupied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Framed {
    /// HTTP status code.
    pub status: u16,
    /// Body start offset.
    pub body_start: usize,
    /// Body end offset (exclusive); also the bytes consumed.
    pub end: usize,
}

/// Frames the first complete response in `buf`; `Ok(None)` when more
/// bytes are needed.
pub fn frame(buf: &[u8]) -> io::Result<Option<Framed>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 response head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut length = 0usize;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                length = v.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                })?;
            }
        }
    }
    let body_start = head_end + 4;
    if buf.len() < body_start + length {
        return Ok(None);
    }
    Ok(Some(Framed {
        status,
        body_start,
        end: body_start + length,
    }))
}

/// The unsigned integer after `"key":` in a flat JSON body, if present.
pub fn field_u64(body: &[u8], key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = body.windows(pat.len()).position(|w| w == pat.as_bytes())? + pat.len();
    let digits = body[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&body[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

/// Whether a response body has the shape its route promises. Cheap
/// substring checks: the socket run validates every response inline.
pub fn shape_ok(route: Route, body: &[u8]) -> bool {
    let has = |k: &str| body.windows(k.len()).any(|w| w == k.as_bytes());
    match route {
        Route::Group => has("\"members_total\":") && has("\"top_k\":"),
        Route::Recommend => has("\"excluded_rated\":true") && has("\"items_total\":"),
        Route::Stats => has("\"quality\":") && has("\"rates_applied\":"),
        Route::Rate | Route::Feedback => has("\"accepted\":true"),
    }
}

/// A blocking keep-alive connection for closed-loop use.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects with `TCP_NODELAY` and a read timeout, so a hung server
    /// fails the run instead of stalling it.
    pub fn connect(addr: std::net::SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// The underlying stream (for the open-loop engine).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Sends one request and waits for its response; returns the status
    /// and body.
    pub fn call(&mut self, req: &Request) -> io::Result<(u16, Vec<u8>)> {
        self.stream.write_all(&req.encode())?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(f) = frame(&self.buf)? {
                let body = self.buf[f.body_start..f.end].to_vec();
                self.buf.drain(..f.end);
                return Ok((f.status, body));
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_pipelined_responses_one_at_a_time() {
        let two = b"HTTP/1.1 202 Accepted\r\nContent-Length: 2\r\n\r\n{}HTTP/1.1 200 OK\r\ncontent-length: 0\r\n\r\n";
        let f = frame(two).unwrap().unwrap();
        assert_eq!((f.status, f.body_start, f.end), (202, 44, 46));
        let g = frame(&two[f.end..]).unwrap().unwrap();
        assert_eq!((g.status, g.end), (200, two.len() - f.end));
        assert_eq!(frame(&two[..40]).unwrap(), None);
        assert_eq!(frame(&two[..45]).unwrap(), None);
    }

    #[test]
    fn extracts_flat_integer_fields() {
        let body = br#"{"accepted":true,"pending":3,"version":1027}"#;
        assert_eq!(field_u64(body, "version"), Some(1027));
        assert_eq!(field_u64(body, "pending"), Some(3));
        assert_eq!(field_u64(body, "missing"), None);
        assert!(shape_ok(Route::Rate, body));
        assert!(!shape_ok(Route::Group, body));
    }

    #[test]
    fn encodes_bodies_with_their_length() {
        let r = Request {
            route: Route::Rate,
            method: "POST",
            path: "/v1/rate".into(),
            query: String::new(),
            body: "{\"user\":1}".into(),
        };
        let wire = String::from_utf8(r.encode()).unwrap();
        assert!(wire.starts_with("POST /v1/rate HTTP/1.1\r\n"));
        assert!(wire.contains("Content-Length: 10\r\n"));
        assert!(wire.ends_with("\r\n\r\n{\"user\":1}"));
    }
}
