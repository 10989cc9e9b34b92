//! The open-loop engine: requests go out on a fixed schedule whatever
//! the server does, and each is timed from when it was *due*, so a stall
//! shows up in every request it delays rather than only in the one it
//! hits.
//!
//! Two threads drive at most two keep-alive connections: the calling
//! thread sends each request at its due time without waiting for
//! replies (HTTP/1.1 pipelining), and one receiver thread multiplexes
//! the replies on a `gf_netpoll::Poller`, matching them to requests in
//! per-connection order.

use crate::http::{field_u64, frame, shape_ok, Request, Route};
use gf_netpoll::{Event, Interest, Poller};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Planned {
    /// When it is due, relative to the schedule's origin.
    pub due: Duration,
    /// Index of the connection that carries it.
    pub conn: usize,
    /// The request.
    pub req: Request,
}

/// What came back for one scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Seconds from the origin until the whole reply was read.
    pub done: f64,
    /// The `version` field, when the body has one.
    pub version: Option<u64>,
    /// The `pending` field (journal depth after a write was accepted).
    pub pending: Option<u64>,
    /// Whether the body had the shape its route promises.
    pub shape_ok: bool,
}

impl Reply {
    /// The reply to a `route` request: `status` and `body`, read in full
    /// at `done`.
    pub fn new(route: Route, status: u16, done: f64, body: &[u8]) -> Reply {
        Reply {
            status,
            done,
            version: field_u64(body, "version"),
            pending: field_u64(body, "pending"),
            shape_ok: shape_ok(route, body),
        }
    }
}

/// The outcome of a scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Route it exercised.
    pub route: Route,
    /// Connection that carried it.
    pub conn: usize,
    /// Seconds from the origin until it was due.
    pub due: f64,
    /// Seconds from the origin until it was written.
    pub sent: f64,
    /// The reply, `None` if it never came.
    pub reply: Option<Reply>,
}

impl Outcome {
    /// Whether the request succeeded: the expected status and shape.
    pub fn ok(&self) -> bool {
        self.reply
            .is_some_and(|r| r.status == self.route.expected_status() && r.shape_ok)
    }

    /// Latency from the due time, in seconds.
    pub fn latency(&self) -> Option<f64> {
        self.reply.map(|r| r.done - self.due)
    }

    /// Round trip from the actual send, in seconds.
    pub fn round_trip(&self) -> Option<f64> {
        self.reply.map(|r| r.done - self.sent)
    }
}

/// Runs `plan` (sorted by due time) over `streams`, starting the
/// schedule at `origin`. Replies still missing `grace` after the last
/// send are given up on (their outcome has no reply).
pub fn run(
    streams: &[TcpStream],
    plan: &[Planned],
    origin: Instant,
    grace: Duration,
) -> io::Result<Vec<Outcome>> {
    let wire: Vec<Vec<u8>> = plan.iter().map(|p| p.req.encode()).collect();
    let sender_done = AtomicBool::new(false);
    let (sent, replies) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| receive(streams, plan, origin, &sender_done, grace));
        let sent = send(streams, plan, &wire, origin);
        sender_done.store(true, Ordering::SeqCst);
        let replies = receiver.join().expect("receiver thread panicked");
        (sent, replies)
    });
    let sent = sent?;
    let replies = replies?;
    Ok(plan
        .iter()
        .zip(sent)
        .zip(replies)
        .map(|((p, sent), reply)| Outcome {
            route: p.req.route,
            conn: p.conn,
            due: p.due.as_secs_f64(),
            sent,
            reply,
        })
        .collect())
}

fn send(
    streams: &[TcpStream],
    plan: &[Planned],
    wire: &[Vec<u8>],
    origin: Instant,
) -> io::Result<Vec<f64>> {
    let mut sent = Vec::with_capacity(plan.len());
    for (p, bytes) in plan.iter().zip(wire) {
        let due = origin + p.due;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        sent.push(origin.elapsed().as_secs_f64());
        (&streams[p.conn]).write_all(bytes)?;
    }
    Ok(sent)
}

fn receive(
    streams: &[TcpStream],
    plan: &[Planned],
    origin: Instant,
    sender_done: &AtomicBool,
    grace: Duration,
) -> io::Result<Vec<Option<Reply>>> {
    let mut poller = Poller::new()?;
    let mut waiting: Vec<VecDeque<usize>> = vec![VecDeque::new(); streams.len()];
    for (i, p) in plan.iter().enumerate() {
        waiting[p.conn].push_back(i);
    }
    for (token, s) in streams.iter().enumerate() {
        poller.add(s, token as u64, Interest::READ)?;
    }
    let mut bufs: Vec<Vec<u8>> = vec![Vec::with_capacity(64 * 1024); streams.len()];
    let mut replies: Vec<Option<Reply>> = vec![None; plan.len()];
    let mut remaining = plan.len();
    let mut events: Vec<Event> = Vec::new();
    let mut chunk = vec![0u8; 256 * 1024];
    let mut give_up: Option<Instant> = None;
    while remaining > 0 {
        if give_up.is_none() && sender_done.load(Ordering::SeqCst) {
            give_up = Some(Instant::now() + grace);
        }
        if give_up.is_some_and(|t| Instant::now() >= t) {
            break;
        }
        poller.wait(&mut events, Some(Duration::from_millis(20)))?;
        for ev in &events {
            let conn = ev.token as usize;
            let n = match (&streams[conn]).read(&mut chunk) {
                Ok(0) => {
                    // The server closed on us: nothing more will come.
                    poller.delete(&streams[conn])?;
                    continue;
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let done = origin.elapsed().as_secs_f64();
            let buf = &mut bufs[conn];
            buf.extend_from_slice(&chunk[..n]);
            let mut at = 0usize;
            while let Some(f) = frame(&buf[at..])? {
                let body = &buf[at + f.body_start..at + f.end];
                let Some(i) = waiting[conn].pop_front() else {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "reply without a request",
                    ));
                };
                replies[i] = Some(Reply::new(plan[i].req.route, f.status, done, body));
                remaining -= 1;
                at += f.end;
            }
            buf.drain(..at);
        }
    }
    Ok(replies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn get(path: &str) -> Request {
        Request {
            route: Route::Group,
            method: "GET",
            path: path.into(),
            query: String::new(),
            body: String::new(),
        }
    }

    /// A server that answers requests in order and sleeps `stall` before
    /// answering request number `stall_at` (0-based).
    fn fake_server(
        stall_at: usize,
        stall: Duration,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let body = "{\"members_total\":1,\"top_k\":[],\"version\":7}";
            let reply = format!(
                "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            let mut answered = 0usize;
            loop {
                while let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                    buf.drain(..end + 4);
                    if answered == stall_at {
                        std::thread::sleep(stall);
                    }
                    s.write_all(reply.as_bytes()).unwrap();
                    answered += 1;
                }
                match s.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_stall_inflates_every_request_due_during_it() {
        let stall = Duration::from_millis(300);
        let (addr, server) = fake_server(2, stall);
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let plan: Vec<Planned> = (0..10)
            .map(|i| Planned {
                due: Duration::from_millis(20 * i),
                conn: 0,
                req: get("/v1/group/default/1"),
            })
            .collect();
        let out = run(
            std::slice::from_ref(&stream),
            &plan,
            Instant::now(),
            Duration::from_secs(5),
        )
        .unwrap();
        drop(stream);
        server.join().unwrap();
        assert!(out.iter().all(Outcome::ok));
        let lat: Vec<f64> = out.iter().map(|o| o.latency().unwrap()).collect();
        // Requests 0 and 1 are answered promptly.
        assert!(lat[0] < 0.1 && lat[1] < 0.1, "{lat:?}");
        // Request 2 hits the stall; requests 3.. were due while it lasted
        // and are timed from their due time, so each carries what is left
        // of the stall: ~300 ms - 20 ms per slot after request 2.
        for (i, &l) in lat.iter().enumerate().skip(2) {
            let left = 0.3 - 0.02 * (i as f64 - 2.0);
            assert!(l >= left - 0.015, "request {i}: {l} < {left}");
        }
        // Sends never waited for replies: every request left on time.
        for o in &out {
            assert!(o.sent - o.due < 0.05, "late send {o:?}");
        }
        assert_eq!(out[3].reply.unwrap().version, Some(7));
    }

    #[test]
    fn replies_match_requests_per_connection() {
        let (a_addr, a) = fake_server(usize::MAX, Duration::ZERO);
        let (b_addr, b) = fake_server(0, Duration::from_millis(100));
        let streams = [
            TcpStream::connect(a_addr).unwrap(),
            TcpStream::connect(b_addr).unwrap(),
        ];
        let plan: Vec<Planned> = (0..6)
            .map(|i| Planned {
                due: Duration::from_millis(5 * i),
                conn: (i % 2) as usize,
                req: get("/x"),
            })
            .collect();
        let out = run(&streams, &plan, Instant::now(), Duration::from_secs(5)).unwrap();
        drop(streams);
        a.join().unwrap();
        b.join().unwrap();
        // Connection 0 is never stalled; connection 1 stalls first.
        for o in &out {
            let l = o.latency().unwrap();
            if o.conn == 0 {
                assert!(l < 0.05, "{o:?}");
            } else {
                assert!(l > 0.05, "{o:?}");
            }
        }
    }
}
