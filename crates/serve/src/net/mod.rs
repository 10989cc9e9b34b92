//! The serving transport layer: one [`Server`] facade over two
//! interchangeable transports.
//!
//! * `epoll` — the default on Linux: a fixed worker pool driven by
//!   `epoll_wait` (via the `gf-netpoll` crate), nonblocking accept,
//!   per-connection state machines and write-side backpressure. Scales
//!   to tens of thousands of persistent keep-alive connections on a
//!   handful of threads.
//! * `blocking` — the portable fallback (`--net blocking`, and every
//!   non-Linux platform): thread-per-connection on plain `std::net`,
//!   hardened with socket deadlines and a concurrency cap.
//!
//! Both transports share the `conn` state machine and `parser`, and
//! both dispatch into the same [`crate::http::route_full`] — so routing,
//! golden, property and crash tests apply to either transport unchanged,
//! and the two cannot disagree about protocol behavior.

pub(crate) mod blocking;
pub(crate) mod conn;
pub(crate) mod epoll;
pub(crate) mod parser;

use crate::state::ServeState;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which transport moves the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetMode {
    /// Event-driven readiness loop (Linux only).
    Epoll,
    /// Portable thread-per-connection fallback.
    Blocking,
}

impl NetMode {
    /// Parses a `--net` flag value.
    pub fn parse(text: &str) -> Option<NetMode> {
        match text {
            "epoll" => Some(NetMode::Epoll),
            "blocking" => Some(NetMode::Blocking),
            _ => None,
        }
    }

    /// Epoll where the kernel offers it, blocking elsewhere.
    pub fn default_for_platform() -> NetMode {
        if gf_netpoll::supported() {
            NetMode::Epoll
        } else {
            NetMode::Blocking
        }
    }

    /// The flag spelling, for logs and `/v1/stats`-adjacent output.
    pub fn as_str(self) -> &'static str {
        match self {
            NetMode::Epoll => "epoll",
            NetMode::Blocking => "blocking",
        }
    }
}

/// Transport tuning; every field has a production-safe default.
#[derive(Debug, Clone)]
pub struct NetOptions {
    /// Transport selection (`--net`).
    pub mode: NetMode,
    /// Idle/stall deadline per connection (`--conn-timeout-ms`;
    /// `None` disables). Blocking path: socket read/write timeouts.
    /// Epoll path: timer-wheel idle deadline.
    pub conn_timeout: Option<Duration>,
    /// Cap on concurrent handler threads in the blocking transport
    /// (`--max-conn-threads`).
    pub max_conn_threads: usize,
    /// Epoll worker threads (`--net-workers`; 0 = one per core).
    pub workers: usize,
}

impl Default for NetOptions {
    fn default() -> NetOptions {
        NetOptions {
            mode: NetMode::default_for_platform(),
            conn_timeout: Some(Duration::from_millis(30_000)),
            max_conn_threads: 1024,
            workers: 0,
        }
    }
}

/// The serving process: a TCP listener, the shared state, the transport
/// configuration and the background refresh worker.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
    net: NetOptions,
}

/// What the transport spawned; consumed by [`ServerHandle::stop`].
enum Transport {
    Blocking {
        accept_thread: Option<std::thread::JoinHandle<()>>,
    },
    Epoll {
        workers: Vec<std::thread::JoinHandle<()>>,
        shared: Vec<Arc<epoll::WorkerShared>>,
        offload: Option<epoll::OffloadPool>,
    },
}

/// Handle to a server running on background threads (used by tests and
/// embedders; the binary calls [`Server::run`] instead).
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServeState>,
    stop: Arc<AtomicBool>,
    transport: Transport,
    refresh_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared serving state (for white-box assertions in tests).
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Stops accepting, drains the refresh worker and joins the
    /// transport threads.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        match &mut self.transport {
            Transport::Blocking { accept_thread } => {
                // Unblock a parked accept with a wake-up connection.
                let _ = TcpStream::connect(self.addr);
                if let Some(t) = accept_thread.take() {
                    let _ = t.join();
                }
            }
            Transport::Epoll {
                workers,
                shared,
                offload,
            } => {
                for s in shared.iter() {
                    s.wake();
                }
                for t in workers.drain(..) {
                    let _ = t.join();
                }
                if let Some(pool) = offload.take() {
                    pool.stop();
                }
            }
        }
        self.state.shutdown();
        if let Some(t) = self.refresh_thread.take() {
            let _ = t.join();
        }
    }
}

impl Server {
    /// Binds to `addr` (use port 0 to let the OS pick a free port) with
    /// default transport options.
    pub fn bind(addr: impl ToSocketAddrs, state: Arc<ServeState>) -> std::io::Result<Server> {
        Server::bind_with(addr, state, NetOptions::default())
    }

    /// Binds with explicit transport options. Requesting
    /// [`NetMode::Epoll`] on a platform without epoll is refused here,
    /// at startup, rather than failing at the first connection.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        state: Arc<ServeState>,
        net: NetOptions,
    ) -> std::io::Result<Server> {
        if net.mode == NetMode::Epoll && !gf_netpoll::supported() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "the epoll transport is unavailable on this platform; use --net blocking",
            ));
        }
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            state,
            net,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the transport on the calling thread's lifetime (the worker
    /// threads are joined, so this never returns in normal operation),
    /// spawning the background refresh worker.
    pub fn run(self) -> std::io::Result<()> {
        let handle = self.spawn()?;
        match handle.transport {
            Transport::Blocking { accept_thread } => {
                if let Some(t) = accept_thread {
                    let _ = t.join();
                }
            }
            Transport::Epoll { workers, .. } => {
                for t in workers {
                    let _ = t.join();
                }
            }
        }
        Ok(())
    }

    /// Starts the transport and refresh worker on background threads,
    /// returning a handle to stop them. Used by tests and benches.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let refresh_thread = {
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || state.run_refresh_worker())
        };
        let transport = match self.net.mode {
            NetMode::Blocking => {
                let gate = Arc::new(blocking::Gate::new(self.net.max_conn_threads));
                let state = Arc::clone(&self.state);
                let timeout = self.net.conn_timeout;
                let stop_flag = Arc::clone(&stop);
                let listener = self.listener;
                let accept_thread = std::thread::spawn(move || {
                    blocking::run_accept_loop(listener, state, timeout, gate, stop_flag);
                });
                Transport::Blocking {
                    accept_thread: Some(accept_thread),
                }
            }
            NetMode::Epoll => {
                let workers = resolve_workers(self.net.workers);
                let offload = epoll::OffloadPool::spawn(workers.max(2), Arc::clone(&self.state));
                let shared: Vec<Arc<epoll::WorkerShared>> = (0..workers)
                    .map(|_| epoll::WorkerShared::new().map(Arc::new))
                    .collect::<std::io::Result<_>>()?;
                let mut listener = Some(self.listener);
                let threads = shared
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        let worker = epoll::Worker::new(
                            Arc::clone(s),
                            shared.clone(),
                            if i == 0 { listener.take() } else { None },
                            Arc::clone(&self.state),
                            Some(offload.handle()),
                            self.net.conn_timeout,
                            Arc::clone(&stop),
                        )?;
                        Ok(std::thread::spawn(move || worker.run()))
                    })
                    .collect::<std::io::Result<Vec<_>>>()?;
                Transport::Epoll {
                    workers: threads,
                    shared,
                    offload: Some(offload),
                }
            }
        };
        Ok(ServerHandle {
            addr,
            state: self.state,
            stop,
            transport,
            refresh_thread: Some(refresh_thread),
        })
    }
}

/// `0` means one readiness worker per available core (capped: readiness
/// loops beyond the core count only add context switches).
fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}
