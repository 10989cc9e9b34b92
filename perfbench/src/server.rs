//! Starting, observing and killing the real `gf-serve` binary.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running `gf-serve` process. Dropping it kills the process (SIGKILL)
/// and reaps it, so no server outlives the benchmark's error paths.
pub struct ServerProc {
    child: Child,
    /// Address it listens on.
    pub addr: SocketAddr,
    /// Drains the server's stdout after the listening line.
    drain: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Starts `bin args…` (stderr to `log`) and waits for its
    /// `listening on http://ADDR` line. Returns the process and the time
    /// from spawn to that line.
    pub fn start(
        bin: &Path,
        args: &[String],
        log: &Path,
        timeout: Duration,
    ) -> io::Result<(ServerProc, Duration)> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(std::fs::File::create(log)?)
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.split("listening on http://").nth(1) {
                    let _ = tx.send(rest.split_whitespace().next().unwrap_or("").to_string());
                }
            }
        });
        let mut proc = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            drain: Some(drain),
        };
        let addr = rx.recv_timeout(timeout).map_err(|_| {
            io::Error::new(
                io::ErrorKind::TimedOut,
                format!("gf-serve did not report listening (see {})", log.display()),
            )
        })?;
        let elapsed = started.elapsed();
        proc.addr = addr.parse().map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad address {addr:?}"))
        })?;
        Ok((proc, elapsed))
    }

    /// Peak resident set (`VmHWM`) so far, in MB.
    pub fn rss_peak_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM line"))
    }

    /// Sends SIGKILL and waits until the process has ended.
    pub fn kill9(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Copies the flat data directory `from` (checkpoints and WAL segments)
/// into a fresh directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Total bytes of the files in a flat directory whose names start with
/// `prefix`.
pub fn dir_bytes(dir: &Path, prefix: &str) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().starts_with(prefix) {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}
