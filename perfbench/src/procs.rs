//! The program under test as child processes: the `maras snapshot`
//! refresh and the `maras serve` server.

use crate::corpus::QUARTER_ARG;
use crate::inproc::Chain;
use crate::load::http;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Lines};
use std::net::SocketAddr;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Where one run keeps the program and its files.
pub struct Paths {
    pub maras: PathBuf,
    pub data: PathBuf,
    pub snapshot: PathBuf,
    pub archive: PathBuf,
}

fn err(msg: String) -> std::io::Error {
    std::io::Error::other(msg)
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs, of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

/// A child whose stdout we read line by line; killed and reaped on drop
/// unless [`Watched::reap`] reaped it.
struct Watched {
    child: Child,
    lines: Lines<BufReader<ChildStdout>>,
    reaped: bool,
}

impl Watched {
    fn spawn(cmd: &mut Command) -> std::io::Result<Watched> {
        let mut child =
            cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::null()).spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        Ok(Watched { child, lines: BufReader::new(stdout).lines(), reaped: false })
    }

    fn next_line(&mut self) -> std::io::Result<String> {
        self.lines.next().unwrap_or_else(|| Err(err("child closed stdout early".into())))
    }

    /// Waits for the child to exit and reaps it with wait4(2), which
    /// hands back the child's own resource usage, not that of every
    /// child this process (or the shell it replaced) ever reaped. Returns
    /// the exit status and the child's peak RSS in MB.
    fn reap(&mut self) -> std::io::Result<(ExitStatus, f64)> {
        let pid = self.child.id() as i32;
        let mut status = 0;
        let mut usage = Rusage { times: [0; 4], maxrss: 0, rest: [0; 13] };
        loop {
            // SAFETY: `status` and `usage` are live and writable, `usage`
            // has the layout of `struct rusage` on 64-bit Linux, and `pid`
            // is our own child, which nothing else has reaped.
            if unsafe { wait4(pid, &mut status, 0, &mut usage) } == pid {
                break;
            }
            let e = std::io::Error::last_os_error();
            if e.kind() != std::io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        self.reaped = true;
        Ok((ExitStatus::from_raw(status), usage.maxrss as f64 * 1024.0 / 1e6))
    }
}

impl Drop for Watched {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn refresh_command(paths: &Paths, out: &Path, evidence: &Path) -> Command {
    let mut cmd = Command::new(&paths.maras);
    cmd.arg("snapshot")
        .arg("--dir")
        .arg(&paths.data)
        .args(["--quarter", QUARTER_ARG, "--out"])
        .arg(out)
        .arg("--evidence")
        .arg(evidence);
    cmd
}

/// One `maras snapshot` run from raw files to snapshot plus archive.
pub struct Refresh {
    /// Spawn to exit 0.
    pub wall: Duration,
    /// Spawn to the first stdout line: the quarter and vocabularies are
    /// ingested.
    pub setup: Duration,
    /// Clusters the CLI reported writing.
    pub clusters: usize,
    /// The child's own peak RSS, in MB.
    pub peak_rss_mb: f64,
}

/// Runs the refresh to completion.
pub fn refresh(paths: &Paths) -> std::io::Result<Refresh> {
    let start = Instant::now();
    let mut child = Watched::spawn(&mut refresh_command(paths, &paths.snapshot, &paths.archive))?;
    child.next_line()?;
    let setup = start.elapsed();
    let mut clusters = None;
    for line in child.lines.by_ref() {
        let line = line?;
        // "wrote FILE (format vN, C clusters from R reports)"
        if let Some(rest) = line.split_once("(format v").map(|(_, r)| r) {
            clusters = rest
                .split(", ")
                .nth(1)
                .and_then(|s| s.split(' ').next())
                .and_then(|n| n.parse().ok());
        }
    }
    let (status, peak_rss_mb) = child.reap()?;
    let wall = start.elapsed();
    if !status.success() {
        return Err(err(format!("maras snapshot exited with {status}")));
    }
    let clusters =
        clusters.ok_or_else(|| err("maras snapshot did not report a cluster count".into()))?;
    Ok(Refresh { wall, setup, clusters, peak_rss_mb })
}

/// Runs the in-process refresh in a child copy of this benchmark
/// (`perfbench --chain`), writing `snapshot` and `archive`.
pub fn chain(paths: &Paths, snapshot: &Path, archive: &Path) -> std::io::Result<Chain> {
    let out = Command::new(std::env::current_exe()?)
        .arg("--chain")
        .args([paths.data.as_path(), snapshot, archive])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    if !out.status.success() {
        return Err(err(format!("perfbench --chain exited with {}", out.status)));
    }
    Chain::parse(&String::from_utf8_lossy(&out.stdout))
        .ok_or_else(|| err("perfbench --chain printed no chain".into()))
}

/// Runs a CLI check command; true on exit 0.
pub fn check(maras: &Path, args: &[&std::ffi::OsStr]) -> std::io::Result<bool> {
    Ok(Command::new(maras)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()?
        .success())
}

/// A running `maras serve` at its default settings on an ephemeral port.
pub struct Server {
    child: Watched,
    pub addr: SocketAddr,
    /// Spawn to the first `/healthz` 200.
    pub setup: Duration,
}

impl Server {
    pub fn spawn(paths: &Paths) -> std::io::Result<Server> {
        let start = Instant::now();
        let mut child = Watched::spawn(
            Command::new(&paths.maras)
                .arg("serve")
                .arg("--snapshot")
                .arg(&paths.snapshot)
                .arg("--evidence")
                .arg(&paths.archive)
                .args(["--addr", "127.0.0.1:0"]),
        )?;
        let addr = loop {
            let line = child.next_line()?;
            if let Some(rest) = line.strip_prefix("serving on http://") {
                let addr = rest.split(' ').next().unwrap_or_default();
                break addr.parse().map_err(|_| err(format!("bad address in {line:?}")))?;
            }
        };
        let give_up = start + Duration::from_secs(60);
        loop {
            if matches!(http(addr, "GET", "/healthz"), Ok((200, _))) {
                break;
            }
            if Instant::now() > give_up {
                return Err(err("server never became healthy".into()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(Server { child, addr, setup: start.elapsed() })
    }

    /// The server's peak resident set so far (VmHWM), in MB.
    pub fn peak_rss_mb(&self) -> std::io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib * 1024.0 / 1e6)
            .ok_or_else(|| err("no VmHWM in /proc status".into()))
    }

    /// CPU time the server has used so far, user plus system, over all
    /// its threads, in seconds (`utime + stime` of `/proc/<pid>/stat`).
    pub fn cpu_s(&self) -> std::io::Result<f64> {
        extern "C" {
            fn sysconf(name: i32) -> i64;
        }
        const SC_CLK_TCK: i32 = 2;
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.child.id()))?;
        // Fields after the parenthesized command name, from field 3
        // (state) on: utime and stime are fields 14 and 15.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or_default();
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
        let (utime, stime) =
            ticks(11).zip(ticks(12)).ok_or_else(|| err("no utime/stime in /proc stat".into()))?;
        // SAFETY: sysconf only reads a configuration value.
        let hz = unsafe { sysconf(SC_CLK_TCK) } as f64;
        Ok((utime + stime) / hz)
    }

    /// Every series on `/metrics`, keyed by name plus labels.
    pub fn scrape(&self) -> std::io::Result<Metrics> {
        match http(self.addr, "GET", "/metrics")? {
            (200, body) => Ok(Metrics::parse(&String::from_utf8_lossy(&body))),
            (status, _) => Err(err(format!("/metrics answered {status}"))),
        }
    }
}

/// Parsed Prometheus text: `name{labels}` → value.
#[derive(Debug, Default, Clone)]
pub struct Metrics(HashMap<String, f64>);

impl Metrics {
    pub fn parse(text: &str) -> Metrics {
        Metrics(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (k, v) = l.rsplit_once(' ')?;
                    Some((k.to_string(), v.parse().ok()?))
                })
                .collect(),
        )
    }

    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// `self - before` for one series.
    pub fn delta(&self, before: &Metrics, series: &str) -> f64 {
        self.get(series) - before.get(series)
    }

    /// `self - before`, series by series: what the interval recorded.
    pub fn since(&self, before: &Metrics) -> Metrics {
        Metrics(self.0.iter().map(|(k, v)| (k.clone(), v - before.get(k))).collect())
    }

    /// Adds another interval's deltas to these.
    pub fn add(&mut self, other: &Metrics) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_default() += v;
        }
    }

    /// Mean of a histogram, read from deltas; 0 when it recorded nothing.
    pub fn mean(&self, name: &str, labels: &str) -> f64 {
        let count = self.get(&format!("{name}_count{labels}"));
        if count > 0.0 {
            self.get(&format!("{name}_sum{labels}")) / count
        } else {
            0.0
        }
    }

    /// `hits / (hits + misses)`, read from deltas; 0 with no lookups.
    pub fn ratio(&self, hits: &str, misses: &str) -> f64 {
        let (h, m) = (self.get(hits), self.get(misses));
        if h + m > 0.0 {
            h / (h + m)
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reap(script: &str) -> (ExitStatus, f64) {
        let mut child = Watched::spawn(Command::new("sh").args(["-c", script])).unwrap();
        child.reap().unwrap()
    }

    #[test]
    fn reaping_reports_each_childs_own_peak() {
        // A shell holding a 50 MB string, then a trivial one: the second
        // must report its own small peak, not the largest child so far.
        let (status, big) = reap("x=$(head -c 50000000 /dev/zero | tr '\\0' a); exit 0");
        assert!(status.success());
        let (status, small) = reap("exit 3");
        assert_eq!(status.code(), Some(3));
        assert!(big > 50.0, "big child peaked at {big} MB");
        assert!(small < 20.0, "small child peaked at {small} MB");
    }
}
