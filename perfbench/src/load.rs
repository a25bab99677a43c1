//! The load generator: a raw-socket HTTP client, an open loop timed from
//! each request's due time, and a closed loop.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client-side deadline for one request; a request that takes longer
/// counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// One HTTP exchange over a fresh connection (the server closes every
/// connection after its response).
pub fn http(addr: SocketAddr, method: &str, target: &str) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)?;
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let head =
        format!("{method} {target} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: 0\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    let mut raw = Vec::with_capacity(4096);
    stream.read_to_end(&mut raw)?;
    reset_on_close(&stream);
    parse_response(&raw)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response"))
}

/// Makes dropping `stream` send RST instead of FIN. The server has
/// already closed its side; answering its FIN with RST closes its socket
/// at once instead of leaving it in TIME_WAIT for a minute. At tens of
/// thousands of connections per run, TIME_WAIT sockets would fill the
/// loopback port range and slow every later `connect`, in this run and
/// the next, so one run's traffic would change the next run's numbers.
fn reset_on_close(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct Linger {
        on: i32,
        seconds: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger { on: 1, seconds: 0 };
    // SAFETY: the fd is open for as long as `stream` is borrowed, and
    // `linger` is a live `struct linger` whose exact size is passed. A
    // failure only leaves the default close, so the result is ignored.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        )
    };
}

/// Status and body of a complete `Connection: close` response; `None`
/// when the head is malformed or the body is shorter than declared.
fn parse_response(raw: &[u8]) -> Option<(u16, Vec<u8>)> {
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..split]).ok()?;
    let status = head.split(' ').nth(1)?.parse().ok()?;
    let body = &raw[split + 4..];
    let declared = head.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.eq_ignore_ascii_case("content-length").then(|| v.trim().parse::<usize>().ok())?
    });
    match declared {
        Some(n) if n != body.len() => None,
        _ => Some((status, body.to_vec())),
    }
}

/// What one open-loop read cost.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// From when it was due to when its response was complete.
    pub latency: Duration,
    /// From when it was actually sent to when it was complete.
    pub service: Duration,
    /// How late the generator sent it.
    pub late: Duration,
    pub ok: bool,
}

/// An open loop's outcome.
#[derive(Debug, Default)]
pub struct OpenRun {
    /// One per read sent, in completion order.
    pub reads: Vec<Sample>,
    /// Reads due inside the window.
    pub scheduled: usize,
    /// Reads due inside the window that the generator never sent because
    /// it fell too far behind.
    pub unsent: usize,
}

impl OpenRun {
    /// A run whose generator fell behind measured the client, not the
    /// server: it is flagged invalid instead of being counted.
    pub fn valid(&self) -> bool {
        self.unsent * 100 <= self.scheduled
    }
}

/// Sends reads `0..` at `rate` per second for `window`, from `clients`
/// threads, each with at most one connection open. Read `i` is due at
/// `start + i / rate`; a free client takes the next due read and sleeps
/// until it is due, so a stall delays the reads behind it and their
/// latency, timed from the due time, shows that. Reads still unsent
/// `grace` after the window are counted as unsent.
pub fn open_loop(
    rate: f64,
    window: Duration,
    grace: Duration,
    clients: usize,
    send: &(dyn Fn(usize) -> bool + Sync),
) -> OpenRun {
    let scheduled = (rate * window.as_secs_f64()).floor() as usize;
    let next = AtomicUsize::new(0);
    let reads = Mutex::new(Vec::with_capacity(scheduled));
    let start = Instant::now();
    let give_up = start + window + grace;
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= scheduled {
                    break;
                }
                let due = Duration::from_secs_f64(i as f64 / rate);
                let now = Instant::now();
                if now < start + due {
                    std::thread::sleep(start + due - now);
                } else if now > give_up {
                    break;
                }
                let sent = Instant::now();
                let ok = send(i);
                let done = Instant::now();
                let s = Sample {
                    latency: done - (start + due),
                    service: done - sent,
                    late: sent.saturating_duration_since(start + due),
                    ok,
                };
                reads.lock().expect("no client panics holding the lock").push(s);
            });
        }
    });
    let reads = reads.into_inner().expect("clients joined");
    OpenRun { unsent: scheduled - reads.len(), reads, scheduled }
}

/// A job the closed loop hands to the caller's `send`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// The `i`-th read of the phase.
    Read(usize),
    /// One `POST /reload`.
    Reload,
}

/// A closed loop's outcome.
#[derive(Debug, Default)]
pub struct ClosedRun {
    pub ok: usize,
    pub failed: usize,
    /// Round trip and success of each reload.
    pub reloads: Vec<(Duration, bool)>,
    /// From the start to the last completion.
    pub elapsed: Duration,
}

/// `clients` threads each send read after read, the next as soon as the
/// previous completes, until `window` has passed. At each offset in
/// `reload_marks` the first client to come free sends one reload instead.
pub fn closed_loop(
    window: Duration,
    clients: usize,
    reload_marks: &[Duration],
    send: &(dyn Fn(Job) -> bool + Sync),
) -> ClosedRun {
    let next = AtomicUsize::new(0);
    let reloads_sent = AtomicUsize::new(0);
    let out = Mutex::new(ClosedRun::default());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            scope.spawn(|| {
                let (mut ok, mut failed) = (0, 0);
                let mut reloads = Vec::new();
                while start.elapsed() < window {
                    let k = reloads_sent.load(Ordering::Relaxed);
                    let reload_due = reload_marks.get(k).is_some_and(|&m| start.elapsed() >= m);
                    if reload_due
                        && reloads_sent
                            .compare_exchange(k, k + 1, Ordering::Relaxed, Ordering::Relaxed)
                            .is_ok()
                    {
                        reloads.push(timed(|| send(Job::Reload)));
                    } else if send(Job::Read(next.fetch_add(1, Ordering::Relaxed))) {
                        ok += 1;
                    } else {
                        failed += 1;
                    }
                }
                let mut o = out.lock().expect("no client panics holding the lock");
                o.ok += ok;
                o.failed += failed;
                o.reloads.extend(reloads);
                o.elapsed = o.elapsed.max(start.elapsed());
            });
        }
    });
    out.into_inner().expect("clients joined")
}

/// Runs `f`, returning how long it took and what it returned.
pub fn timed(f: impl FnOnce() -> bool) -> (Duration, bool) {
    let t = Instant::now();
    let ok = f();
    (t.elapsed(), ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn responses_parse_and_truncation_is_refused() {
        let ok = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\n\r\n{}";
        assert_eq!(parse_response(ok), Some((200, b"{}".to_vec())));
        let short = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\n{}";
        assert_eq!(parse_response(short), None);
        assert_eq!(parse_response(b"garbage"), None);
    }

    #[test]
    fn open_loop_times_from_the_due_time() {
        // One client at 100/s: read 0 stalls 60 ms, so read 1 (due at
        // 10 ms) cannot be sent before 60 ms. Its latency must include
        // those ~50 ms of waiting, not just its own 1 ms of service.
        let send = |i: usize| {
            std::thread::sleep(if i == 0 { 60 * MS } else { MS });
            true
        };
        let run = open_loop(100.0, 50 * MS, 500 * MS, 1, &send);
        assert_eq!(run.scheduled, 5);
        assert_eq!(run.reads.len(), 5);
        let second = run.reads[1];
        assert!(second.late >= 45 * MS, "{second:?}");
        assert!(second.latency >= second.late + second.service, "{second:?}");
        assert!(second.service < 30 * MS, "{second:?}");
        assert!(run.valid());
    }

    #[test]
    fn open_loop_on_schedule_is_not_late() {
        let send = |_: usize| true;
        let run = open_loop(200.0, 100 * MS, 100 * MS, 2, &send);
        assert_eq!(run.reads.len(), 20);
        let late: Vec<Duration> = run.reads.iter().map(|s| s.late).collect();
        let mut sorted = late.clone();
        sorted.sort();
        assert!(sorted[sorted.len() / 2] < 5 * MS, "{late:?}");
    }

    #[test]
    fn generator_falling_behind_flags_the_run_invalid() {
        // 20 ms per request against a 1000/s schedule: almost everything
        // due in the window is still unsent when the grace period ends.
        let send = |_: usize| {
            std::thread::sleep(20 * MS);
            true
        };
        let run = open_loop(1000.0, 100 * MS, 20 * MS, 1, &send);
        assert_eq!(run.scheduled, 100);
        assert!(run.unsent > 90, "{run:?}");
        assert!(!run.valid());
    }

    #[test]
    fn closed_loop_sends_one_reload_per_mark() {
        let send = |_: Job| {
            std::thread::sleep(MS);
            true
        };
        let closed = closed_loop(60 * MS, 2, &[10 * MS, 30 * MS], &send);
        assert_eq!(closed.reloads.len(), 2);
        assert!(closed.ok > 10 && closed.failed == 0);
    }
}
