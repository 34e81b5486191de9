//! The `pao serve` side: daemon lifecycle and the open-loop load
//! generator (one client process, one thread per connection).

use crate::inputs::{EcoPair, Files, Query};
use pao_obs::json::{self, Value};
use std::ffi::c_void;
use std::io::{self, ErrorKind, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Longest any single load phase may run before it is abandoned.
const HARD_LIMIT: Duration = Duration::from_secs(120);

/// A running `pao serve`; killed and reaped on drop if still alive.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns the daemon and waits until it answers `probe`. Returns the
    /// daemon and the time from spawn to that first answer.
    pub fn spawn(
        pao: &Path,
        files: &Files,
        socket: &Path,
        threads: usize,
        probe: &str,
    ) -> io::Result<(Daemon, Duration)> {
        let _ = std::fs::remove_file(socket);
        let t0 = Instant::now();
        let child = Command::new(pao)
            .arg("serve")
            .arg(&files.lef)
            .arg(&files.def)
            .arg("--socket")
            .arg(socket)
            .arg("--threads")
            .arg(threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let mut daemon = Daemon {
            child,
            socket: socket.to_owned(),
        };
        loop {
            if let Some(status) = daemon.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "pao serve exited early: {status}"
                )));
            }
            if t0.elapsed() > HARD_LIMIT {
                return Err(io::Error::other("pao serve did not come up"));
            }
            if let Ok(mut c) = Client::connect(socket) {
                let reply = c.call(probe)?;
                if !reply.contains("\"result\"") {
                    return Err(io::Error::other(format!("probe failed: {reply}")));
                }
                return Ok((daemon, t0.elapsed()));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    pub fn connect(&self) -> io::Result<Client> {
        Client::connect(&self.socket)
    }

    /// The daemon's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the daemon to stop and waits for it to exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        let reply = self.connect()?.call("{\"id\":0,\"method\":\"shutdown\"}")?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                return Err(io::Error::other("pao serve did not stop"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        if reply.contains("\"result\"") {
            Ok(())
        } else {
            Err(io::Error::other(format!("shutdown refused: {reply}")))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// A line-oriented JSON-RPC connection.
pub struct Client {
    stream: UnixStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(path: &Path) -> io::Result<Client> {
        Ok(Client {
            stream: UnixStream::connect(path)?,
            buf: Vec::new(),
        })
    }

    /// Sends one request and blocks for its reply line.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.stream.set_read_timeout(Some(HARD_LIMIT))?;
        self.send(line)?;
        loop {
            if let Some(reply) = self.take_line() {
                return Ok(reply);
            }
            if self.fill()? == 0 {
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed",
                ));
            }
        }
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        self.stream.write_all(&out)
    }

    fn fill(&mut self) -> io::Result<usize> {
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    fn take_line(&mut self) -> Option<String> {
        let end = self.buf.iter().position(|&b| b == b'\n')?;
        let line: Vec<u8> = self.buf.drain(..=end).collect();
        Some(String::from_utf8_lossy(&line[..end]).into_owned())
    }
}

/// One request of a load run, times relative to the run start.
#[derive(Clone, Copy, Default)]
pub struct Rec {
    pub due: Duration,
    pub sent: Duration,
    pub done: Option<Duration>,
    pub ok: bool,
    /// ECOs only: the daemon re-analyzed the whole design.
    pub full: bool,
}

impl Rec {
    /// Latency from when the request was due, in milliseconds.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done
            .map(|d| (d.saturating_sub(self.due)).as_secs_f64() * 1e3)
    }

    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

/// When the ECO stream sends.
#[derive(Clone, Copy)]
pub enum EcoPace {
    /// Open loop: ECO `i` is due at `lead + i * period`.
    Every(Duration),
    /// Closed loop: each ECO is due when the previous one is answered.
    BackToBack,
}

/// Load shape of one run.
#[derive(Clone, Copy)]
pub struct Load {
    /// Open-loop query rate per second.
    pub query_rate: f64,
    /// Idle stretch before the first ECO.
    pub lead: Duration,
    pub pace: EcoPace,
    /// The query stream stops once this many ECOs are answered (at most
    /// all of them); with 0 it stops at `lead`, before the first ECO.
    pub overlap_ecos: usize,
}

/// Records of one load run.
pub struct LoadRun {
    pub queries: Vec<Rec>,
    pub ecos: Vec<Rec>,
    /// When the query schedule stopped.
    pub stop: Duration,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// What the next request of a stream is waiting for.
enum Next {
    At(Duration),
    AfterReply,
    Stop,
}

/// Plays the plan against the daemon: queries on one connection at a
/// fixed rate, ECO pairs on the other.
pub fn run_load(
    daemon: &Daemon,
    queries: &[Query],
    pairs: &[EcoPair],
    load: Load,
) -> io::Result<LoadRun> {
    let mut qconn = daemon.connect()?;
    let mut econn = daemon.connect()?;
    let n_ecos = pairs.len() * 2;
    let stop_after = load.overlap_ecos.min(n_ecos);
    let stop_ns = AtomicU64::new(if stop_after == 0 {
        nanos(load.lead)
    } else {
        u64::MAX
    });
    let drained_ns = AtomicU64::new(u64::MAX);
    let t0 = Instant::now();
    let (queries, ecos) = std::thread::scope(|s| -> io::Result<_> {
        let ecos = s.spawn(|| {
            let mut last_done = load.lead;
            let recs = drive(
                &mut econn,
                t0,
                |i, outstanding, done| {
                    if let Some(d) = done {
                        last_done = d;
                        if i - outstanding == stop_after {
                            stop_ns.store(nanos(d), Ordering::SeqCst);
                        }
                    }
                    if i == n_ecos {
                        return Next::Stop;
                    }
                    // Past the overlap, a back-to-back ECO also waits for
                    // the queries to drain, so no query waits on two ECOs.
                    let drained = drained_ns.load(Ordering::SeqCst);
                    match load.pace {
                        EcoPace::Every(p) => Next::At(load.lead + p * i as u32),
                        EcoPace::BackToBack if outstanding > 0 => Next::AfterReply,
                        EcoPace::BackToBack if i < stop_after => Next::At(last_done.max(load.lead)),
                        EcoPace::BackToBack if drained == u64::MAX => Next::AfterReply,
                        EcoPace::BackToBack => {
                            Next::At(last_done.max(Duration::from_nanos(drained)))
                        }
                    }
                },
                |i| pairs[i / 2].request(i, i),
                |_, v| {
                    let r = v.get("result")?;
                    if r.get("moved")?.as_i64()? != 1 {
                        return None;
                    }
                    r.get("full_reanalysis")?.as_bool()
                },
            );
            // A failed stream never reached its stop point: end the queries.
            let _ = stop_ns.compare_exchange(
                u64::MAX,
                nanos(t0.elapsed()),
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
            recs
        });
        let queries = s.spawn(|| {
            let period = Duration::from_secs_f64(1.0 / load.query_rate);
            let recs = drive(
                &mut qconn,
                t0,
                |i, _, _| {
                    let due = period * i as u32;
                    if due.as_nanos() >= u128::from(stop_ns.load(Ordering::SeqCst)) {
                        Next::Stop
                    } else {
                        Next::At(due)
                    }
                },
                |i| queries[i % queries.len()].request(i),
                |i, v| {
                    let want = &queries[i % queries.len()].inst;
                    let inst = v.get("result")?.get("inst")?.as_str()?;
                    (inst == want).then_some(false)
                },
            );
            drained_ns.store(nanos(t0.elapsed()), Ordering::SeqCst);
            recs
        });
        let join = |h: std::thread::ScopedJoinHandle<'_, Vec<Rec>>| {
            h.join()
                .map_err(|_| io::Error::other("a load thread panicked"))
        };
        Ok((join(queries)?, join(ecos)?))
    })?;
    let stop = Duration::from_nanos(stop_ns.load(Ordering::SeqCst));
    Ok(LoadRun {
        queries,
        ecos,
        stop,
    })
}

/// Drives one connection. `next(i, outstanding, latest_done)` schedules
/// request `i`, `line(i)` renders it, and `check(i, reply)` returns
/// `Some(flag)` for a correct reply (`flag` is the ECO full-reanalysis
/// bit) and `None` for a wrong or refused one.
fn drive(
    conn: &mut Client,
    t0: Instant,
    mut next: impl FnMut(usize, usize, Option<Duration>) -> Next,
    line: impl Fn(usize) -> String,
    check: impl Fn(usize, &Value) -> Option<bool>,
) -> Vec<Rec> {
    let mut recs: Vec<Rec> = Vec::new();
    let mut answered = 0usize;
    let mut latest_done = None;
    let mut stopped = false;
    loop {
        let now = t0.elapsed();
        let due = if stopped {
            None
        } else {
            match next(recs.len(), recs.len() - answered, latest_done.take()) {
                Next::At(d) => Some(d),
                Next::AfterReply => None,
                Next::Stop => {
                    stopped = true;
                    None
                }
            }
        };
        if let Some(d) = due {
            if d <= now {
                let i = recs.len();
                recs.push(Rec {
                    due: d,
                    sent: now,
                    ..Rec::default()
                });
                if conn.send(&line(i)).is_err() {
                    break;
                }
                continue;
            }
        }
        if stopped && answered == recs.len() {
            break;
        }
        if now > HARD_LIMIT {
            break;
        }
        let wait = due.map_or(Duration::from_millis(2), |d| d.saturating_sub(now));
        match wait_readable(&conn.stream, wait) {
            Ok(false) => {}
            Ok(true) => {
                if !matches!(conn.fill(), Ok(n) if n > 0) {
                    break;
                }
            }
            Err(_) => break,
        }
        while let Some(reply) = conn.take_line() {
            let done = t0.elapsed();
            let Some(rec) = recs.get_mut(answered) else {
                break;
            };
            rec.done = Some(done);
            let parsed = json::parse(&reply).ok();
            let verdict = parsed.as_ref().and_then(|v| {
                let id_ok = v.get("id")?.as_i64()? == answered as i64;
                id_ok.then(|| check(answered, v))?
            });
            rec.ok = verdict.is_some();
            rec.full = verdict.unwrap_or(false);
            answered += 1;
            latest_done = Some(done);
        }
    }
    recs
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const c_void) -> i32;
}

/// Waits up to `timeout` for `stream` to become readable (or hung up).
/// `ppoll` sleeps on a high-resolution timer; a socket read timeout is
/// rounded to scheduler ticks, which would make the generator run
/// milliseconds late.
fn wait_readable(stream: &UnixStream, timeout: Duration) -> io::Result<bool> {
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` is one valid, exclusively borrowed `struct pollfd`
    // and `ts` a valid `struct timespec`, both alive for the call; a null
    // signal mask leaves the thread's mask unchanged.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match n {
        0 => Ok(false),
        n if n > 0 => Ok(true),
        _ => {
            let e = io::Error::last_os_error();
            if e.kind() == ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}

/// Median round-trip of `n` back-to-back queries on an idle daemon, in
/// microseconds.
pub fn idle_rtt_us(daemon: &Daemon, queries: &[Query], n: usize) -> io::Result<Vec<f64>> {
    let mut c = daemon.connect()?;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let q = &queries[i % queries.len()];
        if q.method != "get_pin_access" {
            continue;
        }
        let t = Instant::now();
        let reply = c.call(&q.request(i))?;
        out.push(t.elapsed().as_secs_f64() * 1e6);
        if !reply.contains("\"result\"") {
            return Err(io::Error::other(format!("idle query failed: {reply}")));
        }
    }
    Ok(out)
}

/// The daemon's `dump_selection` text.
pub fn dump_selection(daemon: &Daemon) -> io::Result<String> {
    let reply = daemon
        .connect()?
        .call("{\"id\":0,\"method\":\"dump_selection\"}")?;
    json::parse(&reply)
        .ok()
        .and_then(|v| Some(v.get("result")?.get("dump")?.as_str()?.to_owned()))
        .ok_or_else(|| io::Error::other("dump_selection failed"))
}
