//! The live half of the benchmark: the real `cegcli serve` as a child
//! process, and a single-threaded load generator that speaks the wire
//! protocol to it over a few non-blocking connections.
//!
//! One thread does everything — send on schedule, read replies, time
//! them. Under open loop it never sleeps: it polls its connections
//! without blocking until the last reply is in. On a shared virtual
//! machine a thread that sleeps wakes late, and since open-loop latency
//! is timed from the scheduled send, that lateness would be charged to
//! every request (with `ppoll` sleeps: generator lateness p99 16-102 µs
//! and est_p50_us 52-60 µs on hot_zipf; polling: 1.3-5.3 µs and
//! 36-38 µs, on a 2-vCPU host). Under closed loop it sleeps in `ppoll`
//! until a reply arrives, leaving every core to the server.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::os::unix::io::AsRawFd;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::stats::Timing;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct TimeSpec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const TimeSpec,
        sigmask: *const c_void,
    ) -> c_int;
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;

/// Wait until one of `streams` is readable (or writable, where `want_out`
/// says so), or `timeout` passes.
fn wait(streams: &[&TcpStream], want_out: &[bool], timeout: Duration) -> std::io::Result<()> {
    let mut fds: Vec<PollFd> = streams
        .iter()
        .zip(want_out)
        .map(|(s, &out)| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN | if out { POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    let ts = TimeSpec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // pollfd records; `ts` outlives the call; a null sigmask leaves the
    // signal mask alone.
    let rc = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    if rc < 0 {
        let e = std::io::Error::last_os_error();
        if e.kind() != ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// CPU time accounting of the whole machine from `/proc/stat`: ticks
/// stolen by the hypervisor, and all ticks.
pub fn cpu_ticks() -> Result<(u64, u64), String> {
    let stat =
        std::fs::read_to_string("/proc/stat").map_err(|e| format!("read /proc/stat: {e}"))?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .ok_or("no cpu line in /proc/stat")?
        .split_whitespace()
        .take(8)
        .map(|t| t.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal
    Ok((ticks.get(7).copied().unwrap_or(0), ticks.iter().sum()))
}

/// Share of the machine's CPU time the hypervisor stole since `before`.
pub fn steal_since(before: (u64, u64)) -> Result<f64, String> {
    let now = cpu_ticks()?;
    Ok((now.0 - before.0) as f64 / (now.1 - before.1).max(1) as f64)
}

/// What a request was, so its reply can be checked and timed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `ESTIMATE` of pool query `i`.
    Est(u32),
    /// `ADD_EDGE` / `DEL_EDGE`.
    Update,
    Commit,
}

/// One scheduled request (open loop): due `due_ns` after the phase
/// starts, on connection `conn`.
#[derive(Debug, Clone)]
pub struct Req {
    pub conn: usize,
    pub due_ns: u64,
    pub line: String,
    pub op: Op,
}

/// How requests are issued.
pub enum Mode {
    /// Each request leaves at its due time (sorted by `due_ns`),
    /// whatever the replies are doing.
    Open(Vec<Req>),
    /// Each connection keeps up to `window` requests outstanding and
    /// sends the next as soon as a reply frees a slot — a caller that
    /// waits on its answers when `window` is 1.
    Closed {
        window: usize,
        queue: Vec<(String, Op)>,
    },
}

/// One request as it went: timing, whether the reply was the expected
/// success (EST / OK / COMMITTED), and an EST reply's value.
#[derive(Debug, Clone)]
pub struct Reply {
    pub op: Op,
    pub timing: Timing,
    pub ok: bool,
    pub value: Option<Option<f64>>,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    /// Index into the reply log of each request awaiting its reply, in
    /// send order (the server answers a connection in order).
    inflight: VecDeque<usize>,
}

fn classify(op: Op, line: &str) -> Result<(bool, Option<Option<f64>>), String> {
    let (head, _) = cegraph::service::protocol::split_id(line);
    let mut it = head.split_whitespace();
    let verb = it.next().unwrap_or("");
    match (op, verb) {
        (Op::Est(_), "EST") => {
            let v = match it.next() {
                Some("none") => None,
                Some(tok) => Some(
                    tok.parse::<f64>()
                        .map_err(|_| format!("bad EST value in `{line}`"))?,
                ),
                None => return Err(format!("truncated EST reply `{line}`")),
            };
            Ok((true, Some(v)))
        }
        (Op::Update, "OK") | (Op::Commit, "COMMITTED") => Ok((true, None)),
        (_, "BUSY" | "TIMEOUT" | "ERR") => Ok((false, None)),
        _ => Err(format!("reply `{line}` does not answer a {op:?} request")),
    }
}

/// Run one phase against `addr` on `conns` connections. A request still
/// unanswered at `limit` fails the phase: every accepted request must be
/// answered. The returned log is in send order.
pub fn drive(addr: &str, conns: usize, mode: Mode, limit: Duration) -> Result<Vec<Reply>, String> {
    let mut cs = Vec::with_capacity(conns);
    for _ in 0..conns {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        cs.push(Conn {
            stream,
            out: Vec::new(),
            out_pos: 0,
            inbuf: Vec::new(),
            inflight: VecDeque::new(),
        });
    }
    let (open, window, mut queue) = match mode {
        Mode::Open(reqs) => (reqs, 0, Vec::new().into_iter()),
        Mode::Closed { window, queue } => (Vec::new(), window, queue.into_iter()),
    };
    let total = if window == 0 { open.len() } else { queue.len() };
    let mut log: Vec<Reply> = Vec::with_capacity(total);
    let mut buf = vec![0u8; 1 << 16];
    event_loop(
        &mut cs, &open, window, &mut queue, total, limit, &mut log, &mut buf,
    )?;
    let unanswered = log.iter().filter(|r| r.timing.done.is_none()).count();
    if unanswered > 0 {
        return Err(format!(
            "{unanswered} of {total} requests still unanswered after {limit:?}"
        ));
    }
    Ok(log)
}

#[allow(clippy::too_many_arguments)]
fn event_loop(
    cs: &mut [Conn],
    open: &[Req],
    window: usize,
    queue: &mut std::vec::IntoIter<(String, Op)>,
    total: usize,
    limit: Duration,
    log: &mut Vec<Reply>,
    buf: &mut [u8],
) -> Result<(), String> {
    let mut next = 0usize;
    let start = Instant::now();
    let ns = |t: Instant| t.duration_since(start).as_nanos() as u64;
    loop {
        let now = ns(Instant::now());
        let send = |c: &mut Conn, line: &str, op: Op, due: u64, log: &mut Vec<Reply>| {
            c.out.extend_from_slice(line.as_bytes());
            c.out.push(b'\n');
            c.inflight.push_back(log.len());
            log.push(Reply {
                op,
                timing: Timing {
                    due,
                    sent: now,
                    done: None,
                },
                ok: false,
                value: None,
            });
        };
        if window == 0 {
            while next < open.len() && open[next].due_ns <= now {
                let r = &open[next];
                send(&mut cs[r.conn], &r.line, r.op, r.due_ns, log);
                next += 1;
            }
        } else {
            for c in cs.iter_mut() {
                while c.inflight.len() < window {
                    let Some((line, op)) = queue.next() else {
                        break;
                    };
                    send(c, &line, op, now, log);
                    next += 1;
                }
            }
        }
        for c in cs.iter_mut() {
            while c.out_pos < c.out.len() {
                match c.stream.write(&c.out[c.out_pos..]) {
                    Ok(0) => return Err("server closed the connection".into()),
                    Ok(n) => c.out_pos += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => return Err(format!("send: {e}")),
                }
            }
            if c.out_pos == c.out.len() {
                c.out.clear();
                c.out_pos = 0;
            }
        }
        let pending = cs.iter().any(|c| !c.inflight.is_empty());
        if next == total && !pending {
            break;
        }
        let elapsed = Duration::from_nanos(now);
        if elapsed >= limit {
            break;
        }
        // Open loop never sleeps (see the module docs); closed loop
        // sleeps until a reply frees a slot.
        if window > 0 {
            let timeout = (limit - elapsed).min(Duration::from_millis(20));
            let streams: Vec<&TcpStream> = cs.iter().map(|c| &c.stream).collect();
            let want_out: Vec<bool> = cs.iter().map(|c| c.out_pos < c.out.len()).collect();
            wait(&streams, &want_out, timeout).map_err(|e| format!("poll: {e}"))?;
        }
        let now = ns(Instant::now());
        for c in cs.iter_mut() {
            loop {
                match c.stream.read(buf) {
                    Ok(0) => {
                        if c.inflight.is_empty() {
                            break;
                        }
                        return Err("server closed the connection with requests in flight".into());
                    }
                    Ok(n) => c.inbuf.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => return Err(format!("receive: {e}")),
                }
            }
            let mut consumed = 0;
            while let Some(pos) = c.inbuf[consumed..].iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&c.inbuf[consumed..consumed + pos]).into_owned();
                consumed += pos + 1;
                let idx = c
                    .inflight
                    .pop_front()
                    .ok_or_else(|| format!("unsolicited reply `{line}`"))?;
                let r = &mut log[idx];
                let (ok, value) = classify(r.op, &line)?;
                r.timing.done = Some(now);
                r.ok = ok;
                r.value = value;
            }
            c.inbuf.drain(..consumed);
        }
    }
    Ok(())
}

/// A running `cegcli serve` child.
pub struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl ServerProc {
    /// Spawn `cegcli serve 127.0.0.1:0 <args>` and wait for its
    /// `serving ...` line, which names the bound port.
    pub fn spawn(cli: &Path, args: &[String]) -> Result<ServerProc, String> {
        let mut child = Command::new(cli)
            .arg("serve")
            .arg("127.0.0.1:0")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", cli.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            let n = stdout.read_line(&mut line).map_err(|e| e.to_string())?;
            if n == 0 {
                let _ = child.kill();
                let status = child.wait().map_err(|e| e.to_string())?;
                return Err(format!("server exited before serving: {status}"));
            }
            if line.starts_with("serving `default`") {
                break;
            }
        }
        let addr = line
            .split(" on ")
            .nth(1)
            .and_then(|t| t.split_whitespace().next())
            .ok_or_else(|| format!("no address in `{}`", line.trim()))?
            .to_string();
        Ok(ServerProc {
            child,
            stdout,
            addr,
        })
    }

    /// Peak resident set size (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read server status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or("no VmHWM in server status")?;
        Ok(kb / 1024.0)
    }

    /// The server's `STATS` counters (prefixed `stats.`) and its
    /// `METRICS` registry, one blocking round-trip each.
    pub fn scrape(&self) -> Result<BTreeMap<String, f64>, String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        let mut w = stream.try_clone().map_err(|e| e.to_string())?;
        let mut r = BufReader::new(stream);
        let mut line = String::new();
        let mut out = BTreeMap::new();
        w.write_all(b"STATS\nMETRICS\n")
            .map_err(|e| e.to_string())?;
        r.read_line(&mut line).map_err(|e| e.to_string())?;
        let (head, _) = cegraph::service::protocol::split_id(line.trim());
        for kv in head.split_whitespace().skip(1) {
            if let Some((k, v)) = kv.split_once('=') {
                out.insert(format!("stats.{k}"), v.parse().unwrap_or(f64::NAN));
            }
        }
        line.clear();
        r.read_line(&mut line).map_err(|e| e.to_string())?;
        let (head, _) = cegraph::service::protocol::split_id(line.trim());
        let n = cegraph::service::protocol::parse_metrics_response_header(head)?;
        for _ in 0..n {
            line.clear();
            r.read_line(&mut line).map_err(|e| e.to_string())?;
            let (k, v) = cegraph::service::protocol::parse_metric_line(line.trim())?;
            out.insert(k, v as f64);
        }
        Ok(out)
    }

    /// Ask the server to drain (`SHUTDOWN`) and wait for it to exit 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        let sent = TcpStream::connect(&self.addr).and_then(|mut s| {
            s.write_all(b"SHUTDOWN\n")?;
            s.set_read_timeout(Some(Duration::from_secs(10)))?;
            let mut reply = String::new();
            BufReader::new(s).read_line(&mut reply).map(|_| ())
        });
        sent.map_err(|e| format!("shutdown request: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                let mut rest = String::new();
                let _ = self.stdout.read_to_string(&mut rest);
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("server exited with {status}"))
                };
            }
            if Instant::now() > deadline {
                return Err("server did not exit after SHUTDOWN".into());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
