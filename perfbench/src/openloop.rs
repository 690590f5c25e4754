//! Open-loop query load: requests are due on a fixed schedule whether or
//! not earlier ones have completed, and each is timed from when it was
//! due, so a stall is charged to every request it delays.

use crate::query::{parse_answer, Answer, Query, QueryGen};
use crate::stats::percentile;
use crate::trace::Tracer;
use dppr_serve::http::{render_response, try_parse, Parsed, Response};
use dppr_serve::{QueryCache, Reader, SessionRegistry};
use minipoll::PollFd;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// p99 latency limit of `qps_at_slo`, timed from the scheduled send.
pub const SLO_P99_MS: f64 = 100.0;
/// Validity bound on the generator itself: a fixed-rate phase whose
/// sends ran later than this at p99 measured the generator, not the
/// program, and is reported invalid.
pub const LATE_BOUND_MS: f64 = 25.0;
/// How long requests still in flight at the end of a phase may take.
const DRAIN: Duration = Duration::from_secs(3);
/// One answer in this many is kept for the answer checks.
const SAMPLE_EVERY: u64 = 16;

/// A fixed-rate schedule: request `i` is due at `start + i / rate`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub period_ns: f64,
}

impl Schedule {
    pub fn new(start: Instant, rate: f64) -> Schedule {
        Schedule {
            start,
            period_ns: 1e9 / rate,
        }
    }

    pub fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_nanos((i as f64 * self.period_ns) as u64)
    }

    /// Requests due strictly before `start + elapsed`.
    pub fn due_before(&self, elapsed: Duration) -> u64 {
        (elapsed.as_nanos() as f64 / self.period_ns).ceil() as u64
    }

    /// Latency of request `i` completed at `done`, charged from its due
    /// time (never from when it was actually sent).
    pub fn latency_ms(&self, i: u64, done: Instant) -> f64 {
        done.saturating_duration_since(self.due(i)).as_nanos() as f64 * 1e-6
    }
}

/// What one fixed-rate phase measured.
#[derive(Debug, Default)]
pub struct PhaseOut {
    pub rate: f64,
    pub wall_s: f64,
    /// Per completed request: due → completed (ms).
    pub sched_ms: Vec<f64>,
    /// Per completed request: actually sent → completed (ms).
    pub service_ms: Vec<f64>,
    /// Per sent request: due → actually sent (ms).
    pub late_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// 503 answers (also counted in `failed`).
    pub shed: u64,
    /// Requests due but unanswered when the phase's schedule ended.
    pub backlog_end: u64,
    /// Sampled answers for the checks.
    pub answers: Vec<Answer>,
    /// First few failure descriptions.
    pub errors: Vec<String>,
}

impl PhaseOut {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }

    /// Keeps every `SAMPLE_EVERY`-th answer (by request index).
    fn sample(&mut self, i: u64, q: &Query, body: &str) {
        if i.is_multiple_of(SAMPLE_EVERY) {
            match parse_answer(q, body) {
                Ok(a) => self.answers.push(a),
                Err(e) => self.fail(format!("unreadable answer to {}: {e}", q.target())),
            }
        }
    }

    pub fn merge(&mut self, o: PhaseOut) {
        self.wall_s = self.wall_s.max(o.wall_s);
        self.sched_ms.extend(o.sched_ms);
        self.service_ms.extend(o.service_ms);
        self.late_ms.extend(o.late_ms);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.shed += o.shed;
        self.backlog_end += o.backlog_end;
        self.answers.extend(o.answers);
        for e in o.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    pub fn p(&self, v: &[f64], q: f64) -> f64 {
        percentile(v, q).unwrap_or(f64::NAN)
    }

    /// Whether the phase met the latency limit with every request served.
    pub fn meets_slo(&self) -> bool {
        self.failed == 0 && !self.sched_ms.is_empty() && self.p(&self.sched_ms, 99.0) <= SLO_P99_MS
    }
}

/// Spins until `t`. For a generator that is also the executor (the
/// in-process read path): a sleeping thread on an idle virtual CPU can
/// wake tens of ms late, which would be charged to the program.
fn spin_until(t: Instant) {
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

/// Sleeps until `t`, spinning only for the last few tens of µs.
fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_micros(100) {
            std::thread::sleep(left - Duration::from_micros(50));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Span names of the in-process query kernels (kernel + body render),
/// indexed like [`crate::query::KINDS`].
pub const KERNEL_SPANS: [&str; 4] = [
    "serve.query.topk",
    "serve.query.score",
    "serve.query.threshold",
    "serve.query.compare",
];

/// The in-process read path: the server's request path without sockets
/// or event loop — `http::try_parse`, session lookup, lock-free snapshot
/// load, query cache and kernel, `render_response`.
pub struct InprocPath {
    pub registry: Arc<SessionRegistry>,
    pub cache: Arc<QueryCache>,
}

/// Runs `rate` queries per second through the in-process path for
/// `duration`, on the calling thread.
pub fn run_inproc(
    path: &InprocPath,
    reader: &Reader,
    gen: &mut QueryGen,
    rate: f64,
    duration: Duration,
    tracer: &mut Tracer,
) -> PhaseOut {
    let sched = Schedule::new(Instant::now() + Duration::from_millis(1), rate);
    let end = sched.start + duration;
    let mut out = PhaseOut {
        rate,
        ..PhaseOut::default()
    };
    let mut wire = Vec::with_capacity(1 << 16);
    let mut i = 0u64;
    loop {
        let due = sched.due(i);
        if due >= end {
            break;
        }
        spin_until(due);
        let q = gen.next_query();
        let sent = Instant::now();
        out.attempted += 1;
        let req = tracer.begin("client.request", i, None);
        let head = format!("GET {} HTTP/1.1\r\nHost: perfbench\r\n\r\n", q.target());
        let span = tracer.begin("serve.http.parse", i, req);
        let parsed = try_parse(head.as_bytes());
        tracer.end(span);
        if !matches!(parsed, Ok(Parsed::Complete { .. })) {
            out.fail(format!("unparsable request {}", q.target()));
            i += 1;
            continue;
        }
        let Some(entry) = path.registry.lookup(q.source()) else {
            out.fail(format!("no session for {}", q.source()));
            i += 1;
            continue;
        };
        let span = tracer.begin("serve.epoch.load", i, req);
        let snap = entry.load(reader);
        tracer.end(span);
        let span = tracer.begin("serve.cache", i, req);
        let (body, _hit) =
            path.cache
                .get_or_render(q.source(), q.cache_kind(), snap.epoch(), || {
                    let kernel = tracer.begin(KERNEL_SPANS[q.kind_index()], i, span);
                    let body = crate::query::render_body(&snap, &q);
                    tracer.end(kernel);
                    body
                });
        tracer.end(span);
        let span = tracer.begin("serve.http.render", i, req);
        wire.clear();
        render_response(&mut wire, &Response::new(200, Arc::clone(&body)), true);
        std::hint::black_box(&wire);
        tracer.end(span);
        let done = Instant::now();
        tracer.end(req);
        out.late_ms.push((sent - due).as_nanos() as f64 * 1e-6);
        out.sched_ms.push(sched.latency_ms(i, done));
        out.service_ms.push((done - sent).as_nanos() as f64 * 1e-6);
        if done > end {
            out.backlog_end += 1;
        }
        out.sample(i, &q, &body);
        i += 1;
    }
    out.wall_s = (Instant::now() - sched.start).as_secs_f64();
    out
}

/// One in-flight HTTP request.
struct Pending {
    i: u64,
    q: Query,
    sent: Instant,
}

/// Runs `rate` queries per second for `duration` against `addr`, spread
/// round-robin over `conns` keep-alive connections carrying pipelined
/// requests. One sender thread writes each request when it is due; one
/// receiver thread polls the connections and reads the answers in order.
#[allow(clippy::too_many_arguments)]
pub fn run_http(
    addr: SocketAddr,
    conns: usize,
    seed: u64,
    sources: &[u32],
    vertices: u32,
    rate: f64,
    duration: Duration,
    tracer: &mut Tracer,
) -> PhaseOut {
    let mut out = PhaseOut {
        rate,
        ..PhaseOut::default()
    };
    let opened: std::io::Result<Vec<(TcpStream, TcpStream)>> = (0..conns.max(1))
        .map(|_| {
            let c = TcpStream::connect(addr)?;
            c.set_nodelay(true)?;
            let r = c.try_clone()?;
            r.set_nonblocking(true)?;
            Ok((c, r))
        })
        .collect();
    let (writers, readers): (Vec<TcpStream>, Vec<TcpStream>) = match opened {
        Ok(v) => v.into_iter().unzip(),
        Err(e) => {
            out.attempted = 1;
            out.fail(format!("connect: {e}"));
            return out;
        }
    };
    let sched = Schedule::new(Instant::now() + Duration::from_millis(2), rate);
    let end = sched.start + duration;
    let completed = AtomicU64::new(0);
    let sent_total = AtomicU64::new(u64::MAX);
    let mut gen = QueryGen::new(crate::inputs::mix(seed, rate.to_bits()), sources, vertices);
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..writers.len())
        .map(|_| mpsc::channel::<Pending>())
        .unzip();
    std::thread::scope(|s| {
        let counts = (&completed, &sent_total);
        let receiver = s.spawn(move || receive(readers, rxs, sched, end + DRAIN, counts, tracer));
        let sent = send(writers, txs, sched, end, &mut gen, &completed);
        sent_total.store(sent.attempted, SeqCst);
        let got = receiver.join().expect("receiver thread panicked");
        out.merge(sent);
        out.merge(got);
    });
    out.rate = rate;
    out
}

/// The sender half: writes request `i` on connection `i % conns` at its
/// due time until the schedule ends. The connections stay open until the
/// receiver has every answer.
fn send(
    mut conns: Vec<TcpStream>,
    txs: Vec<mpsc::Sender<Pending>>,
    sched: Schedule,
    end: Instant,
    gen: &mut QueryGen,
    completed: &AtomicU64,
) -> PhaseOut {
    let mut out = PhaseOut::default();
    let mut i = 0u64;
    let mut buf = Vec::with_capacity(256);
    loop {
        let due = sched.due(i);
        if due >= end {
            break;
        }
        wait_until(due);
        let q = gen.next_query();
        buf.clear();
        let _ = write!(
            buf,
            "GET {} HTTP/1.1\r\nHost: perfbench\r\n\r\n",
            q.target()
        );
        let c = (i % conns.len() as u64) as usize;
        let sent = Instant::now();
        out.attempted += 1;
        out.late_ms.push((sent - due).as_nanos() as f64 * 1e-6);
        // Queue the request for the receiver before its bytes can be answered.
        if txs[c].send(Pending { i, q, sent }).is_err() {
            out.fail("receiver gone".into());
            break;
        }
        if let Err(e) = conns[c].write_all(&buf) {
            out.errors.push(format!("write: {e}"));
            break;
        }
        i += 1;
    }
    wait_until(end);
    // Everything due before the end that is not answered yet.
    out.backlog_end = sched
        .due_before(end - sched.start)
        .saturating_sub(completed.load(SeqCst));
    out
}

/// The receiver half: polls the connections and reads each one's
/// responses in request order until every request is answered, a
/// connection ends, or `deadline`.
fn receive(
    mut conns: Vec<TcpStream>,
    rxs: Vec<mpsc::Receiver<Pending>>,
    sched: Schedule,
    deadline: Instant,
    (completed, sent_total): (&AtomicU64, &AtomicU64),
    tracer: &mut Tracer,
) -> PhaseOut {
    use std::os::fd::AsRawFd;
    let mut out = PhaseOut::default();
    let mut bufs: Vec<Vec<u8>> = conns.iter().map(|_| Vec::with_capacity(1 << 16)).collect();
    let mut chunk = vec![0u8; 1 << 16];
    let why = 'outer: loop {
        if completed.load(SeqCst) == sent_total.load(SeqCst) {
            break "done".to_string();
        }
        if Instant::now() >= deadline {
            break "timed out".to_string();
        }
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|c| PollFd::new(c.as_raw_fd(), minipoll::READABLE))
            .collect();
        if let Err(e) = minipoll::poll(&mut fds, Some(Duration::from_millis(20))) {
            break e.to_string();
        }
        for (k, fd) in fds.iter().enumerate() {
            if !(fd.readable() || fd.hup_or_err()) {
                continue;
            }
            let n = match conns[k].read(&mut chunk) {
                Ok(0) => break 'outer "connection closed".to_string(),
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => continue,
                Err(e) => break 'outer e.to_string(),
            };
            let done = Instant::now();
            let inbuf = &mut bufs[k];
            inbuf.extend_from_slice(&chunk[..n]);
            let mut at = 0;
            while let Some((status, body, used)) = split_response(&inbuf[at..]) {
                let Ok(p) = rxs[k].try_recv() else {
                    out.fail("an answer to no request".into());
                    break;
                };
                completed.fetch_add(1, SeqCst);
                tracer.record("client.request", p.i, None, p.sent, done);
                out.service_ms
                    .push((done - p.sent).as_nanos() as f64 * 1e-6);
                out.sched_ms.push(sched.latency_ms(p.i, done));
                if status == 200 {
                    out.sample(p.i, &p.q, &String::from_utf8_lossy(body));
                } else {
                    if status == 503 {
                        out.shed += 1;
                    }
                    out.fail(format!("status {status} for {}", p.q.target()));
                }
                at += used;
            }
            inbuf.drain(..at);
        }
    };
    // Whatever is still queued was never answered.
    for rx in rxs {
        for p in rx.iter() {
            out.fail(format!("{why}: no answer to {}", p.q.target()));
        }
    }
    out
}

/// Splits one complete `Content-Length`-framed response off the front
/// of `buf`: `(status, body, bytes used)`.
pub fn split_response(buf: &[u8]) -> Option<(u16, &[u8], usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status: u16 = head.get(9..12)?.parse().ok()?;
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0);
    let body = buf.get(head_end..head_end + len)?;
    Some((status, body, head_end + len))
}

/// Finds the highest offered rate whose phase meets the latency limit
/// (`PhaseOut::meets_slo`): geometric steps up from `start_rate` until a
/// phase fails, three bisections, then a linear read of where p99
/// crosses the limit between the last passing and first failing rate.
/// Returns the rate and every phase run.
pub fn search_qps_at_slo(
    start_rate: f64,
    mut run_at: impl FnMut(f64) -> PhaseOut,
) -> (f64, Vec<(f64, f64, bool)>) {
    let mut steps = Vec::new();
    let mut probe = |r: f64, steps: &mut Vec<(f64, f64, bool)>| {
        let out = run_at(r);
        let p99 = if out.sched_ms.is_empty() {
            f64::INFINITY
        } else {
            out.p(&out.sched_ms, 99.0)
        };
        let ok = out.meets_slo();
        steps.push((r, p99, ok));
        (p99, ok)
    };
    // (rate, p99) of the highest passing and lowest failing phase.
    let mut lo: Option<(f64, f64)> = None;
    let mut hi: Option<(f64, f64)> = None;
    let mut r = start_rate;
    for _ in 0..10 {
        let (p99, ok) = probe(r, &mut steps);
        if ok {
            lo = Some((r, p99));
            if hi.is_some() {
                break;
            }
            r *= 1.6;
        } else {
            hi = Some((r, p99));
            if lo.is_some() {
                break;
            }
            r /= 1.6;
        }
    }
    let (Some(mut lo), Some(mut hi)) = (lo, hi) else {
        return (f64::NAN, steps);
    };
    for _ in 0..3 {
        let m = (lo.0 * hi.0).sqrt();
        let (p99, ok) = probe(m, &mut steps);
        if ok {
            lo = (m, p99);
        } else {
            hi = (m, p99);
        }
    }
    let frac = if hi.1.is_finite() && hi.1 > lo.1 {
        ((SLO_P99_MS - lo.1) / (hi.1 - lo.1)).clamp(0.0, 1.0)
    } else {
        0.5
    };
    (lo.0 + frac * (hi.0 - lo.0), steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_charged_from_the_scheduled_time() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 1000.0); // one request per ms
        assert_eq!(s.due(3), t0 + Duration::from_millis(3));
        // A 10 ms stall from t0: request 0 completes at 10 ms and request
        // 5 (due at 5 ms) right after; both are charged the wait.
        assert!((s.latency_ms(0, t0 + Duration::from_millis(10)) - 10.0).abs() < 1e-9);
        assert!((s.latency_ms(5, t0 + Duration::from_millis(11)) - 6.0).abs() < 1e-9);
        // Completing before the due time (clock skew) counts as zero.
        assert_eq!(s.latency_ms(9, t0), 0.0);
        assert_eq!(s.due_before(Duration::from_micros(2500)), 3);
        assert_eq!(s.due_before(Duration::from_millis(3)), 3);
    }

    #[test]
    fn responses_are_split_by_content_length() {
        let buf = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\n\r\nHTTP/1.1 200";
        let (st, body, used) = split_response(buf).unwrap();
        assert_eq!((st, body, used), (200, &b"{}"[..], 40));
        let (st, body, used2) = split_response(&buf[used..]).unwrap();
        assert_eq!((st, body.len()), (503, 0));
        assert!(split_response(&buf[used + used2..]).is_none());
    }

    #[test]
    fn search_interpolates_the_crossing() {
        // A fake system whose p99 is 1 ms up to 1000 q/s and climbs
        // linearly by SLO/10 ms per 100 q/s beyond: crossing at 1990 q/s.
        let fake = |r: f64| {
            let p = 1.0 + ((r - 1000.0) / 100.0).max(0.0) * SLO_P99_MS / 10.0;
            PhaseOut {
                rate: r,
                sched_ms: vec![p; 100],
                attempted: 100,
                ..PhaseOut::default()
            }
        };
        let (q, steps) = search_qps_at_slo(500.0, fake);
        assert!((q - 1990.0).abs() < 1.0, "qps {q}");
        assert!(steps.len() <= 10);
    }
}
