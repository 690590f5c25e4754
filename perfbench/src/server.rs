//! `read` and `mixed`: the real server (`dppr_serve::start`) over HTTP.
//!
//! `read` trickles writes at a fixed `slide_pause` under a fixed-rate,
//! open-loop, pipelined query load. `mixed` slides unpaced with
//! durability on (WAL + checkpoints under a temporary data dir) while
//! reads arrive at a fixed rate well below `read`'s capacity.

use crate::inputs::{Inputs, BATCH, INIT_FRACTION, SCALE};
use crate::json::{self, Value};
use crate::openloop::{run_http, search_qps_at_slo, split_response, PhaseOut};
use crate::replay::Replay;
use crate::report::{mean0, nproc, steps_json, Layers, Outcome};
use crate::stats::{median, windowed_rate};
use crate::trace::Tracer;
use crate::Args;
use dppr_core::CounterSnapshot;
use dppr_obs::Histogram;
use dppr_serve::{
    start, DurabilityConfig, EpochDomain, QuerySnapshot, ServeConfig, ServerHandle, SessionRegistry,
};
use std::io::{Read, Write};
use std::mem::size_of;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How one server workload differs from the other.
pub struct Spec {
    pub name: &'static str,
    pub slide_pause: Duration,
    pub durable: bool,
    /// Offered query rate of the measured interval.
    pub read_rate: f64,
    /// First rate the `qps_at_slo` search tries.
    pub search_start: f64,
}

pub const READ: Spec = Spec {
    name: "read",
    slide_pause: Duration::from_millis(40),
    durable: false,
    read_rate: 250.0,
    search_start: 600.0,
};

pub const MIXED: Spec = Spec {
    name: "mixed",
    slide_pause: Duration::ZERO,
    durable: true,
    read_rate: 150.0,
    search_start: 300.0,
};

/// Client connections (≤ nproc). The client itself is two threads, a
/// sender and a receiver.
fn connections() -> usize {
    nproc().min(2)
}

fn config(spec: &Spec, data_dir: &Path) -> ServeConfig {
    let defaults = ServeConfig::default();
    ServeConfig {
        threads: defaults.threads.min(nproc()),
        slide_pause: spec.slide_pause,
        durability: spec.durable.then(|| DurabilityConfig::new(data_dir)),
        ..defaults
    }
}

/// One GET over a fresh connection: `(status, body)`.
fn get(addr: SocketAddr, target: &str) -> std::io::Result<(u16, String)> {
    let mut c = TcpStream::connect(addr)?;
    c.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(
        c,
        "GET {target} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n"
    )?;
    let mut buf = Vec::new();
    c.read_to_end(&mut buf)?;
    let (status, body, _) = split_response(&buf)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "short response"))?;
    Ok((status, String::from_utf8_lossy(body).into_owned()))
}

/// A booted instance and what its set-up cost.
struct Booted {
    handle: ServerHandle,
    data_dir: PathBuf,
    setup_s: f64,
    init_push_s: f64,
}

/// Starts the server and waits for the first query to answer 200.
fn boot(inputs: &Inputs, spec: &Spec, work_dir: &Path, k: usize) -> std::io::Result<Booted> {
    let data_dir = work_dir.join(format!("{}-data-{}-{k}", spec.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let stream = inputs.stream.clone();
    let cfg = config(spec, &data_dir);
    let t = Instant::now();
    let handle = start(stream, INIT_FRACTION, &inputs.sources, cfg)?;
    let first = format!("/score?source={}&v=0", inputs.sources[0]);
    loop {
        if matches!(get(handle.addr(), &first), Ok((200, _))) {
            break;
        }
        if t.elapsed() > Duration::from_secs(60) {
            return Err(std::io::Error::other("no 200 answer within 60 s of start"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let setup_s = t.elapsed().as_secs_f64();
    // The bootstrap push is the engine time not spent in slides. The
    // write loop records a slide's histogram before adding it to
    // `update_nanos`, so reading the counter first never counts a
    // slide twice.
    let init_push_s = loop {
        let before = handle.metrics().push_wall.snapshot().sum;
        let engine = handle.stats().update_nanos.load(SeqCst);
        if handle.metrics().push_wall.snapshot().sum == before {
            break engine.saturating_sub(before) as f64 * 1e-9;
        }
    };
    Ok(Booted {
        handle,
        data_dir,
        setup_s,
        init_push_s,
    })
}

fn shutdown(b: Booted) -> dppr_serve::ServeReport {
    let report = b.handle.join();
    let _ = std::fs::remove_dir_all(&b.data_dir);
    report
}

/// Poll period of the server's stage histograms; shorter than any slide.
const POLL: Duration = Duration::from_millis(2);

/// Exact per-slide stage times, read off the server's own histograms by
/// polling their count and sum every [`POLL`]: between two polls at most
/// one slide completes, so the sum's delta is that slide's time.
#[derive(Default)]
struct StageSeries {
    /// `(seen at, ms)` per slide: whole slide, apply, publish, WAL append.
    stages: [Vec<(Instant, f64)>; 4],
}

impl StageSeries {
    fn within(&self, stage: usize, from: Instant, to: Instant) -> Vec<f64> {
        self.stages[stage]
            .iter()
            .filter(|(t, _)| *t >= from && *t <= to)
            .map(|(_, v)| *v)
            .collect()
    }
}

const SLIDE: usize = 0;
const APPLY: usize = 1;
const PUBLISH: usize = 2;
const WAL: usize = 3;

/// The polling thread behind [`StageSeries`].
struct Poller {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<StageSeries>,
}

impl Poller {
    fn start(handle: &ServerHandle) -> Poller {
        let m = handle.metrics();
        let hists: [Arc<Histogram>; 4] = [
            Arc::clone(&m.slide_apply),
            Arc::clone(&m.push_wall),
            Arc::clone(&m.snapshot_publish),
            Arc::clone(&m.wal_append),
        ];
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let read = |h: &Histogram| {
                let s = h.snapshot();
                (s.count, s.sum)
            };
            let mut last: Vec<(u64, u64)> = hists.iter().map(|h| read(h)).collect();
            let mut series = StageSeries::default();
            while !flag.load(SeqCst) {
                std::thread::sleep(POLL);
                let now = Instant::now();
                for (k, h) in hists.iter().enumerate() {
                    let (c, s) = read(h);
                    let (dc, ds) = (c - last[k].0, s - last[k].1);
                    last[k] = (c, s);
                    let v = &mut series.stages[k];
                    if dc == 0 && ds > 0 {
                        // The poll landed between a record's count and sum
                        // updates; the late sum belongs to the last slide.
                        if let Some(x) = v.last_mut() {
                            x.1 += ds as f64 * 1e-6;
                        }
                    }
                    for _ in 0..dc {
                        v.push((now, ds as f64 * 1e-6 / dc as f64));
                    }
                }
            }
            series
        });
        Poller { stop, thread }
    }

    fn finish(self) -> StageSeries {
        self.stop.store(true, SeqCst);
        self.thread.join().expect("poller thread panicked")
    }
}

/// The cumulative engine counters and slide count from `/stats`.
fn engine_stats(addr: SocketAddr) -> Result<(CounterSnapshot, u64), String> {
    let (status, body) = get(addr, "/stats").map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("/stats answered {status}"));
    }
    let v = json::parse(&body)?;
    let e = v.get("engine").ok_or("no engine block")?;
    let f = |k: &str| e.num_at(k).map(|x| x as u64);
    let c = CounterSnapshot {
        pushes: f("pushes")?,
        edge_traversals: f("edge_traversals")?,
        atomic_adds: f("atomic_adds")?,
        cas_retries: f("cas_retries")?,
        enqueued: f("enqueued")?,
        dup_avoided: f("dup_avoided")?,
        iterations: f("iterations")?,
        max_frontier: f("max_frontier")?,
        frontier_total: f("frontier_total")?,
        restore_ops: f("restore_ops")?,
        batches: f("batches")?,
    };
    Ok((
        c,
        v.get("slides").and_then(Value::num).ok_or("no slides")? as u64,
    ))
}

pub fn run(args: &Args, inputs: &Inputs, spec: &Spec) -> Outcome {
    let mut out = Outcome::new(spec.name, Vec::new());
    let mut booted = None;
    let mut init_push = Vec::new();
    for k in 0..crate::SETUPS {
        if let Some(b) = booted.take() {
            shutdown(b);
        }
        match boot(inputs, spec, &args.work_dir, k) {
            Ok(b) => {
                out.setups_s.push(b.setup_s);
                init_push.push(b.init_push_s);
                booted = Some(b);
            }
            Err(e) => {
                out.invalid = Some(format!("server failed to start: {e}"));
                return out;
            }
        }
    }
    let b = booted.expect("at least one set-up");
    out.meta_num("slide_pause_ms", spec.slide_pause.as_secs_f64() * 1e3);
    let durability = if spec.durable {
        "wal+checkpoints (DurabilityConfig::new)"
    } else {
        "off"
    };
    out.meta_str("durability", durability);
    out.meta_num(
        "server_threads",
        config(spec, Path::new(".")).threads as f64,
    );
    out.meta_num("client_connections", connections() as f64);
    out.meta_num("client_threads", 2.0);
    let load = Load {
        args,
        inputs,
        addr: b.handle.addr(),
        origin: Instant::now(),
    };
    let replays = if args.trace {
        Some(traced(
            &mut out,
            &load,
            spec,
            &b,
            median(&init_push).unwrap_or(0.0),
        ))
    } else {
        untraced(&mut out, &load, spec, &b);
        None
    };
    if b.handle.stats().degraded.load(SeqCst) {
        out.errors
            .push("the server degraded to read-only (WAL failure)".into());
        out.failed += 1;
    }
    let request_us_mean = b.handle.metrics().http_request.snapshot().mean() * 1e-3;
    let report = shutdown(b);
    out.meta_num("server_slides", report.slides as f64);
    out.meta_num("server_shed", report.shed as f64);
    out.meta_num("server_cache_hit_rate", report.cache.hit_rate());
    out.meta_num("server_checkpoints", report.checkpoints as f64);
    out.meta_num("server_request_us_mean", request_us_mean);
    if let Some(r) = replays {
        r.run(&mut out, &load);
    }
    out
}

/// The query load against one booted server.
struct Load<'a> {
    args: &'a Args,
    inputs: &'a Inputs,
    addr: SocketAddr,
    origin: Instant,
}

impl Load<'_> {
    fn phase(&self, rate: f64, d: Duration, tracer: &mut Tracer) -> PhaseOut {
        let (a, i) = (self.args, self.inputs);
        run_http(
            self.addr,
            connections(),
            a.seed,
            &i.sources,
            1 << SCALE,
            rate,
            d,
            tracer,
        )
    }

    fn untraced_phase(&self, rate: f64, d: Duration) -> PhaseOut {
        self.phase(rate, d, &mut Tracer::new(false, self.origin))
    }
}

/// End-to-end run: the fixed-rate phase, then the `qps_at_slo` search.
fn untraced(out: &mut Outcome, load: &Load, spec: &Spec, b: &Booted) {
    let stats = b.handle.stats();
    let secs = Duration::from_secs_f64(load.args.seconds);
    let poller = Poller::start(&b.handle);
    let t0 = Instant::now();
    let reads = load.untraced_phase(spec.read_rate, secs);
    let t1 = Instant::now();
    out.guard_dry(stats.stream_done.load(SeqCst));
    let mut search_counts = PhaseOut::default();
    let search = search_qps_at_slo(spec.search_start, |r| {
        let step = load.untraced_phase(r, crate::search_step(load.args.seconds));
        search_counts.attempted += step.attempted;
        search_counts.answers.extend(step.answers.iter().cloned());
        step
    });
    out.guard_dry(stats.stream_done.load(SeqCst));
    let series = poller.finish();
    let slide_ms = series.within(SLIDE, t0, t1);
    // The stream is directed: each slide offers BATCH insertions and
    // BATCH deletions.
    let published: Vec<(Instant, f64)> = series.stages[SLIDE]
        .iter()
        .map(|&(t, _)| (t, (2 * BATCH) as f64))
        .collect();
    let rate = windowed_rate(t0, t1, &published, Duration::from_secs(1));
    out.guard_late(&reads);
    out.e2e_write(rate.unwrap_or(f64::NAN), &slide_ms);
    out.e2e_read(&reads, search.0);
    out.meta.push(("qps_search", steps_json(&search.1)));
    out.attempted += slide_ms.len() as u64;
    out.add_reads(reads);
    out.add_reads(search_counts);
}

/// Per-layer run: the fixed-rate phase untraced, then traced. Returns
/// what the replays need.
fn traced(out: &mut Outcome, load: &Load, spec: &Spec, b: &Booted, init_push_s: f64) -> Replays {
    let stats = b.handle.stats();
    let secs = Duration::from_secs_f64(load.args.seconds);
    let poller = Poller::start(&b.handle);
    let plain = load.untraced_phase(spec.read_rate, secs);
    let before = engine_stats(load.addr);
    let (cache0, shed0) = (b.handle.cache().stats(), stats.shed.load(Relaxed));
    let mut tracer = Tracer::new(true, load.origin);
    let t0 = Instant::now();
    let traced = load.phase(spec.read_rate, secs, &mut tracer);
    let t1 = Instant::now();
    let (cache1, shed1) = (b.handle.cache().stats(), stats.shed.load(Relaxed));
    let after = engine_stats(load.addr);
    out.guard_dry(stats.stream_done.load(SeqCst));
    out.guard_late(&plain);
    out.guard_late(&traced);
    let series = poller.finish();
    let wall_s = (t1 - t0).as_secs_f64();
    let [slide_ms, apply_ms, publish_ms, wal_ms] =
        [SLIDE, APPLY, PUBLISH, WAL].map(|k| series.within(k, t0, t1));

    let mut layers = Layers::default();
    let reader = b.handle.registry().domain().register_reader();
    let snapshots: Vec<Arc<QuerySnapshot>> = load
        .inputs
        .sources
        .iter()
        .map(|&s| {
            b.handle
                .registry()
                .lookup(s)
                .expect("session open")
                .load(&reader)
        })
        .collect();
    drop(reader);
    let (counters, slides) = match (before, after) {
        (Ok((c0, s0)), Ok((c1, s1))) => (c1 - c0, s1 - s0),
        (Err(e), _) | (_, Err(e)) => {
            out.errors.push(format!("/stats: {e}"));
            out.failed += 1;
            (CounterSnapshot::default(), 0)
        }
    };
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let snapshot_bytes: usize = snapshots.iter().map(|s| s.len() * size_of::<f64>()).sum();
    layers.write_path(
        &apply_ms,
        sum(&apply_ms) / (wall_s * 1e3),
        &counters,
        slides,
        init_push_s,
        &publish_ms,
        snapshot_bytes as f64,
    );
    // Closure of the server's slide: apply + publish + WAL append
    // against the slide's own timer.
    let residual = sum(&slide_ms) - sum(&apply_ms) - sum(&publish_ms) - sum(&wal_ms);
    layers.push(
        "closure.residual_ms_per_slide",
        "ms",
        residual / slide_ms.len().max(1) as f64,
    );
    layers.push(
        "closure.residual_share",
        "ratio",
        residual / sum(&slide_ms).max(1e-9),
    );
    let overhead = traced.p(&traced.sched_ms, 50.0) - plain.p(&plain.sched_ms, 50.0);
    layers.push("trace.overhead_ms", "ms", overhead);
    let (hits, misses) = (cache1.hits - cache0.hits, cache1.misses - cache0.misses);
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    let shed_ratio = (shed1 - shed0) as f64 / traced.attempted.max(1) as f64;
    layers.read_client(&traced, hit_ratio, shed_ratio);
    out.meta_str("trace_file", &crate::write_trace(load.args, &tracer));
    out.attempted += slide_ms.len() as u64;
    let pending = Replays {
        layers,
        snapshots,
        slides: stats.slides.load(SeqCst) as usize,
        slide_rate: slide_ms.len() as f64 / wall_s,
        hit_ratio,
        request_ms_mean: mean0(&traced.service_ms),
    };
    out.add_reads(plain);
    out.add_reads(traced);
    pending
}

/// What the per-layer replays of a traced server run need. They run
/// after the server has stopped, so its write loop does not contend
/// with them.
struct Replays {
    layers: Layers,
    /// The sessions' final snapshots.
    snapshots: Vec<Arc<QuerySnapshot>>,
    slides: usize,
    slide_rate: f64,
    hit_ratio: f64,
    request_ms_mean: f64,
}

impl Replays {
    fn run(mut self, out: &mut Outcome, load: &Load) {
        let domain = EpochDomain::new(2);
        let registry = SessionRegistry::new(Arc::clone(&domain), self.snapshots.len());
        for snap in self.snapshots {
            registry.open(snap.source(), snap);
        }
        let replay = Replay {
            stream: &load.inputs.stream,
            slides: self.slides,
            slide_rate: self.slide_rate,
            registry: &registry,
            sources: &load.inputs.sources,
            seed: load.args.seed,
        };
        let layers = &mut self.layers;
        let slide_batch_us = replay.graph_and_stream(layers);
        layers.push("stream.slide_batch_us", "us", slide_batch_us);
        let rp = replay.read_path(layers);
        let in_path_us =
            rp.parse_us + rp.load_us + (1.0 - self.hit_ratio) * rp.body_us + rp.render_us;
        layers.push(
            "serve.residual_ms",
            "ms",
            self.request_ms_mean - in_path_us * 1e-3,
        );
        if let Err(e) = replay.wal(layers, &load.args.work_dir) {
            out.errors.push(format!("WAL replay failed: {e}"));
            out.failed += 1;
        }
        out.layers = Some(self.layers);
    }
}
