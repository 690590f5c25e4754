//! `slide`: the in-process update path, back to back, with no HTTP and
//! no WAL — `StreamDriver::slide_batch` → `MultiSourcePpr::apply_batch`
//! → `QuerySnapshot::from_state` + `SnapshotCell::publish` per session —
//! then, with the writer idle, an in-process reader runs the server's
//! request path without sockets over the published snapshots.

use crate::inputs::{mix, Inputs, ALPHA, BATCH, EPSILON, INIT_FRACTION, SCALE};
use crate::openloop::{run_inproc, search_qps_at_slo, InprocPath, PhaseOut, KERNEL_SPANS};
use crate::query::QueryGen;
use crate::report::{mean0, steps_json, Layers, Outcome};
use crate::stats::{median, windowed_rate};
use crate::trace::{layer_totals, Tracer};
use crate::Args;
use dppr_core::{CounterSnapshot, MultiSourcePpr, PushVariant};
use dppr_serve::{EpochDomain, QueryCache, QuerySnapshot, Reader, ServeConfig, SessionRegistry};
use dppr_stream::StreamDriver;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rate of the in-process reader in its fixed-rate phase.
pub const READ_RATE: f64 = 500.0;
/// First rate the in-process `qps_at_slo` search tries.
const SEARCH_START: f64 = 1500.0;

/// The program as the slide workload hosts it.
struct Rig {
    driver: StreamDriver,
    multi: MultiSourcePpr,
    domain: Arc<EpochDomain>,
    path: InprocPath,
}

/// Set-up: window bootstrap, initial push, epoch 1 published. Returns the
/// rig, the whole set-up time and the initial push time.
fn setup(inputs: &Inputs) -> (Rig, f64, f64) {
    let stream = inputs.stream.clone();
    let t = Instant::now();
    let mut driver = StreamDriver::new(stream, INIT_FRACTION);
    let mut multi = MultiSourcePpr::new(&inputs.sources, ALPHA, EPSILON, PushVariant::OPT);
    let init = driver.take_initial_batch();
    let tp = Instant::now();
    multi.apply_batch(driver.graph_mut(), &init);
    let init_push = tp.elapsed().as_secs_f64();
    let domain = EpochDomain::new(4);
    let registry = Arc::new(SessionRegistry::new(
        Arc::clone(&domain),
        inputs.sources.len(),
    ));
    let epoch = domain.advance();
    for i in 0..multi.num_sources() {
        registry.open(
            multi.source(i),
            Arc::new(QuerySnapshot::from_state(multi.state(i), epoch)),
        );
    }
    let cache = Arc::new(QueryCache::new(ServeConfig::default().cache_capacity));
    let rig = Rig {
        driver,
        multi,
        domain,
        path: InprocPath { registry, cache },
    };
    (rig, t.elapsed().as_secs_f64(), init_push)
}

/// What the writer measured in one phase.
struct WriterOut {
    slide_ms: Vec<f64>,
    /// `(published at, updates)` per slide.
    published: Vec<(Instant, f64)>,
    start: Instant,
    wall_s: f64,
    counters: CounterSnapshot,
    publish_bytes: u64,
    tracer: Option<Tracer>,
    dry: bool,
}

/// Slides back to back for `duration`, recording each slide and, with
/// a tracer, the layer spans inside it.
fn write_phase(rig: &mut Rig, duration: Duration, mut tracer: Option<Tracer>) -> WriterOut {
    let c0 = rig.multi.counters().snapshot();
    let t_phase = Instant::now();
    let mut out = WriterOut {
        slide_ms: Vec::new(),
        // The phase start opens the first slide's interval.
        published: vec![(t_phase, 0.0)],
        start: t_phase,
        wall_s: 0.0,
        counters: CounterSnapshot::default(),
        publish_bytes: 0,
        tracer: None,
        dry: false,
    };
    let mut id = 0u64;
    while t_phase.elapsed() < duration {
        let t0 = Instant::now();
        let Some(batch) = rig.driver.slide_batch(BATCH) else {
            out.dry = true;
            break;
        };
        let t1 = Instant::now();
        rig.multi.apply_batch(rig.driver.graph_mut(), &batch);
        let t2 = Instant::now();
        let epoch = rig.domain.advance();
        let mut bytes = 0u64;
        for i in 0..rig.multi.num_sources() {
            let snap = QuerySnapshot::from_state(rig.multi.state(i), epoch);
            bytes += (snap.len() * std::mem::size_of::<f64>()) as u64;
            if let Some(entry) = rig.path.registry.peek(rig.multi.source(i)) {
                entry.publish(&rig.domain, Arc::new(snap));
            }
        }
        let t3 = Instant::now();
        out.slide_ms.push((t3 - t0).as_nanos() as f64 * 1e-6);
        out.published.push((t3, batch.len() as f64));
        out.publish_bytes += bytes;
        if let Some(tr) = tracer.as_mut() {
            let root = tr.record("slide", id, None, t0, t3);
            tr.record("stream.slide_batch", id, root, t0, t1);
            tr.record("core.apply_batch", id, root, t1, t2);
            tr.record("serve.publish", id, root, t2, t3);
            let h = tr.begin("harness", id, root);
            drop(batch);
            tr.end(h);
        }
        id += 1;
    }
    out.wall_s = t_phase.elapsed().as_secs_f64();
    out.counters = rig.multi.counters().snapshot() - c0;
    out.tracer = tracer;
    out
}

pub fn run(args: &Args, inputs: &Inputs) -> Outcome {
    let mut setups = Vec::new();
    let mut init_push = Vec::new();
    let mut rig = None;
    for _ in 0..crate::SETUPS {
        drop(rig.take()); // tear the previous instance down before the next boots
        let (r, s, ip) = setup(inputs);
        setups.push(s);
        init_push.push(ip);
        rig = Some(r);
    }
    let mut rig = rig.expect("at least one set-up");
    let mut out = Outcome::new("slide", setups);
    out.meta_num("read_rate_per_s", READ_RATE);
    out.meta_str(
        "read_path",
        "in process, after the slides: try_parse, lookup, SnapshotCell::load, QueryCache, \
         kernel, render_response",
    );
    let mut reads = Reads {
        gen: QueryGen::new(mix(args.seed, 10), &inputs.sources, 1 << SCALE),
        reader: rig.path.registry.domain().register_reader(),
        origin: Instant::now(),
    };
    if args.trace {
        traced(
            &mut out,
            args,
            inputs,
            &mut rig,
            &mut reads,
            median(&init_push).unwrap_or(0.0),
        );
    } else {
        untraced(&mut out, args, &mut rig, &mut reads);
    }
    out
}

/// The in-process reader's state across phases.
struct Reads {
    gen: QueryGen,
    reader: Reader,
    origin: Instant,
}

impl Reads {
    fn phase(&mut self, rig: &Rig, rate: f64, d: Duration, tracer: &mut Tracer) -> PhaseOut {
        run_inproc(&rig.path, &self.reader, &mut self.gen, rate, d, tracer)
    }

    fn untraced_phase(&mut self, rig: &Rig, rate: f64, d: Duration) -> PhaseOut {
        let mut off = Tracer::new(false, self.origin);
        self.phase(rig, rate, d, &mut off)
    }
}

/// End-to-end run: slides, the fixed-rate reads, the `qps_at_slo` search.
fn untraced(out: &mut Outcome, args: &Args, rig: &mut Rig, reads: &mut Reads) {
    let secs = Duration::from_secs_f64(args.seconds);
    let w = write_phase(rig, secs, None);
    out.guard_dry(w.dry);
    let fixed = reads.untraced_phase(rig, READ_RATE, secs);
    let mut search_counts = PhaseOut::default();
    let search = search_qps_at_slo(SEARCH_START, |r| {
        let step = reads.untraced_phase(rig, r, crate::search_step(args.seconds));
        search_counts.attempted += step.attempted;
        search_counts.answers.extend(step.answers.iter().cloned());
        step
    });
    // The in-process reader executes its own schedule, so its lateness is
    // the program's queueing, not a generator fault: the lateness guard
    // applies to the HTTP generator only.
    let end = w.start + Duration::from_secs_f64(w.wall_s);
    let rate = windowed_rate(w.start, end, &w.published, Duration::from_secs(1));
    out.e2e_write(rate.unwrap_or(f64::NAN), &w.slide_ms);
    out.e2e_read(&fixed, search.0);
    out.meta.push(("qps_search", steps_json(&search.1)));
    out.attempted += w.slide_ms.len() as u64;
    out.add_reads(fixed);
    out.add_reads(search_counts);
}

/// Per-layer run: each phase untraced, then the same phase traced, then
/// the replays.
fn traced(
    out: &mut Outcome,
    args: &Args,
    inputs: &Inputs,
    rig: &mut Rig,
    reads: &mut Reads,
    init_push_s: f64,
) {
    let secs = Duration::from_secs_f64(args.seconds);
    let plain = write_phase(rig, secs, None);
    let traced = write_phase(rig, secs, Some(Tracer::new(true, reads.origin)));
    out.guard_dry(plain.dry || traced.dry);
    let plain_reads = reads.untraced_phase(rig, READ_RATE, secs);
    let mut tracer = traced.tracer.expect("the second phase is traced");
    let cache0 = rig.path.cache.stats();
    let traced_reads = reads.phase(rig, READ_RATE, secs, &mut tracer);
    let cache1 = rig.path.cache.stats();
    let totals = layer_totals(tracer.spans());
    let slides = traced.slide_ms.len() as u64;
    let per_slide = |x: f64| x / slides.max(1) as f64;
    let total_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 * 1e-6);
    let durations = |name: &str| {
        totals
            .get(name)
            .map(|t| t.durations_ms.clone())
            .unwrap_or_default()
    };

    let mut layers = Layers::default();
    layers.push(
        "stream.slide_batch_us",
        "us",
        per_slide(total_ms("stream.slide_batch") * 1e3),
    );
    layers.write_path(
        &durations("core.apply_batch"),
        total_ms("core.apply_batch") / (traced.wall_s * 1e3),
        &traced.counters,
        slides,
        init_push_s,
        &durations("serve.publish"),
        per_slide(traced.publish_bytes as f64),
    );
    // Closure: stream + core + publish + harness against the phase's wall.
    let accounted: f64 = [
        "stream.slide_batch",
        "core.apply_batch",
        "serve.publish",
        "harness",
    ]
    .iter()
    .map(|n| total_ms(n))
    .sum();
    let wall_ms = traced.wall_s * 1e3;
    layers.push(
        "closure.residual_ms_per_slide",
        "ms",
        per_slide(wall_ms - accounted),
    );
    layers.push(
        "closure.residual_share",
        "ratio",
        (wall_ms - accounted) / wall_ms,
    );
    let overhead = median(&traced.slide_ms).unwrap_or(0.0) - median(&plain.slide_ms).unwrap_or(0.0);
    layers.push("trace.overhead_ms", "ms", overhead);
    let (hits, misses) = (cache1.hits - cache0.hits, cache1.misses - cache0.misses);
    layers.read_client(
        &traced_reads,
        hits as f64 / (hits + misses).max(1) as f64,
        0.0,
    );
    // The in-process path is parse + epoch load + kernel + render; what
    // the spans do not cover (lookup, cache, bookkeeping) is the residual.
    let served = traced_reads.service_ms.len().max(1) as f64;
    let in_path: f64 = ["serve.http.parse", "serve.epoch.load", "serve.http.render"]
        .iter()
        .chain(KERNEL_SPANS.iter())
        .map(|n| total_ms(n))
        .sum::<f64>()
        / served;
    layers.push(
        "serve.residual_ms",
        "ms",
        mean0(&traced_reads.service_ms) - in_path,
    );

    let replay = crate::replay::Replay {
        stream: &inputs.stream,
        slides: plain.slide_ms.len() + traced.slide_ms.len(),
        slide_rate: slides as f64 / traced.wall_s,
        registry: &rig.path.registry,
        sources: &inputs.sources,
        seed: args.seed,
    };
    replay.graph_and_stream(&mut layers);
    if let Err(e) = replay.wal(&mut layers, &args.work_dir) {
        out.errors.push(format!("WAL replay failed: {e}"));
        out.failed += 1;
    }
    replay.read_path(&mut layers);
    out.layers = Some(layers);
    out.meta_str("trace_file", &crate::write_trace(args, &tracer));
    out.attempted += (plain.slide_ms.len() + traced.slide_ms.len()) as u64;
    out.add_reads(plain_reads);
    out.add_reads(traced_reads);
}
