//! Per-layer replays: the run's own inputs fed again to one layer's
//! public functions in isolation — the graph substrate, the stream
//! window, the WAL, and the read path's parse / load / kernel / render.

use crate::inputs::{mix, BATCH, INIT_FRACTION, SCALE};
use crate::query::{render_body, run_kernel, Query, QueryGen, KINDS};
use crate::report::Layers;
use dppr_graph::{DynamicGraph, GraphStream, VertexId};
use dppr_serve::http::{render_response, try_parse, Parsed, Response};
use dppr_serve::{DurabilityConfig, SessionRegistry};
use dppr_stream::StreamDriver;
use dppr_wal::{Wal, WalOptions, WalRecord};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Queries replayed through the read-path layers.
const READ_REPLAY: usize = 4000;
/// Longest WAL replay.
const WAL_REPLAY: Duration = Duration::from_secs(1);

/// What a replay needs to know about the run.
pub struct Replay<'a> {
    pub stream: &'a GraphStream,
    /// Slides the run made.
    pub slides: usize,
    /// Slides per second the run sustained (paces the WAL replay).
    pub slide_rate: f64,
    /// The run's published sessions.
    pub registry: &'a SessionRegistry,
    pub sources: &'a [VertexId],
    pub seed: u64,
}

/// Mean per-call times of the read-path layers, in µs.
pub struct ReadPath {
    pub parse_us: f64,
    pub load_us: f64,
    /// Kernel plus JSON body, averaged over the query mix.
    pub body_us: f64,
    pub render_us: f64,
}

impl Replay<'_> {
    /// Replays the run's slides: the window through
    /// `StreamDriver::slide_batch`, each batch into a standalone
    /// `DynamicGraph::apply`. Pushes the graph metrics and returns the
    /// mean `slide_batch` time in µs.
    pub fn graph_and_stream(&self, layers: &mut Layers) -> f64 {
        let mut driver = StreamDriver::new(self.stream.clone(), INIT_FRACTION);
        let mut graph = DynamicGraph::new();
        for u in driver.take_initial_batch() {
            graph.apply(u);
        }
        let (mut stream_ns, mut graph_ns, mut offered, mut applied) = (0u128, 0u128, 0u64, 0u64);
        for _ in 0..self.slides {
            let t = Instant::now();
            let Some(batch) = driver.slide_batch(BATCH) else {
                break;
            };
            let t1 = Instant::now();
            for &u in &batch {
                applied += u64::from(graph.apply(u));
            }
            graph_ns += t1.elapsed().as_nanos();
            stream_ns += (t1 - t).as_nanos();
            offered += batch.len() as u64;
        }
        layers.push(
            "graph.apply_ns_per_update",
            "ns",
            graph_ns as f64 / offered.max(1) as f64,
        );
        layers.push(
            "graph.applied_ratio",
            "ratio",
            applied as f64 / offered.max(1) as f64,
        );
        stream_ns as f64 * 1e-3 / self.slides.max(1) as f64
    }

    /// Appends the run's batches to a fresh WAL under the server's
    /// default durability settings, paced at the run's slide rate.
    pub fn wal(&self, layers: &mut Layers, work_dir: &Path) -> std::io::Result<()> {
        let dir = work_dir.join(format!("wal-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let defaults = DurabilityConfig::new(&dir);
        let opts = WalOptions {
            segment_bytes: defaults.segment_bytes,
            fsync: defaults.fsync,
        };
        let (mut wal, _) = Wal::open(&dir, opts)?;
        let mut driver = StreamDriver::new(self.stream.clone(), INIT_FRACTION);
        driver.take_initial_batch();
        let rate = self.slide_rate.clamp(1.0, 1000.0);
        let n = self
            .slides
            .min((rate * WAL_REPLAY.as_secs_f64()).ceil() as usize)
            .max(1);
        let mut append_ms = Vec::with_capacity(n);
        let start = Instant::now();
        for k in 0..n {
            let Some(updates) = driver.slide_batch(BATCH) else {
                break;
            };
            let due = start + Duration::from_secs_f64(k as f64 / rate);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let (ws, we) = driver.window_range();
            let rec = WalRecord::Batch {
                epoch: k as u64 + 2,
                window_start: ws as u64,
                window_end: we as u64,
                updates,
            };
            let t = Instant::now();
            wal.append(&rec)?;
            append_ms.push(t.elapsed().as_nanos() as f64 * 1e-6);
        }
        let wall = start.elapsed().as_secs_f64();
        let st = wal.stats();
        drop(wal);
        std::fs::remove_dir_all(&dir)?;
        let appends = append_ms.len().max(1) as f64;
        layers.push(
            "wal.append_ms_p50",
            "ms",
            crate::stats::median(&append_ms).unwrap_or(0.0),
        );
        layers.push(
            "wal.bytes_per_slide",
            "bytes",
            st.bytes_written as f64 / appends,
        );
        layers.push("wal.syncs_per_s", "1/s", st.syncs as f64 / wall);
        layers.push(
            "wal.sync_ms_mean",
            "ms",
            st.sync_nanos as f64 * 1e-6 / st.syncs.max(1) as f64,
        );
        Ok(())
    }

    /// Replays the query mix through `http::try_parse`, the epoch load,
    /// each `QuerySnapshot` kernel and `render_response`, on the run's
    /// final snapshots. Pushes the per-layer times and returns them.
    pub fn read_path(&self, layers: &mut Layers) -> ReadPath {
        let reader = self.registry.domain().register_reader();
        let mut gen = QueryGen::new(mix(self.seed, 20), self.sources, 1 << SCALE);
        let queries: Vec<Query> = (0..READ_REPLAY).map(|_| gen.next_query()).collect();
        let per_call =
            |t: Instant, n: usize| t.elapsed().as_nanos() as f64 * 1e-3 / n.max(1) as f64;

        let heads: Vec<Vec<u8>> = queries
            .iter()
            .map(|q| format!("GET {} HTTP/1.1\r\nHost: perfbench\r\n\r\n", q.target()).into_bytes())
            .collect();
        let t = Instant::now();
        for h in &heads {
            let parsed = try_parse(black_box(h)).expect("the replayed requests are well formed");
            assert!(
                matches!(parsed, Parsed::Complete { .. }),
                "a full head parses completely"
            );
        }
        let parse_us = per_call(t, heads.len());

        let entries: Vec<_> = queries
            .iter()
            .map(|q| {
                self.registry
                    .lookup(q.source())
                    .expect("every session is open")
            })
            .collect();
        let t = Instant::now();
        let snaps: Vec<_> = entries.iter().map(|e| e.load(&reader)).collect();
        let load_us = per_call(t, snaps.len());

        for (k, name) in KINDS.iter().enumerate() {
            let mine: Vec<usize> = (0..queries.len())
                .filter(|&i| queries[i].kind_index() == k)
                .collect();
            let t = Instant::now();
            for &i in &mine {
                black_box(run_kernel(&snaps[i], &queries[i]));
            }
            let us = per_call(t, mine.len());
            layers.push(kernel_metric(name), "us", us);
        }

        let t = Instant::now();
        let bodies: Vec<String> = queries
            .iter()
            .zip(&snaps)
            .map(|(q, s)| render_body(s, q))
            .collect();
        let body_us = per_call(t, bodies.len());
        let responses: Vec<Response> = bodies.into_iter().map(|b| Response::new(200, b)).collect();
        let mut out = Vec::with_capacity(1 << 14);
        let t = Instant::now();
        for r in &responses {
            out.clear();
            render_response(&mut out, black_box(r), true);
            black_box(&out);
        }
        let render_us = per_call(t, responses.len());

        layers.push("serve.http.parse_us", "us", parse_us);
        layers.push("serve.epoch.load_us", "us", load_us);
        layers.push("serve.http.render_us", "us", render_us);
        ReadPath {
            parse_us,
            load_us,
            body_us,
            render_us,
        }
    }
}

fn kernel_metric(kind: &str) -> &'static str {
    match kind {
        "topk" => "serve.query.topk_us",
        "score" => "serve.query.score_us",
        "threshold" => "serve.query.threshold_us",
        _ => "serve.query.compare_us",
    }
}
