//! The serving instance: write loop + acceptor + event-loop shards.
//!
//! ```text
//!                     ┌────────────────────────────────────────────┐
//!  edge stream ──────▶│ write loop (owns StreamDriver+MultiSource) │
//!                     │  slide → apply batch → advance epoch ──────┼──▶ publish
//!                     └────────────▲───────────────────────────────┘    per-session
//!                                  │ control (open/close)               SnapshotCell
//!  TCP clients ──▶ acceptor ──▶ shard event loops ── lookup ──▶ registry
//!                  (bounded        │ poll(2), keep-alive,          │
//!                   hand-off,      │ per-conn state machines       └─▶ lock-free load
//!                   503 shed)      └── epoch-keyed QueryCache          of Arc<QuerySnapshot>
//! ```
//!
//! Readers never hold a lock while the writer works: a query takes one
//! brief `RwLock` read to find the session, then loads the published
//! snapshot lock-free ([`crate::SnapshotCell::load`]). Session open/close
//! requests travel over a channel and are applied by the write loop
//! *between* batches, which is what keeps `MultiSourcePpr`'s mutable state
//! single-threaded.
//!
//! The front end is event-driven (see [`crate::event`]): each shard
//! thread owns its connections and multiplexes them with `poll(2)`, so a
//! keep-alive client costs one registration instead of one thread, a
//! non-reading client is bounded by the write deadline instead of
//! pinning a worker, and overload surfaces as fast `503 Retry-After`
//! responses instead of an unbounded backlog.

use crate::cache::{CacheStats, QueryCache, QueryKind};
use crate::catalog;
use crate::durability::{self, DurabilityConfig, RecoveryReport};
use crate::epoch::{EpochDomain, Reader};
use crate::event::{spawn_shard, ConnCounters, Router, ShardConfig, ShardGate, ShardHandle};
use crate::http::{render_response, Request, Response};
use crate::json::{error_body, JsonBuf};
use crate::metrics::{ServerMetrics, WriteShardStages};
use crate::registry::{OpenOutcome, SessionRegistry};
use crate::snapshot::QuerySnapshot;
use dppr_core::queries::BoundedScore;
use dppr_core::{CounterSnapshot, MultiSourcePpr, PprState, PushVariant};
use dppr_graph::{GraphStream, SubstrateStats, VertexId};
use dppr_obs::{Gauge, LocalHistogram, PromText};
use dppr_stream::StreamDriver;
use dppr_wal::{Wal, WalOptions, WalRecord, WalStats};
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::mpsc::{self, sync_channel, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `Content-Type` of the Prometheus text exposition format.
const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Tuning for one serving instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP port to bind on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// Event-loop shard threads.
    pub threads: usize,
    /// Query-cache capacity in entries (0 disables the cache).
    pub cache_capacity: usize,
    /// Session budget; opening past it evicts the LRU session.
    pub session_capacity: usize,
    /// Teleport probability α.
    pub alpha: f64,
    /// Accuracy ε of every maintained vector.
    pub epsilon: f64,
    /// Window-slide batch size (logical edges per slide).
    pub batch: usize,
    /// Stop sliding after this many slides (0 = run the stream dry).
    pub max_slides: usize,
    /// Optional pause between slides, to throttle the update stream.
    pub slide_pause: Duration,
    /// Close a connection that completes no request for this long
    /// (keep-alive idle limit and slow-request limit in one).
    pub read_timeout: Duration,
    /// Close a connection whose peer stops draining responses for this
    /// long — a non-reading client must not pin server state forever.
    pub write_timeout: Duration,
    /// Shed query traffic with `503 Retry-After` while a window slide has
    /// been in flight longer than this (the published epoch is lagging
    /// the stream). Zero disables shedding.
    pub shed_after: Duration,
    /// Bound on each shard's accept hand-off queue; with every queue
    /// full, new connections are answered `503 Retry-After` and closed.
    pub conn_backlog: usize,
    /// Durability: `Some` logs every slide batch to a WAL and
    /// checkpoints session states, so a crashed instance recovers by
    /// loading the newest checkpoint and replaying the log tail. `None`
    /// serves purely in memory (the previous behavior).
    pub durability: Option<DurabilityConfig>,
    /// Trace every Nth request and every Nth slide end-to-end into the
    /// in-memory trace ring (`GET /trace`). 0 disables tracing.
    pub trace_sample: u64,
    /// Capacity of the trace ring in events (oldest evicted first).
    pub trace_capacity: usize,
    /// Independent write loops (0 and 1 both mean unsharded). Sessions
    /// are partitioned by a stable hash of their source vertex
    /// ([`shard_of`]); each write shard owns its own engine, session
    /// registry, query cache, epoch domain, and (with durability on) its
    /// own WAL directory and checkpoints under `data_dir/shard-<i>/`.
    pub write_shards: usize,
    /// Accuracy auditing: recompute ground-truth PPR for up to this many
    /// live sessions per audit tick (round-robin across write shards)
    /// and report estimate error as `dppr_audit_*` families. 0 disables
    /// auditing (the observer still samples the metrics time-series).
    pub audit_sample: usize,
    /// Observer tick period: the audit cadence, the time-series sampling
    /// period, and the SLO burn-rate evaluation interval.
    pub audit_interval: Duration,
    /// Latency SLO: target p99 for `dppr_http_request_seconds` per
    /// observer tick. Breaching the fast burn window sheds query
    /// traffic and flips `/healthz` to degraded. Zero disables.
    pub slo_p99: Duration,
    /// Availability SLO target as a success fraction (e.g. 0.999): the
    /// shed ratio `shed/requests` burns against the `1 − target` error
    /// budget. Zero disables.
    pub slo_availability: f64,
    /// Accuracy SLO: minimum audited top-10 overlap (e.g. 0.9). Burns
    /// against the `1 − target` budget. Zero disables (and it only
    /// fires when auditing is on).
    pub slo_topk_overlap: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 0,
            threads: 4,
            cache_capacity: 1024,
            session_capacity: 64,
            alpha: 0.15,
            epsilon: 1e-4,
            batch: 500,
            max_slides: 0,
            slide_pause: Duration::ZERO,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            shed_after: Duration::from_secs(1),
            conn_backlog: 256,
            durability: None,
            trace_sample: 0,
            trace_capacity: 1024,
            write_shards: 1,
            audit_sample: 0,
            audit_interval: Duration::from_millis(500),
            slo_p99: Duration::ZERO,
            slo_availability: 0.0,
            slo_topk_overlap: 0.0,
        }
    }
}

/// Stable assignment of a session source to a write shard: a splitmix64
/// finalizer over the vertex id, reduced mod `write_shards`. The mapping
/// depends only on `(source, write_shards)`, so a session lands on the
/// same shard across restarts and across processes (the recovery
/// harness and the router must agree on it).
pub fn shard_of(source: VertexId, write_shards: usize) -> usize {
    if write_shards <= 1 {
        return 0;
    }
    let mut x = (source as u64) ^ 0x9e37_79b9_7f4a_7c15;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x % write_shards as u64) as usize
}

/// Where write shard `i` keeps its WAL + checkpoints. Unsharded
/// instances keep the historical layout (the root itself), so existing
/// durable directories stay recoverable; sharded instances get one
/// subdirectory per shard.
pub fn shard_data_dir(root: &Path, shard: usize, write_shards: usize) -> PathBuf {
    if write_shards <= 1 {
        root.to_path_buf()
    } else {
        root.join(format!("shard-{shard}"))
    }
}

/// Live counters of a serving instance (all monotone).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Window slides applied.
    pub slides: AtomicU64,
    /// Updates handed to the engine (inserts + deletes, arcs).
    pub updates_offered: AtomicU64,
    /// Updates that changed the graph.
    pub updates_applied: AtomicU64,
    /// Nanoseconds spent inside `apply_batch` (the paper's engine latency).
    pub update_nanos: AtomicU64,
    /// Query requests answered (any kind, any status).
    pub queries: AtomicU64,
    /// Query requests shed with 503 while the write loop lagged.
    pub shed: AtomicU64,
    /// Sessions opened over HTTP.
    pub sessions_opened: AtomicU64,
    /// Sessions closed over HTTP.
    pub sessions_closed: AtomicU64,
    /// Sessions evicted by the LRU budget.
    pub sessions_evicted: AtomicU64,
    /// Whether the update stream has been run dry.
    pub stream_done: AtomicBool,
    /// Checkpoints written successfully (initial + periodic + final).
    pub checkpoints: AtomicU64,
    /// Checkpoint attempts that failed (serving continues; the WAL tail
    /// keeps growing until one succeeds).
    pub checkpoint_failures: AtomicU64,
    /// True once a WAL append failed: the write loop has stopped sliding
    /// and the instance serves read-only from the last published epoch.
    pub degraded: AtomicBool,
    /// Why the instance degraded to read-only (the WAL error text);
    /// `None` while healthy. Surfaced by `/healthz`.
    pub degraded_reason: Mutex<Option<String>>,
}

impl ServerStats {
    /// Sustained update throughput (updates offered per second of engine
    /// time), the same quantity as `RunSummary::throughput`. Reports 0
    /// until the first slide completes — before that the counters hold
    /// only the bootstrap window, which is warmup, not sustained rate.
    pub fn updates_per_sec(&self) -> f64 {
        if self.slides.load(Relaxed) == 0 {
            return 0.0;
        }
        let secs = self.update_nanos.load(Relaxed) as f64 * 1e-9;
        if secs == 0.0 {
            0.0
        } else {
            self.updates_offered.load(Relaxed) as f64 / secs
        }
    }
}

/// Final numbers reported by [`ServerHandle::join`].
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Last published epoch.
    pub epoch: u64,
    /// Window slides applied.
    pub slides: u64,
    /// Updates handed to the engine.
    pub updates_offered: u64,
    /// Updates that changed the graph.
    pub updates_applied: u64,
    /// Update throughput while serving (updates/second of engine time).
    pub updates_per_sec: f64,
    /// Query requests answered.
    pub queries: u64,
    /// HTTP requests answered (all endpoints, all statuses).
    pub http_requests: u64,
    /// Connections accepted by the shards.
    pub connections: u64,
    /// Malformed/oversized requests answered 400.
    pub bad_requests: u64,
    /// Connections reaped by the read deadline.
    pub read_timeouts: u64,
    /// Connections reaped by the write deadline.
    pub write_timeouts: u64,
    /// Queries shed 503 while the write loop lagged.
    pub shed: u64,
    /// Cache counters.
    pub cache: CacheStats,
    /// Sessions open at shutdown.
    pub sessions: usize,
    /// Whether the update stream had been run dry.
    pub stream_done: bool,
    /// Whether a WAL failure forced read-only serving.
    pub degraded: bool,
    /// Epoch of the newest durable checkpoint (0 with durability off).
    /// Sharded instances report the minimum across shards — the epoch
    /// every shard is durable through.
    pub durable_epoch: u64,
    /// Checkpoints written over the instance lifetime (all shards).
    pub checkpoints: u64,
    /// Independent write loops this instance ran.
    pub write_shards: usize,
}

pub(crate) enum Control {
    Open(VertexId),
    Close(VertexId),
    /// Accuracy-audit probe from the observer thread: the owning write
    /// loop (between batches, so its graph matches the published epoch)
    /// clones the graph plus up to `max_sessions` sessions' published
    /// snapshots and live states into an [`AuditJob`] and replies. The
    /// expensive ground-truth solve happens on the observer thread.
    Audit { max_sessions: usize, reply: SyncSender<crate::audit::AuditJob> },
}

/// Everything one write shard owns: its epoch domain, session registry,
/// query cache, and the per-shard values the metric catalog
/// ([`crate::catalog`]) reads and merges across shards. The engine,
/// graph, and WAL live on the shard's writer thread; the mutexed
/// snapshots here are refreshed by that thread after every slide.
pub(crate) struct WriteShardState {
    pub(crate) index: usize,
    pub(crate) domain: Arc<EpochDomain>,
    pub(crate) registry: Arc<SessionRegistry>,
    pub(crate) cache: Arc<QueryCache>,
    /// Slides this shard applied (the global counter sums all shards).
    pub(crate) slides: AtomicU64,
    /// Start-relative nanos (+1) of this shard's in-flight slide; 0
    /// while idle. Shedding is per shard: only queries routed to a
    /// lagging shard are answered 503.
    pub(crate) slide_started_ns: AtomicU64,
    /// Whether this shard ran its stream copy dry.
    pub(crate) stream_done: AtomicBool,
    /// True once this shard's WAL failed (shard serves read-only).
    pub(crate) degraded: AtomicBool,
    pub(crate) degraded_reason: Mutex<Option<String>>,
    /// Epoch of this shard's newest durable checkpoint.
    pub(crate) durable_epoch: AtomicU64,
    /// Start-relative nanos (+1) of this shard's last WAL fsync; 0
    /// until one completes.
    pub(crate) last_fsync_ns: AtomicU64,
    /// Live WAL segment count (sealed + active).
    pub(crate) wal_segments: AtomicU64,
    /// Engine push-work counters, refreshed per slide.
    pub(crate) engine: Mutex<CounterSnapshot>,
    /// Adjacency-substrate occupancy, refreshed per slide.
    pub(crate) graph: Mutex<SubstrateStats>,
    /// WAL counters as of the last append/sync.
    pub(crate) wal: Mutex<WalStats>,
    /// This shard's window bounds in logical stream positions.
    pub(crate) window_start: AtomicU64,
    pub(crate) window_end: AtomicU64,
    /// Round-robin cursor over this shard's sessions for audit probes
    /// (advanced by the write loop each time it serves an audit).
    pub(crate) audit_cursor: AtomicU64,
    /// Labelled `{write_shard="i"}` stage histograms.
    pub(crate) stage: WriteShardStages,
}

/// State shared by the shards, the acceptor, the write loops, and the
/// audit/SLO observer.
pub(crate) struct Ctx {
    /// One entry per write shard; length ≥ 1.
    pub(crate) shards: Vec<Arc<WriteShardState>>,
    pub(crate) stats: Arc<ServerStats>,
    pub(crate) conn: Arc<ConnCounters>,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) addr: SocketAddr,
    /// Instance birth; `slide_started_ns` is relative to this.
    pub(crate) start: Instant,
    /// See [`ServeConfig::shed_after`].
    pub(crate) shed_after: Duration,
    /// One past the largest vertex id the stream will ever mention; the
    /// upper bound for `/session/open` requests (an unchecked id would
    /// make `cold_start` allocate `source + 1` slots — a single request
    /// naming vertex 4e9 must not OOM the server).
    pub(crate) vertex_bound: usize,
    /// Whether this instance runs with a WAL + checkpoints.
    pub(crate) durability_enabled: bool,
    /// Pipeline histograms, trace ring, and the metric registry.
    pub(crate) metrics: Arc<ServerMetrics>,
    /// Per-shard `(connections, queue_depth)` gauges, indexed by shard.
    pub(crate) shard_gauges: Vec<(Gauge, Gauge)>,
    /// Total logical edges in the stream (constant per instance).
    pub(crate) stream_len: u64,
    /// Accuracy-audit scalars published by the observer thread.
    pub(crate) audit: Arc<crate::audit::AuditShared>,
    /// SLO burn-rate state (targets, burn gauges, breach counters, the
    /// latency shed flag).
    pub(crate) slo: Arc<crate::audit::SloEngine>,
    /// The in-process metrics time-series (`GET /series`).
    pub(crate) series: Arc<dppr_obs::SeriesRing>,
    /// Observer tick period (`/series` reports it so dashboards can
    /// convert rows to wall time).
    pub(crate) audit_interval: Duration,
}

impl Ctx {
    /// Nanoseconds write shard `ws`'s in-flight slide has been running,
    /// or `None` while that shard is between slides.
    pub(crate) fn slide_in_flight(&self, ws: &WriteShardState) -> Option<Duration> {
        match ws.slide_started_ns.load(Relaxed) {
            0 => None,
            marker => {
                let started = Duration::from_nanos(marker - 1);
                Some(self.start.elapsed().saturating_sub(started))
            }
        }
    }

    /// Whether queries routed to write shard `ws` should be shed.
    pub(crate) fn lagging(&self, ws: &WriteShardState) -> bool {
        !self.shed_after.is_zero()
            && self.slide_in_flight(ws).is_some_and(|d| d > self.shed_after)
    }

    /// Whether any write shard is currently behind (`/healthz`).
    pub(crate) fn any_lagging(&self) -> bool {
        self.shards.iter().any(|s| self.lagging(s))
    }

    /// The epoch every shard has published through — the instance-level
    /// epoch. (Unsharded: the one shard's epoch, unchanged semantics.)
    pub(crate) fn epoch_min(&self) -> u64 {
        self.shards.iter().map(|s| s.domain.epoch()).min().unwrap_or(0)
    }

    /// The instance-level durable epoch: an instance is only durable
    /// through an epoch every shard has checkpointed.
    pub(crate) fn durable_epoch(&self) -> u64 {
        self.shards.iter().map(|s| s.durable_epoch.load(Relaxed)).min().unwrap_or(0)
    }

    /// Global stream-done flag: set once every shard ran its copy dry.
    pub(crate) fn refresh_stream_done(&self) {
        if self.shards.iter().all(|s| s.stream_done.load(Relaxed)) {
            self.stats.stream_done.store(true, Relaxed);
        }
    }

    /// Merged cache counters across every shard's query cache.
    pub(crate) fn cache_stats(&self) -> CacheStats {
        self.shards
            .iter()
            .fold(CacheStats::default(), |acc, s| acc.merge(&s.cache.stats()))
    }

    /// Open sessions across all shards.
    pub(crate) fn sessions_len(&self) -> usize {
        self.shards.iter().map(|s| s.registry.len()).sum()
    }
}

/// A running serving instance. Dropping the handle without calling
/// [`ServerHandle::join`] detaches the threads (they exit on shutdown).
pub struct ServerHandle {
    ctx: Arc<Ctx>,
    acceptor: Option<JoinHandle<()>>,
    shards: Vec<ShardHandle>,
    writers: Vec<JoinHandle<()>>,
    recoveries: Vec<Option<RecoveryReport>>,
}

impl ServerHandle {
    /// The bound address (query it for the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.ctx.addr
    }

    /// Live counters.
    pub fn stats(&self) -> &ServerStats {
        &self.ctx.stats
    }

    /// Live connection-layer counters.
    pub fn conn_counters(&self) -> &ConnCounters {
        &self.ctx.conn
    }

    /// Write shard 0's query cache (the only one unsharded; `/stats`
    /// reports the totals across shards).
    pub fn cache(&self) -> &QueryCache {
        &self.ctx.shards[0].cache
    }

    /// Write shard 0's session registry (the only one unsharded).
    pub fn registry(&self) -> &SessionRegistry {
        &self.ctx.shards[0].registry
    }

    /// Independent write loops this instance runs (≥ 1).
    pub fn write_shard_count(&self) -> usize {
        self.ctx.shards.len()
    }

    /// Write shard `i`'s session registry.
    pub fn shard_registry(&self, i: usize) -> &SessionRegistry {
        &self.ctx.shards[i].registry
    }

    /// Write shard `i`'s published epoch.
    pub fn shard_epoch(&self, i: usize) -> u64 {
        self.ctx.shards[i].domain.epoch()
    }

    /// The instance's metric registry and pipeline histograms (what
    /// `GET /metrics` renders) — report generators read percentiles
    /// straight from here.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.ctx.metrics
    }

    /// The buffered trace events as JSON lines (what `GET /trace`
    /// serves); empty when tracing is off.
    pub fn trace_dump(&self) -> String {
        self.ctx.metrics.trace.dump()
    }

    /// Current epoch: the minimum across write shards (every session is
    /// served at least this fresh).
    pub fn epoch(&self) -> u64 {
        self.ctx.epoch_min()
    }

    /// What recovery did at startup for write shard 0, if this instance
    /// resumed from a checkpoint (`None` for fresh starts and
    /// memory-only instances).
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recoveries.first().and_then(Option::as_ref)
    }

    /// Per-write-shard recovery reports, in shard order.
    pub fn recoveries(&self) -> &[Option<RecoveryReport>] {
        &self.recoveries
    }

    /// Whether shutdown has been requested (flag or `POST /shutdown`).
    pub fn is_shutdown(&self) -> bool {
        self.ctx.shutdown.load(SeqCst)
    }

    /// Requests shutdown and wakes the acceptor and every shard.
    pub fn shutdown(&self) {
        self.ctx.shutdown.store(true, SeqCst);
        // Unblock the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.ctx.addr);
        for s in &self.shards {
            s.wake();
        }
    }

    /// Shuts down, joins every thread, and reports the final counters.
    pub fn join(mut self) -> ServeReport {
        self.shutdown();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for s in self.shards.drain(..) {
            s.join();
        }
        for h in self.writers.drain(..) {
            let _ = h.join();
        }
        let (ctx, stats, conn) = (&self.ctx, &self.ctx.stats, &self.ctx.conn);
        ServeReport {
            epoch: ctx.epoch_min(),
            slides: stats.slides.load(Relaxed),
            updates_offered: stats.updates_offered.load(Relaxed),
            updates_applied: stats.updates_applied.load(Relaxed),
            updates_per_sec: stats.updates_per_sec(),
            queries: stats.queries.load(Relaxed),
            http_requests: conn.requests.load(Relaxed),
            connections: conn.accepted.load(Relaxed),
            bad_requests: conn.bad_requests.load(Relaxed),
            read_timeouts: conn.read_timeouts.load(Relaxed),
            write_timeouts: conn.write_timeouts.load(Relaxed),
            shed: stats.shed.load(Relaxed),
            cache: ctx.cache_stats(),
            sessions: ctx.sessions_len(),
            stream_done: stats.stream_done.load(Relaxed),
            degraded: stats.degraded.load(Relaxed),
            durable_epoch: ctx.durable_epoch(),
            checkpoints: stats.checkpoints.load(Relaxed),
            write_shards: ctx.shards.len(),
        }
    }
}

/// Warms the initial window of `stream` and picks the `k` top-out-degree
/// vertices as serving sources — the paper's hub-vertex methodology.
///
/// Pass the **same** `init_fraction` here as to [`start`]: the probe must
/// replay exactly the window the server will bootstrap with, or the picked
/// hubs belong to a different graph than the one actually served (this
/// helper exists so the CLI, the load generator, and the examples cannot
/// drift apart on that pairing).
pub fn pick_top_degree_sources(
    stream: &GraphStream,
    init_fraction: f64,
    k: usize,
) -> Vec<VertexId> {
    let window = dppr_graph::SlidingWindow::new(stream.clone(), init_fraction);
    let mut probe = dppr_graph::DynamicGraph::new();
    for upd in window.initial_updates() {
        probe.apply(upd);
    }
    probe.top_out_degree_vertices(k)
}

/// Boots a serving instance over `stream`: applies the initial window for
/// every source in `sources` (so the returned handle is immediately
/// queryable), then starts the write loop, the acceptor, and the
/// event-loop shards. `init_fraction` is the sliding-window warmup share
/// (the paper uses 0.1).
pub fn start(
    stream: GraphStream,
    init_fraction: f64,
    sources: &[VertexId],
    cfg: ServeConfig,
) -> io::Result<ServerHandle> {
    let vertex_bound = stream.vertex_bound();
    if let Some(&s) = sources.iter().find(|&&s| (s as usize) >= vertex_bound) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("source {s} is outside the stream's vertex bound {vertex_bound}"),
        ));
    }
    let threads = cfg.threads.max(1);
    let n = cfg.write_shards.max(1);
    let stats = Arc::new(ServerStats::default());
    let conn_counters = Arc::new(ConnCounters::default());
    let shutdown = Arc::new(AtomicBool::new(false));
    let metrics = Arc::new(ServerMetrics::new(cfg.trace_sample, cfg.trace_capacity));

    // --- bootstrap every write shard synchronously: sessions are live
    // before we return. Each shard consumes its own copy of the whole
    // stream (the window slides identically everywhere) but maintains
    // only the sessions hashed to it — so a source's PPR state is
    // bit-identical under any shard count. Durable shards either recover
    // (their checkpoint + WAL tail) or bootstrap fresh and write their
    // epoch-1 base checkpoint.
    let mut boots: Vec<Boot> = Vec::with_capacity(n);
    let mut dcfgs: Vec<Option<DurabilityConfig>> = Vec::with_capacity(n);
    let mut shard_states: Vec<Arc<WriteShardState>> = Vec::with_capacity(n);
    for i in 0..n {
        // Event-loop shards each hold one Reader per write shard, + slack
        // for external Reader users (tests, in-process tools).
        let domain = EpochDomain::new(threads + 4);
        let shard_sources: Vec<VertexId> =
            sources.iter().copied().filter(|&s| shard_of(s, n) == i).collect();
        let registry = Arc::new(SessionRegistry::new(
            Arc::clone(&domain),
            cfg.session_capacity.div_ceil(n).max(shard_sources.len()).max(1),
        ));
        let cache = Arc::new(QueryCache::new(cfg.cache_capacity.div_ceil(n)));
        let dcfg = cfg.durability.as_ref().map(|d| DurabilityConfig {
            data_dir: shard_data_dir(&d.data_dir, i, n),
            ..d.clone()
        });
        let boot = match &dcfg {
            None => {
                let mut driver = StreamDriver::new(stream.clone(), init_fraction);
                let mut multi =
                    MultiSourcePpr::new(&shard_sources, cfg.alpha, cfg.epsilon, PushVariant::OPT);
                bootstrap_window(&mut driver, &mut multi, &domain, &registry, &stats);
                Boot { driver, multi, wal: None, recovery: None, durable_epoch: 0 }
            }
            Some(d) => durable_boot(
                stream.clone(),
                init_fraction,
                &shard_sources,
                &cfg,
                d,
                &domain,
                &registry,
                &stats,
            )?,
        };
        let (ws, we) = boot.driver.window_range();
        shard_states.push(Arc::new(WriteShardState {
            index: i,
            domain,
            registry,
            cache,
            slides: AtomicU64::new(0),
            slide_started_ns: AtomicU64::new(0),
            stream_done: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            degraded_reason: Mutex::new(None),
            durable_epoch: AtomicU64::new(boot.durable_epoch),
            last_fsync_ns: AtomicU64::new(0),
            wal_segments: AtomicU64::new(0),
            engine: Mutex::new(boot.multi.counters().snapshot()),
            graph: Mutex::new(boot.driver.graph().substrate_stats()),
            wal: Mutex::new(WalStats::default()),
            window_start: AtomicU64::new(ws as u64),
            window_end: AtomicU64::new(we as u64),
            audit_cursor: AtomicU64::new(0),
            stage: metrics.write_shard_stages(i),
        }));
        dcfgs.push(dcfg);
        boots.push(boot);
    }
    let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
    let addr = listener.local_addr()?;

    let shard_gauges = (0..threads).map(|_| Default::default()).collect();
    let stream_len = boots[0].driver.stream_len() as u64;
    let ctx = Arc::new(Ctx {
        shards: shard_states.clone(),
        stats: Arc::clone(&stats),
        conn: Arc::clone(&conn_counters),
        shutdown: Arc::clone(&shutdown),
        addr,
        start: Instant::now(),
        shed_after: cfg.shed_after,
        vertex_bound,
        durability_enabled: cfg.durability.is_some(),
        metrics: Arc::clone(&metrics),
        shard_gauges,
        stream_len,
        audit: Arc::new(crate::audit::AuditShared::new(&cfg)),
        slo: Arc::new(crate::audit::SloEngine::new(&cfg)),
        series: Arc::new(crate::audit::new_series_ring()),
        audit_interval: cfg.audit_interval.max(Duration::from_millis(10)),
    });

    // --- per-shard background checkpointer + write loop -------------------
    let mut ctl_txs: Vec<mpsc::Sender<Control>> = Vec::with_capacity(n);
    let mut writers: Vec<JoinHandle<()>> = Vec::with_capacity(n);
    let mut recoveries: Vec<Option<RecoveryReport>> = Vec::with_capacity(n);
    for (i, boot) in boots.into_iter().enumerate() {
        let (ctl_tx, ctl_rx) = mpsc::channel::<Control>();
        ctl_txs.push(ctl_tx);
        recoveries.push(boot.recovery);
        let dur = match (dcfgs[i].take(), boot.wal) {
            (Some(dcfg), Some(wal)) => Some(spawn_durable(
                dcfg,
                wal,
                boot.durable_epoch,
                Arc::clone(&ctx),
                Arc::clone(&shard_states[i]),
            )?),
            _ => None,
        };
        let writer = {
            let ctx = Arc::clone(&ctx);
            let shard = Arc::clone(&shard_states[i]);
            let cfg = cfg.clone();
            std::thread::Builder::new()
                .name(format!("dppr-serve-writer-{i}"))
                .spawn(move || write_loop(boot.driver, boot.multi, ctl_rx, ctx, shard, cfg, dur))?
        };
        writers.push(writer);
    }

    // --- event-loop shards ------------------------------------------------
    let shard_cfg = ShardConfig {
        read_timeout: cfg.read_timeout,
        write_timeout: cfg.write_timeout,
    };
    let mut shards = Vec::with_capacity(threads);
    let mut gates: Vec<ShardGate> = Vec::with_capacity(threads);
    for w in 0..threads {
        let router = RouterImpl {
            ctx: Arc::clone(&ctx),
            readers: shard_states.iter().map(|s| s.domain.register_reader()).collect(),
            ctl_txs: ctl_txs.clone(),
            shard: w,
            local_request: LocalHistogram::new(),
            local_parse: LocalHistogram::new(),
            local_route: LocalHistogram::new(),
            local_write: LocalHistogram::new(),
        };
        let (queue_tx, queue_rx) = sync_channel::<TcpStream>(cfg.conn_backlog.max(1));
        let shard = spawn_shard(
            format!("dppr-serve-shard-{w}"),
            shard_cfg.clone(),
            queue_rx,
            queue_tx,
            Arc::clone(&shutdown),
            Arc::clone(&conn_counters),
            router,
        )?;
        gates.push(shard.gate()?);
        shards.push(shard);
    }
    // --- audit + SLO observer --------------------------------------------
    // Always spawned: it samples the metrics time-series and evaluates
    // SLO burn rates every tick; the (optional) accuracy audit rides the
    // same ticker. It keeps its own control handles so audit probes can
    // reach the write loops.
    writers.push(crate::audit::spawn_observer(Arc::clone(&ctx), ctl_txs.clone())?);
    drop(ctl_txs);

    // --- acceptor ---------------------------------------------------------
    let acceptor = {
        let shutdown = Arc::clone(&shutdown);
        let stats = Arc::clone(&stats);
        std::thread::Builder::new()
            .name("dppr-serve-acceptor".into())
            .spawn(move || {
                let mut next = 0usize;
                loop {
                    match listener.accept() {
                        Ok((conn, _)) => {
                            if shutdown.load(SeqCst) {
                                break; // wake-up connection, not a client
                            }
                            // Round-robin, falling through to any shard
                            // with room; every queue full → shed at the
                            // door with 503. A shard that adopted the
                            // connection leaves `pending` empty, which
                            // ends the probe loop gracefully (no panic
                            // path here: an acceptor abort would take the
                            // whole front end down with it).
                            let mut pending = Some(conn);
                            for probe in 0..gates.len() {
                                let Some(c) = pending.take() else { break };
                                match gates[(next + probe) % gates.len()].try_adopt(c) {
                                    Ok(()) => break,
                                    Err(back) => pending = Some(back),
                                }
                            }
                            if let Some(c) = pending {
                                stats.shed.fetch_add(1, Relaxed);
                                shed_at_door(c);
                            }
                            next = next.wrapping_add(1);
                        }
                        Err(_) => {
                            if shutdown.load(SeqCst) {
                                break;
                            }
                            // Persistent accept errors (e.g. fd
                            // exhaustion) must not busy-spin a core.
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                }
            })?
    };

    Ok(ServerHandle { ctx, acceptor: Some(acceptor), shards, writers, recoveries })
}

/// What bootstrapping produced, durable or not.
struct Boot {
    driver: StreamDriver,
    multi: MultiSourcePpr,
    wal: Option<Wal>,
    recovery: Option<RecoveryReport>,
    /// Epoch of the newest durable checkpoint at startup.
    durable_epoch: u64,
}

/// The original in-memory bootstrap: apply the initial window, advance to
/// epoch 1, open a session per source.
fn bootstrap_window(
    driver: &mut StreamDriver,
    multi: &mut MultiSourcePpr,
    domain: &EpochDomain,
    registry: &SessionRegistry,
    stats: &ServerStats,
) {
    let init = driver.take_initial_batch();
    let t = Instant::now();
    let applied = multi.apply_batch(driver.graph_mut(), &init);
    // Accumulate, don't overwrite: with several write shards every shard
    // bootstraps the same window, and the global counters sum them.
    stats.update_nanos.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
    stats.updates_offered.fetch_add(init.len() as u64, Relaxed);
    stats.updates_applied.fetch_add(applied as u64, Relaxed);
    let epoch = domain.advance();
    for i in 0..multi.num_sources() {
        registry.open(
            multi.source(i),
            Arc::new(QuerySnapshot::from_state(multi.state(i), epoch)),
        );
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Durable bootstrap: recover from the newest checkpoint + WAL tail when
/// one exists, else bootstrap fresh and write the epoch-1 base
/// checkpoint. Either way the returned WAL is open, repaired, and ready
/// for the write loop to append to.
#[allow(clippy::too_many_arguments)]
fn durable_boot(
    stream: GraphStream,
    init_fraction: f64,
    sources: &[VertexId],
    cfg: &ServeConfig,
    dcfg: &DurabilityConfig,
    domain: &Arc<EpochDomain>,
    registry: &SessionRegistry,
    stats: &ServerStats,
) -> io::Result<Boot> {
    std::fs::create_dir_all(&dcfg.data_dir)?;
    let checkpoint = durability::load_latest_checkpoint(&dcfg.data_dir)?;
    let wal_opts = WalOptions { segment_bytes: dcfg.segment_bytes, fsync: dcfg.fsync };
    let wdir = durability::wal_dir(&dcfg.data_dir);
    let (mut wal, tail) = Wal::open(&wdir, wal_opts.clone())?;

    let Some(ck) = checkpoint else {
        if !tail.is_empty() {
            // A log with no base checkpoint cannot be replayed (the
            // states it applies on top of are gone). Start over rather
            // than appending new epochs after stale ones.
            eprintln!(
                "dppr-serve: discarding {} WAL records with no checkpoint to anchor them",
                tail.len()
            );
            drop(wal);
            std::fs::remove_dir_all(&wdir)?;
            (wal, _) = Wal::open(&wdir, wal_opts)?;
        }
        let mut driver = StreamDriver::new(stream, init_fraction);
        let mut multi = MultiSourcePpr::new(sources, cfg.alpha, cfg.epsilon, PushVariant::OPT);
        bootstrap_window(&mut driver, &mut multi, domain, registry, stats);
        // The base checkpoint: recovery always has somewhere to start, so
        // the WAL never needs to hold the (large) initial window.
        let states: Vec<PprState> =
            (0..multi.num_sources()).map(|i| multi.state(i).clone_values()).collect();
        let (ws, we) = driver.window_range();
        durability::write_checkpoint(&dcfg.data_dir, 1, (ws, we), &states)?;
        wal.append(&WalRecord::Checkpoint { epoch: 1 })?;
        wal.sync()?;
        stats.checkpoints.fetch_add(1, Relaxed);
        return Ok(Boot { driver, multi, wal: Some(wal), recovery: None, durable_epoch: 1 });
    };

    // --- recovery: checkpoint + WAL-tail replay ---------------------------
    if ck.window_end > stream.len() {
        return Err(invalid(format!(
            "checkpoint window [{}, {}) exceeds the stream length {} — wrong graph or seed?",
            ck.window_start,
            ck.window_end,
            stream.len()
        )));
    }
    let checkpoint_epoch = ck.epoch;
    let (window_start, window_end) = (ck.window_start, ck.window_end);
    let mut driver = StreamDriver::resume_from(stream, window_start, window_end);
    let mut multi = if ck.states.is_empty() {
        MultiSourcePpr::new(&[], cfg.alpha, cfg.epsilon, PushVariant::OPT)
    } else {
        MultiSourcePpr::from_states(ck.states, PushVariant::OPT)
    };

    // Replay only the tail: batches at or below the checkpoint epoch are
    // the duplicated-tail case (checkpointed but not yet pruned) and are
    // skipped; an epoch gap means the log lost acknowledged records and
    // recovery must not fake the missing slides.
    let mut applied_epoch = checkpoint_epoch;
    let mut replayed = 0u64;
    for rec in &tail {
        let WalRecord::Batch { epoch, window_end: rec_end, updates, .. } = rec else {
            continue;
        };
        if *epoch <= applied_epoch {
            continue;
        }
        if *epoch != applied_epoch + 1 {
            return Err(invalid(format!(
                "WAL gap: next batch is epoch {epoch}, expected {}",
                applied_epoch + 1
            )));
        }
        let (_, cur_end) = driver.window_range();
        let k = (*rec_end as usize)
            .checked_sub(cur_end)
            .filter(|&k| k > 0)
            .ok_or_else(|| invalid(format!("batch epoch {epoch} rewinds the window")))?;
        let batch = driver
            .slide_batch(k)
            .ok_or_else(|| invalid(format!("stream exhausted replaying epoch {epoch}")))?;
        if batch != *updates {
            return Err(invalid(format!(
                "WAL batch for epoch {epoch} disagrees with the stream — graph or seed changed \
                 since the log was written"
            )));
        }
        let t = Instant::now();
        let applied = multi.apply_batch(driver.graph_mut(), &batch);
        stats.update_nanos.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        stats.updates_offered.fetch_add(batch.len() as u64, Relaxed);
        stats.updates_applied.fetch_add(applied as u64, Relaxed);
        applied_epoch = *epoch;
        replayed += 1;
    }

    domain.resume_at(applied_epoch);
    for i in 0..multi.num_sources() {
        registry.open(
            multi.source(i),
            Arc::new(QuerySnapshot::from_state(multi.state(i), applied_epoch)),
        );
    }
    // Re-anchor retention: if the crash hit between the checkpoint rename
    // and its WAL marker, the marker is missing — append it now so the
    // covered segments can be pruned.
    wal.append(&WalRecord::Checkpoint { epoch: checkpoint_epoch })?;
    wal.sync()?;
    wal.prune_through(checkpoint_epoch)?;

    let (ws, we) = driver.window_range();
    let recovery = RecoveryReport {
        checkpoint_epoch,
        replayed_batches: replayed,
        recovered_epoch: applied_epoch,
        window_start: ws,
        window_end: we,
    };
    Ok(Boot {
        driver,
        multi,
        wal: Some(wal),
        recovery: Some(recovery),
        durable_epoch: checkpoint_epoch,
    })
}

/// What [`boot_probe`] observed: the booted epoch and a bit-exact
/// fingerprint per session state.
#[derive(Debug, Clone)]
pub struct BootProbe {
    /// Recovery outcome (`None` for a fresh durable start).
    pub recovery: Option<RecoveryReport>,
    /// The epoch the instance would serve at.
    pub epoch: u64,
    /// `(source, state_fingerprint)` per session, in session order.
    pub fingerprints: Vec<(VertexId, u64)>,
}

/// Runs the durable bootstrap exactly as [`start`] would — recovery or
/// fresh start, including WAL torn-tail repair, checkpoint-marker
/// re-append, and retention — but binds no port and spawns no threads,
/// so the returned state is frozen at the boot point instead of racing
/// the write loop. The crash-recovery harness uses this to prove a
/// recovered instance is bit-identical to a never-crashed replay.
pub fn boot_probe(
    stream: GraphStream,
    init_fraction: f64,
    sources: &[VertexId],
    cfg: &ServeConfig,
) -> io::Result<BootProbe> {
    let dcfg = cfg.durability.as_ref().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "boot_probe requires cfg.durability")
    })?;
    let domain = EpochDomain::new(1);
    let registry =
        SessionRegistry::new(Arc::clone(&domain), cfg.session_capacity.max(sources.len()).max(1));
    let stats = ServerStats::default();
    let boot =
        durable_boot(stream, init_fraction, sources, cfg, dcfg, &domain, &registry, &stats)?;
    let fingerprints = (0..boot.multi.num_sources())
        .map(|i| {
            (boot.multi.source(i), dppr_core::persist::state_fingerprint(boot.multi.state(i)))
        })
        .collect();
    Ok(BootProbe { recovery: boot.recovery, epoch: domain.epoch(), fingerprints })
}

/// [`boot_probe`] for every write shard of a sharded durable instance:
/// probes each shard's own data directory with the sources hashed to it,
/// exactly as [`start`] would boot them. The crash-recovery harness uses
/// this to assert per-shard bit-identical fingerprints after a kill.
pub fn boot_probe_shards(
    stream: GraphStream,
    init_fraction: f64,
    sources: &[VertexId],
    cfg: &ServeConfig,
) -> io::Result<Vec<BootProbe>> {
    let n = cfg.write_shards.max(1);
    let dcfg = cfg.durability.as_ref().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "boot_probe_shards requires cfg.durability")
    })?;
    (0..n)
        .map(|i| {
            let shard_sources: Vec<VertexId> =
                sources.iter().copied().filter(|&s| shard_of(s, n) == i).collect();
            let mut scfg = cfg.clone();
            scfg.durability = Some(DurabilityConfig {
                data_dir: shard_data_dir(&dcfg.data_dir, i, n),
                ..dcfg.clone()
            });
            boot_probe(stream.clone(), init_fraction, &shard_sources, &scfg)
        })
        .collect()
}

/// A snapshot of everything one checkpoint needs, handed to the
/// background checkpointer over a bounded channel.
struct CkptJob {
    epoch: u64,
    window: (usize, usize),
    states: Vec<PprState>,
}

/// The write loop's durability half: the WAL it owns exclusively, plus
/// the handles of the background checkpointer.
struct DurableState {
    wal: Wal,
    cfg: DurabilityConfig,
    /// Epoch of the newest durable checkpoint, published by the
    /// background checkpointer.
    durable: Arc<AtomicU64>,
    /// Newest durable epoch whose `Checkpoint` marker has been appended
    /// to the WAL (retention runs when this catches up to `durable`).
    acked: u64,
    ckpt_tx: Option<SyncSender<CkptJob>>,
    ckpt_thread: Option<JoinHandle<()>>,
    /// Set on the first WAL append failure: stop sliding, serve
    /// read-only.
    dead: bool,
    /// WAL counters as of the last [`note_wal`]; deltas against the live
    /// stats yield per-fsync latency.
    seen: WalStats,
}

/// Spawns the background checkpointer for one write shard and packages
/// the durable state for that shard's write loop.
fn spawn_durable(
    dcfg: DurabilityConfig,
    wal: Wal,
    durable_epoch: u64,
    ctx: Arc<Ctx>,
    shard: Arc<WriteShardState>,
) -> io::Result<DurableState> {
    let durable = Arc::new(AtomicU64::new(durable_epoch));
    let (ckpt_tx, ckpt_rx) = sync_channel::<CkptJob>(1);
    let ckpt_thread = {
        let durable = Arc::clone(&durable);
        let data_dir = dcfg.data_dir.clone();
        std::thread::Builder::new()
            .name(format!("dppr-serve-ckpt-{}", shard.index))
            .spawn(move || {
                while let Ok(job) = ckpt_rx.recv() {
                    let t = Instant::now();
                    match durability::write_checkpoint(
                        &data_dir,
                        job.epoch,
                        job.window,
                        &job.states,
                    ) {
                        Ok(()) => {
                            let ns = t.elapsed().as_nanos() as u64;
                            ctx.metrics.checkpoint.record(ns);
                            shard.stage.checkpoint.record(ns);
                            let _ = durability::prune_checkpoints(&data_dir, job.epoch);
                            durable.store(job.epoch, Relaxed);
                            shard.durable_epoch.store(job.epoch, Relaxed);
                            ctx.stats.checkpoints.fetch_add(1, Relaxed);
                        }
                        Err(e) => {
                            eprintln!(
                                "dppr-serve: checkpoint at epoch {} failed: {e}",
                                job.epoch
                            );
                            ctx.stats.checkpoint_failures.fetch_add(1, Relaxed);
                        }
                    }
                }
            })?
    };
    let seen = wal.stats();
    Ok(DurableState {
        wal,
        cfg: dcfg,
        durable,
        acked: durable_epoch,
        ckpt_tx: Some(ckpt_tx),
        ckpt_thread: Some(ckpt_thread),
        dead: false,
        seen,
    })
}

/// Publishes one shard's fresh WAL counters after appends/syncs: fsync
/// latency from the `sync_nanos` delta, the last-fsync timestamp for
/// `/healthz`, and the raw stats the metric catalog reads.
fn note_wal(d: &mut DurableState, ctx: &Ctx, shard: &WriteShardState) {
    let s = d.wal.stats();
    let syncs = s.syncs - d.seen.syncs;
    if let Some(per_sync) = (s.sync_nanos - d.seen.sync_nanos).checked_div(syncs) {
        for _ in 0..syncs {
            ctx.metrics.wal_fsync.record(per_sync);
            shard.stage.wal_fsync.record(per_sync);
        }
        shard
            .last_fsync_ns
            .store(ctx.start.elapsed().as_nanos() as u64 + 1, Relaxed);
    }
    shard.wal_segments.store(d.wal.segment_count() as u64, Relaxed);
    *shard.wal.lock().unwrap() = s;
    d.seen = s;
}

/// Records why a write shard degraded to read-only (shown by
/// `/healthz`): the shard's own flag plus the instance-level flag. The
/// first shard to degrade provides the instance-level reason.
fn mark_degraded(ctx: &Ctx, shard: &WriteShardState, reason: String) {
    shard.degraded.store(true, SeqCst);
    let global = if ctx.shards.len() == 1 {
        reason.clone()
    } else {
        format!("write shard {}: {reason}", shard.index)
    };
    *shard.degraded_reason.lock().unwrap() = Some(reason);
    ctx.stats.degraded.store(true, SeqCst);
    let mut g = ctx.stats.degraded_reason.lock().unwrap();
    if g.is_none() {
        *g = Some(global);
    }
}

/// Answers an un-adoptable connection with `503 Retry-After: 1`
/// (best-effort, non-blocking) and drops it.
fn shed_at_door(conn: TcpStream) {
    let mut out = Vec::with_capacity(160);
    render_response(&mut out, &Response::unavailable("server is at connection capacity"), false);
    let _ = conn.set_nonblocking(true);
    let _ = (&conn).write(&out);
}

fn write_loop(
    mut driver: StreamDriver,
    mut multi: MultiSourcePpr,
    ctl_rx: mpsc::Receiver<Control>,
    ctx: Arc<Ctx>,
    shard: Arc<WriteShardState>,
    cfg: ServeConfig,
    mut dur: Option<DurableState>,
) {
    // Baseline for per-slide counter deltas (push convergence metrics);
    // the boot/recovery work is already in the cumulative snapshot.
    let mut prev_counters = multi.counters().snapshot();
    // Epoch reader for audit probes: loading a session's published
    // snapshot must pin an epoch like any other reader. The domain is
    // sized `threads + 4`, so the write loop's own reader fits in the
    // slack.
    let reader = shard.domain.register_reader();
    loop {
        if ctx.shutdown.load(SeqCst) {
            break;
        }
        while let Ok(ctl) = ctl_rx.try_recv() {
            handle_control(ctl, &mut driver, &mut multi, &ctx, &shard, &reader);
        }
        // Retention follows the background checkpointer: once a newer
        // checkpoint is durable, append its marker and drop the WAL
        // segments it covers.
        if let Some(d) = dur.as_mut() {
            ack_durable(d, &ctx, &shard);
        }
        let frozen = dur.as_ref().is_some_and(|d| d.dead)
            || (cfg.max_slides != 0
                && shard.slides.load(Relaxed) >= cfg.max_slides as u64);
        if frozen || shard.stream_done.load(Relaxed) {
            // Nothing left to slide (stream dry, slide cap, or WAL
            // failure → read-only): serve from the frozen epoch, but stay
            // responsive to session control and shutdown.
            match ctl_rx.recv_timeout(Duration::from_millis(20)) {
                Ok(ctl) => handle_control(ctl, &mut driver, &mut multi, &ctx, &shard, &reader),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            continue;
        }
        let Some(batch) = driver.slide_batch(cfg.batch) else {
            shard.stream_done.store(true, Relaxed);
            ctx.refresh_stream_done();
            continue;
        };
        // Write-ahead point: the batch must be in the log *before* its
        // effects can be observed by any query. A failed append degrades
        // to read-only serving — the slide is abandoned (the window moved,
        // but the graph, the engine states, and the published epoch all
        // stay put, which is exactly the state the log describes).
        let slide_t = Instant::now();
        let mut wal_append_ns = 0u64;
        if let Some(d) = dur.as_mut() {
            let (ws, we) = driver.window_range();
            let rec = WalRecord::Batch {
                epoch: shard.domain.epoch() + 1,
                window_start: ws as u64,
                window_end: we as u64,
                updates: batch.clone(),
            };
            let t = Instant::now();
            if let Err(e) = d.wal.append(&rec) {
                eprintln!("dppr-serve: WAL append failed ({e}); serving read-only from here");
                d.dead = true;
                mark_degraded(&ctx, &shard, format!("WAL append failed: {e}"));
                continue;
            }
            wal_append_ns = t.elapsed().as_nanos() as u64;
            ctx.metrics.wal_append.record(wal_append_ns);
            shard.stage.wal_append.record(wal_append_ns);
            note_wal(d, &ctx, &shard);
        }
        // Lag marker: queries routed to this shard observe how long the
        // slide has been in flight and shed once it exceeds `shed_after`
        // (the snapshot they would serve is stale by at least that much).
        shard
            .slide_started_ns
            .store(ctx.start.elapsed().as_nanos() as u64 + 1, Relaxed);
        let t = Instant::now();
        let applied = multi.apply_batch(driver.graph_mut(), &batch);
        let apply_ns = t.elapsed().as_nanos() as u64;
        ctx.metrics.push_wall.record(apply_ns);
        shard.stage.push_wall.record(apply_ns);
        ctx.stats.update_nanos.fetch_add(apply_ns, Relaxed);
        ctx.stats.updates_offered.fetch_add(batch.len() as u64, Relaxed);
        ctx.stats.updates_applied.fetch_add(applied as u64, Relaxed);
        ctx.stats.slides.fetch_add(1, Relaxed);
        shard.slides.fetch_add(1, Relaxed);
        // Publication point: one epoch per batch, every session swapped to
        // a snapshot of the new converged state.
        let epoch = shard.domain.advance();
        let t = Instant::now();
        for i in 0..multi.num_sources() {
            if let Some(entry) = shard.registry.peek(multi.source(i)) {
                entry.publish(
                    &shard.domain,
                    Arc::new(QuerySnapshot::from_state(multi.state(i), epoch)),
                );
            }
        }
        let publish_ns = t.elapsed().as_nanos() as u64;
        ctx.metrics.snapshot_publish.record(publish_ns);
        shard.stage.snapshot_publish.record(publish_ns);
        shard.slide_started_ns.store(0, Relaxed);
        let slide_ns = slide_t.elapsed().as_nanos() as u64;
        ctx.metrics.slide_apply.record(slide_ns);
        shard.stage.slide_apply.record(slide_ns);

        // Refresh the engine/graph/stream views `/stats` and `/metrics`
        // read (this write loop is the only thread that can see them).
        let counters = multi.counters().snapshot();
        let delta = counters - prev_counters;
        ctx.metrics.push_iterations.record(delta.iterations);
        prev_counters = counters;
        *shard.engine.lock().unwrap() = counters;
        *shard.graph.lock().unwrap() = driver.graph().substrate_stats();
        let (ws, we) = driver.window_range();
        shard.window_start.store(ws as u64, Relaxed);
        shard.window_end.store(we as u64, Relaxed);

        if ctx.metrics.trace_slides.sample() {
            let mut j = JsonBuf::new();
            j.begin_obj();
            j.key("event").str("slide");
            j.key("write_shard").uint(shard.index as u64);
            j.key("epoch").uint(epoch);
            j.key("batch_updates").uint(batch.len() as u64);
            j.key("applied").uint(applied as u64);
            j.key("iterations").uint(delta.iterations);
            j.key("pushes").uint(delta.pushes);
            j.key("wal_append_ns").uint(wal_append_ns);
            j.key("apply_ns").uint(apply_ns);
            j.key("publish_ns").uint(publish_ns);
            j.key("slide_ns").uint(slide_ns);
            j.end_obj();
            ctx.metrics.trace.push(j.finish());
        }

        if let Some(d) = dur.as_mut() {
            maybe_checkpoint(d, &shard, epoch, &driver, &multi);
        }
        if !cfg.slide_pause.is_zero() {
            std::thread::sleep(cfg.slide_pause);
        }
    }
    // Graceful shutdown: stop the background checkpointer, flush the WAL,
    // and leave a final checkpoint so the next start replays nothing.
    if let Some(d) = dur.as_mut() {
        finalize_durable(d, &ctx, &shard, &driver, &multi);
    }
}

/// Appends the `Checkpoint` marker for any newly durable checkpoint and
/// prunes the WAL segments it covers.
fn ack_durable(d: &mut DurableState, ctx: &Ctx, shard: &WriteShardState) {
    let e = d.durable.load(Relaxed);
    if d.dead || e <= d.acked {
        return;
    }
    let result = d
        .wal
        .append(&WalRecord::Checkpoint { epoch: e })
        .and_then(|()| d.wal.sync())
        .and_then(|()| d.wal.prune_through(e));
    match result {
        Ok(_) => {
            d.acked = e;
            note_wal(d, ctx, shard);
        }
        Err(err) => {
            eprintln!("dppr-serve: WAL checkpoint marker failed ({err}); serving read-only");
            d.dead = true;
            mark_degraded(ctx, shard, format!("WAL checkpoint marker failed: {err}"));
        }
    }
}

/// Hands a checkpoint job to the background checkpointer every
/// `checkpoint_every_slides` slides. A full channel means the previous
/// checkpoint is still being written — skip this round rather than stall
/// the write loop.
fn maybe_checkpoint(
    d: &mut DurableState,
    shard: &WriteShardState,
    epoch: u64,
    driver: &StreamDriver,
    multi: &MultiSourcePpr,
) {
    let every = d.cfg.checkpoint_every_slides;
    if every == 0 || !shard.slides.load(Relaxed).is_multiple_of(every) {
        return;
    }
    let Some(tx) = d.ckpt_tx.as_ref() else { return };
    let job = CkptJob {
        epoch,
        window: driver.window_range(),
        states: (0..multi.num_sources()).map(|i| multi.state(i).clone_values()).collect(),
    };
    match tx.try_send(job) {
        Ok(()) | Err(TrySendError::Full(_)) => {}
        Err(TrySendError::Disconnected(_)) => d.ckpt_tx = None,
    }
}

/// Shutdown path: drain the checkpointer, then write the final
/// checkpoint synchronously (every applied slide becomes part of the
/// base; the WAL tail for the next start is empty).
fn finalize_durable(
    d: &mut DurableState,
    ctx: &Ctx,
    shard: &WriteShardState,
    driver: &StreamDriver,
    multi: &MultiSourcePpr,
) {
    d.ckpt_tx = None; // close the channel → checkpointer drains and exits
    if let Some(h) = d.ckpt_thread.take() {
        let _ = h.join();
    }
    let _ = d.wal.sync();
    if d.dead {
        return;
    }
    let epoch = shard.domain.epoch();
    if epoch <= d.durable.load(Relaxed) {
        return; // nothing applied since the last durable checkpoint
    }
    let states: Vec<PprState> =
        (0..multi.num_sources()).map(|i| multi.state(i).clone_values()).collect();
    let t = Instant::now();
    match durability::write_checkpoint(&d.cfg.data_dir, epoch, driver.window_range(), &states) {
        Ok(()) => {
            let ns = t.elapsed().as_nanos() as u64;
            ctx.metrics.checkpoint.record(ns);
            shard.stage.checkpoint.record(ns);
            let _ = durability::prune_checkpoints(&d.cfg.data_dir, epoch);
            shard.durable_epoch.store(epoch, Relaxed);
            ctx.stats.checkpoints.fetch_add(1, Relaxed);
            let _ = d
                .wal
                .append(&WalRecord::Checkpoint { epoch })
                .and_then(|()| d.wal.sync())
                .and_then(|()| d.wal.prune_through(epoch));
        }
        Err(e) => eprintln!("dppr-serve: final checkpoint at epoch {epoch} failed: {e}"),
    }
}

fn handle_control(
    ctl: Control,
    driver: &mut StreamDriver,
    multi: &mut MultiSourcePpr,
    ctx: &Ctx,
    shard: &WriteShardState,
    reader: &Reader,
) {
    match ctl {
        Control::Open(s) => {
            if shard.registry.peek(s).is_some() {
                return;
            }
            let i = multi.add_source(driver.graph(), s);
            let snap = QuerySnapshot::from_state(multi.state(i), shard.domain.epoch());
            if let OpenOutcome::Opened { evicted: Some(victim) } =
                shard.registry.open(s, Arc::new(snap))
            {
                remove_maintained(multi, victim);
                ctx.stats.sessions_evicted.fetch_add(1, Relaxed);
            }
            ctx.stats.sessions_opened.fetch_add(1, Relaxed);
        }
        Control::Close(s) => {
            if shard.registry.close(s) {
                remove_maintained(multi, s);
                ctx.stats.sessions_closed.fetch_add(1, Relaxed);
            }
        }
        Control::Audit { max_sessions, reply } => {
            // Between batches the graph, the live states, and the
            // published snapshots are mutually consistent — clone them
            // all here and let the observer pay for the exact solve.
            let sources = shard.registry.sources();
            let take = max_sessions.min(sources.len());
            let cursor = shard.audit_cursor.fetch_add(take as u64, Relaxed) as usize;
            let mut sessions = Vec::with_capacity(take);
            for k in 0..take {
                let source = sources[(cursor + k) % sources.len()];
                let (Some(entry), Some(i)) =
                    (shard.registry.peek(source), multi.index_of(source))
                else {
                    continue; // raced with a close; skip
                };
                sessions.push(crate::audit::AuditSession {
                    source,
                    snapshot: entry.load(reader),
                    state: multi.state(i).clone_values(),
                });
            }
            let job = crate::audit::AuditJob {
                epoch: shard.domain.epoch(),
                graph: driver.graph().clone(),
                sessions,
            };
            // The observer may have timed out and gone away; that's its
            // problem, not the write loop's.
            let _ = reply.send(job);
        }
    }
}

fn remove_maintained(multi: &mut MultiSourcePpr, source: VertexId) {
    if let Some(i) = multi.index_of(source) {
        multi.remove_source(i);
    }
}

// --- request routing ------------------------------------------------------

/// The per-shard router: shared state + this shard's epoch readers (one
/// per write-shard domain), control-channel handles (one per write
/// shard), and thread-local telemetry accumulators (flushed to the
/// shared histograms once per event-loop tick, so the per-request path
/// touches no shared atomics).
struct RouterImpl {
    ctx: Arc<Ctx>,
    readers: Vec<Reader>,
    ctl_txs: Vec<mpsc::Sender<Control>>,
    shard: usize,
    local_request: LocalHistogram,
    local_parse: LocalHistogram,
    local_route: LocalHistogram,
    local_write: LocalHistogram,
}

impl Router for RouterImpl {
    fn route(&mut self, req: &Request) -> Response {
        match route(req, &self.ctx, &self.readers, &self.ctl_txs) {
            Ok(resp) => resp,
            Err(msg) => Response::new(400, error_body(&msg)),
        }
    }

    fn observe_http(
        &mut self,
        req: &Request,
        status: u16,
        parse_ns: u64,
        route_ns: u64,
        write_ns: u64,
    ) {
        self.local_parse.record(parse_ns);
        self.local_route.record(route_ns);
        self.local_write.record(write_ns);
        self.local_request.record(parse_ns + route_ns + write_ns);
        if self.ctx.metrics.trace_requests.sample() {
            let mut j = JsonBuf::new();
            j.begin_obj();
            j.key("event").str("request");
            j.key("shard").uint(self.shard as u64);
            j.key("path").str(&req.path);
            j.key("status").uint(status as u64);
            j.key("epoch").uint(self.ctx.epoch_min());
            j.key("parse_ns").uint(parse_ns);
            j.key("route_ns").uint(route_ns);
            j.key("write_ns").uint(write_ns);
            j.end_obj();
            self.ctx.metrics.trace.push(j.finish());
        }
    }

    fn on_tick(&mut self, live_conns: usize, queue_depth: u64) {
        let m = &self.ctx.metrics;
        self.local_request.flush(&m.http_request);
        self.local_parse.flush(&m.http_parse);
        self.local_route.flush(&m.http_route);
        self.local_write.flush(&m.http_write);
        let (conns, depth) = &self.ctx.shard_gauges[self.shard];
        conns.set(live_conns as i64);
        depth.set(queue_depth as i64);
    }
}

/// Loads `source`'s published snapshot from its write shard `ws`, or
/// the 404 naming the missing session.
fn session(
    ctx: &Ctx,
    readers: &[Reader],
    source: VertexId,
    ws: usize,
) -> Result<Arc<QuerySnapshot>, Response> {
    match ctx.shards[ws].registry.lookup(source) {
        Some(entry) => Ok(entry.load(&readers[ws])),
        None => {
            Err(Response::new(404, error_body(&format!("no open session for source {source}"))))
        }
    }
}

/// Load-shedding gate for the query endpoints: while write shard `ws`
/// has had a slide in flight longer than `shed_after`, answer `503
/// Retry-After` instead of serving a snapshot that lags the stream.
/// Shedding is per shard — a straggler does not shed traffic for
/// sessions owned by healthy shards.
fn shed_check(ctx: &Ctx, ws: usize) -> Option<Response> {
    // A fast-window latency SLO breach sheds globally: the error budget
    // is burning now, and queries are the load we can refuse.
    let reason = if ctx.slo.shed.load(Relaxed) {
        "latency SLO fast burn; shedding load"
    } else if ctx.lagging(&ctx.shards[ws]) {
        "write loop is behind; retry shortly"
    } else {
        return None;
    };
    ctx.stats.shed.fetch_add(1, Relaxed);
    Some(Response::unavailable(reason))
}

/// Routes a request to a [`Response`], one call per endpoint. Bodies
/// travel as `Arc<str>` so a cache hit is returned without copying the
/// rendered JSON.
fn route(
    req: &Request,
    ctx: &Ctx,
    readers: &[Reader],
    ctl_txs: &[Sender<Control>],
) -> Result<Response, String> {
    match req.path.as_str() {
        "/healthz" => Ok(Response::new(200, catalog::render_json(ctx, catalog::HEALTHZ))),
        "/stats" => Ok(Response::new(200, catalog::render_json(ctx, catalog::STATS))),
        "/metrics" => Ok(metrics(ctx)),
        "/series" => series(req, ctx),
        "/trace" => trace(req, ctx),
        "/topk" => query(req, ctx, readers, |r| Ok(QueryKind::TopK(r.parsed_or("k", 10)?))),
        "/score" => query(req, ctx, readers, |r| Ok(QueryKind::Score(r.require("v")?))),
        "/threshold" => query(req, ctx, readers, |r| Ok(QueryKind::Threshold(finite_delta(r)?))),
        "/compare" => {
            query(req, ctx, readers, |r| Ok(QueryKind::Compare(r.require("a")?, r.require("b")?)))
        }
        "/compare_sessions" => compare_sessions(req, ctx, readers),
        "/sessions" => Ok(sessions(ctx)),
        "/session/open" | "/session/close" => session_control(req, ctx, ctl_txs),
        "/shutdown" => Ok(shutdown(ctx)),
        other => Ok(Response::new(404, error_body(&format!("unknown endpoint {other}")))),
    }
}

/// `/threshold`'s δ, finite by construction: NaN would make every
/// comparison false and silently return an empty answer.
fn finite_delta(req: &Request) -> Result<u64, String> {
    Ok(req.require_finite("delta")?.to_bits())
}

/// The one path of the four per-session queries: count the query, parse
/// its parameters into a [`QueryKind`], pass the owning write shard's
/// shed gate, load the session's published snapshot (or 404), then
/// answer from the query cache or render and cache the answer.
fn query(
    req: &Request,
    ctx: &Ctx,
    readers: &[Reader],
    parse: impl FnOnce(&Request) -> Result<QueryKind, String>,
) -> Result<Response, String> {
    ctx.stats.queries.fetch_add(1, Relaxed);
    let kind = parse(req)?;
    let source: VertexId = req.require("source")?;
    let ws = shard_of(source, ctx.shards.len());
    if let Some(shed) = shed_check(ctx, ws) {
        return Ok(shed);
    }
    let snap = match session(ctx, readers, source, ws) {
        Ok(s) => s,
        Err(e) => return Ok(e),
    };
    let (body, _) = ctx.shards[ws]
        .cache
        .get_or_render(snap.source(), kind, snap.epoch(), || render_answer(&snap, kind));
    Ok(Response::new(200, body))
}

/// The JSON answer to one per-session query.
fn render_answer(snap: &QuerySnapshot, kind: QueryKind) -> String {
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("source").uint(snap.source() as u64);
    j.key("epoch").uint(snap.epoch());
    match kind {
        QueryKind::TopK(k) => {
            let ans = snap.top_k(k);
            j.key("epsilon").num(snap.epsilon());
            j.key("k").uint(k as u64);
            j.key("set_is_certain").bool(ans.set_is_certain);
            push_scores(&mut j, "ranking", &ans.ranking);
        }
        QueryKind::Score(v) => {
            let b = snap.score(v);
            j.key("epsilon").num(snap.epsilon());
            j.key("vertex").uint(v as u64);
            j.key("estimate").num(b.estimate);
            j.key("lo").num(b.lo);
            j.key("hi").num(b.hi);
        }
        QueryKind::Threshold(bits) => {
            let delta = f64::from_bits(bits);
            let ans = snap.above_threshold(delta);
            j.key("delta").num(delta);
            push_scores(&mut j, "certain", &ans.certain);
            push_scores(&mut j, "possible", &ans.possible);
        }
        QueryKind::Compare(a, b) => {
            let order = match snap.compare(a, b) {
                Some(std::cmp::Ordering::Greater) => "greater",
                Some(std::cmp::Ordering::Less) => "less",
                Some(std::cmp::Ordering::Equal) => "equal",
                None => "undecidable",
            };
            j.key("a").uint(a as u64);
            j.key("b").uint(b as u64);
            j.key("order").str(order);
        }
    }
    j.end_obj();
    j.finish()
}

/// `"key":[{vertex, estimate, lo, hi}, ...]`.
fn push_scores(j: &mut JsonBuf, key: &str, scores: &[BoundedScore]) {
    j.key(key).begin_arr();
    for b in scores {
        j.begin_obj();
        j.key("vertex").uint(b.vertex as u64);
        j.key("estimate").num(b.estimate);
        j.key("lo").num(b.lo);
        j.key("hi").num(b.hi);
        j.end_obj();
    }
    j.end_arr();
}

/// Cross-shard comparison: which of two *sessions* ranks vertex `v`
/// higher. The per-session `/compare` never leaves one engine; this one
/// loads both sessions' snapshots — potentially owned by different write
/// shards at different epochs — and interval-compares their estimates.
/// Not cached: the composite key spans two epoch lines.
fn compare_sessions(req: &Request, ctx: &Ctx, readers: &[Reader]) -> Result<Response, String> {
    ctx.stats.queries.fetch_add(1, Relaxed);
    let a: VertexId = req.require("a")?;
    let b: VertexId = req.require("b")?;
    let v: VertexId = req.require("v")?;
    let n = ctx.shards.len();
    let (wa, wb) = (shard_of(a, n), shard_of(b, n));
    if let Some(shed) = shed_check(ctx, wa).or_else(|| shed_check(ctx, wb)) {
        return Ok(shed);
    }
    let (sa, sb) = match (session(ctx, readers, a, wa), session(ctx, readers, b, wb)) {
        (Ok(sa), Ok(sb)) => (sa, sb),
        (Err(e), _) | (_, Err(e)) => return Ok(e),
    };
    let (ba, bb) = (sa.score(v), sb.score(v));
    // Certain only when the ε-intervals are disjoint, same as the
    // in-session compare semantics.
    let order = if ba.lo > bb.hi {
        "greater"
    } else if ba.hi < bb.lo {
        "less"
    } else {
        "undecidable"
    };
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("a").uint(a as u64);
    j.key("b").uint(b as u64);
    j.key("v").uint(v as u64);
    j.key("epoch_a").uint(sa.epoch());
    j.key("epoch_b").uint(sb.epoch());
    j.key("estimate_a").num(ba.estimate);
    j.key("estimate_b").num(bb.estimate);
    j.key("order").str(order);
    j.end_obj();
    Ok(Response::new(200, j.finish()))
}

/// `GET /sessions`: the flat `sessions` array stays merged-and-sorted
/// across shards (the unsharded wire shape); the per-shard blocks expose
/// the partition.
fn sessions(ctx: &Ctx) -> Response {
    let mut all: Vec<VertexId> = ctx.shards.iter().flat_map(|s| s.registry.sources()).collect();
    all.sort_unstable();
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("capacity").uint(ctx.shards.iter().map(|s| s.registry.capacity() as u64).sum());
    j.key("sessions").begin_arr();
    for s in all {
        j.uint(s as u64);
    }
    j.end_arr();
    j.key("write_shards").begin_arr();
    for s in &ctx.shards {
        j.begin_obj();
        j.key("shard").uint(s.index as u64);
        j.key("capacity").uint(s.registry.capacity() as u64);
        j.key("sessions").begin_arr();
        for src in s.registry.sources() {
            j.uint(src as u64);
        }
        j.end_arr();
        j.end_obj();
    }
    j.end_arr();
    j.end_obj();
    Response::new(200, j.finish())
}

/// `/session/open` and `/session/close`: applied by the owning shard's
/// write loop between batches; the response acknowledges acceptance,
/// not completion.
fn session_control(
    req: &Request,
    ctx: &Ctx,
    ctl_txs: &[Sender<Control>],
) -> Result<Response, String> {
    let source: VertexId = req.require("source")?;
    let open = req.path == "/session/open";
    if open && source as usize >= ctx.vertex_bound {
        return Err(format!(
            "source {source} is outside the graph's vertex bound {}",
            ctx.vertex_bound
        ));
    }
    let ctl = if open { Control::Open(source) } else { Control::Close(source) };
    let ws = shard_of(source, ctx.shards.len());
    let accepted = ctl_txs[ws].send(ctl).is_ok();
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("accepted").bool(accepted);
    j.key(if open { "opening" } else { "closing" }).uint(source as u64);
    j.key("write_shard").uint(ws as u64);
    j.end_obj();
    Ok(Response::new(200, j.finish()))
}

fn shutdown(ctx: &Ctx) -> Response {
    ctx.shutdown.store(true, SeqCst);
    // Wake the blocking accept so the acceptor can exit; shards notice
    // the flag within their poll ceiling.
    let _ = TcpStream::connect(ctx.addr);
    Response::new(200, r#"{"shutting_down":true}"#)
}

/// `GET /metrics`: the registry's histograms, then the catalog's
/// scalars. The render time lands in a registered histogram, so it
/// shows up on the *next* scrape, which keeps this scrape's text
/// consistent.
fn metrics(ctx: &Ctx) -> Response {
    let t = Instant::now();
    let mut scalars = PromText::new();
    catalog::render_prometheus(ctx, &mut scalars);
    let text = ctx.metrics.registry.render_prometheus(&mut scalars);
    ctx.metrics.metrics_scrape.record(t.elapsed().as_nanos() as u64);
    Response::with_content_type(200, PROMETHEUS_CONTENT_TYPE, text)
}

/// `GET /trace[?limit=N&kind=request|slide]`.
fn trace(req: &Request, ctx: &Ctx) -> Result<Response, String> {
    let limit: usize = req.parsed_or("limit", usize::MAX)?;
    let event = match req.param("kind") {
        None => None,
        Some("request") => Some("\"event\":\"request\""),
        Some("slide") => Some("\"event\":\"slide\""),
        Some(other) => return Err(format!("unknown trace kind {other:?} (request|slide)")),
    };
    let body = ctx.metrics.trace.dump_with(limit, |l| event.is_none_or(|e| l.contains(e)));
    Ok(Response::with_content_type(200, "application/x-ndjson", body))
}

/// `GET /series`: the column catalog, or `?name=&window=` aggregates
/// and points of one column over a trailing window.
fn series(req: &Request, ctx: &Ctx) -> Result<Response, String> {
    let interval_ms = ctx.audit_interval.as_secs_f64() * 1e3;
    let mut j = JsonBuf::new();
    j.begin_obj();
    let Some(name) = req.param("name") else {
        j.key("interval_ms").num(interval_ms);
        j.key("samples").uint(ctx.series.len() as u64);
        j.key("names").begin_arr();
        for name in ctx.series.names() {
            j.str(name);
        }
        j.end_arr();
        j.end_obj();
        return Ok(Response::new(200, j.finish()));
    };
    let window_s: f64 = req.parsed_finite_or("window", 60.0)?;
    let window_nanos = (window_s.max(0.0) * 1e9) as u64;
    let Some(w) = ctx.series.window(name, window_nanos) else {
        return Ok(Response::new(404, error_body(&format!("unknown series {name}"))));
    };
    j.key("name").str(name);
    j.key("window_seconds").num(window_s);
    j.key("interval_ms").num(interval_ms);
    j.key("last").num(w.last);
    j.key("min").num(w.min);
    j.key("max").num(w.max);
    j.key("avg").num(w.avg);
    j.key("rate_per_sec").num(w.rate_per_sec);
    j.key("points").begin_arr();
    for (at, v) in &w.points {
        j.begin_arr();
        j.num(*at as f64 / 1e9);
        j.num(*v);
        j.end_arr();
    }
    j.end_arr();
    j.end_obj();
    Ok(Response::new(200, j.finish()))
}
