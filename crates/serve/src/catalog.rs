//! The metric catalog: every instance-level scalar, declared once.
//!
//! Each [`Row`] of [`CATALOG`] names one number and says everywhere it
//! appears: its Prometheus family (name, kind, help), its key path in
//! the `/stats` and `/healthz` JSON documents, and its `/series` column.
//! `/metrics`, `/stats`, `/healthz` and the observer's time-series row
//! are all rendered by walking this one table, so they cannot disagree
//! on a value or drift apart on a name. The values themselves stay where
//! the code that changes them lives (`ServerStats`, `ConnCounters`, the
//! caches, the engines, the WALs); a row only holds the getter that reads
//! one. The pipeline histograms live in the `dppr_obs::Registry` of
//! [`crate::metrics::ServerMetrics`]; `/metrics` renders that registry
//! first and this table after it.
//!
//! Rows belong to a [`Scope`]. Instance rows hold one value each; the
//! other scopes hold one value per write shard, event-loop shard or SLO
//! target. Those render as a labelled family in `/metrics` and as the
//! elements of a JSON array (`write_shards[]`, `shards[]`, `slos[]`).
//! Rows sharing a JSON object or a Prometheus family sit next to each
//! other in the table; `crates/serve/tests/surface.rs` pins that, and
//! pins every name the table renders.

use crate::cache::CacheStats;
use crate::json::JsonBuf;
use crate::server::Ctx;
use dppr_core::CounterSnapshot;
use dppr_graph::SubstrateStats;
use dppr_obs::{HistSnapshot, ProcessStats, PromText};
use dppr_wal::WalStats;
use std::cell::OnceCell;
use std::ops::Deref;
use std::sync::atomic::Ordering::Relaxed;

/// One scalar as read at render time.
enum Value {
    U64(u64),
    F64(f64),
    Bool(bool),
    /// JSON only.
    Str(String),
    /// JSON only: an absent value (`null`).
    Null,
    /// JSON only: a stage-latency summary `{count, p50_s, p99_s}`.
    Timing(HistSnapshot),
}

macro_rules! value_from {
    ($($t:ty => $variant:ident),*) => {
        $(impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::$variant(v as _)
            }
        })*
    };
}
value_from!(u64 => U64, usize => U64, f64 => F64, bool => Bool);

impl Value {
    fn as_f64(&self) -> f64 {
        match *self {
            Value::U64(v) => v as f64,
            Value::F64(v) => v,
            Value::Bool(b) => b as u64 as f64,
            _ => f64::NAN,
        }
    }
}

/// What a row is indexed by.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// One value for the whole instance.
    Instance,
    /// One value per write shard: `write_shards[]`, `{write_shard="i"}`.
    WriteShard,
    /// One value per event-loop shard: `shards[]`, `{shard="w"}`.
    EventShard,
    /// One value per configured SLO target: `slos[]`, `{slo="name"}`.
    Slo,
}

impl Scope {
    fn len(self, ctx: &Ctx) -> usize {
        match self {
            Scope::Instance => 1,
            Scope::WriteShard => ctx.shards.len(),
            Scope::EventShard => ctx.shard_gauges.len(),
            Scope::Slo => ctx.slo.specs.len(),
        }
    }

    /// The JSON array and the Prometheus label key of a non-instance
    /// scope.
    fn array_and_label(self) -> Option<(&'static str, &'static str)> {
        match self {
            Scope::Instance => None,
            Scope::WriteShard => Some(("write_shards", "write_shard")),
            Scope::EventShard => Some(("shards", "shard")),
            Scope::Slo => Some(("slos", "slo")),
        }
    }

    /// The label value naming item `i` (empty for the instance).
    fn item(self, ctx: &Ctx, i: usize) -> String {
        match self {
            Scope::Instance => String::new(),
            Scope::Slo => ctx.slo.specs[i].name.to_string(),
            Scope::WriteShard | Scope::EventShard => i.to_string(),
        }
    }
}

/// The JSON documents, as bits of a row's `docs` set.
pub(crate) const STATS: u8 = 1;
pub(crate) const HEALTHZ: u8 = 2;

/// A Prometheus family.
#[derive(Clone, Copy)]
struct Prom {
    name: &'static str,
    kind: &'static str,
    help: &'static str,
    /// A fixed extra label, for families whose rows split one quantity
    /// (`window="fast"` / `window="slow"`).
    label: Option<(&'static str, &'static str)>,
}

type Getter = fn(&View, usize) -> Value;

/// One catalogued scalar.
struct Row {
    scope: Scope,
    /// Dotted JSON key path, relative to the scope's array element for
    /// non-instance scopes. Empty for rows outside the JSON documents.
    key: &'static str,
    docs: u8,
    prom: Option<Prom>,
    series: Option<&'static str>,
    get: Getter,
}

/// A `/stats` row.
const fn stat(key: &'static str, get: Getter) -> Row {
    Row { scope: Scope::Instance, key, docs: STATS, prom: None, series: None, get }
}

/// A `/healthz` row.
const fn health(key: &'static str, get: Getter) -> Row {
    Row { docs: HEALTHZ, ..stat(key, get) }
}

/// A row outside the JSON documents (`/metrics` or `/series` only).
const fn scrape(get: Getter) -> Row {
    Row { docs: 0, ..stat("", get) }
}

impl Row {
    const fn per(self, scope: Scope) -> Row {
        Row { scope, ..self }
    }
    const fn healthz(self) -> Row {
        Row { docs: self.docs | HEALTHZ, ..self }
    }
    const fn counter(self, name: &'static str, help: &'static str) -> Row {
        Row { prom: Some(Prom { name, kind: "counter", help, label: None }), ..self }
    }
    const fn gauge(self, name: &'static str, help: &'static str) -> Row {
        Row { prom: Some(Prom { name, kind: "gauge", help, label: None }), ..self }
    }
    const fn labelled(self, key: &'static str, value: &'static str) -> Row {
        let Some(p) = self.prom else { panic!("labelled() needs a family") };
        Row { prom: Some(Prom { label: Some((key, value)), ..p }), ..self }
    }
    const fn series(self, name: &'static str) -> Row {
        Row { series: Some(name), ..self }
    }
}

/// Why a stats mutex read here can be poisoned: each is written by one
/// thread, which then panicked while holding it.
const POISONED: &str = "a thread panicked while publishing its stats";

/// One render's view of the instance: the [`Ctx`] plus the cross-shard
/// merges taken once, so every row of a document reads the same values.
struct View<'a> {
    ctx: &'a Ctx,
    cache: CacheStats,
    engine: CounterSnapshot,
    wal: WalStats,
    /// Every shard applies the identical stream, so the graphs are
    /// replicas: shard 0's occupancy stands for all.
    graph: SubstrateStats,
    /// The laggard shard's `(window_start, window_end)`: the freshness
    /// floor every session is guaranteed.
    window: (u64, u64),
    process: OnceCell<ProcessStats>,
}

impl Deref for View<'_> {
    type Target = Ctx;
    fn deref(&self) -> &Ctx {
        self.ctx
    }
}

impl<'a> View<'a> {
    fn new(ctx: &'a Ctx) -> Self {
        let engines = ctx.shards.iter().map(|s| *s.engine.lock().expect(POISONED));
        let wals = ctx.shards.iter().map(|s| *s.wal.lock().expect(POISONED));
        View {
            ctx,
            cache: ctx.cache_stats(),
            engine: engines.reduce(|a, b| a + b).unwrap_or_default(),
            wal: wals.reduce(|a, b| a + b).unwrap_or_default(),
            graph: *ctx.shards[0].graph.lock().expect(POISONED),
            window: ctx
                .shards
                .iter()
                .map(|s| (s.window_start.load(Relaxed), s.window_end.load(Relaxed)))
                .min_by_key(|&(_, end)| end)
                .unwrap_or_default(),
            process: OnceCell::new(),
        }
    }

    fn process(&self) -> &ProcessStats {
        self.process.get_or_init(ProcessStats::sample)
    }

    /// A WAL failure (read-only serving) wins over an SLO burn.
    fn degraded_reason(&self) -> Value {
        let wal = self.stats.degraded_reason.lock().expect(POISONED).clone();
        wal.or_else(|| self.slo.breach_reason()).map_or(Value::Null, Value::Str)
    }

    /// Age of the oldest per-shard last WAL fsync: conservative for a
    /// staleness report, and absent until every shard has flushed once.
    fn last_fsync_age(&self) -> Value {
        match self.shards.iter().map(|s| s.last_fsync_ns.load(Relaxed)).min() {
            None | Some(0) => Value::Null,
            Some(marker) => {
                let age = (self.start.elapsed().as_nanos() as u64).saturating_sub(marker - 1);
                Value::F64(age as f64 / 1e9)
            }
        }
    }

    /// Families in the full `/metrics` exposition: the registry's plus
    /// every catalog family with at least one series.
    fn family_count(&self) -> usize {
        let mut names: Vec<&str> = CATALOG
            .iter()
            .filter(|r| r.scope.len(self) > 0)
            .filter_map(|r| r.prom.map(|p| p.name))
            .collect();
        names.dedup();
        self.metrics.registry.family_count() + names.len()
    }
}

/// One row per engine push-work counter ([`CounterSnapshot::fields`]).
macro_rules! engine {
    ($f:ident) => {
        stat(concat!("engine.", stringify!($f)), |v, _| v.engine.$f.into()).counter(
            concat!("dppr_engine_", stringify!($f), "_total"),
            "Cumulative engine push-work counter",
        )
    };
}

/// One `/stats` timing summary per pipeline-stage histogram.
macro_rules! timing {
    ($h:ident) => {
        stat(concat!("timings.", stringify!($h)), |v, _| Value::Timing(v.metrics.$h.snapshot()))
    };
}

use Scope::{EventShard, Slo, WriteShard};

/// Every catalogued scalar, in `/stats` order.
#[rustfmt::skip]
static CATALOG: &[Row] = &[
    health("ok", |_, _| true.into()),
    stat("epoch", |v, _| v.epoch_min().into()).healthz()
        .gauge("dppr_epoch", "Last published epoch (minimum across write shards)").series("epoch"),
    health("degraded", |v, _| (v.stats.degraded.load(Relaxed) || v.slo.any_breaching()).into()),
    health("degraded_reason", |v, _| v.degraded_reason()),
    health("last_fsync_age_seconds", |v, _| v.last_fsync_age()),
    health("lagging", |v, _| v.any_lagging().into()),
    scrape(|v, _| v.start.elapsed().as_secs_f64().into())
        .gauge("dppr_uptime_seconds", "Seconds since the instance started serving"),
    // --- update path
    stat("slides", |v, _| v.stats.slides.load(Relaxed).into())
        .counter("dppr_slides_total", "Window slides applied").series("slides_total"),
    stat("updates_offered", |v, _| v.stats.updates_offered.load(Relaxed).into())
        .counter("dppr_updates_offered_total", "Updates handed to the engine (arcs)"),
    stat("updates_applied", |v, _| v.stats.updates_applied.load(Relaxed).into())
        .counter("dppr_updates_applied_total", "Updates that changed the graph"),
    stat("updates_per_sec", |v, _| v.stats.updates_per_sec().into()),
    stat("stream_done", |v, _| v.stats.stream_done.load(Relaxed).into()),
    // --- queries and sessions
    stat("queries", |v, _| v.stats.queries.load(Relaxed).into())
        .counter("dppr_queries_total", "Query requests answered (any kind, any status)").series("queries_total"),
    stat("shed", |v, _| v.stats.shed.load(Relaxed).into())
        .counter("dppr_shed_total", "Requests shed 503 under lag or connection pressure").series("shed_total"),
    stat("sessions", |v, _| v.sessions_len().into()).gauge("dppr_sessions", "Open sessions").series("sessions"),
    stat("sessions_opened", |v, _| v.stats.sessions_opened.load(Relaxed).into())
        .counter("dppr_sessions_opened_total", "Sessions opened over HTTP"),
    stat("sessions_closed", |v, _| v.stats.sessions_closed.load(Relaxed).into())
        .counter("dppr_sessions_closed_total", "Sessions closed over HTTP"),
    stat("sessions_evicted", |v, _| v.stats.sessions_evicted.load(Relaxed).into())
        .counter("dppr_sessions_evicted_total", "Sessions evicted by the LRU budget"),
    stat("http.connections", |v, _| v.conn.accepted.load(Relaxed).into())
        .counter("dppr_http_connections_total", "Connections adopted by the shards"),
    stat("http.requests", |v, _| v.conn.requests.load(Relaxed).into())
        .counter("dppr_http_requests_total", "HTTP requests answered").series("http_requests_total"),
    stat("http.bad_requests", |v, _| v.conn.bad_requests.load(Relaxed).into())
        .counter("dppr_http_bad_requests_total", "Malformed or oversized requests answered 400"),
    stat("http.read_timeouts", |v, _| v.conn.read_timeouts.load(Relaxed).into())
        .counter("dppr_http_read_timeouts_total", "Connections reaped by the read deadline"),
    stat("http.write_timeouts", |v, _| v.conn.write_timeouts.load(Relaxed).into())
        .counter("dppr_http_write_timeouts_total", "Connections reaped by the write deadline"),
    stat("cache.hits", |v, _| v.cache.hits.into()).counter("dppr_cache_hits_total", "Query-cache hits"),
    stat("cache.misses", |v, _| v.cache.misses.into()).counter("dppr_cache_misses_total", "Query-cache misses"),
    stat("cache.evictions", |v, _| v.cache.evictions.into())
        .counter("dppr_cache_evictions_total", "Query-cache evictions"),
    stat("cache.stale_purged", |v, _| v.cache.stale_purged.into())
        .counter("dppr_cache_stale_purged_total", "Dead-epoch cache entries purged at insert"),
    stat("cache.hit_rate", |v, _| v.cache.hit_rate().into())
        .gauge("dppr_cache_hit_rate", "Query-cache hit rate (0 before any lookup)"),
    // --- durability
    stat("durability.enabled", |v, _| v.durability_enabled.into())
        .gauge("dppr_durability_enabled", "1 when a WAL and checkpoints are configured"),
    stat("durability.degraded", |v, _| v.stats.degraded.load(Relaxed).into())
        .gauge("dppr_degraded", "1 once a WAL failure forced read-only serving"),
    stat("durability.durable_epoch", |v, _| v.durable_epoch().into())
        .gauge("dppr_durable_epoch", "Epoch of the newest durable checkpoint"),
    stat("durability.checkpoints", |v, _| v.stats.checkpoints.load(Relaxed).into())
        .counter("dppr_checkpoints_total", "Checkpoints written successfully"),
    stat("durability.checkpoint_failures", |v, _| v.stats.checkpoint_failures.load(Relaxed).into())
        .counter("dppr_checkpoint_failures_total", "Checkpoint attempts that failed"),
    stat("durability.wal_records", |v, _| v.wal.appends.into())
        .counter("dppr_wal_records_total", "Records appended to the WAL"),
    stat("durability.wal_segments", |v, _| v.shards.iter().map(|s| s.wal_segments.load(Relaxed)).sum::<u64>().into())
        .gauge("dppr_wal_segments", "Live WAL segments (sealed + active)"),
    stat("durability.wal_syncs", |v, _| v.wal.syncs.into())
        .counter("dppr_wal_syncs_total", "WAL device flushes issued"),
    stat("durability.wal_bytes", |v, _| v.wal.bytes_written.into())
        .counter("dppr_wal_bytes_total", "WAL bytes written (payload + framing)"),
    stat("durability.wal_pruned_segments", |v, _| v.wal.pruned_segments.into())
        .counter("dppr_wal_pruned_segments_total", "WAL segments deleted by retention"),
    // --- engine push work (the paper's operation counts), graph, stream
    engine!(pushes),
    engine!(edge_traversals),
    engine!(atomic_adds),
    engine!(cas_retries),
    engine!(enqueued),
    engine!(dup_avoided),
    engine!(iterations),
    engine!(max_frontier),
    engine!(frontier_total),
    engine!(restore_ops),
    engine!(batches),
    stat("graph.arena_slots", |v, _| v.graph.arena_slots.into())
        .gauge("dppr_graph_arena_slots", "Adjacency-arena slots (live + slack + garbage)"),
    stat("graph.live_slots", |v, _| v.graph.live_slots.into())
        .gauge("dppr_graph_live_slots", "Live adjacency slots (2m)"),
    stat("graph.dead_slots", |v, _| v.graph.dead_slots.into())
        .gauge("dppr_graph_dead_slots", "Garbage slots awaiting compaction"),
    stat("graph.hub_vertices", |v, _| v.graph.hub_vertices.into())
        .gauge("dppr_graph_hub_vertices", "Vertices on the hash-membership (hub) path"),
    stat("graph.utilization", |v, _| v.graph.utilization().into())
        .gauge("dppr_graph_utilization", "Live fraction of the arena"),
    stat("stream.window_start", |v, _| v.window.0.into())
        .gauge("dppr_stream_window_start", "Window start (stream position)"),
    stat("stream.window_end", |v, _| v.window.1.into())
        .gauge("dppr_stream_window_end", "Window end (stream position)"),
    stat("stream.stream_len", |v, _| v.stream_len.into())
        .gauge("dppr_stream_len", "Total logical edges in the stream"),
    stat("stream.fraction_consumed", |v, _| Value::F64(if v.stream_len == 0 { 1.0 } else { v.window.1 as f64 / v.stream_len as f64 }))
        .gauge("dppr_stream_fraction_consumed", "Share of the stream that has arrived"),
    // --- per write shard
    stat("shard", |_, i| i.into()).per(WriteShard).healthz(),
    stat("epoch", |v, i| v.shards[i].domain.epoch().into()).per(WriteShard).healthz()
        .gauge("dppr_write_shard_epoch", "Published epoch per write shard"),
    stat("slides", |v, i| v.shards[i].slides.load(Relaxed).into()).per(WriteShard)
        .counter("dppr_write_shard_slides_total", "Window slides applied per write shard"),
    stat("sessions", |v, i| v.shards[i].registry.len().into()).per(WriteShard)
        .gauge("dppr_write_shard_sessions", "Open sessions per write shard"),
    stat("session_capacity", |v, i| v.shards[i].registry.capacity().into()).per(WriteShard),
    stat("stream_done", |v, i| v.shards[i].stream_done.load(Relaxed).into()).per(WriteShard).healthz()
        .gauge("dppr_write_shard_stream_done", "1 once the shard ran its stream copy dry"),
    stat("degraded", |v, i| v.shards[i].degraded.load(Relaxed).into()).per(WriteShard).healthz()
        .gauge("dppr_write_shard_degraded", "1 once the shard's WAL failed (read-only)"),
    stat("durable_epoch", |v, i| v.shards[i].durable_epoch.load(Relaxed).into()).per(WriteShard)
        .gauge("dppr_write_shard_durable_epoch", "Newest durable checkpoint epoch per write shard"),
    stat("wal_records", |v, i| v.shards[i].wal.lock().expect(POISONED).appends.into()).per(WriteShard),
    stat("wal_segments", |v, i| v.shards[i].wal_segments.load(Relaxed).into()).per(WriteShard),
    stat("window_start", |v, i| v.shards[i].window_start.load(Relaxed).into()).per(WriteShard),
    stat("window_end", |v, i| v.shards[i].window_end.load(Relaxed).into()).per(WriteShard)
        .gauge("dppr_write_shard_window_end", "Window end (stream position) per write shard"),
    health("lag_seconds", |v, i| v.slide_in_flight(&v.shards[i]).map_or(0.0, |d| d.as_secs_f64()).into())
        .per(WriteShard),
    stat("cache.hits", |v, i| v.shards[i].cache.stats().hits.into()).per(WriteShard),
    stat("cache.misses", |v, i| v.shards[i].cache.stats().misses.into()).per(WriteShard),
    stat("cache.evictions", |v, i| v.shards[i].cache.stats().evictions.into()).per(WriteShard),
    stat("cache.stale_purged", |v, i| v.shards[i].cache.stats().stale_purged.into()).per(WriteShard),
    // --- per event-loop shard
    stat("connections", |v, i| (v.shard_gauges[i].0.get().max(0) as u64).into()).per(EventShard)
        .gauge("dppr_shard_connections", "Live connections owned by the shard"),
    stat("queue_depth", |v, i| (v.shard_gauges[i].1.get().max(0) as u64).into()).per(EventShard)
        .gauge("dppr_shard_queue_depth", "Accepted connections awaiting adoption by the shard"),
    // --- stage-latency summaries out of the `/metrics` histograms
    timing!(http_request),
    timing!(slide_apply),
    timing!(push_wall),
    timing!(snapshot_publish),
    timing!(wal_append),
    timing!(wal_fsync),
    timing!(checkpoint),
    stat("trace.enabled", |v, _| v.metrics.trace_requests.enabled().into()),
    stat("trace.buffered", |v, _| v.metrics.trace.len().into())
        .gauge("dppr_trace_buffered", "Trace events currently buffered"),
    stat("trace.dropped", |v, _| v.metrics.trace.dropped().into())
        .counter("dppr_trace_dropped_total", "Trace events evicted from the ring"),
    // --- accuracy audit (the error distributions are the registered
    // dppr_audit_* histograms)
    stat("audit.enabled", |v, _| v.audit.enabled.into())
        .gauge("dppr_audit_enabled", "1 when online accuracy auditing is configured"),
    stat("audit.sample", |v, _| v.audit.sample.into()),
    stat("audit.runs", |v, _| v.audit.runs.load(Relaxed).into())
        .counter("dppr_audit_runs_total", "Audit ticks completed"),
    stat("audit.sessions_audited", |v, _| v.audit.sessions_audited.load(Relaxed).into())
        .counter("dppr_audit_sessions_total", "Sessions audited against ground truth"),
    stat("audit.bound_violations", |v, _| v.audit.bound_violations.load(Relaxed).into())
        .counter("dppr_audit_bound_violations_total", "Audited sessions whose max error exceeded the epsilon contract"),
    stat("audit.cpu_seconds", |v, _| (v.audit.cpu_nanos.load(Relaxed) as f64 / 1e9).into())
        .counter("dppr_audit_cpu_seconds_total", "Observer wall time spent auditing (clone-free side only)"),
    stat("audit.last_epoch", |v, _| v.audit.last_epoch.load(Relaxed).into())
        .gauge("dppr_audit_last_epoch", "Epoch of the newest completed audit"),
    stat("audit.staleness_epochs", |v, _| v.audit.staleness_epochs.load(Relaxed).into())
        .gauge("dppr_audit_staleness_epochs", "Shard epoch minus audited epoch at last report"),
    stat("audit.last_l1_error", |v, _| v.audit.last_l1.get().into()),
    stat("audit.last_linf_error", |v, _| v.audit.last_linf.get().into())
        .gauge("dppr_audit_last_linf_error", "Max per-vertex error in the newest audit").series("audit_linf_error"),
    stat("audit.max_linf_error", |v, _| v.audit.max_linf.get().into())
        .gauge("dppr_audit_max_linf_error", "Largest per-vertex error ever audited"),
    stat("audit.last_topk_overlap_10", |v, _| v.audit.last_overlap10.get().into()).series("audit_topk_overlap_10"),
    stat("audit.last_topk_overlap_50", |v, _| v.audit.last_overlap50.get().into()),
    stat("audit.last_invariant_residual", |v, _| v.audit.last_residual.get().into())
        .gauge("dppr_audit_invariant_residual", "Largest Eq. 2 invariant violation in the newest audit"),
    // --- per SLO target
    stat("name", |v, i| Value::Str(v.slo.specs[i].name.into())).per(Slo).healthz(),
    stat("target", |v, i| v.slo.specs[i].target.into()).per(Slo).healthz(),
    stat("burn_fast", |v, i| v.slo.status[i].burn_fast.get().into()).per(Slo).healthz()
        .gauge("dppr_slo_burn_rate", "Error-budget burn rate per SLO and window (>= 1 on the fast window is a breach)")
        .labelled("window", "fast"),
    stat("burn_slow", |v, i| v.slo.status[i].burn_slow.get().into()).per(Slo).healthz()
        .gauge("dppr_slo_burn_rate", "Error-budget burn rate per SLO and window (>= 1 on the fast window is a breach)")
        .labelled("window", "slow"),
    stat("breaching", |v, i| v.slo.status[i].breaching.load(Relaxed).into()).per(Slo).healthz()
        .gauge("dppr_slo_breaching", "1 while the SLO's fast-window burn is at or above 1"),
    stat("breaches_total", |v, i| v.slo.status[i].breaches.load(Relaxed).into()).per(Slo).healthz()
        .counter("dppr_slo_breach_total", "Healthy-to-breaching transitions per SLO"),
    // --- process (out of /proc/self; all 0 without procfs) and self-observation
    stat("process.rss_bytes", |v, _| v.process().rss_bytes.into())
        .gauge("dppr_process_rss_bytes", "Resident set size").series("process_rss_bytes"),
    stat("process.open_fds", |v, _| v.process().open_fds.into())
        .gauge("dppr_process_open_fds", "Open file descriptors").series("process_open_fds"),
    stat("process.threads", |v, _| v.process().threads.into())
        .gauge("dppr_process_threads", "OS threads").series("process_threads"),
    stat("series.interval_ms", |v, _| (v.audit_interval.as_secs_f64() * 1e3).into()),
    stat("series.samples", |v, _| v.series.len().into())
        .gauge("dppr_metrics_series_samples", "Rows retained by the in-process metrics time-series"),
    scrape(|v, _| v.family_count().into())
        .gauge("dppr_metrics_families", "Metric families in this exposition (including this one)"),
    // --- per-tick windowed request latency, written by the observer
    scrape(|v, _| v.audit.tick_p50.get().into()).series("http_request_p50_seconds"),
    scrape(|v, _| v.audit.tick_p99.get().into()).series("http_request_p99_seconds"),
];

/// Appends every catalog family to `out` in Prometheus text format.
pub(crate) fn render_prometheus(ctx: &Ctx, out: &mut PromText) {
    let view = View::new(ctx);
    let mut last = "";
    for row in CATALOG {
        let Some(p) = row.prom else { continue };
        let items = row.scope.len(ctx);
        if items > 0 && p.name != last {
            out.family(p.name, p.help, p.kind);
            last = p.name;
        }
        for i in 0..items {
            let item = row.scope.item(ctx, i);
            let mut labels: Vec<(&str, &str)> = Vec::with_capacity(2);
            labels.extend(row.scope.array_and_label().map(|(_, key)| (key, item.as_str())));
            labels.extend(p.label);
            match (row.get)(&view, i) {
                Value::U64(v) => out.series_u64_multi(p.name, &labels, v),
                Value::Bool(b) => out.series_u64_multi(p.name, &labels, b as u64),
                value => out.series_f64_multi(p.name, &labels, value.as_f64()),
            }
        }
    }
}

/// Column names of the `/series` ring, in row order.
pub(crate) fn series_names() -> Vec<&'static str> {
    CATALOG.iter().filter_map(|r| r.series).collect()
}

/// One `/series` row: the current value of every column.
pub(crate) fn series_row(ctx: &Ctx) -> Vec<f64> {
    let view = View::new(ctx);
    CATALOG.iter().filter(|r| r.series.is_some()).map(|r| (r.get)(&view, 0).as_f64()).collect()
}

/// The `/stats` ([`STATS`]) or `/healthz` ([`HEALTHZ`]) document.
pub(crate) fn render_json(ctx: &Ctx, doc: u8) -> String {
    let view = View::new(ctx);
    let rows: Vec<&Row> = CATALOG.iter().filter(|r| r.docs & doc != 0).collect();
    let mut j = JsonBuf::new();
    j.begin_obj();
    for run in rows.chunk_by(|a, b| a.scope == b.scope) {
        let scope = run[0].scope;
        let Some((array, _)) = scope.array_and_label() else {
            write_fields(&mut j, &view, run, 0);
            continue;
        };
        j.key(array).begin_arr();
        for i in 0..scope.len(ctx) {
            j.begin_obj();
            write_fields(&mut j, &view, run, i);
            j.end_obj();
        }
        j.end_arr();
    }
    j.end_obj();
    j.finish()
}

/// Writes `rows` (for item `i`) as keys of the open object, opening and
/// closing the nested objects their dotted paths name.
fn write_fields(j: &mut JsonBuf, view: &View, rows: &[&Row], i: usize) {
    let mut open: Vec<&str> = Vec::new();
    for row in rows {
        let mut path: Vec<&str> = row.key.split('.').collect();
        let leaf = path.pop().expect("split yields at least one segment");
        let keep = open.iter().zip(&path).take_while(|(a, b)| a == b).count();
        for _ in keep..open.len() {
            j.end_obj();
        }
        open.truncate(keep);
        for seg in &path[keep..] {
            j.key(seg).begin_obj();
            open.push(seg);
        }
        j.key(leaf);
        match (row.get)(view, i) {
            Value::U64(v) => j.uint(v),
            Value::F64(v) => j.num(v),
            Value::Bool(b) => j.bool(b),
            Value::Str(s) => j.str(&s),
            Value::Null => j.null(),
            Value::Timing(s) => {
                j.begin_obj();
                j.key("count").uint(s.count);
                j.key("p50_s").num(s.p50() as f64 / 1e9);
                j.key("p99_s").num(s.p99() as f64 / 1e9);
                j.end_obj()
            }
        };
    }
    for _ in 0..open.len() {
        j.end_obj();
    }
}
