//! The serving instance's histograms and trace plumbing.
//!
//! One [`ServerMetrics`] per instance owns the [`dppr_obs::Registry`]
//! plus direct handles to every pipeline-stage histogram, so the write
//! loop, the shard routers and the observer record without name
//! lookups. The registry holds histograms only (the `*_seconds` stage
//! latencies, `dppr_push_iterations`, the `dppr_audit_*` error
//! distributions, and with several write shards the
//! `{write_shard="i"}`-labelled stage families of [`WriteShardStages`]).
//! Every scalar — counters, gauges, the per-shard and per-SLO families —
//! is declared once in the metric catalog (`crate::catalog`), which
//! reads each value where it already lives and renders it into
//! `/metrics`, `/stats`, `/healthz` and `/series`. `/metrics` is the
//! registry's exposition followed by the catalog's.

use dppr_obs::{Histogram, Registry, Sampler, TraceRing, Unit};
use std::sync::Arc;

/// Every histogram the pipeline records into, plus the trace ring.
pub struct ServerMetrics {
    pub registry: Registry,
    pub http_request: Arc<Histogram>,
    pub http_parse: Arc<Histogram>,
    pub http_route: Arc<Histogram>,
    pub http_write: Arc<Histogram>,
    pub slide_apply: Arc<Histogram>,
    pub push_wall: Arc<Histogram>,
    pub push_iterations: Arc<Histogram>,
    pub snapshot_publish: Arc<Histogram>,
    pub wal_append: Arc<Histogram>,
    pub wal_fsync: Arc<Histogram>,
    pub checkpoint: Arc<Histogram>,
    /// Audited per-session L1 error, recorded ×1e9 (natural units).
    pub audit_l1: Arc<Histogram>,
    /// Audited per-session L∞ error, recorded ×1e9 (natural units).
    pub audit_linf: Arc<Histogram>,
    /// Audited top-10 overlap (0..1), recorded ×1e9 (natural units).
    pub audit_overlap10: Arc<Histogram>,
    /// Audited top-50 overlap (0..1), recorded ×1e9 (natural units).
    pub audit_overlap50: Arc<Histogram>,
    /// Ground-truth solve wall time per audited session.
    pub audit_solve: Arc<Histogram>,
    /// `/metrics` render duration (self-observation; a scrape sees the
    /// previous scrape's cost).
    pub metrics_scrape: Arc<Histogram>,
    /// End-to-end structured trace events (`GET /trace`).
    pub trace: TraceRing,
    /// Every-Nth request tracing.
    pub trace_requests: Sampler,
    /// Every-Nth slide tracing.
    pub trace_slides: Sampler,
}

/// One write shard's labelled stage histograms: the same pipeline stages
/// as the aggregate families, but as `{write_shard="i"}` series so a
/// straggling or degraded shard is visible in isolation.
pub struct WriteShardStages {
    pub slide_apply: Arc<Histogram>,
    pub push_wall: Arc<Histogram>,
    pub snapshot_publish: Arc<Histogram>,
    pub wal_append: Arc<Histogram>,
    pub wal_fsync: Arc<Histogram>,
    pub checkpoint: Arc<Histogram>,
}

impl ServerMetrics {
    pub fn new(trace_sample: u64, trace_capacity: usize) -> Self {
        let registry = Registry::new();
        let nanos = |name, help| registry.histogram(name, help, Unit::Nanos);
        // The audit error/overlap families reuse the nanos-unit bucket
        // layout as a natural-units encoding: values are recorded ×1e9,
        // so a rendered bound of 0.001 means an L1 error of 1e-3 (or an
        // overlap of 0.001). This keeps the log-scale buckets dense
        // exactly where ε-scale errors live.
        let overlap = |k| {
            registry.histogram_with_label(
                "dppr_audit_topk_overlap",
                "Audited top-k overlap between published and ground-truth rankings (recorded x1e9)",
                Unit::Nanos,
                "k",
                k,
            )
        };
        ServerMetrics {
            http_request: nanos(
                "dppr_http_request_seconds",
                "Request handling end to end: parse, route, serialize",
            ),
            http_parse: nanos("dppr_http_parse_seconds", "Request-head parse time"),
            http_route: nanos(
                "dppr_http_route_seconds",
                "Endpoint dispatch and query execution time",
            ),
            http_write: nanos(
                "dppr_http_write_seconds",
                "Response render time into the connection buffer",
            ),
            slide_apply: nanos(
                "dppr_slide_apply_seconds",
                "One window slide end to end: WAL append, engine apply, snapshot publish",
            ),
            push_wall: nanos(
                "dppr_push_wall_seconds",
                "Engine apply_batch wall time (push convergence)",
            ),
            push_iterations: registry.histogram(
                "dppr_push_iterations",
                "Frontier iterations per slide until the push converged",
                Unit::Raw,
            ),
            snapshot_publish: nanos(
                "dppr_snapshot_publish_seconds",
                "Per-slide session snapshot publication time",
            ),
            wal_append: nanos(
                "dppr_wal_append_seconds",
                "WAL record append time (framing + write, excluding fsync policy)",
            ),
            wal_fsync: nanos("dppr_wal_fsync_seconds", "WAL device-flush latency"),
            checkpoint: nanos(
                "dppr_checkpoint_seconds",
                "Checkpoint write duration (serialize, fsync, rename)",
            ),
            audit_l1: nanos(
                "dppr_audit_l1_error",
                "Audited L1 distance between published estimates and ground truth (recorded x1e9)",
            ),
            audit_linf: nanos(
                "dppr_audit_linf_error",
                "Audited max per-vertex error vs ground truth; the paper's epsilon contract (recorded x1e9)",
            ),
            audit_overlap10: overlap("10"),
            audit_overlap50: overlap("50"),
            audit_solve: nanos(
                "dppr_audit_solve_seconds",
                "Sequential ground-truth solve wall time per audited session",
            ),
            metrics_scrape: nanos(
                "dppr_metrics_scrape_seconds",
                "Time spent rendering /metrics (visible from the next scrape)",
            ),
            trace: TraceRing::new(trace_capacity),
            trace_requests: Sampler::new(trace_sample),
            trace_slides: Sampler::new(trace_sample),
            registry,
        }
    }

    /// Registers the labelled per-write-shard stage families for shard
    /// `i`. Called once per write shard at instance start; the returned
    /// handles are recorded into by that shard's write loop alongside
    /// the aggregate histograms above.
    pub fn write_shard_stages(&self, i: usize) -> WriteShardStages {
        let h = |name, help| {
            self.registry.histogram_with_label(name, help, Unit::Nanos, "write_shard", i.to_string())
        };
        WriteShardStages {
            slide_apply: h(
                "dppr_shard_slide_apply_seconds",
                "Per-write-shard window slide end to end",
            ),
            push_wall: h(
                "dppr_shard_push_wall_seconds",
                "Per-write-shard engine apply_batch wall time",
            ),
            snapshot_publish: h(
                "dppr_shard_snapshot_publish_seconds",
                "Per-write-shard session snapshot publication time",
            ),
            wal_append: h(
                "dppr_shard_wal_append_seconds",
                "Per-write-shard WAL record append time",
            ),
            wal_fsync: h(
                "dppr_shard_wal_fsync_seconds",
                "Per-write-shard WAL device-flush latency",
            ),
            checkpoint: h(
                "dppr_shard_checkpoint_seconds",
                "Per-write-shard checkpoint write duration",
            ),
        }
    }
}
