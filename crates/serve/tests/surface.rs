//! Golden observability surface: the exact set of `/metrics` families
//! (with their TYPE), the nested key paths of `/stats` and `/healthz`,
//! and the `/series` column names of a fully-featured instance — two
//! write shards, durability on, accuracy auditing on, all three SLO
//! targets set. Dashboards, alert rules and the benchmark scrape these
//! names; a refactor of how they are produced must leave the lists
//! below unchanged.

use dppr_graph::generators::erdos_renyi;
use dppr_graph::GraphStream;
use dppr_serve::{start, DurabilityConfig, ServeConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn get(addr: SocketAddr, target: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(conn, "GET {target} HTTP/1.0\r\nHost: dppr\r\n\r\n").unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read response");
    assert!(raw.starts_with("HTTP/1.0 200") || raw.starts_with("HTTP/1.1 200"), "{raw}");
    raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default()
}

/// Leaf key paths of a JSON document: `a.b` for nested objects, `a[].b`
/// for objects inside arrays (the union over all elements). Arrays of
/// scalars contribute their own path once. Panics on a key repeated
/// within one object.
fn key_paths(json: &str) -> Vec<String> {
    struct P<'a> {
        s: &'a [u8],
        i: usize,
        out: Vec<String>,
    }
    impl P<'_> {
        fn ws(&mut self) {
            while self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }
        fn string(&mut self) -> String {
            assert_eq!(self.s[self.i], b'"');
            self.i += 1;
            let start = self.i;
            while self.s[self.i] != b'"' {
                self.i += if self.s[self.i] == b'\\' { 2 } else { 1 };
            }
            self.i += 1;
            String::from_utf8_lossy(&self.s[start..self.i - 1]).into_owned()
        }
        fn value(&mut self, path: &str) {
            self.ws();
            match self.s[self.i] {
                b'{' => {
                    self.i += 1;
                    let mut seen = Vec::new();
                    loop {
                        self.ws();
                        if self.s[self.i] == b'}' {
                            self.i += 1;
                            return;
                        }
                        let k = self.string();
                        assert!(!seen.contains(&k), "key {k:?} repeated in object {path:?}");
                        seen.push(k.clone());
                        self.ws();
                        assert_eq!(self.s[self.i], b':');
                        self.i += 1;
                        let child = if path.is_empty() { k } else { format!("{path}.{k}") };
                        self.value(&child);
                        self.ws();
                        if self.s[self.i] == b',' {
                            self.i += 1;
                        }
                    }
                }
                b'[' => {
                    self.i += 1;
                    loop {
                        self.ws();
                        if self.s[self.i] == b']' {
                            self.i += 1;
                            return;
                        }
                        self.value(&format!("{path}[]"));
                        self.ws();
                        if self.s[self.i] == b',' {
                            self.i += 1;
                        }
                    }
                }
                b'"' => {
                    self.string();
                    self.out.push(path.to_string());
                }
                _ => {
                    while !matches!(self.s[self.i], b',' | b'}' | b']') {
                        self.i += 1;
                    }
                    self.out.push(path.to_string());
                }
            }
        }
    }
    let mut p = P { s: json.as_bytes(), i: 0, out: Vec::new() };
    p.value("");
    p.out.sort();
    p.out.dedup();
    p.out
}

/// `"family kind"` for every `# TYPE` line, sorted.
fn families(prom: &str) -> Vec<String> {
    let mut out: Vec<String> =
        prom.lines().filter_map(|l| l.strip_prefix("# TYPE ")).map(str::to_string).collect();
    out.sort();
    out
}

/// Panics unless every sample follows its own family's `# TYPE` header
/// and no sample (name plus labels) repeats.
fn assert_grouped(prom: &str) {
    let mut samples = std::collections::HashSet::new();
    let mut family = "";
    for line in prom.lines() {
        if let Some(t) = line.strip_prefix("# TYPE ") {
            family = t.split(' ').next().unwrap();
        } else if !line.starts_with('#') {
            let (series, _) = line.rsplit_once(' ').expect("sample value");
            let name = series.split('{').next().unwrap();
            let own = name == family
                || ["_bucket", "_sum", "_count"].iter().any(|x| name == format!("{family}{x}"));
            assert!(own, "sample {line:?} outside its family (under {family})");
            assert!(samples.insert(series.to_string()), "sample {series} repeated");
        }
    }
}

/// The `names` array of the `/series` catalog, sorted.
fn series_names(catalog: &str) -> Vec<String> {
    let list = catalog.split_once("\"names\":[").expect("names array").1;
    let list = list.split_once(']').expect("closed names array").0;
    let mut out: Vec<String> = list.split(',').map(|s| s.trim_matches('"').to_string()).collect();
    out.sort();
    out
}

fn assert_same(what: &str, got: &[String], want: &[&str]) {
    let got: Vec<&str> = got.iter().map(String::as_str).collect();
    let missing: Vec<&&str> = want.iter().filter(|w| !got.contains(w)).collect();
    let extra: Vec<&&str> = got.iter().filter(|g| !want.contains(g)).collect();
    assert!(missing.is_empty() && extra.is_empty(), "{what}: missing {missing:?}, extra {extra:?}");
    assert_eq!(got.len(), want.len(), "{what}: duplicate entries");
}

const METRIC_FAMILIES: &[&str] = &[
    "dppr_audit_bound_violations_total counter",
    "dppr_audit_cpu_seconds_total counter",
    "dppr_audit_enabled gauge",
    "dppr_audit_invariant_residual gauge",
    "dppr_audit_l1_error histogram",
    "dppr_audit_last_epoch gauge",
    "dppr_audit_last_linf_error gauge",
    "dppr_audit_linf_error histogram",
    "dppr_audit_max_linf_error gauge",
    "dppr_audit_runs_total counter",
    "dppr_audit_sessions_total counter",
    "dppr_audit_solve_seconds histogram",
    "dppr_audit_staleness_epochs gauge",
    "dppr_audit_topk_overlap histogram",
    "dppr_cache_evictions_total counter",
    "dppr_cache_hit_rate gauge",
    "dppr_cache_hits_total counter",
    "dppr_cache_misses_total counter",
    "dppr_cache_stale_purged_total counter",
    "dppr_checkpoint_failures_total counter",
    "dppr_checkpoint_seconds histogram",
    "dppr_checkpoints_total counter",
    "dppr_degraded gauge",
    "dppr_durability_enabled gauge",
    "dppr_durable_epoch gauge",
    "dppr_engine_atomic_adds_total counter",
    "dppr_engine_batches_total counter",
    "dppr_engine_cas_retries_total counter",
    "dppr_engine_dup_avoided_total counter",
    "dppr_engine_edge_traversals_total counter",
    "dppr_engine_enqueued_total counter",
    "dppr_engine_frontier_total_total counter",
    "dppr_engine_iterations_total counter",
    "dppr_engine_max_frontier_total counter",
    "dppr_engine_pushes_total counter",
    "dppr_engine_restore_ops_total counter",
    "dppr_epoch gauge",
    "dppr_graph_arena_slots gauge",
    "dppr_graph_dead_slots gauge",
    "dppr_graph_hub_vertices gauge",
    "dppr_graph_live_slots gauge",
    "dppr_graph_utilization gauge",
    "dppr_http_bad_requests_total counter",
    "dppr_http_connections_total counter",
    "dppr_http_parse_seconds histogram",
    "dppr_http_read_timeouts_total counter",
    "dppr_http_request_seconds histogram",
    "dppr_http_requests_total counter",
    "dppr_http_route_seconds histogram",
    "dppr_http_write_seconds histogram",
    "dppr_http_write_timeouts_total counter",
    "dppr_metrics_families gauge",
    "dppr_metrics_scrape_seconds histogram",
    "dppr_metrics_series_samples gauge",
    "dppr_process_open_fds gauge",
    "dppr_process_rss_bytes gauge",
    "dppr_process_threads gauge",
    "dppr_push_iterations histogram",
    "dppr_push_wall_seconds histogram",
    "dppr_queries_total counter",
    "dppr_sessions gauge",
    "dppr_sessions_closed_total counter",
    "dppr_sessions_evicted_total counter",
    "dppr_sessions_opened_total counter",
    "dppr_shard_checkpoint_seconds histogram",
    "dppr_shard_connections gauge",
    "dppr_shard_push_wall_seconds histogram",
    "dppr_shard_queue_depth gauge",
    "dppr_shard_slide_apply_seconds histogram",
    "dppr_shard_snapshot_publish_seconds histogram",
    "dppr_shard_wal_append_seconds histogram",
    "dppr_shard_wal_fsync_seconds histogram",
    "dppr_shed_total counter",
    "dppr_slide_apply_seconds histogram",
    "dppr_slides_total counter",
    "dppr_slo_breach_total counter",
    "dppr_slo_breaching gauge",
    "dppr_slo_burn_rate gauge",
    "dppr_snapshot_publish_seconds histogram",
    "dppr_stream_fraction_consumed gauge",
    "dppr_stream_len gauge",
    "dppr_stream_window_end gauge",
    "dppr_stream_window_start gauge",
    "dppr_trace_buffered gauge",
    "dppr_trace_dropped_total counter",
    "dppr_updates_applied_total counter",
    "dppr_updates_offered_total counter",
    "dppr_uptime_seconds gauge",
    "dppr_wal_append_seconds histogram",
    "dppr_wal_bytes_total counter",
    "dppr_wal_fsync_seconds histogram",
    "dppr_wal_pruned_segments_total counter",
    "dppr_wal_records_total counter",
    "dppr_wal_segments gauge",
    "dppr_wal_syncs_total counter",
    "dppr_write_shard_degraded gauge",
    "dppr_write_shard_durable_epoch gauge",
    "dppr_write_shard_epoch gauge",
    "dppr_write_shard_sessions gauge",
    "dppr_write_shard_slides_total counter",
    "dppr_write_shard_stream_done gauge",
    "dppr_write_shard_window_end gauge",
];

const STATS_PATHS: &[&str] = &[
    "audit.bound_violations",
    "audit.cpu_seconds",
    "audit.enabled",
    "audit.last_epoch",
    "audit.last_invariant_residual",
    "audit.last_l1_error",
    "audit.last_linf_error",
    "audit.last_topk_overlap_10",
    "audit.last_topk_overlap_50",
    "audit.max_linf_error",
    "audit.runs",
    "audit.sample",
    "audit.sessions_audited",
    "audit.staleness_epochs",
    "cache.evictions",
    "cache.hit_rate",
    "cache.hits",
    "cache.misses",
    "cache.stale_purged",
    "durability.checkpoint_failures",
    "durability.checkpoints",
    "durability.degraded",
    "durability.durable_epoch",
    "durability.enabled",
    "durability.wal_bytes",
    "durability.wal_pruned_segments",
    "durability.wal_records",
    "durability.wal_segments",
    "durability.wal_syncs",
    "engine.atomic_adds",
    "engine.batches",
    "engine.cas_retries",
    "engine.dup_avoided",
    "engine.edge_traversals",
    "engine.enqueued",
    "engine.frontier_total",
    "engine.iterations",
    "engine.max_frontier",
    "engine.pushes",
    "engine.restore_ops",
    "epoch",
    "graph.arena_slots",
    "graph.dead_slots",
    "graph.hub_vertices",
    "graph.live_slots",
    "graph.utilization",
    "http.bad_requests",
    "http.connections",
    "http.read_timeouts",
    "http.requests",
    "http.write_timeouts",
    "process.open_fds",
    "process.rss_bytes",
    "process.threads",
    "queries",
    "series.interval_ms",
    "series.samples",
    "sessions",
    "sessions_closed",
    "sessions_evicted",
    "sessions_opened",
    "shards[].connections",
    "shards[].queue_depth",
    "shed",
    "slides",
    "slos[].breaches_total",
    "slos[].breaching",
    "slos[].burn_fast",
    "slos[].burn_slow",
    "slos[].name",
    "slos[].target",
    "stream.fraction_consumed",
    "stream.stream_len",
    "stream.window_end",
    "stream.window_start",
    "stream_done",
    "timings.checkpoint.count",
    "timings.checkpoint.p50_s",
    "timings.checkpoint.p99_s",
    "timings.http_request.count",
    "timings.http_request.p50_s",
    "timings.http_request.p99_s",
    "timings.push_wall.count",
    "timings.push_wall.p50_s",
    "timings.push_wall.p99_s",
    "timings.slide_apply.count",
    "timings.slide_apply.p50_s",
    "timings.slide_apply.p99_s",
    "timings.snapshot_publish.count",
    "timings.snapshot_publish.p50_s",
    "timings.snapshot_publish.p99_s",
    "timings.wal_append.count",
    "timings.wal_append.p50_s",
    "timings.wal_append.p99_s",
    "timings.wal_fsync.count",
    "timings.wal_fsync.p50_s",
    "timings.wal_fsync.p99_s",
    "trace.buffered",
    "trace.dropped",
    "trace.enabled",
    "updates_applied",
    "updates_offered",
    "updates_per_sec",
    "write_shards[].cache.evictions",
    "write_shards[].cache.hits",
    "write_shards[].cache.misses",
    "write_shards[].cache.stale_purged",
    "write_shards[].degraded",
    "write_shards[].durable_epoch",
    "write_shards[].epoch",
    "write_shards[].session_capacity",
    "write_shards[].sessions",
    "write_shards[].shard",
    "write_shards[].slides",
    "write_shards[].stream_done",
    "write_shards[].wal_records",
    "write_shards[].wal_segments",
    "write_shards[].window_end",
    "write_shards[].window_start",
];

const HEALTHZ_PATHS: &[&str] = &[
    "degraded",
    "degraded_reason",
    "epoch",
    "lagging",
    "last_fsync_age_seconds",
    "ok",
    "slos[].breaches_total",
    "slos[].breaching",
    "slos[].burn_fast",
    "slos[].burn_slow",
    "slos[].name",
    "slos[].target",
    "write_shards[].degraded",
    "write_shards[].epoch",
    "write_shards[].lag_seconds",
    "write_shards[].shard",
    "write_shards[].stream_done",
];

const SERIES_NAMES: &[&str] = &[
    "audit_linf_error",
    "audit_topk_overlap_10",
    "epoch",
    "http_request_p50_seconds",
    "http_request_p99_seconds",
    "http_requests_total",
    "process_open_fds",
    "process_rss_bytes",
    "process_threads",
    "queries_total",
    "sessions",
    "shed_total",
    "slides_total",
];

/// Starts the fully-featured instance and waits until the observer has
/// landed at least one audit, so every value is live (the lists
/// themselves must not depend on it).
fn boot(name: &str) -> (ServerHandle, PathBuf) {
    let dir = std::env::temp_dir().join(format!("dppr_serve_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let stream = GraphStream::directed(erdos_renyi(150, 4_000, 17)).permuted(2);
    let handle = start(
        stream,
        0.1,
        &[0, 1, 2, 3],
        ServeConfig {
            threads: 2,
            batch: 200,
            epsilon: 1e-3,
            max_slides: 4,
            write_shards: 2,
            durability: Some(DurabilityConfig::new(&dir)),
            audit_sample: 2,
            audit_interval: Duration::from_millis(50),
            // Generous targets: the families must exist, not fire.
            slo_p99: Duration::from_secs(10),
            slo_availability: 0.5,
            slo_topk_overlap: 0.1,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr();
    get(addr, "/topk?source=0&k=3");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !get(addr, "/stats").contains("\"runs\":") || get(addr, "/stats").contains("\"runs\":0,")
    {
        assert!(Instant::now() < deadline, "no audit completed");
        std::thread::sleep(Duration::from_millis(20));
    }
    (handle, dir)
}

#[test]
fn observability_surface_is_pinned() {
    let (handle, dir) = boot("surface");
    let addr = handle.addr();
    assert_same("/metrics families", &families(&get(addr, "/metrics")), METRIC_FAMILIES);
    assert_same("/stats key paths", &key_paths(&get(addr, "/stats")), STATS_PATHS);
    assert_same("/healthz key paths", &key_paths(&get(addr, "/healthz")), HEALTHZ_PATHS);
    assert_same("/series names", &series_names(&get(addr, "/series")), SERIES_NAMES);
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Prometheus requires a family's samples to follow its header
/// contiguously; every family (scalar or histogram, labelled or not)
/// must render that way.
#[test]
fn metrics_exposition_groups_every_family() {
    let (handle, dir) = boot("grouped");
    assert_grouped(&get(handle.addr(), "/metrics"));
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn key_paths_walks_objects_and_arrays() {
    let doc = r#"{"a":1,"b":{"c":"x\"y","d":[1,2]},"e":[{"f":null},{"g":true}],"h":[]}"#;
    assert_eq!(key_paths(doc), ["a", "b.c", "b.d[]", "e[].f", "e[].g"]);
    let split = std::panic::catch_unwind(|| key_paths(r#"{"a":{"b":1},"c":2,"a":{"d":3}}"#));
    assert!(split.is_err(), "a reopened object must be caught");
}

#[test]
fn assert_grouped_catches_stray_and_repeated_samples() {
    assert_grouped("# TYPE a_total counter\na_total 1\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 0\nh_count 0\n");
    for bad in ["# TYPE a gauge\na 1\n# TYPE b gauge\na 2\n", "# TYPE a gauge\na 1\na 2\n"] {
        assert!(std::panic::catch_unwind(|| assert_grouped(bad)).is_err(), "{bad}");
    }
}
