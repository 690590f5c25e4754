//! What a run reports: the metrics by name and unit, the run metadata,
//! the validity guards, and the final result line.

use crate::openloop::{PhaseOut, LATE_BOUND_MS};
use crate::query::Answer;
use crate::stats::{mean, median, percentile, quartiles, supported_tail};
use dppr_core::CounterSnapshot;
use dppr_serve::json::JsonBuf;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The per-layer metrics of a traced run.
#[derive(Debug, Default)]
pub struct Layers(pub Vec<Metric>);

impl Layers {
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push(Metric { name, unit, value });
    }

    /// Update-path layers: core and publish.
    #[allow(clippy::too_many_arguments)]
    pub fn write_path(
        &mut self,
        apply_batch_ms: &[f64],
        busy_share: f64,
        counters: &CounterSnapshot,
        slides: u64,
        init_push_s: f64,
        publish_ms: &[f64],
        publish_bytes_per_slide: f64,
    ) {
        let per_slide = |x: u64| x as f64 / slides.max(1) as f64;
        let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        self.push(
            "core.apply_batch_ms_p50",
            "ms",
            percentile(apply_batch_ms, 50.0).unwrap_or(0.0),
        );
        self.push(
            "core.apply_batch_ms_p90",
            "ms",
            percentile(apply_batch_ms, 90.0).unwrap_or(0.0),
        );
        self.push("core.busy_share", "ratio", busy_share);
        self.push("core.pushes_per_slide", "count", per_slide(counters.pushes));
        self.push(
            "core.edge_traversals_per_slide",
            "count",
            per_slide(counters.edge_traversals),
        );
        self.push(
            "core.iterations_per_slide",
            "count",
            per_slide(counters.iterations),
        );
        self.push("core.mean_frontier", "count", counters.mean_frontier());
        self.push(
            "core.restore_ops_per_slide",
            "count",
            per_slide(counters.restore_ops),
        );
        self.push(
            "core.cas_retry_ratio",
            "ratio",
            ratio(counters.cas_retries, counters.atomic_adds),
        );
        self.push(
            "core.dup_avoided_ratio",
            "ratio",
            ratio(counters.dup_avoided, counters.enqueued),
        );
        self.push("core.init_push_s", "s", init_push_s);
        self.push(
            "serve.publish_ms_p50",
            "ms",
            percentile(publish_ms, 50.0).unwrap_or(0.0),
        );
        self.push(
            "serve.publish_bytes_per_slide",
            "bytes",
            publish_bytes_per_slide,
        );
    }

    /// Client-side read layers of one traced read phase.
    pub fn read_client(&mut self, reads: &PhaseOut, hit_ratio: f64, shed_ratio: f64) {
        self.push("serve.cache.hit_ratio", "ratio", hit_ratio);
        self.push("serve.shed_ratio", "ratio", shed_ratio);
        self.push(
            "client.request_ms_p99",
            "ms",
            reads.p(&reads.service_ms, 99.0),
        );
        self.push(
            "client.sched_late_ms_p99",
            "ms",
            reads.p(&reads.late_ms, 99.0),
        );
        self.push("client.backlog_end", "count", reads.backlog_end as f64);
    }
}

/// Everything a workload run produced.
pub struct Outcome {
    pub workload: &'static str,
    pub setups_s: Vec<f64>,
    pub e2e: Vec<Metric>,
    /// End-to-end metrics printed in the metadata line only.
    pub reported: Vec<Metric>,
    pub layers: Option<Layers>,
    pub attempted: u64,
    pub failed: u64,
    pub answers: Vec<Answer>,
    pub errors: Vec<String>,
    /// Why the run measured nothing trustworthy, if it did not.
    pub invalid: Option<String>,
    /// Run metadata as `(key, JSON value)`.
    pub meta: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn new(workload: &'static str, setups_s: Vec<f64>) -> Outcome {
        Outcome {
            workload,
            setups_s,
            e2e: Vec::new(),
            reported: Vec::new(),
            layers: None,
            attempted: 0,
            failed: 0,
            answers: Vec::new(),
            errors: Vec::new(),
            invalid: None,
            meta: Vec::new(),
        }
    }

    pub fn meta_num(&mut self, key: &'static str, v: f64) {
        let mut j = JsonBuf::new();
        j.num(v);
        self.meta.push((key, j.finish()));
    }

    pub fn meta_str(&mut self, key: &'static str, v: &str) {
        let mut j = JsonBuf::new();
        j.str(v);
        self.meta.push((key, j.finish()));
    }

    fn invalidate(&mut self, why: String) {
        self.invalid.get_or_insert(why);
    }

    /// Guard: the stream must not run dry inside the measured interval.
    pub fn guard_dry(&mut self, dry: bool) {
        if dry {
            self.invalidate("the stream ran dry before the measured interval ended".into());
        }
    }

    /// Guard: the open-loop generator must keep to its own schedule.
    pub fn guard_late(&mut self, reads: &PhaseOut) {
        let late = reads.p(&reads.late_ms, 99.0);
        // NaN (no sends) counts as behind, too.
        if late.is_nan() || late > LATE_BOUND_MS {
            self.invalidate(format!(
                "the open-loop generator fell behind its schedule: p99 lateness {late:.3} ms > {LATE_BOUND_MS} ms"
            ));
        }
    }

    /// Folds a read phase's counts, answers and errors into the run.
    pub fn add_reads(&mut self, reads: PhaseOut) {
        self.attempted += reads.attempted;
        self.failed += reads.failed;
        self.answers.extend(reads.answers);
        self.errors.extend(reads.errors);
    }

    /// End-to-end write metrics: logical updates per wall second (the
    /// median 1 s window of the measured interval) and slide latency
    /// (batch handed out → every session published).
    pub fn e2e_write(&mut self, updates_per_s: f64, slide_ms: &[f64]) {
        let tail = supported_tail(slide_ms.len(), &[90.0]);
        self.e2e.push(Metric {
            name: "updates_per_s",
            unit: "1/s",
            value: updates_per_s,
        });
        self.e2e.push(Metric {
            name: "slide_ms_p50",
            unit: "ms",
            value: percentile(slide_ms, 50.0).unwrap_or(f64::NAN),
        });
        // Reported, not gated: too noisy here (see the README).
        self.reported.push(Metric {
            name: "slide_ms_p90",
            unit: "ms",
            value: percentile(slide_ms, tail).unwrap_or(f64::NAN),
        });
        self.meta_num("slides_measured", slide_ms.len() as f64);
        self.meta_num("slide_tail_percentile", tail);
        if tail < 90.0 {
            self.invalidate(format!(
                "only {} slides measured; p90 needs 100",
                slide_ms.len()
            ));
        }
    }

    /// Read metrics from the fixed-rate phase, plus the searched
    /// `qps_at_slo`; all reported in the metadata line, none gated.
    pub fn e2e_read(&mut self, reads: &PhaseOut, qps_at_slo: f64) {
        let tail = supported_tail(reads.sched_ms.len(), &[99.0]);
        for (name, unit, value) in [
            ("query_ms_p50", "ms", reads.p(&reads.sched_ms, 50.0)),
            ("query_ms_p99", "ms", reads.p(&reads.sched_ms, tail)),
            ("qps_at_slo", "1/s", qps_at_slo),
        ] {
            self.reported.push(Metric { name, unit, value });
        }
        self.meta_num("queries_measured", reads.sched_ms.len() as f64);
        self.meta_num("query_tail_percentile", tail);
        self.meta_num("offered_query_rate_per_s", reads.rate);
    }

    /// Prints the metadata line and the result line; returns the exit code.
    pub fn print(mut self, args: &crate::Args, checked: u64, check_failures: Vec<String>) -> i32 {
        self.failed += check_failures.len() as u64;
        self.errors.extend(check_failures);
        if checked == 0 {
            self.invalidate("no answer was checked".into());
        }
        let failed_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let setup = median(&self.setups_s).unwrap_or(f64::NAN);
        let mut metrics: Vec<Metric> = Vec::new();
        if args.trace {
            metrics.extend(self.layers.take().map(|l| l.0).unwrap_or_default());
        } else {
            metrics.push(Metric {
                name: "setup_s",
                unit: "s",
                value: setup,
            });
            metrics.append(&mut self.e2e);
            metrics.push(Metric {
                name: "peak_rss_mb",
                unit: "MB",
                value: peak_rss_mb(),
            });
        }
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("workload").str(self.workload);
        j.key("seed").uint(args.seed);
        j.key("seconds").num(args.seconds);
        j.key("trace").bool(args.trace);
        j.key("nproc").uint(nproc() as u64);
        j.key("rayon_threads")
            .uint(rayon::current_num_threads() as u64);
        j.key("commit").str(&args.commit);
        j.key("failed_ratio").num(failed_ratio);
        j.key("answers_checked").uint(checked);
        j.key("setup_s_runs").begin_arr();
        for s in &self.setups_s {
            j.num(*s);
        }
        j.end_arr();
        if let Some((q1, _, q3)) = quartiles(&self.setups_s) {
            j.key("setup_s_iqr").num(q3 - q1);
        }
        j.key("params").begin_obj();
        j.key("scale").uint(u64::from(crate::inputs::SCALE));
        j.key("stream_edges")
            .uint(crate::inputs::STREAM_EDGES as u64);
        j.key("init_fraction").num(crate::inputs::INIT_FRACTION);
        j.key("sessions").uint(crate::inputs::SESSIONS as u64);
        j.key("batch").uint(crate::inputs::BATCH as u64);
        j.key("epsilon").num(crate::inputs::EPSILON);
        j.key("alpha").num(crate::inputs::ALPHA);
        j.key("query_mix").str(crate::query::MIX);
        j.key("slo_p99_ms").num(crate::openloop::SLO_P99_MS);
        j.end_obj();
        j.key("result_metrics");
        metrics_json(&mut j, &metrics);
        j.key("reported_not_gated");
        metrics_json(&mut j, &self.reported);
        j.key("errors").begin_arr();
        for e in self.errors.iter().take(10) {
            j.str(e);
        }
        j.end_arr();
        j.end_obj();
        let mut meta = j.finish();
        meta.pop(); // reopen the object to append the workload's own keys
        for (k, v) in &self.meta {
            meta.push_str(&format!(",\"{k}\":{v}"));
        }
        meta.push('}');
        println!("{meta}");

        if let Some(why) = self.invalid {
            eprintln!("perfbench: invalid run: {why}");
            return 3;
        }
        if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
            eprintln!("perfbench: invalid run: metric {} is {}", m.name, m.value);
            return 3;
        }
        let mut r = JsonBuf::new();
        r.begin_obj();
        r.key("correct").bool(self.failed == 0);
        r.key("attempted").uint(self.attempted.max(1));
        r.key("failed").uint(self.failed);
        r.key("metrics");
        metrics_json(&mut r, &metrics);
        r.end_obj();
        println!("{}", r.finish());
        0
    }
}

/// Writes `{name: {"value", "unit"}, …}`.
fn metrics_json(j: &mut JsonBuf, list: &[Metric]) {
    j.begin_obj();
    for m in list {
        j.key(m.name).begin_obj();
        j.key("value").num(m.value);
        j.key("unit").str(m.unit);
        j.end_obj();
    }
    j.end_obj();
}

/// Mean of a slice, 0 when empty (for per-layer means).
pub fn mean0(v: &[f64]) -> f64 {
    mean(v).unwrap_or(0.0)
}

/// The search's steps as a JSON array of `[rate, p99_ms, passed]`.
pub fn steps_json(steps: &[(f64, f64, bool)]) -> String {
    let mut j = JsonBuf::new();
    j.begin_arr();
    for (r, p, ok) in steps {
        j.begin_arr();
        j.num(*r);
        j.num(*p);
        j.bool(*ok);
        j.end_arr();
    }
    j.end_arr();
    j.finish()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (the host of the program
/// under test), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
