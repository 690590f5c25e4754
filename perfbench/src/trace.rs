//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, start and end (ns from the run's origin), the span
//! that caused it, and the id of the slide or request it belongs to.
//! Spans are kept in memory and written out when the run ends; a
//! layer's self time is its span's duration minus its children's.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span; `None` when tracing is off.
pub type SpanRef = Option<u32>;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: SpanRef,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span log.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a span whose ends were already taken. No-op when off.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: SpanRef,
        start: Instant,
        end: Instant,
    ) -> SpanRef {
        if !self.on {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        Some((self.spans.len() - 1) as u32)
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, id: u64, parent: SpanRef) -> SpanRef {
        let now = Instant::now();
        self.record(name, id, parent, now, now)
    }

    pub fn end(&mut self, span: SpanRef) {
        if let Some(i) = span {
            self.spans[i as usize].end_ns = Instant::now()
                .saturating_duration_since(self.origin)
                .as_nanos() as u64;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            write!(out, "{{\"name\":\"{}\",\"id\":{},\"parent\":", s.name, s.id)?;
            match s.parent {
                Some(p) => write!(out, "{p}")?,
                None => write!(out, "null")?,
            }
            writeln!(
                out,
                ",\"start_ns\":{},\"end_ns\":{}}}",
                s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-name totals derived from a span log.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Each span's duration in ms, in record order.
    pub durations_ms: Vec<f64>,
}

/// Groups spans by name: count, total and self time, and durations.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let d = s.end_ns.saturating_sub(s.start_ns);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += d;
        t.self_ns += d.saturating_sub(child_ns[i]);
        t.durations_ms.push(d as f64 * 1e-6);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let o = Instant::now();
        let at = |ms: u64| o + Duration::from_millis(ms);
        let mut t = Tracer::new(true, o);
        let root = t.record("slide", 1, None, at(0), at(10));
        t.record("core", 1, root, at(1), at(7));
        t.record("publish", 1, root, at(7), at(9));
        let totals = layer_totals(t.spans());
        assert_eq!(totals["slide"].self_ns, 2_000_000);
        assert_eq!(totals["core"].self_ns, 6_000_000);
        assert_eq!(totals["slide"].durations_ms, vec![10.0]);
        assert_eq!(
            Tracer::new(false, o).record("x", 0, None, at(0), at(1)),
            None
        );
    }
}
