//! The query mix, its wire form, and the answers the checks read back.

use crate::json::{self, Value};
use dppr_graph::VertexId;
use dppr_serve::json::JsonBuf;
use dppr_serve::{QueryKind, QuerySnapshot};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `serve_load`'s mix: topk 0.4 / score 0.4 / threshold 0.1 / compare 0.1.
pub const MIX: &str = "topk 0.4, score 0.4, threshold 0.1, compare 0.1";
/// Query kinds, in the order per-kind metrics are reported.
pub const KINDS: [&str; 4] = ["topk", "score", "threshold", "compare"];

/// One query against one session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    TopK {
        source: VertexId,
        k: usize,
    },
    Score {
        source: VertexId,
        v: VertexId,
    },
    Threshold {
        source: VertexId,
        delta: f64,
    },
    Compare {
        source: VertexId,
        a: VertexId,
        b: VertexId,
    },
}

impl Query {
    pub fn source(&self) -> VertexId {
        match *self {
            Query::TopK { source, .. }
            | Query::Score { source, .. }
            | Query::Threshold { source, .. }
            | Query::Compare { source, .. } => source,
        }
    }

    /// Index into [`KINDS`].
    pub fn kind_index(&self) -> usize {
        match self {
            Query::TopK { .. } => 0,
            Query::Score { .. } => 1,
            Query::Threshold { .. } => 2,
            Query::Compare { .. } => 3,
        }
    }

    /// The request target the HTTP front end routes.
    pub fn target(&self) -> String {
        match *self {
            Query::TopK { source, k } => format!("/topk?source={source}&k={k}"),
            Query::Score { source, v } => format!("/score?source={source}&v={v}"),
            Query::Threshold { source, delta } => {
                format!("/threshold?source={source}&delta={delta}")
            }
            Query::Compare { source, a, b } => format!("/compare?source={source}&a={a}&b={b}"),
        }
    }

    /// The key the server's query cache files this query under.
    pub fn cache_kind(&self) -> QueryKind {
        match *self {
            Query::TopK { k, .. } => QueryKind::TopK(k),
            Query::Score { v, .. } => QueryKind::Score(v),
            Query::Threshold { delta, .. } => QueryKind::Threshold(delta.to_bits()),
            Query::Compare { a, b, .. } => QueryKind::Compare(a, b),
        }
    }
}

/// Seeded generator of the query mix over the hub sessions.
pub struct QueryGen {
    rng: SmallRng,
    sources: Vec<VertexId>,
    vertices: u32,
}

impl QueryGen {
    pub fn new(seed: u64, sources: &[VertexId], vertices: u32) -> QueryGen {
        QueryGen {
            rng: SmallRng::seed_from_u64(seed),
            sources: sources.to_vec(),
            vertices,
        }
    }

    pub fn next_query(&mut self) -> Query {
        let source = self.sources[self.rng.gen_range(0..self.sources.len())];
        let roll: f64 = self.rng.gen_range(0.0..1.0);
        let n = self.vertices;
        if roll < 0.4 {
            Query::TopK {
                source,
                k: self.rng.gen_range(5..25usize),
            }
        } else if roll < 0.8 {
            Query::Score {
                source,
                v: self.rng.gen_range(0..n),
            }
        } else if roll < 0.9 {
            // A handful of distinct deltas, so the cache sees repeats.
            Query::Threshold {
                source,
                delta: f64::from(self.rng.gen_range(1..5u32)) * 1e-3,
            }
        } else {
            Query::Compare {
                source,
                a: self.rng.gen_range(0..n),
                b: self.rng.gen_range(0..n),
            }
        }
    }
}

fn push_bounded(j: &mut JsonBuf, b: &dppr_core::queries::BoundedScore) {
    j.begin_obj();
    j.key("vertex").uint(u64::from(b.vertex));
    j.key("estimate").num(b.estimate);
    j.key("lo").num(b.lo);
    j.key("hi").num(b.hi);
    j.end_obj();
}

/// Answers `q` from `snap` and renders the body exactly as the HTTP
/// front end does, for the in-process read path and the render replay.
pub fn render_body(snap: &QuerySnapshot, q: &Query) -> String {
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("source").uint(u64::from(snap.source()));
    j.key("epoch").uint(snap.epoch());
    match *q {
        Query::TopK { k, .. } => {
            let ans = snap.top_k(k);
            j.key("epsilon").num(snap.epsilon());
            j.key("k").uint(k as u64);
            j.key("set_is_certain").bool(ans.set_is_certain);
            j.key("ranking").begin_arr();
            for b in &ans.ranking {
                push_bounded(&mut j, b);
            }
            j.end_arr();
        }
        Query::Score { v, .. } => {
            let b = snap.score(v);
            j.key("epsilon").num(snap.epsilon());
            j.key("vertex").uint(u64::from(v));
            j.key("estimate").num(b.estimate);
            j.key("lo").num(b.lo);
            j.key("hi").num(b.hi);
        }
        Query::Threshold { delta, .. } => {
            let ans = snap.above_threshold(delta);
            j.key("delta").num(delta);
            j.key("certain").begin_arr();
            for b in &ans.certain {
                push_bounded(&mut j, b);
            }
            j.end_arr();
            j.key("possible").begin_arr();
            for b in &ans.possible {
                push_bounded(&mut j, b);
            }
            j.end_arr();
        }
        Query::Compare { a, b, .. } => {
            let order = match snap.compare(a, b) {
                Some(std::cmp::Ordering::Greater) => "greater",
                Some(std::cmp::Ordering::Less) => "less",
                Some(std::cmp::Ordering::Equal) => "equal",
                None => "undecidable",
            };
            j.key("a").uint(u64::from(a));
            j.key("b").uint(u64::from(b));
            j.key("order").str(order);
        }
    }
    j.end_obj();
    j.finish()
}

/// Runs only the query kernel of `q` on `snap` (no rendering), for the
/// per-kernel replay timings. Returns a value derived from the answer so
/// the work cannot be optimised away.
pub fn run_kernel(snap: &QuerySnapshot, q: &Query) -> usize {
    match *q {
        Query::TopK { k, .. } => snap.top_k(k).ranking.len(),
        Query::Score { v, .. } => usize::from(snap.score(v).hi > 0.0),
        Query::Threshold { delta, .. } => {
            let a = snap.above_threshold(delta);
            a.certain.len() + a.possible.len()
        }
        Query::Compare { a, b, .. } => snap.compare(a, b).map_or(3, |o| o as i8 as usize),
    }
}

/// What an answer claims, in the form the checks test against the truth.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub source: VertexId,
    pub epoch: u64,
    /// `(vertex, lo, hi)`: the truth must lie in `[lo, hi]`.
    pub bounds: Vec<(VertexId, f64, f64)>,
    /// Threshold answers: every vertex whose truth reaches `delta` must
    /// be listed (certain or possible).
    pub threshold: Option<f64>,
    /// Compare answers: `(a, b, order)`; a decided order must hold.
    pub order: Option<(VertexId, VertexId, String)>,
}

fn vertex(v: &Value, key: &str) -> Result<VertexId, String> {
    let x = v.num_at(key)?;
    if x < 0.0 || x > f64::from(u32::MAX) || x.fract() != 0.0 {
        return Err(format!("`{key}` is not a vertex id: {x}"));
    }
    Ok(x as VertexId)
}

fn bounds_of(items: &[Value], out: &mut Vec<(VertexId, f64, f64)>) -> Result<(), String> {
    for b in items {
        out.push((vertex(b, "vertex")?, b.num_at("lo")?, b.num_at("hi")?));
    }
    Ok(())
}

/// Reads the claims of a response body to `q`.
pub fn parse_answer(q: &Query, body: &str) -> Result<Answer, String> {
    let v = json::parse(body)?;
    let source = vertex(&v, "source")?;
    if source != q.source() {
        return Err(format!("answer for source {source}, asked {}", q.source()));
    }
    let mut ans = Answer {
        source,
        epoch: v.num_at("epoch")? as u64,
        bounds: Vec::new(),
        threshold: None,
        order: None,
    };
    let list = |key: &str| {
        v.get(key)
            .and_then(Value::arr)
            .ok_or_else(|| format!("no `{key}`"))
    };
    match *q {
        Query::TopK { .. } => bounds_of(list("ranking")?, &mut ans.bounds)?,
        Query::Score { v: asked, .. } => {
            ans.bounds.push((asked, v.num_at("lo")?, v.num_at("hi")?));
        }
        Query::Threshold { delta, .. } => {
            bounds_of(list("certain")?, &mut ans.bounds)?;
            bounds_of(list("possible")?, &mut ans.bounds)?;
            ans.threshold = Some(delta);
        }
        Query::Compare { a, b, .. } => {
            let order = v.get("order").and_then(Value::str).ok_or("no `order`")?;
            ans.order = Some((a, b, order.to_string()));
        }
    }
    Ok(ans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_follows_the_stated_shares() {
        let mut g = QueryGen::new(1, &[1, 2, 3], 1000);
        let mut counts = [0usize; 4];
        for _ in 0..20_000 {
            counts[g.next_query().kind_index()] += 1;
        }
        let share = |i: usize| counts[i] as f64 / 20_000.0;
        assert!((share(0) - 0.4).abs() < 0.02 && (share(1) - 0.4).abs() < 0.02);
        assert!((share(2) - 0.1).abs() < 0.02 && (share(3) - 0.1).abs() < 0.02);
    }

    #[test]
    fn rendered_bodies_parse_back_to_their_claims() {
        let snap = QuerySnapshot::new(7, 3, 0.15, 0.01, vec![0.5, 0.2, 0.0, 0.05]);
        let q = Query::Threshold {
            source: 7,
            delta: 0.1,
        };
        let a = parse_answer(&q, &render_body(&snap, &q)).unwrap();
        assert_eq!(a.epoch, 3);
        assert_eq!(a.threshold, Some(0.1));
        assert_eq!(a.bounds.iter().map(|b| b.0).collect::<Vec<_>>(), vec![0, 1]);
        let q = Query::Compare {
            source: 7,
            a: 0,
            b: 1,
        };
        let a = parse_answer(&q, &render_body(&snap, &q)).unwrap();
        assert_eq!(a.order, Some((0, 1, "greater".to_string())));
        let q = Query::Score { source: 8, v: 1 };
        assert!(parse_answer(&q, &render_body(&snap, &q)).is_err());
    }
}
