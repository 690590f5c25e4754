//! Answer checks: sampled answers against `exact_ppr` on the window the
//! answer's epoch covers (the ε contract |π(v) − P(v)| ≤ ε).

use crate::inputs::{slides_at_epoch, WindowReplay, ALPHA};
use crate::query::Answer;
use dppr_graph::{GraphStream, VertexId};
use std::collections::BTreeMap;

/// Sup-norm accuracy of the reference solve.
const EXACT_TOL: f64 = 1e-10;
/// Slack for the reference's own error when testing an interval.
const SLACK: f64 = 1e-9;

/// Outcome of checking a set of sampled answers.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Answers compared with the truth.
    pub checked: u64,
    /// Answers that broke the contract, with what was wrong.
    pub failures: Vec<String>,
}

/// Checks at most `max_solves` (epoch, source) groups of `answers`,
/// spread evenly over the epochs seen. Every answer in a chosen group is
/// checked; the rest are left unchecked (and not counted).
pub fn check_answers(stream: &GraphStream, answers: &[Answer], max_solves: usize) -> CheckReport {
    let mut groups: BTreeMap<(u64, VertexId), Vec<&Answer>> = BTreeMap::new();
    for a in answers {
        groups.entry((a.epoch, a.source)).or_default().push(a);
    }
    let keys: Vec<(u64, VertexId)> = groups.keys().copied().collect();
    let step = keys.len().div_ceil(max_solves.max(1)).max(1);
    let mut report = CheckReport::default();
    let mut replay = WindowReplay::new(stream);
    for key in keys.iter().step_by(step) {
        let (epoch, source) = *key;
        let group = &groups[key];
        let Some(graph) = slides_at_epoch(epoch).and_then(|s| replay.advance_to(s)) else {
            report.checked += group.len() as u64;
            report
                .failures
                .push(format!("epoch {epoch} maps to no window of the stream"));
            continue;
        };
        let truth = dppr_core::exact_ppr(graph, source, ALPHA, EXACT_TOL);
        for a in group {
            report.checked += 1;
            if let Err(e) = check_one(a, &truth) {
                report
                    .failures
                    .push(format!("source {source} epoch {epoch}: {e}"));
            }
        }
    }
    report
}

/// Tests one answer's claims against the true vector.
pub fn check_one(a: &Answer, truth: &[f64]) -> Result<(), String> {
    let p = |v: VertexId| truth.get(v as usize).copied().unwrap_or(0.0);
    for &(v, lo, hi) in &a.bounds {
        let x = p(v);
        if !(lo - SLACK <= x && x <= hi + SLACK) {
            return Err(format!("P({v}) = {x:e} outside [{lo:e}, {hi:e}]"));
        }
    }
    if let Some(delta) = a.threshold {
        let listed: std::collections::HashSet<VertexId> = a.bounds.iter().map(|b| b.0).collect();
        if let Some(v) =
            (0..truth.len() as VertexId).find(|&v| p(v) >= delta + SLACK && !listed.contains(&v))
        {
            return Err(format!(
                "P({v}) = {:e} ≥ δ = {delta:e} but not listed",
                p(v)
            ));
        }
    }
    if let Some((x, y, order)) = &a.order {
        let (px, py) = (p(*x), p(*y));
        let holds = match order.as_str() {
            "greater" => px + SLACK >= py,
            "less" => px <= py + SLACK,
            "equal" => (px - py).abs() <= SLACK,
            "undecidable" => true,
            other => return Err(format!("unknown order {other:?}")),
        };
        if !holds {
            return Err(format!("order {order} of P({x}) = {px:e}, P({y}) = {py:e}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer() -> Answer {
        Answer {
            source: 0,
            epoch: 1,
            bounds: vec![],
            threshold: None,
            order: None,
        }
    }

    #[test]
    fn intervals_orders_and_thresholds_are_tested() {
        let truth = [0.5, 0.2, 0.01];
        let ok = Answer {
            bounds: vec![(0, 0.49, 0.51), (1, 0.19, 0.21)],
            ..answer()
        };
        assert!(check_one(&ok, &truth).is_ok());
        let off = Answer {
            bounds: vec![(1, 0.21, 0.23)],
            ..answer()
        };
        assert!(check_one(&off, &truth).is_err());
        let missing = Answer {
            bounds: vec![(0, 0.49, 0.51)],
            threshold: Some(0.1),
            ..answer()
        };
        assert!(check_one(&missing, &truth).is_err());
        let wrong = Answer {
            order: Some((2, 1, "greater".into())),
            ..answer()
        };
        assert!(check_one(&wrong, &truth).is_err());
        let right = Answer {
            order: Some((1, 2, "greater".into())),
            ..answer()
        };
        assert!(check_one(&right, &truth).is_ok());
    }
}
