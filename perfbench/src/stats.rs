//! Order statistics and the small pieces of arithmetic every metric
//! rests on: percentiles, the accept→visible matcher and span self time.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least a `q` share of all samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples that lie strictly beyond the nearest-rank `q` percentile of
/// `n` samples. A percentile is reported as resolved only with ten or
/// more beyond it.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// Median and 99th percentile of a sample set, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarizes `samples` (any order); `None` when empty.
    pub fn of(mut samples: Vec<f64>) -> Option<Summary> {
        samples.sort_by(f64::total_cmp);
        Some(Summary {
            n: samples.len(),
            p50: percentile(&samples, 0.50)?,
            p99: percentile(&samples, 0.99)?,
        })
    }

    /// Whether the p99 has at least ten samples beyond it.
    pub fn p99_resolved(&self) -> bool {
        beyond(self.n, 0.99) >= 10
    }
}

/// Median of `samples`; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Accept→visible lag of each write on the single writer connection.
///
/// Write `i` (0-based) was acknowledged at `acks[i]` (ascending: one
/// connection answers in order) and is the `i + 1`-th journal record
/// since the phase began at version `v0`, so it is visible once some
/// response observed at or after its acknowledgement carries a version
/// of at least `v0 + i + 1`. `observations` are `(time, version)` pairs
/// sorted by time. Returns one lag per write, `None` when never seen.
pub fn visible_lags(v0: u64, acks: &[f64], observations: &[(f64, u64)]) -> Vec<Option<f64>> {
    // Both the ack time and the required version grow with `i`, so the
    // first matching observation never moves backwards: one sweep.
    let mut j = 0usize;
    acks.iter()
        .enumerate()
        .map(|(i, &ack)| {
            let need = v0 + i as u64 + 1;
            while j < observations.len() && (observations[j].0 < ack || observations[j].1 < need) {
                j += 1;
            }
            observations.get(j).map(|&(t, _)| t - ack)
        })
        .collect()
}

/// One timed call: a layer's name, its interval in nanoseconds since
/// the trace began, the span that caused it and the request it served.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer and call, e.g. `http.route`.
    pub name: String,
    /// Start, ns since the trace origin.
    pub start: u64,
    /// End, ns since the trace origin.
    pub end: u64,
    /// Index of the parent span in the same trace.
    pub parent: Option<usize>,
    /// Request (or pass) the span belongs to.
    pub req: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start.max(parent.start), s.end.min(parent.end));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(lo, hi) in kids.iter() {
                cur = match cur {
                    Some((clo, chi)) if lo <= chi => Some((clo, chi.max(hi))),
                    Some((clo, chi)) => {
                        covered += chi - clo;
                        Some((lo, hi))
                    }
                    None => Some((lo, hi)),
                };
            }
            if let Some((clo, chi)) = cur {
                covered += chi - clo;
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(0, 0.99), 0);
        let s = Summary::of((0..1000).map(f64::from).collect()).unwrap();
        assert!(s.p99_resolved());
        // Exactly ten samples (990..=999) lie above the reported p99.
        assert_eq!(s.p99, 989.0);
        let s = Summary::of((0..999).map(f64::from).collect()).unwrap();
        assert!(!s.p99_resolved());
    }

    #[test]
    fn summary_ignores_input_order() {
        let a = Summary::of(vec![3.0, 1.0, 2.0]).unwrap();
        assert_eq!((a.n, a.p50, a.p99), (3, 2.0, 3.0));
        assert!(Summary::of(Vec::new()).is_none());
    }

    #[test]
    fn record_i_is_visible_at_version_v0_plus_i() {
        let v0 = 10;
        let acks = [1.0, 2.0, 3.0];
        // Version 11 shows at 1.5, 12 only at 4.0, 13 at 6.0.
        let obs = [
            (0.5, 10),
            (1.5, 11),
            (2.5, 11),
            (4.0, 12),
            (5.0, 12),
            (6.0, 13),
        ];
        let lags = visible_lags(v0, &acks, &obs);
        assert_eq!(lags, vec![Some(0.5), Some(2.0), Some(3.0)]);
    }

    #[test]
    fn visibility_needs_an_observation_after_the_ack() {
        // The install raced ahead of the ack on another connection: the
        // earlier observation does not count, the next one does.
        let lags = visible_lags(0, &[2.0], &[(1.0, 5), (3.0, 5)]);
        assert_eq!(lags, vec![Some(1.0)]);
        // Never observed.
        assert_eq!(visible_lags(0, &[2.0], &[(3.0, 0)]), vec![None]);
    }

    #[test]
    fn a_late_ack_does_not_hide_an_earlier_match() {
        // Record 2's ack comes after an observation already showing it;
        // the matcher must wait for an observation after that ack.
        let lags = visible_lags(0, &[1.0, 5.0], &[(2.0, 2), (6.0, 2)]);
        assert_eq!(lags, vec![Some(1.0), Some(1.0)]);
    }

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s".into(),
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)), // overlaps the first child
            span(60, 70, Some(0)),
            span(12, 15, Some(1)),
        ];
        let own = self_times(&spans);
        // Children cover 10..50 and 60..70: 50 of the parent's 100.
        assert_eq!(own[0], 50);
        assert_eq!(own[1], 17);
        assert_eq!(own[2], 30);
        assert_eq!(own[4], 3);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span(10, 20, None), span(5, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }
}
