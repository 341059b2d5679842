//! Streaming density aggregation.
//!
//! Raw per-segment density updates are noisy — a single snapshot can show a
//! segment empty between two waves of a platoon. The engine therefore
//! partitions on an *aggregate* of the recent feed, with the smoothing
//! choices exposed by [`AggregateKind`].
//!
//! [`DensityAggregator::push`] is the one gate every streamed density
//! passes: a snapshot of the wrong length, or holding a NaN, ±∞ or negative
//! value ([`AnomalyKind::of`], the classifier `core::sanitize` repairs
//! with), is rejected whole and the aggregate is left untouched. Behind the
//! gate the aggregator keeps only the running state its kind reads — the
//! last snapshot, the last `w` snapshots, or one EWMA vector — so memory is
//! bounded on an unbounded feed without a history to compact.

use crate::error::{Result, StreamError};
use roadpart::sanitize::AnomalyKind;
use std::collections::VecDeque;

/// How the recent density feed is reduced to one value per segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggregateKind {
    /// The latest snapshot, unsmoothed.
    Latest,
    /// Mean of the trailing `window` snapshots.
    WindowMean(usize),
    /// Exponentially weighted moving average with smoothing factor
    /// `alpha` in `(0, 1]`: seeded with the first snapshot, then
    /// `e ← e + alpha·(x − e)` on every push.
    Ewma(f64),
}

/// Checks that `densities` has one value per segment of an
/// `n_segments`-segment network and that every value is finite and
/// non-negative.
///
/// # Errors
/// Returns [`StreamError::InvalidUpdate`] naming the length mismatch, or the
/// first bad segment and its [`AnomalyKind`] (`density[17] is negative`).
pub(crate) fn check_densities(densities: &[f64], n_segments: usize) -> Result<()> {
    if densities.len() != n_segments {
        return Err(StreamError::InvalidUpdate(format!(
            "snapshot covers {} segments, network has {n_segments}",
            densities.len()
        )));
    }
    for (i, &d) in densities.iter().enumerate() {
        if let Some(kind) = AnomalyKind::of(d) {
            let msg = format!("density[{i}] is {}", kind.describe());
            return Err(StreamError::InvalidUpdate(msg));
        }
    }
    Ok(())
}

/// Accumulates per-segment density updates and serves the current
/// aggregate.
#[derive(Debug, Clone)]
pub struct DensityAggregator {
    kind: AggregateKind,
    n_segments: usize,
    /// `Latest`: the last snapshot; `WindowMean(w)`: the last `w`, oldest
    /// first; `Ewma`: the running average. Empty before the first push.
    state: VecDeque<Vec<f64>>,
}

impl DensityAggregator {
    /// Creates an aggregator for `n_segments` segments.
    ///
    /// # Errors
    /// Returns [`StreamError::InvalidConfig`] for a zero window or an EWMA
    /// factor outside `(0, 1]`.
    pub fn new(n_segments: usize, kind: AggregateKind) -> Result<Self> {
        match kind {
            AggregateKind::WindowMean(0) => Err(StreamError::InvalidConfig(
                "window mean needs a window >= 1".into(),
            )),
            AggregateKind::Ewma(alpha) if !(alpha > 0.0 && alpha <= 1.0) => Err(
                StreamError::InvalidConfig(format!("EWMA alpha must lie in (0, 1], got {alpha}")),
            ),
            _ => Ok(Self {
                kind,
                n_segments,
                state: VecDeque::new(),
            }),
        }
    }

    /// The configured aggregation mode.
    pub fn kind(&self) -> AggregateKind {
        self.kind
    }

    /// True before the first accepted update.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// Ingests one density snapshot.
    ///
    /// # Errors
    /// Returns [`StreamError::InvalidUpdate`] on a length mismatch or any
    /// NaN, infinite or negative entry, naming the first bad segment; the
    /// aggregate is unchanged.
    pub fn push(&mut self, densities: &[f64]) -> Result<()> {
        check_densities(densities, self.n_segments)?;
        let held = match self.kind {
            AggregateKind::Latest => 1,
            AggregateKind::WindowMean(w) => w,
            AggregateKind::Ewma(alpha) => {
                if let Some(ewma) = self.state.front_mut() {
                    for (e, &x) in ewma.iter_mut().zip(densities) {
                        *e += alpha * (x - *e);
                    }
                    return Ok(());
                }
                1
            }
        };
        if self.state.len() == held {
            self.state.pop_front();
        }
        self.state.push_back(densities.to_vec());
        Ok(())
    }

    /// The current aggregate, one density per segment; `None` before the
    /// first accepted update.
    pub fn current(&self) -> Option<Vec<f64>> {
        match self.kind {
            AggregateKind::WindowMean(_) => {
                if self.state.is_empty() {
                    return None;
                }
                let mut mean = vec![0.0; self.n_segments];
                for snapshot in &self.state {
                    for (m, &v) in mean.iter_mut().zip(snapshot) {
                        *m += v;
                    }
                }
                let inv = 1.0 / self.state.len() as f64;
                mean.iter_mut().for_each(|m| *m *= inv);
                Some(mean)
            }
            AggregateKind::Latest | AggregateKind::Ewma(_) => self.state.back().cloned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latest_tracks_the_feed() {
        let mut agg = DensityAggregator::new(2, AggregateKind::Latest).unwrap();
        assert!(agg.current().is_none());
        agg.push(&[0.1, 0.2]).unwrap();
        agg.push(&[0.3, 0.4]).unwrap();
        assert_eq!(agg.current().unwrap(), vec![0.3, 0.4]);
        assert_eq!(agg.state.len(), 1, "only the last snapshot is kept");
    }

    #[test]
    fn window_mean_matches_history_accessor() {
        let mut agg = DensityAggregator::new(1, AggregateKind::WindowMean(2)).unwrap();
        for v in [1.0, 2.0, 4.0] {
            agg.push(&[v]).unwrap();
        }
        assert!((agg.current().unwrap()[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn window_mean_averages_trailing_snapshots() {
        // Bit for bit: the window (all pushes while it is filling) is added
        // oldest-first into zeros, then scaled by 1/len; only the window is
        // kept, however long the feed.
        let mut agg = DensityAggregator::new(1, AggregateKind::WindowMean(3)).unwrap();
        let feed: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin().abs()).collect();
        for (i, &x) in feed.iter().enumerate() {
            agg.push(&[x]).unwrap();
            let window = &feed[i.saturating_sub(2)..=i];
            let sum = window.iter().fold(0.0, |acc, &v| acc + v);
            let mean = sum * (1.0 / window.len() as f64);
            assert_eq!(agg.current().unwrap()[0].to_bits(), mean.to_bits());
            assert_eq!(agg.state.len(), window.len());
        }

        let two_segments = |w| {
            let mut agg = DensityAggregator::new(2, AggregateKind::WindowMean(w)).unwrap();
            for s in [[1.0, 0.0], [2.0, 2.0], [4.0, 4.0]] {
                agg.push(&s).unwrap();
            }
            agg.current().unwrap()
        };
        // Last two snapshots only.
        assert_eq!(two_segments(2), vec![3.0, 3.0]);
        // Window longer than the feed: everything.
        let m = two_segments(10);
        assert!((m[0] - 7.0 / 3.0).abs() < 1e-12 && (m[1] - 2.0).abs() < 1e-12);
        // Window of one equals the last snapshot.
        assert_eq!(two_segments(1), vec![4.0, 4.0]);
        // Nothing pushed: nothing to average.
        let empty = DensityAggregator::new(2, AggregateKind::WindowMean(3)).unwrap();
        assert!(empty.current().is_none());
    }

    #[test]
    fn compaction_bounds_memory_without_changing_the_aggregate() {
        // There is no history to compact: every kind holds a fixed number
        // of vectors however long the feed, and still serves the aggregate
        // of the whole feed.
        let cases = [
            (AggregateKind::Latest, 1, 999.0),
            // Mean of the last 3 of 0..1000.
            (AggregateKind::WindowMean(3), 3, 998.0),
            (AggregateKind::Ewma(1.0), 1, 999.0),
        ];
        for (kind, held, want) in cases {
            let mut bounded = DensityAggregator::new(1, kind).unwrap();
            for i in 0..1000 {
                bounded.push(&[i as f64]).unwrap();
                assert!(bounded.state.len() <= held, "{kind:?} after push {i}");
            }
            assert!(
                bounded.state.len() <= 8,
                "buffer stays near the window size"
            );
            assert!(
                (bounded.current().unwrap()[0] - want).abs() < 1e-9,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn ewma_smooths() {
        let mut agg = DensityAggregator::new(1, AggregateKind::Ewma(0.5)).unwrap();
        for v in [0.0, 1.0, 1.0] {
            agg.push(&[v]).unwrap();
        }
        assert!((agg.current().unwrap()[0] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ewma_is_the_exact_recurrence() {
        let alpha = 0.3;
        let mut agg = DensityAggregator::new(1, AggregateKind::Ewma(alpha)).unwrap();
        let mut e = f64::NAN;
        for i in 0..1000 {
            let x = (i as f64 * 0.11).cos().abs();
            agg.push(&[x]).unwrap();
            e = if i == 0 { x } else { e + alpha * (x - e) };
            assert_eq!(agg.current().unwrap()[0].to_bits(), e.to_bits(), "push {i}");
        }
        assert_eq!(agg.state.len(), 1, "one running vector");
    }

    #[test]
    fn rejects_malformed_updates_and_configs() {
        let mut agg = DensityAggregator::new(2, AggregateKind::Latest).unwrap();
        assert!(agg.push(&[0.1]).is_err());
        assert!(agg.push(&[0.1, f64::NAN]).is_err());
        assert!(agg.is_empty(), "bad updates are not ingested");
        assert!(DensityAggregator::new(2, AggregateKind::WindowMean(0)).is_err());
        assert!(DensityAggregator::new(2, AggregateKind::Ewma(0.0)).is_err());
        assert!(DensityAggregator::new(2, AggregateKind::Ewma(1.5)).is_err());
    }

    #[test]
    fn every_kind_rejects_bad_snapshots_and_keeps_its_aggregate() {
        let bad: [(&[f64], &str); 6] = [
            (&[], "snapshot covers 0 segments, network has 3"),
            (&[0.1, 0.2], "snapshot covers 2 segments, network has 3"),
            (&[0.1, 0.2, f64::NAN], "density[2] is NaN"),
            (&[0.1, f64::INFINITY, 0.3], "density[1] is +inf"),
            (&[f64::NEG_INFINITY, 0.2, 0.3], "density[0] is -inf"),
            (&[0.1, -0.1, -0.2], "density[1] is negative"),
        ];
        let kinds = [
            AggregateKind::Latest,
            AggregateKind::WindowMean(2),
            AggregateKind::Ewma(0.5),
        ];
        for kind in kinds {
            let mut agg = DensityAggregator::new(3, kind).unwrap();
            for before in [None, Some(vec![0.1, 0.2, 0.3])] {
                if let Some(clean) = &before {
                    agg.push(clean).unwrap();
                }
                for (snapshot, msg) in bad {
                    match agg.push(snapshot) {
                        Err(StreamError::InvalidUpdate(m)) => assert_eq!(m, msg, "{kind:?}"),
                        other => panic!("{kind:?} accepted {snapshot:?}: {other:?}"),
                    }
                    assert_eq!(agg.current(), before, "{kind:?}");
                }
            }
        }
    }

    #[test]
    fn rejected_snapshots_take_no_place_in_any_aggregate() {
        // A snapshot refused between two clean ones neither fills a window
        // slot nor advances the EWMA.
        let cases = [
            (AggregateKind::Latest, [3.0, 3.0]),
            (AggregateKind::WindowMean(2), [2.0, 2.0]),
            (AggregateKind::Ewma(0.5), [2.0, 2.0]),
        ];
        for (kind, want) in cases {
            let mut agg = DensityAggregator::new(2, kind).unwrap();
            agg.push(&[1.0, 1.0]).unwrap();
            match agg.push(&[f64::NAN, -3.0]) {
                Err(StreamError::InvalidUpdate(m)) => assert_eq!(m, "density[0] is NaN"),
                other => panic!("{kind:?} accepted a NaN: {other:?}"),
            }
            agg.push(&[3.0, 3.0]).unwrap();
            assert_eq!(agg.current().unwrap(), want, "{kind:?}");
            // A feed of nothing but refused snapshots has nothing to serve.
            let mut poisoned = DensityAggregator::new(2, kind).unwrap();
            assert!(poisoned.push(&[f64::INFINITY, 0.0]).is_err());
            assert!(
                poisoned.is_empty() && poisoned.current().is_none(),
                "{kind:?}"
            );
        }
    }
}
