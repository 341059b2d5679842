//! Per-segment traffic density time series.

use serde::{Deserialize, Serialize};

/// Densities (vehicles per metre) for every segment at every recorded
/// timestep — the quantity the partitioning framework consumes.
///
/// A plain record of what a producer (the microsimulation, MNTG, a
/// scenario replay) generated: it stores snapshots as given and checks only
/// their length. Consumers check values where they enter — the stream
/// engine's `DensityAggregator::push`, the supervisor's sanitizer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DensityHistory {
    n_segments: usize,
    steps: Vec<Vec<f64>>,
}

impl DensityHistory {
    /// Creates an empty history for `n_segments` segments.
    pub fn new(n_segments: usize) -> Self {
        Self {
            n_segments,
            steps: Vec::new(),
        }
    }

    /// Appends one snapshot.
    ///
    /// # Panics
    /// Panics if the snapshot length disagrees with `n_segments` (an
    /// internal-logic error, not a data error).
    pub fn push(&mut self, densities: Vec<f64>) {
        assert_eq!(densities.len(), self.n_segments, "snapshot length mismatch");
        self.steps.push(densities);
    }

    /// Number of recorded timesteps.
    #[inline]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True if no snapshots were recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Number of segments per snapshot.
    #[inline]
    pub fn n_segments(&self) -> usize {
        self.n_segments
    }

    /// Densities at timestep `t`.
    #[inline]
    pub fn at(&self, t: usize) -> &[f64] {
        &self.steps[t]
    }

    /// Densities at the last recorded timestep, if any.
    pub fn last(&self) -> Option<&[f64]> {
        self.steps.last().map(Vec::as_slice)
    }

    /// Mean density over segments at timestep `t`.
    pub fn mean_at(&self, t: usize) -> f64 {
        let s = &self.steps[t];
        if s.is_empty() {
            0.0
        } else {
            s.iter().sum::<f64>() / s.len() as f64
        }
    }

    /// The timestep with the highest network-mean density (the simulated
    /// "peak"), if any snapshots exist.
    pub fn peak_step(&self) -> Option<usize> {
        (0..self.len()).max_by(|&a, &b| self.mean_at(a).total_cmp(&self.mean_at(b)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_access() {
        let mut h = DensityHistory::new(3);
        assert!(h.is_empty());
        h.push(vec![0.1, 0.2, 0.3]);
        h.push(vec![0.3, 0.3, 0.3]);
        assert_eq!(h.len(), 2);
        assert_eq!(h.at(0), &[0.1, 0.2, 0.3]);
        assert_eq!(h.last().unwrap(), &[0.3, 0.3, 0.3]);
        assert!((h.mean_at(0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn peak_step_finds_max_mean() {
        let mut h = DensityHistory::new(2);
        h.push(vec![0.1, 0.1]);
        h.push(vec![0.5, 0.4]);
        h.push(vec![0.2, 0.2]);
        assert_eq!(h.peak_step(), Some(1));
        assert_eq!(DensityHistory::new(2).peak_step(), None);
    }

    #[test]
    #[should_panic(expected = "snapshot length mismatch")]
    fn mismatched_snapshot_panics() {
        let mut h = DensityHistory::new(2);
        h.push(vec![0.1]);
    }
}
