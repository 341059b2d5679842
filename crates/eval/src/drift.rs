//! Drift measures for repeated partitioning (paper §6.4).
//!
//! Both the distributed per-region refresher (`core::distributed`) and the
//! online repartitioning engine need the same two questions answered between
//! rounds: *how much did the partition structure change* (labeling drift)
//! and *how much did the congestion landscape move under a fixed partition*
//! (density drift). This module is the single shared implementation.

use crate::similarity::{nmi, rand_index};
use serde::{Deserialize, Serialize};

/// Structural drift between two labelings of the same node set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartitionDrift {
    /// Normalized mutual information between the labelings
    /// (1 = structure unchanged).
    pub nmi: f64,
    /// Rand index between the labelings (1 = identical pair relations).
    pub rand_index: f64,
    /// Partition count before.
    pub k_before: usize,
    /// Partition count after.
    pub k_after: usize,
}

impl PartitionDrift {
    /// Measures drift from the `before` labeling to the `after` labeling.
    ///
    /// # Panics
    /// Panics if the labelings differ in length (an internal-logic error:
    /// drift is only defined over one node set).
    pub fn between(before: &[usize], after: &[usize]) -> Self {
        assert_eq!(
            before.len(),
            after.len(),
            "drift labelings must cover the same nodes"
        );
        let count_k = |l: &[usize]| l.iter().copied().max().map_or(0, |m| m + 1);
        Self {
            nmi: nmi(before, after),
            rand_index: rand_index(before, after),
            k_before: count_k(before),
            k_after: count_k(after),
        }
    }
}

/// Per-group relative density divergence under a fixed labeling: for each
/// group, `|mean(current) - mean(baseline)| / scale`, where `scale` is the
/// larger of the group's baseline mean magnitude and the network-wide
/// baseline mean magnitude (with a tiny absolute floor). Dividing by the
/// network mean instead of a per-group near-zero keeps quiet groups from
/// reporting explosive relative changes over noise.
///
/// Returns one divergence per group label `0..=max(labels)`; groups with no
/// members report `0.0`.
///
/// # Panics
/// Panics if the slice lengths disagree (an internal-logic error).
pub fn group_divergence(labels: &[usize], baseline: &[f64], current: &[f64]) -> Vec<f64> {
    assert_eq!(labels.len(), baseline.len(), "labels/baseline length");
    assert_eq!(labels.len(), current.len(), "labels/current length");
    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut base_sum = vec![0.0f64; k];
    let mut cur_sum = vec![0.0f64; k];
    let mut count = vec![0usize; k];
    for ((&l, &b), &c) in labels.iter().zip(baseline).zip(current) {
        base_sum[l] += b;
        cur_sum[l] += c;
        count[l] += 1;
    }
    let n = labels.len();
    let net_mean = if n == 0 {
        0.0
    } else {
        baseline.iter().sum::<f64>().abs() / n as f64
    };
    (0..k)
        .map(|g| {
            if count[g] == 0 {
                return 0.0;
            }
            let inv = 1.0 / count[g] as f64;
            let mb = base_sum[g] * inv;
            let mc = cur_sum[g] * inv;
            let scale = mb.abs().max(net_mean).max(1e-12);
            (mc - mb).abs() / scale
        })
        .collect()
}

/// The largest per-group divergence (see [`group_divergence`]); `0.0` when
/// there are no groups.
pub fn max_group_divergence(labels: &[usize], baseline: &[f64], current: &[f64]) -> f64 {
    group_divergence(labels, baseline, current)
        .into_iter()
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_labelings_show_no_drift() {
        let a = [0, 0, 1, 1, 2, 2];
        let d = PartitionDrift::between(&a, &a);
        assert!((d.nmi - 1.0).abs() < 1e-12);
        assert!((d.rand_index - 1.0).abs() < 1e-12);
        assert_eq!(d.k_before, 3);
        assert_eq!(d.k_after, 3);
    }

    #[test]
    fn structural_change_registers() {
        let a = [0, 0, 0, 1, 1, 1];
        let b = [0, 1, 0, 1, 0, 1];
        let d = PartitionDrift::between(&a, &b);
        assert!(d.nmi < 0.2);
    }

    #[test]
    fn group_divergence_is_per_group_and_relative() {
        let labels = [0, 0, 1, 1];
        let baseline = [1.0, 1.0, 2.0, 2.0];
        // Group 0 unchanged, group 1 mean moves 2.0 -> 3.0 (+50%).
        let current = [1.0, 1.0, 3.0, 3.0];
        let div = group_divergence(&labels, &baseline, &current);
        assert_eq!(div.len(), 2);
        assert!(div[0].abs() < 1e-12);
        assert!((div[1] - 0.5).abs() < 1e-12);
        assert!((max_group_divergence(&labels, &baseline, &current) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn quiet_groups_scale_by_network_mean() {
        // Group 0's baseline mean is 0: absolute change 0.1 is judged
        // against the network mean (0.5), not the zero group mean.
        let labels = [0, 1];
        let baseline = [0.0, 1.0];
        let current = [0.1, 1.0];
        let div = group_divergence(&labels, &baseline, &current);
        assert!((div[0] - 0.2).abs() < 1e-12, "0.1 / 0.5 network mean");
    }
}
