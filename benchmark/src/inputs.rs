//! Input generation. The program under test receives only what these
//! functions produce.
//!
//! The cities are fixed datasets: M1 and M3 are generated with
//! `UrbanConfig::generate` from one constant seed, and so is their
//! congestion field. The run's `--seed` draws what varies between runs of
//! the same workload: the order in which the partition workloads visit
//! their snapshots, the instant each streaming snapshot is taken within
//! its step, and the origin–destination pairs of the serving workload.
//!
//! The partition snapshots themselves stay fixed because the partitioners
//! are chaotic in their input. Drawing each snapshot's instant from the
//! seed (±0.02 of the morning) spread ASG's mean partition count on M3 by
//! 15% and its peak memory by 16% between seeds (interquartile range over
//! median), and drawing the whole city from the seed spread them further:
//! more than any regression bound could absorb.

use roadpart_net::{RoadNetwork, SegmentId, UrbanConfig};
use roadpart_traffic::{CongestionField, Scenario, TemporalProfile};

/// Seed of the generated cities and their congestion fields.
pub const CITY_SEED: u64 = 42;

/// Seed of the partitioners' own randomness (k-means, Lanczos starts).
pub const ALGO_SEED: u64 = 42;

/// Partitions requested by every workload.
pub const K: usize = 8;

/// Which generated city.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum City {
    /// CBD Melbourne surrogate (~19.7k segments at full scale).
    M1,
    /// Melbourne surrogate (~82.6k segments at full scale).
    M3,
}

/// Generates a city at `scale` (1.0 = paper size).
///
/// # Errors
/// Returns the generator's error message.
pub fn city(which: City, scale: f64) -> Result<RoadNetwork, String> {
    let cfg = match which {
        City::M1 => UrbanConfig::m1(),
        City::M3 => UrbanConfig::m3(),
    };
    cfg.scaled(scale)
        .generate(CITY_SEED)
        .map_err(|e| format!("generating {which:?}: {e}"))
}

/// The city's congestion field (fixed hotspots).
pub fn field(net: &RoadNetwork) -> CongestionField {
    CongestionField::urban_default(net, CITY_SEED)
}

/// SplitMix64 step: a tiny deterministic generator with no dependency.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[-0.5, 0.5)`.
fn centred(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

/// Normalized times of `slots` evenly spaced morning snapshots, from 0.05
/// to 0.95.
pub fn snapshot_times(slots: usize) -> Vec<f64> {
    let span = slots.saturating_sub(1).max(1) as f64;
    (0..slots).map(|i| 0.05 + 0.9 * i as f64 / span).collect()
}

/// The order in which cycle `cycle` of a run seeded with `seed` visits
/// `n` snapshots: a seeded Fisher–Yates shuffle of `0..n`.
pub fn visit_order(seed: u64, cycle: usize, n: usize) -> Vec<usize> {
    let mut state = seed ^ (cycle as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Morning-profile densities of `net` at each of `times`.
pub fn snapshots(net: &RoadNetwork, times: &[f64]) -> Vec<Vec<f64>> {
    let field = field(net);
    let profile = TemporalProfile::morning();
    times
        .iter()
        .map(|&t| field.densities(net, t, &profile))
        .collect()
}

/// The streaming trace: every `Scenario::standard_suite` scenario replayed
/// twice, first over a calm day (flat demand) and then over a morning
/// rush, `steps` snapshots each. The seed moves each snapshot's instant by
/// up to ±0.3 of a step. Returns the snapshots in feed order.
///
/// The calm replays mostly hold the served partition (no-op epochs with
/// regional touch-ups around each disruption); the rush replays and the
/// jump back to a calm day force global rebuilds. `StreamEngine` sees each
/// replay as one continuous feed.
pub fn stream_trace(net: &RoadNetwork, seed: u64, steps: usize) -> Vec<Vec<f64>> {
    let field = field(net);
    let mut state = seed ^ 0x7374_7265_616D_5F74;
    let last = steps.saturating_sub(1).max(1) as f64;
    let mut out = Vec::new();
    for scenario in Scenario::standard_suite(net) {
        for profile in [TemporalProfile::Flat, TemporalProfile::morning()] {
            for s in 0..steps {
                let t = ((s as f64 + 0.6 * centred(&mut state)) / last).clamp(0.0, 1.0);
                out.push(scenario.disrupted_densities(net, &field, t, &profile));
            }
        }
    }
    out
}

/// Origin–destination pair number `index` of the serving workload.
pub fn od_pair(seed: u64, index: usize, segments: usize) -> (SegmentId, SegmentId) {
    let mut state = seed ^ (index as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    let n = segments.max(1) as u64;
    let from = (splitmix64(&mut state) % n) as u32;
    let to = (splitmix64(&mut state) % n) as u32;
    (SegmentId(from), SegmentId(to))
}

/// Integer travel-time costs (whole seconds, at least 1) so that route
/// costs are sums of integers and compare exactly.
pub fn quantized_costs(net: &RoadNetwork) -> Vec<f64> {
    net.segments()
        .iter()
        .map(|s| (s.length_m / s.free_speed_mps).round().max(1.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visit_orders_are_seeded_permutations() {
        let a = visit_order(1, 0, 10);
        assert_eq!(a, visit_order(1, 0, 10));
        assert_ne!(a, visit_order(2, 0, 10));
        assert_ne!(a, visit_order(1, 1, 10));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        let times = snapshot_times(10);
        assert!((times[0] - 0.05).abs() < 1e-12 && (times[9] - 0.95).abs() < 1e-12);
    }

    #[test]
    fn od_pairs_are_deterministic_and_in_range() {
        for i in 0..100 {
            let (s, t) = od_pair(7, i, 13);
            assert_eq!((s, t), od_pair(7, i, 13));
            assert!(s.index() < 13 && t.index() < 13);
        }
        assert_ne!(od_pair(7, 0, 1 << 20), od_pair(8, 0, 1 << 20));
    }
}
