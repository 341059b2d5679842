//! The paper's four datasets, regenerated synthetically (Table 1).
//!
//! | id | place                  | segments | intersections | traffic source |
//! |----|------------------------|----------|---------------|----------------|
//! | D1 | Downtown San Francisco | 420      | 237           | 4 h microsimulation, 120 x 2-min steps, evaluated at t = 71 |
//! | M1 | CBD Melbourne          | 17,206   | 10,096        | MNTG, 25,246 vehicles, 100 timestamps |
//! | M2 | CBD(+) Melbourne       | 53,494   | 28,465        | MNTG, 62,300 vehicles, 100 timestamps |
//! | M3 | Melbourne              | 79,487   | 42,321        | MNTG, 84,999 vehicles, 100 timestamps |
//!
//! The real maps/traces are not available; see DESIGN.md "Substitutions".
//! Every recipe takes a `scale` in `(0, 1]` — 1.0 reproduces the paper's
//! sizes, smaller values shrink networks and fleets proportionally for CI.

use crate::error::{Result, RoadpartError};
use roadpart_net::{RoadNetwork, UrbanConfig};
use roadpart_traffic::{
    generate_traffic, CongestionField, DensityHistory, MicrosimStats, MntgConfig, TemporalProfile,
};

/// Combines simulated through-traffic with the analytic district field:
/// the microsimulator contributes trip flows and queueing dynamics, the
/// field contributes the local/background circulation (parking search,
/// short hops) that loop detectors see but through-trip simulation misses.
/// The blend gives densities both regional structure and dynamic corridors.
fn blend_background(
    net: &RoadNetwork,
    history: DensityHistory,
    profile: &TemporalProfile,
    seed: u64,
) -> DensityHistory {
    let field = CongestionField::urban_default(net, seed);
    let steps = history.len().max(1);
    let mut blended = DensityHistory::new(net.segment_count());
    for t in 0..history.len() {
        let frac = t as f64 / steps as f64;
        let background = field.densities(net, frac, profile);
        let combined: Vec<f64> = history
            .at(t)
            .iter()
            .zip(&background)
            .map(|(&sim, &bg)| sim + bg)
            .collect();
        blended.push(combined);
    }
    blended
}

/// Refuses a `scale` outside `(0, 1]`, NaN included: the generators would
/// otherwise clamp the network's scale while still scaling the fleet and
/// the step count by the raw value.
fn check_scale(scale: f64) -> Result<()> {
    if scale > 0.0 && scale <= 1.0 {
        Ok(())
    } else {
        Err(RoadpartError::InvalidConfig(format!(
            "dataset scale must lie in (0, 1], got {scale}"
        )))
    }
}

/// A ready-to-partition dataset: network plus a density time series.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset id ("D1", "M1", ...).
    pub name: &'static str,
    /// The synthetic road network.
    pub network: RoadNetwork,
    /// Per-segment densities at each recorded timestep.
    pub history: DensityHistory,
    /// The timestep the paper evaluates at (71 for D1; the congestion peak
    /// for the Melbourne sets, which the paper leaves unspecified).
    pub eval_step: usize,
    /// Simulation statistics.
    pub stats: MicrosimStats,
}

impl Dataset {
    /// Densities at the evaluation step.
    pub fn eval_densities(&self) -> &[f64] {
        self.history.at(self.eval_step)
    }
}

/// D1: the small network. 120 steps of 2 minutes, morning-peak demand,
/// evaluated at t = 71 (scaled along with the step count).
///
/// # Errors
/// Returns [`RoadpartError::InvalidConfig`] for a `scale` outside `(0, 1]`;
/// propagates generation failures.
pub fn d1(scale: f64, seed: u64) -> Result<Dataset> {
    check_scale(scale)?;
    let net = UrbanConfig::d1().scaled(scale).generate(seed)?;
    // Vehicle fleet sized to produce visible congestion on ~420 segments.
    let vehicles = ((5_000.0 * scale) as usize).max(50);
    let steps = ((120.0 * scale.max(0.25)) as usize).max(12);
    let cfg = MntgConfig {
        vehicles,
        timestamps: steps,
        step_seconds: 120.0,
        profile: TemporalProfile::morning(),
        hotspot_bias: true,
        legs: None,
        dwell_frac: 0.5,
        seed,
    };
    let (history, stats) = generate_traffic(&net, &cfg)?;
    let history = blend_background(&net, history, &cfg.profile, seed);
    // Paper evaluates at t = 71 of 120; keep the same fraction when scaled.
    let eval_step = ((steps as f64) * 71.0 / 120.0) as usize;
    Ok(Dataset {
        name: "D1",
        network: net,
        history,
        eval_step: eval_step.min(steps - 1),
        stats,
    })
}

/// Which Melbourne extract to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Melbourne {
    /// CBD Melbourne (M1).
    M1,
    /// CBD(+) Melbourne (M2).
    M2,
    /// Melbourne (M3).
    M3,
}

impl Melbourne {
    fn urban(self) -> UrbanConfig {
        match self {
            Melbourne::M1 => UrbanConfig::m1(),
            Melbourne::M2 => UrbanConfig::m2(),
            Melbourne::M3 => UrbanConfig::m3(),
        }
    }

    fn vehicles(self) -> usize {
        match self {
            Melbourne::M1 => 25_246,
            Melbourne::M2 => 62_300,
            Melbourne::M3 => 84_999,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Melbourne::M1 => "M1",
            Melbourne::M2 => "M2",
            Melbourne::M3 => "M3",
        }
    }
}

/// A Melbourne extract: MNTG-style random traffic, 100 timestamps,
/// evaluated at the congestion peak.
///
/// # Errors
/// Returns [`RoadpartError::InvalidConfig`] for a `scale` outside `(0, 1]`;
/// propagates generation failures.
pub fn melbourne(which: Melbourne, scale: f64, seed: u64) -> Result<Dataset> {
    check_scale(scale)?;
    let net = which.urban().scaled(scale).generate(seed)?;
    let vehicles = ((which.vehicles() as f64 * scale) as usize).max(50);
    let cfg = MntgConfig {
        vehicles,
        timestamps: 100,
        step_seconds: 60.0,
        profile: TemporalProfile::morning(),
        hotspot_bias: true,
        legs: None,
        dwell_frac: 0.5,
        seed,
    };
    let (history, stats) = generate_traffic(&net, &cfg)?;
    let history = blend_background(&net, history, &cfg.profile, seed);
    let eval_step = history.peak_step().unwrap_or(0);
    Ok(Dataset {
        name: which.name(),
        network: net,
        history,
        eval_step,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d1_scaled_builds_and_evaluates() {
        let ds = d1(0.25, 3).unwrap();
        assert_eq!(ds.name, "D1");
        assert!(ds.eval_step < ds.history.len());
        assert_eq!(ds.eval_densities().len(), ds.network.segment_count());
        assert!(ds.stats.departed > 0);
        // Some congestion exists at the evaluation step.
        assert!(ds.eval_densities().iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn melbourne_scaled_builds() {
        let ds = melbourne(Melbourne::M1, 0.02, 5).unwrap();
        assert_eq!(ds.name, "M1");
        assert_eq!(ds.history.len(), 100);
        assert!(ds.eval_densities().iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn scale_outside_the_unit_interval_is_a_config_error() {
        for scale in [0.0, -3.0, 7.0, 1.0 + 1e-9, f64::NAN, f64::INFINITY] {
            let m1 = melbourne(Melbourne::M1, scale, 1).unwrap_err();
            for err in [d1(scale, 1).unwrap_err(), m1] {
                assert!(
                    matches!(err, RoadpartError::InvalidConfig(_)),
                    "{scale}: {err}"
                );
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = d1(0.2, 9).unwrap();
        let b = d1(0.2, 9).unwrap();
        assert_eq!(a.eval_densities(), b.eval_densities());
    }
}
