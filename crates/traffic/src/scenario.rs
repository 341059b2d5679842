//! Disruption scenarios: composable timelines of incidents replayable over
//! analytic congestion fields and recorded density histories.
//!
//! The partitioner's premise is that congestion structure shifts and the
//! partitions must track it — but smooth synthetic workloads never stress
//! that claim. A [`Scenario`] is a named, fully deterministic timeline of
//! [`DisruptionEvent`]s over normalized time `t in [0, 1]`:
//!
//! * [`Disruption::CapacityDrop`] — an incident (crash, lane closure)
//!   inside a disc: throughput falls, so density on the affected segments
//!   rises multiplicatively while the event is active;
//! * [`Disruption::Blockade`] — a closed region: density inside collapses
//!   toward zero (no traffic can enter) while a spillover ring around it
//!   absorbs the diverted vehicles;
//! * [`Disruption::DemandSurge`] — a network-wide demand multiplier (rush
//!   hour, stadium egress);
//! * [`Disruption::MovingHotspot`] — an additive Gaussian congestion peak
//!   whose centre travels along a line over the event window (a slow-moving
//!   incident, a parade, a storm cell).
//!
//! Events compose: each transforms the density vector in timeline order, so
//! a blockade during a rush-hour surge behaves as expected. Activation is
//! trapezoidal (linear ramp in/out inside the window) so replays exercise
//! gradual onset as well as the steady disrupted state. Everything is
//! parameterized by explicit geometry and factors — never an RNG — so fault
//! replays are exactly reproducible, in the spirit of `core::faults`.

use crate::density::DensityHistory;
use crate::field::CongestionField;
use crate::profile::TemporalProfile;
use roadpart_net::{RoadNetwork, SegmentId};
use serde::{Deserialize, Serialize};

/// One injectable traffic disruption, positioned in network coordinates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Disruption {
    /// Capacity loss inside a disc: densities of segments whose midpoint
    /// lies within `radius_m` of `(x, y)` are multiplied by
    /// `1 + queue_gain * severity * activation` (queues grow where
    /// throughput fell).
    CapacityDrop {
        /// Disc centre easting, metres.
        x: f64,
        /// Disc centre northing, metres.
        y: f64,
        /// Disc radius, metres.
        radius_m: f64,
        /// Fraction of capacity lost, in `[0, 1]`.
        severity: f64,
    },
    /// Closed region: densities inside `radius_m` scale toward zero with
    /// activation; the ring out to `2 * radius_m` picks up the diverted
    /// traffic, scaled by `spill` and decaying linearly with distance.
    Blockade {
        /// Blockade centre easting, metres.
        x: f64,
        /// Blockade centre northing, metres.
        y: f64,
        /// Blocked-region radius, metres.
        radius_m: f64,
        /// Peak relative density increase on the spillover ring.
        spill: f64,
    },
    /// Network-wide demand multiplier ramping to `factor` at full
    /// activation (rush hour, event egress).
    DemandSurge {
        /// Density multiplier at full activation (`> 1` is a surge).
        factor: f64,
    },
    /// An additive Gaussian congestion peak moving from `(x0, y0)` to
    /// `(x1, y1)` across the event window.
    MovingHotspot {
        /// Path start easting, metres.
        x0: f64,
        /// Path start northing, metres.
        y0: f64,
        /// Path end easting, metres.
        x1: f64,
        /// Path end northing, metres.
        y1: f64,
        /// Added density at the moving centre, vehicles per metre.
        amplitude: f64,
        /// Gaussian radius, metres.
        sigma_m: f64,
    },
}

/// A [`Disruption`] scheduled on the scenario timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisruptionEvent {
    /// Window start, normalized time in `[0, 1]`.
    pub start: f64,
    /// Window end, normalized time in `[0, 1]` (`end > start`).
    pub end: f64,
    /// Fraction of the window spent ramping in (and again ramping out);
    /// `0` is a step function, `0.5` a pure triangle.
    pub ramp: f64,
    /// The disruption applied while the window is active.
    pub disruption: Disruption,
}

impl DisruptionEvent {
    /// An event active over `[start, end]` with a 20% ramp.
    pub fn new(start: f64, end: f64, disruption: Disruption) -> Self {
        Self {
            start,
            end,
            ramp: 0.2,
            disruption,
        }
    }

    /// Trapezoidal activation in `[0, 1]`: zero outside the window, linear
    /// ramps of width `ramp * (end - start)` at both edges, one in between.
    pub fn activation(&self, t: f64) -> f64 {
        let span = self.end - self.start;
        if span <= 0.0 || t < self.start || t > self.end {
            return 0.0;
        }
        let ramp = (self.ramp.clamp(0.0, 0.5)) * span;
        if ramp <= 0.0 {
            return 1.0;
        }
        let up = (t - self.start) / ramp;
        let down = (self.end - t) / ramp;
        up.min(down).clamp(0.0, 1.0)
    }

    /// Fraction of the window elapsed at `t`, clamped to `[0, 1]` — drives
    /// the moving-hotspot path.
    pub fn progress(&self, t: f64) -> f64 {
        let span = self.end - self.start;
        if span <= 0.0 {
            return 0.0;
        }
        ((t - self.start) / span).clamp(0.0, 1.0)
    }
}

/// A named, composable disruption timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name, used by benches and the CLI.
    pub name: String,
    /// Events applied in order at every timestep.
    pub events: Vec<DisruptionEvent>,
}

impl Scenario {
    /// An empty scenario (identity transform).
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            events: Vec::new(),
        }
    }

    /// Builder-style event append.
    #[must_use]
    pub fn with_event(mut self, event: DisruptionEvent) -> Self {
        self.events.push(event);
        self
    }

    /// True between the earliest event start and the latest event end.
    pub fn is_active(&self, t: f64) -> bool {
        self.events.iter().any(|e| e.activation(t) > 0.0)
    }

    /// Transforms one density snapshot in place for time `t`. Events apply
    /// in timeline order; output densities stay finite and non-negative
    /// whenever the input was.
    pub fn apply(&self, net: &RoadNetwork, t: f64, densities: &mut [f64]) {
        for event in &self.events {
            let act = event.activation(t);
            if act <= 0.0 {
                continue;
            }
            match event.disruption {
                Disruption::CapacityDrop {
                    x,
                    y,
                    radius_m,
                    severity,
                } => {
                    let gain = QUEUE_GAIN * severity.clamp(0.0, 1.0) * act;
                    for_each_in_disc(net, densities, x, y, radius_m, |d, _| d * (1.0 + gain));
                }
                Disruption::Blockade {
                    x,
                    y,
                    radius_m,
                    spill,
                } => {
                    let keep = 1.0 - act;
                    for (i, d) in densities.iter_mut().enumerate() {
                        let (mx, my) = net.segment_midpoint(SegmentId::from_index(i));
                        let dist = ((mx - x).powi(2) + (my - y).powi(2)).sqrt();
                        if dist <= radius_m {
                            *d *= keep;
                        } else if dist <= 2.0 * radius_m {
                            // Linear decay from the blockade edge outward.
                            let w = 1.0 - (dist - radius_m) / radius_m;
                            *d *= 1.0 + spill * act * w;
                        }
                    }
                }
                Disruption::DemandSurge { factor } => {
                    let scale = 1.0 + (factor - 1.0) * act;
                    for d in densities.iter_mut() {
                        *d = (*d * scale).max(0.0);
                    }
                }
                Disruption::MovingHotspot {
                    x0,
                    y0,
                    x1,
                    y1,
                    amplitude,
                    sigma_m,
                } => {
                    let p = event.progress(t);
                    let (cx, cy) = (x0 + (x1 - x0) * p, y0 + (y1 - y0) * p);
                    let inv = 1.0 / (2.0 * sigma_m * sigma_m).max(f64::MIN_POSITIVE);
                    for (i, d) in densities.iter_mut().enumerate() {
                        let (mx, my) = net.segment_midpoint(SegmentId::from_index(i));
                        let d2 = (mx - cx).powi(2) + (my - cy).powi(2);
                        *d += amplitude * act * (-d2 * inv).exp();
                    }
                }
            }
        }
    }

    /// Densities of an analytic field at time `t` with the scenario
    /// applied.
    pub fn disrupted_densities(
        &self,
        net: &RoadNetwork,
        field: &CongestionField,
        t: f64,
        profile: &TemporalProfile,
    ) -> Vec<f64> {
        let mut d = field.densities(net, t, profile);
        self.apply(net, t, &mut d);
        d
    }

    /// Overlays the scenario on a recorded history (e.g. a microsim trace):
    /// snapshot `s` is transformed at normalized time `s / (len - 1)`.
    pub fn apply_history(&self, net: &RoadNetwork, history: &DensityHistory) -> DensityHistory {
        let len = history.len();
        let mut out = DensityHistory::new(history.n_segments());
        for s in 0..len {
            let t = if len <= 1 {
                0.0
            } else {
                s as f64 / (len - 1) as f64
            };
            let mut d = history.at(s).to_vec();
            self.apply(net, t, &mut d);
            out.push(d);
        }
        out
    }

    /// The canonical scenario set used by the drift bench and the fault
    /// replay suite, sized to the network's bounding box. Each scenario has
    /// a calm lead-in (`t < 0.33`), an active window, and a tail so
    /// time-to-detect and epochs-to-recover are both measurable.
    pub fn standard_suite(net: &RoadNetwork) -> Vec<Scenario> {
        let (min_x, min_y, w, h) = bounding_box(net);
        let span = w.min(h);
        let (cx, cy) = (min_x + 0.5 * w, min_y + 0.5 * h);
        vec![
            Scenario::new("capacity-drop").with_event(DisruptionEvent::new(
                0.33,
                0.70,
                Disruption::CapacityDrop {
                    x: min_x + 0.3 * w,
                    y: min_y + 0.3 * h,
                    radius_m: 0.22 * span,
                    severity: 0.8,
                },
            )),
            Scenario::new("blockade").with_event(DisruptionEvent::new(
                0.33,
                0.70,
                Disruption::Blockade {
                    x: cx,
                    y: cy,
                    radius_m: 0.18 * span,
                    spill: 1.5,
                },
            )),
            Scenario::new("rush-hour").with_event(DisruptionEvent::new(
                0.33,
                0.75,
                Disruption::DemandSurge { factor: 2.5 },
            )),
            Scenario::new("moving-hotspot").with_event(DisruptionEvent::new(
                0.33,
                0.80,
                Disruption::MovingHotspot {
                    x0: min_x + 0.15 * w,
                    y0: min_y + 0.15 * h,
                    x1: min_x + 0.85 * w,
                    y1: min_y + 0.85 * h,
                    amplitude: 0.25,
                    sigma_m: 0.15 * span,
                },
            )),
        ]
    }
}

/// Multiplicative queue growth per unit severity at full activation for
/// [`Disruption::CapacityDrop`] — a Greenshields-flavoured constant: losing
/// most of a road's capacity roughly quadruples the local density before
/// traffic reroutes.
const QUEUE_GAIN: f64 = 3.0;

/// Applies `f(density, distance)` to every segment whose midpoint lies
/// within `radius_m` of `(x, y)`.
fn for_each_in_disc(
    net: &RoadNetwork,
    densities: &mut [f64],
    x: f64,
    y: f64,
    radius_m: f64,
    f: impl Fn(f64, f64) -> f64,
) {
    let r2 = radius_m * radius_m;
    for (i, d) in densities.iter_mut().enumerate() {
        let (mx, my) = net.segment_midpoint(SegmentId::from_index(i));
        let d2 = (mx - x).powi(2) + (my - y).powi(2);
        if d2 <= r2 {
            *d = f(*d, d2.sqrt());
        }
    }
}

/// `(min_x, min_y, width, height)` of the intersection cloud, with a 1 m
/// floor on both extents.
fn bounding_box(net: &RoadNetwork) -> (f64, f64, f64, f64) {
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in net.intersections() {
        min_x = min_x.min(p.x);
        max_x = max_x.max(p.x);
        min_y = min_y.min(p.y);
        max_y = max_y.max(p.y);
    }
    if !min_x.is_finite() {
        return (0.0, 0.0, 1.0, 1.0);
    }
    (
        min_x,
        min_y,
        (max_x - min_x).max(1.0),
        (max_y - min_y).max(1.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadpart_net::UrbanConfig;

    fn net() -> RoadNetwork {
        UrbanConfig::d1().scaled(0.4).generate(11).unwrap()
    }

    fn base(net: &RoadNetwork) -> Vec<f64> {
        let field = CongestionField::urban_default(net, 11);
        field.densities(net, 0.5, &TemporalProfile::Flat)
    }

    #[test]
    fn activation_is_trapezoidal() {
        let e = DisruptionEvent {
            start: 0.2,
            end: 0.8,
            ramp: 0.25,
            disruption: Disruption::DemandSurge { factor: 2.0 },
        };
        assert_eq!(e.activation(0.0), 0.0);
        assert_eq!(e.activation(1.0), 0.0);
        assert!((e.activation(0.5) - 1.0).abs() < 1e-12, "plateau");
        let half_ramp = e.activation(0.275);
        assert!(
            half_ramp > 0.0 && half_ramp < 1.0,
            "ramping in: {half_ramp}"
        );
        assert!((e.activation(0.275) - e.activation(0.725)).abs() < 1e-12);
        // Step function with ramp 0.
        let step = DisruptionEvent {
            ramp: 0.0,
            ..e.clone()
        };
        assert_eq!(step.activation(0.2), 1.0);
        assert!((e.progress(0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn inactive_scenario_is_identity() {
        let net = net();
        let before = base(&net);
        let mut after = before.clone();
        let s = Scenario::standard_suite(&net).remove(1);
        assert!(!s.is_active(0.1));
        s.apply(&net, 0.1, &mut after);
        assert_eq!(before, after);
    }

    #[test]
    fn blockade_empties_the_core_and_loads_the_ring() {
        let net = net();
        let before = base(&net);
        let mut after = before.clone();
        let (min_x, min_y, w, h) = bounding_box(&net);
        let (cx, cy) = (min_x + 0.5 * w, min_y + 0.5 * h);
        let radius = 0.2 * w.min(h);
        let s = Scenario::new("b").with_event(DisruptionEvent {
            start: 0.0,
            end: 1.0,
            ramp: 0.0,
            disruption: Disruption::Blockade {
                x: cx,
                y: cy,
                radius_m: radius,
                spill: 1.0,
            },
        });
        s.apply(&net, 0.5, &mut after);
        let mut core_seen = false;
        let mut ring_seen = false;
        for i in 0..net.segment_count() {
            let (mx, my) = net.segment_midpoint(SegmentId::from_index(i));
            let dist = ((mx - cx).powi(2) + (my - cy).powi(2)).sqrt();
            if dist <= radius {
                assert!(after[i].abs() < 1e-12, "core segment {i} not emptied");
                core_seen = true;
            } else if dist <= 1.5 * radius && before[i] > 0.0 {
                assert!(after[i] > before[i], "ring segment {i} not loaded");
                ring_seen = true;
            }
        }
        assert!(core_seen && ring_seen, "network too small for the geometry");
    }

    #[test]
    fn surge_scales_and_capacity_drop_is_local() {
        let net = net();
        let before = base(&net);
        let mut surged = before.clone();
        Scenario::new("s")
            .with_event(DisruptionEvent {
                start: 0.0,
                end: 1.0,
                ramp: 0.0,
                disruption: Disruption::DemandSurge { factor: 2.0 },
            })
            .apply(&net, 0.5, &mut surged);
        for (b, a) in before.iter().zip(&surged) {
            assert!((a - 2.0 * b).abs() < 1e-12);
        }

        let mut dropped = before.clone();
        let (min_x, min_y, w, h) = bounding_box(&net);
        Scenario::new("c")
            .with_event(DisruptionEvent {
                start: 0.0,
                end: 1.0,
                ramp: 0.0,
                disruption: Disruption::CapacityDrop {
                    x: min_x + 0.25 * w,
                    y: min_y + 0.25 * h,
                    radius_m: 0.2 * w.min(h),
                    severity: 1.0,
                },
            })
            .apply(&net, 0.5, &mut dropped);
        let changed = dropped
            .iter()
            .zip(&before)
            .filter(|(a, b)| (*a - *b).abs() > 1e-15)
            .count();
        assert!(changed > 0, "no segment affected");
        assert!(changed < net.segment_count(), "drop must stay local");
        for (a, b) in dropped.iter().zip(&before) {
            assert!(*a >= *b - 1e-15, "capacity drop only raises density");
        }
    }

    #[test]
    fn moving_hotspot_travels() {
        let net = net();
        let (min_x, min_y, w, h) = bounding_box(&net);
        let s = Scenario::new("m").with_event(DisruptionEvent {
            start: 0.0,
            end: 1.0,
            ramp: 0.0,
            disruption: Disruption::MovingHotspot {
                x0: min_x,
                y0: min_y + 0.5 * h,
                x1: min_x + w,
                y1: min_y + 0.5 * h,
                amplitude: 1.0,
                sigma_m: 0.1 * w,
            },
        });
        let zeros = vec![0.0; net.segment_count()];
        let centroid = |d: &[f64]| {
            let mass: f64 = d.iter().sum();
            let mut x = 0.0;
            for (i, v) in d.iter().enumerate() {
                x += v * net.segment_midpoint(SegmentId::from_index(i)).0;
            }
            x / mass.max(1e-12)
        };
        let mut early = zeros.clone();
        s.apply(&net, 0.1, &mut early);
        let mut late = zeros;
        s.apply(&net, 0.9, &mut late);
        assert!(
            centroid(&late) > centroid(&early),
            "hotspot mass must move with progress"
        );
    }

    #[test]
    fn replays_are_deterministic_finite_and_composable() {
        let net = net();
        let field = CongestionField::urban_default(&net, 11);
        let profile = TemporalProfile::morning();
        // Two events at once: surge + blockade compose.
        let mut s = Scenario::standard_suite(&net).remove(2);
        let (min_x, min_y, w, h) = bounding_box(&net);
        s.events.push(DisruptionEvent::new(
            0.4,
            0.6,
            Disruption::Blockade {
                x: min_x + 0.5 * w,
                y: min_y + 0.5 * h,
                radius_m: 0.15 * w.min(h),
                spill: 1.0,
            },
        ));
        let times: Vec<f64> = (0..9).map(|s| s as f64 / 8.0).collect();
        let replay = |scenario: &Scenario| {
            let mut history = DensityHistory::new(net.segment_count());
            for &t in &times {
                history.push(scenario.disrupted_densities(&net, &field, t, &profile));
            }
            history
        };
        let a = replay(&s);
        let b = replay(&s);
        assert_eq!(a.len(), 9);
        for t in 0..a.len() {
            assert_eq!(a.at(t), b.at(t), "replay must be deterministic");
            assert!(a.at(t).iter().all(|d| d.is_finite() && *d >= 0.0));
        }
        // Overlaying on a recorded history matches the per-step transform.
        let clean = replay(&Scenario::new("none"));
        let overlaid = s.apply_history(&net, &clean);
        for t in 0..overlaid.len() {
            assert_eq!(overlaid.at(t), a.at(t));
        }
    }

    #[test]
    fn standard_suite_covers_all_disruption_kinds() {
        let net = net();
        let suite = Scenario::standard_suite(&net);
        assert_eq!(suite.len(), 4);
        let names: Vec<&str> = suite.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"blockade") && names.contains(&"rush-hour"));
        for s in &suite {
            assert!(!s.is_active(0.1), "{}: calm lead-in required", s.name);
            assert!(s.is_active(0.5), "{}: active mid-run", s.name);
            let json = serde_json::to_string(s).unwrap();
            let back: Scenario = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, s);
        }
    }
}
