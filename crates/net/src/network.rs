//! The primal urban road network `N = (I, R)` of Definition 1.

use crate::error::{NetError, Result};
use crate::ids::{IntersectionId, SegmentId};
use crate::sanitize::{check_densities, check_density};
use serde::{Deserialize, Serialize};

/// An intersection point with planar coordinates in metres.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Intersection {
    /// Easting, metres.
    pub x: f64,
    /// Northing, metres.
    pub y: f64,
}

/// A directed road segment `r_i` carrying a traffic density `r_i.d`
/// (vehicles per metre).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoadSegment {
    /// Upstream intersection.
    pub from: IntersectionId,
    /// Downstream intersection.
    pub to: IntersectionId,
    /// Segment length in metres.
    pub length_m: f64,
    /// Free-flow speed in metres/second (used by the microsimulator).
    pub free_speed_mps: f64,
    /// Current traffic density in vehicles per metre — the feature value the
    /// partitioning framework consumes.
    pub density: f64,
}

/// The primal road network: intersections connected by directed segments.
///
/// Two-way streets are represented as *two* directed segments sharing
/// endpoints, exactly as §2.1 prescribes ("the two traffic directions are
/// considered as separate road segments").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoadNetwork {
    intersections: Vec<Intersection>,
    segments: Vec<RoadSegment>,
    /// Outgoing segment ids per intersection (derived; rebuilt on load).
    #[serde(skip)]
    outgoing: Vec<Vec<SegmentId>>,
    /// Incoming segment ids per intersection (derived; rebuilt on load).
    #[serde(skip)]
    incoming: Vec<Vec<SegmentId>>,
}

impl RoadNetwork {
    /// Assembles a network from parts, validating referential integrity.
    ///
    /// # Errors
    /// Returns [`NetError::DanglingIntersection`] if a segment references a
    /// missing intersection, [`NetError::NonPositive`] for non-positive
    /// lengths or speeds, and [`NetError::Density`] for a density the gate
    /// ([`check_densities`]) refuses.
    pub fn new(intersections: Vec<Intersection>, segments: Vec<RoadSegment>) -> Result<Self> {
        let n = intersections.len();
        for (i, seg) in segments.iter().enumerate() {
            if seg.from.index() >= n {
                return Err(NetError::DanglingIntersection {
                    segment: i,
                    intersection: seg.from.index(),
                });
            }
            if seg.to.index() >= n {
                return Err(NetError::DanglingIntersection {
                    segment: i,
                    intersection: seg.to.index(),
                });
            }
            // NaN-rejecting comparison: NaN fails `>`, so `!(x > 0)` also
            // catches NaN lengths, not just non-positive ones.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(seg.length_m > 0.0) {
                return Err(NetError::NonPositive {
                    what: "segment length",
                    value: seg.length_m,
                });
            }
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(seg.free_speed_mps > 0.0) {
                return Err(NetError::NonPositive {
                    what: "free-flow speed",
                    value: seg.free_speed_mps,
                });
            }
            check_density(i, seg.density)?;
        }
        let mut net = Self {
            intersections,
            segments,
            outgoing: Vec::new(),
            incoming: Vec::new(),
        };
        net.rebuild_incidence();
        Ok(net)
    }

    /// Rebuilds the per-intersection incidence lists. Called by the
    /// constructor and after deserialization.
    pub fn rebuild_incidence(&mut self) {
        let n = self.intersections.len();
        self.outgoing = vec![Vec::new(); n];
        self.incoming = vec![Vec::new(); n];
        for (i, seg) in self.segments.iter().enumerate() {
            let id = SegmentId::from_index(i);
            self.outgoing[seg.from.index()].push(id);
            self.incoming[seg.to.index()].push(id);
        }
    }

    /// Number of intersection points `|I|`.
    #[inline]
    pub fn intersection_count(&self) -> usize {
        self.intersections.len()
    }

    /// Number of directed road segments `|R|`.
    #[inline]
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Immutable intersection access.
    #[inline]
    pub fn intersection(&self, id: IntersectionId) -> &Intersection {
        &self.intersections[id.index()]
    }

    /// Immutable segment access.
    #[inline]
    pub fn segment(&self, id: SegmentId) -> &RoadSegment {
        &self.segments[id.index()]
    }

    /// All segments in id order.
    #[inline]
    pub fn segments(&self) -> &[RoadSegment] {
        &self.segments
    }

    /// All intersections in id order.
    #[inline]
    pub fn intersections(&self) -> &[Intersection] {
        &self.intersections
    }

    /// Segments leaving `id`.
    #[inline]
    pub fn outgoing(&self, id: IntersectionId) -> &[SegmentId] {
        &self.outgoing[id.index()]
    }

    /// Segments a vehicle can continue onto after traversing `id`: the
    /// outgoing segments of its downstream intersection. This is the edge
    /// relation of the segment-transition graph the serving layer routes
    /// over (`a -> b` iff `a.to == b.from`).
    #[inline]
    pub fn successor_segments(&self, id: SegmentId) -> &[SegmentId] {
        self.outgoing(self.segment(id).to)
    }

    /// All segments incident to an intersection (incoming then outgoing).
    pub fn incident(&self, id: IntersectionId) -> impl Iterator<Item = SegmentId> + '_ {
        self.incoming[id.index()]
            .iter()
            .chain(self.outgoing[id.index()].iter())
            .copied()
    }

    /// Current densities in segment-id order (the feature vector `F`).
    pub fn densities(&self) -> Vec<f64> {
        self.segments.iter().map(|s| s.density).collect()
    }

    /// Overwrites all segment densities.
    ///
    /// # Errors
    /// Returns the [`check_densities`] error for a vector of the wrong
    /// length or holding a NaN, infinite or negative value; nothing is
    /// overwritten.
    pub fn set_densities(&mut self, densities: &[f64]) -> Result<()> {
        check_densities(densities, self.segments.len())?;
        for (seg, &d) in self.segments.iter_mut().zip(densities) {
            seg.density = d;
        }
        Ok(())
    }

    /// Midpoint of a segment in network coordinates (metres).
    pub fn segment_midpoint(&self, id: SegmentId) -> (f64, f64) {
        let seg = self.segment(id);
        let a = self.intersection(seg.from);
        let b = self.intersection(seg.to);
        (0.5 * (a.x + b.x), 0.5 * (a.y + b.y))
    }

    /// Bounding-box area in square miles (matching the paper's Table 1 unit).
    pub fn area_sq_miles(&self) -> f64 {
        if self.intersections.is_empty() {
            return 0.0;
        }
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for p in &self.intersections {
            min_x = min_x.min(p.x);
            max_x = max_x.max(p.x);
            min_y = min_y.min(p.y);
            max_y = max_y.max(p.y);
        }
        const SQ_M_PER_SQ_MILE: f64 = 1609.344 * 1609.344;
        ((max_x - min_x) * (max_y - min_y)) / SQ_M_PER_SQ_MILE
    }

    /// Boolean mask over intersections marking the largest strongly
    /// connected component of the directed network. Trips should be sampled
    /// inside this set — any origin can then route to any destination.
    pub fn largest_scc_mask(&self) -> Vec<bool> {
        let n = self.intersections.len();
        let mut fwd = vec![Vec::new(); n];
        let mut rev = vec![Vec::new(); n];
        for seg in &self.segments {
            fwd[seg.from.index()].push(seg.to.index());
            rev[seg.to.index()].push(seg.from.index());
        }
        let (comp, _, label) = crate::scc::largest_component(&fwd, &rev);
        comp.into_iter().map(|c| c == label).collect()
    }

    /// True if every intersection can reach every other ignoring direction
    /// (weak connectivity of the primal network).
    pub fn is_weakly_connected(&self) -> bool {
        let n = self.intersections.len();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::from([0usize]);
        seen[0] = true;
        let mut visited = 1usize;
        while let Some(i) = queue.pop_front() {
            let id = IntersectionId::from_index(i);
            for seg_id in self.incident(id) {
                let seg = self.segment(seg_id);
                for other in [seg.from.index(), seg.to.index()] {
                    if !seen[other] {
                        seen[other] = true;
                        visited += 1;
                        queue.push_back(other);
                    }
                }
            }
        }
        visited == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn tiny() -> RoadNetwork {
        // 0 --s0--> 1 --s1--> 2, plus reverse s2: 1 -> 0.
        let ints = vec![
            Intersection { x: 0.0, y: 0.0 },
            Intersection { x: 100.0, y: 0.0 },
            Intersection { x: 200.0, y: 0.0 },
        ];
        let segs = vec![
            RoadSegment {
                from: IntersectionId(0),
                to: IntersectionId(1),
                length_m: 100.0,
                free_speed_mps: 14.0,
                density: 0.01,
            },
            RoadSegment {
                from: IntersectionId(1),
                to: IntersectionId(2),
                length_m: 100.0,
                free_speed_mps: 14.0,
                density: 0.02,
            },
            RoadSegment {
                from: IntersectionId(1),
                to: IntersectionId(0),
                length_m: 100.0,
                free_speed_mps: 14.0,
                density: 0.03,
            },
        ];
        RoadNetwork::new(ints, segs).unwrap()
    }

    #[test]
    fn counts_and_access() {
        let net = tiny();
        assert_eq!(net.intersection_count(), 3);
        assert_eq!(net.segment_count(), 3);
        assert_eq!(net.segment(SegmentId(1)).to, IntersectionId(2));
    }

    #[test]
    fn incidence_lists() {
        let net = tiny();
        assert_eq!(net.outgoing(IntersectionId(1)).len(), 2);
        let incident: Vec<_> = net.incident(IntersectionId(0)).collect();
        assert_eq!(incident.len(), 2); // s0 out, s2 in
    }

    #[test]
    fn successor_segments_follow_downstream_intersection() {
        let net = tiny();
        // s0 ends at intersection 1, whose outgoing segments are s1 and s2.
        assert_eq!(
            net.successor_segments(SegmentId(0)),
            &[SegmentId(1), SegmentId(2)]
        );
        // s1 ends at the terminal intersection 2: no continuation.
        assert!(net.successor_segments(SegmentId(1)).is_empty());
        // s2 loops back to intersection 0, whose only exit is s0.
        assert_eq!(net.successor_segments(SegmentId(2)), &[SegmentId(0)]);
    }

    #[test]
    fn rejects_dangling_reference() {
        let ints = vec![Intersection { x: 0.0, y: 0.0 }];
        let segs = vec![RoadSegment {
            from: IntersectionId(0),
            to: IntersectionId(5),
            length_m: 10.0,
            free_speed_mps: 10.0,
            density: 0.0,
        }];
        assert!(matches!(
            RoadNetwork::new(ints, segs),
            Err(NetError::DanglingIntersection { .. })
        ));
    }

    #[test]
    fn rejects_bad_scalars() {
        let ints = vec![Intersection { x: 0.0, y: 0.0 }; 2];
        let mk = |length_m: f64, speed: f64, density: f64| {
            RoadNetwork::new(
                ints.clone(),
                vec![RoadSegment {
                    from: IntersectionId(0),
                    to: IntersectionId(1),
                    length_m,
                    free_speed_mps: speed,
                    density,
                }],
            )
        };
        assert!(mk(0.0, 10.0, 0.0).is_err());
        assert!(mk(10.0, -1.0, 0.0).is_err());
        let err = mk(10.0, 10.0, -0.5).unwrap_err();
        assert_eq!(err.to_string(), "density[0] is negative");
        let err = mk(10.0, 10.0, f64::NAN).unwrap_err();
        assert_eq!(err.to_string(), "density[0] is NaN");
    }

    #[test]
    fn densities_roundtrip() {
        let mut net = tiny();
        assert_eq!(net.densities(), vec![0.01, 0.02, 0.03]);
        net.set_densities(&[0.5, 0.6, 0.7]).unwrap();
        assert_eq!(net.densities(), vec![0.5, 0.6, 0.7]);
        assert!(net.set_densities(&[0.1]).is_err());
        let err = net.set_densities(&[0.1, -0.2, 0.3]).unwrap_err();
        assert_eq!(err.to_string(), "density[1] is negative");
        assert_eq!(net.densities(), vec![0.5, 0.6, 0.7], "nothing overwritten");
    }

    #[test]
    fn geometry_helpers() {
        let net = tiny();
        assert_eq!(net.segment_midpoint(SegmentId(0)), (50.0, 0.0));
        assert!(net.is_weakly_connected());
    }

    #[test]
    fn disconnected_detected() {
        let ints = vec![
            Intersection { x: 0.0, y: 0.0 },
            Intersection { x: 1.0, y: 0.0 },
            Intersection { x: 9.0, y: 9.0 },
        ];
        let segs = vec![RoadSegment {
            from: IntersectionId(0),
            to: IntersectionId(1),
            length_m: 1.0,
            free_speed_mps: 1.0,
            density: 0.0,
        }];
        let net = RoadNetwork::new(ints, segs).unwrap();
        assert!(!net.is_weakly_connected());
    }
}
