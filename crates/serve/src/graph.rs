//! Compact segment-transition graph the serving layer routes over.
//!
//! Nodes are directed road segments; there is an edge `a -> b` exactly when
//! `a.to == b.from` ([`RoadNetwork::successor_segments`]). Traversal cost
//! lives on the *node*: entering segment `b` costs `cost(b)` regardless of
//! where the vehicle came from. Every distance in this crate therefore uses
//! one convention — `D(u, v)` is the cheapest cost of a path from `u` to
//! `v` **excluding `u` and including `v`** (`D(u, u) = 0`), and the full
//! cost of a route is `cost(origin) + D(origin, destination)`.
//!
//! Both directions of the adjacency are stored in CSR form so the forward
//! phase, the backward phase, and the oracle builds all iterate flat
//! slices; node ids are `u32` to halve the cache traffic of the hot loops.

use crate::error::ServeError;
use roadpart_net::{RoadNetwork, SegmentId};

/// How segment traversal cost is derived from the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostModel {
    /// Free-flow travel time `length_m / free_speed_mps` in seconds.
    FreeFlowTime,
    /// Segment length in metres.
    Distance,
    /// One unit per segment (hop count) — handy for exact integer tests.
    Hops,
}

/// Immutable routing view of a [`RoadNetwork`]: per-segment costs plus the
/// forward and reverse segment-transition adjacency in CSR layout.
#[derive(Debug, Clone)]
pub struct SegmentGraph {
    cost: Vec<f64>,
    fwd_start: Vec<usize>,
    fwd_target: Vec<u32>,
    rev_start: Vec<usize>,
    rev_target: Vec<u32>,
}

impl SegmentGraph {
    /// Builds the routing graph with costs derived per `model`.
    ///
    /// # Errors
    /// [`ServeError::TooLarge`] when the network exceeds the `u32` id
    /// space, [`ServeError::InvalidCost`] when a derived cost is not finite
    /// and positive.
    pub fn from_network(net: &RoadNetwork, model: CostModel) -> Result<Self, ServeError> {
        let cost: Vec<f64> = (0..net.segment_count())
            .map(|i| {
                let seg = net.segment(SegmentId::from_index(i));
                match model {
                    CostModel::FreeFlowTime => seg.length_m / seg.free_speed_mps,
                    CostModel::Distance => seg.length_m,
                    CostModel::Hops => 1.0,
                }
            })
            .collect();
        Self::with_costs(net, cost)
    }

    /// Builds the routing graph with caller-supplied per-segment costs
    /// (one per segment, in id order).
    ///
    /// # Errors
    /// [`ServeError::TooLarge`] when the network exceeds the `u32` id
    /// space, [`ServeError::SnapshotMismatch`] when `cost` has the wrong
    /// length, [`ServeError::InvalidCost`] when a cost is not finite and
    /// positive (zero costs are rejected: they would admit zero-cost
    /// cycles and break the strict-improvement Dijkstra invariant).
    pub fn with_costs(net: &RoadNetwork, cost: Vec<f64>) -> Result<Self, ServeError> {
        let n = net.segment_count();
        if n > u32::MAX as usize {
            return Err(ServeError::TooLarge {
                what: "segments",
                count: n,
            });
        }
        if cost.len() != n {
            return Err(ServeError::SnapshotMismatch {
                graph_len: n,
                snapshot_len: cost.len(),
            });
        }
        for (segment, &value) in cost.iter().enumerate() {
            if !(value.is_finite() && value > 0.0) {
                return Err(ServeError::InvalidCost { segment, value });
            }
        }

        let mut fwd_start = Vec::with_capacity(n + 1);
        let mut fwd_target = Vec::new();
        fwd_start.push(0);
        let mut rev_degree = vec![0usize; n];
        for u in 0..n {
            for &v in net.successor_segments(SegmentId::from_index(u)) {
                fwd_target.push(v.0);
                rev_degree[v.index()] += 1;
            }
            fwd_start.push(fwd_target.len());
        }

        // Reverse CSR by counting sort; targets of each node stay in
        // ascending source order, keeping iteration deterministic.
        let mut rev_start = Vec::with_capacity(n + 1);
        rev_start.push(0);
        for d in &rev_degree {
            let last = *rev_start.last().unwrap_or(&0);
            rev_start.push(last + d);
        }
        let mut rev_target = vec![0u32; fwd_target.len()];
        let mut cursor: Vec<usize> = rev_start[..n].to_vec();
        for u in 0..n {
            for &t in &fwd_target[fwd_start[u]..fwd_start[u + 1]] {
                let v = t as usize;
                rev_target[cursor[v]] = u as u32;
                cursor[v] += 1;
            }
        }

        Ok(Self {
            cost,
            fwd_start,
            fwd_target,
            rev_start,
            rev_target,
        })
    }

    /// Number of segments (nodes).
    #[inline]
    pub fn len(&self) -> usize {
        self.cost.len()
    }

    /// True for an empty network.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cost.is_empty()
    }

    /// Traversal cost of segment `u`.
    #[inline]
    pub fn cost(&self, u: u32) -> f64 {
        self.cost[u as usize]
    }

    /// All per-segment costs in id order.
    #[inline]
    pub fn costs(&self) -> &[f64] {
        &self.cost
    }

    /// Segments reachable in one transition from `u`.
    #[inline]
    pub fn successors(&self, u: u32) -> &[u32] {
        let u = u as usize;
        &self.fwd_target[self.fwd_start[u]..self.fwd_start[u + 1]]
    }

    /// Segments that can transition onto `u`.
    #[inline]
    pub fn predecessors(&self, u: u32) -> &[u32] {
        let u = u as usize;
        &self.rev_target[self.rev_start[u]..self.rev_start[u + 1]]
    }

    /// Canonical cost of a route: the left-to-right sum of segment costs
    /// along `path` (including both endpoints). Reported costs always come
    /// from this fold so the partition-aware engine and the whole-network
    /// reference router agree bit-for-bit on identical paths.
    pub fn path_cost(&self, path: &[SegmentId]) -> f64 {
        let mut total = 0.0;
        for seg in path {
            total += self.cost[seg.index()];
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadpart_net::{Intersection, IntersectionId, RoadSegment};

    fn chain3() -> RoadNetwork {
        // 0 --s0--> 1 --s1--> 2, plus reverse s2: 1 -> 0.
        let ints = vec![
            Intersection { x: 0.0, y: 0.0 },
            Intersection { x: 100.0, y: 0.0 },
            Intersection { x: 200.0, y: 0.0 },
        ];
        let seg = |from: u32, to: u32, len: f64| RoadSegment {
            from: IntersectionId(from),
            to: IntersectionId(to),
            length_m: len,
            free_speed_mps: 10.0,
            density: 0.0,
        };
        let segs = vec![seg(0, 1, 100.0), seg(1, 2, 200.0), seg(1, 0, 50.0)];
        RoadNetwork::new(ints, segs).unwrap()
    }

    #[test]
    fn adjacency_matches_transition_relation() {
        let g = SegmentGraph::from_network(&chain3(), CostModel::Distance).unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(g.successors(0), &[1, 2]);
        assert_eq!(g.successors(1), &[] as &[u32]);
        assert_eq!(g.successors(2), &[0]);
        assert_eq!(g.predecessors(0), &[2]);
        assert_eq!(g.predecessors(1), &[0]);
        assert_eq!(g.predecessors(2), &[0]);
    }

    #[test]
    fn cost_models() {
        let net = chain3();
        let dist = SegmentGraph::from_network(&net, CostModel::Distance).unwrap();
        assert_eq!(dist.cost(1), 200.0);
        let time = SegmentGraph::from_network(&net, CostModel::FreeFlowTime).unwrap();
        assert_eq!(time.cost(1), 20.0);
        let hops = SegmentGraph::from_network(&net, CostModel::Hops).unwrap();
        assert_eq!(hops.cost(1), 1.0);
        assert_eq!(
            dist.path_cost(&[SegmentId(0), SegmentId(1)]),
            300.0,
            "canonical fold includes both endpoints"
        );
    }

    #[test]
    fn rejects_bad_costs() {
        let net = chain3();
        assert!(matches!(
            SegmentGraph::with_costs(&net, vec![1.0, 0.0, 1.0]),
            Err(ServeError::InvalidCost { segment: 1, .. })
        ));
        assert!(matches!(
            SegmentGraph::with_costs(&net, vec![1.0, f64::NAN, 1.0]),
            Err(ServeError::InvalidCost { .. })
        ));
        assert!(matches!(
            SegmentGraph::with_costs(&net, vec![1.0; 2]),
            Err(ServeError::SnapshotMismatch { .. })
        ));
    }
}
