//! Shortest-path routing over the directed primal network.
//!
//! A binary-heap Dijkstra over intersections, with segment costs supplied by
//! a closure so callers can route on free-flow time, congested time, or
//! plain distance.

use crate::error::{Result, TrafficError};
use roadpart_net::{IntersectionId, RoadNetwork, SegmentId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Priority-queue entry ordered by ascending cost.
#[derive(PartialEq)]
struct QueueEntry {
    cost: f64,
    node: usize,
}

impl Eq for QueueEntry {}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; the total order keeps the comparator
        // consistent even for non-finite costs.
        other.cost.total_cmp(&self.cost)
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable Dijkstra workspace. Allocating once and routing many trips is
/// substantially faster than per-trip allocation for large networks.
pub struct Router<'a> {
    net: &'a RoadNetwork,
    dist: Vec<f64>,
    prev_seg: Vec<Option<SegmentId>>,
    touched: Vec<usize>,
}

impl<'a> Router<'a> {
    /// Creates a router bound to a network.
    pub fn new(net: &'a RoadNetwork) -> Self {
        let n = net.intersection_count();
        Self {
            net,
            dist: vec![f64::INFINITY; n],
            prev_seg: vec![None; n],
            touched: Vec::new(),
        }
    }

    /// Computes the minimum-cost route from `from` to `to` as a sequence of
    /// segment ids, where `cost(segment)` gives each segment's traversal
    /// cost (must be positive and finite).
    ///
    /// # Errors
    /// Returns [`TrafficError::NoRoute`] when `to` is unreachable.
    pub fn route(
        &mut self,
        from: IntersectionId,
        to: IntersectionId,
        mut cost: impl FnMut(SegmentId) -> f64,
    ) -> Result<Vec<SegmentId>> {
        // Reset only the entries touched by the previous query.
        for &i in &self.touched {
            self.dist[i] = f64::INFINITY;
            self.prev_seg[i] = None;
        }
        self.touched.clear();

        let (src, dst) = (from.index(), to.index());
        self.dist[src] = 0.0;
        self.touched.push(src);
        let mut heap = BinaryHeap::new();
        heap.push(QueueEntry {
            cost: 0.0,
            node: src,
        });

        while let Some(QueueEntry { cost: d, node }) = heap.pop() {
            if node == dst {
                break;
            }
            if d > self.dist[node] {
                continue; // stale entry
            }
            for &seg_id in self.net.outgoing(IntersectionId::from_index(node)) {
                let seg = self.net.segment(seg_id);
                let w = cost(seg_id);
                debug_assert!(w > 0.0 && w.is_finite(), "segment cost must be positive");
                let next = seg.to.index();
                let nd = d + w;
                if nd < self.dist[next] {
                    if self.dist[next].is_infinite() {
                        self.touched.push(next);
                    }
                    self.dist[next] = nd;
                    self.prev_seg[next] = Some(seg_id);
                    heap.push(QueueEntry {
                        cost: nd,
                        node: next,
                    });
                }
            }
        }

        if self.dist[dst].is_infinite() {
            return Err(TrafficError::NoRoute { from: src, to: dst });
        }
        // Walk predecessors back to the origin.
        let mut route = Vec::new();
        let mut at = dst;
        while at != src {
            // A finite distance guarantees a predecessor chain; a broken
            // chain means internal state corruption, reported as no-route.
            let Some(seg_id) = self.prev_seg[at] else {
                return Err(TrafficError::NoRoute { from: src, to: dst });
            };
            route.push(seg_id);
            at = self.net.segment(seg_id).from.index();
        }
        route.reverse();
        Ok(route)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadpart_net::RoadNetworkBuilder;

    /// 0 -> 1 -> 2 line plus a slow direct shortcut 0 -> 2.
    fn net_with_shortcut() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let p0 = b.intersection(0.0, 0.0);
        let p1 = b.intersection(100.0, 0.0);
        let p2 = b.intersection(200.0, 0.0);
        b.one_way_road(p0, p1); // seg 0
        b.one_way_road(p1, p2); // seg 1
        b.one_way_road(p0, p2); // seg 2 (direct, 200 m)
        b.build().unwrap()
    }

    #[test]
    fn picks_cheaper_route() {
        let net = net_with_shortcut();
        let mut router = Router::new(&net);
        // Uniform per-segment cost: direct (1 segment) wins.
        let route = router
            .route(IntersectionId(0), IntersectionId(2), |_| 1.0)
            .unwrap();
        assert_eq!(route.len(), 1);
        assert_eq!(route[0], SegmentId(2));
        // Distance cost: both 200 m; free-flow tie broken deterministically,
        // but penalizing the shortcut flips the choice.
        let route = router
            .route(IntersectionId(0), IntersectionId(2), |s| {
                if s == SegmentId(2) {
                    1000.0
                } else {
                    net.segment(s).length_m
                }
            })
            .unwrap();
        assert_eq!(route, vec![SegmentId(0), SegmentId(1)]);
    }

    #[test]
    fn unreachable_reports_no_route() {
        let mut b = RoadNetworkBuilder::new();
        let p0 = b.intersection(0.0, 0.0);
        let p1 = b.intersection(100.0, 0.0);
        b.one_way_road(p1, p0); // only wrong-direction edge
        let net = b.build().unwrap();
        let mut router = Router::new(&net);
        assert!(matches!(
            router.route(IntersectionId(0), IntersectionId(1), |_| 1.0),
            Err(TrafficError::NoRoute { from: 0, to: 1 })
        ));
    }

    #[test]
    fn trivial_route_to_self_is_empty() {
        let net = net_with_shortcut();
        let mut router = Router::new(&net);
        let route = router
            .route(IntersectionId(1), IntersectionId(1), |_| 1.0)
            .unwrap();
        assert!(route.is_empty());
    }

    #[test]
    fn workspace_reuse_is_correct() {
        let net = net_with_shortcut();
        let mut router = Router::new(&net);
        for _ in 0..3 {
            let r = router
                .route(IntersectionId(0), IntersectionId(2), |_| 1.0)
                .unwrap();
            assert_eq!(r.len(), 1);
            let r = router
                .route(IntersectionId(0), IntersectionId(1), |_| 1.0)
                .unwrap();
            assert_eq!(r, vec![SegmentId(0)]);
        }
    }

    #[test]
    fn respects_direction() {
        let net = net_with_shortcut();
        let mut router = Router::new(&net);
        // 2 -> 0 impossible: all segments point rightward.
        assert!(router
            .route(IntersectionId(2), IntersectionId(0), |_| 1.0)
            .is_err());
    }
}
