//! The Dijkstra inner loops — every search phase of the serving layer
//! drains one of these three kernels.
//!
//! This file is listed in the audit `hot-loop-alloc` modules: nothing here
//! may allocate. All state lives in a borrowed [`DijkstraScratch`] that
//! the caller seeds via `DijkstraScratch::seed` (and resets between
//! runs); the kernels only pop the frontier, relax edges, and record
//! predecessors. Unreachable nodes simply keep `INFINITY` distances —
//! turning that into a typed [`crate::ServeError::NoRoute`] is the
//! caller's job, so no error paths (and no formatting machinery) exist in
//! the hot loops.

use crate::graph::SegmentGraph;
use crate::scratch::{DijkstraScratch, HeapEntry};

/// Pseudo-cell meaning "no restriction": the search may settle any node.
pub const UNRESTRICTED: usize = usize::MAX;

/// Pseudo-target meaning "settle everything reachable".
pub const NO_TARGET: u32 = u32::MAX;

/// Forward Dijkstra over the segment-transition graph, restricted to
/// nodes labeled `cell` (pass [`UNRESTRICTED`] for the whole network).
///
/// Relaxing `u -> v` costs `cost(v)`, so settled distances follow the
/// crate convention `D(source, v)` excluding the source and including
/// `v`. Stops early once `stop_at` is settled ([`NO_TARGET`] disables).
/// Returns the number of settled nodes.
pub fn run_forward(
    g: &SegmentGraph,
    labels: &[usize],
    cell: usize,
    stop_at: u32,
    s: &mut DijkstraScratch,
) -> usize {
    let mut settled = 0usize;
    while let Some(top) = s.heap.pop() {
        let u = top.node as usize;
        if top.cost > s.dist[u] {
            continue; // stale entry superseded by a cheaper relaxation
        }
        settled += 1;
        if top.node == stop_at {
            break;
        }
        for &v in g.successors(top.node) {
            let vi = v as usize;
            if cell != UNRESTRICTED && labels[vi] != cell {
                continue;
            }
            let next = top.cost + g.cost(v);
            if next < s.dist[vi] {
                if s.dist[vi] == f64::INFINITY {
                    s.touched.push(v);
                }
                s.dist[vi] = next;
                s.prev[vi] = top.node;
                s.heap.push(HeapEntry {
                    cost: next,
                    node: v,
                });
            }
        }
    }
    settled
}

/// Backward Dijkstra: settled `dist[u]` is `D(u, target)` — the cost of
/// reaching the seeded target *from* `u`, excluding `u` and including the
/// target. Restricted to `cell` like [`run_forward`].
///
/// Relaxes predecessor `p` of a settled `u` through the edge `p -> u`:
/// the path `p, u, ..., target` costs `cost(u) + D(u, target)` beyond `p`.
/// In the recorded tree `prev[p]` is therefore the *successor* of `p` on
/// its cheapest path toward the target.
pub fn run_backward(
    g: &SegmentGraph,
    labels: &[usize],
    cell: usize,
    stop_at: u32,
    s: &mut DijkstraScratch,
) -> usize {
    let mut settled = 0usize;
    while let Some(top) = s.heap.pop() {
        let u = top.node as usize;
        if top.cost > s.dist[u] {
            continue;
        }
        settled += 1;
        if top.node == stop_at {
            break;
        }
        let next = top.cost + g.cost(top.node);
        for &p in g.predecessors(top.node) {
            let pi = p as usize;
            if cell != UNRESTRICTED && labels[pi] != cell {
                continue;
            }
            if next < s.dist[pi] {
                if s.dist[pi] == f64::INFINITY {
                    s.touched.push(p);
                }
                s.dist[pi] = next;
                s.prev[pi] = top.node;
                s.heap.push(HeapEntry {
                    cost: next,
                    node: p,
                });
            }
        }
    }
    settled
}

/// Dijkstra over the condensed boundary graph, given as flat CSR arrays
/// (`edge_start[u]..edge_start[u + 1]` indexes `edge_target`/`edge_weight`
/// for overlay node `u`). Multi-source: the caller seeds every entry
/// point before the call. Records in `prev_edge` the index of the edge
/// that set each predecessor, so the winner's overlay walk can be
/// expanded back into road segments. Returns the number of settled nodes.
pub fn run_overlay(
    edge_start: &[usize],
    edge_target: &[u32],
    edge_weight: &[f64],
    s: &mut DijkstraScratch,
) -> usize {
    let mut settled = 0usize;
    while let Some(top) = s.heap.pop() {
        let u = top.node as usize;
        if top.cost > s.dist[u] {
            continue;
        }
        settled += 1;
        for e in edge_start[u]..edge_start[u + 1] {
            let v = edge_target[e];
            let vi = v as usize;
            let next = top.cost + edge_weight[e];
            if next < s.dist[vi] {
                if s.dist[vi] == f64::INFINITY {
                    s.touched.push(v);
                }
                s.dist[vi] = next;
                s.prev[vi] = top.node;
                s.prev_edge[vi] = e as u32;
                s.heap.push(HeapEntry {
                    cost: next,
                    node: v,
                });
            }
        }
    }
    settled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CostModel;
    use roadpart_net::{Intersection, IntersectionId, RoadNetwork, RoadSegment};

    /// 4-segment one-way ring: s0 -> s1 -> s2 -> s3 -> s0.
    fn ring4() -> SegmentGraph {
        let ints = (0..4)
            .map(|i| Intersection {
                x: f64::from(i),
                y: 0.0,
            })
            .collect();
        let seg = |from: u32, to: u32, len: f64| RoadSegment {
            from: IntersectionId(from),
            to: IntersectionId(to),
            length_m: len,
            free_speed_mps: 10.0,
            density: 0.0,
        };
        let segs = vec![
            seg(0, 1, 10.0),
            seg(1, 2, 20.0),
            seg(2, 3, 30.0),
            seg(3, 0, 40.0),
        ];
        let net = RoadNetwork::new(ints, segs).unwrap();
        SegmentGraph::from_network(&net, CostModel::Distance).unwrap()
    }

    #[test]
    fn forward_unrestricted_settles_ring() {
        let g = ring4();
        let mut s = DijkstraScratch::new();
        s.ensure(g.len());
        s.seed(0, 0.0);
        let settled = run_forward(&g, &[], UNRESTRICTED, NO_TARGET, &mut s);
        assert_eq!(settled, 4);
        // D excludes the source, includes the destination.
        assert_eq!(s.distance(0), 0.0);
        assert_eq!(s.distance(1), 20.0);
        assert_eq!(s.distance(2), 50.0);
        assert_eq!(s.distance(3), 90.0);
    }

    #[test]
    fn forward_respects_cell_restriction_and_early_exit() {
        let g = ring4();
        let labels = [0usize, 0, 1, 1];
        let mut s = DijkstraScratch::new();
        s.ensure(g.len());
        s.seed(0, 0.0);
        run_forward(&g, &labels, 0, NO_TARGET, &mut s);
        assert_eq!(s.distance(1), 20.0);
        assert_eq!(s.distance(2), f64::INFINITY, "cell 1 is off limits");

        s.reset();
        s.seed(0, 0.0);
        let settled = run_forward(&g, &[], UNRESTRICTED, 1, &mut s);
        assert_eq!(settled, 2, "stopped after settling the target");
        assert_eq!(s.distance(1), 20.0);
    }

    #[test]
    fn backward_matches_forward_reversed() {
        let g = ring4();
        let mut s = DijkstraScratch::new();
        s.ensure(g.len());
        s.seed(3, 0.0);
        run_backward(&g, &[], UNRESTRICTED, NO_TARGET, &mut s);
        // D(u, 3) for each u: cost of the path excluding u, including 3.
        assert_eq!(s.distance(3), 0.0);
        assert_eq!(s.distance(2), 40.0);
        assert_eq!(s.distance(1), 70.0);
        assert_eq!(s.distance(0), 90.0);
        // prev points at the successor toward the target.
        assert_eq!(s.prev[0], 1);
        assert_eq!(s.prev[1], 2);
    }

    #[test]
    fn overlay_multi_source_takes_cheapest_entry() {
        // 3 overlay nodes; edges 0->2 (w 10) and 1->2 (w 1).
        let edge_start = [0usize, 1, 2, 2];
        let edge_target = [2u32, 2];
        let edge_weight = [10.0, 1.0];
        let mut s = DijkstraScratch::new();
        s.ensure(3);
        s.seed(0, 0.0);
        s.seed(1, 5.0);
        run_overlay(&edge_start, &edge_target, &edge_weight, &mut s);
        assert_eq!(s.distance(2), 6.0);
        assert_eq!(s.prev[2], 1);
        assert_eq!(s.prev_edge[2], 1);
    }
}
