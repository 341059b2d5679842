//! The dual *road graph* `G = (V, E)` of Definition 2.
//!
//! Every directed road segment becomes a node; two nodes are linked by an
//! undirected edge when their segments share at least one intersection
//! point. Star topologies in the network therefore become cliques in the
//! graph, and linear stretches stay linear, exactly as §2.1 describes.

use crate::error::{NetError, Result};
use crate::ids::SegmentId;
use crate::network::RoadNetwork;
use crate::sanitize::check_densities;
use roadpart_linalg::CsrMatrix;
use std::collections::BTreeSet;

/// The dual road graph: binary adjacency over segments plus per-node
/// features (traffic densities) and planar positions (segment midpoints).
/// Its features pass the density gate ([`check_densities`]) on the way in:
/// [`RoadGraph::from_parts`] and [`RoadGraph::set_features`] run it, and
/// [`RoadGraph::from_network`] takes densities [`RoadNetwork::new`] checked.
#[derive(Debug, Clone)]
pub struct RoadGraph {
    adjacency: CsrMatrix,
    features: Vec<f64>,
    positions: Vec<(f64, f64)>,
}

impl RoadGraph {
    /// Constructs the dual of a road network.
    ///
    /// # Errors
    /// Propagates adjacency-matrix construction failures (cannot occur for a
    /// validated [`RoadNetwork`], but the signature stays honest).
    pub fn from_network(net: &RoadNetwork) -> Result<Self> {
        let n = net.segment_count();
        let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
        for i in 0..net.intersection_count() {
            let id = crate::ids::IntersectionId::from_index(i);
            let incident: Vec<SegmentId> = net.incident(id).collect();
            for (a_pos, &a) in incident.iter().enumerate() {
                for &b in &incident[a_pos + 1..] {
                    if a != b {
                        let (lo, hi) = if a.index() < b.index() {
                            (a.index(), b.index())
                        } else {
                            (b.index(), a.index())
                        };
                        if lo != hi {
                            edges.insert((lo, hi));
                        }
                    }
                }
            }
        }
        let edge_list: Vec<(usize, usize, f64)> =
            edges.into_iter().map(|(a, b)| (a, b, 1.0)).collect();
        let adjacency = CsrMatrix::from_undirected_edges(n, &edge_list)?;
        let features = net.densities();
        let positions = (0..n)
            .map(|i| net.segment_midpoint(SegmentId::from_index(i)))
            .collect();
        Ok(Self {
            adjacency,
            features,
            positions,
        })
    }

    /// Builds a road graph directly from parts (used by tests and by the
    /// supergraph machinery, which manufactures graphs without a network).
    ///
    /// # Errors
    /// Returns the [`check_densities`] error for `features`, and
    /// [`NetError::Invalid`] for a non-empty `positions` of the wrong length.
    pub fn from_parts(
        adjacency: CsrMatrix,
        features: Vec<f64>,
        positions: Vec<(f64, f64)>,
    ) -> Result<Self> {
        check_densities(&features, adjacency.dim())?;
        let positions = if positions.is_empty() {
            vec![(0.0, 0.0); adjacency.dim()]
        } else if positions.len() == adjacency.dim() {
            positions
        } else {
            return Err(NetError::Invalid(format!(
                "position vector length {} != graph order {}",
                positions.len(),
                adjacency.dim()
            )));
        };
        Ok(Self {
            adjacency,
            features,
            positions,
        })
    }

    /// Graph order `|V|` (= number of road segments).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adjacency.dim()
    }

    /// Number of undirected adjacency links `|E|`.
    #[inline]
    pub fn link_count(&self) -> usize {
        self.adjacency.nnz() / 2
    }

    /// The binary adjacency matrix `A_G` (symmetric CSR).
    #[inline]
    pub fn adjacency(&self) -> &CsrMatrix {
        &self.adjacency
    }

    /// Node feature values `v_i.f` (traffic densities), node order.
    #[inline]
    pub fn features(&self) -> &[f64] {
        &self.features
    }

    /// Replaces the feature vector (e.g. when re-partitioning the same
    /// network at a new time step).
    ///
    /// # Errors
    /// Returns the [`check_densities`] error for a vector of the wrong
    /// length or holding a NaN, infinite or negative value; the features
    /// are left unchanged.
    pub fn set_features(&mut self, features: Vec<f64>) -> Result<()> {
        check_densities(&features, self.node_count())?;
        self.features = features;
        Ok(())
    }

    /// Planar positions of nodes (segment midpoints), node order.
    #[inline]
    pub fn positions(&self) -> &[(f64, f64)] {
        &self.positions
    }

    /// Neighbors of node `i`.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[usize] {
        self.adjacency.row(i).0
    }

    /// True if the graph is connected (singleton graphs count as connected).
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut visited = 1;
        while let Some(i) = stack.pop() {
            for &j in self.neighbors(i) {
                if !seen[j] {
                    seen[j] = true;
                    visited += 1;
                    stack.push(j);
                }
            }
        }
        visited == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::IntersectionId;
    use crate::network::{Intersection, RoadSegment};

    fn seg(from: u32, to: u32) -> RoadSegment {
        RoadSegment {
            from: IntersectionId(from),
            to: IntersectionId(to),
            length_m: 100.0,
            free_speed_mps: 14.0,
            density: 0.01,
        }
    }

    #[test]
    fn line_network_dualizes_to_path() {
        // 0 -> 1 -> 2 -> 3: three segments in a line -> path of 3 dual nodes.
        let ints = vec![Intersection { x: 0.0, y: 0.0 }; 4];
        let net = RoadNetwork::new(ints, vec![seg(0, 1), seg(1, 2), seg(2, 3)]).unwrap();
        let g = RoadGraph::from_network(&net).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.link_count(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.is_connected());
    }

    #[test]
    fn star_network_dualizes_to_clique() {
        // Four segments all incident to intersection 0 -> K4 in the dual.
        let ints = vec![Intersection { x: 0.0, y: 0.0 }; 5];
        let net = RoadNetwork::new(ints, vec![seg(1, 0), seg(2, 0), seg(0, 3), seg(0, 4)]).unwrap();
        let g = RoadGraph::from_network(&net).unwrap();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.link_count(), 6); // C(4,2)
        for i in 0..4 {
            assert_eq!(g.neighbors(i).len(), 3);
        }
    }

    #[test]
    fn two_way_road_directions_are_adjacent() {
        // A single two-way road: both directions share both endpoints, so the
        // dual has one link (not two).
        let ints = vec![Intersection { x: 0.0, y: 0.0 }; 2];
        let net = RoadNetwork::new(ints, vec![seg(0, 1), seg(1, 0)]).unwrap();
        let g = RoadGraph::from_network(&net).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.link_count(), 1);
    }

    #[test]
    fn features_match_densities() {
        let ints = vec![Intersection { x: 0.0, y: 0.0 }; 3];
        let mut segs = vec![seg(0, 1), seg(1, 2)];
        segs[0].density = 0.7;
        segs[1].density = 0.9;
        let net = RoadNetwork::new(ints, segs).unwrap();
        let g = RoadGraph::from_network(&net).unwrap();
        assert_eq!(g.features(), &[0.7, 0.9]);
    }

    #[test]
    fn positions_are_midpoints() {
        let ints = vec![
            Intersection { x: 0.0, y: 0.0 },
            Intersection { x: 100.0, y: 40.0 },
        ];
        let net = RoadNetwork::new(ints, vec![seg(0, 1)]).unwrap();
        let g = RoadGraph::from_network(&net).unwrap();
        assert_eq!(g.positions()[0], (50.0, 20.0));
    }

    #[test]
    fn from_parts_validation() {
        let a = CsrMatrix::from_undirected_edges(2, &[(0, 1, 1.0)]).unwrap();
        assert!(RoadGraph::from_parts(a.clone(), vec![1.0], vec![]).is_err());
        let g = RoadGraph::from_parts(a, vec![1.0, 2.0], vec![]).unwrap();
        assert_eq!(g.positions().len(), 2);
    }

    #[test]
    fn set_features_replaces() {
        let a = CsrMatrix::from_undirected_edges(2, &[(0, 1, 1.0)]).unwrap();
        let mut g = RoadGraph::from_parts(a, vec![1.0, 2.0], vec![]).unwrap();
        g.set_features(vec![5.0, 6.0]).unwrap();
        assert_eq!(g.features(), &[5.0, 6.0]);
        assert!(g.set_features(vec![1.0]).is_err());
    }

    #[test]
    fn anomalous_features_are_refused_and_leave_the_graph_unchanged() {
        let a = CsrMatrix::from_undirected_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let mut g = RoadGraph::from_parts(a.clone(), vec![0.1, 0.2, 0.3], vec![]).unwrap();
        for (bad, kind) in [
            (f64::NAN, "NaN"),
            (f64::INFINITY, "+inf"),
            (f64::NEG_INFINITY, "-inf"),
            (-0.1, "negative"),
        ] {
            let features = vec![0.1, 0.2, bad];
            let msg = format!("density[2] is {kind}");
            let err = RoadGraph::from_parts(a.clone(), features.clone(), vec![]).unwrap_err();
            assert_eq!(err.to_string(), msg);
            let err = g.set_features(features).unwrap_err();
            assert_eq!(err.to_string(), msg);
            assert_eq!(g.features(), &[0.1, 0.2, 0.3], "{kind}: features kept");
        }
    }

    #[test]
    fn disconnected_dual_detected() {
        // Two separate roads that never meet.
        let ints = vec![Intersection { x: 0.0, y: 0.0 }; 4];
        let net = RoadNetwork::new(ints, vec![seg(0, 1), seg(2, 3)]).unwrap();
        let g = RoadGraph::from_network(&net).unwrap();
        assert!(!g.is_connected());
    }
}
