//! Degeneracy diagnostics for a partitioned road graph.
//!
//! Densities are checked where they enter the stack, by
//! [`roadpart_net::check_densities`]: a NaN, infinite or negative value, or
//! a vector of the wrong length, is refused with a data error and nothing
//! is repaired. This module flags inputs that pass that gate but deserve a
//! warning: all-equal density vectors (no congestion structure to mine)
//! and edgeless or disconnected dual graphs.

use roadpart_cluster::count_components;
use roadpart_linalg::CsrMatrix;
use roadpart_net::RoadGraph;
use serde::{Deserialize, Serialize};

/// The degeneracy findings for one road graph — serializable so the
/// supervisor can embed them in a run report.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ValidationReport {
    /// True when every density is identical — the congestion field carries
    /// no structure for the miner to exploit.
    pub all_equal: bool,
    /// Connected components of the dual graph, when checked.
    pub graph_components: Option<usize>,
    /// Free-form warnings for conditions that are tolerated but suspect.
    pub warnings: Vec<String>,
}

impl ValidationReport {
    /// Diagnoses a road graph: the all-equal flag over its features, then
    /// the dual-graph checks of [`check_dual_graph`].
    pub fn of(graph: &RoadGraph) -> Self {
        let features = graph.features();
        let mut report = ValidationReport {
            all_equal: features.len() > 1
                && features
                    .windows(2)
                    .all(|w| w[0].to_bits() == w[1].to_bits()),
            ..ValidationReport::default()
        };
        if report.all_equal {
            report.warnings.push(
                "all densities are equal; the congestion field has no structure to mine".into(),
            );
        }
        check_dual_graph(graph.adjacency(), &mut report);
        report
    }
}

/// Checks the dual road graph for degenerate topology, appending findings to
/// an existing report: an edgeless graph and a disconnected graph are both
/// tolerated downstream (isolated segments become singleton partitions) but
/// usually indicate a broken input file.
pub fn check_dual_graph(adj: &CsrMatrix, report: &mut ValidationReport) {
    let n = adj.dim();
    // Unconstrained component counting cannot fail (no labels to mismatch).
    let components = count_components(adj, None).unwrap_or(0);
    report.graph_components = Some(components);
    if n == 0 {
        report.warnings.push("dual graph has no nodes".into());
        return;
    }
    if adj.iter().next().is_none() {
        report
            .warnings
            .push(format!("dual graph has {n} nodes but no edges"));
    }
    if components > 1 {
        report.warnings.push(format!(
            "dual graph is disconnected: {components} components"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(features: Vec<f64>) -> RoadGraph {
        let n = features.len();
        let edges: Vec<(usize, usize, f64)> = (1..n).map(|i| (i - 1, i, 1.0)).collect();
        let adj = CsrMatrix::from_undirected_edges(n, &edges).unwrap();
        RoadGraph::from_parts(adj, features, vec![]).unwrap()
    }

    #[test]
    fn clean_input_passes_untouched() {
        let report = ValidationReport::of(&path_graph(vec![0.1, 0.5, 0.9]));
        assert!(!report.all_equal);
        assert_eq!(report.graph_components, Some(1));
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    }

    #[test]
    fn all_equal_detected() {
        let report = ValidationReport::of(&path_graph(vec![0.5; 8]));
        assert!(report.all_equal);
        assert_eq!(report.warnings.len(), 1, "{:?}", report.warnings);
    }

    #[test]
    fn graph_checks_flag_degeneracy() {
        let mut report = ValidationReport::default();
        let connected = CsrMatrix::from_undirected_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        check_dual_graph(&connected, &mut report);
        assert_eq!(report.graph_components, Some(1));
        assert!(report.warnings.is_empty());

        let mut report = ValidationReport::default();
        let split = CsrMatrix::from_undirected_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        check_dual_graph(&split, &mut report);
        assert_eq!(report.graph_components, Some(2));
        assert_eq!(report.warnings.len(), 1);

        let mut report = ValidationReport::default();
        let edgeless = CsrMatrix::from_triplets(3, &[]).unwrap();
        check_dual_graph(&edgeless, &mut report);
        assert_eq!(report.warnings.len(), 2, "edgeless and disconnected");
    }

    #[test]
    fn report_round_trips_through_json() {
        let adj = CsrMatrix::from_undirected_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let graph = RoadGraph::from_parts(adj, vec![0.2; 4], vec![]).unwrap();
        let report = ValidationReport::of(&graph);
        assert_eq!(report.warnings.len(), 2, "all-equal and disconnected");
        let json = serde_json::to_string(&report).unwrap();
        let back: ValidationReport = serde_json::from_str(&json).unwrap();
        assert!(back.all_equal);
        assert_eq!(back.graph_components, Some(2));
        assert_eq!(back.warnings, report.warnings);
    }
}
