//! # roadpart-net
//!
//! Urban road network modelling for the `roadpart` partitioning stack,
//! implementing §2.1 of Anwar et al. (EDBT 2014):
//!
//! * [`network::RoadNetwork`] — the primal network `N = (I, R)`:
//!   intersections connected by *directed* road segments, each carrying a
//!   traffic density (Definition 1);
//! * [`sanitize::check_densities`] — the density gate every density vector
//!   passes on its way into the stack;
//! * [`road_graph::RoadGraph`] — the dual *road graph* `G = (V, E)` whose
//!   nodes are segments and whose undirected links are shared-intersection
//!   adjacencies (Definition 2), stored as a sparse binary adjacency matrix;
//! * [`builder::RoadNetworkBuilder`] — programmatic construction;
//! * [`synth`] — synthetic urban generators with presets matching the
//!   statistics of the paper's four datasets (D1, M1–M3);
//! * [`io`] — plain-text persistence.

pub mod builder;
pub mod error;
pub mod geojson;
pub mod ids;
pub mod io;
pub mod network;
pub mod road_graph;
pub mod sanitize;
pub mod scc;
pub mod synth;

pub use builder::RoadNetworkBuilder;
pub use error::{NetError, Result};
pub use geojson::write_geojson;
pub use ids::{IntersectionId, SegmentId};
pub use network::{Intersection, RoadNetwork, RoadSegment};
pub use road_graph::RoadGraph;
pub use sanitize::{check_densities, AnomalyKind};
pub use synth::UrbanConfig;
