//! # roadpart-traffic
//!
//! Traffic substrate for the `roadpart` partitioning stack: everything
//! needed to *produce* the per-segment traffic densities the partitioner
//! consumes, built from scratch as a stand-in for the paper's two data
//! sources (a 4-hour D1 microsimulation, and MNTG-generated random traffic
//! for M1–M3 — see DESIGN.md "Substitutions").
//!
//! * [`routing::Router`] — binary-heap Dijkstra over the directed network;
//! * [`trip`] — OD demand generation (uniform or hotspot-biased);
//! * [`microsim`] — timestep vehicle simulation with a Greenshields
//!   speed-density law, recording densities each step;
//! * [`mntg`] — the MNTG-style "populate N vehicles, record T timestamps"
//!   pipeline;
//! * [`field`] — analytic hotspot congestion fields for fast deterministic
//!   workloads;
//! * [`profile`] — temporal demand profiles (flat / single peak / commute);
//! * [`scenario`] — composable disruption timelines (capacity drops,
//!   blockades, surges, moving hotspots) replayable over fields and
//!   recorded histories for robustness testing.

pub mod density;
pub mod error;
pub mod field;
pub mod microsim;
pub mod mntg;
pub mod profile;
pub mod routing;
pub mod scenario;
pub mod trip;

pub use density::DensityHistory;
pub use error::{Result, TrafficError};
pub use field::{CongestionField, Hotspot};
pub use microsim::{simulate, MicrosimConfig, MicrosimStats};
pub use mntg::{generate_traffic, MntgConfig};
pub use profile::TemporalProfile;
pub use routing::Router;
pub use scenario::{Disruption, DisruptionEvent, Scenario};
pub use trip::{generate_trips, OdBias, Trip};
