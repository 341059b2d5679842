//! Property-based tests for the traffic substrate.

use proptest::prelude::*;
use roadpart_net::{IntersectionId, RoadNetworkBuilder};
use roadpart_traffic::{simulate, MicrosimConfig, Router, TemporalProfile, Trip};

/// Random small strongly-connected-ish network: a two-way line backbone
/// plus random one-way chords.
fn arb_network() -> impl Strategy<Value = roadpart_net::RoadNetwork> {
    (3usize..15).prop_flat_map(|n| {
        let chords = proptest::collection::vec((0..n, 0..n), 0..n);
        (Just(n), chords).prop_map(|(n, chords)| {
            let mut b = RoadNetworkBuilder::new();
            let pts: Vec<_> = (0..n)
                .map(|i| b.intersection(i as f64 * 100.0, (i % 3) as f64 * 80.0))
                .collect();
            for w in pts.windows(2) {
                b.two_way_road(w[0], w[1]);
            }
            for &(a, c) in &chords {
                if a != c {
                    b.one_way_road(pts[a], pts[c]);
                }
            }
            b.build().unwrap()
        })
    })
}

/// Floyd–Warshall distances over segment free-flow times.
fn floyd_warshall(net: &roadpart_net::RoadNetwork) -> Vec<Vec<f64>> {
    let n = net.intersection_count();
    let mut d = vec![vec![f64::INFINITY; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0.0;
    }
    for seg in net.segments() {
        let w = seg.length_m / seg.free_speed_mps;
        let (a, b) = (seg.from.index(), seg.to.index());
        if w < d[a][b] {
            d[a][b] = w;
        }
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let via = d[i][k] + d[k][j];
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dijkstra route costs equal Floyd–Warshall shortest distances, and
    /// every returned route is a contiguous walk from origin to destination.
    #[test]
    fn router_is_optimal(net in arb_network()) {
        let fw = floyd_warshall(&net);
        let mut router = Router::new(&net);
        let n = net.intersection_count();
        // Index loops intentional: `from`/`to` name both graph vertices and
        // the FW matrix cells being cross-checked.
        #[allow(clippy::needless_range_loop)]
        for from in 0..n.min(6) {
            #[allow(clippy::needless_range_loop)]
            for to in 0..n.min(6) {
                let result = router.route(
                    IntersectionId::from_index(from),
                    IntersectionId::from_index(to),
                    |s| {
                        let seg = net.segment(s);
                        seg.length_m / seg.free_speed_mps
                    },
                );
                match result {
                    Ok(route) => {
                        // Contiguity + endpoints.
                        let mut at = from;
                        let mut cost = 0.0;
                        for &s in &route {
                            let seg = net.segment(s);
                            prop_assert_eq!(seg.from.index(), at);
                            at = seg.to.index();
                            cost += seg.length_m / seg.free_speed_mps;
                        }
                        prop_assert_eq!(at, to);
                        prop_assert!(
                            (cost - fw[from][to]).abs() < 1e-9,
                            "route cost {cost} != FW {}", fw[from][to]
                        );
                    }
                    Err(_) => {
                        prop_assert!(
                            fw[from][to].is_infinite(),
                            "router failed but FW found {from}->{to} at {}",
                            fw[from][to]
                        );
                    }
                }
            }
        }
    }

    /// Simulation invariants: snapshot dimensions, non-negative densities,
    /// completion accounting, determinism.
    #[test]
    fn simulation_invariants(net in arb_network(), n_trips in 1usize..40) {
        let n_int = net.intersection_count();
        let trips: Vec<Trip> = (0..n_trips)
            .map(|i| Trip {
                origin: IntersectionId::from_index(i % n_int),
                dest: IntersectionId::from_index((i * 7 + 1) % n_int),
                depart_step: i % 5,
            })
            .filter(|t| t.origin != t.dest)
            .collect();
        let cfg = MicrosimConfig {
            step_seconds: 15.0,
            steps: 12,
            legs: 2,
            ..MicrosimConfig::default()
        };
        let (h1, s1) = simulate(&net, &trips, &cfg).unwrap();
        prop_assert_eq!(h1.len(), 12);
        for t in 0..h1.len() {
            prop_assert_eq!(h1.at(t).len(), net.segment_count());
            prop_assert!(h1.at(t).iter().all(|&d| d >= 0.0 && d.is_finite()));
        }
        prop_assert!(s1.departed + s1.unroutable <= trips.len() + s1.completed);
        // Deterministic re-run.
        let (h2, s2) = simulate(&net, &trips, &cfg).unwrap();
        prop_assert_eq!(s1.departed, s2.departed);
        for t in 0..h1.len() {
            prop_assert_eq!(h1.at(t), h2.at(t));
        }
    }

    /// Temporal profiles stay in (0, 1] across their whole domain.
    #[test]
    fn profiles_bounded(t in -1.0f64..2.0, centre in 0.0f64..1.0, width in 0.01f64..0.5, base in 0.0f64..1.0) {
        for p in [
            TemporalProfile::Flat,
            TemporalProfile::SinglePeak { centre, width, base },
            TemporalProfile::DoublePeak { base },
        ] {
            let f = p.factor(t);
            prop_assert!(f > 0.0 && f <= 1.0 + 1e-12, "{p:?} at {t}: {f}");
        }
    }
}
