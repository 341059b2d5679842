//! Property tests for the stream engine's density gate.

use proptest::prelude::*;
use roadpart_stream::{AggregateKind, DensityAggregator};

fn bits(v: Option<Vec<f64>>) -> Option<Vec<u64>> {
    v.map(|v| v.iter().map(|d| d.to_bits()).collect())
}

proptest! {
    /// Random mixes of clean and anomalous snapshots, for every aggregate
    /// kind: `push` accepts exactly the clean snapshots, the aggregate is
    /// bit-identical to that of an aggregator fed only the clean ones, and
    /// every aggregate value is finite and non-negative.
    #[test]
    fn aggregator_accepts_exactly_the_clean_snapshots(
        snaps in proptest::collection::vec(
            proptest::collection::vec(
                prop_oneof![
                    4 => 0.0f64..2.0,
                    1 => Just(f64::NAN),
                    1 => Just(f64::INFINITY),
                    1 => Just(f64::NEG_INFINITY),
                    1 => -2.0f64..0.0,
                ],
                3,
            ),
            0..12,
        ),
        window in 1usize..8,
        alpha in 0.05f64..1.0,
    ) {
        for kind in [
            AggregateKind::Latest,
            AggregateKind::WindowMean(window),
            AggregateKind::Ewma(alpha),
        ] {
            let mut gated = DensityAggregator::new(3, kind).unwrap();
            let mut clean_only = DensityAggregator::new(3, kind).unwrap();
            for s in &snaps {
                let clean = s.iter().all(|&d: &f64| d.is_finite() && d >= 0.0);
                prop_assert_eq!(gated.push(s).is_ok(), clean, "{:?} on {:?}", kind, s);
                if clean {
                    clean_only.push(s).unwrap();
                }
            }
            let current = gated.current();
            prop_assert_eq!(bits(current.clone()), bits(clean_only.current()), "{:?}", kind);
            if let Some(v) = current {
                prop_assert!(v.iter().all(|d| d.is_finite() && *d >= 0.0), "{:?}: {:?}", kind, v);
            }
        }
    }
}
