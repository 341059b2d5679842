//! The density gate: the one statement of what a density vector must be.
//!
//! Every segment carries one traffic density (Definition 1), and supergraph
//! mining and the α-Cut affinities assume it is finite and non-negative.
//! [`check_densities`] is run wherever a density vector enters the stack —
//! network and road-graph construction, feature updates, the online feed,
//! the supervisor and the CLI's density files — and refuses a bad vector
//! with a typed [`NetError`]. Nothing is repaired.

use crate::error::{NetError, Result};

/// What is wrong with a density value that fails the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// Not-a-number.
    NaN,
    /// Positive infinity.
    PositiveInfinity,
    /// Negative infinity.
    NegativeInfinity,
    /// Finite but negative (densities are occupancies, so `>= 0`).
    Negative,
}

impl AnomalyKind {
    /// Classifies a density value; `None` means the value is acceptable.
    pub fn of(value: f64) -> Option<AnomalyKind> {
        if value.is_nan() {
            Some(AnomalyKind::NaN)
        } else if value == f64::INFINITY {
            Some(AnomalyKind::PositiveInfinity)
        } else if value == f64::NEG_INFINITY {
            Some(AnomalyKind::NegativeInfinity)
        } else if value < 0.0 {
            Some(AnomalyKind::Negative)
        } else {
            None
        }
    }

    /// Human-readable label.
    pub fn describe(self) -> &'static str {
        match self {
            AnomalyKind::NaN => "NaN",
            AnomalyKind::PositiveInfinity => "+inf",
            AnomalyKind::NegativeInfinity => "-inf",
            AnomalyKind::Negative => "negative",
        }
    }
}

/// The density gate: `densities` must hold one value per segment of an
/// `n_segments`-segment network, each finite and non-negative — the
/// precondition of supergraph mining and the α-Cut affinities. Every place
/// a density vector enters the stack runs it, and nothing is repaired.
///
/// # Errors
/// Returns [`NetError::DensityCount`] for a length mismatch
/// (`2 densities for 3 segments`), else [`NetError::Density`] naming the
/// first bad segment and its [`AnomalyKind`] (`density[17] is negative`).
pub fn check_densities(densities: &[f64], n_segments: usize) -> Result<()> {
    if densities.len() != n_segments {
        return Err(NetError::DensityCount {
            found: densities.len(),
            segments: n_segments,
        });
    }
    densities
        .iter()
        .enumerate()
        .try_for_each(|(index, &value)| check_density(index, value))
}

/// The per-value half of [`check_densities`], for callers that meet the
/// densities one segment at a time.
pub(crate) fn check_density(index: usize, value: f64) -> Result<()> {
    match AnomalyKind::of(value) {
        None => Ok(()),
        Some(kind) => Err(NetError::Density { index, kind }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_rejects_each_anomaly_kind() {
        assert!(check_densities(&[0.0, 0.5, 1e300], 3).is_ok());
        for (bad, kind) in [
            (f64::NAN, AnomalyKind::NaN),
            (f64::INFINITY, AnomalyKind::PositiveInfinity),
            (f64::NEG_INFINITY, AnomalyKind::NegativeInfinity),
            (-0.5, AnomalyKind::Negative),
        ] {
            // The first anomaly is named, not the later -1.0.
            let err = check_densities(&[0.1, bad, -1.0], 3).unwrap_err();
            assert!(matches!(err, NetError::Density { index: 1, kind: k } if k == kind));
            assert_eq!(
                err.to_string(),
                format!("density[1] is {}", kind.describe())
            );
        }
    }

    #[test]
    fn length_mismatches() {
        // Short, long and empty vectors are all refused: no value is made
        // up for a missing segment and none is dropped.
        for found in [0, 2, 4] {
            let err = check_densities(&vec![0.1; found], 3).unwrap_err();
            assert!(matches!(
                err,
                NetError::DensityCount { found: f, segments: 3 } if f == found
            ));
            assert_eq!(err.to_string(), format!("{found} densities for 3 segments"));
        }
    }
}
