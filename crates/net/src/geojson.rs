//! GeoJSON export for visualization.
//!
//! Writes the road network as a `FeatureCollection` of `LineString`
//! features — one per directed segment — with density, partition label and
//! free-flow speed as properties. The output drops straight into
//! geojson.io, kepler.gl or QGIS for inspecting partitionings on the map.
//!
//! Coordinates are emitted as plain metre offsets (synthetic networks have
//! no datum); real-world users can swap in projected coordinates.

use crate::error::Result;
use crate::ids::SegmentId;
use crate::network::RoadNetwork;
use std::io::{BufWriter, Write};

/// Serializes the network as GeoJSON. `labels` (one per segment, optional)
/// and `densities` (optional, falls back to the stored segment densities)
/// become feature properties for styling.
///
/// # Errors
/// Returns an error for a label vector of the wrong length, the
/// [`crate::check_densities`] error for `densities` (a NaN would not even
/// be valid JSON), or the write failure.
pub fn write_geojson<W: Write>(
    net: &RoadNetwork,
    labels: Option<&[usize]>,
    densities: Option<&[f64]>,
    w: W,
) -> Result<()> {
    let n = net.segment_count();
    if let Some(l) = labels {
        if l.len() != n {
            return Err(crate::error::NetError::Invalid(format!(
                "label vector length {} != segment count {n}",
                l.len()
            )));
        }
    }
    if let Some(d) = densities {
        crate::sanitize::check_densities(d, n)?;
    }
    let mut w = BufWriter::new(w);
    writeln!(w, "{{")?;
    writeln!(w, "  \"type\": \"FeatureCollection\",")?;
    writeln!(w, "  \"features\": [")?;
    for i in 0..n {
        let seg = net.segment(SegmentId::from_index(i));
        let a = net.intersection(seg.from);
        let b = net.intersection(seg.to);
        let density = densities.map_or(seg.density, |d| d[i]);
        write!(
            w,
            "    {{\"type\": \"Feature\", \"geometry\": {{\"type\": \"LineString\", \
             \"coordinates\": [[{:.2}, {:.2}], [{:.2}, {:.2}]]}}, \"properties\": \
             {{\"segment\": {i}, \"density\": {density:.6}, \"speed_mps\": {:.1}",
            a.x, a.y, b.x, b.y, seg.free_speed_mps
        )?;
        if let Some(l) = labels {
            write!(w, ", \"partition\": {}", l[i])?;
        }
        writeln!(w, "}}}}{}", if i + 1 < n { "," } else { "" })?;
    }
    writeln!(w, "  ]")?;
    writeln!(w, "}}")?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RoadNetworkBuilder;

    fn tiny() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let p0 = b.intersection(0.0, 0.0);
        let p1 = b.intersection(100.0, 50.0);
        b.two_way_road(p0, p1);
        b.build().unwrap()
    }

    #[test]
    fn emits_valid_structure() {
        let net = tiny();
        let mut buf = Vec::new();
        write_geojson(&net, Some(&[0, 1]), None, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"FeatureCollection\""));
        assert_eq!(text.matches("\"LineString\"").count(), 2);
        assert!(text.contains("\"partition\": 0"));
        assert!(text.contains("\"partition\": 1"));
        assert!(text.contains("[0.00, 0.00], [100.00, 50.00]"));
        // Balanced braces (cheap well-formedness check).
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        // No trailing comma before the closing bracket.
        assert!(!text.contains("},\n  ]"));
    }

    #[test]
    fn density_override_applies() {
        let net = tiny();
        let mut buf = Vec::new();
        write_geojson(&net, None, Some(&[0.5, 0.25]), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"density\": 0.500000"));
        assert!(text.contains("\"density\": 0.250000"));
        assert!(!text.contains("\"partition\""));
    }

    #[test]
    fn length_validation() {
        let net = tiny();
        let mut buf = Vec::new();
        assert!(write_geojson(&net, Some(&[0]), None, &mut buf).is_err());
        assert!(write_geojson(&net, None, Some(&[0.0]), &mut buf).is_err());
        assert!(write_geojson(&net, None, Some(&[0.5, f64::NAN]), &mut buf).is_err());
    }
}
