//! Plain-text persistence for road networks.
//!
//! The format is a simple line-oriented CSV dialect readable without any
//! external tooling:
//!
//! ```text
//! # roadpart network v1
//! intersections <count>
//! <x> <y>
//! ...
//! segments <count>
//! <from> <to> <length_m> <free_speed_mps> <density>
//! ...
//! ```

use crate::error::{NetError, Result};
use crate::ids::IntersectionId;
use crate::network::{Intersection, RoadNetwork, RoadSegment};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

const HEADER: &str = "# roadpart network v1";

/// Serializes a network to the plain-text format.
///
/// # Errors
/// Propagates write failures.
pub fn write_network<W: Write>(net: &RoadNetwork, w: W) -> Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "{HEADER}")?;
    writeln!(w, "intersections {}", net.intersection_count())?;
    for p in net.intersections() {
        writeln!(w, "{} {}", p.x, p.y)?;
    }
    writeln!(w, "segments {}", net.segment_count())?;
    for s in net.segments() {
        writeln!(
            w,
            "{} {} {} {} {}",
            s.from.0, s.to.0, s.length_m, s.free_speed_mps, s.density
        )?;
    }
    w.flush()?;
    Ok(())
}

/// Parses one finite number: `NaN`, `inf` and literals beyond `f64` range
/// (`1e400`) are malformed in a network file.
fn finite(s: &str) -> Option<f64> {
    s.parse::<f64>().ok().filter(|v| v.is_finite())
}

/// Deserializes a network from the plain-text format.
///
/// The `intersections` and `segments` counts are the file's own claims, so
/// nothing is sized from them: the vectors grow as records arrive, and a
/// count the records do not back ends in [`NetError::Parse`] at end of
/// file instead of an allocation of the claimed size.
///
/// # Errors
/// Returns [`NetError::Parse`] with a line number on malformed input
/// (including non-finite numbers), plus the usual network-validation
/// failures.
pub fn read_network<R: Read>(r: R) -> Result<RoadNetwork> {
    let reader = BufReader::new(r);
    let mut lines = reader.lines().enumerate();

    let parse_err = |line: usize, message: &str| NetError::Parse {
        line: line + 1,
        message: message.to_string(),
    };
    let mut next_line = |expect: &str| -> Result<(usize, String)> {
        for (no, line) in lines.by_ref() {
            let line = line?;
            let trimmed = line.trim().to_string();
            if !trimmed.is_empty() {
                return Ok((no, trimmed));
            }
        }
        Err(NetError::Parse {
            line: 0,
            message: format!("unexpected end of file, expected {expect}"),
        })
    };

    let (no, header) = next_line("header")?;
    if header != HEADER {
        return Err(parse_err(no, "missing 'roadpart network v1' header"));
    }

    let (no, count_line) = next_line("intersections count")?;
    let n_int: usize = count_line
        .strip_prefix("intersections ")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse_err(no, "expected 'intersections <count>'"))?;
    let mut intersections = Vec::new();
    for _ in 0..n_int {
        let (no, line) = next_line("intersection coordinates")?;
        let mut it = line.split_whitespace();
        let x = it
            .next()
            .and_then(finite)
            .ok_or_else(|| parse_err(no, "bad x coordinate"))?;
        let y = it
            .next()
            .and_then(finite)
            .ok_or_else(|| parse_err(no, "bad y coordinate"))?;
        intersections.push(Intersection { x, y });
    }

    let (no, count_line) = next_line("segments count")?;
    let n_seg: usize = count_line
        .strip_prefix("segments ")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse_err(no, "expected 'segments <count>'"))?;
    let mut segments = Vec::new();
    for _ in 0..n_seg {
        let (no, line) = next_line("segment record")?;
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 5 {
            return Err(parse_err(no, "expected 5 fields per segment"));
        }
        let parse_f = |s: &str, what: &str| -> Result<f64> {
            finite(s).ok_or_else(|| parse_err(no, &format!("bad {what}: {s}")))
        };
        let from: u32 = fields[0]
            .parse()
            .map_err(|_| parse_err(no, "bad 'from' id"))?;
        let to: u32 = fields[1]
            .parse()
            .map_err(|_| parse_err(no, "bad 'to' id"))?;
        segments.push(RoadSegment {
            from: IntersectionId(from),
            to: IntersectionId(to),
            length_m: parse_f(fields[2], "length")?,
            free_speed_mps: parse_f(fields[3], "speed")?,
            density: parse_f(fields[4], "density")?,
        });
    }

    RoadNetwork::new(intersections, segments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::UrbanConfig;

    #[test]
    fn roundtrip_preserves_network() {
        let net = UrbanConfig::d1().scaled(0.3).generate(9).unwrap();
        let mut buf = Vec::new();
        write_network(&net, &mut buf).unwrap();
        let back = read_network(buf.as_slice()).unwrap();
        assert_eq!(back.intersection_count(), net.intersection_count());
        assert_eq!(back.segment_count(), net.segment_count());
        assert_eq!(back.densities(), net.densities());
        for (a, b) in back.segments().iter().zip(net.segments()) {
            assert_eq!(a.from, b.from);
            assert_eq!(a.to, b.to);
            assert!((a.length_m - b.length_m).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_missing_header() {
        let text = "intersections 0\nsegments 0\n";
        assert!(matches!(
            read_network(text.as_bytes()),
            Err(NetError::Parse { .. })
        ));
    }

    #[test]
    fn rejects_truncated_file() {
        let text = format!("{HEADER}\nintersections 2\n0 0\n");
        assert!(read_network(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_malformed_segment() {
        let text = format!("{HEADER}\nintersections 2\n0 0\n1 1\nsegments 1\n0 1 10\n");
        assert!(matches!(
            read_network(text.as_bytes()),
            Err(NetError::Parse { line: 6, .. })
        ));
    }

    #[test]
    fn parse_error_display_mentions_line() {
        let text = format!("{HEADER}\nintersections x\n");
        let err = read_network(text.as_bytes()).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("line 2"), "{msg}");
    }
}
