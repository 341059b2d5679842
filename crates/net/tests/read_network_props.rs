//! Input-robustness properties of `io::read_network`, the loader behind
//! every CLI command that takes `--net`. A deterministic LCG writes small
//! valid network files and breaks each one in a single way; every broken
//! file must come back as the typed `NetError` that names the defect — no
//! panic, and no allocation sized by a count the file does not back with
//! records (which would abort the process).

use roadpart_net::io::read_network;
use roadpart_net::NetError;

/// Minimal deterministic RNG (LCG, Numerical Recipes constants) so the
/// "random" files are reproducible across runs and platforms.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// A valid network file as lines, with its intersection count `n`; the
/// coordinate lines are `2..2 + n` and the segment records follow
/// `segments <m>` at line `2 + n`.
struct NetFile {
    lines: Vec<String>,
    n: usize,
}

impl NetFile {
    fn random(rng: &mut Lcg) -> Self {
        let n = 2 + rng.below(6);
        let m = 1 + rng.below(8);
        let mut lines = vec![
            "# roadpart network v1".to_string(),
            format!("intersections {n}"),
        ];
        for i in 0..n {
            lines.push(format!("{} {}", i * 100, rng.below(500)));
        }
        lines.push(format!("segments {m}"));
        for _ in 0..m {
            let from = rng.below(n);
            let to = (from + 1 + rng.below(n - 1)) % n;
            let (len, speed) = (10 + rng.below(300), 5 + rng.below(20));
            let density = rng.below(100) as f64 / 1000.0;
            lines.push(format!("{from} {to} {len} {speed} {density}"));
        }
        Self { lines, n }
    }

    fn text(&self) -> String {
        self.lines.join("\n") + "\n"
    }

    /// Index into `lines` of a random segment record, and that segment's id.
    fn segment_line(&self, rng: &mut Lcg) -> (usize, usize) {
        let first = 3 + self.n;
        let seg = rng.below(self.lines.len() - first);
        (first + seg, seg)
    }

    /// Replaces field `field` of line `at`.
    fn set_field(&mut self, at: usize, field: usize, value: &str) {
        let mut fields: Vec<&str> = self.lines[at].split_whitespace().collect();
        fields[field] = value;
        self.lines[at] = fields.join(" ");
    }

    fn read(&self) -> Result<roadpart_net::RoadNetwork, NetError> {
        read_network(self.text().as_bytes())
    }
}

/// Runs 300 random valid files through `mutate`, which breaks the file and
/// returns a check on the error it must produce.
fn for_each_case(seed: u64, mutate: impl Fn(&mut Lcg, &mut NetFile) -> Box<dyn Fn(&NetError)>) {
    let mut rng = Lcg(seed);
    for _ in 0..300 {
        let mut file = NetFile::random(&mut rng);
        file.read().expect("the unbroken file parses");
        let check = mutate(&mut rng, &mut file);
        match file.read() {
            Ok(_) => panic!("broken file parsed:\n{}", file.text()),
            Err(e) => check(&e),
        }
    }
}

fn parse_error(e: &NetError) {
    assert!(matches!(e, NetError::Parse { .. }), "{e}");
}

#[test]
fn truncated_files_and_lines_are_parse_errors() {
    for_each_case(0x7a11, |rng, file| {
        if rng.below(2) == 0 {
            // Drop trailing lines, at least the last record.
            let keep = 2 + rng.below(file.lines.len() - 2);
            file.lines.truncate(keep);
        } else {
            // Cut a record line short (possibly to nothing).
            let at = 2 + rng.below(file.lines.len() - 2);
            let fields: Vec<&str> = file.lines[at].split_whitespace().collect();
            let keep = rng.below(fields.len());
            file.lines[at] = fields[..keep].join(" ");
        }
        Box::new(parse_error)
    });
}

#[test]
fn bad_and_dangling_ids_are_typed_errors() {
    for_each_case(0x1d5, |rng, file| {
        let (at, seg) = file.segment_line(rng);
        let field = rng.below(2);
        if rng.below(2) == 0 {
            let bad = rng.pick(&["x", "1.5", "-1", "4294967296", "0x1", "1e3"]);
            file.set_field(at, field, bad);
            Box::new(parse_error)
        } else {
            let id = file.n + rng.below(1000);
            file.set_field(at, field, &id.to_string());
            Box::new(move |e: &NetError| match e {
                NetError::DanglingIntersection {
                    segment,
                    intersection,
                } => assert_eq!((*segment, *intersection), (seg, id)),
                other => panic!("expected a dangling endpoint, got {other}"),
            })
        }
    });
}

#[test]
fn absurd_counts_end_in_a_parse_error() {
    // The file that used to abort the process preallocating 10^14 records.
    let evil = "# roadpart network v1\nintersections 100000000000000\n0 0\n";
    match read_network(evil.as_bytes()) {
        Err(NetError::Parse { message, .. }) => {
            assert!(message.contains("unexpected end of file"), "{message}")
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
    for_each_case(0xabc, |rng, file| {
        let count = rng.pick(&[
            "100000000000000",
            "18446744073709551615",
            "99999999999999999999999",
            "-3",
        ]);
        let at = if rng.below(2) == 0 { 1 } else { 2 + file.n };
        let word = if at == 1 { "intersections" } else { "segments" };
        file.lines[at] = format!("{word} {count}");
        Box::new(parse_error)
    });
}

#[test]
fn non_finite_or_non_positive_lengths_and_speeds_are_rejected() {
    for_each_case(0x5eed, |rng, file| {
        let (at, _) = file.segment_line(rng);
        let field = 2 + rng.below(2);
        let bad = rng.pick(&["NaN", "inf", "-inf", "1e400", "0", "-0", "-3.5"]);
        file.set_field(at, field, bad);
        if bad.parse::<f64>().unwrap().is_finite() {
            Box::new(|e: &NetError| assert!(matches!(e, NetError::NonPositive { .. }), "{e}"))
        } else {
            Box::new(parse_error)
        }
    });
}

#[test]
fn non_finite_or_negative_densities_are_rejected() {
    for_each_case(0xd3, |rng, file| {
        let (at, _) = file.segment_line(rng);
        let bad = rng.pick(&["NaN", "inf", "-inf", "1e400", "-0.5", "-1e-9"]);
        file.set_field(at, 4, bad);
        if bad.parse::<f64>().unwrap().is_finite() {
            Box::new(|e: &NetError| assert!(matches!(e, NetError::Invalid(_)), "{e}"))
        } else {
            Box::new(parse_error)
        }
    });
}
