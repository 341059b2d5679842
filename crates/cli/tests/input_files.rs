//! Malformed input files through the built `roadpart` binary: a network or
//! density file the CLI cannot use is a data error (exit code 3) that names
//! the file, never a panic (exit code 101) or an abort (death by signal).
//! A deterministic LCG picks which line of the density file is broken.

use std::path::PathBuf;
use std::process::{Command, Output};

fn roadpart(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_roadpart"))
        .args(args)
        .output()
        .expect("the roadpart binary runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// A scratch directory private to one test (tests run in parallel).
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("roadpart-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_str().unwrap().to_string()
    }

    fn write(&self, name: &str, lines: &[String]) -> String {
        let path = self.path(name);
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Minimal deterministic RNG (LCG, Numerical Recipes constants).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

#[test]
fn absurd_network_counts_exit_3_on_every_command_that_loads_a_network() {
    let dir = Scratch::new("absurd-counts");
    let header = "# roadpart network v1".to_string();
    let files = [
        dir.write(
            "intersections.net",
            &[
                header.clone(),
                "intersections 100000000000000".into(),
                "0 0".into(),
            ],
        ),
        dir.write(
            "segments.net",
            &[
                header,
                "intersections 2".into(),
                "0 0".into(),
                "1 1".into(),
                "segments 100000000000000".into(),
                "0 1 10 5 0.1".into(),
            ],
        ),
    ];
    for net in &files {
        for args in [
            vec!["partition", "--net", net, "--k", "2"],
            vec!["metrics", "--net", net, "--labels", net],
            vec!["select-k", "--net", net],
        ] {
            let out = roadpart(&args);
            assert_eq!(out.status.code(), Some(3), "{args:?}: {out:?}");
            let stderr = text(&out.stderr);
            assert!(
                stderr.contains(net.as_str()) && stderr.contains("unexpected end of file"),
                "{args:?}: {stderr}"
            );
        }
    }
}

#[test]
fn density_files_are_checked_where_they_are_read() {
    let dir = Scratch::new("density-files");
    let net = dir.path("city.net");
    let good = dir.path("good.txt");
    let generated = roadpart(&[
        "generate",
        "--preset",
        "d1",
        "--scale",
        "0.1",
        "--seed",
        "3",
        "--out",
        &net,
        "--densities",
        &good,
    ]);
    assert!(generated.status.success(), "{generated:?}");
    let values: Vec<String> = std::fs::read_to_string(&good)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    let n = values.len();
    let partition = |densities: &str, strict: bool| {
        let mut args = vec!["partition", "--net", &net, "--k", "4"];
        args.extend(["--densities", densities]);
        if strict {
            args.extend(["--policy", "strict"]);
        }
        roadpart(&args)
    };
    let mut rng = Lcg(0xd15);

    // An unparsable token exits 3, naming the file and line.
    for token in ["abc", "0.1.2", "1,5", "0.1 0.2", "--"] {
        let at = rng.below(n);
        let mut lines = values.clone();
        lines[at] = token.to_string();
        let path = dir.write("token.txt", &lines);
        let out = partition(&path, false);
        assert_eq!(out.status.code(), Some(3), "{token:?}: {out:?}");
        let stderr = text(&out.stderr);
        let named = format!("{path}:{}: bad density '{token}'", at + 1);
        assert!(stderr.contains(&named), "{token:?}: {stderr}");
    }

    // Blank and comment lines are skipped: the file is still clean.
    let mut lines = values.clone();
    for extra in ["", "# comment", "   ", "#"] {
        lines.insert(rng.below(lines.len() + 1), extra.to_string());
    }
    let out = partition(&dir.write("comments.txt", &lines), true);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(!text(&out.stdout).contains("sanitized"), "{out:?}");

    // A wrong count exits 3, naming the file and both counts.
    let short = values[..n - 1 - rng.below(3)].to_vec();
    let mut long = values.clone();
    long.push("0.1".to_string());
    for lines in [short, long] {
        let path = dir.write("count.txt", &lines);
        let out = partition(&path, false);
        assert_eq!(out.status.code(), Some(3), "{out:?}");
        let named = format!("{path}: {} densities for {n} segments", lines.len());
        assert!(text(&out.stderr).contains(&named), "{out:?}");
    }

    // A parseable anomaly is repaired under the default policy and fails
    // fast, naming the segment, under --policy strict.
    for token in ["NaN", "inf", "-inf", "1e400", "-0.25"] {
        let at = rng.below(n);
        let mut lines = values.clone();
        lines[at] = token.to_string();
        let path = dir.write("anomaly.txt", &lines);
        let out = partition(&path, false);
        assert_eq!(out.status.code(), Some(0), "{token:?}: {out:?}");
        let stdout = text(&out.stdout);
        assert!(
            stdout.contains("sanitized: repaired 1 anomalous densities"),
            "{token:?}: {stdout}"
        );
        let out = partition(&path, true);
        assert_eq!(out.status.code(), Some(3), "{token:?} strict: {out:?}");
        let stderr = text(&out.stderr);
        assert!(
            stderr.contains(&format!("density[{at}]")),
            "{token:?}: {stderr}"
        );
    }
}
