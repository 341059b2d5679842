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
    let labels = dir.write("labels.txt", &vec!["0".to_string(); n]);
    // `command` with the network and `densities` appended.
    let run = |command: &[&str], densities: &str| {
        let mut args = command.to_vec();
        args.extend(["--net", &net, "--densities", densities]);
        roadpart(&args)
    };
    let partition = |densities: &str| run(&["partition", "--k", "4"], densities);
    // Every command that reads a density file, each handed `densities`.
    let every_reader = |densities: &str| -> Vec<(&'static str, Output)> {
        vec![
            ("partition", partition(densities)),
            (
                "jg",
                run(&["partition", "--k", "4", "--scheme", "jg"], densities),
            ),
            ("metrics", run(&["metrics", "--labels", &labels], densities)),
            ("select-k", run(&["select-k", "--kmax", "4"], densities)),
        ]
    };
    let mut rng = Lcg(0xd15);

    // An unparsable token exits 3, naming the file and line.
    for token in ["abc", "0.1.2", "1,5", "0.1 0.2", "--"] {
        let at = rng.below(n);
        let mut lines = values.clone();
        lines[at] = token.to_string();
        let path = dir.write("token.txt", &lines);
        let out = partition(&path);
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
    let out = partition(&dir.write("comments.txt", &lines));
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // A wrong count exits 3 on every reader, naming the file and both
    // counts.
    let short = values[..n - 1 - rng.below(3)].to_vec();
    let mut long = values.clone();
    long.push("0.1".to_string());
    for lines in [short, long] {
        let path = dir.write("count.txt", &lines);
        let named = format!("{path}: {} densities for {n} segments", lines.len());
        for (command, out) in every_reader(&path) {
            assert_eq!(out.status.code(), Some(3), "{command}: {out:?}");
            assert!(text(&out.stderr).contains(&named), "{command}: {out:?}");
        }
    }

    // A parseable anomaly exits 3 on every reader, naming the file, the
    // segment and what is wrong with it; nothing is repaired.
    for (token, kind) in [
        ("NaN", "NaN"),
        ("inf", "+inf"),
        ("-inf", "-inf"),
        ("1e400", "+inf"),
        ("-0.25", "negative"),
    ] {
        let at = rng.below(n);
        let mut lines = values.clone();
        lines[at] = token.to_string();
        let path = dir.write("anomaly.txt", &lines);
        let named = format!("{path}: density[{at}] is {kind}");
        for (command, out) in every_reader(&path) {
            assert_eq!(out.status.code(), Some(3), "{token:?} {command}: {out:?}");
            let stderr = text(&out.stderr);
            assert!(stderr.contains(&named), "{token:?} {command}: {stderr}");
        }
    }
}
