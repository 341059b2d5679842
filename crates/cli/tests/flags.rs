//! Flag validation through the built `roadpart` binary: a flag a command
//! does not accept, or a value outside its range, is a usage error (exit
//! code 2), never silently ignored or clamped.

use std::process::Command;

fn roadpart(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_roadpart"))
        .args(args)
        .output()
        .expect("the roadpart binary runs")
}

#[test]
fn partition_rejects_an_unknown_flag() {
    let dir = std::env::temp_dir().join(format!("roadpart-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let net = dir.join("city.net");
    let net = net.to_str().unwrap();
    let generated = roadpart(&[
        "generate", "--preset", "d1", "--scale", "0.1", "--seed", "3", "--out", net,
    ]);
    assert!(generated.status.success(), "{generated:?}");

    let out = roadpart(&["partition", "--net", net, "--k", "4", "--shards", "4"]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --shards"), "{stderr}");
}

#[test]
fn out_of_range_values_are_usage_errors_not_clamped() {
    let dir = std::env::temp_dir().join(format!("roadpart-ranges-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (net, other) = (dir.join("city.net"), dir.join("other.net"));
    let (net, other) = (net.to_str().unwrap(), other.to_str().unwrap());
    let generated = roadpart(&[
        "generate", "--preset", "d1", "--scale", "0.1", "--seed", "3", "--out", net,
    ]);
    assert!(generated.status.success(), "{generated:?}");
    let scale = "scale must lie in (0, 1]";
    let cases = [
        ("generate --preset d1 --scale 7 --out OTHER", scale),
        ("generate --preset d1 --scale 0 --out OTHER", scale),
        ("generate --preset d1 --scale NaN --out OTHER", scale),
        ("generate --preset m1 --scale -3 --out OTHER", scale),
        ("stream --preset d1 --scale 1.5", scale),
        ("serve --preset d1 --scale 0", scale),
        ("partition --net NET --k 4 --attempts 0", "--attempts"),
        ("select-k --net NET --kmax 1", "--kmax"),
    ];
    let outs: Vec<_> = cases
        .iter()
        .map(|(line, _)| {
            let args: Vec<&str> = line
                .split(' ')
                .map(|a| match a {
                    "NET" => net,
                    "OTHER" => other,
                    a => a,
                })
                .collect();
            roadpart(&args)
        })
        .collect();
    let written = std::path::Path::new(other).exists();
    std::fs::remove_dir_all(&dir).ok();
    for ((line, named), out) in cases.iter().zip(outs) {
        assert_eq!(out.status.code(), Some(2), "{line}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(named), "{line}: {stderr}");
    }
    assert!(!written, "a refused scale writes no network");
}

#[test]
fn stream_rejects_an_unknown_warm_flag() {
    let out = roadpart(&["stream", "--preset", "d1", "--warm", "off"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --warm"), "{stderr}");
}
