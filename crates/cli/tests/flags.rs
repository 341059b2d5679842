//! Flag validation through the built `roadpart` binary: a flag a command
//! does not accept is a usage error (exit code 2), never silently ignored.

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
fn stream_rejects_an_unknown_warm_flag() {
    let out = roadpart(&["stream", "--preset", "d1", "--warm", "off"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --warm"), "{stderr}");
}
