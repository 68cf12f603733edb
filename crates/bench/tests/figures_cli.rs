//! The `figures` argument contract: an argument error exits with status 2
//! and prints the usage table to stderr.

use std::process::Command;

#[test]
fn a_bad_tolerance_exits_2_with_the_usage_table() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--tolerance", "nope", "perf"])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("spawn figures");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--tolerance requires a fractional argument"), "{stderr}");
    assert!(stderr.contains("usage: figures"), "{stderr}");
    assert!(stderr.contains("--tolerance F         perf gate tolerance"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing runs before the argument error");
}
