//! The `figures` argument contract: an argument error exits with status 2
//! and prints the usage table to stderr.

use std::process::Command;

#[test]
fn a_bad_tolerance_exits_2_with_the_usage_table() {
    // Not a number, NaN, negative, infinite, and 1 or more (a floor at or
    // below zero passes any measurement).
    for bad in ["nope", "nan", "-0.1", "inf", "1.5"] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(["--tolerance", bad, "perf"])
            .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
            .output()
            .expect("spawn figures");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad}: {stderr}");
        assert!(stderr.contains("--tolerance requires a fractional argument"), "{bad}: {stderr}");
        assert!(stderr.contains("usage: figures"), "{bad}: {stderr}");
        assert!(stderr.contains("--tolerance F         perf gate tolerance"), "{bad}: {stderr}");
        assert!(out.stdout.is_empty(), "{bad}: nothing runs before the argument error");
    }
}

#[test]
fn an_unknown_id_exits_2_with_the_usage_table() {
    // Tests and fig11's claim rows hold Table III, Fig. 14 and Fig. 15, and
    // the finetune_glue_like example Table IV, so their ids are unknown like
    // any typo.
    for bad in ["tab3", "tab4", "fig14", "fig15", "tba1"] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(["tab1", bad])
            .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
            .output()
            .expect("spawn figures");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad}: {stderr}");
        assert!(stderr.contains(&format!("unknown experiment id `{bad}`")), "{bad}: {stderr}");
        assert!(stderr.contains("\n  tab1 pipeline perf\n"), "{bad}: {stderr}");
        assert!(out.stdout.is_empty(), "{bad}: nothing runs before the argument error");
    }
}
