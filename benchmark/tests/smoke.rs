//! Runs `sibench --smoke` (every workload, untraced and traced, about ten ops
//! each) and holds its printout against `BENCHMARK.json`.

use serde_json::Value;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    serde_json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a metric list of BENCHMARK.json.
fn declared(doc: &Value, list: &str) -> Vec<(String, String)> {
    let Some(Value::Array(items)) = doc.get(list) else { panic!("no `{list}` list") };
    items
        .iter()
        .map(|item| match (item.get("name"), item.get("unit")) {
            (Some(Value::String(name)), Some(Value::String(unit))) => (name.clone(), unit.clone()),
            _ => panic!("a `{list}` entry lacks a name or a unit"),
        })
        .collect()
}

#[test]
fn smoke_run_prints_every_declared_metric_and_passes_every_check() {
    let output = Command::new(env!("CARGO_BIN_EXE_sibench"))
        .arg("--smoke")
        .output()
        .expect("sibench starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "sibench --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("all checks passed"), "{stdout}");
    for block in
        ["machine: nproc=", "kernel_path=", "load_average=", "seed=", "bench.rounds_discarded"]
    {
        assert!(stdout.contains(block), "the printout lacks `{block}`:\n{stdout}");
    }

    let doc = benchmark_json();
    let Some(Value::Array(workloads)) = doc.get("workloads") else { panic!("no workloads") };
    let workloads: Vec<&str> = workloads
        .iter()
        .map(|w| match w.get("name") {
            Some(Value::String(name)) => name.as_str(),
            _ => panic!("a workload lacks a name"),
        })
        .collect();
    assert_eq!(workloads, ["train_base", "train_smart", "sim_scale", "lab_cycle"]);

    // `--smoke` itself checks the printed names against the tables compiled
    // into the binary; here the same names are held against BENCHMARK.json.
    // Every metric line of a run reads `  <name> <value> <unit> ...`.
    for list in ["end_to_end", "per_layer"] {
        for (name, unit) in declared(&doc, list) {
            let printed = stdout
                .lines()
                .filter(|line| {
                    let mut words = line.split_whitespace();
                    words.next() == Some(name.as_str())
                        && words.next().is_some_and(|v| v.parse::<f64>().is_ok_and(f64::is_finite))
                        && words.next() == Some(unit.as_str())
                })
                .count();
            assert_eq!(
                printed,
                workloads.len(),
                "`{name}` [{unit}] should be printed once per workload"
            );
        }
    }
}

#[test]
fn a_run_without_its_workload_is_refused() {
    let output = Command::new(env!("CARGO_BIN_EXE_sibench"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("sibench starts");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}

/// The per-layer values of one short traced run, by metric name.
fn traced_smoke_run(workload: &str, seed: u64) -> Vec<(String, f64)> {
    let output = Command::new(env!("CARGO_BIN_EXE_sibench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--trace", "1", "--smoke"])
        .output()
        .expect("sibench starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{workload} seed {seed} failed:\n{stdout}");
    let doc = serde_json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    assert!(
        matches!(doc.get("correct"), Some(Value::Bool(true))),
        "{workload} seed {seed}: {stdout}"
    );
    let Some(Value::Object(metrics)) = doc.get("metrics") else { panic!("no metrics") };
    metrics
        .iter()
        .map(|(name, m)| match m.get("value") {
            Some(Value::Number(v)) => (name.clone(), v.as_f64()),
            _ => panic!("`{name}` has no value"),
        })
        .collect()
}

fn values(run: &[(String, f64)], names: &[&str]) -> Vec<f64> {
    names
        .iter()
        .map(|name| run.iter().find(|(n, _)| n == name).unwrap_or_else(|| panic!("no `{name}`")).1)
        .collect()
}

#[test]
fn the_seed_fixes_the_counts_and_never_a_size() {
    // Counts of work done: the same for every seed.
    const SIZES: [&str; 10] = [
        "ztrain.link_bytes_per_param",
        "ztrain.storage_bytes_per_param",
        "ssd.bytes_read",
        "ssd.bytes_written",
        "ssd.io_ops",
        "gradcomp.kept_elems",
        "csd.p2p_bytes",
        "ztrain.dag_tasks",
        "simkit.sim_tasks",
        "smart_infinity.service_executions",
    ];
    // Sums in the seeded order: the same for one seed.
    const ORDERED: [&str; 2] = ["simkit.simulated_s_sum", "smart_infinity.service_cache_hit_rate"];
    for workload in ["train_base", "train_smart", "sim_scale", "lab_cycle"] {
        let (first, again, other) = (
            traced_smoke_run(workload, 1),
            traced_smoke_run(workload, 1),
            traced_smoke_run(workload, 2),
        );
        assert_eq!(values(&first, &SIZES), values(&again, &SIZES), "{workload}: same seed");
        assert_eq!(values(&first, &ORDERED), values(&again, &ORDERED), "{workload}: same seed");
        assert_eq!(values(&first, &SIZES), values(&other, &SIZES), "{workload}: another seed");
    }
}
