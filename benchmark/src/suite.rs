//! Suite runs: every workload, each run in a child process of its own so
//! that `peak_rss_mb` belongs to one workload. `--aa` runs the suite twice
//! and holds the two medians against the bounds of `BENCHMARK.json`.

use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{median, quartile_spread};
use crate::workloads::Kind;
use crate::{machine, run};
use serde_json::Value;
use std::process::{Command, Stdio};

/// The result line of one child run.
#[derive(Debug)]
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in printed order.
    metrics: Vec<(String, f64, String)>,
    text: String,
}

impl ChildRun {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }
}

/// Parses the result line of a run; `text` is what the run printed before it.
fn parse_result(line: &str, text: String) -> Result<ChildRun, String> {
    let doc = serde_json::parse(line).map_err(|e| format!("result line is not JSON: {e}"))?;
    let field = |key: &str| doc.get(key).ok_or(format!("result line lacks `{key}`"));
    let count = |key: &str| match field(key)? {
        Value::Number(n) => n.as_u64().ok_or(format!("`{key}` is not a whole number")),
        _ => Err(format!("`{key}` is not a number")),
    };
    let correct = matches!(field("correct")?, Value::Bool(true));
    let Value::Object(pairs) = field("metrics")? else {
        return Err("`metrics` is not an object".to_string());
    };
    let metrics = pairs
        .iter()
        .map(|(name, m)| match (m.get("value"), m.get("unit")) {
            (Some(Value::Number(v)), Some(Value::String(unit))) => {
                Ok((name.clone(), v.as_f64(), unit.clone()))
            }
            _ => Err(format!("metric `{name}` lacks a value or a unit")),
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ChildRun {
        correct,
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
        text,
    })
}

fn child(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command.args(["--workload", kind.name(), "--seed", &seed.to_string()]).args([
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if smoke {
        command.arg("--smoke");
    }
    command.stdout(Stdio::piped()).stderr(Stdio::piped());
    let child = command.spawn().map_err(|e| format!("cannot start a run: {e}"))?;
    let work_dir = machine::output_dir()?.join("work").join(run::work_dir_name(kind, child.id()));
    // `wait_with_output` waits for the child to end.
    let output = child.wait_with_output().map_err(|e| format!("cannot wait for a run: {e}"))?;
    if work_dir.exists() {
        return Err(format!("the run left {} behind", work_dir.display()));
    }
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        return Err(format!(
            "run of {} failed ({}): {}",
            kind.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let (text, line) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", stdout.trim_end()));
    parse_result(line, format!("{text}\n"))
}

/// Checks a run's metrics against a table: every name once, with its unit
/// and a finite value, and no name besides.
fn check_metrics(run: &ChildRun, table: &[MetricDef], what: &str) -> Vec<String> {
    let mut problems = Vec::new();
    for def in table {
        let found: Vec<_> = run.metrics.iter().filter(|(n, _, _)| n == def.name).collect();
        match found.as_slice() {
            [(_, value, unit)] => {
                if unit != def.unit {
                    problems
                        .push(format!("{what}: {} has unit {unit}, not {}", def.name, def.unit));
                }
                if !value.is_finite() {
                    problems.push(format!("{what}: {} is {value}", def.name));
                }
            }
            other => problems.push(format!("{what}: {} printed {} times", def.name, other.len())),
        }
    }
    if run.metrics.len() != table.len() {
        problems.push(format!(
            "{what}: {} metrics printed, {} expected",
            run.metrics.len(),
            table.len()
        ));
    }
    if !run.correct || run.failed != 0 {
        problems.push(format!("{what}: {} of {} ops failed", run.failed, run.attempted));
    }
    problems
}

/// Every workload once untraced and once traced; prints every metric by name
/// with its unit. With `smoke`, ten ops per run and the printout is checked.
pub fn all(seed: u64, seconds: f64, smoke: bool) -> Result<bool, String> {
    println!("{}", machine::block(seed, seconds));
    if smoke {
        println!("smoke:   every run is cut to one round of 2+10 ops");
    }
    let mut problems = Vec::new();
    for kind in Kind::ALL {
        for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let run = child(kind, seed, seconds, trace, smoke)?;
            print!("{}", run.text);
            problems.extend(check_metrics(
                &run,
                table,
                &format!("{} trace={}", kind.name(), u8::from(trace)),
            ));
        }
    }
    for problem in &problems {
        println!("FAILED {problem}");
    }
    println!("{}", if problems.is_empty() { "all checks passed" } else { "some checks failed" });
    Ok(problems.is_empty())
}

/// The regression bound of every end-to-end metric, from `BENCHMARK.json` in
/// the current directory.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let doc = serde_json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Value::Array(items)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".to_string());
    };
    items
        .iter()
        .map(|item| match (item.get("name"), item.get("bound")) {
            (Some(Value::String(name)), Some(Value::Number(bound))) => {
                Ok((name.clone(), bound.as_f64()))
            }
            _ => Err("an end_to_end entry lacks a name or a bound".to_string()),
        })
        .collect()
}

/// Untraced runs per workload in one pass of `--aa`: as many as the
/// benchmark's driver takes the median of.
const AA_RUNS: usize = 10;

/// One pass of the suite: [`AA_RUNS`] untraced runs per workload on the same
/// seed, interleaved round-robin so that drift of the machine hits all
/// workloads alike, then one traced run per workload.
fn pass(seed: u64, seconds: f64) -> Result<Vec<(Kind, Vec<ChildRun>, ChildRun)>, String> {
    let mut untraced: Vec<Vec<ChildRun>> = Kind::ALL.iter().map(|_| Vec::new()).collect();
    for run in 0..AA_RUNS {
        for (i, kind) in Kind::ALL.into_iter().enumerate() {
            let result = child(kind, seed, seconds, false, false)?;
            let rounds: Vec<&str> =
                result.text.lines().filter(|l| l.starts_with("  round ")).collect();
            eprintln!("{} run {run}:\n{}", kind.name(), rounds.join("\n"));
            untraced[i].push(result);
        }
    }
    Kind::ALL
        .into_iter()
        .zip(untraced)
        .map(|(kind, runs)| Ok((kind, runs, child(kind, seed, seconds, true, false)?)))
        .collect()
}

/// Runs the whole suite twice and prints, per workload and end-to-end metric,
/// the two medians, their spreads and how much worse the second is, beside
/// the bound. Passes when no difference exceeds its bound, every op passed
/// and every exact count repeated.
pub fn aa(seed: u64, seconds: f64) -> Result<bool, String> {
    let bounds = bounds()?;
    println!("{}", machine::block(seed, seconds));
    println!("A/A: 2 passes x {AA_RUNS} runs x {seconds} s per workload");
    let (a, b) = (pass(seed, seconds)?, pass(seed, seconds)?);
    let mut ok = true;
    println!(
        "{:<12} {:<12} {:>14} {:>8} {:>14} {:>8} {:>9} {:>7}",
        "workload", "metric", "median A", "spread", "median B", "spread", "B worse", "bound"
    );
    for ((kind, runs_a, traced_a), (_, runs_b, traced_b)) in a.iter().zip(&b) {
        for def in &END_TO_END {
            let values = |runs: &[ChildRun]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.value(def.name)).collect()
            };
            let (va, vb) = (values(runs_a), values(runs_b));
            let (ma, mb) = (median(&va), median(&vb));
            let worse = match def.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let bound = bounds
                .iter()
                .find(|(name, _)| name == def.name)
                .map(|(_, b)| *b)
                .ok_or(format!("BENCHMARK.json has no bound for {}", def.name))?;
            let verdict = if worse.abs() > bound { "  EXCEEDS" } else { "" };
            ok &= worse.abs() <= bound;
            println!(
                "{:<12} {:<12} {ma:>14.4} {:>7.1}% {mb:>14.4} {:>7.1}% {:>+8.1}% {:>6.0}%{verdict}",
                kind.name(),
                def.name,
                100.0 * quartile_spread(&va),
                100.0 * quartile_spread(&vb),
                100.0 * worse,
                100.0 * bound
            );
        }
        for run in runs_a.iter().chain(runs_b).chain([traced_a, traced_b]) {
            if !run.correct || run.failed != 0 {
                ok = false;
                println!("{:<12} {} of {} ops failed", kind.name(), run.failed, run.attempted);
            }
        }
        for def in PER_LAYER.iter().filter(|d| d.exact) {
            let (ca, cb) = (traced_a.value(def.name), traced_b.value(def.name));
            if ca != cb {
                ok = false;
                println!("{:<12} {} did not repeat: {ca:?} then {cb:?}", kind.name(), def.name);
            }
        }
    }
    println!("{}", if ok { "A/A passed" } else { "A/A FAILED" });
    Ok(ok)
}
