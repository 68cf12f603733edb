//! The paper's claims as checked data. Every `specs/experiments/<id>/` that
//! has an `expect.jsonl` runs through `lab::run_experiment`, and each line of
//! that file is checked against the journal and printed as one line of a
//! scorecard: pass, claim, model value, bounds.
//!
//! A line states one claim as a ratio of two references, with an inclusive
//! `min`, `max` or both:
//!
//! ```text
//! {"claim": "...", "ratio": [["d1", "base"], ["d4", "base"]], "min": 1.7}
//! ```
//!
//! A reference is `[task, variant]` for the trial's `iteration_s` objective,
//! or `[task, variant, metric]` for a key of the built-in harness's metrics
//! (`forward_s`, `backward_s`, `update_s`, `total_s`). A bound is a number
//! or another such ratio. A speedup is `[[t, "base"], [t, "su_o_c"]]`.
//! Nothing else is accepted, and nothing is skipped: a line that is not such
//! a row, or that names a task, variant or metric the journal lacks, fails
//! the test. Experiments without the file are listed as skipped.
//!
//! To print the scorecard of a passing run:
//!
//! ```text
//! cargo test -p bench --test claims -- --nocapture
//! ```

use lab::runner::{load_tasks, JOURNAL_FILE};
use lab::{read_journal, run_experiment, Objective, RunOptions, ServiceExecutor, TrialRecord};
use serde::{Deserialize, Value};
use smart_infinity::{CostModel, MachineSpec};
use std::path::{Path, PathBuf};

/// The file beside `experiment.json` that holds an experiment's claims.
const EXPECT_FILE: &str = "expect.jsonl";

/// One line of `expect.jsonl`, as written.
#[derive(Deserialize)]
struct Row {
    claim: String,
    ratio: Vec<Vec<String>>,
    min: Option<Value>,
    max: Option<Value>,
}

/// One checked row: the claim, the model's value and the evaluated bounds.
struct Score {
    claim: String,
    value: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl Score {
    /// Whether the value lies within the bounds, both inclusive (a NaN on
    /// either side fails).
    fn pass(&self) -> bool {
        self.min.map_or(true, |min| self.value >= min)
            && self.max.map_or(true, |max| self.value <= max)
    }

    /// One scorecard line.
    fn render(&self, experiment: &str) -> String {
        let bound = |b: Option<f64>| b.map_or("-".to_string(), |b| format!("{b:.4}"));
        format!(
            "{} {experiment:<6} {:>8.4} in [{}, {}]  {}\n",
            if self.pass() { "PASS" } else { "FAIL" },
            self.value,
            bound(self.min),
            bound(self.max),
            self.claim
        )
    }
}

/// The value `reference` names in `records`: the `iteration_s` objective of
/// the trial of `[task, variant]`, or the metric of `[task, variant, metric]`.
fn lookup(records: &[TrialRecord], reference: &[String]) -> Result<f64, String> {
    let (task, variant, metric) = match reference {
        [task, variant] => (task, variant, None),
        [task, variant, metric] => (task, variant, Some(metric)),
        _ => return Err(format!("a reference is [task, variant(, metric)], found {reference:?}")),
    };
    let record = records
        .iter()
        .find(|r| r.task_id == *task && r.variant == *variant && r.repeat == 0)
        .ok_or_else(|| format!("the journal has no trial of task `{task}`, variant `{variant}`"))?;
    if !record.is_success() {
        return Err(format!("trial {task}/{variant} failed: {:?}", record.error));
    }
    match metric {
        None => record
            .objective
            .as_ref()
            .filter(|objective| objective.name == "iteration_s")
            .map(|objective| objective.value)
            .ok_or_else(|| format!("trial {task}/{variant} has no iteration_s objective")),
        Some(metric) => match record.metrics.get(metric) {
            Some(Value::Number(n)) => Ok(n.as_f64()),
            _ => Err(format!("trial {task}/{variant} has no metric `{metric}`")),
        },
    }
}

/// The value of `[numerator, denominator]`.
fn ratio(parts: Vec<Vec<String>>, records: &[TrialRecord]) -> Result<f64, String> {
    let [num, den]: [Vec<String>; 2] = parts
        .try_into()
        .map_err(|parts: Vec<_>| format!("a ratio has two references, found {}", parts.len()))?;
    Ok(lookup(records, &num)? / lookup(records, &den)?)
}

/// The value of a bound: a number, or a ratio on the same journal.
fn bound(value: &Value, records: &[TrialRecord]) -> Result<f64, String> {
    match value {
        Value::Number(n) => Ok(n.as_f64()),
        other => match serde_json::from_value(other) {
            Ok(parts) => ratio(parts, records),
            Err(e) => Err(format!("a bound is a number or a ratio: {e}")),
        },
    }
}

/// Parses and scores one line.
fn score(line: &str, records: &[TrialRecord]) -> Result<Score, String> {
    let row: Row = serde_json::from_str(line).map_err(|e| e.to_string())?;
    if row.min.is_none() && row.max.is_none() {
        return Err("a row needs a `min`, a `max` or both".to_string());
    }
    let evaluate = |b: &Option<Value>| b.as_ref().map(|b| bound(b, records)).transpose();
    Ok(Score {
        value: ratio(row.ratio, records)?,
        min: evaluate(&row.min)?,
        max: evaluate(&row.max)?,
        claim: row.claim,
    })
}

/// Scores every line of an `expect.jsonl` text, one entry per line: a line
/// that cannot be scored is an `Err`, never skipped.
fn check(text: &str, records: &[TrialRecord]) -> Vec<Result<Score, String>> {
    text.lines().map(|line| score(line, records)).collect()
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The experiment directories, sorted.
fn experiments() -> Vec<PathBuf> {
    let entries = std::fs::read_dir(repo_root().join("specs/experiments")).expect("listable");
    let mut dirs: Vec<PathBuf> =
        entries.map(|e| e.expect("entry").path()).filter(|p| p.is_dir()).collect();
    dirs.sort();
    dirs
}

/// Runs `experiment` into a fresh `out` and returns its journal.
fn run(experiment: &Path, out: &Path) -> Vec<TrialRecord> {
    let _ = std::fs::remove_dir_all(out);
    let summary =
        run_experiment(experiment, out, &RunOptions::default(), &mut ServiceExecutor::new(2))
            .unwrap_or_else(|e| panic!("lab run {}: {e}", experiment.display()));
    assert_eq!(summary.errors, 0, "{} journaled error records", experiment.display());
    read_journal(&out.join(JOURNAL_FILE)).expect("journal reads").0
}

/// Every row of every `expect.jsonl` holds on a fresh run of its experiment.
#[test]
fn every_claim_of_every_experiment_holds() {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("claims");
    let (mut card, mut skipped, mut failures) = (String::new(), Vec::new(), Vec::new());
    let (mut rows, mut checked) = (0, 0);
    for experiment in experiments() {
        let name = experiment.file_name().expect("named").to_string_lossy().into_owned();
        let expect = experiment.join(EXPECT_FILE);
        if !expect.exists() {
            skipped.push(name);
            continue;
        }
        let text = std::fs::read_to_string(&expect).expect("expect.jsonl reads");
        let records = run(&experiment, &scratch.join(&name));
        rows += text.lines().count();
        for (number, result) in check(&text, &records).into_iter().enumerate() {
            match result {
                Ok(score) => {
                    checked += 1;
                    card.push_str(&score.render(&name));
                    if !score.pass() {
                        failures.push(format!("{name}: {}", score.claim));
                    }
                }
                Err(e) => failures.push(format!("{name}/{EXPECT_FILE}:{}: {e}", number + 1)),
            }
        }
    }
    println!("{card}skipped, no {EXPECT_FILE}: {}", skipped.join(", "));
    assert!(failures.is_empty(), "claims that do not hold:\n{}", failures.join("\n"));
    assert_eq!(checked, rows, "every line of every {EXPECT_FILE} is a checked row");
    assert!(checked > 0, "no claims found");
}

/// Fig. 15's rows in `fig11/expect.jsonl`. Smart-Inf has more GFLOPS/$ than
/// ZeRO-Inf exactly when the SU+O+C speedup exceeds the SmartSSD/SSD
/// system-price ratio, and each row bounds the speedup by that ratio rounded
/// outward. This recomputes the ratio from `CostModel` and the task's machine,
/// so a bound on the wrong side of it fails here even while the row holds.
#[test]
fn fig15_crossover_favors_smart_infinity_at_higher_device_counts() {
    let experiment = repo_root().join("specs/experiments/fig11");
    let tasks = load_tasks(&experiment.join("tasks.jsonl")).expect("fig11 tasks load");
    let text = std::fs::read_to_string(experiment.join(EXPECT_FILE)).expect("expect.jsonl reads");
    let cost = CostModel::default();
    let number = |bound: &Option<Value>| match bound {
        None => None,
        Some(Value::Number(n)) => Some(n.as_f64()),
        Some(other) => panic!("a Fig. 15 bound is a number, found {other:?}"),
    };
    let (mut baseline_wins, mut smart_wins) = (0, 0);
    for line in text.lines() {
        let row: Row = serde_json::from_str(line).expect("a row");
        if !row.claim.starts_with("Fig. 15:") {
            continue;
        }
        let task = row.ratio.first().and_then(|r| r.first()).expect("a task").clone();
        let speedup = [[task.as_str(), "base"], [task.as_str(), "su_o_c"]];
        assert_eq!(row.ratio, speedup, "{}: the ratio is the SU+O+C speedup", row.claim);
        let payload = &tasks.iter().find(|t| t.task_id == task).expect("a fig11 task").payload;
        let machine: MachineSpec =
            serde_json::from_value(payload.get("machine").expect("a machine")).expect("parses");
        let machine = machine.resolve().expect("resolves");
        let price = cost.smart_infinity_system_usd(&machine.gpu, machine.num_devices)
            / cost.baseline_system_usd(&machine.gpu, machine.num_devices);
        match (number(&row.min), number(&row.max)) {
            (None, Some(max)) => {
                assert!(max < price, "{}: max {max} is not below {price}", row.claim);
                baseline_wins += 1;
            }
            (Some(min), None) => {
                assert!(min > price, "{}: min {min} is not above {price}", row.claim);
                smart_wins += 1;
            }
            bounds => panic!("{}: one bound, a min or a max, found {bounds:?}", row.claim),
        }
    }
    assert_eq!((baseline_wins, smart_wins), (4, 4), "1 and 2 devices, then 4 and 10, per GPU");
}

/// A journal of two trials of task `t`: `base` (1 + 2 + 5 = 8 s) and `fast`
/// (1 + 1 + 2 = 4 s).
fn journal() -> Vec<TrialRecord> {
    [("base", [1.0, 2.0, 5.0]), ("fast", [1.0, 1.0, 2.0])]
        .into_iter()
        .map(|(variant, [forward, backward, update])| TrialRecord {
            trial_id: variant.to_string(),
            task_id: "t".to_string(),
            variant: variant.to_string(),
            repeat: 0,
            outcome: "success".to_string(),
            objective: Some(Objective {
                name: "iteration_s".to_string(),
                value: forward + backward + update,
            }),
            metrics: serde_json::parse(&format!(
                r#"{{"forward_s": {forward}, "backward_s": {backward}, "update_s": {update}}}"#
            ))
            .expect("metrics parse"),
            error: None,
        })
        .collect()
}

const SPEEDUP: &str = r#""ratio": [["t", "base"], ["t", "fast"]]"#;

fn one(line: &str) -> Result<Score, String> {
    score(line, &journal())
}

#[test]
fn a_holding_row_passes_with_its_value() {
    let s = one(&format!(r#"{{"claim": "2x", {SPEEDUP}, "min": 2, "max": 2}}"#)).expect("scores");
    assert_eq!(s.value, 2.0);
    assert!(s.pass(), "bounds are inclusive");
    let fraction =
        r#"{"claim": "f", "ratio": [["t", "base", "update_s"], ["t", "base"]], "min": 0.6}"#;
    assert_eq!(one(fraction).expect("scores").value, 5.0 / 8.0);
    let by_ratio = r#"{"claim": "r", "ratio": [["t", "base"], ["t", "fast"]],
                       "min": [["t", "fast", "update_s"], ["t", "fast", "forward_s"]]}"#;
    assert!(one(by_ratio).expect("scores").pass(), "2 >= 2 / 1");
}

#[test]
fn a_row_naming_what_the_journal_lacks_fails() {
    for (what, ratio) in [
        ("task", r#"[["nope", "base"], ["t", "fast"]]"#),
        ("variant", r#"[["t", "base"], ["t", "nope"]]"#),
        ("metric", r#"[["t", "base", "nope_s"], ["t", "fast"]]"#),
    ] {
        let line = format!(r#"{{"claim": "c", "ratio": {ratio}, "min": 1}}"#);
        let err = one(&line).err().unwrap_or_else(|| panic!("a missing {what} must fail"));
        assert!(err.contains("nope"), "{what}: {err}");
    }
    // A bound's references are looked up too.
    let bound = format!(r#"{{"claim": "c", {SPEEDUP}, "max": [["t", "base"], ["x", "base"]]}}"#);
    assert!(one(&bound).is_err());
}

#[test]
fn a_flipped_bound_fails() {
    for (holds, flipped) in [
        (r#""min": 1.5"#, r#""max": 1.5"#),
        (r#""max": 2.5"#, r#""min": 2.5"#),
        (r#""min": [["t", "fast"], ["t", "base"]]"#, r#""max": [["t", "fast"], ["t", "base"]]"#),
    ] {
        let score = |bound: &str| one(&format!(r#"{{"claim": "c", {SPEEDUP}, {bound}}}"#));
        assert!(score(holds).expect("scores").pass(), "{holds}");
        assert!(!score(flipped).expect("scores").pass(), "{flipped}");
    }
}

#[test]
fn every_line_is_a_row_or_an_error() {
    let rows = [
        format!(r#"{{"claim": "ok", {SPEEDUP}, "min": 1}}"#),
        String::new(),
        format!(r#"{{"claim": "no bound", {SPEEDUP}}}"#),
        format!(r#"{{"claim": "typo", {SPEEDUP}, "mni": 1}}"#),
        r#"{"claim": "one ref", "ratio": [["t", "base"]], "min": 1}"#.to_string(),
        r#"{"claim": "long ref", "ratio": [["t", "base", "a", "b"], ["t", "fast"]], "min": 1}"#
            .to_string(),
        format!(r#"{{"claim": "expression", {SPEEDUP}, "min": "2 * 0.5"}}"#),
    ];
    let results = check(&rows.join("\n"), &journal());
    assert_eq!(results.len(), rows.len(), "one entry per line");
    assert!(results[0].is_ok());
    for (row, result) in rows.iter().zip(&results).skip(1) {
        assert!(result.is_err(), "must not score: {row:?}");
    }
}
