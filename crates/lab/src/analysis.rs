//! Analysis tables: per-variant (and per-variant-per-task) objective
//! aggregates over a completed journal, emitted as canonical JSONL.

use crate::contract::{Objective, TrialRecord};
use crate::{LabError, PlannedTrial};
use serde::write_json_string;
use smart_infinity::{push_canonical_f64, LatencyStats};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufWriter, Write as _};
use std::path::Path;

/// One row of `variants.jsonl` / `variant_tasks.jsonl`: counts plus
/// nearest-rank order statistics of the objective over the group's
/// successful trials (all zeros when none succeeded; `objective` is the
/// measured name and drops out of the canonical line when unknown).
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(test, derive(serde::Serialize))]
pub(crate) struct AnalysisRow {
    /// The variant the row aggregates.
    pub variant: String,
    /// The task, for `variant_tasks.jsonl` rows; absent in the per-variant
    /// table.
    pub task_id: Option<String>,
    /// Trials in the group.
    pub trials: usize,
    /// Of those, successes.
    pub successes: usize,
    /// Of those, `error` outcomes.
    pub errors: usize,
    /// The objective's name (e.g. `iteration_s`); absent with no successes.
    pub objective: Option<String>,
    /// Minimum objective over successes.
    pub min: f64,
    /// Mean objective over successes.
    pub mean: f64,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 95th percentile.
    pub p95: f64,
    /// Maximum objective over successes.
    pub max: f64,
}

impl AnalysisRow {
    /// The row as one canonical JSONL line, written straight from its
    /// fields: keys in sorted order, and the entries that serialize to null
    /// (an absent name, a non-finite statistic) dropped.
    fn to_line(&self) -> String {
        let mut line = format!("{{\"errors\":{}", self.errors);
        let float = |line: &mut String, key: &str, x: f64| {
            if x.is_finite() {
                line.push_str(key);
                push_canonical_f64(line, x);
            }
        };
        let string = |line: &mut String, key: &str, text: Option<&str>| {
            if let Some(text) = text {
                line.push_str(key);
                write_json_string(text, line);
            }
        };
        float(&mut line, ",\"max\":", self.max);
        float(&mut line, ",\"mean\":", self.mean);
        float(&mut line, ",\"min\":", self.min);
        string(&mut line, ",\"objective\":", self.objective.as_deref());
        float(&mut line, ",\"p50\":", self.p50);
        float(&mut line, ",\"p95\":", self.p95);
        write!(line, ",\"successes\":{}", self.successes).expect("writing to a String cannot fail");
        string(&mut line, ",\"task_id\":", self.task_id.as_deref());
        write!(line, ",\"trials\":{}", self.trials).expect("writing to a String cannot fail");
        string(&mut line, ",\"variant\":", Some(&self.variant));
        line.push('}');
        line
    }
}

/// The two analysis tables of one experiment, as canonical JSONL lines.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisTables {
    /// Per-variant rows, in variant config order.
    pub variants: Vec<String>,
    /// Per-(variant, task) rows — variant config order, then task file
    /// order.
    pub variant_tasks: Vec<String>,
}

/// What the tables read of one journal record: the trial, whether it
/// succeeded, and its objective.
#[derive(Debug)]
pub(crate) struct TrialRow {
    pub(crate) trial_id: String,
    success: bool,
    objective: Option<Objective>,
}

impl From<TrialRecord> for TrialRow {
    fn from(record: TrialRecord) -> Self {
        let success = record.is_success();
        Self { trial_id: record.trial_id, success, objective: record.objective }
    }
}

fn row(variant: &str, task_id: Option<&str>, group: &[&TrialRow]) -> Result<AnalysisRow, LabError> {
    let successes: Vec<&&TrialRow> = group.iter().filter(|r| r.success).collect();
    let mut objective = None;
    let mut samples = Vec::with_capacity(successes.len());
    for record in &successes {
        let value = record.objective.as_ref().ok_or_else(|| {
            LabError::config(format!("trial {}: success without an objective", record.trial_id))
        })?;
        match &objective {
            None => objective = Some(value.name.clone()),
            Some(name) if *name != value.name => {
                return Err(LabError::config(format!(
                    "variant `{variant}` mixes objectives `{name}` and `{}`",
                    value.name
                )))
            }
            Some(_) => {}
        }
        samples.push(value.value);
    }
    let stats = LatencyStats::from_samples(&samples);
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    Ok(AnalysisRow {
        variant: variant.to_string(),
        task_id: task_id.map(str::to_string),
        trials: group.len(),
        successes: successes.len(),
        errors: group.len() - successes.len(),
        objective,
        min: if samples.is_empty() { 0.0 } else { min },
        mean: stats.mean_s,
        p50: stats.p50_s,
        p95: stats.p95_s,
        max: stats.max_s,
    })
}

/// Computes both analysis tables from a plan and its journal records. The
/// journal must cover every planned trial; rows are grouped and ordered by
/// the *plan* (variant config order, task file order), so the tables are
/// independent of journal line order — a resumed or merged journal yields
/// byte-identical tables to a straight-through run.
///
/// # Errors
///
/// [`LabError::Config`] when a planned trial has no journal record or the
/// records are internally inconsistent.
pub fn analysis_tables(
    plan: &[PlannedTrial],
    records: &[TrialRecord],
) -> Result<AnalysisTables, LabError> {
    let rows: Vec<TrialRow> = records.iter().cloned().map(TrialRow::from).collect();
    tables(
        plan.iter().map(|t| (t.trial_id.as_str(), t.task_id.as_str(), t.variant.as_str())),
        &rows,
    )
}

/// [`analysis_tables`] over the plan's `(trial_id, task_id, variant)` keys
/// and the journal's rows.
pub(crate) fn tables<'p>(
    plan: impl Iterator<Item = (&'p str, &'p str, &'p str)>,
    rows: &[TrialRow],
) -> Result<AnalysisTables, LabError> {
    let by_id: HashMap<&str, &TrialRow> = rows.iter().map(|r| (r.trial_id.as_str(), r)).collect();
    // (variant, task) groups in plan order.
    let mut variant_order: Vec<&str> = Vec::new();
    let mut task_order: Vec<&str> = Vec::new();
    let mut groups: HashMap<(&str, &str), Vec<&TrialRow>> = HashMap::new();
    for (trial_id, task_id, variant) in plan {
        let record = by_id.get(trial_id).ok_or_else(|| {
            LabError::config(format!(
                "trial {trial_id} (task `{task_id}`, variant `{variant}`) has no journal record"
            ))
        })?;
        if !variant_order.contains(&variant) {
            variant_order.push(variant);
        }
        if !task_order.contains(&task_id) {
            task_order.push(task_id);
        }
        groups.entry((variant, task_id)).or_default().push(record);
    }
    let mut variants = Vec::with_capacity(variant_order.len());
    let mut variant_tasks = Vec::new();
    for variant in &variant_order {
        let all: Vec<&TrialRow> = task_order
            .iter()
            .filter_map(|task| groups.get(&(*variant, *task)))
            .flat_map(|group| group.iter().copied())
            .collect();
        variants.push(row(variant, None, &all)?.to_line());
        for task in &task_order {
            if let Some(group) = groups.get(&(*variant, *task)) {
                variant_tasks.push(row(variant, Some(task), group)?.to_line());
            }
        }
    }
    Ok(AnalysisTables { variants, variant_tasks })
}

/// Writes the tables to `dir/variants.jsonl` and `dir/variant_tasks.jsonl`,
/// creating `dir` if needed.
///
/// # Errors
///
/// [`LabError::Io`] when the directory or files cannot be written.
pub fn write_analysis(dir: &Path, tables: &AnalysisTables) -> Result<(), LabError> {
    std::fs::create_dir_all(dir).map_err(|e| LabError::io(dir, e))?;
    for (name, lines) in
        [("variants.jsonl", &tables.variants), ("variant_tasks.jsonl", &tables.variant_tasks)]
    {
        let path = dir.join(name);
        let written = std::fs::File::create(&path).and_then(|file| {
            let mut out = BufWriter::new(file);
            for line in lines {
                out.write_all(line.as_bytes())?;
                out.write_all(b"\n")?;
            }
            out.flush()
        });
        written.map_err(|e| LabError::io(&path, e))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{Objective, Task};
    use crate::{plan_trials, ExperimentConfig};
    use serde::Value;

    fn setup() -> (Vec<PlannedTrial>, Vec<TrialRecord>) {
        let config = ExperimentConfig::from_value(
            &serde_json::parse(
                r#"{"name": "t", "repeats": 2, "variants": [{"name": "a"}, {"name": "b"}]}"#,
            )
            .expect("test JSON parses"),
        )
        .expect("valid");
        let tasks = vec![
            Task::parse_line(r#"{"task_id": "t1", "model": "m"}"#).expect("parses"),
            Task::parse_line(r#"{"task_id": "t2", "model": "m"}"#).expect("parses"),
        ];
        let plan = plan_trials(&tasks, &config);
        let records = plan
            .iter()
            .map(|t| TrialRecord {
                trial_id: t.trial_id.clone(),
                task_id: t.task_id.clone(),
                variant: t.variant.clone(),
                repeat: t.repeat,
                outcome: if t.variant == "b" && t.task_id == "t2" {
                    "error".to_string()
                } else {
                    "success".to_string()
                },
                objective: (t.variant != "b" || t.task_id != "t2").then(|| Objective {
                    name: "iteration_s".to_string(),
                    value: 1.0 + t.index as f64,
                }),
                metrics: Value::Object(Vec::new()),
                error: None,
            })
            .collect();
        (plan, records)
    }

    #[test]
    fn tables_are_independent_of_record_order() {
        let (plan, records) = setup();
        let forward = analysis_tables(&plan, &records).expect("complete");
        let mut reversed = records.clone();
        reversed.reverse();
        let backward = analysis_tables(&plan, &reversed).expect("complete");
        assert_eq!(forward, backward);
        assert_eq!(forward.variants.len(), 2);
        assert_eq!(forward.variant_tasks.len(), 4);
        // The error group aggregates to zero stats with no objective name.
        let b_t2 = forward
            .variant_tasks
            .iter()
            .find(|line| line.contains(r#""task_id":"t2""#) && line.contains(r#""variant":"b""#))
            .expect("row exists");
        assert!(b_t2.contains(r#""errors":2"#), "{b_t2}");
        assert!(!b_t2.contains("objective"), "{b_t2}");
    }

    #[test]
    fn rows_equal_the_whole_row_formula() {
        let row = |task_id: Option<&str>, objective: Option<&str>, x: f64| AnalysisRow {
            variant: "su \"o\"\nü".to_string(),
            task_id: task_id.map(str::to_string),
            trials: 3,
            successes: 2,
            errors: 1,
            objective: objective.map(str::to_string),
            min: x,
            mean: 0.1 + 0.2,
            p50: -x,
            p95: 1e21,
            max: f64::INFINITY,
        };
        let rows = [
            row(None, None, 0.0),
            row(Some("t\\1"), Some("iteration_s"), -0.0),
            row(Some("✓"), Some("iteration_s"), 1.5e-7),
            row(None, Some("x"), f64::NAN),
        ];
        for row in rows {
            let text = serde_json::to_string(&row).expect("serializes");
            let whole = smart_infinity::canonical_json(&serde_json::parse(&text).expect("parses"));
            assert_eq!(row.to_line(), whole, "{row:?}");
        }
    }

    #[test]
    fn incomplete_journals_are_rejected() {
        let (plan, mut records) = setup();
        records.pop();
        assert!(analysis_tables(&plan, &records).is_err());
    }
}
