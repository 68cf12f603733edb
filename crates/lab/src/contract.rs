//! The harness contract's data shapes: tasks, results, journal records, and
//! the JSON-merge operator variants are expressed with.

use crate::LabError;
use serde::{write_json_string, Deserialize, Number, Serialize, Value};
use smart_infinity::{canonical_json, Campaign, CampaignRef, RunSpec};
use std::path::Path;
use std::sync::Arc;
use ztrain::IterationReport;

/// One line of `tasks.jsonl`: a required `task_id` plus a pure domain
/// payload — every *other* key of the object. The payload is either an
/// inline [`RunSpec`] or a [`CampaignRef`] (distinguished by the presence of
/// a `campaign` key); the runner keeps it as a raw [`Value`] so trial ids
/// can be computed without touching the filesystem.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// The task's unique id within its dataset.
    pub task_id: String,
    /// The domain payload: the task object minus `task_id`, always a JSON
    /// object. Shared, not copied, by every trial planned from the task.
    pub payload: Arc<Value>,
}

impl Task {
    /// Parses one `tasks.jsonl` line.
    ///
    /// # Errors
    ///
    /// [`LabError::Config`] when the line is not a JSON object, lacks a
    /// string `task_id`, or has nothing but the id.
    pub fn parse_line(line: &str) -> Result<Self, LabError> {
        let value = serde_json::parse(line)
            .map_err(|e| LabError::config(format!("invalid task line: {e}")))?;
        let Value::Object(pairs) = value else {
            return Err(LabError::config(format!(
                "a task must be a JSON object, found {}",
                value.type_name()
            )));
        };
        let mut task_id = None;
        let mut payload = Vec::with_capacity(pairs.len());
        for (key, value) in pairs {
            if key == "task_id" {
                match value {
                    Value::String(id) if !id.is_empty() => task_id = Some(id),
                    other => {
                        return Err(LabError::config(format!(
                            "task_id must be a non-empty string, found {}",
                            other.type_name()
                        )))
                    }
                }
            } else {
                payload.push((key, value));
            }
        }
        let task_id = task_id.ok_or_else(|| LabError::config("task is missing `task_id`"))?;
        if payload.is_empty() {
            return Err(LabError::config(format!("task `{task_id}` has an empty payload")));
        }
        Ok(Task { task_id, payload: Arc::new(Value::Object(payload)) })
    }

    /// The full task document (payload plus `task_id`) — the value trial ids
    /// hash over.
    pub fn document(&self) -> Value {
        let mut pairs = vec![("task_id".to_string(), Value::String(self.task_id.clone()))];
        if let Value::Object(payload) = &*self.payload {
            pairs.extend(payload.iter().cloned());
        }
        Value::Object(pairs)
    }
}

/// Resolves a task payload into the [`RunSpec`] it denotes.
///
/// A payload with a `campaign` key is a [`CampaignRef`]: the referenced
/// campaign document is loaded from `base_dir` (the directory of the file
/// the payload came from) and the selected spec returned. Any other payload
/// must be an inline [`RunSpec`].
///
/// # Errors
///
/// [`LabError`] for unreadable campaign files, malformed payloads, and
/// out-of-range / ambiguous references.
pub fn resolve_payload(payload: &Value, base_dir: &Path) -> Result<RunSpec, LabError> {
    if payload.get("campaign").is_some() {
        let reference: CampaignRef = serde_json::from_value(payload)
            .map_err(|e| LabError::config(format!("invalid campaign ref: {e}")))?;
        let path = base_dir.join(&reference.campaign);
        let text = std::fs::read_to_string(&path).map_err(|e| LabError::io(&path, e))?;
        let campaign = Campaign::from_json(&text)
            .map_err(|e| LabError::config(format!("{}: {e}", path.display())))?;
        reference.select(&campaign).map_err(|e| LabError::config(e.to_string()))
    } else {
        serde_json::from_value(payload)
            .map_err(|e| LabError::config(format!("invalid run spec payload: {e}")))
    }
}

/// An experiment's figure of merit: a named scalar, minimized by convention
/// (the built-in harness reports `iteration_s`, the simulated seconds of one
/// training iteration).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Objective {
    /// What the value measures.
    pub name: String,
    /// The measured value.
    pub value: f64,
}

/// What a harness writes to `result.json`: the contract's output half.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HarnessResult {
    /// `"success"` or `"error"`.
    pub outcome: String,
    /// The figure of merit; absent on error.
    pub objective: Option<Objective>,
    /// Free-form metrics object (phase breakdowns, labels, ...).
    pub metrics: Value,
    /// The failure rendered for humans; absent on success.
    pub error: Option<String>,
}

impl HarnessResult {
    /// Whether the harness reported success.
    pub fn is_success(&self) -> bool {
        self.outcome == "success"
    }

    /// The built-in harness's result for one simulated iteration: objective
    /// `iteration_s` plus a metrics bag of the method label and the phase
    /// breakdown. Both the `lab harness` program and the runner's journal
    /// records are built from it.
    pub(crate) fn simulated(method: String, report: &IterationReport) -> Self {
        HarnessResult {
            outcome: "success".to_string(),
            objective: Some(Objective { name: "iteration_s".to_string(), value: report.total_s() }),
            metrics: Value::Object(vec![
                ("method".to_string(), Value::String(method)),
                ("forward_s".to_string(), float(report.forward_s)),
                ("backward_s".to_string(), float(report.backward_s)),
                ("update_s".to_string(), float(report.update_s)),
                ("total_s".to_string(), float(report.total_s())),
            ]),
            error: None,
        }
    }

    /// An `error`-outcome result carrying `message`.
    pub(crate) fn failure(message: String) -> Self {
        HarnessResult {
            outcome: "error".to_string(),
            objective: None,
            metrics: Value::Object(Vec::new()),
            error: Some(message),
        }
    }
}

/// One line of the append-only `trials.jsonl` journal: a completed trial's
/// identity plus its [`HarnessResult`] fields. Every field is a
/// deterministic function of the experiment inputs — no wall-clock, host
/// name, or cache telemetry — so journals from reruns and shards can be
/// compared and merged byte-for-byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialRecord {
    /// The trial's stable content address ([`crate::PlannedTrial::trial_id`]).
    pub trial_id: String,
    /// The task the trial ran.
    pub task_id: String,
    /// The variant name.
    pub variant: String,
    /// The repeat index, `0..repeats`.
    pub repeat: usize,
    /// `"success"` or `"error"`.
    pub outcome: String,
    /// The figure of merit; absent on error.
    pub objective: Option<Objective>,
    /// Free-form metrics object.
    pub metrics: Value,
    /// The failure rendered for humans; absent on success.
    pub error: Option<String>,
}

impl TrialRecord {
    /// Whether the trial succeeded.
    pub fn is_success(&self) -> bool {
        self.outcome == "success"
    }

    /// The record as one canonical journal line (no trailing newline).
    /// Canonical form drops the absent optionals and normalizes key order
    /// and number spellings, which is what makes journal lines comparable
    /// across runs.
    pub(crate) fn to_line(&self) -> String {
        let mut line = self.result_entries();
        self.push_identity(&mut line);
        line
    }

    /// The opening of the record's canonical line: `{` and the canonical
    /// `error`, `metrics`, `objective` and `outcome` entries. They sort
    /// before every identity key, so the records of one (task, variant)'s
    /// repeats share this text.
    pub(crate) fn result_entries(&self) -> String {
        let objective = self.objective.as_ref().map_or(Value::Null, |objective| {
            Value::Object(vec![
                ("name".to_string(), Value::String(objective.name.clone())),
                ("value".to_string(), float(objective.value)),
            ])
        });
        let mut head = canonical_json(&Value::Object(vec![
            ("error".to_string(), self.error.clone().map_or(Value::Null, Value::String)),
            ("metrics".to_string(), self.metrics.clone()),
            ("objective".to_string(), objective),
            ("outcome".to_string(), Value::String(self.outcome.clone())),
        ]));
        // `outcome` is a string, so the object is never empty: the identity
        // entries follow a comma.
        head.pop();
        head
    }

    /// Completes a line begun by [`TrialRecord::result_entries`]: the
    /// `repeat`, `task_id`, `trial_id` and `variant` entries and the closing
    /// brace.
    pub(crate) fn push_identity(&self, line: &mut String) {
        line.push_str(",\"repeat\":");
        line.push_str(&self.repeat.to_string());
        for (key, text) in
            [("task_id", &self.task_id), ("trial_id", &self.trial_id), ("variant", &self.variant)]
        {
            line.push(',');
            write_json_string(key, line);
            line.push(':');
            write_json_string(text, line);
        }
        line.push('}');
    }

    /// Whether `other` carries the same result fields, so its line begins
    /// with the same [`TrialRecord::result_entries`].
    pub(crate) fn same_result(&self, other: &TrialRecord) -> bool {
        self.outcome == other.outcome
            && self.objective == other.objective
            && self.metrics == other.metrics
            && self.error == other.error
    }

    /// Parses one journal line.
    ///
    /// # Errors
    ///
    /// [`LabError::Config`] for malformed lines.
    pub fn parse_line(line: &str) -> Result<Self, LabError> {
        let invalid = |e: serde_json::Error| LabError::config(format!("invalid journal line: {e}"));
        let mut value = serde_json::parse(line).map_err(invalid)?;
        // The derived reader copies every string and tree it reads. The
        // record's strings and its metrics are moved out of the parsed line
        // first, leaving empty strings (still type-checked, copied for free)
        // and a null, and moved into the record after it is read.
        let mut metrics = Value::Null;
        let mut strings: [(&str, String); 6] = [
            ("trial_id", String::new()),
            ("task_id", String::new()),
            ("variant", String::new()),
            ("outcome", String::new()),
            ("error", String::new()),
            ("name", String::new()),
        ];
        let mut take = |pairs: &mut [(String, Value)]| {
            for (key, field) in pairs {
                match field {
                    Value::String(text) => {
                        if let Some((_, slot)) = strings.iter_mut().find(|(name, _)| name == key) {
                            *slot = std::mem::take(text);
                        }
                    }
                    _ if key == "metrics" => metrics = std::mem::replace(field, Value::Null),
                    _ => {}
                }
            }
        };
        if let Value::Object(pairs) = &mut value {
            take(pairs);
            if let Some((_, Value::Object(objective))) =
                pairs.iter_mut().find(|(key, _)| key == "objective")
            {
                take(objective);
            }
        }
        let record: TrialRecord = serde_json::from_value(&value).map_err(invalid)?;
        let [trial_id, task_id, variant, outcome, error, name] = strings.map(|(_, text)| text);
        Ok(TrialRecord {
            trial_id,
            task_id,
            variant,
            outcome,
            objective: record.objective.map(|objective| Objective { name, ..objective }),
            metrics,
            error: record.error.map(|_| error),
            ..record
        })
    }
}

/// The value tree an `f64` serializes to: a number spelled in its shortest
/// round-trip form, or `null` when it is not finite (JSON has no NaN).
pub(crate) fn float(x: f64) -> Value {
    if x.is_finite() {
        Value::Number(Number::from_literal(x.to_string()))
    } else {
        Value::Null
    }
}

/// RFC 7386 JSON merge patch: objects merge recursively, a `null` entry in
/// `delta` deletes the key, and every non-object `delta` replaces `base`
/// wholesale. This is the operator experiment variants apply over a task's
/// spec: `defaults ⊕ task ⊕ variant.delta`.
pub(crate) fn json_merge(base: &Value, delta: &Value) -> Value {
    match delta {
        Value::Object(delta_pairs) => {
            let mut merged: Vec<(String, Value)> = match base {
                Value::Object(base_pairs) => base_pairs.clone(),
                _ => Vec::new(),
            };
            for (key, delta_value) in delta_pairs {
                if let Value::Null = delta_value {
                    merged.retain(|(k, _)| k != key);
                } else if let Some(slot) = merged.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = json_merge(&slot.1, delta_value);
                } else {
                    merged.push((key.clone(), json_merge(&Value::Null, delta_value)));
                }
            }
            Value::Object(merged)
        }
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(text: &str) -> Value {
        serde_json::parse(text).expect("test JSON parses")
    }

    #[test]
    fn tasks_split_id_from_payload() {
        let task = Task::parse_line(
            r#"{"model": "GPT2-0.34B", "task_id": "t1", "machine": {"devices": 2}}"#,
        )
        .expect("parses");
        assert_eq!(task.task_id, "t1");
        assert_eq!(task.payload.get("model"), Some(&Value::String("GPT2-0.34B".into())));
        assert!(task.payload.get("task_id").is_none());
        // The hashed document reassembles the id with the payload.
        assert_eq!(task.document().get("task_id"), Some(&Value::String("t1".into())));
    }

    #[test]
    fn task_parse_rejects_malformed_lines() {
        assert!(Task::parse_line("[1,2]").is_err());
        assert!(Task::parse_line(r#"{"model": "x"}"#).is_err());
        assert!(Task::parse_line(r#"{"task_id": 7, "model": "x"}"#).is_err());
        assert!(Task::parse_line(r#"{"task_id": "only-id"}"#).is_err());
        assert!(Task::parse_line("not json").is_err());
    }

    #[test]
    fn merge_is_rfc7386() {
        let base = v(r#"{"a": {"x": 1, "y": 2}, "b": 3}"#);
        assert_eq!(
            json_merge(&base, &v(r#"{"a": {"y": 9}}"#)),
            v(r#"{"a": {"x": 1, "y": 9}, "b": 3}"#)
        );
        assert_eq!(json_merge(&base, &v(r#"{"b": null}"#)), v(r#"{"a": {"x": 1, "y": 2}}"#));
        assert_eq!(json_merge(&base, &v(r#"{"a": 5}"#)), v(r#"{"a": 5, "b": 3}"#));
        assert_eq!(json_merge(&base, &v("7")), v("7"));
        assert_eq!(json_merge(&Value::Null, &v(r#"{"k": {"n": 1}}"#)), v(r#"{"k": {"n": 1}}"#));
    }

    #[test]
    fn records_round_trip_through_canonical_lines() {
        let record = TrialRecord {
            trial_id: "00ff".into(),
            task_id: "t1".into(),
            variant: "su".into(),
            repeat: 1,
            outcome: "success".into(),
            objective: Some(Objective { name: "iteration_s".into(), value: 1.5 }),
            metrics: v(r#"{"forward_s": 0.5}"#),
            error: None,
        };
        let line = record.to_line();
        // Canonical lines drop the absent error and sort keys.
        assert!(!line.contains("error"));
        let back = TrialRecord::parse_line(&line).expect("round trips");
        assert_eq!(back, record);
        assert_eq!(back.to_line(), line);
    }

    /// The journal line's defining formula: the whole record serialized,
    /// parsed back and canonicalized.
    fn whole_record_line(record: &TrialRecord) -> String {
        canonical_json(&v(&serde_json::to_string(record).expect("serializes")))
    }

    fn record(trial_id: &str, result: HarnessResult) -> TrialRecord {
        TrialRecord {
            trial_id: trial_id.into(),
            task_id: "task \"q\"\nü".into(),
            variant: "su\\o".into(),
            repeat: 2,
            outcome: result.outcome,
            objective: result.objective,
            metrics: result.metrics,
            error: result.error,
        }
    }

    #[test]
    fn lines_equal_the_whole_record_formula() {
        let report = |f: f64| IterationReport::new(f, 0.1 + 0.2, 3.0);
        let mut odd_objective = record("odd", HarnessResult::simulated("SU".into(), &report(1.0)));
        let mut records = vec![
            record("ok", HarnessResult::simulated("SU+O+C(2%)".into(), &report(1.5e-7))),
            record("zero", HarnessResult::simulated("BASE".into(), &report(-0.0))),
            record("big", HarnessResult::simulated("BASE".into(), &report(1e21))),
            record("err", HarnessResult::failure("a \"quote\",\na newline, ü ✓ \u{1}".into())),
        ];
        for value in [f64::NAN, f64::INFINITY, -0.0, 9_007_199_254_740_993.0] {
            odd_objective.objective = Some(Objective { name: "iteration_s".into(), value });
            records.push(odd_objective.clone());
        }
        for record in &records {
            assert_eq!(record.to_line(), whole_record_line(record), "{record:?}");
        }
    }

    #[test]
    fn error_records_drop_objective_and_empty_metrics() {
        let record = TrialRecord {
            trial_id: "aa".into(),
            task_id: "t".into(),
            variant: "v".into(),
            repeat: 0,
            outcome: "error".into(),
            objective: None,
            metrics: Value::Object(Vec::new()),
            error: Some("boom".into()),
        };
        let line = record.to_line();
        assert!(!line.contains("objective"));
        assert!(!line.contains("metrics"));
        let back = TrialRecord::parse_line(&line).expect("round trips");
        assert!(!back.is_success());
        assert_eq!(back.metrics, Value::Null);
        assert_eq!(back.error.as_deref(), Some("boom"));
    }
}
