//! The built-in harness: one `task.json` in, one `result.json` out.
//!
//! This is the reference implementation of the contract's program boundary:
//! any executable that reads a task document (an inline
//! [`smart_infinity::RunSpec`] or a [`smart_infinity::CampaignRef`]) and
//! writes `{"outcome", "objective", "metrics"}` is a harness the runner's
//! results are comparable with. The built-in one resolves the task against
//! [`smart_infinity::Session`] and reports the simulated iteration time as
//! its objective.

use crate::contract::{resolve_payload, HarnessResult};
use crate::LabError;
use serde::Value;
use std::path::Path;

/// Runs one task document (already parsed); campaign refs resolve relative
/// to `base_dir`. Domain failures come back as an `error`-outcome
/// [`HarnessResult`], never as `Err` — the contract's result file always
/// gets written.
pub(crate) fn run_task(task: &Value, base_dir: &Path) -> HarnessResult {
    // A task file may carry the dataset form's `task_id`; it is not part of
    // the payload.
    let payload = match task {
        Value::Object(pairs) => {
            Value::Object(pairs.iter().filter(|(k, _)| k != "task_id").cloned().collect())
        }
        other => other.clone(),
    };
    let spec = match resolve_payload(&payload, base_dir) {
        Ok(spec) => spec,
        Err(e) => return HarnessResult::failure(e.to_string()),
    };
    match spec.session().and_then(|session| session.simulate_iteration()) {
        Ok(report) => HarnessResult::simulated(spec.method.to_string(), &report),
        Err(e) => HarnessResult::failure(e.to_string()),
    }
}

/// The file-level harness entry point (`lab harness <task.json>
/// <result.json>`): reads the task, runs it, writes the result document
/// (pretty JSON). Returns the parsed result so callers can inspect the
/// outcome.
///
/// # Errors
///
/// [`LabError::Io`] only — an unreadable task file or unwritable result
/// file. Domain failures are reported *inside* the written result.
pub fn run_harness(task_path: &Path, result_path: &Path) -> Result<HarnessResult, LabError> {
    let text = std::fs::read_to_string(task_path).map_err(|e| LabError::io(task_path, e))?;
    let result = match serde_json::parse(&text) {
        Ok(task) => {
            let base_dir = task_path.parent().unwrap_or(Path::new("."));
            run_task(&task, base_dir)
        }
        Err(e) => HarnessResult::failure(format!("invalid task document: {e}")),
    };
    let mut rendered =
        serde_json::to_string_pretty(&result).expect("result serialization is infallible");
    rendered.push('\n');
    std::fs::write(result_path, rendered).map_err(|e| LabError::io(result_path, e))?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_spec_tasks_run_to_success() {
        let task = serde_json::parse(
            r#"{"task_id": "t", "model": "GPT2-0.34B", "machine": {"devices": 2},
                "method": {"offload": true, "in_storage_update": true,
                           "overlap": false, "pipelined": false}}"#,
        )
        .expect("test JSON parses");
        let result = run_task(&task, Path::new("."));
        assert!(result.is_success(), "{:?}", result.error);
        let objective = result.objective.expect("has objective");
        assert_eq!(objective.name, "iteration_s");
        assert!(objective.value > 0.0);
        assert!(result.metrics.get("forward_s").is_some());
    }

    #[test]
    fn broken_tasks_report_error_outcomes() {
        let task = serde_json::parse(
            r#"{"model": "NOPE-9B", "machine": {"devices": 2},
                "method": {"offload": true, "in_storage_update": false,
                           "overlap": false, "pipelined": false}}"#,
        )
        .expect("test JSON parses");
        let result = run_task(&task, Path::new("."));
        assert!(!result.is_success());
        assert!(result.objective.is_none());
        assert!(result.error.is_some());
    }
}
