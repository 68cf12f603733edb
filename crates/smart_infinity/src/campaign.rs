//! The campaign file format: a named list of [`RunSpec`]s, as the checked-in
//! `specs/*.json` files write it, and [`CampaignRef`], the task payload that
//! points at one spec of such a file.
//!
//! A campaign is data only. Sweeps run as `lab` experiments, whose tasks are
//! campaign refs (`specs/experiments/<name>/tasks.jsonl`); the runner owns
//! planning, the journal and resume.

use crate::spec::RunSpec;
use serde::{Deserialize, Serialize};
use ztrain::TrainError;

/// A named list of [`RunSpec`]s; the unit the `specs/*.json` files
/// serialize.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Campaign {
    /// Optional campaign name.
    pub name: Option<String>,
    /// The specs, in file order (a [`CampaignRef`] index counts from 0).
    pub specs: Vec<RunSpec>,
}

/// A reference to one spec inside a campaign document — the second task
/// payload the `lab` harness contract accepts (the first is an inline
/// [`RunSpec`]). Instead of repeating a spec, a task points at a checked-in
/// `specs/*.json` campaign file and selects one of its specs by zero-based
/// index or by label. Loading the referenced file is the caller's job (this
/// crate does no filesystem I/O); [`CampaignRef::select`] then picks the spec
/// out of the parsed [`Campaign`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignRef {
    /// Path of the campaign JSON document, resolved by the caller (the `lab`
    /// runner resolves it relative to the task file's directory).
    pub campaign: String,
    /// Zero-based index into the campaign's spec list.
    pub index: Option<usize>,
    /// Label of the referenced spec ([`RunSpec::label`]); must match exactly
    /// one spec. Exactly one of `index` and `label` must be given.
    pub label: Option<String>,
}

impl CampaignRef {
    /// Selects the referenced spec out of the loaded campaign.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] when neither or both selectors are
    /// given, the index is out of range, or the label matches no spec or more
    /// than one.
    pub fn select(&self, campaign: &Campaign) -> Result<RunSpec, TrainError> {
        match (self.index, &self.label) {
            (Some(_), Some(_)) | (None, None) => Err(TrainError::config(format!(
                "campaign ref `{}` must select exactly one of `index` or `label`",
                self.campaign
            ))),
            (Some(index), None) => campaign.specs.get(index).cloned().ok_or_else(|| {
                TrainError::config(format!(
                    "campaign ref `{}`: index {index} out of range ({} specs)",
                    self.campaign,
                    campaign.specs.len()
                ))
            }),
            (None, Some(label)) => {
                let mut matches = campaign.specs.iter().filter(|spec| &spec.label() == label);
                match (matches.next(), matches.next()) {
                    (Some(spec), None) => Ok(spec.clone()),
                    (Some(_), Some(_)) => Err(TrainError::config(format!(
                        "campaign ref `{}`: label `{label}` is ambiguous; select by index",
                        self.campaign
                    ))),
                    _ => Err(TrainError::config(format!(
                        "campaign ref `{}`: no spec labelled `{label}` (labels: {})",
                        self.campaign,
                        campaign
                            .specs
                            .iter()
                            .map(|s| format!("`{}`", s.label()))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ))),
                }
            }
        }
    }
}

impl Campaign {
    /// A campaign over the given specs.
    pub fn new(specs: Vec<RunSpec>) -> Self {
        Campaign { name: None, specs }
    }

    /// Names the campaign.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Loads a campaign from its JSON document
    /// (`{"name": ..., "specs": [...]}`, the format of `specs/*.json`).
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] describing the parse or field error.
    pub fn from_json(text: &str) -> Result<Self, TrainError> {
        serde_json::from_str(text).map_err(|e| TrainError::config(format!("invalid campaign: {e}")))
    }

    /// The campaign as pretty-printed JSON (the `specs/*.json` format).
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("campaign serialization is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{MachineSpec, MethodSpec, ModelSpec};

    fn ladder_campaign() -> Campaign {
        Campaign::new(
            MethodSpec::ladder()
                .into_iter()
                .map(|method| {
                    RunSpec::new(ModelSpec::preset("GPT2-4.0B"), MachineSpec::devices(6), method)
                })
                .collect(),
        )
        .with_name("ladder")
    }

    #[test]
    fn campaigns_roundtrip_through_json() {
        let campaign = ladder_campaign();
        let parsed = Campaign::from_json(&campaign.to_json_pretty()).expect("round trip");
        assert_eq!(parsed, campaign);
    }

    /// A fresh scratch directory under the system temp dir.
    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("campaign-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    /// The journal of one `lab` run of `experiment` on `threads` workers.
    fn journal(experiment: &std::path::Path, out: &std::path::Path, threads: usize) -> String {
        let mut executor = lab::ServiceExecutor::new(threads);
        lab::run_experiment(experiment, out, &lab::RunOptions::default(), &mut executor)
            .expect("lab run");
        std::fs::read_to_string(out.join(lab::runner::JOURNAL_FILE)).expect("journal reads")
    }

    #[test]
    fn campaign_results_are_identical_for_every_worker_count() {
        // `specs/ladder.json` runs as campaign-ref tasks; the worker count
        // changes wall clock only, never a journal byte.
        let ladder = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/experiments/ladder");
        let serial = journal(ladder.as_ref(), &scratch("workers-1"), 1);
        let parallel = journal(ladder.as_ref(), &scratch("workers-4"), 4);
        assert_eq!(serial.lines().count(), 6);
        assert!(!serial.contains("\"error\""), "{serial}");
        assert_eq!(serial, parallel, "parallelism must not change results");
    }

    #[test]
    fn validation_errors_carry_the_spec_index_for_duplicate_labels() {
        // Two specs share a label; only the index tells them apart.
        let mut campaign = ladder_campaign();
        campaign.specs[1] = campaign.specs[1].clone().with_name("twin");
        campaign.specs[2] = campaign.specs[2].clone().with_name("twin");
        let by_label =
            CampaignRef { campaign: "ladder.json".into(), index: None, label: Some("twin".into()) };
        let err = by_label.select(&campaign).expect_err("the label is ambiguous");
        assert!(err.to_string().contains("label `twin` is ambiguous; select by index"), "{err}");
        let by_index = |index| CampaignRef { index: Some(index), label: None, ..by_label.clone() };
        for index in [1, 2] {
            assert_eq!(by_index(index).select(&campaign).expect("in range"), campaign.specs[index]);
        }
        assert_ne!(campaign.specs[1].method, campaign.specs[2].method);
    }

    #[test]
    fn invalid_specs_fail_before_anything_runs_with_the_label() {
        // A task with keep ratio 7 is refused at the service's door: it
        // journals an error record under its task id and never executes,
        // while its valid sibling runs.
        let dir = scratch("invalid");
        let method =
            r#""offload": true, "in_storage_update": true, "overlap": true, "pipelined": false"#;
        let task = |id: &str, extra: &str| {
            format!(
                r#"{{"task_id": "{id}", "model": "GPT2-0.34B", "machine": {{"devices": 2}}, "method": {{{method}{extra}}}}}"#
            )
        };
        let tasks =
            [task("dense", ""), task("ratio-seven", r#", "compression": {"keep_ratio": 7.0}"#)];
        std::fs::write(dir.join("tasks.jsonl"), tasks.join("\n")).expect("write tasks");
        std::fs::write(
            dir.join("experiment.json"),
            r#"{"name": "invalid", "variants": [{"name": "as-is"}]}"#,
        )
        .expect("write config");
        let out = dir.join("out");
        let mut executor = lab::ServiceExecutor::new(1);
        let summary = lab::run_experiment(&dir, &out, &lab::RunOptions::default(), &mut executor)
            .expect("a bad trial does not abort the run");
        assert_eq!((summary.executed, summary.errors), (2, 1));
        assert_eq!(executor.report().executed, 1, "only the valid spec ran");
        let (records, _) =
            lab::read_journal(&out.join(lab::runner::JOURNAL_FILE)).expect("journal");
        let bad = records.iter().find(|r| !r.is_success()).expect("an error record");
        assert_eq!(bad.task_id, "ratio-seven");
        let message = bad.error.as_deref().expect("error message");
        assert!(message.contains("keep ratio"), "{message}");
    }
}
