//! The campaign runner: execute a list of [`RunSpec`]s concurrently on
//! `parcore` workers and collect structured reports.
//!
//! A campaign is the sweep analogue of a [`crate::Session`]: where a session
//! runs *one* configuration, a campaign takes a grid/list of spec documents
//! (usually loaded from a checked-in `specs/*.json` file), validates every
//! spec up front, fans the timed simulations out across host worker threads,
//! and returns a [`CampaignReport`] — per-spec phase breakdowns plus the
//! host CPU count and the `parallel_valid` caveat the tracked perf snapshot
//! uses (on a 1-CPU box the workers time-slice one core, so concurrency
//! cannot show a wall-clock win).
//!
//! Simulations are deterministic, so a campaign's results are identical for
//! every worker count — parallelism only changes wall-clock time, exactly
//! like the functional execution backends.

use crate::session::Session;
use crate::spec::RunSpec;
use parcore::ParExecutor;
use serde::{Deserialize, Serialize};
use ztrain::{IterationReport, TrainError};

/// A named list of [`RunSpec`]s to execute; the unit the `specs/*.json`
/// files serialize.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Campaign {
    /// Optional campaign name, echoed into the report.
    pub name: Option<String>,
    /// The runs, in report order (the first is the speedup reference).
    pub specs: Vec<RunSpec>,
}

/// One spec's result within a campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// The spec's label ([`RunSpec::label`]).
    pub label: String,
    /// The model half of the spec, printed.
    pub model: String,
    /// The method's figure label (`BASE`, `SU+O+C(2%)`, ...).
    pub method: String,
    /// Number of storage devices.
    pub devices: usize,
    /// The per-phase breakdown of one simulated iteration.
    pub report: IterationReport,
    /// Speedup over the campaign's first run (1.0 for the first itself).
    pub speedup_over_first: f64,
}

/// The structured result of a campaign run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CampaignReport {
    /// The campaign's name, if any.
    pub name: Option<String>,
    /// CPUs available to the process when the campaign ran.
    pub num_cpus: usize,
    /// Worker threads the runs were fanned out across.
    pub threads: usize,
    /// Whether concurrent execution could actually help on this host:
    /// `false` when only one CPU was visible or one worker was used — the
    /// results are still correct, but wall-clock comparisons against a
    /// serial run would be misleading (see the BENCH_2.json caveat).
    pub parallel_valid: bool,
    /// Per-spec results, in spec order.
    pub runs: Vec<RunReport>,
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

/// Prefixes a configuration error with the spec it came from — its
/// zero-based position *and* its label, so spec lists with duplicate labels
/// stay debuggable (without stacking "invalid configuration:" prefixes).
/// Substrate errors pass through unchanged so their variant and `source()`
/// chain survive — a caller matching `TrainError::Simulation` must still hit
/// that arm.
fn label_error(index: usize, spec: &RunSpec, error: TrainError) -> TrainError {
    match error {
        TrainError::Config { message } => {
            TrainError::config(format!("run spec [{index}] `{}`: {message}", spec.label()))
        }
        other => other,
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

    /// Validates every spec without running anything — the cheap check that
    /// a spec file still resolves.
    ///
    /// # Errors
    ///
    /// Returns the first spec's [`TrainError::Config`], prefixed with its
    /// label.
    pub fn validate(&self) -> Result<(), TrainError> {
        self.sessions().map(drop)
    }

    /// Resolves every spec into its session, in spec order; the first
    /// invalid spec's error carries its label.
    fn sessions(&self) -> Result<Vec<Session>, TrainError> {
        if self.specs.is_empty() {
            return Err(TrainError::config("a campaign needs at least one run spec"));
        }
        self.specs
            .iter()
            .enumerate()
            .map(|(index, spec)| spec.session().map_err(|e| label_error(index, spec, e)))
            .collect()
    }

    /// Runs the campaign with one worker per available CPU.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] for any invalid spec (all specs are
    /// validated before anything runs) and a wrapped simulation error
    /// otherwise.
    pub fn run(&self) -> Result<CampaignReport, TrainError> {
        self.run_on(&ParExecutor::current())
    }

    /// Runs every spec's timed iteration concurrently on `pool` and collects
    /// the per-spec reports, in spec order. Results are deterministic and
    /// identical for every worker count.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] for any invalid spec (all specs are
    /// validated before anything runs) and a wrapped simulation error
    /// otherwise.
    pub fn run_on(&self, pool: &ParExecutor) -> Result<CampaignReport, TrainError> {
        // Every spec resolves before anything runs, so errors carry the
        // spec's label and the parallel phase cannot fail on configuration.
        let sessions = self.sessions()?;
        let reports = pool
            .map(sessions, |_, session| session.simulate_iteration())
            .into_iter()
            .zip(self.specs.iter().enumerate())
            .map(|(result, (index, spec))| result.map_err(|e| label_error(index, spec, e)))
            .collect::<Result<Vec<_>, TrainError>>()?;
        // `sessions` rejects an empty campaign, so there is a first report.
        let first = reports[0];
        let runs = self
            .specs
            .iter()
            .zip(reports)
            .map(|(spec, report)| RunReport {
                label: spec.label(),
                model: spec.model.to_string(),
                method: spec.method.to_string(),
                devices: spec.machine.devices,
                speedup_over_first: report.speedup_over(&first),
                report,
            })
            .collect();
        let num_cpus = ParExecutor::current().num_threads();
        Ok(CampaignReport {
            name: self.name.clone(),
            num_cpus,
            threads: pool.num_threads(),
            parallel_valid: num_cpus > 1 && pool.num_threads() > 1,
            runs,
        })
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
    fn campaign_results_are_identical_for_every_worker_count() {
        let campaign = ladder_campaign();
        let serial = campaign.run_on(&ParExecutor::serial()).expect("serial run");
        let parallel = campaign.run_on(&ParExecutor::new(4)).expect("parallel run");
        assert_eq!(serial.runs, parallel.runs, "parallelism must not change results");
        assert_eq!(serial.threads, 1);
        assert_eq!(parallel.threads, 4);
        assert!(!serial.parallel_valid, "one worker is never parallel");
        assert_eq!(parallel.parallel_valid, parallel.num_cpus > 1);
        assert_eq!(serial.runs.len(), 4);
        assert!((serial.runs[0].speedup_over_first - 1.0).abs() < 1e-12);
        assert!(serial.runs[3].speedup_over_first > 1.0, "SU+O+C beats BASE");
        assert_eq!(serial.runs[3].method, "SU+O+C(2%)");
        assert_eq!(serial.name.as_deref(), Some("ladder"));
    }

    #[test]
    fn campaigns_roundtrip_through_json() {
        let campaign = ladder_campaign();
        let parsed = Campaign::from_json(&campaign.to_json_pretty()).expect("round trip");
        assert_eq!(parsed, campaign);
    }

    #[test]
    fn substrate_errors_keep_their_variant_through_labeling() {
        // Only Config errors gain the spec-label prefix; a simulation error
        // must come back as TrainError::Simulation so callers can match on
        // it and walk its source() chain.
        let spec = ladder_campaign().specs[0].clone();
        let sim = TrainError::from(simkit::SimError::UnknownId { kind: "task", index: 7 });
        assert!(matches!(label_error(0, &spec, sim), TrainError::Simulation(_)));
        let config = TrainError::config("keep ratio out of range");
        let labelled = label_error(2, &spec, config);
        let message = labelled.to_string();
        assert!(matches!(labelled, TrainError::Config { .. }));
        assert!(message.contains("[2]"), "{message}");
        assert!(message.contains("GPT2-4.0B #SSD=6"), "{message}");
        assert_eq!(message.matches("invalid configuration").count(), 1, "{message}");
    }

    #[test]
    fn validation_errors_carry_the_spec_index_for_duplicate_labels() {
        // Two specs share a label; only the second is invalid. The index in
        // the error is the only way to tell them apart.
        let mut campaign = ladder_campaign();
        campaign.specs[1] = campaign.specs[1].clone().with_name("twin");
        campaign.specs[2] = campaign.specs[2].clone().with_name("twin");
        campaign.specs[2].method = MethodSpec::smart_comp(7.0);
        let err = campaign.validate().expect_err("second twin is invalid");
        assert!(err.to_string().contains("[2] `twin`"), "{err}");
        let err = campaign.run().expect_err("run validates too");
        assert!(err.to_string().contains("[2] `twin`"), "{err}");
    }

    #[test]
    fn invalid_specs_fail_before_anything_runs_with_the_label() {
        let mut campaign = ladder_campaign();
        campaign.specs[2].method = MethodSpec::smart_comp(7.0);
        let err = campaign.run().expect_err("invalid keep ratio");
        assert!(matches!(err, TrainError::Config { .. }), "{err}");
        assert!(err.to_string().contains("GPT2-4.0B #SSD=6"), "{err}");
        let err = campaign.validate().expect_err("validate finds it too");
        assert!(err.to_string().contains("keep ratio"), "{err}");
        assert!(Campaign::new(Vec::new()).run().is_err(), "empty campaigns are rejected");
        assert!(Campaign::new(Vec::new()).validate().is_err());
    }
}
