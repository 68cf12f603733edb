//! The experiment config: dataset, variants, repeats, runtime defaults.

use crate::LabError;
use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};

/// The most repeats an experiment may ask for. The simulations are
/// deterministic, so repeats past a few only grow the plan and the journal.
const MAX_REPEATS: usize = 1000;

/// One experiment variant: a named RFC 7386 merge delta applied over every
/// task's spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Variant {
    /// The variant's name, unique within the experiment; the key analysis
    /// tables group by.
    pub name: String,
    /// The spec delta; omitted means "run the task's spec as-is".
    pub delta: Option<Value>,
}

/// The `experiment.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// The experiment's name.
    pub name: String,
    /// The tasks file, relative to the experiment file's directory
    /// (default `tasks.jsonl`).
    pub dataset: Option<String>,
    /// How many times each (task, variant) pair runs (default 1, at most
    /// 1000). The simulations are deterministic, so repeats exercise the
    /// runner's dedup/caching path rather than sampling noise.
    pub repeats: Option<usize>,
    /// The experiment seed, folded into every trial id (default 0).
    /// Changing it invalidates all journal entries.
    pub seed: Option<u64>,
    /// Runtime defaults merged *under* every task's spec (lowest
    /// precedence: `defaults ⊕ task ⊕ variant.delta`).
    pub defaults: Option<Value>,
    /// The variants, in table order; at least one.
    pub variants: Vec<Variant>,
}

impl ExperimentConfig {
    /// The configured repeats, defaulted.
    pub fn repeats(&self) -> usize {
        self.repeats.unwrap_or(1)
    }

    /// The configured seed, defaulted.
    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(0)
    }

    /// The configured dataset file name, defaulted.
    pub fn dataset(&self) -> &str {
        self.dataset.as_deref().unwrap_or("tasks.jsonl")
    }

    /// Checks the config's internal consistency.
    ///
    /// # Errors
    ///
    /// [`LabError::Config`] for zero or more than 1000 repeats, an empty
    /// dataset name, no variants, duplicate or empty variant names, and
    /// non-object `defaults` / `delta` values.
    pub fn validate(&self) -> Result<(), LabError> {
        if !(1..=MAX_REPEATS).contains(&self.repeats()) {
            return Err(LabError::config(format!(
                "repeats must be 1 to {MAX_REPEATS}, got {}",
                self.repeats()
            )));
        }
        if self.dataset.as_deref() == Some("") {
            return Err(LabError::config("dataset must not be empty"));
        }
        if let Some(defaults) = &self.defaults {
            if !matches!(defaults, Value::Object(_)) {
                return Err(LabError::config(format!(
                    "defaults must be a JSON object, found {}",
                    defaults.type_name()
                )));
            }
        }
        if self.variants.is_empty() {
            return Err(LabError::config("an experiment needs at least one variant"));
        }
        for (index, variant) in self.variants.iter().enumerate() {
            if variant.name.is_empty() {
                return Err(LabError::config(format!("variant #{index} has an empty name")));
            }
            if self.variants[..index].iter().any(|v| v.name == variant.name) {
                return Err(LabError::config(format!("duplicate variant name `{}`", variant.name)));
            }
            if let Some(delta) = &variant.delta {
                if !matches!(delta, Value::Object(_)) {
                    return Err(LabError::config(format!(
                        "variant `{}`: delta must be a JSON object, found {}",
                        variant.name,
                        delta.type_name()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Parses and validates a config from a parsed document.
    ///
    /// # Errors
    ///
    /// [`LabError::Config`] for shape and consistency violations.
    pub fn from_value(value: &Value) -> Result<Self, LabError> {
        let config: ExperimentConfig = serde_json::from_value(value)
            .map_err(|e| LabError::config(format!("invalid experiment config: {e}")))?;
        config.validate()?;
        Ok(config)
    }

    /// Loads and validates a JSON config file.
    ///
    /// # Errors
    ///
    /// [`LabError`] for unreadable files, invalid documents, and — by name,
    /// before anything is read — `.yaml` / `.yml` paths: experiment configs
    /// are JSON only.
    pub fn load(path: &Path) -> Result<Self, LabError> {
        let in_file = |e: String| LabError::config(format!("{}: {e}", path.display()));
        if matches!(path.extension().and_then(|e| e.to_str()), Some("yaml" | "yml")) {
            return Err(in_file("experiment configs are JSON (experiment.json), not YAML".into()));
        }
        let text = std::fs::read_to_string(path).map_err(|e| LabError::io(path, e))?;
        let value = serde_json::parse(&text).map_err(|e| in_file(e.to_string()))?;
        Self::from_value(&value).map_err(|e| in_file(e.to_string()))
    }
}

/// The resolved on-disk locations of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentPaths {
    /// The experiment config file.
    pub config: PathBuf,
    /// The tasks file ([`ExperimentConfig::dataset`], resolved).
    pub tasks: PathBuf,
    /// The directory campaign refs resolve against (the config's parent).
    pub base_dir: PathBuf,
}

impl ExperimentPaths {
    /// Resolves `path` — either an experiment file or a directory holding
    /// `experiment.json` — and the config's dataset location.
    ///
    /// # Errors
    ///
    /// [`LabError`] when no experiment file exists at `path` or the config
    /// fails to load.
    pub fn resolve(path: &Path) -> Result<(Self, ExperimentConfig), LabError> {
        let config_path =
            if path.is_dir() { path.join("experiment.json") } else { path.to_path_buf() };
        let config = ExperimentConfig::load(&config_path)?;
        let base_dir = config_path.parent().unwrap_or(Path::new(".")).to_path_buf();
        let tasks = base_dir.join(config.dataset());
        Ok((ExperimentPaths { config: config_path, tasks, base_dir }, config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(text: &str) -> Result<ExperimentConfig, LabError> {
        ExperimentConfig::from_value(&serde_json::parse(text).expect("test JSON parses"))
    }

    #[test]
    fn defaults_fill_in() {
        let c = config(r#"{"name": "x", "variants": [{"name": "base"}]}"#).expect("valid");
        assert_eq!(c.repeats(), 1);
        assert_eq!(c.seed(), 0);
        assert_eq!(c.dataset(), "tasks.jsonl");
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(config(r#"{"name": "x", "variants": []}"#).is_err());
        assert!(config(r#"{"name": "x", "repeats": 0, "variants": [{"name": "a"}]}"#).is_err());
        // A repeat count the plan could not even allocate.
        let huge = r#"{"name": "x", "repeats": 18446744073709551615, "variants": [{"name": "a"}]}"#;
        assert!(matches!(config(huge), Err(LabError::Config(_))));
        assert!(config(r#"{"name": "x", "variants": [{"name": "a"}, {"name": "a"}]}"#).is_err());
        assert!(config(r#"{"name": "x", "variants": [{"name": ""}]}"#).is_err());
        assert!(config(r#"{"name": "x", "variants": [{"name": "a", "delta": 3}]}"#).is_err());
        assert!(config(r#"{"name": "x", "defaults": [1], "variants": [{"name": "a"}]}"#).is_err());
        assert!(config(r#"{"name": "x", "dataset": "", "variants": [{"name": "a"}]}"#).is_err());
        assert!(config(r#"{"name": "x", "variants": [{"name": "a"}], "extra": 1}"#).is_err());
    }

    #[test]
    fn yaml_paths_are_refused_by_name() {
        // Refused before the file is opened: the path does not exist.
        for name in ["experiment.yaml", "no/such/dir/experiment.yml"] {
            let err = ExperimentConfig::load(Path::new(name)).expect_err("YAML is not accepted");
            assert!(matches!(err, LabError::Config(_)), "{err:?}");
            assert!(err.to_string().contains("experiment configs are JSON"), "{err}");
        }
    }
}
