//! Deterministic trial planning: the matrix of tasks × variants × repeats,
//! each trial addressed by a stable content hash.

use crate::contract::Task;
use crate::{ExperimentConfig, LabError, Variant};
use serde::{Number, Value};
use smart_infinity::{canonical_json, fnv1a};
use std::fmt::Write as _;
use std::sync::Arc;

/// One planned trial: a (task, variant, repeat) cell of the experiment
/// matrix plus its stable id.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedTrial {
    /// The trial's position in the flat plan (task-major, then variant,
    /// then repeat) — the index sharding partitions on.
    pub index: usize,
    /// The trial's content address: the 16-hex-digit FNV-1a hash of the
    /// canonical JSON of `{defaults, repeat, seed, task, variant}`. A pure
    /// function of the experiment inputs — invariant to key order,
    /// whitespace, and number spelling — and the key the journal dedups on.
    pub trial_id: String,
    /// The task's id.
    pub task_id: String,
    /// The task's raw payload (spec or campaign ref), unresolved, shared
    /// with the task and every other trial of it.
    pub payload: Arc<Value>,
    /// The variant's name.
    pub variant: String,
    /// The variant's merge delta, if any.
    pub delta: Option<Value>,
    /// The repeat index, `0..repeats`.
    pub repeat: usize,
}

/// One cell of the trial matrix with its id, borrowing its task and
/// variant: a [`PlannedTrial`] before it takes its names, a share of the
/// payload and a copy of the delta. The runner plans cells and makes
/// trials only of the ones it executes, one wave at a time.
#[derive(Debug)]
pub(crate) struct TrialCell<'a> {
    pub(crate) index: usize,
    pub(crate) trial_id: String,
    pub(crate) task: &'a Task,
    pub(crate) variant: &'a Variant,
    pub(crate) repeat: usize,
}

impl TrialCell<'_> {
    /// The owned trial of this cell.
    pub(crate) fn to_planned(&self) -> PlannedTrial {
        PlannedTrial {
            index: self.index,
            trial_id: self.trial_id.clone(),
            task_id: self.task.task_id.clone(),
            payload: Arc::clone(&self.task.payload),
            variant: self.variant.name.clone(),
            delta: self.variant.delta.clone(),
            repeat: self.repeat,
        }
    }
}

fn unsigned(n: u64) -> Value {
    Value::Number(Number::from_literal(n.to_string()))
}

/// The canonical text of one object entry, `"key":value`, or nothing when
/// the value vanishes from a canonical object (null, or an all-null group).
fn canonical_entry(key: &str, value: Value) -> String {
    let object = canonical_json(&Value::Object(vec![(key.to_string(), value)]));
    object[1..object.len() - 1].to_string()
}

/// Plans the full trial matrix: for each task (file order), for each variant
/// (config order), for each repeat — a pure function of `(tasks, config)`,
/// no filesystem access, no clock, no randomness.
pub fn plan_trials(tasks: &[Task], config: &ExperimentConfig) -> Vec<PlannedTrial> {
    plan_cells(tasks, config).iter().map(TrialCell::to_planned).collect()
}

/// [`plan_trials`] as borrowing cells.
pub(crate) fn plan_cells<'a>(
    tasks: &'a [Task],
    config: &'a ExperimentConfig,
) -> Vec<TrialCell<'a>> {
    // A trial id hashes the canonical JSON of `{defaults, repeat, seed, task,
    // variant}` (see [`PlannedTrial::trial_id`]). Canonical form sorts the
    // keys and renders each entry on its own, so every entry but `repeat` is
    // rendered once per experiment, task or variant and the document is
    // spliced around the repeat's digits. Only `defaults` can vanish: the
    // seed is a number, and the task and variant are objects holding a
    // string.
    let defaults = canonical_entry("defaults", config.defaults.clone().unwrap_or(Value::Null));
    let head = if defaults.is_empty() { "{".to_string() } else { format!("{{{defaults},") };
    let seed = canonical_entry("seed", unsigned(config.seed()));
    let variants: Vec<String> = config
        .variants
        .iter()
        .map(|variant| {
            let document = Value::Object(vec![
                ("delta".to_string(), variant.delta.clone().unwrap_or(Value::Null)),
                ("name".to_string(), Value::String(variant.name.clone())),
            ]);
            canonical_entry("variant", document)
        })
        .collect();
    let mut document = String::new();
    let mut cells = Vec::with_capacity(tasks.len() * config.variants.len() * config.repeats());
    for task in tasks {
        let task_entry = canonical_entry("task", task.document());
        for (variant, variant_entry) in config.variants.iter().zip(&variants) {
            for repeat in 0..config.repeats() {
                document.clear();
                write!(document, "{head}\"repeat\":{repeat},{seed},{task_entry},{variant_entry}}}")
                    .expect("writing to a String cannot fail");
                cells.push(TrialCell {
                    index: cells.len(),
                    trial_id: format!("{:016x}", fnv1a(document.as_bytes())),
                    task,
                    variant,
                    repeat,
                });
            }
        }
    }
    cells
}

/// A `--shard i/N` selector: process `i` of `N` owns the trials whose flat
/// index is congruent to `i` modulo `N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This process's shard index, `0..count`.
    pub index: usize,
    /// The total number of shards.
    pub count: usize,
}

impl Shard {
    /// Parses the `i/N` CLI form.
    ///
    /// # Errors
    ///
    /// [`LabError::Config`] for malformed selectors and `i >= N`.
    pub fn parse(text: &str) -> Result<Self, LabError> {
        let invalid =
            || LabError::config(format!("invalid shard `{text}` (expected i/N with 0 <= i < N)"));
        let (index, count) = text.split_once('/').ok_or_else(invalid)?;
        let index: usize = index.trim().parse().map_err(|_| invalid())?;
        let count: usize = count.trim().parse().map_err(|_| invalid())?;
        if count == 0 || index >= count {
            return Err(invalid());
        }
        Ok(Shard { index, count })
    }

    /// Whether this shard owns the trial at flat plan index `index`.
    pub fn owns(&self, index: usize) -> bool {
        index % self.count == self.index
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The trial id's defining formula: the FNV-1a of the canonical JSON of
    /// the whole `{defaults, repeat, seed, task, variant}` document, built
    /// and canonicalized per trial. The planner's spliced ids must equal it.
    fn whole_document_id(
        config: &ExperimentConfig,
        task: &Task,
        variant: &Variant,
        repeat: usize,
    ) -> String {
        let doc = Value::Object(vec![
            ("defaults".to_string(), config.defaults.clone().unwrap_or(Value::Null)),
            ("repeat".to_string(), unsigned(repeat as u64)),
            ("seed".to_string(), unsigned(config.seed())),
            ("task".to_string(), task.document()),
            (
                "variant".to_string(),
                Value::Object(vec![
                    ("delta".to_string(), variant.delta.clone().unwrap_or(Value::Null)),
                    ("name".to_string(), Value::String(variant.name.clone())),
                ]),
            ),
        ]);
        format!("{:016x}", fnv1a(canonical_json(&doc).as_bytes()))
    }

    /// Names that need JSON escapes (a quote, a backslash, control
    /// characters) or are not ASCII, and plain ones.
    const NAMES: [&str; 6] =
        ["plain", "quo\"te", "back\\slash", "new\nline\t", "ü✓-名", "\u{1}ctl"];

    fn v(text: &str) -> Value {
        serde_json::parse(text).expect("test JSON parses")
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// Every planned trial equals the whole-document formula's: the same
        /// id, and the same task, payload, variant, delta and repeat, in
        /// task-major order. Covers absent, empty, all-null and set
        /// defaults; absent and set deltas; names and task ids that need
        /// escapes; seeds absent, small and above 2^53; and 1 to 5 repeats.
        #[test]
        fn planned_ids_equal_the_whole_document_formula(
            defaults_kind in 0usize..4,
            delta_bits in 0usize..8,
            name_pick in 0usize..216,
            seed_kind in 0usize..3,
            seed_bits in any::<u64>(),
            repeats in 1usize..6,
            tasks_n in 1usize..4,
        ) {
            let defaults = match defaults_kind {
                0 => None,
                1 => Some(v("{}")),
                2 => Some(v(r#"{"machine": {"devices": null}, "threads": null}"#)),
                _ => Some(v(r#"{"threads": 2, "machine": {"devices": 4}}"#)),
            };
            let seed = match seed_kind {
                0 => None,
                1 => Some(seed_bits % 1000),
                _ => Some((1u64 << 53) + seed_bits % (u64::MAX - (1u64 << 53))),
            };
            let variants: Vec<Variant> = (0..3)
                .map(|i| Variant {
                    name: format!("{}{i}", NAMES[(name_pick / 6 + i) % 6]),
                    delta: (delta_bits >> i & 1 == 1)
                        .then(|| v(&format!(r#"{{"machine": {{"devices": {}}}}}"#, i + 1))),
                })
                .collect();
            let config = ExperimentConfig {
                name: "p".to_string(),
                dataset: None,
                repeats: Some(repeats),
                seed,
                defaults,
                variants,
            };
            let tasks: Vec<Task> = (0..tasks_n)
                .map(|i| Task {
                    task_id: format!("{}{i}", NAMES[(name_pick + i) % 6]),
                    payload: Arc::new(v(&format!(
                        r#"{{"model": "GPT2-0.34B", "machine": {{"devices": {i}}}}}"#
                    ))),
                })
                .collect();

            let mut expected = Vec::new();
            for task in &tasks {
                for variant in &config.variants {
                    for repeat in 0..repeats {
                        expected.push(PlannedTrial {
                            index: expected.len(),
                            trial_id: whole_document_id(&config, task, variant, repeat),
                            task_id: task.task_id.clone(),
                            payload: task.payload.clone(),
                            variant: variant.name.clone(),
                            delta: variant.delta.clone(),
                            repeat,
                        });
                    }
                }
            }
            prop_assert_eq!(plan_trials(&tasks, &config), expected);
        }
    }

    fn mini_config() -> ExperimentConfig {
        ExperimentConfig::from_value(
            &serde_json::parse(
                r#"{"name": "t", "repeats": 2,
                    "variants": [{"name": "a"},
                                 {"name": "b", "delta": {"machine": {"devices": 4}}}]}"#,
            )
            .expect("test JSON parses"),
        )
        .expect("valid")
    }

    fn tasks() -> Vec<Task> {
        [
            r#"{"task_id": "t1", "model": "GPT2-0.34B"}"#,
            r#"{"task_id": "t2", "model": "GPT2-0.77B"}"#,
        ]
        .iter()
        .map(|line| Task::parse_line(line).expect("task parses"))
        .collect()
    }

    #[test]
    fn plan_is_task_major_and_ids_are_unique() {
        let plan = plan_trials(&tasks(), &mini_config());
        assert_eq!(plan.len(), 8);
        let order: Vec<_> =
            plan.iter().map(|t| (t.task_id.as_str(), t.variant.as_str(), t.repeat)).collect();
        assert_eq!(
            order,
            vec![
                ("t1", "a", 0),
                ("t1", "a", 1),
                ("t1", "b", 0),
                ("t1", "b", 1),
                ("t2", "a", 0),
                ("t2", "a", 1),
                ("t2", "b", 0),
                ("t2", "b", 1),
            ]
        );
        let mut ids: Vec<_> = plan.iter().map(|t| t.trial_id.clone()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 8, "trial ids must be unique");
        assert!(plan.iter().all(|t| t.trial_id.len() == 16));
    }

    #[test]
    fn ids_depend_on_seed_and_defaults() {
        let base = plan_trials(&tasks(), &mini_config());
        let mut reseeded_config = mini_config();
        reseeded_config.seed = Some(7);
        let reseeded = plan_trials(&tasks(), &reseeded_config);
        assert!(base.iter().zip(&reseeded).all(|(a, b)| a.trial_id != b.trial_id));
        let mut defaulted_config = mini_config();
        defaulted_config.defaults = Some(serde_json::parse(r#"{"threads": 2}"#).expect("parses"));
        let defaulted = plan_trials(&tasks(), &defaulted_config);
        assert!(base.iter().zip(&defaulted).all(|(a, b)| a.trial_id != b.trial_id));
    }

    #[test]
    fn shards_partition_the_plan() {
        let plan = plan_trials(&tasks(), &mini_config());
        for count in 1..=5 {
            let mut seen = 0;
            for index in 0..count {
                let shard = Shard { index, count };
                seen += plan.iter().filter(|t| shard.owns(t.index)).count();
            }
            assert_eq!(seen, plan.len());
        }
        assert!(Shard::parse("2/3").is_ok());
        assert!(Shard::parse("3/3").is_err());
        assert!(Shard::parse("0/0").is_err());
        assert!(Shard::parse("x").is_err());
    }
}
