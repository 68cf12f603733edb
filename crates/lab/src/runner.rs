//! The experiment runner: resolve specs, execute trials through the
//! campaign service, journal results, resume, shard, merge.

use crate::analysis::TrialRow;
use crate::contract::{json_merge, resolve_payload, HarnessResult, Task, TrialRecord};
use crate::plan::{plan_cells, TrialCell};
use crate::{ExperimentPaths, LabError, PlannedTrial, Shard, Variant};
use parcore::ParExecutor;
use serde::Value;
use smart_infinity::{CampaignService, RunSpec, ServiceConfig, ServiceReport};
use std::collections::{HashMap, HashSet};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use ztrain::IterationReport;

/// The name of the append-only journal inside an output directory.
pub const JOURNAL_FILE: &str = "trials.jsonl";

/// The name of the analysis subdirectory inside an output directory.
pub const ANALYSIS_DIR: &str = "analysis";

/// The most trials a run resolves, executes and journals at once: the
/// service's default `queue_depth`, so one [`ServiceExecutor`] call is one
/// service wave.
const WAVE: usize = 64;

// ---------------------------------------------------------------------------
// Executors
// ---------------------------------------------------------------------------

/// A successful trial execution: the method label plus the phase breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The method's figure label (`BASE`, `SU+O`, ...).
    pub method: String,
    /// The simulated iteration's phase breakdown.
    pub report: IterationReport,
}

/// The execution seam of the runner: turns resolved specs into outcomes.
/// The production implementation is [`ServiceExecutor`]; [`FixedExecutor`]
/// is a pure synthetic stand-in for plan-level tests and dry runs.
///
/// [`run_experiment`] may call it several times per run: once per wave of
/// at most 64 trials, the waves in plan order, each call's trials in plan
/// order, and one wave journaled before the next is resolved. Each call
/// must answer every trial it was given.
pub trait Executor {
    /// Executes one batch of resolved trials, returning one result per
    /// entry, in order. Errors are per-trial strings (they become `error`
    /// journal records, not run aborts).
    fn execute(&mut self, batch: &[(PlannedTrial, RunSpec)]) -> Vec<Result<RunOutcome, String>>;
}

/// The production executor: every spec goes through a
/// [`CampaignService`], so canonically equal specs (repeats, overlapping
/// variants) are executed once and answered from the content-addressed
/// cache thereafter. Each call submits its batch in waves of at most
/// `queue_depth` specs (as client 0), drains the wave in one dispatch cycle
/// on the executor's pool and awaits every job once, so the service holds
/// one wave of jobs at a time and nothing it has delivered.
pub struct ServiceExecutor {
    service: CampaignService,
    pool: ParExecutor,
}

impl ServiceExecutor {
    /// An executor running on `threads` workers with the default service
    /// config.
    pub fn new(threads: usize) -> Self {
        ServiceExecutor {
            service: CampaignService::new(ServiceConfig::default()),
            pool: ParExecutor::new(threads.max(1)),
        }
    }

    /// The service's counters (executions, cache hits, coalesced jobs).
    pub fn report(&self) -> ServiceReport {
        self.service.report()
    }
}

impl Executor for ServiceExecutor {
    fn execute(&mut self, batch: &[(PlannedTrial, RunSpec)]) -> Vec<Result<RunOutcome, String>> {
        let mut results = Vec::with_capacity(batch.len());
        // Submit in waves of at most `queue_depth` specs so a large batch
        // can never hit QueueFull (cache hits and coalesced submissions
        // don't queue, so the bound is conservative).
        for wave in batch.chunks(self.service.config().queue_depth) {
            let ids: Vec<_> = wave
                .iter()
                .map(|(_, spec)| self.service.submit(0, spec).map_err(|e| e.to_string()))
                .collect();
            self.service.drain(&self.pool);
            for id in ids {
                results.push(id.and_then(|id| {
                    self.service
                        .await_result(id, &self.pool)
                        .map(|job| RunOutcome {
                            method: job.report.method,
                            report: job.report.report,
                        })
                        .map_err(|e| e.to_string())
                }));
            }
        }
        results
    }
}

/// A pure synthetic executor: the outcome is a deterministic function of
/// the spec's content address, so tests can exercise planning, journaling,
/// sharding, and analysis without paying for real simulations.
#[derive(Debug, Default, Clone, Copy)]
pub struct FixedExecutor;

impl Executor for FixedExecutor {
    fn execute(&mut self, batch: &[(PlannedTrial, RunSpec)]) -> Vec<Result<RunOutcome, String>> {
        batch
            .iter()
            .map(|(_, spec)| {
                let key = spec.cache_key();
                let base = 0.5 + (key % 1000) as f64 / 1000.0;
                Ok(RunOutcome {
                    method: spec.method.to_string(),
                    report: IterationReport::new(base, 2.0 * base, 3.0 * base),
                })
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Tasks and journal I/O
// ---------------------------------------------------------------------------

/// Loads and validates a `tasks.jsonl` file (unique non-empty ids, one JSON
/// object per non-blank line).
///
/// # Errors
///
/// [`LabError`] for unreadable files, malformed lines, and duplicate ids.
pub fn load_tasks(path: &Path) -> Result<Vec<Task>, LabError> {
    let text = std::fs::read_to_string(path).map_err(|e| LabError::io(path, e))?;
    let mut tasks: Vec<Task> = Vec::new();
    for (index, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let task = Task::parse_line(line)
            .map_err(|e| LabError::config(format!("{}:{}: {e}", path.display(), index + 1)))?;
        if tasks.iter().any(|t| t.task_id == task.task_id) {
            return Err(LabError::config(format!(
                "{}:{}: duplicate task_id `{}`",
                path.display(),
                index + 1,
                task.task_id
            )));
        }
        tasks.push(task);
    }
    if tasks.is_empty() {
        return Err(LabError::config(format!("{}: no tasks", path.display())));
    }
    Ok(tasks)
}

/// Reads a `trials.jsonl` journal. A missing file is an empty journal. A
/// malformed *final* line is tolerated as the torn tail of a killed run —
/// it is dropped and reported in the returned warning — while a malformed
/// line anywhere else is corruption and errors out.
///
/// # Errors
///
/// [`LabError`] for unreadable files and non-final malformed lines.
pub fn read_journal(path: &Path) -> Result<(Vec<TrialRecord>, Option<String>), LabError> {
    if !path.exists() {
        return Ok((Vec::new(), None));
    }
    let text = std::fs::read_to_string(path).map_err(|e| LabError::io(path, e))?;
    let lines: Vec<(usize, &str)> =
        text.lines().enumerate().filter(|(_, line)| !line.trim().is_empty()).collect();
    let mut records = Vec::with_capacity(lines.len());
    let mut warning = None;
    for (position, (number, line)) in lines.iter().enumerate() {
        match TrialRecord::parse_line(line) {
            Ok(record) => records.push(record),
            Err(e) if position + 1 == lines.len() => {
                warning = Some(format!(
                    "{}:{}: dropping torn final journal line ({e})",
                    path.display(),
                    number + 1
                ));
            }
            Err(e) => {
                return Err(LabError::config(format!(
                    "{}:{}: corrupt journal: {e}",
                    path.display(),
                    number + 1
                )))
            }
        }
    }
    Ok((records, warning))
}

/// Writes `records` as canonical journal lines, one per record. A record's
/// result entries are rendered once per run of records with equal results
/// (the repeats of one (task, variant)), and one line buffer is reused.
fn write_records(out: &mut impl Write, records: &[TrialRecord]) -> std::io::Result<()> {
    let mut head: Option<(&TrialRecord, String)> = None;
    let mut line = String::new();
    for record in records {
        let entries = match head.take() {
            Some((last, entries)) if last.same_result(record) => entries,
            _ => record.result_entries(),
        };
        line.clear();
        line.push_str(&entries);
        record.push_identity(&mut line);
        line.push('\n');
        out.write_all(line.as_bytes())?;
        head = Some((record, entries));
    }
    Ok(())
}

/// Rewrites the journal to exactly `records` (used to repair a torn tail
/// before appending resumes). The lines go to a sibling temp file that is
/// then renamed over the journal, so a kill during the repair leaves either
/// the old journal or the repaired one, never a truncated one.
fn rewrite_journal(path: &Path, records: &[TrialRecord]) -> Result<(), LabError> {
    let mut temp = path.as_os_str().to_owned();
    temp.push(".tmp");
    let temp = PathBuf::from(temp);
    let written = std::fs::File::create(&temp).and_then(|file| {
        let mut out = BufWriter::new(file);
        write_records(&mut out, records)?;
        out.into_inner().map_err(|e| e.into_error())?.sync_all()
    });
    written.map_err(|e| LabError::io(&temp, e))?;
    std::fs::rename(&temp, path).map_err(|e| LabError::io(path, e))
}

/// Appends `records` to the journal, one canonical line each, creating the
/// file if needed.
///
/// # Errors
///
/// [`LabError::Io`] when the file cannot be opened or written.
pub fn append_records(path: &Path, records: &[TrialRecord]) -> Result<(), LabError> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| LabError::io(path, e))?;
    let mut out = BufWriter::new(file);
    write_records(&mut out, records).and_then(|()| out.flush()).map_err(|e| LabError::io(path, e))
}

/// Merges journal files: the union of their records, deduplicated by trial
/// id, in canonical (byte-wise sorted) line order. Merging the journals of
/// an `i/N`-sharded run reproduces the single-process journal's canonical
/// sort bit-identically.
///
/// # Errors
///
/// [`LabError::Config`] when two inputs disagree about a trial id's record
/// (same id, different bytes) or any line is malformed.
pub fn merge_journal_lines(inputs: &[(String, String)]) -> Result<Vec<String>, LabError> {
    let mut by_id: HashMap<String, String> = HashMap::new();
    let mut lines = Vec::new();
    for (source, text) in inputs {
        for (index, raw) in text.lines().enumerate() {
            if raw.trim().is_empty() {
                continue;
            }
            let record = TrialRecord::parse_line(raw)
                .map_err(|e| LabError::config(format!("{source}:{}: {e}", index + 1)))?;
            let line = record.to_line();
            match by_id.get(&record.trial_id) {
                None => {
                    by_id.insert(record.trial_id.clone(), line.clone());
                    lines.push(line);
                }
                Some(existing) if *existing == line => {}
                Some(_) => {
                    return Err(LabError::config(format!(
                        "{source}:{}: conflicting records for trial {}",
                        index + 1,
                        record.trial_id
                    )))
                }
            }
        }
    }
    lines.sort();
    Ok(lines)
}

// ---------------------------------------------------------------------------
// Spec resolution
// ---------------------------------------------------------------------------

/// Resolves one planned trial into its effective [`RunSpec`]:
/// `defaults ⊕ resolved-task-spec ⊕ variant.delta` under RFC 7386 merge,
/// named `task/variant#repeat` (presentation only — the name is excluded
/// from the spec's cache key, so repeats share one service execution).
///
/// # Errors
///
/// [`LabError`] for unresolvable campaign refs and specs the merge leaves
/// malformed.
pub fn resolve_trial_spec(
    trial: &PlannedTrial,
    defaults: Option<&Value>,
    base_dir: &Path,
) -> Result<RunSpec, LabError> {
    let context = |e| in_trial(&trial.trial_id, &trial.task_id, &trial.variant, e);
    let task = task_value(&trial.payload, base_dir).map_err(context)?;
    let spec = merged_spec(&task, defaults, trial.delta.as_ref()).map_err(context)?;
    Ok(spec.with_name(trial_name(&trial.task_id, &trial.variant, trial.repeat)))
}

/// The first step of [`resolve_trial_spec`], a function of the task alone:
/// the task's spec as a canonical value tree.
fn task_value(payload: &Value, base_dir: &Path) -> Result<Value, LabError> {
    let spec = resolve_payload(payload, base_dir)?;
    // The canonical form drops unset optionals; merging the raw serialized
    // form instead would let its explicit nulls delete defaults (RFC 7386
    // treats null as removal).
    Ok(serde_json::parse(&spec.canonical_json()).expect("canonical JSON parses"))
}

/// The second step of [`resolve_trial_spec`], a function of the task and the
/// variant: `defaults ⊕ task ⊕ delta`, unnamed.
fn merged_spec(
    task: &Value,
    defaults: Option<&Value>,
    delta: Option<&Value>,
) -> Result<RunSpec, LabError> {
    let with_defaults = defaults.map(|defaults| json_merge(defaults, task));
    let effective = with_defaults.as_ref().unwrap_or(task);
    let with_delta = delta.map(|delta| json_merge(effective, delta));
    serde_json::from_value(with_delta.as_ref().unwrap_or(effective))
        .map_err(|e| LabError::config(format!("merged spec is invalid: {e}")))
}

/// A resolution failure, prefixed with the trial it failed for.
fn in_trial(trial_id: &str, task_id: &str, variant: &str, e: LabError) -> LabError {
    LabError::config(format!("trial {trial_id} (task `{task_id}`, variant `{variant}`): {e}"))
}

/// A resolved spec's presentation name.
fn trial_name(task_id: &str, variant: &str, repeat: usize) -> String {
    format!("{task_id}/{variant}#{repeat}")
}

/// [`resolve_trial_spec`] for the runner's cells, with both steps memoized
/// for the cells in hand: the task value of the last task resolved and the
/// merged spec of its last variant. A run resolves its pending cells in plan
/// order, which is task-major and then variant-major, so each task's value is
/// still computed once and each (task, variant)'s spec once. Failures are not
/// memoized, so every trial's error names that trial.
struct Resolver<'a> {
    defaults: Option<&'a Value>,
    base_dir: &'a Path,
    task: Option<(&'a Task, Value)>,
    spec: Option<(&'a Variant, RunSpec)>,
}

impl<'a> Resolver<'a> {
    fn resolve(&mut self, cell: &TrialCell<'a>) -> Result<RunSpec, LabError> {
        let (task, variant) = (cell.task, cell.variant);
        let context = |e| in_trial(&cell.trial_id, &task.task_id, &variant.name, e);
        if !self.task.as_ref().is_some_and(|(held, _)| std::ptr::eq(*held, task)) {
            // A memoized spec belongs to the task it was merged from.
            self.spec = None;
            self.task = Some((task, task_value(&task.payload, self.base_dir).map_err(context)?));
        }
        if !self.spec.as_ref().is_some_and(|(held, _)| std::ptr::eq(*held, variant)) {
            let value = &self.task.as_ref().expect("resolved above").1;
            let spec =
                merged_spec(value, self.defaults, variant.delta.as_ref()).map_err(context)?;
            self.spec = Some((variant, spec));
        }
        let spec = &self.spec.as_ref().expect("resolved above").1;
        Ok(spec.clone().with_name(trial_name(&task.task_id, &variant.name, cell.repeat)))
    }
}

// ---------------------------------------------------------------------------
// The run itself
// ---------------------------------------------------------------------------

/// Options of one `lab run` invocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Restrict execution to one shard of the plan.
    pub shard: Option<Shard>,
    /// Stop after this many newly executed trials (the kill half of the
    /// kill-and-resume contract, in controllable form).
    pub halt_after: Option<usize>,
}

/// What one `lab run` invocation did.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Trials in the full plan.
    pub planned: usize,
    /// Trials this invocation was responsible for (the shard's slice).
    pub in_scope: usize,
    /// Of those, already journaled before this invocation.
    pub journaled: usize,
    /// Newly executed (and journaled) by this invocation.
    pub executed: usize,
    /// Of the newly executed, how many recorded an `error` outcome.
    pub errors: usize,
    /// Whether the run stopped at `halt_after` with work remaining.
    pub halted: bool,
    /// Whether analysis tables were (re)written — true only when the
    /// journal covers the *full* plan, so shard journals never emit
    /// partial tables.
    pub analysis_written: bool,
    /// Non-fatal warnings (e.g. a repaired torn journal line).
    pub warnings: Vec<String>,
}

/// The journal record of one executed trial: the trial's identity plus the
/// built-in harness's result for it.
fn record_for(cell: &TrialCell, result: &HarnessResult) -> TrialRecord {
    TrialRecord {
        trial_id: cell.trial_id.clone(),
        task_id: cell.task.task_id.clone(),
        variant: cell.variant.name.clone(),
        repeat: cell.repeat,
        outcome: result.outcome.clone(),
        objective: result.objective.clone(),
        metrics: result.metrics.clone(),
        error: result.error.clone(),
    }
}

/// Runs (or resumes) an experiment: plans the matrix, skips journaled
/// trials, executes the rest through `executor`, appends journal records,
/// and — when the journal covers the whole plan — writes the analysis
/// tables under `out_dir/analysis/`.
///
/// The journal grows wave by wave: the pending trials are resolved,
/// executed and appended in plan order, at most 64 at a time, so a run
/// holds one wave of trials (plus, per journaled trial, its id, success and
/// objective) and a kill loses at most the wave in flight.
///
/// # Errors
///
/// [`LabError`] for unloadable inputs, corrupt journals, and output I/O
/// failures. Per-trial failures do *not* error the run; they are journaled
/// as `error` records and counted in [`RunSummary::errors`].
pub fn run_experiment(
    experiment: &Path,
    out_dir: &Path,
    options: &RunOptions,
    executor: &mut dyn Executor,
) -> Result<RunSummary, LabError> {
    let (paths, config) = ExperimentPaths::resolve(experiment)?;
    let tasks = load_tasks(&paths.tasks)?;
    let plan = plan_cells(&tasks, &config);

    std::fs::create_dir_all(out_dir).map_err(|e| LabError::io(out_dir, e))?;
    let journal_path = out_dir.join(JOURNAL_FILE);
    let (records, torn) = read_journal(&journal_path)?;
    let mut warnings = Vec::new();
    if let Some(message) = torn {
        rewrite_journal(&journal_path, &records)?;
        warnings.push(message);
    }
    // The run keeps of each journaled trial only what the analysis reads.
    let mut rows: Vec<TrialRow> = records.into_iter().map(TrialRow::from).collect();
    let done: HashSet<&str> = rows.iter().map(|r| r.trial_id.as_str()).collect();

    let in_scope: Vec<&TrialCell> =
        plan.iter().filter(|t| options.shard.map_or(true, |s| s.owns(t.index))).collect();
    let journaled = in_scope.iter().filter(|t| done.contains(t.trial_id.as_str())).count();
    let mut pending: Vec<&TrialCell> =
        in_scope.iter().copied().filter(|t| !done.contains(t.trial_id.as_str())).collect();
    let halted = match options.halt_after {
        Some(limit) if pending.len() > limit => {
            pending.truncate(limit);
            true
        }
        _ => false,
    };

    // Resolve, execute and journal the pending trials one wave at a time, in
    // plan order: resolution failures become error records, successes go to
    // the executor, and each wave's records are appended before the next wave
    // is resolved. A harness result is built once per run of equal outcomes
    // (the repeats of one (task, variant)), across waves too.
    let mut resolver = Resolver {
        defaults: config.defaults.as_ref(),
        base_dir: &paths.base_dir,
        task: None,
        spec: None,
    };
    let mut last: Option<(Result<RunOutcome, String>, HarnessResult)> = None;
    let (mut executed, mut errors) = (0, 0);
    if pending.is_empty() {
        // Nothing to run still leaves a journal, as a shard with an empty
        // slice must.
        append_records(&journal_path, &[])?;
    }
    for wave in pending.chunks(WAVE) {
        let mut batch = Vec::with_capacity(wave.len());
        let mut failures = Vec::with_capacity(wave.len());
        for trial in wave {
            match resolver.resolve(trial) {
                Ok(spec) => {
                    batch.push((trial.to_planned(), spec));
                    failures.push(None);
                }
                Err(e) => failures.push(Some(e.to_string())),
            }
        }
        let outcomes = if batch.is_empty() { Vec::new() } else { executor.execute(&batch) };
        debug_assert_eq!(outcomes.len(), batch.len(), "executor must answer every trial");
        let mut outcomes = outcomes.into_iter();
        let mut wave_records = Vec::with_capacity(wave.len());
        for (trial, failure) in wave.iter().zip(failures) {
            let outcome = match failure {
                Some(message) => Err(message),
                None => outcomes.next().expect("executor must answer every trial"),
            };
            let result = match last.take() {
                Some((previous, result)) if previous == outcome => result,
                _ => match &outcome {
                    Ok(run) => HarnessResult::simulated(run.method.clone(), &run.report),
                    Err(message) => HarnessResult::failure(message.clone()),
                },
            };
            wave_records.push(record_for(trial, &result));
            last = Some((outcome, result));
        }
        append_records(&journal_path, &wave_records)?;
        executed += wave_records.len();
        errors += wave_records.iter().filter(|r| !r.is_success()).count();
        rows.extend(wave_records.into_iter().map(TrialRow::from));
    }

    // Analysis: only once the journal covers the full plan (a shard run of
    // N > 1 never does on its own; merge the journals first).
    let journaled_ids: HashSet<&str> = rows.iter().map(|r| r.trial_id.as_str()).collect();
    let complete = plan.iter().all(|t| journaled_ids.contains(t.trial_id.as_str()));
    let analysis_written = if complete {
        let keys = plan
            .iter()
            .map(|t| (t.trial_id.as_str(), t.task.task_id.as_str(), t.variant.name.as_str()));
        let tables = crate::analysis::tables(keys, &rows)?;
        crate::write_analysis(&out_dir.join(ANALYSIS_DIR), &tables)?;
        true
    } else {
        false
    };

    Ok(RunSummary {
        planned: plan.len(),
        in_scope: in_scope.len(),
        journaled,
        executed,
        errors,
        halted,
        analysis_written,
        warnings,
    })
}
