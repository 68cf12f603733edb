//! End-to-end contract tests of the `lab` experiment runner: plan purity,
//! shard-union bit-identity, kill-and-resume byte-identity, agreement with
//! a direct `Session` run of every checked-in spec file, and the `sched`
//! experiment's variants pinned to the engine's scheduler names.

use lab::runner::append_records;
use lab::{
    merge_journal_lines, plan_trials, run_experiment, Executor, ExperimentConfig, FixedExecutor,
    Objective, PlannedTrial, RunOptions, RunOutcome, Shard, Task, TrialRecord,
};
use proptest::prelude::*;
use smart_infinity::{Campaign, MachineSpec, RunSpec};
use std::path::{Path, PathBuf};

const SPECS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
const MINI: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/experiments/mini");
const HETERO: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/experiments/hetero");
const SCHED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/experiments/sched");
const WAVES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/experiments/waves");

/// A fresh per-test scratch directory under the system temp dir (the
/// workspace has no tempfile crate; the process id plus a per-test tag keeps
/// parallel test binaries apart).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lab-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn sorted_lines(text: &str) -> Vec<String> {
    let mut lines: Vec<String> =
        text.lines().filter(|l| !l.trim().is_empty()).map(str::to_string).collect();
    lines.sort();
    lines
}

// ---------------------------------------------------------------------------
// Plan purity
// ---------------------------------------------------------------------------

proptest! {
    /// Planning is a pure function of the experiment inputs: re-planning
    /// yields the same ids, and so does re-expressing the same task and
    /// config documents with their keys in a different order.
    #[test]
    fn plan_is_pure_and_key_order_invariant(
        seed in 0u64..1_000_000,
        repeats in 1usize..4,
        devices in 1usize..64,
    ) {
        let task_a = Task::parse_line(&format!(
            r#"{{"task_id": "t", "model": "GPT2-0.34B", "machine": {{"devices": {devices}}}}}"#
        )).expect("task parses");
        let task_b = Task::parse_line(&format!(
            r#"{{"machine": {{"devices": {devices}}}, "model": "GPT2-0.34B", "task_id": "t"}}"#
        )).expect("reordered task parses");

        let config_a = ExperimentConfig::from_value(&serde_json::parse(&format!(
            r#"{{"name": "p", "seed": {seed}, "repeats": {repeats},
                 "defaults": {{"threads": 2}},
                 "variants": [{{"name": "v", "delta": {{"method": {{"overlap": true}}}}}}]}}"#
        )).expect("json")).expect("config");
        let config_b = ExperimentConfig::from_value(&serde_json::parse(&format!(
            r#"{{"variants": [{{"delta": {{"method": {{"overlap": true}}}}, "name": "v"}}],
                 "defaults": {{"threads": 2}},
                 "repeats": {repeats}, "seed": {seed}, "name": "p"}}"#
        )).expect("json")).expect("reordered config");

        let ids = |tasks: &[Task], config: &ExperimentConfig| -> Vec<String> {
            plan_trials(tasks, config).into_iter().map(|t| t.trial_id).collect()
        };
        let reference = ids(std::slice::from_ref(&task_a), &config_a);
        prop_assert_eq!(reference.len(), repeats);
        // Purity: same inputs, same plan.
        prop_assert_eq!(&reference, &ids(std::slice::from_ref(&task_a), &config_a));
        // Key order of the task and config documents is immaterial.
        prop_assert_eq!(&reference, &ids(std::slice::from_ref(&task_b), &config_a));
        prop_assert_eq!(&reference, &ids(&[task_a], &config_b));
        prop_assert_eq!(&reference, &ids(&[task_b], &config_b));
    }

    /// For every shard count the ISSUE pins (N ∈ {1, 2, 3, 5}), the shards'
    /// slices are disjoint and their union is exactly the full plan.
    #[test]
    fn shards_partition_every_plan(
        tasks_n in 1usize..4,
        variants_n in 1usize..4,
        repeats in 1usize..4,
    ) {
        let tasks: Vec<Task> = (0..tasks_n)
            .map(|i| {
                Task::parse_line(&format!(r#"{{"task_id": "t{i}", "model": "GPT2-0.34B"}}"#))
                    .expect("task parses")
            })
            .collect();
        let variants: Vec<String> =
            (0..variants_n).map(|i| format!(r#"{{"name": "v{i}"}}"#)).collect();
        let config = ExperimentConfig::from_value(&serde_json::parse(&format!(
            r#"{{"name": "p", "repeats": {repeats}, "variants": [{}]}}"#,
            variants.join(", ")
        )).expect("json")).expect("config");
        let plan = plan_trials(&tasks, &config);
        prop_assert_eq!(plan.len(), tasks_n * variants_n * repeats);
        for count in [1usize, 2, 3, 5] {
            let mut owned = vec![0usize; plan.len()];
            for index in 0..count {
                let shard = Shard { index, count };
                for trial in plan.iter().filter(|t| shard.owns(t.index)) {
                    owned[trial.index] += 1;
                }
            }
            prop_assert!(owned.iter().all(|&n| n == 1), "shards {count}: {owned:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// Journal-level shard and resume identity (synthetic executor)
// ---------------------------------------------------------------------------

/// Runs the checked-in mini experiment straight through, then as N shard
/// processes for each N the ISSUE pins; the merged shard journals must be
/// bit-identical to the canonical sort of the single-process journal.
#[test]
fn shard_journals_merge_bit_identical_to_straight_run() {
    let straight = scratch("shard-straight");
    let summary =
        run_experiment(Path::new(MINI), &straight, &RunOptions::default(), &mut FixedExecutor)
            .expect("straight run");
    assert_eq!(summary.executed, summary.planned);
    assert_eq!(summary.errors, 0);
    assert!(summary.analysis_written);
    let reference = sorted_lines(&read(&straight.join("trials.jsonl")));

    for count in [1usize, 2, 3, 5] {
        let mut inputs = Vec::new();
        for index in 0..count {
            let out = scratch(&format!("shard-{index}of{count}"));
            let options = RunOptions { shard: Some(Shard { index, count }), halt_after: None };
            let summary = run_experiment(Path::new(MINI), &out, &options, &mut FixedExecutor)
                .expect("shard run");
            assert_eq!(summary.executed, summary.in_scope);
            // A shard of a multi-process run must never write partial tables.
            assert_eq!(summary.analysis_written, count == 1);
            inputs.push((format!("{index}/{count}"), read(&out.join("trials.jsonl"))));
        }
        let merged = merge_journal_lines(&inputs).expect("merge");
        assert_eq!(merged, reference, "merge of {count} shard journals");
    }
}

/// Kill-and-resume: a run halted after 4 fresh trials, resumed to completion,
/// and re-invoked once more must re-execute zero trials, and both the journal
/// and the analysis tables must be byte-identical to an uninterrupted run.
#[test]
fn resume_reexecutes_nothing_and_reproduces_analysis_bytes() {
    let straight = scratch("resume-straight");
    run_experiment(Path::new(MINI), &straight, &RunOptions::default(), &mut FixedExecutor)
        .expect("straight run");

    let resumed = scratch("resume-killed");
    let halted = run_experiment(
        Path::new(MINI),
        &resumed,
        &RunOptions { shard: None, halt_after: Some(4) },
        &mut FixedExecutor,
    )
    .expect("halted run");
    assert!(halted.halted);
    assert_eq!(halted.executed, 4);
    assert!(!halted.analysis_written);

    let finish =
        run_experiment(Path::new(MINI), &resumed, &RunOptions::default(), &mut FixedExecutor)
            .expect("resume run");
    assert_eq!(finish.journaled, 4);
    assert_eq!(finish.executed, finish.planned - 4);
    assert!(finish.analysis_written);

    let idle =
        run_experiment(Path::new(MINI), &resumed, &RunOptions::default(), &mut FixedExecutor)
            .expect("idempotent re-run");
    assert_eq!(idle.executed, 0, "a finished journal must re-execute zero trials");
    assert_eq!(idle.journaled, idle.planned);

    // The resumed journal is plan-ordered like the straight one — identical
    // without any sort — and the analysis tables match byte for byte.
    assert_eq!(read(&resumed.join("trials.jsonl")), read(&straight.join("trials.jsonl")));
    for table in ["variants.jsonl", "variant_tasks.jsonl"] {
        assert_eq!(
            read(&resumed.join("analysis").join(table)),
            read(&straight.join("analysis").join(table)),
            "analysis table {table}"
        );
    }
}

/// The journal line's defining formula: the whole record serialized, parsed
/// back and canonicalized.
fn whole_record_line(record: &TrialRecord) -> String {
    let text = serde_json::to_string(record).expect("serializes");
    smart_infinity::canonical_json(&serde_json::parse(&text).expect("parses"))
}

/// The bytes `append_records` writes are the whole-record lines, one per
/// record: through runs of equal results, a change of result (so no stale
/// rendering is reused), equal error texts and error texts that need
/// escapes, and a second append to the same file.
#[test]
fn appended_lines_equal_the_whole_record_formula() {
    let record = |trial_id: &str, outcome: Result<f64, &str>| {
        let (objective, metrics, error) = match outcome {
            Ok(value) => (
                Some(Objective { name: "iteration_s".into(), value }),
                serde_json::parse(&format!(r#"{{"method": "SU", "total_s": {value}}}"#))
                    .expect("parses"),
                None,
            ),
            Err(message) => (None, serde::Value::Object(Vec::new()), Some(message.to_string())),
        };
        TrialRecord {
            trial_id: trial_id.into(),
            task_id: "t\"1".into(),
            variant: "ü".into(),
            repeat: trial_id.len(),
            outcome: if error.is_some() { "error" } else { "success" }.into(),
            objective,
            metrics,
            error,
        }
    };
    let first = vec![
        record("a", Ok(1.5)),
        record("bb", Ok(1.5)),
        record("ccc", Ok(2.25)),
        record("d", Ok(1.5)),
        record("e", Err("a \"quote\",\na newline, non-ASCII ✓")),
        record("f", Err("a \"quote\",\na newline, non-ASCII ✓")),
        record("g", Err("another")),
        record("h", Ok(2.25)),
    ];
    let second = vec![record("i", Ok(0.1 + 0.2)), record("j", Err("x"))];
    let dir = scratch("append-lines");
    let journal = dir.join("trials.jsonl");
    append_records(&journal, &first).expect("first append");
    append_records(&journal, &second).expect("second append");
    let expected: String =
        first.iter().chain(&second).map(|r| whole_record_line(r) + "\n").collect();
    assert_eq!(read(&journal), expected);
}

/// A trial whose spec fails to resolve is journaled as an `error` record,
/// and every repeat's error names that repeat's own trial id: a failure is
/// never answered from the memo of an earlier repeat. Covers a campaign ref
/// to a missing file (the task step fails) and a delta that leaves the spec
/// malformed (the merge step fails).
#[test]
fn each_repeat_of_an_unresolvable_trial_journals_its_own_id() {
    let exp = scratch("unresolvable-exp");
    std::fs::write(
        exp.join("experiment.json"),
        r#"{"name": "unresolvable", "repeats": 3,
            "variants": [{"name": "as_is"},
                         {"name": "bad", "delta": {"machine": {"devices": "many"}}}]}"#,
    )
    .expect("write config");
    std::fs::write(
        exp.join("tasks.jsonl"),
        concat!(
            r#"{"task_id": "ok", "model": "GPT2-0.34B", "machine": {"devices": 2}, "method": {"offload": true, "in_storage_update": false, "overlap": false, "pipelined": false}}"#,
            "\n",
            r#"{"task_id": "gone", "campaign": "missing.json", "index": 0}"#,
            "\n",
        ),
    )
    .expect("write tasks");
    let out = scratch("unresolvable-out");
    let summary = run_experiment(&exp, &out, &RunOptions::default(), &mut FixedExecutor)
        .expect("per-trial failures do not fail the run");
    // `ok/as_is` succeeds; `ok/bad`, `gone/as_is` and `gone/bad` fail, 3 repeats each.
    assert_eq!((summary.planned, summary.errors), (12, 9));

    let text = read(&out.join("trials.jsonl"));
    let (records, warning) = lab::read_journal(&out.join("trials.jsonl")).expect("journal");
    assert!(warning.is_none());
    let expected: String = records.iter().map(|r| whole_record_line(r) + "\n").collect();
    assert_eq!(text, expected);
    let ids: Vec<&str> = records.iter().map(|r| r.trial_id.as_str()).collect();
    for record in records.iter().filter(|r| !r.is_success()) {
        let error = record.error.as_deref().expect("error records carry their error");
        assert!(error.starts_with(&format!("trial {} (", record.trial_id)), "{error}");
        let named: Vec<&&str> = ids.iter().filter(|id| error.contains(**id)).collect();
        assert_eq!(named, vec![&record.trial_id.as_str()], "{error}");
    }
}

/// A journal with a torn final line (a kill mid-append) is repaired before
/// the resume appends: the repaired and completed journal equals the
/// straight run's, the warning names the dropped line, and the sibling
/// temp file the repair writes through is renamed away.
#[test]
fn a_torn_journal_is_repaired_through_a_renamed_sibling() {
    let straight = scratch("torn-straight");
    run_experiment(Path::new(MINI), &straight, &RunOptions::default(), &mut FixedExecutor)
        .expect("straight run");

    let torn = scratch("torn-resumed");
    let options = RunOptions { shard: None, halt_after: Some(3) };
    run_experiment(Path::new(MINI), &torn, &options, &mut FixedExecutor).expect("halted run");
    let journal = torn.join("trials.jsonl");
    let mut text = read(&journal);
    text.push_str(r#"{"error":"half a li"#);
    std::fs::write(&journal, text).expect("tear the journal");

    let finish = run_experiment(Path::new(MINI), &torn, &RunOptions::default(), &mut FixedExecutor)
        .expect("resume run");
    assert_eq!(finish.journaled, 3);
    assert_eq!(finish.executed, finish.planned - 3);
    assert_eq!(finish.warnings.len(), 1, "{:?}", finish.warnings);
    assert!(finish.warnings[0].contains("torn final journal line"), "{:?}", finish.warnings);
    assert_eq!(read(&journal), read(&straight.join("trials.jsonl")));
    let mut entries: Vec<String> = std::fs::read_dir(&torn)
        .expect("listable")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    entries.sort();
    assert_eq!(entries, ["analysis", "trials.jsonl"]);
}

// ---------------------------------------------------------------------------
// Wave-by-wave streaming (the 204-trial `waves` experiment)
// ---------------------------------------------------------------------------

/// The most trials one executor call may be given.
const WAVE: usize = 64;

/// Answers as [`FixedExecutor`] does, and records for each call the trial ids
/// it was given and the trial ids the journal held when the call began. A
/// call numbered `kill_in` (1-based) panics instead of answering, as a
/// process killed mid-wave would stop.
struct Recording {
    journal: PathBuf,
    kill_in: Option<usize>,
    calls: Vec<(Vec<String>, Vec<String>)>,
}

impl Recording {
    fn new(out: &Path, kill_in: Option<usize>) -> Self {
        Recording { journal: out.join("trials.jsonl"), kill_in, calls: Vec::new() }
    }
}

impl Executor for Recording {
    fn execute(&mut self, batch: &[(PlannedTrial, RunSpec)]) -> Vec<Result<RunOutcome, String>> {
        let (records, _) = lab::read_journal(&self.journal).expect("the journal reads");
        let journaled = records.into_iter().map(|r| r.trial_id).collect();
        self.calls.push((batch.iter().map(|(t, _)| t.trial_id.clone()).collect(), journaled));
        assert_ne!(self.kill_in, Some(self.calls.len()), "killed in call {}", self.calls.len());
        FixedExecutor.execute(batch)
    }
}

/// The plan's trial ids in order, restricted to `shard` when one is given.
fn waves_plan(shard: Option<Shard>) -> Vec<String> {
    let (paths, config) = lab::ExperimentPaths::resolve(Path::new(WAVES)).expect("resolves");
    let tasks = lab::runner::load_tasks(&paths.tasks).expect("tasks load");
    let plan = plan_trials(&tasks, &config);
    plan.into_iter()
        .filter(|t| shard.map_or(true, |s| s.owns(t.index)))
        .map(|t| t.trial_id)
        .collect()
}

/// Checks one run's calls against the streaming contract: the calls cover
/// `pending` in plan order, one wave of at most 64 trials each (⌈pending /
/// 64⌉ calls), and each call began once the journal held `before` plus the
/// trials of every earlier call, and nothing else.
fn assert_streamed(calls: &[(Vec<String>, Vec<String>)], before: &[String], pending: &[String]) {
    assert_eq!(calls.len(), pending.len().div_ceil(WAVE), "one call per wave");
    let mut journaled = before.to_vec();
    let mut given = Vec::new();
    for (k, (batch, at_start)) in calls.iter().enumerate() {
        assert!(!batch.is_empty() && batch.len() <= WAVE, "call {k}: {} trials", batch.len());
        assert_eq!(at_start, &journaled, "call {k} began before the last wave was journaled");
        journaled.extend(batch.iter().cloned());
        given.extend(batch.iter().cloned());
    }
    assert_eq!(given, pending, "the calls take the pending trials in plan order");
}

/// An executor is called once per wave of at most 64 trials, in plan order,
/// and only once the previous wave is in the journal: on a straight run of
/// the 204-trial experiment (64 + 64 + 64 + 12), on a run halted after 100
/// trials (64 + 36), and on its resume (64 + 40).
#[test]
fn each_wave_is_one_executor_call_in_plan_order_after_the_last_is_journaled() {
    let plan = waves_plan(None);
    assert_eq!(plan.len(), 204);

    let straight = scratch("waves-contract-straight");
    let mut recording = Recording::new(&straight, None);
    let summary =
        run_experiment(Path::new(WAVES), &straight, &RunOptions::default(), &mut recording)
            .expect("straight run");
    assert_eq!((summary.executed, summary.errors), (204, 0));
    assert_streamed(&recording.calls, &[], &plan);
    let sizes: Vec<usize> = recording.calls.iter().map(|(batch, _)| batch.len()).collect();
    assert_eq!(sizes, [64, 64, 64, 12]);

    let resumed = scratch("waves-contract-resumed");
    let mut halted = Recording::new(&resumed, None);
    let options = RunOptions { shard: None, halt_after: Some(100) };
    run_experiment(Path::new(WAVES), &resumed, &options, &mut halted).expect("halted run");
    assert_streamed(&halted.calls, &[], &plan[..100]);
    let mut finish = Recording::new(&resumed, None);
    run_experiment(Path::new(WAVES), &resumed, &RunOptions::default(), &mut finish)
        .expect("resume run");
    assert_streamed(&finish.calls, &plan[..100], &plan[100..]);
    assert_eq!(read(&resumed.join("trials.jsonl")), read(&straight.join("trials.jsonl")));
}

/// An executor that dies in its second call (a kill during the second wave)
/// leaves the first wave journaled, and only that. A resume executes the
/// other 140 trials and ends with the straight run's journal and analysis
/// tables, byte for byte.
#[test]
fn an_executor_killed_in_its_second_wave_leaves_the_first_journaled() {
    let plan = waves_plan(None);
    let straight = scratch("waves-kill-straight");
    run_experiment(Path::new(WAVES), &straight, &RunOptions::default(), &mut FixedExecutor)
        .expect("straight run");

    let killed = scratch("waves-kill-resumed");
    let mut dying = Recording::new(&killed, Some(2));
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_experiment(Path::new(WAVES), &killed, &RunOptions::default(), &mut dying)
    }));
    assert!(run.is_err(), "the second call panics");
    let (records, warning) = lab::read_journal(&killed.join("trials.jsonl")).expect("journal");
    assert!(warning.is_none());
    let journaled: Vec<String> = records.into_iter().map(|r| r.trial_id).collect();
    assert_eq!(journaled, plan[..WAVE], "the first wave, and only it, is journaled");

    let finish =
        run_experiment(Path::new(WAVES), &killed, &RunOptions::default(), &mut FixedExecutor)
            .expect("resume run");
    assert_eq!((finish.journaled, finish.executed), (WAVE, 204 - WAVE));
    assert!(finish.analysis_written);
    assert_eq!(read(&killed.join("trials.jsonl")), read(&straight.join("trials.jsonl")));
    for table in ["variants.jsonl", "variant_tasks.jsonl"] {
        assert_eq!(
            read(&killed.join("analysis").join(table)),
            read(&straight.join("analysis").join(table)),
            "analysis table {table}"
        );
    }
}

/// The same kill for one shard of three, whose 68-trial slice crosses a
/// wave (64 + 4): the killed shard keeps its first wave, its resume
/// executes the other 4 and ends with the uninterrupted shard's journal,
/// and the three shard journals merge to the straight run's sorted lines,
/// whose analysis tables equal the straight run's.
#[test]
fn a_shard_killed_in_its_second_wave_resumes_to_the_straight_journal() {
    let straight = scratch("waves-shard-straight");
    run_experiment(Path::new(WAVES), &straight, &RunOptions::default(), &mut FixedExecutor)
        .expect("straight run");

    let shard = |index| RunOptions { shard: Some(Shard { index, count: 3 }), halt_after: None };
    let slice = waves_plan(shard(1).shard);
    assert_eq!(slice.len(), 68);
    let uninterrupted = scratch("waves-shard-1-uninterrupted");
    run_experiment(Path::new(WAVES), &uninterrupted, &shard(1), &mut FixedExecutor)
        .expect("shard run");

    let killed = scratch("waves-shard-1-killed");
    let mut dying = Recording::new(&killed, Some(2));
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_experiment(Path::new(WAVES), &killed, &shard(1), &mut dying)
    }));
    assert!(run.is_err(), "the second call panics");
    assert_streamed(&dying.calls, &[], &slice);
    let (records, _) = lab::read_journal(&killed.join("trials.jsonl")).expect("journal");
    assert_eq!(records.len(), WAVE, "the shard's first wave is journaled");
    let finish = run_experiment(Path::new(WAVES), &killed, &shard(1), &mut FixedExecutor)
        .expect("shard resume");
    assert_eq!((finish.journaled, finish.executed), (WAVE, 4));
    assert!(!finish.analysis_written, "a shard of three writes no tables");
    assert_eq!(read(&killed.join("trials.jsonl")), read(&uninterrupted.join("trials.jsonl")));

    let mut inputs = vec![("1/3".to_string(), read(&killed.join("trials.jsonl")))];
    for index in [0, 2] {
        let out = scratch(&format!("waves-shard-{index}"));
        run_experiment(Path::new(WAVES), &out, &shard(index), &mut FixedExecutor)
            .expect("shard run");
        inputs.push((format!("{index}/3"), read(&out.join("trials.jsonl"))));
    }
    let merged = merge_journal_lines(&inputs).expect("merge");
    assert_eq!(merged, sorted_lines(&read(&straight.join("trials.jsonl"))));

    // A journal that covers the plan executes nothing and writes the tables.
    let analyzed = scratch("waves-shard-merged");
    let text: String = merged.iter().map(|line| format!("{line}\n")).collect();
    std::fs::write(analyzed.join("trials.jsonl"), text).expect("write the merged journal");
    let summary =
        run_experiment(Path::new(WAVES), &analyzed, &RunOptions::default(), &mut FixedExecutor)
            .expect("analysis run");
    assert_eq!((summary.executed, summary.analysis_written), (0, true));
    for table in ["variants.jsonl", "variant_tasks.jsonl"] {
        assert_eq!(
            read(&analyzed.join("analysis").join(table)),
            read(&straight.join("analysis").join(table)),
            "analysis table {table}"
        );
    }
}

// ---------------------------------------------------------------------------
// Agreement with the existing front doors (real executor)
// ---------------------------------------------------------------------------

/// Each `specs/<name>.json` has an experiment `specs/experiments/<name>` of
/// campaign-ref tasks, one per spec in file order, under one variant with no
/// delta. Its journaled values must be bit-identical to a direct
/// `session().simulate_iteration()` of each spec, fault injection included.
#[test]
fn lab_ladder_objectives_match_campaign_run_bit_for_bit() {
    for name in ["cluster", "compression", "faults", "ladder", "scaling", "serve"] {
        let experiment = Path::new(SPECS).join("experiments").join(name);
        let out = scratch(name);
        let mut executor = lab::ServiceExecutor::new(2);
        let summary = run_experiment(&experiment, &out, &RunOptions::default(), &mut executor)
            .expect("experiment run");
        assert_eq!(summary.errors, 0, "{name}");
        assert!(summary.analysis_written);

        let file = Path::new(SPECS).join(format!("{name}.json"));
        let campaign = Campaign::from_json(&read(&file)).expect("campaign");
        assert_eq!(campaign.specs.len(), summary.planned, "{name}");

        let (records, warning) = lab::read_journal(&out.join("trials.jsonl")).expect("journal");
        assert!(warning.is_none());
        // The plan is task-major and the tasks list the specs in file order,
        // so record i is spec i.
        for (record, spec) in records.iter().zip(&campaign.specs) {
            let report = spec.session().and_then(|s| s.simulate_iteration()).expect("spec runs");
            let objective = record.objective.as_ref().expect("success record");
            assert_eq!(objective.name, "iteration_s");
            let journaled = |key: &str| match record.metrics.get(key) {
                Some(serde::Value::Number(n)) => n.as_f64().to_bits(),
                other => panic!("{name}/{}: {key} is {other:?}", record.task_id),
            };
            let expected = [
                (objective.value.to_bits(), report.total_s().to_bits()),
                (journaled("forward_s"), report.forward_s.to_bits()),
                (journaled("backward_s"), report.backward_s.to_bits()),
                (journaled("update_s"), report.update_s.to_bits()),
            ];
            for (got, want) in expected {
                assert_eq!(
                    got,
                    want,
                    "{name}: task `{}` vs spec `{}`",
                    record.task_id,
                    spec.label()
                );
            }
        }
    }
}

/// The `sched` experiment's variants are named after schedulers; each
/// planned trial must resolve to a spec the engine gives exactly that
/// scheduler — one table, no drift.
#[test]
fn scheduler_names_cover_the_ladder() {
    use simkit::Scheduler;
    use smart_infinity::{method_scheduler, HandlerMode, MethodSpec, ModelSpec, RunSpec};
    use ztrain::schedule::{
        build_iteration_graph, GraphKnobs, HostUpdateScheduler, IterPhases, SiteMap,
    };
    let spec = RunSpec::new(
        ModelSpec::preset("GPT2-0.34B"),
        MachineSpec::devices(2),
        MethodSpec::smart_update_optimized(),
    );
    let session = spec.session().unwrap();
    let mut plat = ztrain::TimedPlatform::new(session.machine());
    let phases = IterPhases {
        forward: plat.add_phase("fw"),
        backward: plat.add_phase("bw"),
        update: plat.add_phase("up"),
    };
    let sites = SiteMap::new(plat.num_gpus(), plat.num_devices());
    let graph = |knobs: GraphKnobs| {
        let optimizer = smart_infinity::OptimizerKind::Adam;
        build_iteration_graph(session.workload(), sites, optimizer, &knobs, phases)
    };
    let host = graph(GraphKnobs::host_update());
    let smart = graph(GraphKnobs::in_storage(None, 100_000_000));
    let name_of = |method: &MethodSpec| {
        if method.uses_csds() {
            method_scheduler(method.implied_handler(), method.pipelined, &smart.layout).name()
        } else {
            HostUpdateScheduler::new(&host.layout).name()
        }
    };
    let (paths, config) = lab::ExperimentPaths::resolve(Path::new(SCHED)).expect("resolves");
    let tasks = lab::runner::load_tasks(&paths.tasks).expect("tasks load");
    let plan = plan_trials(&tasks, &config);
    assert_eq!(plan.len(), 12, "three tasks under four schedulers");
    for trial in &plan {
        let spec =
            lab::runner::resolve_trial_spec(trial, config.defaults.as_ref(), &paths.base_dir)
                .expect("trial resolves");
        assert_eq!(spec.handler, None, "{}: each scheduler is a handler choice", trial.trial_id);
        assert_eq!(name_of(&spec.method), trial.variant, "{}", spec.label());
    }
    // The fourth (handler, pipelined) pair is no rung of the ladder: only
    // the handler override reaches it.
    let ablation = method_scheduler(HandlerMode::Naive, true, &smart.layout);
    assert_eq!(ablation.name(), "pipelined-naive");
}

/// The hetero tasks file must stay pinned to the machine presets: drifting
/// the checked-in JSON away from `preset_sg2042` / `preset_sakuraone_cluster`
/// would silently change what the experiment measures.
#[test]
fn hetero_tasks_pin_the_machine_presets() {
    let tasks =
        lab::runner::load_tasks(&Path::new(HETERO).join("tasks.jsonl")).expect("tasks load");
    let expected: &[(&str, MachineSpec)] = &[
        ("sg2042", MachineSpec::preset_sg2042()),
        ("sakuraone", MachineSpec::preset_sakuraone_cluster()),
    ];
    assert_eq!(tasks.len(), expected.len());
    for ((task, (id, machine)), base_dir) in
        tasks.iter().zip(expected).zip(std::iter::repeat(Path::new(HETERO)))
    {
        assert_eq!(task.task_id, *id);
        let spec = lab::contract::resolve_payload(&task.payload, base_dir).expect("resolves");
        assert_eq!(&spec.machine, machine, "task `{id}`");
    }
}
