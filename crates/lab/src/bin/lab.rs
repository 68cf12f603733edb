//! The `lab` CLI: plan, run, resume, shard, merge, and analyze experiments
//! under the harness contract.
//!
//! ```text
//! cargo run -p lab --bin lab -- run --experiment specs/experiments/mini --out results/mini
//! cargo run -p lab --bin lab -- run --experiment specs/experiments/mini --out results/mini --halt-after 4
//! cargo run -p lab --bin lab -- run --experiment specs/experiments/mini --out shard0 --shard 0/3
//! cargo run -p lab --bin lab -- plan --experiment specs/experiments/mini
//! cargo run -p lab --bin lab -- harness task.json result.json
//! cargo run -p lab --bin lab -- merge --out merged.jsonl shard0/trials.jsonl shard1/trials.jsonl
//! cargo run -p lab --bin lab -- analyze --experiment specs/experiments/mini --journal merged.jsonl --out results/merged
//! cargo run -p lab --bin lab -- validate specs/experiments/mini specs/experiments/ladder
//! ```

use lab::{
    analysis_tables, merge_journal_lines, plan_trials, read_journal, run_experiment,
    runner::{load_tasks, resolve_trial_spec},
    ExperimentPaths, LabError, RunOptions, ServiceExecutor, Shard,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: lab <command> [options]

commands:
  run      --experiment <file|dir> --out <dir> [--shard i/N] [--halt-after N] [--threads N]
           plan the trial matrix, execute un-journaled trials through the
           campaign service, append results to <out>/trials.jsonl, and (when
           the journal covers the full plan) write <out>/analysis/*.jsonl
  plan     --experiment <file|dir> [--shard i/N]
           print the deterministic trial plan without executing anything
  harness  <task.json> <result.json>
           the built-in harness: read one task, write one result document
  merge    --out <file> <trials.jsonl> [trials.jsonl ...]
           union shard journals into one canonically sorted journal
  analyze  --experiment <file|dir> --journal <trials.jsonl> --out <dir>
           recompute the analysis tables from an existing (merged) journal
  validate <file|dir> [...]
           plan each experiment and resolve every trial's effective spec

The experiment argument is an experiment.json file or a directory containing
one.";

fn usage_error(message: &str) -> ExitCode {
    eprintln!("{message}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn fail(error: &LabError) -> ExitCode {
    eprintln!("lab: {error}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some((command, rest)) = args.split_first() else {
        return usage_error("lab: no command given");
    };
    match command.as_str() {
        "run" => cmd_run(rest),
        "plan" => cmd_plan(rest),
        "harness" => cmd_harness(rest),
        "merge" => cmd_merge(rest),
        "analyze" => cmd_analyze(rest),
        "validate" => cmd_validate(rest),
        other => usage_error(&format!("lab: unknown command `{other}`")),
    }
}

/// `--flag value` pairs, in occurrence order (last one wins in [`option`]).
type Options = Vec<(String, String)>;

/// Collects `--flag value` options and positional arguments; `flags` lists
/// the recognized value-taking flags.
fn parse_args(args: &[String], flags: &[&str]) -> Result<(Options, Vec<String>), String> {
    let mut options = Vec::new();
    let mut positional = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if let Some(flag) = flags.iter().find(|f| *f == arg) {
            let value = iter.next().ok_or_else(|| format!("{flag} requires an argument"))?;
            options.push((flag.to_string(), value.clone()));
        } else if arg.starts_with('-') {
            return Err(format!("unknown option `{arg}`"));
        } else {
            positional.push(arg.clone());
        }
    }
    Ok((options, positional))
}

fn option<'a>(options: &'a [(String, String)], flag: &str) -> Option<&'a str> {
    options.iter().rev().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
}

fn cmd_run(args: &[String]) -> ExitCode {
    let (options, positional) = match parse_args(
        args,
        &["--experiment", "--out", "--shard", "--halt-after", "--threads"],
    ) {
        Ok(parsed) => parsed,
        Err(e) => return usage_error(&format!("lab run: {e}")),
    };
    if !positional.is_empty() {
        return usage_error(&format!("lab run: unexpected argument `{}`", positional[0]));
    }
    let Some(experiment) = option(&options, "--experiment") else {
        return usage_error("lab run: --experiment is required");
    };
    let Some(out) = option(&options, "--out") else {
        return usage_error("lab run: --out is required");
    };
    let shard = match option(&options, "--shard").map(Shard::parse).transpose() {
        Ok(shard) => shard,
        Err(e) => return usage_error(&format!("lab run: {e}")),
    };
    let halt_after = match option(&options, "--halt-after").map(str::parse::<usize>).transpose() {
        Ok(halt_after) => halt_after,
        Err(_) => return usage_error("lab run: --halt-after requires an integer"),
    };
    let threads = match option(&options, "--threads").map(str::parse::<usize>).transpose() {
        Ok(threads) => threads.unwrap_or(2),
        Err(_) => return usage_error("lab run: --threads requires an integer"),
    };
    let mut executor = ServiceExecutor::new(threads);
    let run_options = RunOptions { shard, halt_after };
    let summary =
        match run_experiment(Path::new(experiment), Path::new(out), &run_options, &mut executor) {
            Ok(summary) => summary,
            Err(e) => return fail(&e),
        };
    for warning in &summary.warnings {
        eprintln!("lab: warning: {warning}");
    }
    match shard {
        Some(shard) => {
            println!("planned {} trial(s), {} in shard {shard}", summary.planned, summary.in_scope)
        }
        None => println!("planned {} trial(s)", summary.planned),
    }
    println!("{} already journaled, executed {} trial(s)", summary.journaled, summary.executed);
    if summary.errors > 0 {
        println!("{} trial(s) recorded an error outcome", summary.errors);
    }
    let report = executor.report();
    println!(
        "service: {} execution(s), cache hit rate {:.0}%",
        report.executed,
        100.0 * report.cache_hit_rate()
    );
    if summary.halted {
        println!(
            "halted after {} executed trial(s); re-run the same command to resume",
            summary.executed
        );
    }
    if summary.analysis_written {
        println!("analysis written to {}", Path::new(out).join("analysis").display());
    } else if !summary.halted {
        println!(
            "analysis skipped (journal covers {} of {} planned trial(s); merge shards first)",
            summary.journaled + summary.executed,
            summary.planned
        );
    }
    ExitCode::SUCCESS
}

fn cmd_plan(args: &[String]) -> ExitCode {
    let (options, positional) = match parse_args(args, &["--experiment", "--shard"]) {
        Ok(parsed) => parsed,
        Err(e) => return usage_error(&format!("lab plan: {e}")),
    };
    if !positional.is_empty() {
        return usage_error(&format!("lab plan: unexpected argument `{}`", positional[0]));
    }
    let Some(experiment) = option(&options, "--experiment") else {
        return usage_error("lab plan: --experiment is required");
    };
    let shard = match option(&options, "--shard").map(Shard::parse).transpose() {
        Ok(shard) => shard,
        Err(e) => return usage_error(&format!("lab plan: {e}")),
    };
    let (paths, config) = match ExperimentPaths::resolve(Path::new(experiment)) {
        Ok(resolved) => resolved,
        Err(e) => return fail(&e),
    };
    let tasks = match load_tasks(&paths.tasks) {
        Ok(tasks) => tasks,
        Err(e) => return fail(&e),
    };
    let plan = plan_trials(&tasks, &config);
    println!(
        "{:>5}  {:<16}  {:<24} {:<16} {:>6}",
        "index", "trial_id", "task", "variant", "repeat"
    );
    for trial in &plan {
        if shard.map_or(true, |s| s.owns(trial.index)) {
            println!(
                "{:>5}  {:<16}  {:<24} {:<16} {:>6}",
                trial.index, trial.trial_id, trial.task_id, trial.variant, trial.repeat
            );
        }
    }
    println!(
        "{} trial(s): {} task(s) x {} variant(s) x {} repeat(s)",
        plan.len(),
        tasks.len(),
        config.variants.len(),
        config.repeats()
    );
    ExitCode::SUCCESS
}

fn cmd_harness(args: &[String]) -> ExitCode {
    let (options, positional) = match parse_args(args, &[]) {
        Ok(parsed) => parsed,
        Err(e) => return usage_error(&format!("lab harness: {e}")),
    };
    debug_assert!(options.is_empty());
    let [task, result] = positional.as_slice() else {
        return usage_error("lab harness: expected exactly <task.json> <result.json>");
    };
    match lab::harness::run_harness(Path::new(task), Path::new(result)) {
        Ok(outcome) if outcome.is_success() => {
            println!("{task}: {} wrote {result}", outcome.outcome);
            ExitCode::SUCCESS
        }
        Ok(outcome) => {
            println!(
                "{task}: {} ({}) wrote {result}",
                outcome.outcome,
                outcome.error.as_deref().unwrap_or("unknown error")
            );
            ExitCode::FAILURE
        }
        Err(e) => fail(&e),
    }
}

fn cmd_merge(args: &[String]) -> ExitCode {
    let (options, positional) = match parse_args(args, &["--out"]) {
        Ok(parsed) => parsed,
        Err(e) => return usage_error(&format!("lab merge: {e}")),
    };
    let Some(out) = option(&options, "--out") else {
        return usage_error("lab merge: --out is required");
    };
    if positional.is_empty() {
        return usage_error("lab merge: at least one journal file is required");
    }
    let mut inputs = Vec::with_capacity(positional.len());
    for path in &positional {
        match std::fs::read_to_string(path) {
            Ok(text) => inputs.push((path.clone(), text)),
            Err(e) => return fail(&LabError::io(path, e)),
        }
    }
    let lines = match merge_journal_lines(&inputs) {
        Ok(lines) => lines,
        Err(e) => return fail(&e),
    };
    let mut text = lines.join("\n");
    if !text.is_empty() {
        text.push('\n');
    }
    if let Err(e) = std::fs::write(out, text) {
        return fail(&LabError::io(out, e));
    }
    println!("merged {} journal(s) into {out} ({} trial(s))", positional.len(), lines.len());
    ExitCode::SUCCESS
}

fn cmd_analyze(args: &[String]) -> ExitCode {
    let (options, positional) = match parse_args(args, &["--experiment", "--journal", "--out"]) {
        Ok(parsed) => parsed,
        Err(e) => return usage_error(&format!("lab analyze: {e}")),
    };
    if !positional.is_empty() {
        return usage_error(&format!("lab analyze: unexpected argument `{}`", positional[0]));
    }
    let (Some(experiment), Some(journal), Some(out)) = (
        option(&options, "--experiment"),
        option(&options, "--journal"),
        option(&options, "--out"),
    ) else {
        return usage_error("lab analyze: --experiment, --journal and --out are required");
    };
    let (paths, config) = match ExperimentPaths::resolve(Path::new(experiment)) {
        Ok(resolved) => resolved,
        Err(e) => return fail(&e),
    };
    let tasks = match load_tasks(&paths.tasks) {
        Ok(tasks) => tasks,
        Err(e) => return fail(&e),
    };
    let plan = plan_trials(&tasks, &config);
    let (records, warning) = match read_journal(Path::new(journal)) {
        Ok(journal) => journal,
        Err(e) => return fail(&e),
    };
    if let Some(warning) = warning {
        eprintln!("lab: warning: {warning}");
    }
    let tables = match analysis_tables(&plan, &records) {
        Ok(tables) => tables,
        Err(e) => return fail(&e),
    };
    let dir = PathBuf::from(out).join("analysis");
    if let Err(e) = lab::write_analysis(&dir, &tables) {
        return fail(&e);
    }
    println!("analysis written to {}", dir.display());
    ExitCode::SUCCESS
}

fn cmd_validate(args: &[String]) -> ExitCode {
    let (options, positional) = match parse_args(args, &[]) {
        Ok(parsed) => parsed,
        Err(e) => return usage_error(&format!("lab validate: {e}")),
    };
    debug_assert!(options.is_empty());
    if positional.is_empty() {
        return usage_error("lab validate: at least one experiment is required");
    }
    for path in &positional {
        let result = validate_one(Path::new(path));
        match result {
            Ok(trials) => println!("OK {path} ({trials} trials)"),
            Err(e) => {
                eprintln!("lab: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Plans the experiment and resolves + validates every trial's effective
/// spec without executing anything.
fn validate_one(path: &Path) -> Result<usize, LabError> {
    let (paths, config) = ExperimentPaths::resolve(path)?;
    let tasks = load_tasks(&paths.tasks)?;
    let plan = plan_trials(&tasks, &config);
    for trial in &plan {
        let spec = resolve_trial_spec(trial, config.defaults.as_ref(), &paths.base_dir)?;
        spec.session().map_err(|e| {
            LabError::config(format!(
                "trial {} (task `{}`, variant `{}`): {e}",
                trial.trial_id, trial.task_id, trial.variant
            ))
        })?;
    }
    Ok(plan.len())
}
