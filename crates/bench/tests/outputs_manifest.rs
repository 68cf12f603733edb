//! The bit-identity gate: every deterministic output of the `figures` and
//! `lab` front ends, rendered, normalised and hashed into one line each of
//! `tests/golden/outputs.manifest`.
//!
//! The outputs are the ones a change to the timed or functional stack used
//! to be diffed against its parent on by hand: `figures --quick --json` for
//! every figure id, and `lab run` (journal and analysis tables) plus `lab
//! plan` on each `specs/experiments/*/` — the sweep figures, the scheduler
//! comparison and one experiment of campaign-ref tasks per `specs/*.json`.
//! Experiments are found by listing that directory, so a new one is gated as
//! soon as it is checked in, and every spec file must be named by some
//! experiment's task ([`every_spec_file_is_run_by_an_experiment`]). Each
//! output is hashed with the FNV-1a of [`smart_infinity::fnv1a`], so a
//! failure names the output that moved.
//!
//! Rendering also checks what has no hash of its own: every `lab run`
//! journals no `error` record, and every experiment killed after two trials
//! and resumed ends with the straight run's journal and tables, byte for
//! byte, after which a third invocation executes nothing.
//!
//! The scratch root printed in paths is normalised first. Not hashed at all,
//! with the reason: [`EXCLUDED`].
//!
//! To re-bless after an *intentional* change of what the model computes:
//!
//! ```text
//! cargo test -p bench --test outputs_manifest -- --ignored bless
//! ```

use lab::runner::{load_tasks, ANALYSIS_DIR, JOURNAL_FILE};
use lab::{plan_trials, run_experiment, ExperimentPaths, RunOptions, RunSummary, ServiceExecutor};
use smart_infinity::fnv1a;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The `figures` ids whose text and JSON are hashed: every id of `figures
/// all` but the [`EXCLUDED`] ones.
const FIGURES: [&str; 2] = ["tab1", "pipeline"];

/// The `figures` ids left out, and why.
const EXCLUDED: [(&str, &str); 1] = [("perf", "wall-clock throughputs of the host it runs on")];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The entries of `dir` that `keep` accepts, sorted by path.
fn listing(dir: &Path, keep: impl Fn(&Path) -> bool) -> Vec<PathBuf> {
    let entries = std::fs::read_dir(dir).expect("listable dir");
    let mut paths: Vec<PathBuf> =
        entries.map(|e| e.expect("entry").path()).filter(|p| keep(p)).collect();
    paths.sort();
    paths
}

/// The last component of `path`, without its extension.
fn stem(path: &Path) -> String {
    path.file_stem().expect("named path").to_string_lossy().into_owned()
}

/// One `lab run` invocation, as its own process would make it: a fresh
/// executor, nothing carried over but the journal in `out`.
fn lab_run(experiment: &Path, out: &Path, halt_after: Option<usize>) -> RunSummary {
    let options = RunOptions { shard: None, halt_after };
    run_experiment(experiment, out, &options, &mut ServiceExecutor::new(2))
        .unwrap_or_else(|e| panic!("lab run {}: {e}", experiment.display()))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn manifest_path() -> PathBuf {
    repo_root().join("tests/golden/outputs.manifest")
}

/// Every output as `(name, normalised content)`, in a fixed order. `scratch`
/// is emptied first and receives the files the front ends write.
struct Outputs {
    scratch: PathBuf,
    entries: Vec<(String, String)>,
}

impl Outputs {
    /// Normalises `text` and records it under `name`.
    fn add(&mut self, name: String, text: &str) {
        let text = normalise(text, &self.scratch.to_string_lossy());
        self.entries.push((name, text));
    }

    /// Records every file of `dir` (not its subdirectories), by name, under
    /// `group/`.
    fn add_dir(&mut self, group: &str, dir: &Path) {
        for file in listing(dir, Path::is_file) {
            let name = file.file_name().expect("file name").to_string_lossy().into_owned();
            self.add(format!("{group}/{name}"), &read(&file));
        }
    }

    /// A fresh empty directory under the scratch root.
    fn dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(name);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    /// Runs the `figures` binary from the repository root and returns its
    /// stdout; a non-zero exit fails the test with its stderr.
    fn figures(&self, args: &[&str]) -> String {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .current_dir(repo_root())
            .output()
            .expect("spawn figures");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "figures {args:?} failed: {stderr}");
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    }

    /// `figures --quick --json DIR <args>`: its stdout and every JSON file.
    fn figures_group(&mut self, group: &str, args: &[&str]) {
        let dir = self.dir(group);
        let dir_arg = dir.to_string_lossy().into_owned();
        let mut full = vec!["--quick", "--json", &dir_arg];
        full.extend(args);
        let stdout = self.figures(&full);
        self.add(format!("{group}/stdout"), &stdout);
        self.add_dir(group, &dir);
    }
}

/// Blanks the scratch root in printed paths.
fn normalise(text: &str, scratch: &str) -> String {
    text.lines().map(|line| line.replace(scratch, "<scratch>") + "\n").collect()
}

/// Renders every output of the gate into a fresh `scratch` directory.
fn render(scratch: PathBuf) -> Vec<(String, String)> {
    let _ = std::fs::remove_dir_all(&scratch);
    let mut outputs = Outputs { scratch, entries: Vec::new() };

    for id in FIGURES {
        outputs.figures_group(&format!("figures/{id}"), &[id]);
    }

    for experiment in listing(&repo_root().join("specs/experiments"), Path::is_dir) {
        let name = stem(&experiment);
        let (paths, config) = ExperimentPaths::resolve(&experiment).expect("experiment resolves");
        let tasks = load_tasks(&paths.tasks).expect("tasks load");
        let plan: String = plan_trials(&tasks, &config)
            .iter()
            .map(|t| {
                format!("{} {} {} {} {}\n", t.index, t.trial_id, t.task_id, t.variant, t.repeat)
            })
            .collect();
        outputs.add(format!("lab/{name}/plan"), &plan);
        let out = outputs.dir(&format!("lab/{name}"));
        let straight = lab_run(&experiment, &out, None);
        assert_eq!(straight.errors, 0, "lab/{name} journaled error records");
        outputs.add_dir(&format!("lab/{name}"), &out);
        outputs.add_dir(&format!("lab/{name}/{ANALYSIS_DIR}"), &out.join(ANALYSIS_DIR));

        // Killed after two trials, resumed, then invoked once more.
        let resumed = outputs.dir(&format!("resumed/{name}"));
        assert!(lab_run(&experiment, &resumed, Some(2)).halted, "lab/{name} must halt");
        lab_run(&experiment, &resumed, None);
        let idle = lab_run(&experiment, &resumed, None);
        assert_eq!(idle.executed, 0, "lab/{name}: a finished journal re-executes nothing");
        assert!(
            journal_and_tables(&resumed) == journal_and_tables(&out),
            "lab/{name}: the resumed journal or analysis differs from the straight run's"
        );
    }
    outputs.entries
}

/// The journal and every analysis table of a `lab run` output directory, as
/// `(file name, bytes)`.
fn journal_and_tables(out: &Path) -> Vec<(String, String)> {
    let tables = listing(&out.join(ANALYSIS_DIR), Path::is_file);
    std::iter::once(out.join(JOURNAL_FILE))
        .chain(tables)
        .map(|file| (file.file_name().expect("file").to_string_lossy().into_owned(), read(&file)))
        .collect()
}

/// The manifest text: a header naming the exclusions, then one
/// `name fnv1a-hex` line per output.
fn manifest(entries: &[(String, String)]) -> String {
    let mut out = String::from(
        "# Bit-identity manifest: FNV-1a of every deterministic output, normalised.\n\
         # Re-bless: cargo test -p bench --test outputs_manifest -- --ignored bless\n",
    );
    for (id, reason) in EXCLUDED {
        out.push_str(&format!("# excluded: figures {id} ({reason})\n"));
    }
    for (name, text) in entries {
        out.push_str(&format!("{name} {:016x}\n", fnv1a(text.as_bytes())));
    }
    out
}

fn scratch(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

/// Every experiment id `figures --help` lists is hashed ([`FIGURES`]) or
/// excluded with a reason ([`EXCLUDED`]), and none is both: a new id fails
/// here until it is one or the other.
#[test]
fn every_figure_id_is_hashed_or_excluded() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures")).arg("--help").output().expect("spawn");
    let help = String::from_utf8(out.stdout).expect("utf-8 help");
    let ids = help.lines().skip_while(|line| *line != "experiment ids:").nth(1);
    let mut listed: Vec<&str> = ids.expect("the help lists the ids").split_whitespace().collect();
    let mut gated: Vec<&str> = FIGURES.into_iter().chain(EXCLUDED.map(|(id, _)| id)).collect();
    listed.sort_unstable();
    gated.sort_unstable();
    assert_eq!(gated, listed, "FIGURES and EXCLUDED must partition the figure ids");
}

/// Every `specs/*.json` is named by at least one experiment's campaign-ref
/// task, so every spec file runs, and is hashed, through `lab`.
#[test]
fn every_spec_file_is_run_by_an_experiment() {
    let mut named = Vec::new();
    for experiment in listing(&repo_root().join("specs/experiments"), Path::is_dir) {
        let (paths, _) = ExperimentPaths::resolve(&experiment).expect("experiment resolves");
        for task in load_tasks(&paths.tasks).expect("tasks load") {
            if let Some(serde::Value::String(file)) = task.payload.get("campaign") {
                let file = paths.base_dir.join(file);
                named.push(file.canonicalize().unwrap_or(file));
            }
        }
    }
    let is_json = |p: &Path| p.is_file() && p.extension().is_some_and(|e| e == "json");
    let orphans: Vec<String> = listing(&repo_root().join("specs"), is_json)
        .into_iter()
        .filter(|file| !named.contains(&file.canonicalize().expect("listed file")))
        .map(|file| format!("specs/{}.json", stem(&file)))
        .collect();
    assert!(orphans.is_empty(), "spec files no experiment's campaign-ref task names: {orphans:?}");
}

/// Re-captures the manifest from the current tree. Run explicitly (`--
/// --ignored bless`) only after an intentional change of the outputs.
#[test]
#[ignore = "re-blesses the manifest; run only after an intentional output change"]
fn bless_outputs_manifest() {
    let text = manifest(&render(scratch("bless")));
    std::fs::write(manifest_path(), text).expect("write manifest");
}

/// Every deterministic output hashes as the checked-in manifest says; a
/// failure lists each output that moved.
#[test]
fn every_deterministic_output_matches_the_manifest() {
    let golden = std::fs::read_to_string(manifest_path())
        .expect("manifest missing; run the bless test to create it");
    let fresh = manifest(&render(scratch("check")));
    if golden == fresh {
        return;
    }
    let golden: Vec<&str> = golden.lines().collect();
    let moved: Vec<&str> = fresh.lines().filter(|line| !golden.contains(line)).collect();
    let gone: Vec<&str> =
        golden.iter().copied().filter(|line| !fresh.lines().any(|l| l == *line)).collect();
    panic!("outputs moved against the manifest:\n  now: {moved:#?}\n  was: {gone:#?}");
}
