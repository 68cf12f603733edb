//! `lab` — the experiment-runner subsystem and its clean harness contract.
//!
//! This crate is the workspace's one sweep runner: every list of specs that is
//! run and compared — the paper's sweep figures (`specs/experiments/fig*`,
//! with their claims in `expect.jsonl`), each checked-in `specs/*.json`
//! file, and the scheduler comparison (`specs/experiments/sched`) — is an
//! experiment of this crate. [`smart_infinity::CampaignService`] executes
//! the trials, and the `figures` binary keeps only the paper's tables and
//! figures that are not sweeps. It is built around two file-level contracts
//! (the AgentLab shape):
//!
//! * A **harness** is any program that reads one `task.json` — an inline
//!   [`smart_infinity::RunSpec`] or a [`smart_infinity::CampaignRef`] — and
//!   writes one `result.json` with `{"outcome", "objective", "metrics"}`.
//!   The built-in harness ([`harness::run_harness`], `lab harness`) wraps
//!   [`smart_infinity::Session`], so every existing workload is runnable
//!   through the contract with no new code.
//! * A **runner** reads `tasks.jsonl` (pure domain payloads, `task_id`
//!   required) plus `experiment.json` (dataset, variants as RFC 7386
//!   JSON-merge deltas over the spec, repeats, runtime defaults), plans the
//!   full trial matrix deterministically ([`plan`]), executes trials through
//!   the [`smart_infinity::CampaignService`] for dedup/caching ([`runner`]),
//!   journals every completed trial to an append-only `trials.jsonl`, and
//!   emits per-variant JSONL analysis tables ([`analysis`]).
//!
//! Determinism is the load-bearing property throughout:
//!
//! * **Stable trial ids.** A trial's id is the FNV-1a hash of the
//!   [`smart_infinity::canonical_json`] of `{defaults, seed, task, variant,
//!   repeat}` — a pure function of the experiment inputs, invariant to key
//!   order, whitespace, and number spelling.
//! * **Resume.** A killed run is re-invoked with the same arguments; trials
//!   whose ids already appear in the journal are never re-executed, and the
//!   final analysis tables are byte-identical to an uninterrupted run. This
//!   is the workspace's one kill/resume path: a campaign file is resumed by
//!   running it as campaign-ref tasks (`specs/experiments/faults`).
//! * **Sharding.** `--shard i/N` partitions the plan by trial index modulo
//!   `N`; the N journals merged with `lab merge` are bit-identical to a
//!   single-process journal after canonical (byte-wise) sort.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod contract;
pub mod experiment;
pub mod harness;
pub mod plan;
pub mod runner;

mod error;

pub use analysis::{analysis_tables, write_analysis, AnalysisTables};
pub use contract::{HarnessResult, Objective, Task, TrialRecord};
pub use error::LabError;
pub use experiment::{ExperimentConfig, ExperimentPaths, Variant};
pub use plan::{plan_trials, PlannedTrial, Shard};
pub use runner::{
    merge_journal_lines, read_journal, run_experiment, Executor, FixedExecutor, RunOptions,
    RunOutcome, RunSummary, ServiceExecutor,
};
