//! `lab_cycle`: orchestration on small graphs. One op is one full
//! `lab::run_experiment` of a generated experiment into a fresh out dir with
//! a fresh `ServiceExecutor`, then a second `run_experiment` on the same dir
//! (a resume, which must execute nothing), then reading the analysis tables.
//!
//! The experiment is 17 task lines × 4 variants × 3 repeats = 204 trials over
//! 64 unique specs, so more than two thirds of the trials are in-flight dedup
//! or cache hits. `lab` planning, resolving, journaling and analysis and
//! `smart_infinity`'s canonical form and service are only visible here, and
//! the timed stack runs many tiny graphs, where per-graph set-up counts.

use super::{Env, Workload};
use crate::gen::{self, LAB_CAMPAIGN_FILE, LAB_TRIALS, LAB_UNIQUE_SPECS};
use crate::machine::THREADS;
use crate::metrics::Ledger;
use crate::stats::median;
use crate::trace::{LaneTrace, Tracer};
use lab::runner::{append_records, load_tasks, resolve_trial_spec, ANALYSIS_DIR, JOURNAL_FILE};
use lab::{
    analysis_tables, plan_trials, read_journal, run_experiment, write_analysis, Executor,
    ExperimentPaths, PlannedTrial, RunOptions, RunOutcome, ServiceExecutor,
};
use parcore::ParExecutor;
use smart_infinity::{CampaignService, JobStatus, RunSpec, ServiceConfig, ServiceReport};
use std::path::{Path, PathBuf};

pub struct LabOracle {
    /// `analysis/variants.jsonl` then `analysis/variant_tasks.jsonl`.
    tables: String,
}

fn io_err(path: &Path, e: std::io::Error) -> String {
    format!("{}: {e}", path.display())
}

fn write_experiment(dir: &Path, seed: u64) -> Result<(), String> {
    // A set-up starts from nothing, whatever an earlier set-up left behind.
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| io_err(dir, e))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let files = gen::lab_files(seed);
    for (name, text) in [
        ("experiment.json", &files.experiment_json),
        ("tasks.jsonl", &files.tasks_jsonl),
        (LAB_CAMPAIGN_FILE, &files.campaign_json),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| io_err(&path, e))?;
    }
    Ok(())
}

fn read_tables(out: &Path) -> Result<String, String> {
    let mut tables = String::new();
    for name in ["variants.jsonl", "variant_tasks.jsonl"] {
        let path = out.join(ANALYSIS_DIR).join(name);
        tables.push_str(&std::fs::read_to_string(&path).map_err(|e| io_err(&path, e))?);
    }
    Ok(tables)
}

/// The expected analysis tables: the same experiment once through a service
/// of its own, which every measured run must reproduce byte for byte.
pub fn oracle(seed: u64, env: &Env) -> Result<LabOracle, String> {
    let exp = env.work_dir.join("oracle-exp");
    let out = env.work_dir.join("oracle-out");
    write_experiment(&exp, seed)?;
    let mut executor = ServiceExecutor::new(THREADS);
    run_experiment(&exp, &out, &RunOptions::default(), &mut executor).map_err(|e| e.to_string())?;
    let tables = read_tables(&out)?;
    for dir in [&exp, &out] {
        std::fs::remove_dir_all(dir).map_err(|e| io_err(dir, e))?;
    }
    Ok(LabOracle { tables })
}

pub struct LabCycle {
    warmup_ops: usize,
    exp: PathBuf,
    work_dir: PathBuf,
    expected_tables: String,
    ops: usize,
    last_service: Option<ServiceReport>,
}

impl LabCycle {
    pub fn setup(seed: u64, env: &Env, oracle: &LabOracle) -> Result<Self, String> {
        let exp = env.work_dir.join("exp");
        write_experiment(&exp, seed)?;
        let mut lab = LabCycle {
            warmup_ops: env.warmup_ops,
            exp,
            work_dir: env.work_dir.clone(),
            expected_tables: oracle.tables.clone(),
            ops: 0,
            last_service: None,
        };
        let mut off = Tracer::new(false);
        for _ in 0..env.warmup_ops {
            lab.op(&mut off)?;
        }
        Ok(lab)
    }

    /// One full run plus its resume into `out`, with every check but the
    /// tables. Leaves `out` in place.
    fn cycle(&mut self, out: &Path, tracer: &mut Tracer) -> Result<(), String> {
        let options = RunOptions::default();
        let (first, service) = if tracer.is_on() {
            let mut executor = TracedExecutor::new(tracer.lane());
            let summary = tracer.scope("lab.run_experiment", |_| {
                run_experiment(&self.exp, out, &options, &mut executor)
            });
            let report = executor.service.report();
            tracer.adopt(0, executor.trace);
            (summary, report)
        } else {
            let mut executor = ServiceExecutor::new(THREADS);
            let summary = run_experiment(&self.exp, out, &options, &mut executor);
            (summary, executor.report())
        };
        let first = first.map_err(|e| e.to_string())?;
        if first.planned != LAB_TRIALS
            || first.executed != first.planned
            || first.journaled != 0
            || first.errors != 0
            || !first.analysis_written
        {
            return Err(format!("first run: {first:?}"));
        }
        if service.executed != LAB_UNIQUE_SPECS as u64 || service.failed != 0 {
            return Err(format!(
                "the service executed {} specs ({} failed), expected {LAB_UNIQUE_SPECS}",
                service.executed, service.failed
            ));
        }
        self.last_service = Some(service);

        let mut executor = ServiceExecutor::new(THREADS);
        let resumed = tracer
            .scope("lab.resume", |_| run_experiment(&self.exp, out, &options, &mut executor))
            .map_err(|e| e.to_string())?;
        if resumed.executed != 0
            || resumed.journaled != LAB_TRIALS
            || executor.report().submitted != 0
        {
            return Err(format!("the resume was not a no-op: {resumed:?}"));
        }
        Ok(())
    }
}

impl Workload for LabCycle {
    fn work_units(&self) -> f64 {
        LAB_TRIALS as f64
    }

    fn op(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let out = self.work_dir.join(format!("out-{}", self.ops));
        self.ops += 1;
        let root = tracer.begin("lab_cycle.op");
        let result = self.cycle(&out, tracer).and_then(|()| {
            let tables = tracer.scope("lab.read_tables", |_| read_tables(&out))?;
            if tables != self.expected_tables {
                return Err("the analysis tables differ from the reference run's".to_string());
            }
            Ok(())
        });
        let removed = std::fs::remove_dir_all(&out).map_err(|e| io_err(&out, e));
        tracer.end(root);
        result.and(removed)
    }

    fn ledger(&mut self, tracer: &mut Tracer, ledger: &mut Ledger) -> Result<(), String> {
        let ops = 1..tracer.upcoming_op();
        let service = self.last_service.clone().ok_or("no traced op ran")?;
        ledger.set("smart_infinity.service_executions", service.executed as f64);
        ledger.set("smart_infinity.service_cache_hit_rate", service.cache_hit_rate());
        ledger.set("smart_infinity.service_queue_wait_us_p50", service.queue_wait.p50_s * 1e6);
        ledger.set("smart_infinity.service_run_us_p50", service.run_time.p50_s * 1e6);
        ledger.set(
            "smart_infinity.service_submit_us_p50",
            median(&tracer.span_ms("smart_infinity.service_submit", &ops)) * 1e3,
        );
        let hits = tracer.span_ms("smart_infinity.service_hit", &ops);
        if !hits.is_empty() {
            ledger.set("smart_infinity.service_hit_us_p50", median(&hits) * 1e3);
        }

        // The pieces of `run_experiment` that are public are replayed one by
        // one on the same experiment; the journal comes from one more cycle.
        let out = self.work_dir.join("replay-out");
        let scratch = self.work_dir.join("replay-scratch");
        self.cycle(&out, &mut Tracer::new(false))?;
        let first = tracer.upcoming_op();
        let lab_err = |e: lab::LabError| e.to_string();
        for _ in 0..self.warmup_ops {
            tracer.next_op();
            let (paths, config, plan) = tracer
                .scope("lab.plan", |_| {
                    let (paths, config) = ExperimentPaths::resolve(&self.exp)?;
                    let tasks = load_tasks(&paths.tasks)?;
                    let plan = plan_trials(&tasks, &config);
                    Ok((paths, config, plan))
                })
                .map_err(lab_err)?;
            let specs = tracer
                .scope("lab.resolve", |_| {
                    plan.iter()
                        .map(|t| resolve_trial_spec(t, config.defaults.as_ref(), &paths.base_dir))
                        .collect::<Result<Vec<RunSpec>, _>>()
                })
                .map_err(lab_err)?;
            tracer.scope("smart_infinity.canon", |_| {
                for spec in &specs {
                    std::hint::black_box(spec.canonical_json());
                }
            });
            let (records, _) = tracer
                .scope("lab.journal_read", |_| read_journal(&out.join(JOURNAL_FILE)))
                .map_err(lab_err)?;
            std::fs::create_dir_all(&scratch).map_err(|e| io_err(&scratch, e))?;
            tracer
                .scope("lab.journal_append", |_| {
                    append_records(&scratch.join(JOURNAL_FILE), &records)
                })
                .map_err(lab_err)?;
            tracer
                .scope("lab.analysis", |_| {
                    let tables = analysis_tables(&plan, &records)?;
                    write_analysis(&scratch.join(ANALYSIS_DIR), &tables)
                })
                .map_err(lab_err)?;
            std::fs::remove_dir_all(&scratch).map_err(|e| io_err(&scratch, e))?;
        }
        std::fs::remove_dir_all(&out).map_err(|e| io_err(&out, e))?;

        let replayed = first..tracer.upcoming_op();
        let piece = |span: &str| median(&tracer.ms_per_op(span, &replayed));
        ledger.set("lab.plan_ms", piece("lab.plan"));
        ledger.set("lab.resolve_ms", piece("lab.resolve"));
        ledger.set("lab.journal_read_ms", piece("lab.journal_read"));
        ledger.set("lab.journal_append_ms", piece("lab.journal_append"));
        ledger.set("lab.analysis_ms", piece("lab.analysis"));
        ledger.set(
            "smart_infinity.canon_us",
            piece("smart_infinity.canon") * 1e3 / LAB_TRIALS as f64,
        );

        let measured = |span: &str| median(&tracer.ms_per_op(span, &ops));
        let service_ms = ["service_submit", "service_hit", "service_drain", "service_await"]
            .iter()
            .map(|s| tracer.ms_per_op(&format!("smart_infinity.{s}"), &ops))
            .filter(|per_op| !per_op.is_empty())
            .map(|per_op| median(&per_op))
            .fold(0.0, |total, ms| total + ms);
        let run_ms = measured("lab.run_experiment");
        ledger.set("lab.resume_ms", measured("lab.resume"));
        ledger.set("lab.overhead_us_per_trial", (run_ms - service_ms) * 1e3 / LAB_TRIALS as f64);
        // The first run reads an empty journal, so the replayed journal read
        // is the resume's and is already inside `lab.resume`.
        let covered_ms = service_ms
            + measured("lab.resume")
            + measured("lab.read_tables")
            + piece("lab.plan")
            + piece("lab.resolve")
            + piece("lab.journal_append")
            + piece("lab.analysis");
        let op_ms = measured("lab_cycle.op");
        ledger.set("trace.residual_pct", 100.0 * (op_ms - covered_ms) / op_ms);
        Ok(())
    }
}

/// `lab::ServiceExecutor::execute`, wave for wave, with a span around every
/// call into `CampaignService`.
struct TracedExecutor {
    service: CampaignService,
    pool: ParExecutor,
    trace: LaneTrace,
}

impl TracedExecutor {
    fn new(trace: LaneTrace) -> Self {
        TracedExecutor {
            service: CampaignService::new(ServiceConfig::default()),
            pool: ParExecutor::new(THREADS),
            trace,
        }
    }
}

impl Executor for TracedExecutor {
    fn execute(&mut self, batch: &[(PlannedTrial, RunSpec)]) -> Vec<Result<RunOutcome, String>> {
        let TracedExecutor { service, pool, trace } = self;
        let mut results = Vec::with_capacity(batch.len());
        for wave in batch.chunks(service.config().queue_depth) {
            let ids: Vec<_> = wave
                .iter()
                .map(|(_, spec)| {
                    // Whether a submission will hit the cache is known only
                    // afterwards, so the span is recorded under a provisional
                    // name and renamed when the job turns out to be done.
                    let id =
                        trace.scope("smart_infinity.service_submit", || service.submit(0, spec));
                    if let Ok(id) = &id {
                        if matches!(service.poll(*id), Ok(JobStatus::Done(_))) {
                            trace.rename_last("smart_infinity.service_hit");
                        }
                    }
                    id.map_err(|e| e.to_string())
                })
                .collect();
            trace.scope("smart_infinity.service_drain", || service.drain(pool));
            for id in ids {
                results.push(id.and_then(|id| {
                    trace
                        .scope("smart_infinity.service_await", || service.await_result(id, pool))
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
