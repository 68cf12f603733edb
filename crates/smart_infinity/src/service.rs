//! `campaignd` — the campaign service: a FIFO work queue, in-flight dedup and
//! a content-addressed result cache over [`RunSpec`] submissions.
//!
//! Most of the load `lab` offers is repeated work (every trial of an
//! experiment, repeats and shared variants included), so
//! [`CampaignService`] is a memo in front of [`Session::simulate_iteration`]:
//!
//! * **submit → [`JobId`] → poll/await** — a submission returns a handle at
//!   once; [`CampaignService::poll`] never blocks, and
//!   [`CampaignService::await_result`] drives the queue until the job
//!   finishes, then hands the [`CompletedJob`] over and forgets the job (a
//!   later `poll` or `await_result` of that id is
//!   [`ServiceError::UnknownJob`]).
//! * **Content-addressed cache** — results are kept under the spec's
//!   canonical serialization ([`RunSpec::canonical_json`]), so a resubmitted
//!   spec is answered from the cache with a bit-identical report, whatever
//!   its JSON spelling or label. Failures are not cached.
//! * **In-flight dedup** — a spec that is already queued or running is
//!   coalesced: the new job rides on the existing execution. Each unique
//!   spec executes at most once ([`ServiceReport::executed`]).
//! * **One bounded FIFO queue** — at most [`ServiceConfig::queue_depth`]
//!   unique specs wait for execution; a submission that would queue another
//!   is rejected with [`ServiceError::QueueFull`] (cache hits and coalesced
//!   submissions add no work and are always accepted). A dispatch cycle
//!   ([`CampaignService::drain`], or an `await_result` that finds no cycle
//!   running) runs everything queued, in submission order, on the caller's
//!   [`ParExecutor`].
//!
//! A work item is dropped when it completes, and a job when it is delivered,
//! so what a service holds between waves is its cache and its counters. The
//! service is thread-safe behind `&self`: one thread at a time holds the
//! dispatcher role, and the others park on a condition variable until its
//! cycle completes. The simulations are deterministic, so cached, coalesced
//! and fresh results are bit-identical for a given spec.
//!
//! [`Session::simulate_iteration`]: crate::Session::simulate_iteration

use crate::spec::RunSpec;
use parcore::ParExecutor;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;
use ztrain::{IterationReport, TrainError};

// ---------------------------------------------------------------------------
// Public surface: config, handles, reports, errors
// ---------------------------------------------------------------------------

/// The one bound of a [`CampaignService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Maximum *unique* specs waiting for execution. A submission that would
    /// queue another is rejected with [`ServiceError::QueueFull`]; cache hits
    /// and coalesced submissions add no work and are always accepted.
    pub queue_depth: usize,
}

impl Default for ServiceConfig {
    /// 64 queued unique specs: one `lab` wave.
    fn default() -> Self {
        ServiceConfig { queue_depth: 64 }
    }
}

impl ServiceConfig {
    /// A config with the given queue depth (clamped to at least 1).
    pub fn new(queue_depth: usize) -> Self {
        ServiceConfig { queue_depth: queue_depth.max(1) }
    }
}

/// Handle for one submitted job, unique within its service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// One spec's result: its presentation labels beside the timed breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The submitted spec's label ([`RunSpec::label`]).
    pub label: String,
    /// The model half of the spec, printed.
    pub model: String,
    /// The method's figure label (`BASE`, `SU+O+C(2%)`, ...).
    pub method: String,
    /// Number of storage devices.
    pub devices: usize,
    /// The per-phase breakdown of one simulated iteration.
    pub report: IterationReport,
}

/// A finished job.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedJob {
    /// The job's handle.
    pub id: JobId,
    /// The per-spec result, labelled with *this* submission's label (the
    /// [`IterationReport`] is shared between canonically equal specs).
    pub report: RunReport,
}

/// The observable state of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Waiting for a dispatch cycle.
    Queued,
    /// Its dispatch cycle is executing now.
    Running,
    /// Finished; the result.
    Done(CompletedJob),
    /// Its execution failed; the error rendered with its source chain.
    Failed(String),
}

/// Errors of the service API.
#[derive(Debug)]
pub enum ServiceError {
    /// The submitted spec failed validation (never queued).
    Invalid(TrainError),
    /// The queue is at capacity; resubmit after the backlog drains.
    QueueFull {
        /// Unique specs currently waiting.
        queued: usize,
        /// The configured bound ([`ServiceConfig::queue_depth`]).
        depth: usize,
    },
    /// No such job is held by this service: never issued here, or already
    /// delivered by [`CampaignService::await_result`].
    UnknownJob(JobId),
    /// The awaited job's execution failed.
    JobFailed {
        /// The failed job.
        id: JobId,
        /// The execution error, rendered with its source chain.
        message: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Invalid(e) => write!(f, "invalid submission: {e}"),
            ServiceError::QueueFull { queued, depth } => {
                write!(f, "queue full: {queued} unique spec(s) waiting (depth {depth})")
            }
            ServiceError::UnknownJob(id) => write!(f, "unknown {id}"),
            ServiceError::JobFailed { id, message } => write!(f, "{id} failed: {message}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

/// Order statistics over a latency sample set, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean_s: f64,
    /// Median (nearest-rank).
    pub p50_s: f64,
    /// 95th percentile (nearest-rank).
    pub p95_s: f64,
    /// Maximum.
    pub max_s: f64,
}

impl LatencyStats {
    /// Computes the stats from raw samples (empty input gives all zeros).
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let rank = |q: f64| {
            let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
            sorted[idx]
        };
        LatencyStats {
            count: sorted.len(),
            mean_s: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50_s: rank(0.50),
            p95_s: rank(0.95),
            max_s: *sorted.last().expect("non-empty"),
        }
    }
}

/// The service-wide counters ([`CampaignService::report`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Accepted submissions (excludes rejections).
    pub submitted: u64,
    /// Unique-spec executions actually run — the dedup proof: this equals
    /// the number of distinct canonical specs ever executed, no matter how
    /// many times each was submitted.
    pub executed: u64,
    /// Submissions answered from the content-addressed cache.
    pub cache_hits: u64,
    /// Submissions coalesced onto an already queued or running execution.
    pub coalesced: u64,
    /// Submissions rejected because the queue was at capacity.
    pub rejected: u64,
    /// Executions that failed (their jobs report [`JobStatus::Failed`]).
    pub failed: u64,
    /// Distinct canonical specs held in the result cache.
    pub cached_specs: usize,
    /// Unique specs queued or running.
    pub in_flight: usize,
    /// Queue-wait distribution over the jobs that waited for an execution
    /// (every accepted submission but a cache hit).
    pub queue_wait: LatencyStats,
    /// Run-time distribution over unique-spec executions.
    pub run_time: LatencyStats,
}

impl ServiceReport {
    /// Fraction of accepted submissions answered from the result cache,
    /// in `[0, 1]`; `0.0` before anything has been submitted.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.submitted as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------------

/// A job waiting on a work item: what it needs to be completed under its own
/// label.
struct PendingJob {
    id: JobId,
    label: String,
    submitted: Instant,
}

/// One unique spec in flight with every job attached to it. It holds its
/// spec while queued and gives it up to the dispatch cycle that runs it.
struct WorkItem {
    spec: Option<RunSpec>,
    jobs: Vec<PendingJob>,
}

/// A cached result: everything a [`RunReport`] needs but the per-job label
/// (model, method and devices are semantic, so they are identical for every
/// canonically equal spec).
struct CacheEntry {
    model: String,
    method: String,
    devices: usize,
    report: IterationReport,
}

impl CacheEntry {
    /// The cached result as a report labelled for one particular job.
    fn labelled(&self, label: String) -> RunReport {
        RunReport {
            label,
            model: self.model.clone(),
            method: self.method.clone(),
            devices: self.devices,
            report: self.report,
        }
    }
}

#[derive(Default)]
struct State {
    next_id: u64,
    /// Every job issued and not yet delivered. A B-tree frees its nodes as
    /// jobs leave, so once every job is delivered it holds one empty node,
    /// whatever the order jobs came and went in.
    jobs: BTreeMap<JobId, JobStatus>,
    /// Canonical specs waiting for the next dispatch cycle, oldest first.
    queue: Vec<String>,
    /// Canonical spec -> its queued or running work item.
    in_flight: HashMap<String, WorkItem>,
    /// Canonical spec -> completed result.
    cache: HashMap<String, CacheEntry>,
    /// Whether a dispatch cycle is executing outside the lock.
    dispatching: bool,
    counters: Counters,
    queue_wait_samples: Vec<f64>,
    run_time_samples: Vec<f64>,
}

#[derive(Default)]
struct Counters {
    submitted: u64,
    executed: u64,
    cache_hits: u64,
    coalesced: u64,
    rejected: u64,
    failed: u64,
}

impl State {
    /// Completes one executed item: caches the result (or records the
    /// failure), resolves every job attached to it and drops the item.
    fn complete(
        &mut self,
        canon: String,
        spec: &RunSpec,
        result: Result<IterationReport, TrainError>,
        run_s: f64,
        started: Instant,
    ) {
        self.counters.executed += 1;
        self.run_time_samples.push(run_s);
        let item = self.in_flight.remove(&canon).expect("a running spec is in flight");
        match result {
            Ok(report) => {
                let entry = CacheEntry {
                    model: spec.model.to_string(),
                    method: spec.method.to_string(),
                    devices: spec.machine.devices,
                    report,
                };
                for job in item.jobs {
                    let wait = started.saturating_duration_since(job.submitted);
                    self.queue_wait_samples.push(wait.as_secs_f64());
                    let report = entry.labelled(job.label);
                    self.jobs.insert(job.id, JobStatus::Done(CompletedJob { id: job.id, report }));
                }
                self.cache.insert(canon, entry);
            }
            Err(error) => {
                // Failures are not cached: the error goes to every job of the
                // item, and a later resubmission gets a fresh try.
                self.counters.failed += 1;
                let message = error.to_string();
                for job in item.jobs {
                    self.jobs.insert(job.id, JobStatus::Failed(message.clone()));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// The `campaignd` service object: submit [`RunSpec`]s, poll or await
/// [`RunReport`]s. See the module-level docs for the full contract.
pub struct CampaignService {
    config: ServiceConfig,
    state: Mutex<State>,
    /// Signalled whenever a dispatch cycle completes (jobs finished, the
    /// dispatcher role freed); waiting awaiters and drains park here.
    cycle_done: Condvar,
}

impl Default for CampaignService {
    fn default() -> Self {
        Self::new(ServiceConfig::default())
    }
}

impl CampaignService {
    /// An empty service with the given bound.
    pub fn new(config: ServiceConfig) -> Self {
        CampaignService {
            config: ServiceConfig::new(config.queue_depth),
            state: Mutex::new(State::default()),
            cycle_done: Condvar::new(),
        }
    }

    /// The service's configuration.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// Submits a spec. The client id is ignored: every caller shares the one
    /// FIFO queue.
    ///
    /// Never blocks on execution: the result is a handle. A spec whose
    /// canonical form is cached completes at once (a cache hit); one that is
    /// queued or running coalesces onto that execution; otherwise the spec
    /// joins the back of the queue.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Invalid`] for a spec that fails validation, and
    /// [`ServiceError::QueueFull`] when a new work item would exceed
    /// [`ServiceConfig::queue_depth`]; the client should drain and resubmit.
    pub fn submit(&self, _client: usize, spec: &RunSpec) -> Result<JobId, ServiceError> {
        // Validate outside the lock: invalid specs are rejected at the door,
        // so an execution can never fail on configuration.
        spec.session().map_err(ServiceError::Invalid)?;
        let canon = spec.canonical_json();
        let label = spec.label();
        let mut guard = self.lock();
        let st = &mut *guard;
        let id = JobId(st.next_id);
        let status = if let Some(entry) = st.cache.get(&canon) {
            st.counters.cache_hits += 1;
            JobStatus::Done(CompletedJob { id, report: entry.labelled(label) })
        } else if let Some(item) = st.in_flight.get_mut(&canon) {
            st.counters.coalesced += 1;
            item.jobs.push(PendingJob { id, label, submitted: Instant::now() });
            if item.spec.is_some() {
                JobStatus::Queued
            } else {
                JobStatus::Running
            }
        } else if st.queue.len() >= self.config.queue_depth {
            st.counters.rejected += 1;
            return Err(ServiceError::QueueFull {
                queued: st.queue.len(),
                depth: self.config.queue_depth,
            });
        } else {
            let jobs = vec![PendingJob { id, label, submitted: Instant::now() }];
            st.queue.push(canon.clone());
            st.in_flight.insert(canon, WorkItem { spec: Some(spec.clone()), jobs });
            JobStatus::Queued
        };
        st.next_id += 1;
        st.counters.submitted += 1;
        st.jobs.insert(id, status);
        Ok(id)
    }

    /// The job's current status, without blocking.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownJob`] for a handle this service does not hold.
    pub fn poll(&self, id: JobId) -> Result<JobStatus, ServiceError> {
        self.lock().jobs.get(&id).cloned().ok_or(ServiceError::UnknownJob(id))
    }

    /// Runs everything queued in one dispatch cycle on `pool`, after waiting
    /// out a cycle another thread is running. Returns the number of unique
    /// specs this call executed (0 when the queue was empty).
    pub fn drain(&self, pool: &ParExecutor) -> usize {
        let mut st = self.lock();
        while st.dispatching {
            st = self.wait(st);
        }
        self.dispatch(st, pool)
    }

    /// Blocks until `id` finishes and delivers it: the service forgets the
    /// job, so it can be awaited once. Runs the queue from the calling
    /// thread when no other thread is dispatching (so a single-threaded
    /// client can simply submit and await), and otherwise waits on that
    /// thread's cycle.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownJob`] for a handle this service does not hold
    /// and [`ServiceError::JobFailed`] when the job's execution failed.
    pub fn await_result(
        &self,
        id: JobId,
        pool: &ParExecutor,
    ) -> Result<CompletedJob, ServiceError> {
        loop {
            let mut st = self.lock();
            match st.jobs.get(&id) {
                None => return Err(ServiceError::UnknownJob(id)),
                Some(JobStatus::Queued | JobStatus::Running) => {}
                Some(JobStatus::Done(_) | JobStatus::Failed(_)) => {
                    return match st.jobs.remove(&id) {
                        Some(JobStatus::Done(job)) => Ok(job),
                        Some(JobStatus::Failed(message)) => {
                            Err(ServiceError::JobFailed { id, message })
                        }
                        _ => unreachable!("the job was finished under the same lock"),
                    };
                }
            }
            if st.dispatching {
                // Another thread is running a cycle (possibly ours): park
                // until it completes, then re-check.
                drop(self.wait(st));
            } else {
                self.dispatch(st, pool);
            }
        }
    }

    /// A snapshot of the service-wide counters.
    pub fn report(&self) -> ServiceReport {
        let st = self.lock();
        ServiceReport {
            submitted: st.counters.submitted,
            executed: st.counters.executed,
            cache_hits: st.counters.cache_hits,
            coalesced: st.counters.coalesced,
            rejected: st.counters.rejected,
            failed: st.counters.failed,
            cached_specs: st.cache.len(),
            in_flight: st.in_flight.len(),
            queue_wait: LatencyStats::from_samples(&st.queue_wait_samples),
            run_time: LatencyStats::from_samples(&st.run_time_samples),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("campaignd state poisoned")
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.cycle_done.wait(guard).expect("campaignd state poisoned")
    }

    /// One dispatch cycle. Takes the lock with no cycle running, takes the
    /// whole queue, releases the lock for the (expensive) executions,
    /// re-acquires it to complete the jobs, and wakes every waiter.
    fn dispatch(&self, mut guard: MutexGuard<'_, State>, pool: &ParExecutor) -> usize {
        debug_assert!(!guard.dispatching);
        let st = &mut *guard;
        let batch = std::mem::take(&mut st.queue);
        if batch.is_empty() {
            return 0;
        }
        st.dispatching = true;
        let specs: Vec<RunSpec> = batch
            .iter()
            .map(|canon| {
                let item = st.in_flight.get_mut(canon).expect("a queued spec is in flight");
                for job in &item.jobs {
                    st.jobs.insert(job.id, JobStatus::Running);
                }
                item.spec.take().expect("a queued item holds its spec")
            })
            .collect();
        drop(guard);
        let started = Instant::now();
        // Each unique spec's timed simulation runs as one parcore work item,
        // with its wall-clock measured by the pool itself.
        let results = pool.map_timed(specs, |_, spec| {
            let result = spec.session().and_then(|session| session.simulate_iteration());
            (spec, result)
        });
        let executed = batch.len();
        let mut st = self.lock();
        for (canon, ((spec, result), run_s)) in batch.into_iter().zip(results) {
            st.complete(canon, &spec, result, run_s, started);
        }
        st.dispatching = false;
        drop(st);
        self.cycle_done.notify_all();
        executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{MachineSpec, MethodSpec, ModelSpec};

    fn spec(devices: usize, method: MethodSpec) -> RunSpec {
        RunSpec::new(ModelSpec::preset("GPT2-0.34B"), MachineSpec::devices(devices), method)
    }

    #[test]
    fn submit_await_and_cache_hit_round_trip() {
        let service = CampaignService::default();
        let pool = ParExecutor::serial();
        let s = spec(2, MethodSpec::smart_update());
        let first = service.submit(0, &s).expect("submit");
        let done = service.await_result(first, &pool).expect("await");
        assert_eq!(done.id, first);
        assert_eq!(service.report().executed, 1);
        // The delivered job is gone.
        assert!(matches!(service.poll(first), Err(ServiceError::UnknownJob(_))));
        // Resubmission (different label, same content) is a cache hit with a
        // bit-identical payload.
        let renamed = s.clone().with_name("renamed");
        let second = service.submit(1, &renamed).expect("resubmit");
        let hit = match service.poll(second).expect("poll") {
            JobStatus::Done(job) => job,
            other => panic!("cache hit must complete at submit, got {other:?}"),
        };
        assert_eq!(hit.report.label, "renamed");
        assert_eq!(hit.report.report, done.report.report);
        assert_eq!(service.await_result(second, &pool).expect("deliver"), hit);
        let report = service.report();
        assert_eq!(report.executed, 1, "cache hits never re-execute");
        assert_eq!(report.submitted, 2);
        assert_eq!(report.cache_hits, 1);
        assert_eq!(report.cached_specs, 1);
        assert_eq!(report.in_flight, 0);
    }

    #[test]
    fn in_flight_submissions_coalesce_onto_one_execution() {
        let service = CampaignService::default();
        let pool = ParExecutor::serial();
        let s = spec(3, MethodSpec::smart_update_optimized());
        // Four submissions before any dispatch: one work item, three
        // coalesced riders.
        let ids: Vec<JobId> = (0..4).map(|i| service.submit(i % 3, &s).expect("submit")).collect();
        assert_eq!(service.report().coalesced, 3);
        for &id in &ids {
            assert_eq!(service.poll(id).expect("poll"), JobStatus::Queued);
        }
        assert_eq!(service.drain(&pool), 1);
        assert_eq!(service.report().executed, 1, "coalesced submissions share one execution");
        let reports: Vec<CompletedJob> =
            ids.iter().map(|&id| service.await_result(id, &pool).expect("done")).collect();
        for job in &reports {
            assert_eq!(job.report.report, reports[0].report.report);
        }
        assert_eq!(service.report().queue_wait.count, 4, "every rider waited once");
    }

    #[test]
    fn bounded_queue_rejects_explicitly_and_recovers() {
        let service = CampaignService::new(ServiceConfig::new(2));
        let pool = ParExecutor::serial();
        let a = spec(1, MethodSpec::baseline());
        let b = spec(2, MethodSpec::baseline());
        let c = spec(3, MethodSpec::baseline());
        service.submit(0, &a).expect("first fits");
        service.submit(0, &b).expect("second fits");
        let err = service.submit(0, &c).expect_err("third must be rejected");
        assert!(matches!(err, ServiceError::QueueFull { queued: 2, depth: 2 }), "{err}");
        // Coalescing onto queued work is not new work: always accepted.
        service.submit(1, &a).expect("coalesce while full");
        assert_eq!(service.report().rejected, 1);
        // One drain runs the whole queue, and then the same spec is accepted.
        assert_eq!(service.drain(&pool), 2);
        service.submit(0, &c).expect("accepted after drain");
        assert_eq!(service.drain(&pool), 1);
        assert_eq!(service.report().executed, 3);
        assert_eq!(ServiceConfig::new(0).queue_depth, 1, "the bound is at least one");
    }

    #[test]
    fn invalid_specs_and_foreign_handles_are_errors() {
        let service = CampaignService::default();
        let bad = spec(0, MethodSpec::baseline());
        let err = service.submit(0, &bad).expect_err("zero devices");
        assert!(matches!(err, ServiceError::Invalid(TrainError::Config { .. })), "{err}");
        assert!(err.to_string().contains("invalid submission"), "{err}");
        assert_eq!(service.report().submitted, 0, "invalid specs are never accepted");
        let err = service.poll(JobId(7)).expect_err("unknown job");
        assert!(matches!(err, ServiceError::UnknownJob(JobId(7))), "{err}");
    }

    #[test]
    fn concurrent_clients_share_executions() {
        let service = CampaignService::default();
        let pool = ParExecutor::new(2);
        let specs: Vec<RunSpec> = vec![
            spec(2, MethodSpec::baseline()),
            spec(2, MethodSpec::smart_update()),
            spec(2, MethodSpec::smart_update_optimized()),
        ];
        std::thread::scope(|scope| {
            for client in 0..4 {
                let service = &service;
                let specs = &specs;
                let pool = &pool;
                scope.spawn(move || {
                    let ids: Vec<JobId> = specs
                        .iter()
                        .cycle()
                        .skip(client)
                        .take(specs.len())
                        .map(|s| service.submit(client, s).expect("submit"))
                        .collect();
                    for id in ids {
                        service.await_result(id, pool).expect("await");
                    }
                });
            }
        });
        let report = service.report();
        assert_eq!(
            report.executed, 3,
            "4 clients x 3 overlapping specs must run each unique spec exactly once"
        );
        assert_eq!(report.submitted, 12);
        assert_eq!(report.cache_hits + report.coalesced, 9);
        assert_eq!(report.in_flight, 0);
        assert!(service.lock().jobs.is_empty(), "every job was delivered, so none is held");
    }

    #[test]
    fn latency_stats_order_statistics() {
        let stats = LatencyStats::from_samples(&[3.0, 1.0, 2.0, 4.0]);
        assert_eq!(stats.count, 4);
        assert!((stats.mean_s - 2.5).abs() < 1e-12);
        assert_eq!(stats.p50_s, 2.0);
        assert_eq!(stats.p95_s, 4.0);
        assert_eq!(stats.max_s, 4.0);
        assert_eq!(LatencyStats::from_samples(&[]), LatencyStats::default());
    }
}
