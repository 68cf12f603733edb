//! `campaignd` — the asynchronous campaign service: a work queue, in-flight
//! dedup, and a content-addressed result cache over [`RunSpec`] submissions.
//!
//! Many clients submit *overlapping* spec lists concurrently, and most of the
//! offered load is repeated work (the `lab` runner submits every trial of an
//! experiment, repeats and shared variants included). [`CampaignService`] is
//! the service layer for that shape:
//!
//! * **submit → [`JobId`] → poll/await** — clients get a handle immediately
//!   and collect the [`RunReport`] later ([`CampaignService::poll`] never
//!   blocks; [`CampaignService::await_result`] drives the queue until the
//!   job finishes).
//! * **Content-addressed cache** — results are stored under the spec's
//!   canonical serialization ([`RunSpec::canonical_json`]; the FNV-1a
//!   [`RunSpec::cache_key`] is the compact address reported in telemetry).
//!   A resubmitted spec is answered from cache with a bit-identical report,
//!   whatever its JSON spelling or label was. The cache is **bounded**: at
//!   most [`ServiceConfig::cache_capacity`] entries are retained, evicting
//!   the least-recently-used spec (hits refresh recency); evictions are
//!   counted in [`ServiceReport::cache_evictions`] and an evicted spec
//!   simply re-executes on resubmission.
//! * **In-flight dedup** — a spec that is already queued or running is
//!   *coalesced*: the new job attaches to the existing execution instead of
//!   enqueuing a second one. Each unique spec executes at most once, ever
//!   (provable via [`CampaignService::executions`]).
//! * **Admission batching + per-client round-robin fairness** — each
//!   dispatch cycle admits up to [`ServiceConfig::admission_batch`] unique
//!   work items, taking at most one item per client per turn in round-robin
//!   order, so a client with a deep backlog cannot starve the others.
//! * **Bounded queue with explicit rejection** — at most
//!   [`ServiceConfig::queue_depth`] unique work items may wait for
//!   admission; a submission that would enqueue beyond that is rejected with
//!   [`ServiceError::QueueFull`] (coalescing and cache hits are always
//!   admitted — they add no work).
//!
//! Per-job telemetry (queue wait, run time, cache hit, coalesce count, the
//! content address) rides on every [`CompletedJob`], and
//! [`CampaignService::report`] aggregates the service-wide view as a
//! [`ServiceReport`]. Execution itself fans out on [`parcore::ParExecutor`]
//! workers — the simulations stay deterministic, so cached, coalesced and
//! fresh results are all bit-identical for a given spec.
//!
//! The service is thread-safe behind `&self`: any number of client threads
//! may submit, poll and await concurrently. Dispatch runs on whichever
//! thread holds the dispatcher role (one at a time); waiters park on a
//! condvar until the cycle completes.

use crate::spec::RunSpec;
use parcore::ParExecutor;
use serde::Serialize;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;
use ztrain::{IterationReport, TrainError};

// ---------------------------------------------------------------------------
// Public surface: config, handles, telemetry, errors
// ---------------------------------------------------------------------------

/// Tuning knobs of a [`CampaignService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ServiceConfig {
    /// Maximum *unique* work items waiting for admission. A submission that
    /// would enqueue a new item beyond this is rejected with
    /// [`ServiceError::QueueFull`]; cache hits and coalesced submissions add
    /// no work and are always accepted.
    pub queue_depth: usize,
    /// Maximum unique work items admitted per dispatch cycle (the batch that
    /// runs concurrently on the executor's workers).
    pub admission_batch: usize,
    /// Maximum entries retained in the content-addressed result cache.
    /// Inserting beyond this evicts the least-recently-used entry (cache
    /// hits refresh recency); evictions are counted in
    /// [`ServiceReport::cache_evictions`].
    pub cache_capacity: usize,
}

impl Default for ServiceConfig {
    /// 64 queued unique specs, 8-wide admission batches, 256 cached results.
    fn default() -> Self {
        ServiceConfig { queue_depth: 64, admission_batch: 8, cache_capacity: 256 }
    }
}

impl ServiceConfig {
    /// A config with the given queue depth and admission batch (both clamped
    /// to at least 1) and the default cache capacity.
    pub fn new(queue_depth: usize, admission_batch: usize) -> Self {
        ServiceConfig {
            queue_depth: queue_depth.max(1),
            admission_batch: admission_batch.max(1),
            ..ServiceConfig::default()
        }
    }

    /// Replaces the result-cache capacity (clamped to at least 1).
    #[must_use]
    pub(crate) fn with_cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.cache_capacity = cache_capacity.max(1);
        self
    }
}

/// Handle for one submitted job, unique within its service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct JobId(u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Per-job telemetry, filled in when the job completes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct JobTelemetry {
    /// Seconds between submission and admission into a dispatch batch
    /// (0 for cache hits, which never queue).
    pub queue_wait_s: f64,
    /// Seconds the simulation ran (0 for cache hits).
    pub run_s: f64,
    /// Whether the result came from the content-addressed cache.
    pub cache_hit: bool,
    /// How many *other* jobs shared this job's execution (in-flight dedup).
    pub coalesced_with: usize,
    /// The spec's 64-bit content address ([`RunSpec::cache_key`]).
    pub spec_key: u64,
}

/// One spec's result: its presentation labels beside the timed breakdown.
#[derive(Debug, Clone, PartialEq, Serialize)]
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

/// A finished job: the report plus how it was produced.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CompletedJob {
    /// The job's handle.
    pub id: JobId,
    /// The submitting client.
    pub client: usize,
    /// The per-spec result, labelled with *this* submission's label (the
    /// cached [`IterationReport`] payload is shared between canonically
    /// equal specs).
    pub report: RunReport,
    /// How the result was produced.
    pub telemetry: JobTelemetry,
}

/// The observable state of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Waiting for admission into a dispatch batch.
    Queued,
    /// Admitted; its batch is executing now.
    Running,
    /// Finished; the result.
    Done(CompletedJob),
    /// Its execution failed; the error rendered with its source chain.
    Failed(String),
}

/// Errors of the service API.
#[derive(Debug)]
pub enum ServiceError {
    /// The submitted spec failed validation (never enqueued).
    Invalid(TrainError),
    /// The queue is at capacity; resubmit after the backlog drains.
    QueueFull {
        /// Unique work items currently waiting.
        queued: usize,
        /// The configured bound ([`ServiceConfig::queue_depth`]).
        depth: usize,
    },
    /// No such job was ever submitted to this service.
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

// ---------------------------------------------------------------------------
// Aggregated reporting
// ---------------------------------------------------------------------------

/// Order statistics over a latency sample set, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Default)]
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

/// Per-client aggregates within a [`ServiceReport`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Default)]
pub struct ClientReport {
    /// Accepted submissions from this client.
    pub submitted: u64,
    /// Jobs that reached [`JobStatus::Done`].
    pub completed: u64,
    /// Of those, answered from the content-addressed cache.
    pub cache_hits: u64,
    /// Submissions rejected with [`ServiceError::QueueFull`].
    pub rejected: u64,
    /// Longest admission wait any of this client's jobs saw, in seconds —
    /// the fairness metric: round-robin admission keeps this bounded for
    /// every client even when one client floods the queue.
    pub max_queue_wait_s: f64,
}

/// The service-wide telemetry snapshot ([`CampaignService::report`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServiceReport {
    /// Accepted submissions (excludes rejections).
    pub submitted: u64,
    /// Unique-spec executions actually run — the dedup proof: with caching
    /// and coalescing, this equals the number of *distinct* canonical specs
    /// ever admitted, no matter how many times each was submitted.
    pub executed: u64,
    /// Submissions answered from the content-addressed cache.
    pub cache_hits: u64,
    /// Submissions coalesced onto an already queued/running execution.
    pub coalesced: u64,
    /// Submissions rejected because the queue was at capacity.
    pub rejected: u64,
    /// Executions that failed (their jobs report [`JobStatus::Failed`]).
    pub failed: u64,
    /// Distinct canonical specs currently held in the result cache (never
    /// exceeds [`ServiceConfig::cache_capacity`]).
    pub cached_specs: usize,
    /// Results evicted from the cache to stay within
    /// [`ServiceConfig::cache_capacity`] (least-recently-used first).
    pub cache_evictions: u64,
    /// Unique work items still waiting or running.
    pub in_flight: usize,
    /// Work items currently sitting in the admission queue (not yet running).
    /// Always ≤ [`ServiceConfig::queue_depth`].
    pub queue_depth: usize,
    /// Per-client aggregates, indexed by client id.
    pub clients: Vec<ClientReport>,
    /// Admission-wait distribution over executed (non-cache-hit) jobs.
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

/// One coalesced submission: the job handle plus what it needs to be
/// completed under its own label and telemetry.
struct PendingJob {
    id: JobId,
    client: usize,
    label: String,
    submitted: Instant,
}

/// One unique unit of work: a canonical spec with every job attached to it.
/// The spec leaves the item when it is admitted and the canonical text when
/// it completes (into the cache), so a finished item holds neither.
struct WorkItem {
    canon: String,
    key: u64,
    spec: Option<RunSpec>,
    jobs: Vec<PendingJob>,
    running: bool,
}

/// What a job record points at.
enum JobRecord {
    /// In a work item (queued or running); the index into `State::items`.
    Pending(usize),
    /// Finished.
    Done(CompletedJob),
    /// Execution failed.
    Failed(String),
}

/// A cached result: everything a [`RunReport`] needs except the per-job
/// label (model/method/devices are semantic, so they are identical for every
/// canonically-equal spec).
struct CacheEntry {
    key: u64,
    model: String,
    method: String,
    devices: usize,
    report: IterationReport,
    /// Recency stamp for LRU eviction: the value of `State::cache_tick` at
    /// the last insert or hit.
    last_used: u64,
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
struct Counters {
    submitted: u64,
    executed: u64,
    cache_hits: u64,
    coalesced: u64,
    rejected: u64,
    failed: u64,
    cache_evictions: u64,
}

struct State {
    jobs: Vec<JobRecord>,
    items: Vec<WorkItem>,
    /// Per-client FIFO of item indices awaiting admission (an item sits in
    /// the queue of the client that *originated* it; coalesced jobs from
    /// other clients ride along on the item).
    client_queues: Vec<VecDeque<usize>>,
    /// Round-robin admission cursor over `client_queues`.
    rr_cursor: usize,
    /// Unique items waiting for admission (bounded by `queue_depth`).
    queued_items: usize,
    /// Canonical spec -> in-flight (queued or running) item index.
    in_flight: HashMap<String, usize>,
    /// Canonical spec -> completed result, LRU-bounded by `cache_capacity`.
    cache: HashMap<String, CacheEntry>,
    /// Retention bound on `cache` ([`ServiceConfig::cache_capacity`]).
    cache_capacity: usize,
    /// Monotone recency clock for the cache's LRU order.
    cache_tick: u64,
    /// Whether a dispatch cycle is currently executing outside the lock.
    dispatching: bool,
    counters: Counters,
    clients: Vec<ClientReport>,
    queue_wait_samples: Vec<f64>,
    run_time_samples: Vec<f64>,
}

impl State {
    fn new(cache_capacity: usize) -> Self {
        State {
            jobs: Vec::new(),
            items: Vec::new(),
            client_queues: Vec::new(),
            rr_cursor: 0,
            queued_items: 0,
            in_flight: HashMap::new(),
            cache: HashMap::new(),
            cache_capacity,
            cache_tick: 0,
            dispatching: false,
            counters: Counters::default(),
            clients: Vec::new(),
            queue_wait_samples: Vec::new(),
            run_time_samples: Vec::new(),
        }
    }

    fn ensure_client(&mut self, client: usize) {
        if client >= self.client_queues.len() {
            self.client_queues.resize_with(client + 1, VecDeque::new);
            self.clients.resize_with(client + 1, ClientReport::default);
        }
    }

    /// Admits up to `batch` queued items, visiting clients round-robin (at
    /// most one item per client per turn). Returns the admitted item
    /// indices; the items are marked running.
    fn admit(&mut self, batch: usize) -> Vec<usize> {
        let num_clients = self.client_queues.len();
        let mut admitted = Vec::new();
        if num_clients == 0 {
            return admitted;
        }
        let mut consecutive_empty = 0;
        while admitted.len() < batch && consecutive_empty < num_clients {
            let client = self.rr_cursor;
            self.rr_cursor = (self.rr_cursor + 1) % num_clients;
            match self.client_queues[client].pop_front() {
                Some(item) => {
                    self.items[item].running = true;
                    self.queued_items -= 1;
                    admitted.push(item);
                    consecutive_empty = 0;
                }
                None => consecutive_empty += 1,
            }
        }
        admitted
    }

    /// Completes one executed item: caches the result (or records the
    /// failure) and resolves every coalesced job.
    fn complete(
        &mut self,
        item_idx: usize,
        spec: &RunSpec,
        result: Result<IterationReport, TrainError>,
        run_s: f64,
        admitted_at: Instant,
    ) {
        self.counters.executed += 1;
        self.run_time_samples.push(run_s);
        let item = &mut self.items[item_idx];
        item.running = false;
        let canon = std::mem::take(&mut item.canon);
        self.in_flight.remove(&canon);
        let jobs = std::mem::take(&mut item.jobs);
        match result {
            Ok(report) => {
                let entry = CacheEntry {
                    key: item.key,
                    model: spec.model.to_string(),
                    method: spec.method.to_string(),
                    devices: spec.machine.devices,
                    report,
                    last_used: 0, // stamped by `cache_insert`
                };
                let coalesced_with = jobs.len().saturating_sub(1);
                for job in &jobs {
                    let queue_wait_s = admitted_at.saturating_duration_since(job.submitted);
                    let queue_wait_s = queue_wait_s.as_secs_f64();
                    self.queue_wait_samples.push(queue_wait_s);
                    let stats = &mut self.clients[job.client];
                    stats.completed += 1;
                    stats.max_queue_wait_s = stats.max_queue_wait_s.max(queue_wait_s);
                    self.jobs[job.id.0 as usize] = JobRecord::Done(CompletedJob {
                        id: job.id,
                        client: job.client,
                        report: entry.labelled(job.label.clone()),
                        telemetry: JobTelemetry {
                            queue_wait_s,
                            run_s,
                            cache_hit: false,
                            coalesced_with,
                            spec_key: item.key,
                        },
                    });
                }
                self.cache_insert(canon, entry);
            }
            Err(error) => {
                // Failures are not cached: the error is recorded on every
                // coalesced job, and a later resubmission gets a fresh try.
                self.counters.failed += 1;
                let message = error.to_string();
                for job in &jobs {
                    self.jobs[job.id.0 as usize] = JobRecord::Failed(message.clone());
                }
            }
        }
    }

    /// Inserts a freshly-computed result, then evicts least-recently-used
    /// entries until the cache is back within its capacity.
    fn cache_insert(&mut self, canon: String, mut entry: CacheEntry) {
        self.cache_tick += 1;
        entry.last_used = self.cache_tick;
        self.cache.insert(canon, entry);
        while self.cache.len() > self.cache_capacity {
            let lru = self
                .cache
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("over-capacity cache is non-empty");
            self.cache.remove(&lru);
            self.counters.cache_evictions += 1;
        }
    }

    fn snapshot(&self) -> ServiceReport {
        ServiceReport {
            submitted: self.counters.submitted,
            executed: self.counters.executed,
            cache_hits: self.counters.cache_hits,
            coalesced: self.counters.coalesced,
            rejected: self.counters.rejected,
            failed: self.counters.failed,
            cached_specs: self.cache.len(),
            cache_evictions: self.counters.cache_evictions,
            in_flight: self.in_flight.len(),
            queue_depth: self.queued_items,
            clients: self.clients.clone(),
            queue_wait: LatencyStats::from_samples(&self.queue_wait_samples),
            run_time: LatencyStats::from_samples(&self.run_time_samples),
        }
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// The `campaignd` daemon object: submit [`RunSpec`]s, poll or await
/// [`RunReport`]s. See the module-level docs for the full contract.
pub struct CampaignService {
    config: ServiceConfig,
    state: Mutex<State>,
    /// Signalled whenever a dispatch cycle completes (jobs finished, the
    /// dispatcher role freed) — both waiters in [`CampaignService::poll`]
    /// loops and would-be dispatchers park here.
    cycle_done: Condvar,
}

impl Default for CampaignService {
    fn default() -> Self {
        Self::new(ServiceConfig::default())
    }
}

impl CampaignService {
    /// An empty service with the given knobs.
    pub fn new(config: ServiceConfig) -> Self {
        let config = ServiceConfig::new(config.queue_depth, config.admission_batch)
            .with_cache_capacity(config.cache_capacity);
        CampaignService {
            config,
            state: Mutex::new(State::new(config.cache_capacity)),
            cycle_done: Condvar::new(),
        }
    }

    /// The service's configuration.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// Submits a spec on behalf of `client` (client ids are small dense
    /// integers; the service grows its per-client accounting on demand).
    ///
    /// Never blocks on execution: the result is a handle. A spec whose
    /// canonical form is already cached completes immediately (cache hit);
    /// one that is already queued or running coalesces onto the in-flight
    /// execution; otherwise a new work item is enqueued.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Invalid`] for a spec that fails validation, and
    /// [`ServiceError::QueueFull`] when a new work item would exceed
    /// [`ServiceConfig::queue_depth`] — the explicit admission-control
    /// rejection; the client should back off and resubmit.
    pub fn submit(&self, client: usize, spec: &RunSpec) -> Result<JobId, ServiceError> {
        // Validate outside the lock: invalid specs are rejected at the door
        // so the executor can never fail on configuration.
        spec.session().map_err(ServiceError::Invalid)?;
        let canon = spec.canonical_json();
        let key = crate::canon::fnv1a(canon.as_bytes());
        let label = spec.label();
        let mut st = self.lock();
        st.ensure_client(client);
        st.cache_tick += 1;
        let tick = st.cache_tick;
        let id = JobId(st.jobs.len() as u64);
        if let Some(entry) = st.cache.get_mut(&canon) {
            // LRU touch: a hit keeps the entry hot.
            entry.last_used = tick;
            let completed = CompletedJob {
                id,
                client,
                report: entry.labelled(label),
                telemetry: JobTelemetry {
                    queue_wait_s: 0.0,
                    run_s: 0.0,
                    cache_hit: true,
                    coalesced_with: 0,
                    spec_key: entry.key,
                },
            };
            st.jobs.push(JobRecord::Done(completed));
            st.counters.submitted += 1;
            st.counters.cache_hits += 1;
            st.clients[client].submitted += 1;
            st.clients[client].completed += 1;
            st.clients[client].cache_hits += 1;
            return Ok(id);
        }
        let pending = PendingJob { id, client, label, submitted: Instant::now() };
        if let Some(&item_idx) = st.in_flight.get(&canon) {
            st.items[item_idx].jobs.push(pending);
            st.jobs.push(JobRecord::Pending(item_idx));
            st.counters.submitted += 1;
            st.counters.coalesced += 1;
            st.clients[client].submitted += 1;
            return Ok(id);
        }
        if st.queued_items >= self.config.queue_depth {
            st.counters.rejected += 1;
            st.clients[client].rejected += 1;
            return Err(ServiceError::QueueFull {
                queued: st.queued_items,
                depth: self.config.queue_depth,
            });
        }
        let item_idx = st.items.len();
        st.items.push(WorkItem {
            canon: canon.clone(),
            key,
            spec: Some(spec.clone()),
            jobs: vec![pending],
            running: false,
        });
        st.in_flight.insert(canon, item_idx);
        st.client_queues[client].push_back(item_idx);
        st.queued_items += 1;
        st.jobs.push(JobRecord::Pending(item_idx));
        st.counters.submitted += 1;
        st.clients[client].submitted += 1;
        Ok(id)
    }

    /// The job's current status, without blocking.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownJob`] for a handle this service never issued.
    pub fn poll(&self, id: JobId) -> Result<JobStatus, ServiceError> {
        let st = self.lock();
        match st.jobs.get(id.0 as usize) {
            None => Err(ServiceError::UnknownJob(id)),
            Some(JobRecord::Done(job)) => Ok(JobStatus::Done(job.clone())),
            Some(JobRecord::Failed(message)) => Ok(JobStatus::Failed(message.clone())),
            Some(JobRecord::Pending(item)) => {
                if st.items[*item].running {
                    Ok(JobStatus::Running)
                } else {
                    Ok(JobStatus::Queued)
                }
            }
        }
    }

    /// Runs one dispatch cycle on `pool`: waits for any in-progress cycle,
    /// admits up to [`ServiceConfig::admission_batch`] items round-robin,
    /// executes them concurrently, completes their jobs. Returns the number
    /// of unique items executed (0 when the queue was empty).
    pub fn tick(&self, pool: &ParExecutor) -> usize {
        let mut st = self.lock();
        while st.dispatching {
            st = self.wait(st);
        }
        self.dispatch(st, pool)
    }

    /// Dispatch cycles until the queue is idle (no queued items, no running
    /// cycle). Returns the total number of unique items executed.
    pub fn drain(&self, pool: &ParExecutor) -> usize {
        let mut total = 0;
        loop {
            let executed = self.tick(pool);
            total += executed;
            if executed == 0 {
                let st = self.lock();
                if st.queued_items == 0 && !st.dispatching {
                    return total;
                }
            }
        }
    }

    /// Blocks until `id` finishes, driving the queue from the calling
    /// thread when no other thread is dispatching (so a single-threaded
    /// client can simply submit and await). While another thread holds the
    /// dispatcher role this waits on its cycle instead of spinning.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownJob`] for a foreign handle and
    /// [`ServiceError::JobFailed`] when the job's execution failed.
    pub fn await_result(
        &self,
        id: JobId,
        pool: &ParExecutor,
    ) -> Result<CompletedJob, ServiceError> {
        loop {
            let st = self.lock();
            match st.jobs.get(id.0 as usize) {
                None => return Err(ServiceError::UnknownJob(id)),
                Some(JobRecord::Done(job)) => return Ok(job.clone()),
                Some(JobRecord::Failed(message)) => {
                    return Err(ServiceError::JobFailed { id, message: message.clone() })
                }
                Some(JobRecord::Pending(_)) => {}
            }
            if st.dispatching {
                // Someone else is executing a batch (possibly ours): park
                // until the cycle completes, then re-check.
                drop(self.wait(st));
            } else {
                // Become the dispatcher. Fairness may admit other clients'
                // items first; the loop keeps driving until ours lands.
                self.dispatch(st, pool);
            }
        }
    }

    /// Proof counter for the dedup contract: how many unique-spec executions
    /// have actually run. With coalescing and caching this can never exceed
    /// the number of distinct canonical specs submitted.
    pub fn executions(&self) -> u64 {
        self.lock().counters.executed
    }

    /// A snapshot of the service-wide telemetry.
    pub fn report(&self) -> ServiceReport {
        self.lock().snapshot()
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("campaignd state poisoned")
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.cycle_done.wait(guard).expect("campaignd state poisoned")
    }

    /// The dispatch cycle body. Takes the lock with `dispatching == false`,
    /// admits a batch, releases the lock for the (expensive) executions,
    /// re-acquires it to complete the jobs, and wakes every waiter.
    fn dispatch(&self, mut st: MutexGuard<'_, State>, pool: &ParExecutor) -> usize {
        debug_assert!(!st.dispatching);
        let admitted = st.admit(self.config.admission_batch);
        if admitted.is_empty() {
            return 0;
        }
        st.dispatching = true;
        let specs: Vec<RunSpec> = admitted
            .iter()
            .map(|&i| st.items[i].spec.take().expect("a queued item holds its spec"))
            .collect();
        drop(st);
        let admitted_at = Instant::now();
        // The executor integration: each unique spec's timed simulation runs
        // as one parcore work item, with per-item wall-clock measured by the
        // pool itself.
        let results = pool.map_timed(specs, |_, spec| {
            let result = spec.session().and_then(|session| session.simulate_iteration());
            (spec, result)
        });
        let mut st = self.lock();
        for (&item_idx, ((spec, result), run_s)) in admitted.iter().zip(results) {
            st.complete(item_idx, &spec, result, run_s, admitted_at);
        }
        st.dispatching = false;
        drop(st);
        self.cycle_done.notify_all();
        admitted.len()
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
        assert!(!done.telemetry.cache_hit);
        assert_eq!(done.telemetry.spec_key, s.cache_key());
        assert_eq!(service.executions(), 1);
        // Resubmission (different label, same content) is a cache hit with a
        // bit-identical payload.
        let renamed = s.clone().with_name("renamed");
        let second = service.submit(1, &renamed).expect("resubmit");
        let hit = match service.poll(second).expect("poll") {
            JobStatus::Done(job) => job,
            other => panic!("cache hit must complete at submit, got {other:?}"),
        };
        assert!(hit.telemetry.cache_hit);
        assert_eq!(hit.report.label, "renamed");
        assert_eq!(hit.report.report, done.report.report);
        assert_eq!(service.executions(), 1, "cache hits never re-execute");
        let report = service.report();
        assert_eq!(report.submitted, 2);
        assert_eq!(report.cache_hits, 1);
        assert_eq!(report.cached_specs, 1);
        assert_eq!(report.clients[1].cache_hits, 1);
    }

    #[test]
    fn in_flight_submissions_coalesce_onto_one_execution() {
        let service = CampaignService::default();
        let pool = ParExecutor::serial();
        let s = spec(3, MethodSpec::smart_update_optimized());
        // Four submissions from three clients before any dispatch: one work
        // item, three coalesced riders.
        let ids: Vec<JobId> = (0..4).map(|i| service.submit(i % 3, &s).expect("submit")).collect();
        assert_eq!(service.report().coalesced, 3);
        for &id in &ids {
            assert_eq!(service.poll(id).expect("poll"), JobStatus::Queued);
        }
        let executed = service.drain(&pool);
        assert_eq!(executed, 1);
        assert_eq!(service.executions(), 1, "coalesced submissions share one execution");
        let reports: Vec<CompletedJob> =
            ids.iter().map(|&id| service.await_result(id, &pool).expect("done")).collect();
        for job in &reports {
            assert_eq!(job.telemetry.coalesced_with, 3);
            assert_eq!(job.report.report, reports[0].report.report);
        }
    }

    #[test]
    fn bounded_queue_rejects_explicitly_and_recovers() {
        let service = CampaignService::new(ServiceConfig::new(2, 8));
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
        // After the backlog drains the same spec is accepted.
        service.drain(&pool);
        service.submit(0, &c).expect("accepted after drain");
        service.drain(&pool);
        assert_eq!(service.executions(), 3);
    }

    #[test]
    fn round_robin_admission_is_fair_across_clients() {
        // Client 0 floods five items; client 1 submits one. With one-item
        // batches, client 1's item must be admitted in the second cycle, not
        // after client 0's whole backlog.
        let service = CampaignService::new(ServiceConfig::new(64, 1));
        let pool = ParExecutor::serial();
        for devices in 1..=5 {
            service.submit(0, &spec(devices, MethodSpec::baseline())).expect("flood");
        }
        let starved = service.submit(1, &spec(6, MethodSpec::smart_update())).expect("submit");
        assert_eq!(service.tick(&pool), 1); // client 0's first item
        assert_eq!(service.tick(&pool), 1); // client 1's only item
        match service.poll(starved).expect("poll") {
            JobStatus::Done(_) => {}
            other => panic!("round-robin must admit client 1 by cycle two, got {other:?}"),
        }
        service.drain(&pool);
        assert_eq!(service.executions(), 6);
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
        assert_eq!(
            service.executions(),
            3,
            "4 clients x 3 overlapping specs must run each unique spec exactly once"
        );
        let report = service.report();
        assert_eq!(report.submitted, 12);
        assert_eq!(report.cache_hits + report.coalesced, 9);
        for client in &report.clients {
            assert_eq!(client.completed, 3, "no client may be starved");
        }
    }

    #[test]
    fn result_cache_evicts_least_recently_used_and_re_executes() {
        let service = CampaignService::new(ServiceConfig::default().with_cache_capacity(2));
        let pool = ParExecutor::serial();
        let a = spec(1, MethodSpec::baseline());
        let b = spec(2, MethodSpec::baseline());
        let c = spec(3, MethodSpec::baseline());
        for s in [&a, &b] {
            let id = service.submit(0, s).expect("submit");
            service.await_result(id, &pool).expect("await");
        }
        // Touch `a` (cache hit) so `b` is the least-recently-used entry.
        let hit = service.submit(0, &a).expect("hit");
        assert!(matches!(service.poll(hit).expect("poll"), JobStatus::Done(_)));
        // Inserting `c` overflows capacity 2: `b` must be evicted, not `a`.
        let id = service.submit(0, &c).expect("submit");
        service.await_result(id, &pool).expect("await");
        let report = service.report();
        assert_eq!(report.cached_specs, 2, "cache stays within capacity");
        assert_eq!(report.cache_evictions, 1);
        // `a` survived eviction; `b` re-executes on resubmission.
        let again_a = service.submit(1, &a).expect("resubmit a");
        assert!(matches!(service.poll(again_a).expect("poll"), JobStatus::Done(_)));
        assert_eq!(service.executions(), 3, "a is still cached");
        let again_b = service.submit(1, &b).expect("resubmit b");
        service.await_result(again_b, &pool).expect("await");
        assert_eq!(service.executions(), 4, "evicted b runs again");
        assert_eq!(service.report().cache_evictions, 2, "re-inserting b evicts again");
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
