//! The experiment harness: one function per table or figure of the paper's
//! evaluation section that still needs code (Table I, Table IV, the pipelined
//! backend study and the perf snapshot). Each function runs its experiment
//! and returns a serialisable result that the `figures` binary renders as
//! text (and JSON). The sweep figures (3a, 3b, 9, 10, 11, 12, 13, 16 and 17)
//! are `lab` experiments under `specs/experiments/`, with their claims beside
//! them in `expect.jsonl`; Fig. 15 is the fig11 journal priced by
//! `llm::CostModel` (the `Fig. 15:` rows of `fig11/expect.jsonl`). Table III
//! and Fig. 14 are constant, so tests pin them: `csd::resource`'s
//! `tab3_matches_the_paper_within_tolerance` and `ztrain::machine`'s
//! `fig14_kernels_outpace_the_ssd`.

use llm::{ModelConfig, Workload};
use optim::OptimizerKind;
use serde::{Deserialize, Serialize};
use smart_infinity::{
    Campaign, MachineSpec, MethodSpec, ModelSpec, RunSpec, Session, TrafficMethod, TrafficModel,
};
use tensorlib::KernelPath;
use ztrain::realtrain::{train_classifier, Dataset, MlpModel, TrainConfig};
use ztrain::{IterationReport, MachineConfig, PipelinedTrainer};

/// The session of `method` training `model` under Adam — the one way the
/// figures below reach the timed model.
fn session(machine: MachineConfig, model: &ModelConfig, method: MethodSpec) -> Session {
    Session::builder(model.clone(), machine, method).build()
}

/// One simulated iteration of `method` under Adam.
fn simulate(machine: MachineConfig, model: &ModelConfig, method: MethodSpec) -> IterationReport {
    session(machine, model, method).simulate_iteration().expect("simulation")
}

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// One row of the interconnect-traffic table, in the paper's `M` units.
#[derive(Debug, Clone, Serialize)]
pub struct TrafficRow {
    /// Method label.
    pub method: String,
    /// Optimizer-state bytes read, in M.
    pub opt_read_m: f64,
    /// Optimizer-state bytes written, in M.
    pub opt_write_m: f64,
    /// Gradient bytes read, in M.
    pub grad_read_m: f64,
    /// Gradient bytes written, in M.
    pub grad_write_m: f64,
    /// Updated parameters streamed upstream, in M.
    pub param_up_m: f64,
}

/// Table I: per-iteration system-interconnect traffic for ZeRO-Infinity,
/// SmartUpdate and SmartComp (2%). The traffic rows are *derived* from the
/// method's capability axes (`TrafficMethod::from(&spec)`) — the paper's row
/// names just relabel the baseline/SmartUpdate specs.
pub fn tab1() -> Vec<TrafficRow> {
    let workload = Workload::paper_default(ModelConfig::gpt2_4b());
    let m = workload.model_bytes_fp16() as f64;
    let model = TrafficModel::new(workload, OptimizerKind::Adam);
    [
        ("ZeRO-Inf", MethodSpec::baseline()),
        ("SmartUpdate", MethodSpec::smart_update_optimized()),
        ("SmartComp (2%)", MethodSpec::smart_comp(0.01)),
    ]
    .into_iter()
    .map(|(label, spec)| {
        let t = model.per_iteration(TrafficMethod::from(&spec)).in_m_units(m);
        TrafficRow {
            method: label.to_string(),
            opt_read_m: t.optimizer_read,
            opt_write_m: t.optimizer_write,
            grad_read_m: t.gradient_read,
            grad_write_m: t.gradient_write,
            param_up_m: t.parameter_upstream,
        }
    })
    .collect()
}

// ---------------------------------------------------------------------------
// Table IV: fine-tuning accuracy
// ---------------------------------------------------------------------------

/// Accuracy and speedup of one fine-tuning configuration.
#[derive(Debug, Clone, Serialize)]
pub struct FinetuneRow {
    /// Model being fine-tuned (speedup column) .
    pub model: String,
    /// Method label (Baseline / SU+O / SU+O+C at a ratio).
    pub method: String,
    /// Iteration-time speedup over the baseline with 6 devices.
    pub speedup: f64,
    /// Held-out accuracy per GLUE-like task, in suite order
    /// (MNLI-like, QQP-like, SST2-like, QNLI-like), in percent.
    pub accuracies_pct: Vec<f64>,
}

/// The compression settings of Table IV: transfer ratios 10%, 5%, 2%, 1%
/// (keep ratios of half that).
pub(crate) fn tab4_transfer_ratios() -> Vec<f64> {
    vec![0.10, 0.05, 0.02, 0.01]
}

/// Table IV: fine-tuning accuracy (real optimisation runs on the GLUE-like
/// suite) and iteration-time speedup (timed model, 6 devices) for BERT-0.34B,
/// GPT2-0.77B and GPT2-1.6B across compression ratios.
///
/// `epochs` controls the accuracy-run length (3 reproduces the paper's setup;
/// 1 is enough for a quick smoke run).
pub fn tab4(epochs: usize) -> Vec<FinetuneRow> {
    let suite = Dataset::glue_like_suite(2024);
    let mlp = MlpModel::new(32, 48, 3);
    // Datasets have different input dims; build one model per dataset.
    let accuracy_suite = |keep_ratio: Option<f64>| -> Vec<f64> {
        suite
            .iter()
            .map(|ds| {
                let model = MlpModel::new(ds.input_dim, mlp.hidden_dim, ds.num_classes);
                let config = TrainConfig { epochs, keep_ratio, ..TrainConfig::default() };
                train_classifier(&model, ds, &config).test_accuracy * 100.0
            })
            .collect()
    };

    let models = [ModelConfig::bert_0_34b(), ModelConfig::gpt2_0_77b(), ModelConfig::gpt2_1_6b()];
    let mut rows = Vec::new();
    for model in models {
        let run = |method| simulate(MachineConfig::smart_infinity(6), &model, method);
        let base = run(MethodSpec::baseline());
        let mut push = |method: MethodSpec, label: String, keep: Option<f64>| {
            let report = run(method);
            rows.push(FinetuneRow {
                model: model.name().to_string(),
                method: label,
                speedup: report.speedup_over(&base),
                accuracies_pct: accuracy_suite(keep),
            });
        };
        push(MethodSpec::baseline(), "Baseline".to_string(), None);
        push(MethodSpec::smart_update_optimized(), "SU+O".to_string(), None);
        for transfer in tab4_transfer_ratios() {
            let keep = transfer / 2.0;
            push(
                MethodSpec::smart_comp(keep),
                format!("SU+O+C ({:.0}%)", transfer * 100.0),
                Some(keep),
            );
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Pipelined-backend overlap study (timed view)
// ---------------------------------------------------------------------------

/// One row of the pipelined-backend study: the phase breakdown plus the
/// stage-level occupancy of the shared uplink.
#[derive(Debug, Clone, Serialize)]
pub struct PipelineRow {
    /// Configuration label.
    pub label: String,
    /// Per-phase breakdown of one iteration.
    pub report: IterationReport,
    /// Speedup over the serial SU+O schedule of the same machine.
    pub speedup_over_serial: f64,
    /// Seconds of update work that overlapped the backward phase.
    pub update_overlap_s: f64,
    /// Downstream host-uplink occupancy of the write stage.
    pub uplink_write_busy_s: f64,
    /// Upstream host-uplink occupancy of the read-back stage.
    pub uplink_readback_busy_s: f64,
}

/// The pipelined execution backend study (GPT-2 4.0B): serial SU+O vs the
/// pipelined schedule, dense and compressed, at 6 and 10 devices — the
/// stage-level uplink accounting that complements the paper's method ladder.
pub fn pipeline_overlap() -> Vec<PipelineRow> {
    let model = ModelConfig::gpt2_4b();
    let mut rows = Vec::new();
    for n in [6usize, 10] {
        // The serial schedule comes first: it is the reference of its group.
        let configs = [
            ("SU+O (serial)", MethodSpec::smart_update_optimized()),
            ("SU+O+P", MethodSpec::pipelined(None)),
            ("SU+O+P+C(2%)", MethodSpec::pipelined(Some(0.01))),
        ];
        let mut serial = None;
        for (label, method) in configs {
            let timing = session(MachineConfig::smart_infinity(n), &model, method)
                .simulate_iteration_stages()
                .expect("simulation");
            let serial = serial.get_or_insert(timing.report);
            rows.push(PipelineRow {
                label: format!("#SSD={n} {label}"),
                speedup_over_serial: timing.report.speedup_over(serial),
                update_overlap_s: timing.update_overlap_s,
                uplink_write_busy_s: timing.uplink_write_busy_s,
                uplink_readback_busy_s: timing.uplink_readback_busy_s,
                report: timing.report,
            });
        }
    }
    rows
}

/// Renders the pipeline study as a fixed-width text table.
pub fn render_pipeline(rows: &[PipelineRow]) -> String {
    let mut out =
        String::from("Pipelined execution backend: stage overlap and shared-uplink occupancy\n");
    out.push_str(&format!(
        "{:<24} {:>10} {:>9} {:>11} {:>12} {:>12}\n",
        "config", "Total (s)", "speedup", "overlap (s)", "uplink W (s)", "uplink R (s)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<24} {:>10.2} {:>8.2}x {:>11.2} {:>12.2} {:>12.2}\n",
            r.label,
            r.report.total_s(),
            r.speedup_over_serial,
            r.update_overlap_s,
            r.uplink_write_busy_s,
            r.uplink_readback_busy_s
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// The reference ladder
// ---------------------------------------------------------------------------

/// The reference ladder the perf snapshot times: the paper's ablation ladder
/// plus both pipelined points (GPT-2 4.0B, 6 devices) — the same six specs
/// `specs/ladder.json` checks in.
pub fn ladder_campaign() -> Campaign {
    let mut methods = MethodSpec::ladder();
    methods.push(MethodSpec::pipelined(None));
    methods.push(MethodSpec::pipelined(Some(0.01)));
    Campaign::new(
        methods
            .into_iter()
            .map(|method| {
                RunSpec::new(ModelSpec::preset("GPT2-4.0B"), MachineSpec::devices(6), method)
            })
            .collect(),
    )
    .with_name("ladder")
}

// ---------------------------------------------------------------------------
// BENCH_2: execution-backend performance snapshot
// ---------------------------------------------------------------------------

/// One point of a per-kernel thread sweep: throughput at a worker count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThreadPoint {
    /// Worker-thread count the measurement ran with.
    pub threads: usize,
    /// Throughput at that worker count, elements per second.
    pub elems_per_sec: f64,
}

/// Measured throughput of one kernel, serial vs parallel.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelPerf {
    /// Kernel name.
    pub kernel: String,
    /// SIMD path the kernel's hot loop dispatched to when measured
    /// (`scalar` or `avx2`) — snapshots from machines with different
    /// vector units are not directly comparable, and the perf gate skips
    /// absolute-throughput checks when the paths differ.
    pub kernel_path: KernelPath,
    /// Serial throughput in elements per second.
    pub serial_elems_per_sec: f64,
    /// Parallel throughput in elements per second (at `threads` workers).
    pub parallel_elems_per_sec: f64,
    /// `serial / parallel` wall-clock ratio, or `None` when the snapshot was
    /// taken on a single-CPU machine — there the worker threads time-slice
    /// one core and the ratio would be misleading, so it is not recorded.
    pub speedup: Option<f64>,
    /// Throughput at each swept worker count (telemetry; the gate only
    /// checks the serial and parallel rates above).
    pub per_thread_elems_per_sec: Vec<ThreadPoint>,
}

/// Wall-clock of the reference ladder ([`ladder_campaign`]), serial vs
/// fanned out on `parcore` workers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignPerf {
    /// Number of specs in the campaign.
    pub specs: usize,
    /// Seconds for one serial pass over all specs.
    pub serial_s: f64,
    /// Seconds with the specs fanned out across the workers.
    pub parallel_s: f64,
    /// `serial / parallel`, or `None` on a single-CPU machine (the caveat
    /// recorded by `parallel_valid`).
    pub speedup: Option<f64>,
    /// How many of the campaign's specs carried a fault-injection axis when
    /// the snapshot was taken. Fault recovery adds modeled backoff and
    /// derated bandwidth on purpose, so the gate refuses to compare
    /// wall-clocks when either side is non-zero. `None` in snapshots blessed
    /// before fault injection existed (treated as zero).
    pub fault_specs: Option<usize>,
}

impl CampaignPerf {
    /// `true` when the measured campaign injected faults into any spec.
    pub(crate) fn has_faults(&self) -> bool {
        self.fault_specs.unwrap_or(0) > 0
    }
}

/// The tracked performance snapshot of the execution backend (`BENCH_2.json`):
/// elements/second of the hot kernels, serial and parallel, so future PRs
/// have a trajectory to compare against. Numbers are machine-dependent; the
/// snapshot records the CPU count it was measured on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfSnapshot {
    /// CPUs available to the measuring process (parallel speedup is bounded
    /// by this: on a 1-CPU container the ratio cannot exceed ~1.0).
    pub num_cpus: usize,
    /// SIMD path active on the measuring machine ([`KernelPath::active`]).
    pub kernel_path: KernelPath,
    /// Whether the parallel measurements are meaningful: `false` when only
    /// one CPU was visible, in which case the per-kernel `speedup` ratios are
    /// omitted (see the BENCH_2.json caveat in ROADMAP.md).
    pub parallel_valid: bool,
    /// Worker-thread count used for the parallel measurements.
    pub threads: usize,
    /// Tensor length every kernel ran over.
    pub elems: usize,
    /// Updater (Adam step), Top-K compressor, and related kernel rates.
    pub kernels: Vec<KernelPerf>,
    /// f32 → f16-bytes serialisation rate, elements per second.
    pub f16_to_bytes_elems_per_sec: f64,
    /// f16-bytes → f32 deserialisation rate (lookup-table bulk path).
    pub f16_from_bytes_elems_per_sec: f64,
    /// In-memory FP16 round-trip rate (`roundtrip_f16_into`).
    pub f16_roundtrip_elems_per_sec: f64,
    /// The reference ladder's timed iterations, serial vs parallel.
    pub campaign: CampaignPerf,
}

/// Best (minimum) wall-clock seconds of `reps` runs of `f`. The minimum is
/// the noise-robust estimator the regression gate needs: scheduler
/// interference and co-tenant load only ever make a run *slower*, so the
/// fastest observation is the closest to the machine's actual capability and
/// is far more stable run-to-run than the median on a shared box.
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up (also populates lazy tables)
    (0..reps.max(1))
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Measures the execution-backend kernels. `quick` shrinks the tensor and the
/// repetition count (used by the CI smoke job); the checked-in snapshot is
/// produced with `quick = false`.
pub fn perf_snapshot(quick: bool) -> PerfSnapshot {
    use optim::Optimizer;
    use parcore::ParExecutor;
    use tensorlib::{Dtype, FlatTensor};

    let elems: usize = if quick { 1 << 18 } else { 1 << 20 };
    let reps = if quick { 3 } else { 5 };
    let threads = 4usize;
    let num_cpus = ParExecutor::current().num_threads();
    // A serial/parallel wall-clock ratio only means something when the
    // workers can actually run concurrently.
    let parallel_valid = num_cpus > 1;
    let pool = ParExecutor::new(threads);
    let rate = |secs: f64| elems as f64 / secs;
    // Worker counts each kernel is swept over; the first is the serial rate,
    // the last the headline parallel rate.
    let sweep = [1usize, 2, threads];
    // Assembles one kernel row from its sweep: serial = 1 worker, parallel =
    // `threads` workers, speedup only when the workers can actually run
    // concurrently.
    let kernel_perf = |kernel: &str, points: Vec<ThreadPoint>| {
        let serial = points.first().expect("sweep has a 1-worker point").elems_per_sec;
        let parallel = points.last().expect("sweep has a parallel point").elems_per_sec;
        KernelPerf {
            kernel: kernel.to_string(),
            kernel_path: KernelPath::active(),
            serial_elems_per_sec: serial,
            parallel_elems_per_sec: parallel,
            speedup: parallel_valid.then(|| parallel / serial),
            per_thread_elems_per_sec: points,
        }
    };

    let grads = FlatTensor::randn(elems, 0.01, 1);
    let mut kernels = Vec::new();

    // Updater: Adam, the paper's default optimizer.
    let optimizer = Optimizer::adam_default();
    let run_updater = |exec: &ParExecutor| {
        let mut params = FlatTensor::randn(elems, 0.02, 2);
        let mut aux = optimizer.init_aux(elems);
        let mut t = 0u64;
        best_secs(reps, || {
            t += 1;
            optimizer.par_step(exec, params.as_mut_slice(), &grads, &mut aux, t);
            std::hint::black_box(params.as_slice()[0]);
        })
    };
    let updater_points = sweep
        .iter()
        .map(|&t| ThreadPoint {
            threads: t,
            elems_per_sec: rate(run_updater(&ParExecutor::new(t))),
        })
        .collect();
    kernels.push(kernel_perf("updater_adam", updater_points));

    // Compressor: exact Top-K at the paper's default 1% keep ratio. The
    // 1-worker point uses the dedicated serial entry point, matching how the
    // compressor is called outside the parallel backend.
    let compressor = gradcomp::Compressor::top_k(0.01);
    let run_topk = |workers: usize| {
        if workers == 1 {
            best_secs(reps, || {
                std::hint::black_box(compressor.compress(&grads));
            })
        } else {
            let exec = ParExecutor::new(workers);
            best_secs(reps, || {
                std::hint::black_box(compressor.compress_par(&grads, &exec));
            })
        }
    };
    let topk_points = sweep
        .iter()
        .map(|&t| ThreadPoint { threads: t, elems_per_sec: rate(run_topk(t)) })
        .collect();
    kernels.push(kernel_perf("topk_exact_1pct", topk_points));

    // One full functional near-storage training step, 1 lane worker vs
    // `threads` lane workers (bit-identical results, different wall-clock —
    // the overlap the lanes are for).
    let run_pipelined = |workers: usize| {
        let initial = FlatTensor::randn(elems, 0.02, 4);
        let mut trainer =
            PipelinedTrainer::new(&initial, optimizer, threads, elems.div_ceil(threads))
                .expect("pipelined trainer")
                .with_threads(workers);
        best_secs(reps, || {
            let report = trainer.train_step_with_grads(&grads).expect("pipelined step");
            std::hint::black_box(report.step);
        })
    };
    let pipelined_points = sweep
        .iter()
        .map(|&t| ThreadPoint { threads: t, elems_per_sec: rate(run_pipelined(t)) })
        .collect();
    kernels.push(kernel_perf("pipelined_step_adam", pipelined_points));

    // Half-precision conversion paths. One pass is only ~1 ms, so these get
    // extra repetitions — the minimum over a longer window is what keeps the
    // regression gate stable on a noisy shared machine.
    let f16_reps = reps * 3;
    let tensor = FlatTensor::randn(elems, 1.0, 3);
    let mut bytes = Vec::new();
    let to_bytes = best_secs(f16_reps, || {
        tensor.to_bytes_into(Dtype::F16, &mut bytes);
        std::hint::black_box(bytes.len());
    });
    let mut back = FlatTensor::default();
    let from_bytes = best_secs(f16_reps, || {
        FlatTensor::from_bytes_into(&bytes, Dtype::F16, &mut back);
        std::hint::black_box(back.len());
    });
    let mut rounded = vec![0.0f32; elems];
    let roundtrip = best_secs(f16_reps, || {
        tensor.roundtrip_f16_into(&mut rounded);
        std::hint::black_box(rounded[0]);
    });

    // The checked-in ladder, each spec's timed iteration, serial vs fanned
    // out on the workers.
    let specs = ladder_campaign().specs;
    let time_ladder = |exec: &ParExecutor| {
        best_secs(reps, || {
            let sessions: Vec<_> =
                specs.iter().map(|spec| spec.session().expect("ladder spec")).collect();
            let reports =
                exec.map(sessions, |_, session| session.simulate_iteration().expect("simulation"));
            std::hint::black_box(reports.len());
        })
    };
    let campaign_serial = time_ladder(&ParExecutor::serial());
    let campaign_parallel = time_ladder(&pool);
    let campaign = CampaignPerf {
        specs: specs.len(),
        serial_s: campaign_serial,
        parallel_s: campaign_parallel,
        speedup: parallel_valid.then(|| campaign_serial / campaign_parallel),
        fault_specs: Some(specs.iter().filter(|s| s.faults.is_some()).count()),
    };

    PerfSnapshot {
        num_cpus,
        kernel_path: KernelPath::active(),
        parallel_valid,
        threads,
        elems,
        kernels,
        f16_to_bytes_elems_per_sec: rate(to_bytes),
        f16_from_bytes_elems_per_sec: rate(from_bytes),
        f16_roundtrip_elems_per_sec: rate(roundtrip),
        campaign,
    }
}

impl PerfSnapshot {
    /// Parses a snapshot back out of its checked-in JSON form (`BENCH_2.json`).
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid perf snapshot: {e}"))
    }
}

/// Merges two snapshots of the same machine into their best-rate envelope:
/// elementwise maximum of every throughput, minimum of every wall-clock.
///
/// External interference only ever *subtracts* throughput, so the envelope
/// over repeated measurements converges on the machine's actual capability.
/// Both the blessing path and the gate's noise-retry use this, keeping the
/// two sides of the comparison symmetric estimators.
pub fn merge_best(a: &PerfSnapshot, b: &PerfSnapshot) -> PerfSnapshot {
    let mut out = a.clone();
    for kernel in &mut out.kernels {
        let Some(other) = b.kernels.iter().find(|k| k.kernel == kernel.kernel) else {
            continue;
        };
        kernel.serial_elems_per_sec = kernel.serial_elems_per_sec.max(other.serial_elems_per_sec);
        kernel.parallel_elems_per_sec =
            kernel.parallel_elems_per_sec.max(other.parallel_elems_per_sec);
        kernel.speedup =
            kernel.speedup.map(|_| kernel.parallel_elems_per_sec / kernel.serial_elems_per_sec);
        for (point, other_point) in
            kernel.per_thread_elems_per_sec.iter_mut().zip(&other.per_thread_elems_per_sec)
        {
            point.elems_per_sec = point.elems_per_sec.max(other_point.elems_per_sec);
        }
    }
    out.f16_to_bytes_elems_per_sec =
        out.f16_to_bytes_elems_per_sec.max(b.f16_to_bytes_elems_per_sec);
    out.f16_from_bytes_elems_per_sec =
        out.f16_from_bytes_elems_per_sec.max(b.f16_from_bytes_elems_per_sec);
    out.f16_roundtrip_elems_per_sec =
        out.f16_roundtrip_elems_per_sec.max(b.f16_roundtrip_elems_per_sec);
    out.campaign.serial_s = out.campaign.serial_s.min(b.campaign.serial_s);
    out.campaign.parallel_s = out.campaign.parallel_s.min(b.campaign.parallel_s);
    out.campaign.speedup =
        out.campaign.speedup.map(|_| out.campaign.serial_s / out.campaign.parallel_s);
    // If either measurement injected faults, the envelope did too.
    out.campaign.fault_specs = match (out.campaign.fault_specs, b.campaign.fault_specs) {
        (Some(a_faults), Some(b_faults)) => Some(a_faults.max(b_faults)),
        (a_faults, b_faults) => a_faults.or(b_faults),
    };
    out
}

/// Outcome of gating a fresh [`PerfSnapshot`] against a checked-in baseline.
#[derive(Debug, Clone, Default)]
pub struct PerfComparison {
    /// Regressions beyond the tolerance — any entry fails the gate.
    pub violations: Vec<String>,
    /// Non-fatal observations (skipped checks and why, environment drift).
    pub notes: Vec<String>,
}

impl PerfComparison {
    /// `true` when no check regressed beyond the tolerance.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Gates `fresh` against `baseline`: every tracked throughput must stay
/// within `tolerance` (a fraction, e.g. `0.15` for ±15%) of the baseline.
///
/// Rules, matching the caveats recorded in the snapshot itself:
/// - Absolute throughputs (serial and parallel rates, f16 conversion rates,
///   campaign wall-clock) are gated only when both snapshots were measured on
///   the same SIMD path — a baseline blessed on an AVX2 box is not comparable
///   to a scalar-only runner, so path drift becomes a note, not a failure.
/// - Serial/parallel *ratio* checks additionally require `parallel_valid` on
///   both sides; on a 1-CPU machine the ratio is meaningless and skipped.
/// - The per-thread sweep is telemetry and never gated.
pub fn compare_perf(
    baseline: &PerfSnapshot,
    fresh: &PerfSnapshot,
    tolerance: f64,
) -> PerfComparison {
    assert!(tolerance >= 0.0, "tolerance must be non-negative");
    let mut cmp = PerfComparison::default();
    let floor = 1.0 - tolerance;
    let ceil = 1.0 + tolerance;

    let paths_match = baseline.kernel_path == fresh.kernel_path;
    if !paths_match {
        cmp.notes.push(format!(
            "kernel path changed ({} -> {}); absolute throughput checks skipped — \
             re-bless the baseline on this machine class",
            baseline.kernel_path, fresh.kernel_path
        ));
    }
    if baseline.elems != fresh.elems {
        cmp.notes.push(format!(
            "element counts differ (baseline {}, fresh {}); rates are per-element and \
             still compared",
            baseline.elems, fresh.elems
        ));
    }
    let ratios_valid = baseline.parallel_valid && fresh.parallel_valid;
    if !ratios_valid {
        cmp.notes.push(
            "serial/parallel ratio checks skipped (parallel_valid=false on at least one \
             side; 1-CPU machines time-slice the workers)"
                .to_string(),
        );
    }

    // Higher-is-better rate check; `None` when the rate is within tolerance.
    let check_rate = |what: &str, base: f64, now: f64| -> Option<String> {
        (paths_match && now < base * floor).then(|| {
            format!(
                "{what}: {now:.3e} el/s is below baseline {base:.3e} el/s - {:.0}% \
                 (allowed floor {:.3e})",
                tolerance * 100.0,
                base * floor
            )
        })
    };

    for base_kernel in &baseline.kernels {
        let Some(fresh_kernel) = fresh.kernels.iter().find(|k| k.kernel == base_kernel.kernel)
        else {
            cmp.violations
                .push(format!("kernel `{}` missing from the fresh snapshot", base_kernel.kernel));
            continue;
        };
        cmp.violations.extend(check_rate(
            &format!("{} serial", base_kernel.kernel),
            base_kernel.serial_elems_per_sec,
            fresh_kernel.serial_elems_per_sec,
        ));
        cmp.violations.extend(check_rate(
            &format!("{} parallel", base_kernel.kernel),
            base_kernel.parallel_elems_per_sec,
            fresh_kernel.parallel_elems_per_sec,
        ));
        if ratios_valid {
            if let (Some(base_speedup), Some(fresh_speedup)) =
                (base_kernel.speedup, fresh_kernel.speedup)
            {
                if fresh_speedup < base_speedup * floor {
                    cmp.violations.push(format!(
                        "{} speedup: {fresh_speedup:.2}x is below baseline {base_speedup:.2}x \
                         - {:.0}%",
                        base_kernel.kernel,
                        tolerance * 100.0
                    ));
                }
            }
        }
    }

    cmp.violations.extend(check_rate(
        "f16_to_bytes",
        baseline.f16_to_bytes_elems_per_sec,
        fresh.f16_to_bytes_elems_per_sec,
    ));
    cmp.violations.extend(check_rate(
        "f16_from_bytes",
        baseline.f16_from_bytes_elems_per_sec,
        fresh.f16_from_bytes_elems_per_sec,
    ));
    cmp.violations.extend(check_rate(
        "f16_roundtrip",
        baseline.f16_roundtrip_elems_per_sec,
        fresh.f16_roundtrip_elems_per_sec,
    ));

    // Campaign wall-clock: lower is better. The ladder is a millisecond-scale
    // end-to-end run dominated by thread spawns, so it is gated at double the
    // kernel tolerance to absorb scheduler noise. A fault-injected campaign is
    // slower on purpose (retry backoff, derated links), so its wall-clock says
    // nothing about the execution backend and must not fail the gate.
    let faults_injected = baseline.campaign.has_faults() || fresh.campaign.has_faults();
    if faults_injected {
        cmp.notes.push(format!(
            "campaign wall-clock check skipped: fault-injected campaign snapshot \
             (baseline {} fault spec(s), fresh {}) — recovery backoff and link \
             derating are intentional slowdown, not a regression",
            baseline.campaign.fault_specs.unwrap_or(0),
            fresh.campaign.fault_specs.unwrap_or(0)
        ));
    }
    let campaign_ceil = 1.0 + 2.0 * (ceil - 1.0);
    if paths_match
        && !faults_injected
        && fresh.campaign.serial_s > baseline.campaign.serial_s * campaign_ceil
    {
        cmp.violations.push(format!(
            "campaign serial: {:.4} s is above baseline {:.4} s + {:.0}%",
            fresh.campaign.serial_s,
            baseline.campaign.serial_s,
            2.0 * tolerance * 100.0
        ));
    }

    cmp
}

/// Renders the gate outcome as text (notes, then violations, then verdict).
pub fn render_comparison(cmp: &PerfComparison, tolerance: f64) -> String {
    let mut out = format!("Perf gate (tolerance ±{:.0}%)\n", tolerance * 100.0);
    for note in &cmp.notes {
        out.push_str(&format!("note: {note}\n"));
    }
    for violation in &cmp.violations {
        out.push_str(&format!("REGRESSION: {violation}\n"));
    }
    if cmp.passed() {
        out.push_str("PASS: no tracked throughput regressed beyond the tolerance\n");
    } else {
        out.push_str(&format!("FAIL: {} regression(s)\n", cmp.violations.len()));
    }
    out
}

/// Renders the perf snapshot as a text table.
pub fn render_perf(snap: &PerfSnapshot) -> String {
    let mut out = format!(
        "BENCH_2: execution backend throughput ({} elems, {} threads, {} CPUs, {} path)\n",
        snap.elems, snap.threads, snap.num_cpus, snap.kernel_path
    );
    if !snap.parallel_valid {
        out.push_str(
            "NOTE: only 1 CPU visible — parallel ratios are not meaningful and are omitted;\n\
             rerun on a multi-core machine for real speedups.\n",
        );
    }
    out.push_str(&format!(
        "{:<20} {:>16} {:>16} {:>9}  {}\n",
        "kernel", "serial (el/s)", "parallel (el/s)", "speedup", "sweep (el/s @threads)"
    ));
    for k in &snap.kernels {
        let speedup = match k.speedup {
            Some(s) => format!("{s:.2}x"),
            None => "n/a".to_string(),
        };
        let sweep = k
            .per_thread_elems_per_sec
            .iter()
            .map(|p| format!("{:.3e}@{}", p.elems_per_sec, p.threads))
            .collect::<Vec<_>>()
            .join(" ");
        out.push_str(&format!(
            "{:<20} {:>16.3e} {:>16.3e} {:>9}  {}\n",
            k.kernel, k.serial_elems_per_sec, k.parallel_elems_per_sec, speedup, sweep
        ));
    }
    out.push_str(&format!(
        "{:<20} {:>16.3e}\n{:<20} {:>16.3e}\n{:<20} {:>16.3e}\n",
        "f16_to_bytes",
        snap.f16_to_bytes_elems_per_sec,
        "f16_from_bytes",
        snap.f16_from_bytes_elems_per_sec,
        "f16_roundtrip",
        snap.f16_roundtrip_elems_per_sec
    ));
    let campaign_speedup = match snap.campaign.speedup {
        Some(s) => format!("{s:.2}x"),
        None => "n/a".to_string(),
    };
    out.push_str(&format!(
        "campaign ladder ({} specs): serial {:.3} s, parallel {:.3} s, speedup {}\n",
        snap.campaign.specs, snap.campaign.serial_s, snap.campaign.parallel_s, campaign_speedup
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_snapshot_quick_mode_produces_positive_rates() {
        let snap = perf_snapshot(true);
        assert_eq!(snap.kernels.len(), 3);
        assert_eq!(snap.parallel_valid, snap.num_cpus > 1);
        assert_eq!(snap.kernel_path, KernelPath::active());
        for k in &snap.kernels {
            assert!(k.serial_elems_per_sec > 0.0, "{}", k.kernel);
            assert!(k.parallel_elems_per_sec > 0.0, "{}", k.kernel);
            assert_eq!(k.kernel_path, KernelPath::active(), "{}", k.kernel);
            // The sweep brackets the headline numbers: first point is the
            // serial rate, last the parallel rate.
            assert_eq!(k.per_thread_elems_per_sec.len(), 3, "{}", k.kernel);
            assert_eq!(k.per_thread_elems_per_sec[0].threads, 1, "{}", k.kernel);
            assert_eq!(
                k.per_thread_elems_per_sec[0].elems_per_sec, k.serial_elems_per_sec,
                "{}",
                k.kernel
            );
            assert_eq!(
                k.per_thread_elems_per_sec.last().unwrap().elems_per_sec,
                k.parallel_elems_per_sec,
                "{}",
                k.kernel
            );
            // The misleading single-CPU ratio is omitted, not recorded.
            assert_eq!(k.speedup.is_some(), snap.parallel_valid, "{}", k.kernel);
            if let Some(s) = k.speedup {
                assert!(s > 0.0, "{}", k.kernel);
            }
        }
        assert!(snap.f16_to_bytes_elems_per_sec > 0.0);
        assert!(snap.f16_from_bytes_elems_per_sec > 0.0);
        assert!(snap.f16_roundtrip_elems_per_sec > 0.0);
        assert!(snap.num_cpus >= 1);
        assert_eq!(snap.campaign.specs, 6);
        assert!(snap.campaign.serial_s > 0.0 && snap.campaign.parallel_s > 0.0);
        assert_eq!(snap.campaign.speedup.is_some(), snap.parallel_valid);
        let rendered = render_perf(&snap);
        assert!(rendered.contains("updater_adam"));
        assert!(rendered.contains("topk_exact_1pct"));
        assert!(rendered.contains("pipelined_step_adam"));
        assert!(rendered.contains("campaign ladder (6 specs)"));
        if !snap.parallel_valid {
            assert!(rendered.contains("only 1 CPU visible"));
            assert!(rendered.contains("n/a"));
        }

        // The snapshot survives its JSON round trip (the gate reads the
        // checked-in baseline back through this path).
        let json = serde_json::to_string_pretty(&snap).expect("serialize snapshot");
        let parsed = PerfSnapshot::from_json(&json).expect("parse snapshot back");
        assert_eq!(parsed.kernel_path, snap.kernel_path);
        assert_eq!(parsed.kernels.len(), snap.kernels.len());
        assert_eq!(parsed.kernels[0].serial_elems_per_sec, snap.kernels[0].serial_elems_per_sec);
        assert_eq!(parsed.kernels[0].per_thread_elems_per_sec.len(), 3);
        assert_eq!(parsed.campaign.serial_s, snap.campaign.serial_s);

        // And a fresh snapshot passes the gate against itself.
        let cmp = compare_perf(&parsed, &snap, 0.15);
        assert!(cmp.passed(), "{:?}", cmp.violations);
    }

    /// A hand-built snapshot so the gate tests are deterministic and cheap —
    /// no measurement involved.
    fn synthetic_snapshot(parallel_valid: bool) -> PerfSnapshot {
        let point = |threads: usize, rate: f64| ThreadPoint { threads, elems_per_sec: rate };
        let kernel = |name: &str, serial: f64, parallel: f64| KernelPerf {
            kernel: name.to_string(),
            kernel_path: KernelPath::Scalar,
            serial_elems_per_sec: serial,
            parallel_elems_per_sec: parallel,
            speedup: parallel_valid.then(|| parallel / serial),
            per_thread_elems_per_sec: vec![
                point(1, serial),
                point(2, (serial + parallel) / 2.0),
                point(4, parallel),
            ],
        };
        PerfSnapshot {
            num_cpus: if parallel_valid { 4 } else { 1 },
            kernel_path: KernelPath::Scalar,
            parallel_valid,
            threads: 4,
            elems: 1 << 20,
            kernels: vec![
                kernel("updater_adam", 8.0e8, 2.4e9),
                kernel("topk_exact_1pct", 3.0e8, 9.0e8),
                kernel("pipelined_step_adam", 8.0e7, 2.4e8),
            ],
            f16_to_bytes_elems_per_sec: 4.0e8,
            f16_from_bytes_elems_per_sec: 1.3e9,
            f16_roundtrip_elems_per_sec: 4.0e8,
            campaign: CampaignPerf {
                specs: 6,
                serial_s: 0.010,
                parallel_s: 0.004,
                speedup: parallel_valid.then_some(2.5),
                fault_specs: Some(0),
            },
        }
    }

    #[test]
    fn perf_gate_passes_an_unchanged_snapshot() {
        let snap = synthetic_snapshot(true);
        let cmp = compare_perf(&snap, &snap, 0.15);
        assert!(cmp.passed(), "{:?}", cmp.violations);
        assert!(render_comparison(&cmp, 0.15).contains("PASS"));
    }

    #[test]
    fn perf_gate_fails_when_a_kernel_slows_down() {
        let baseline = synthetic_snapshot(true);
        // The updater lost a third of its serial throughput — an artificially
        // slowed kernel must fail the gate.
        let mut slowed = baseline.clone();
        slowed.kernels[0].serial_elems_per_sec *= 0.66;
        slowed.kernels[0].per_thread_elems_per_sec[0].elems_per_sec *= 0.66;
        let cmp = compare_perf(&baseline, &slowed, 0.15);
        assert!(!cmp.passed());
        assert!(
            cmp.violations.iter().any(|v| v.contains("updater_adam serial")),
            "{:?}",
            cmp.violations
        );
        assert!(render_comparison(&cmp, 0.15).contains("FAIL"));

        // ...and a 10% dip stays inside the ±15% tolerance.
        let mut wobbled = baseline.clone();
        for k in &mut wobbled.kernels {
            k.serial_elems_per_sec *= 0.9;
            k.parallel_elems_per_sec *= 0.9;
        }
        assert!(compare_perf(&baseline, &wobbled, 0.15).passed());
    }

    #[test]
    fn perf_gate_catches_a_missing_kernel_and_a_slow_campaign() {
        let baseline = synthetic_snapshot(true);
        let mut fresh = baseline.clone();
        fresh.kernels.remove(1);
        fresh.campaign.serial_s = baseline.campaign.serial_s * 1.5;
        let cmp = compare_perf(&baseline, &fresh, 0.15);
        assert!(
            cmp.violations.iter().any(|v| v.contains("topk_exact_1pct")),
            "{:?}",
            cmp.violations
        );
        assert!(
            cmp.violations.iter().any(|v| v.contains("campaign serial")),
            "{:?}",
            cmp.violations
        );
    }

    #[test]
    fn perf_gate_skips_fault_campaign_wall_clock_with_a_logged_reason() {
        let baseline = synthetic_snapshot(true);
        // A fault-injected campaign is slower on purpose (retry backoff,
        // derated links): 3x the baseline wall-clock must NOT fail the gate,
        // and the skip must be visible in the notes rather than silent.
        let mut fresh = baseline.clone();
        fresh.campaign.fault_specs = Some(2);
        fresh.campaign.serial_s = baseline.campaign.serial_s * 3.0;
        let cmp = compare_perf(&baseline, &fresh, 0.15);
        assert!(cmp.passed(), "{:?}", cmp.violations);
        assert!(cmp.notes.iter().any(|n| n.contains("fault-injected campaign")), "{:?}", cmp.notes);
        assert!(render_comparison(&cmp, 0.15).contains("fault-injected campaign"));

        // A pre-fault-era baseline (no fault_specs field at all) against a
        // fault-free fresh run still gates the campaign wall-clock.
        let mut old = baseline.clone();
        old.campaign.fault_specs = None;
        let mut slow = baseline.clone();
        slow.campaign.serial_s = baseline.campaign.serial_s * 3.0;
        let cmp = compare_perf(&old, &slow, 0.15);
        assert!(
            cmp.violations.iter().any(|v| v.contains("campaign serial")),
            "{:?}",
            cmp.violations
        );

        // Kernel regressions are still caught even when the campaign check is
        // skipped for faults.
        let mut faulted_and_slow = fresh.clone();
        faulted_and_slow.kernels[0].serial_elems_per_sec *= 0.5;
        let cmp = compare_perf(&baseline, &faulted_and_slow, 0.15);
        assert!(!cmp.passed());

        // The best-rate envelope of a faulted and a clean measurement is
        // still marked faulted.
        let merged = merge_best(&baseline, &fresh);
        assert_eq!(merged.campaign.fault_specs, Some(2));
        assert!(merged.campaign.has_faults());
    }

    #[test]
    fn perf_gate_skips_ratio_checks_on_a_single_cpu_but_still_gates_absolutes() {
        // The 1-CPU container case: speedup ratios are absent and must not be
        // demanded, but an absolute throughput regression is still caught.
        let baseline = synthetic_snapshot(false);
        let cmp = compare_perf(&baseline, &baseline, 0.15);
        assert!(cmp.passed(), "{:?}", cmp.violations);
        assert!(cmp.notes.iter().any(|n| n.contains("ratio checks skipped")), "{:?}", cmp.notes);

        let mut slowed = baseline.clone();
        slowed.f16_roundtrip_elems_per_sec *= 0.5;
        let cmp = compare_perf(&baseline, &slowed, 0.15);
        assert!(cmp.violations.iter().any(|v| v.contains("f16_roundtrip")), "{:?}", cmp.violations);
    }

    #[test]
    fn merge_best_takes_the_fast_side_of_every_measurement() {
        let a = synthetic_snapshot(true);
        let mut b = a.clone();
        // `b` was faster on the updater and the campaign, slower on f16.
        b.kernels[0].serial_elems_per_sec *= 2.0;
        b.kernels[0].per_thread_elems_per_sec[0].elems_per_sec *= 2.0;
        b.f16_to_bytes_elems_per_sec *= 0.5;
        b.campaign.serial_s *= 0.5;
        let merged = merge_best(&a, &b);
        assert_eq!(merged.kernels[0].serial_elems_per_sec, b.kernels[0].serial_elems_per_sec);
        assert_eq!(
            merged.kernels[0].per_thread_elems_per_sec[0].elems_per_sec,
            b.kernels[0].per_thread_elems_per_sec[0].elems_per_sec
        );
        // Speedup is recomputed from the merged rates.
        let k = &merged.kernels[0];
        assert_eq!(k.speedup, Some(k.parallel_elems_per_sec / k.serial_elems_per_sec));
        assert_eq!(merged.f16_to_bytes_elems_per_sec, a.f16_to_bytes_elems_per_sec);
        assert_eq!(merged.campaign.serial_s, b.campaign.serial_s);
        // The envelope of a snapshot with itself is the snapshot.
        let identity = merge_best(&a, &a);
        assert_eq!(identity.kernels[1].serial_elems_per_sec, a.kernels[1].serial_elems_per_sec);
        assert!(compare_perf(&identity, &a, 0.0).passed());
    }

    #[test]
    fn perf_gate_skips_absolute_checks_when_the_kernel_path_differs() {
        // A baseline blessed on an AVX2 box checked against a scalar-only
        // runner: absolute rates are incomparable, so path drift is a note,
        // not a failure.
        let mut baseline = synthetic_snapshot(true);
        baseline.kernel_path = KernelPath::Avx2;
        let mut fresh = baseline.clone();
        fresh.kernel_path = KernelPath::Scalar;
        for k in &mut fresh.kernels {
            k.serial_elems_per_sec *= 0.4;
            k.parallel_elems_per_sec *= 0.4;
        }
        let cmp = compare_perf(&baseline, &fresh, 0.15);
        assert!(cmp.passed(), "{:?}", cmp.violations);
        assert!(cmp.notes.iter().any(|n| n.contains("kernel path changed")), "{:?}", cmp.notes);
    }

    #[test]
    fn checked_in_ladder_spec_matches_the_reference_campaign() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/ladder.json");
        let expected = ladder_campaign().to_json_pretty() + "\n";
        if std::env::var_os("BLESS_SPECS").is_some() {
            std::fs::write(path, &expected).expect("write specs/ladder.json");
        }
        let actual = std::fs::read_to_string(path).expect("specs/ladder.json is checked in");
        assert_eq!(actual, expected, "re-run with BLESS_SPECS=1 to regenerate specs/ladder.json");
    }

    #[test]
    fn ladder_campaign_runs_and_renders() {
        // The specs `perf` times: each runs, and every point after BASE
        // beats it.
        let campaign = ladder_campaign();
        assert_eq!(campaign.specs.len(), 6, "ladder + both pipelined points");
        let parsed = Campaign::from_json(&campaign.to_json_pretty()).expect("round trip");
        assert_eq!(parsed, campaign);
        let totals: Vec<f64> = campaign
            .specs
            .iter()
            .map(|spec| {
                spec.session().and_then(|s| s.simulate_iteration()).expect("runs").total_s()
            })
            .collect();
        assert!(totals.iter().skip(1).all(|&t| t < totals[0]), "{totals:?}");
        assert_eq!(campaign.specs[5].method.to_string(), "SU+O+P+C(2%)");
    }

    /// A fresh `lab` run of the checked-in sweep figure `id`
    /// (`specs/experiments/<id>`), the path that replaced its harness
    /// function: one journal record per (task, variant).
    fn sweep(id: &str) -> Vec<lab::TrialRecord> {
        let experiment = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../specs/experiments")
            .join(id);
        let out = std::env::temp_dir().join(format!("bench-sweep-{}-{id}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let summary = lab::run_experiment(
            &experiment,
            &out,
            &lab::RunOptions::default(),
            &mut lab::ServiceExecutor::new(2),
        )
        .unwrap_or_else(|e| panic!("lab run {id}: {e}"));
        assert_eq!(summary.errors, 0, "{id} journaled error records");
        let records = lab::read_journal(&out.join(lab::runner::JOURNAL_FILE)).expect("journal").0;
        let _ = std::fs::remove_dir_all(&out);
        records
    }

    /// The simulated seconds of `task` under `variant`: the `iteration_s`
    /// objective, or the named phase metric.
    fn seconds(records: &[lab::TrialRecord], task: &str, variant: &str, metric: &str) -> f64 {
        let record = records
            .iter()
            .find(|r| r.task_id == task && r.variant == variant)
            .unwrap_or_else(|| panic!("no trial {task}/{variant}"));
        match metric {
            "iteration_s" => record.objective.as_ref().expect("objective").value,
            _ => match record.metrics.get(metric) {
                Some(serde::Value::Number(n)) => n.as_f64(),
                other => panic!("{task}/{variant} {metric}: {other:?}"),
            },
        }
    }

    #[test]
    fn fig3_shapes_hold() {
        let rows = sweep("fig3a");
        assert_eq!(rows.len(), 3);
        for r in &rows {
            let fraction = seconds(&rows, &r.task_id, "base", "update_s")
                / seconds(&rows, &r.task_id, "base", "iteration_s");
            assert!(fraction > 0.6, "{}: update fraction {fraction:.2}", r.task_id);
        }
        let scaling = sweep("fig3b");
        assert_eq!(scaling.len(), 6);
        let normalized_speedup = |task| {
            seconds(&scaling, "d1", "base", "iteration_s")
                / seconds(&scaling, task, "base", "iteration_s")
        };
        assert!(normalized_speedup("d10") < normalized_speedup("d4") * 1.15, "RAID0 must saturate");
    }

    #[test]
    fn fig16_times_decrease_with_stronger_compression() {
        let points = sweep("fig16");
        assert_eq!(points.len(), 20, "4 model x device points, 5 settings each");
        let su_o = seconds(&points, "gpt2-4.0b-d10", "su_o", "iteration_s");
        let one_pct = seconds(&points, "gpt2-4.0b-d10", "su_o_c1", "iteration_s");
        assert!(one_pct < su_o);
    }

    #[test]
    fn fig17_congested_topology_still_speeds_up() {
        let rows = sweep("fig17");
        assert_eq!(rows.len(), 8, "1-3 congested A4000s and the default topology, BASE and SU+O+C");
        for task in ["a4000x1", "a4000x2", "a4000x3"] {
            let speedup = seconds(&rows, task, "base", "iteration_s")
                / seconds(&rows, task, "su_o_c", "iteration_s");
            assert!(speedup > 1.2, "{task}: {speedup:.2}");
        }
    }

    #[test]
    fn tab1_matches_the_paper() {
        let rows = tab1();
        assert_eq!(rows[0].opt_read_m, 6.0);
        assert_eq!(rows[1].opt_read_m, 0.0);
        assert!((rows[2].grad_write_m - 0.04).abs() < 1e-9);
        // The totals drop from 16M to 3M (SmartUpdate) and ~1.04M (SmartComp).
        for (row, total) in rows.iter().zip([16.0, 3.0, 1.04]) {
            let columns = [row.opt_read_m, row.opt_write_m, row.grad_read_m, row.grad_write_m];
            let sum = columns.iter().sum::<f64>() + row.param_up_m;
            assert!((sum - total).abs() < 1e-9, "{}: {sum}", row.method);
        }
    }

    #[test]
    fn pipeline_overlap_rows_show_overlap_and_speedup() {
        let rows = pipeline_overlap();
        assert_eq!(rows.len(), 6);
        for chunk in rows.chunks(3) {
            let (serial, pipe, pipe_c) = (&chunk[0], &chunk[1], &chunk[2]);
            assert_eq!(serial.update_overlap_s, 0.0, "{}", serial.label);
            assert!((serial.speedup_over_serial - 1.0).abs() < 1e-9);
            assert!(pipe.update_overlap_s > 0.0, "{}", pipe.label);
            assert!(pipe.speedup_over_serial >= 1.0, "{}", pipe.label);
            assert!(pipe_c.report.total_s() < pipe.report.total_s(), "{}", pipe_c.label);
            for row in chunk {
                assert!(row.uplink_write_busy_s > 0.0);
                assert!(row.uplink_readback_busy_s > 0.0);
            }
        }
        assert!(render_pipeline(&rows).contains("SU+O+P"));
    }
}
