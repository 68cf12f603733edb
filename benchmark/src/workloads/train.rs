//! `train_base` and `train_smart`: one op is one functional `Trainer::step`.
//!
//! `train_base` is the ZeRO-Infinity-style baseline (`StorageOffloadTrainer`
//! behind `Session`): one striped dense pass through `ssd`, `tensorlib` and
//! the host-side `optim` kernel. `train_smart` is the paper's full system
//! (SU+O+P+C, `PipelinedTrainer` behind `Session`): per-device lanes on
//! `parcore`, Top-K and error feedback in `gradcomp`, decompress and update
//! inside `csd`. They use the shared layers differently, so a change that
//! helps one placement and costs the other shows.

use super::{fnv_f32, Env, Kind, Workload};
use crate::gen::{self, TrainInputs, GRAD_SETS, KEEP_RATIO, TRAIN_DEVICES, TRAIN_PARAMS};
use crate::machine::{lane_threads, THREADS};
use crate::metrics::Ledger;
use crate::stats::median;
use crate::trace::{LaneTrace, Tracer};
use csd::{CsdDevice, SubgroupUpdate};
use gradcomp::{Compressor, ErrorFeedback};
use optim::Optimizer;
use parcore::ParExecutor;
use smart_infinity::{
    MachineConfig, MethodSpec, ModelConfig, Session, StepReport, TrafficMethod, TrafficModel,
    Trainer,
};
use ssd::{RaidArray, SsdDevice};
use std::time::Instant;
use tensorlib::{Chunker, Dtype, FlatTensor, Partitioner};
use ztrain::PipelinedTrainer;

/// Relative tolerance between measured and analytic link bytes: Top-K keeps
/// a whole number of elements per shard, the analytic model a fraction.
const LINK_TOLERANCE: f64 = 1e-3;

fn method(kind: Kind) -> MethodSpec {
    match kind {
        Kind::TrainBase => MethodSpec::baseline(),
        _ => MethodSpec::pipelined(Some(KEEP_RATIO)),
    }
}

/// One subgroup per device shard, as `Session` chooses by default.
fn subgroup_elems() -> usize {
    TRAIN_PARAMS.div_ceil(TRAIN_DEVICES)
}

/// Bytes per parameter that cross the shared host link in one step.
fn measured_link_bytes_per_param(kind: Kind, report: &StepReport) -> f64 {
    let bytes = match (kind, report.stages) {
        // Every RAID0 byte of the host baseline crosses the host link.
        (Kind::TrainBase, _) => report.storage_bytes_total(),
        (_, Some(stages)) => stages.write_bytes + stages.read_back_bytes,
        (_, None) => 0,
    };
    bytes as f64 / TRAIN_PARAMS as f64
}

/// The same quantity from the analytic Table I model, which is computed from
/// a model size and knows nothing of the functional trainers.
fn analytic_link_bytes_per_param(kind: Kind) -> f64 {
    let model = ModelConfig::gpt2_0_34b();
    let params = model.num_params() as f64;
    let traffic =
        TrafficModel::new(llm::Workload::paper_default(model), optim::OptimizerKind::Adam);
    traffic.per_iteration(TrafficMethod::from(&method(kind))).total() / params
}

pub struct TrainOracle {
    /// `(steps, fingerprint of params_fp16 after that many steps)`.
    checkpoints: Vec<(u64, u64)>,
    link_bytes_per_param: f64,
}

/// The expected parameters after the warm-up and after a round, by a route
/// that shares no data path with the measured trainer. For the baseline it is
/// the optimizer applied to tensors in memory. For the pipelined system it is
/// the trainer on one thread with the lane schedule pinned
/// (`ExecMode::Deterministic`), which is as slow as the measured steps: it
/// stops after the warm-up unless `env.reference_follows_round`, and the run
/// then still requires every round to end in the same state.
pub fn oracle(kind: Kind, seed: u64, env: &Env) -> Result<TrainOracle, String> {
    let inputs = gen::train_inputs(seed);
    let optimizer = Optimizer::adam_default();
    let mut at = vec![env.warmup_ops];
    if kind == Kind::TrainBase || env.reference_follows_round {
        at.push(env.warmup_ops + env.ops_per_round);
    }
    let mut checkpoints = Vec::with_capacity(at.len());
    let mut done = 0;
    match kind {
        Kind::TrainBase => {
            let mut master = inputs.initial.clone();
            let mut aux = optimizer.init_aux(TRAIN_PARAMS);
            let mut fp16 = FlatTensor::zeros(TRAIN_PARAMS);
            for steps in at {
                for step in done..steps {
                    let grads = &inputs.grads[step % GRAD_SETS];
                    optimizer.step(master.as_mut_slice(), grads, &mut aux, step as u64 + 1);
                }
                done = steps;
                master.roundtrip_f16_into(fp16.as_mut_slice());
                checkpoints.push((steps as u64, fnv_f32(fp16.as_slice())));
            }
        }
        _ => {
            let mut reference =
                PipelinedTrainer::new(&inputs.initial, optimizer, TRAIN_DEVICES, subgroup_elems())
                    .map_err(|e| e.to_string())?
                    .with_compressor(Compressor::top_k(KEEP_RATIO))
                    .with_executor(ParExecutor::deterministic(1));
            for steps in at {
                for step in done..steps {
                    reference
                        .train_step_with_grads(&inputs.grads[step % GRAD_SETS])
                        .map_err(|e| e.to_string())?;
                }
                done = steps;
                checkpoints.push((steps as u64, fnv_f32(reference.params_fp16().as_slice())));
            }
        }
    }
    Ok(TrainOracle { checkpoints, link_bytes_per_param: analytic_link_bytes_per_param(kind) })
}

pub struct Train {
    kind: Kind,
    warmup_ops: usize,
    ops_per_round: usize,
    inputs: TrainInputs,
    trainer: Box<dyn Trainer>,
    steps: u64,
    checkpoints: Vec<(u64, u64)>,
    expected_link: f64,
    last_report: StepReport,
}

impl Train {
    pub fn setup(
        kind: Kind,
        seed: u64,
        env: &Env,
        oracle: &TrainOracle,
        ledger: &mut Ledger,
    ) -> Result<Self, String> {
        let inputs = gen::train_inputs(seed);
        let build = Instant::now();
        let session = Session::builder(
            ModelConfig::gpt2_0_34b(),
            MachineConfig::smart_infinity(TRAIN_DEVICES),
            method(kind),
        )
        .with_threads(THREADS)
        .build();
        let trainer = session.trainer(&inputs.initial).map_err(|e| e.to_string())?;
        ledger.set("ztrain.trainer_build_ms", build.elapsed().as_secs_f64() * 1e3);
        let mut train = Train {
            kind,
            warmup_ops: env.warmup_ops,
            ops_per_round: env.ops_per_round,
            inputs,
            trainer,
            steps: 0,
            checkpoints: oracle.checkpoints.clone(),
            expected_link: oracle.link_bytes_per_param,
            last_report: StepReport::default(),
        };
        let mut off = Tracer::new(false);
        for _ in 0..env.warmup_ops {
            train.op(&mut off)?;
            train.check_params(train.steps, train.trainer.params_fp16(), "the trainer")?;
        }
        Ok(train)
    }
}

impl Train {
    /// Holds parameters that have seen `steps` steps against the reference,
    /// if it has a checkpoint there, and returns their fingerprint.
    fn check_params(
        &self,
        steps: u64,
        params_fp16: &FlatTensor,
        whose: &str,
    ) -> Result<Option<u64>, String> {
        let Some(&(_, expected)) = self.checkpoints.iter().find(|(at, _)| *at == steps) else {
            return Ok(None);
        };
        let fnv = fnv_f32(params_fp16.as_slice());
        if fnv == expected {
            return Ok(Some(fnv));
        }
        Err(format!(
            "after {steps} steps {whose} has parameters {fnv:016x}, the reference {expected:016x}"
        ))
    }

    /// The warm-up's steps on a replayed pipeline, one traced op each.
    fn replay_warmup(&self, replay: &mut SmartReplay, tracer: &mut Tracer) -> Result<(), String> {
        for step in 1..=self.warmup_ops {
            tracer.next_op();
            replay.step(&self.inputs.grads[(step - 1) % GRAD_SETS], tracer)?;
            self.check_params(step as u64, &replay.fp16, "the replayed pipeline")?;
        }
        Ok(())
    }
}

impl Workload for Train {
    fn work_units(&self) -> f64 {
        TRAIN_PARAMS as f64
    }

    fn op(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let grads = &self.inputs.grads[self.steps as usize % GRAD_SETS];
        let trainer = &mut self.trainer;
        let report =
            tracer.scope("ztrain.step", |_| trainer.step(grads)).map_err(|e| e.to_string())?;
        self.steps += 1;
        self.last_report = report;
        if report.step != self.steps {
            return Err(format!("step report says step {}, expected {}", report.step, self.steps));
        }
        let link = measured_link_bytes_per_param(self.kind, &report);
        if (link - self.expected_link).abs() > LINK_TOLERANCE * self.expected_link {
            return Err(format!(
                "{link} link bytes per parameter, the traffic model says {}",
                self.expected_link
            ));
        }
        Ok(())
    }

    fn end_of_round(&self) -> Result<Option<u64>, String> {
        if self.steps != (self.warmup_ops + self.ops_per_round) as u64 {
            return Ok(None);
        }
        let params = self.trainer.params_fp16();
        let checked = self.check_params(self.steps, params, "the trainer")?;
        Ok(checked.or_else(|| Some(fnv_f32(params.as_slice()))))
    }

    fn ledger(&mut self, tracer: &mut Tracer, ledger: &mut Ledger) -> Result<(), String> {
        let measured = 1..tracer.upcoming_op();
        let step_ms = median(&tracer.ms_per_op("ztrain.step", &measured));
        let report = self.last_report;
        ledger.set("ztrain.step_ms", step_ms);
        ledger
            .set("ztrain.link_bytes_per_param", measured_link_bytes_per_param(self.kind, &report));
        ledger.set(
            "ztrain.storage_bytes_per_param",
            report.storage_bytes_total() as f64 / TRAIN_PARAMS as f64,
        );
        ledger.set("ssd.bytes_read", report.storage_bytes_read as f64);
        ledger.set("ssd.bytes_written", report.storage_bytes_written as f64);
        ledger.set("gradcomp.kept_elems", report.compression_kept.unwrap_or(0) as f64);

        // `Trainer::step` cannot be opened from outside, so the step's
        // constituent public calls are replayed on state of the same size.
        // The replay starts from the same inputs and must pass through the
        // same parameters as the reference.
        let first = tracer.upcoming_op();
        let step_ops = first..first + self.warmup_ops as u32;
        let (io_ops, covered_ms) = match self.kind {
            Kind::TrainBase => {
                let mut replay = BaseReplay::new(&self.inputs.initial)?;
                for step in 1..=self.warmup_ops {
                    tracer.next_op();
                    replay.step(&self.inputs.grads[(step - 1) % GRAD_SETS], tracer)?;
                    self.check_params(step as u64, &replay.fp16, "the replayed baseline")?;
                }
                let covered = median(&tracer.covered_ms_per_op(&["replay.step"], &step_ops));
                (replay.io_ops(), covered)
            }
            _ => {
                let mut replay = SmartReplay::new(&self.inputs.initial, THREADS)?;
                self.replay_warmup(&mut replay, tracer)?;
                let (dispatch_us, _) = lane_metrics(tracer, &step_ops);
                ledger.set("parcore.dispatch_us", dispatch_us);
                let parents = ["replay.step", "parcore.region"];
                let covered = median(&tracer.covered_ms_per_op(&parents, &step_ops));
                ledger.set("csd.p2p_bytes", report.storage_bytes_total() as f64);
                let io_ops = replay.io_ops();
                replay.inner(tracer, self.warmup_ops)?;
                (io_ops, covered + dispatch_us / 1e3)
            }
        };
        ledger.set("ssd.io_ops", (io_ops / self.warmup_ops as u64) as f64);

        // Layer time per step: the replayed step's spans plus, for the
        // pipelined system, the spans of what `update_subgroup` does inside.
        let inner_ops = step_ops.end..tracer.upcoming_op();
        // How the lanes of a step share two threads comes from one more
        // replay, which must reach the reference's parameters as well. With
        // one CPU no ratio between lanes means anything, so none is reported.
        if self.kind == Kind::TrainSmart && lane_threads() >= 2 {
            let lanes = tracer.upcoming_op()..tracer.upcoming_op() + self.warmup_ops as u32;
            let mut replay = SmartReplay::new(&self.inputs.initial, lane_threads())?;
            self.replay_warmup(&mut replay, tracer)?;
            let (dispatch_us, overlap) = lane_metrics(tracer, &lanes);
            ledger.set("parcore.dispatch_us", dispatch_us);
            ledger.set("parcore.lane_overlap", overlap);
        }
        let per_step = |span: &str| {
            [&step_ops, &inner_ops]
                .into_iter()
                .map(|ops| tracer.ms_per_op(span, ops))
                .filter(|per_op| !per_op.is_empty())
                .map(|per_op| median(&per_op))
                .fold(0.0, |total, ms| total + ms)
        };
        for (metric, span) in [
            ("ssd.read_ms", "ssd.read"),
            ("ssd.write_ms", "ssd.write"),
            ("tensorlib.f32_bytes_ms", "tensorlib.f32_bytes"),
            ("tensorlib.f16_pack_ms", "tensorlib.f16_pack"),
            ("optim.update_ms", "optim.update"),
            ("gradcomp.topk_ms", "gradcomp.topk"),
            ("gradcomp.feedback_ms", "gradcomp.feedback"),
            ("csd.update_subgroup_ms", "csd.update_subgroup"),
            ("csd.decompress_ms", "csd.decompress"),
            ("csd.read_back_ms", "csd.read_back"),
        ] {
            ledger.set(metric, per_step(span));
        }
        let update_ms = ledger.get("optim.update_ms");
        if update_ms > 0.0 {
            ledger.set("optim.elems_per_s", TRAIN_PARAMS as f64 / (update_ms / 1e3));
        }
        ledger.set("trace.residual_pct", 100.0 * (step_ms - covered_ms) / step_ms);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Replays: the steps rebuilt from the layers' public calls, with spans
// ---------------------------------------------------------------------------

/// `StorageOffloadTrainer::train_step_with_grads`, call for call.
struct BaseReplay {
    raid: RaidArray,
    fp16: FlatTensor,
    chunker: Chunker,
    optimizer: Optimizer,
    step: u64,
    ops_at_start: u64,
}

fn ssd_err(e: ssd::SsdError) -> String {
    e.to_string()
}

impl BaseReplay {
    fn new(initial: &FlatTensor) -> Result<Self, String> {
        let optimizer = Optimizer::adam_default();
        let devices =
            (0..TRAIN_DEVICES).map(|i| SsdDevice::new(format!("ssd{i}"), u64::MAX / 4)).collect();
        let mut raid = RaidArray::new(devices, 1 << 20).map_err(ssd_err)?;
        let chunker = Chunker::new(TRAIN_PARAMS, subgroup_elems());
        for block in chunker.subgroups() {
            let master = initial.slice(block.offset, block.len);
            raid.write_region(&format!("b{}/master", block.index), &master.to_bytes(Dtype::F32))
                .map_err(ssd_err)?;
            for aux in 0..optimizer.kind().num_aux() {
                let zeros = FlatTensor::zeros(block.len).to_bytes(Dtype::F32);
                raid.write_region(&format!("b{}/aux{aux}", block.index), &zeros)
                    .map_err(ssd_err)?;
            }
        }
        let fp16 = FlatTensor::from_bytes(&initial.to_bytes(Dtype::F16), Dtype::F16);
        let mut replay = BaseReplay { raid, fp16, chunker, optimizer, step: 0, ops_at_start: 0 };
        replay.ops_at_start = replay.total_ops();
        Ok(replay)
    }

    fn total_ops(&self) -> u64 {
        self.raid.devices().iter().map(|d| d.read_ops() + d.write_ops()).sum()
    }

    /// Device operations since construction.
    fn io_ops(&self) -> u64 {
        self.total_ops() - self.ops_at_start
    }

    fn step(&mut self, grads: &FlatTensor, tr: &mut Tracer) -> Result<(), String> {
        let root = tr.begin("replay.step");
        self.step += 1;
        let (raid, optimizer, t) = (&mut self.raid, self.optimizer, self.step);
        for block in self.chunker.subgroups() {
            let bytes = tr.scope("tensorlib.f32_bytes", |_| {
                grads.slice(block.offset, block.len).to_bytes(Dtype::F32)
            });
            tr.scope("ssd.write", |_| raid.write_region(&format!("b{}/grad", block.index), &bytes))
                .map_err(ssd_err)?;
        }
        for block in self.chunker.subgroups() {
            let mut load = |region: String, tr: &mut Tracer| -> Result<FlatTensor, String> {
                let bytes = tr.scope("ssd.read", |_| raid.read_region(&region)).map_err(ssd_err)?;
                Ok(tr.scope("tensorlib.f32_bytes", |_| FlatTensor::from_bytes(&bytes, Dtype::F32)))
            };
            let mut master = load(format!("b{}/master", block.index), tr)?;
            let mut aux = Vec::with_capacity(optimizer.kind().num_aux());
            for a in 0..optimizer.kind().num_aux() {
                aux.push(load(format!("b{}/aux{a}", block.index), tr)?);
            }
            let block_grads = load(format!("b{}/grad", block.index), tr)?;
            tr.scope("optim.update", |_| {
                optimizer.step(master.as_mut_slice(), &block_grads, &mut aux, t)
            });
            let mut store = |region: String, tensor: &FlatTensor, tr: &mut Tracer| {
                let bytes = tr.scope("tensorlib.f32_bytes", |_| tensor.to_bytes(Dtype::F32));
                tr.scope("ssd.write", |_| raid.write_region(&region, &bytes)).map_err(ssd_err)
            };
            store(format!("b{}/master", block.index), &master, tr)?;
            for (a, tensor) in aux.iter().enumerate() {
                store(format!("b{}/aux{a}", block.index), tensor, tr)?;
            }
            let dst = &mut self.fp16.as_mut_slice()[block.offset..block.offset + block.len];
            tr.scope("tensorlib.f16_pack", |_| master.roundtrip_f16_into(dst));
        }
        tr.end(root);
        Ok(())
    }
}

/// Medians over `ops` of the time a replayed step's parallel region spends
/// outside its lanes, in µs, and of the lanes' busy time over the time from
/// the first lane's start to the last one's end.
fn lane_metrics(tr: &Tracer, ops: &std::ops::Range<u32>) -> (f64, f64) {
    let (mut dispatch, mut overlap) = (Vec::new(), Vec::new());
    for op in ops.clone() {
        let spans: Vec<_> = tr.spans().iter().filter(|s| s.op == op).collect();
        let Some(region) = spans.iter().find(|s| s.name == "parcore.region") else { continue };
        let lanes: Vec<_> = spans.iter().filter(|s| s.lane > 0).collect();
        let (Some(first), Some(last)) =
            (lanes.iter().map(|s| s.start_ns).min(), lanes.iter().map(|s| s.end_ns).max())
        else {
            continue;
        };
        dispatch.push(((first - region.start_ns) + (region.end_ns - last)) as f64 / 1e3);
        let busy: u64 = lanes.iter().map(|s| s.end_ns - s.start_ns).sum();
        overlap.push(busy as f64 / (last - first) as f64);
    }
    (median(&dispatch), median(&overlap))
}

/// `PipelinedTrainer::train_step_with_grads`, lane for lane.
struct SmartReplay {
    csds: Vec<CsdDevice>,
    partitioner: Partitioner,
    feedback: Vec<ErrorFeedback>,
    scratch: Vec<FlatTensor>,
    fp16: FlatTensor,
    optimizer: Optimizer,
    compressor: Compressor,
    pool: ParExecutor,
    step: u64,
    ops_at_start: u64,
}

fn csd_err(e: csd::CsdError) -> String {
    e.to_string()
}

impl SmartReplay {
    fn new(initial: &FlatTensor, threads: usize) -> Result<Self, String> {
        let optimizer = Optimizer::adam_default();
        let (partitioner, csds, feedback) =
            ztrain::init_csd_shards(initial, &optimizer, TRAIN_DEVICES).map_err(csd_err)?;
        let fp16 = FlatTensor::from_bytes(&initial.to_bytes(Dtype::F16), Dtype::F16);
        let mut replay = SmartReplay {
            csds,
            partitioner,
            feedback,
            scratch: vec![FlatTensor::default(); TRAIN_DEVICES],
            fp16,
            optimizer,
            compressor: Compressor::top_k(KEEP_RATIO),
            pool: ParExecutor::new(threads),
            step: 0,
            ops_at_start: 0,
        };
        replay.ops_at_start = replay.total_ops();
        Ok(replay)
    }

    fn total_ops(&self) -> u64 {
        self.csds.iter().map(|c| c.ssd().read_ops() + c.ssd().write_ops()).sum()
    }

    fn io_ops(&self) -> u64 {
        self.total_ops() - self.ops_at_start
    }

    fn step(&mut self, grads: &FlatTensor, tr: &mut Tracer) -> Result<(), String> {
        struct Lane<'a> {
            offset: usize,
            len: usize,
            csd: &'a mut CsdDevice,
            feedback: &'a mut ErrorFeedback,
            scratch: &'a mut FlatTensor,
            fp16_out: &'a mut [f32],
            trace: LaneTrace,
        }
        let root = tr.begin("replay.step");
        self.step += 1;
        let (optimizer, compressor, step) = (self.optimizer, self.compressor, self.step);
        let subgroup = subgroup_elems();

        let mut lanes = Vec::with_capacity(TRAIN_DEVICES);
        let mut fp16_rest = self.fp16.as_mut_slice();
        let parts = self.csds.iter_mut().zip(self.feedback.iter_mut()).zip(self.scratch.iter_mut());
        for (shard, ((csd, feedback), scratch)) in self.partitioner.shards().iter().zip(parts) {
            let (fp16_out, rest) = fp16_rest.split_at_mut(shard.len);
            fp16_rest = rest;
            lanes.push(Lane {
                offset: shard.offset,
                len: shard.len,
                csd,
                feedback,
                scratch,
                fp16_out,
                trace: tr.lane(),
            });
        }
        let weights: Vec<usize> = lanes.iter().map(|l| l.len).collect();

        let region = tr.begin("parcore.region");
        let results = self.pool.map_weighted(lanes, &weights, |_, lane| {
            let Lane { offset, len, csd, feedback, scratch, fp16_out, trace: mut lt } = lane;
            let result = (|| -> Result<(), String> {
                lt.scope("tensorlib.f32_bytes", || grads.slice_into(offset, len, scratch));
                lt.scope("gradcomp.feedback", || feedback.apply_in_place(scratch));
                let compressed = lt
                    .scope("gradcomp.topk", || compressor.try_compress(scratch))
                    .map_err(|e| e.to_string())?;
                lt.scope("gradcomp.feedback", || feedback.update(scratch, &compressed));
                for sub in Chunker::new(len, subgroup).subgroups() {
                    lt.scope("csd.update_subgroup", || {
                        csd.update_subgroup(SubgroupUpdate {
                            shard: "shard",
                            offset: sub.offset,
                            len: sub.len,
                            optimizer,
                            step,
                            compressed: Some(&compressed),
                        })
                    })
                    .map_err(csd_err)?;
                }
                let updated = lt
                    .scope("csd.read_back", || csd.load_parameters("shard", 0, len))
                    .map_err(csd_err)?;
                lt.scope("tensorlib.f16_pack", || updated.roundtrip_f16_into(fp16_out));
                Ok(())
            })();
            (lt, result)
        });
        tr.end(region);
        let mut outcome = Ok(());
        for (i, (lane_trace, result)) in results.into_iter().enumerate() {
            tr.adopt(i as u32 + 1, lane_trace);
            outcome = outcome.and(result);
        }
        tr.end(root);
        outcome
    }

    /// What `CsdDevice::update_subgroup` does inside, replayed per shard on
    /// buffers of the same size: P2P reads and decodes, decompress, update,
    /// encodes and P2P writes.
    fn inner(&mut self, tr: &mut Tracer, ops: usize) -> Result<(), String> {
        let len = subgroup_elems();
        let num_aux = self.optimizer.kind().num_aux();
        let regions: Vec<String> = (0..=num_aux).map(|i| format!("r{i}")).collect();
        let mut ssd = SsdDevice::new("replay", u64::MAX / 4);
        for region in &regions {
            ssd.write_region(region.as_str(), FlatTensor::zeros(len).to_bytes(Dtype::F32))
                .map_err(ssd_err)?;
        }
        let sample = FlatTensor::from_fn(len, |i| ((i * 2_654_435_761) % 1_000_003) as f32 * 1e-9);
        let compressed = self.compressor.try_compress(&sample).map_err(|e| e.to_string())?;
        let (updater, decompressor, exec) =
            (*self.csds[0].updater(), *self.csds[0].decompressor(), self.csds[0].executor());
        let mut io = Vec::new();
        let mut tensors = vec![FlatTensor::default(); num_aux + 1];
        let mut grad = FlatTensor::zeros(len);
        for op in 0..ops {
            tr.next_op();
            for _shard in 0..TRAIN_DEVICES {
                for (region, tensor) in regions.iter().zip(tensors.iter_mut()) {
                    tr.scope("ssd.read", |_| ssd.read_at_into(region, 0, len * 4, &mut io))
                        .map_err(ssd_err)?;
                    tr.scope("tensorlib.f32_bytes", |_| {
                        FlatTensor::from_bytes_into(&io, Dtype::F32, tensor)
                    });
                }
                tr.scope("csd.decompress", |_| {
                    decompressor.decompress_subgroup(&compressed, 0, grad.as_mut_slice())
                });
                let (master, aux) = tensors.split_first_mut().expect("master and aux tensors");
                tr.scope("optim.update", |_| {
                    updater.run_with(
                        &exec,
                        &self.optimizer,
                        master.as_mut_slice(),
                        &grad,
                        aux,
                        op as u64 + 1,
                    )
                });
                for (region, tensor) in regions.iter().zip(tensors.iter()) {
                    tr.scope("tensorlib.f32_bytes", |_| tensor.to_bytes_into(Dtype::F32, &mut io));
                    tr.scope("ssd.write", |_| ssd.write_at(region, 0, &io)).map_err(ssd_err)?;
                }
            }
        }
        Ok(())
    }
}
