//! Microbenchmarks of the functional kernels: the FPGA updater arithmetic,
//! the Top-K compressor/decompressor, half-precision conversion, and the
//! discrete-event engine with the graph build and lowering in front of it.
//! These measure the *real* Rust implementations (the functional layer),
//! complementing the modelled throughputs of Fig. 14.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gradcomp::{CompressLane, Compressor, ErrorFeedback};
use optim::{HyperParams, Optimizer, OptimizerKind};
use parcore::ParExecutor;
use simkit::{FlowSpec, Simulation};
use smart_infinity::{method_scheduler, MethodSpec, ModelConfig, SmartInfinityEngine, Workload};
use std::hint::black_box;
use tensorlib::{le_bytes, Dtype, FlatTensor};
use ztrain::schedule::{build_iteration_graph, GraphKnobs, IterPhases, PlatformLowering, SiteMap};
use ztrain::{MachineConfig, TimedPlatform};

const KERNEL_ELEMS: usize = 1 << 20;

fn bench_updater_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("updater_kernels");
    g.throughput(Throughput::Bytes((KERNEL_ELEMS * 16) as u64));
    let grads = FlatTensor::randn(KERNEL_ELEMS, 0.01, 1);
    for kind in [
        OptimizerKind::Adam,
        OptimizerKind::AdamW,
        OptimizerKind::SgdMomentum,
        OptimizerKind::AdaGrad,
    ] {
        let optimizer = Optimizer::new(kind, HyperParams::default());
        g.bench_with_input(BenchmarkId::new("step", format!("{kind:?}")), &kind, |b, _| {
            let mut params = FlatTensor::randn(KERNEL_ELEMS, 0.02, 2);
            let mut aux = optimizer.init_aux(KERNEL_ELEMS);
            let mut t = 0u64;
            b.iter(|| {
                t += 1;
                optimizer.step(params.as_mut_slice(), &grads, &mut aux, t);
                black_box(params.as_slice()[0]);
            });
        });
    }
    g.finish();
}

fn bench_compression(c: &mut Criterion) {
    let mut g = c.benchmark_group("gradient_compression");
    g.throughput(Throughput::Bytes((KERNEL_ELEMS * 4) as u64));
    let grads = FlatTensor::randn(KERNEL_ELEMS, 0.01, 3);
    for keep in [0.01f64, 0.05] {
        g.bench_with_input(BenchmarkId::new("topk_exact", keep), &keep, |b, &keep| {
            let compressor = Compressor::top_k(keep);
            b.iter(|| black_box(compressor.compress(&grads)));
        });
    }
    let compressed = Compressor::top_k(0.01).compress(&grads);
    let decompressor = csd::Decompressor::default();
    g.bench_function("fpga_decompressor", |b| {
        let mut out = vec![0.0f32; KERNEL_ELEMS];
        b.iter(|| {
            decompressor.decompress_into(&compressed, &mut out);
            black_box(out[0]);
        });
    });
    g.finish();
}

/// SmartComp's whole compress stage as one lane of the trainer runs it, warm:
/// accumulate the step's gradient into the residual, select the top 1 % from
/// it into the lane's stream, zero the kept coordinates.
fn bench_smartcomp_stage(c: &mut Criterion) {
    let mut g = c.benchmark_group("smartcomp_stage");
    g.throughput(Throughput::Elements(KERNEL_ELEMS as u64));
    let grads: Vec<FlatTensor> =
        (0..4).map(|s| FlatTensor::randn(KERNEL_ELEMS, 0.01, 30 + s)).collect();
    g.bench_function("accumulate_select_clear_1pct", |b| {
        let compressor = Compressor::top_k(0.01);
        let pool = ParExecutor::serial();
        let mut feedback = ErrorFeedback::new(KERNEL_ELEMS);
        let mut lane = CompressLane::default();
        let mut step = 0usize;
        let mut stage = || {
            step += 1;
            feedback
                .compress_into(grads[step % 4].as_slice(), &compressor, &pool, &mut lane)
                .expect("1 Mi elements fit the index space");
            lane.stream().num_selected()
        };
        // The first steps touch the residual's pages and size the lane.
        for _ in 0..4 {
            stage();
        }
        b.iter(stage);
    });
    g.finish();
}

/// Serial vs parallel execution backend on 1M-element tensors: the Adam
/// updater and the exact Top-K selection at 1, 2 and 4 worker threads.
/// (Results are bit-identical across thread counts — asserted by the test
/// suites — so these benches measure wall-clock only. Speedup is bounded by
/// the CPUs actually available to the process.)
fn bench_parallel_backend(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel_backend");
    g.throughput(Throughput::Elements(KERNEL_ELEMS as u64));
    let grads = FlatTensor::randn(KERNEL_ELEMS, 0.01, 7);
    let optimizer = Optimizer::adam_default();
    for threads in [1usize, 2, 4] {
        let pool = ParExecutor::new(threads);
        g.bench_with_input(BenchmarkId::new("adam_step", threads), &threads, |b, _| {
            let mut params = FlatTensor::randn(KERNEL_ELEMS, 0.02, 8);
            let mut aux = optimizer.init_aux(KERNEL_ELEMS);
            let mut t = 0u64;
            b.iter(|| {
                t += 1;
                optimizer.par_step(&pool, params.as_mut_slice(), &grads, &mut aux, t);
                black_box(params.as_slice()[0]);
            });
        });
        g.bench_with_input(BenchmarkId::new("topk_exact_1pct", threads), &threads, |b, _| {
            let compressor = Compressor::top_k(0.01);
            b.iter(|| black_box(compressor.compress_par(&grads, &pool)));
        });
    }
    g.finish();
}

fn bench_half_precision(c: &mut Criterion) {
    let mut g = c.benchmark_group("half_precision");
    let t = FlatTensor::randn(KERNEL_ELEMS, 1.0, 4);
    g.throughput(Throughput::Bytes((KERNEL_ELEMS * 4) as u64));
    g.bench_function("f32_to_f16_bytes", |b| b.iter(|| black_box(t.to_bytes(Dtype::F16))));
    let bytes = t.to_bytes(Dtype::F16);
    g.bench_function("f16_bytes_to_f32", |b| {
        b.iter(|| black_box(FlatTensor::from_bytes(&bytes, Dtype::F16)))
    });
    g.finish();
}

/// The FP32 wire codec: the borrowed byte view (one `memcpy`) against the
/// per-element scalar loop it replaced, in both directions.
fn bench_f32_bytes(c: &mut Criterion) {
    let mut g = c.benchmark_group("f32_bytes");
    let values = FlatTensor::randn(KERNEL_ELEMS, 1.0, 7);
    g.throughput(Throughput::Bytes((KERNEL_ELEMS * 4) as u64));
    let mut wire = vec![0u8; KERNEL_ELEMS * 4];
    g.bench_function("encode_view", |b| {
        b.iter(|| le_bytes::encode(values.as_slice(), black_box(&mut wire)));
    });
    g.bench_function("encode_scalar", |b| {
        b.iter(|| le_bytes::encode_scalar(values.as_slice(), black_box(&mut wire)));
    });
    let mut decoded = vec![0.0f32; KERNEL_ELEMS];
    g.bench_function("decode_view", |b| {
        b.iter(|| le_bytes::decode(&wire, black_box(&mut decoded)));
    });
    g.bench_function("decode_scalar", |b| {
        b.iter(|| le_bytes::decode_scalar(&wire, black_box(&mut decoded)));
    });
    g.finish();
}

/// A thousand flows over ten device links, every third chained to its
/// predecessor, no two of one size, so every finish is an event of its own.
/// With `uplink` they all cross one shared host link: the active flows are a
/// single component and every start or finish refills all of it. Without,
/// each device is a component of its own and a change refills one of ten.
fn thousand_flows(uplink: bool) -> f64 {
    let mut sim = Simulation::new();
    let shared = uplink.then(|| sim.add_link("shared", 16e9));
    let devices: Vec<_> = (0..10).map(|i| sim.add_link(format!("dev{i}"), 3e9)).collect();
    let mut prev = None;
    for i in 0..1000usize {
        let path: Vec<_> = shared.into_iter().chain([devices[i % 10]]).collect();
        let dep = prev.filter(|_| i % 3 == 0);
        prev = Some(sim.flow(FlowSpec::new(path, 1e8 + 1e5 * i as f64).after(dep.as_slice())));
    }
    sim.run().expect("simulation").makespan()
}

/// Builds one GPT2-33.0B, 10-CSD, SU+O+P+C iteration graph and lowers it
/// onto a fresh `TimedPlatform` without running it: what every timed run
/// pays before the engine starts. Returns the platform, ready to run.
fn lower_iteration(workload: &Workload) -> TimedPlatform {
    let method = MethodSpec::pipelined(Some(0.01));
    let mut plat = TimedPlatform::new(&MachineConfig::smart_infinity(10));
    let phases = IterPhases {
        forward: plat.add_phase("forward"),
        backward: plat.add_phase("backward+grad_offload"),
        update: plat.add_phase("update+opt_transfer"),
    };
    let sites = SiteMap::new(plat.num_gpus(), plat.num_devices());
    let knobs =
        GraphKnobs::in_storage(method.keep_ratio(), SmartInfinityEngine::DEFAULT_SUBGROUP_ELEMS);
    let graph = build_iteration_graph(workload, sites, OptimizerKind::Adam, &knobs, phases);
    let resources = plat.resource_catalog();
    let mut scheduler = method_scheduler(method.implied_handler(), method.pipelined, &graph.layout);
    let mut lowering = PlatformLowering::new(&mut plat);
    simkit::execute(&graph.dag, &resources, scheduler.as_mut(), &mut lowering).expect("lowering");
    plat
}

fn bench_simulation_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("discrete_event_engine");
    let workload = Workload::paper_default(ModelConfig::gpt2_33b());
    g.bench_function("lower_gpt2_33b_ten_csds_su_o_p_c", |b| {
        b.iter(|| black_box(lower_iteration(&workload)))
    });
    // The same graph through the engine: the paper's traffic shape, where
    // the synthetic cases below are one or ten links.
    g.bench_function("run_gpt2_33b_ten_csds_su_o_p_c", |b| {
        b.iter(|| black_box(lower_iteration(&workload).run().expect("simulation").makespan()))
    });
    g.bench_function("thousand_contending_flows", |b| b.iter(|| black_box(thousand_flows(true))));
    g.bench_function("thousand_flows_ten_disjoint_devices", |b| {
        b.iter(|| black_box(thousand_flows(false)))
    });
    g.finish();
}

fn bench_functional_trainers(c: &mut Criterion) {
    let mut g = c.benchmark_group("functional_trainers");
    let n = 200_000;
    let initial = FlatTensor::randn(n, 0.02, 5);
    let grads = FlatTensor::randn(n, 0.01, 6);
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("baseline_storage_offload_step", |b| {
        let mut trainer =
            ztrain::StorageOffloadTrainer::new(&initial, Optimizer::adam_default(), 4, 50_000)
                .expect("trainer");
        b.iter(|| trainer.train_step_with_grads(&grads).expect("step"));
    });
    g.bench_function("smart_infinity_step", |b| {
        let mut trainer =
            ztrain::PipelinedTrainer::new(&initial, Optimizer::adam_default(), 4, 50_000)
                .expect("trainer");
        b.iter(|| trainer.train_step_with_grads(&grads).expect("step"));
    });
    g.bench_function("smart_infinity_compressed_step", |b| {
        let mut trainer =
            ztrain::PipelinedTrainer::new(&initial, Optimizer::adam_default(), 4, 50_000)
                .expect("trainer")
                .with_compression(0.01)
                .expect("keep ratio");
        b.iter(|| trainer.train_step_with_grads(&grads).expect("step"));
    });
    g.finish();
}

criterion_group!(
    kernels,
    bench_updater_kernels,
    bench_compression,
    bench_smartcomp_stage,
    bench_parallel_backend,
    bench_half_precision,
    bench_f32_bytes,
    bench_simulation_engine,
    bench_functional_trainers
);
criterion_main!(kernels);
