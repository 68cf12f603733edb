//! Benchmarks of the pipelined fabric execution backend: one full functional
//! training step, serial vs pipelined across worker-thread counts, with and
//! without SmartComp compression. The results are bit-identical by
//! construction (the integration suite asserts it); these measure the
//! wall-clock effect of overlapping the per-device write → compress/update →
//! read-back stages.
//!
//! NOTE: on a single-CPU container the pipelined lanes time-slice one core,
//! so the ratios here are only meaningful on a multi-core machine (the same
//! caveat BENCH_2.json records via `parallel_valid`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use optim::Optimizer;
use std::hint::black_box;
use tensorlib::FlatTensor;
use ztrain::PipelinedTrainer;

const STEP_ELEMS: usize = 1 << 18;
const DEVICES: usize = 4;

fn bench_pipelined_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipelined_step");
    g.sample_size(10);
    g.throughput(Throughput::Bytes((STEP_ELEMS * 4) as u64));
    let initial = FlatTensor::randn(STEP_ELEMS, 0.02, 1);
    let grads = FlatTensor::randn(STEP_ELEMS, 0.01, 2);
    for keep in [None, Some(0.01f64)] {
        let label = keep.map_or("dense".to_string(), |k| format!("topk{k}"));
        for threads in [1usize, 2, 4] {
            g.bench_with_input(BenchmarkId::new(&label, threads), &threads, |b, &threads| {
                let mut trainer = PipelinedTrainer::new(
                    &initial,
                    Optimizer::adam_default(),
                    DEVICES,
                    STEP_ELEMS / DEVICES,
                )
                .expect("trainer");
                if let Some(k) = keep {
                    trainer = trainer.with_compression(k).expect("keep ratio");
                }
                trainer = trainer.with_threads(threads);
                b.iter(|| {
                    let report = trainer.train_step_with_grads(&grads).expect("step");
                    black_box(report.stages);
                });
            });
        }
    }
    g.finish();
}

/// The two regimes of the CSD's tile-streaming update (`csd`'s private 8 Ki-
/// element tile): subgroups smaller than a tile, where the per-subgroup
/// gates, DRAM accounting and stream search are all there is to amortise,
/// and subgroups of many tiles, where the streaming loop is. One serial
/// SmartComp step each, so a regression of either shows in the smoke output.
fn bench_subgroup_regimes(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipelined_step_subgroup");
    g.sample_size(10);
    for (label, elems, subgroup) in
        [("below_tile_2Ki", STEP_ELEMS, 1usize << 11), ("above_tile_1Mi", 1 << 22, 1 << 20)]
    {
        g.throughput(Throughput::Bytes((elems * 4) as u64));
        let initial = FlatTensor::randn(elems, 0.02, 1);
        let grads = FlatTensor::randn(elems, 0.01, 2);
        g.bench_function(label, |b| {
            let mut trainer =
                PipelinedTrainer::new(&initial, Optimizer::adam_default(), DEVICES, subgroup)
                    .expect("trainer")
                    .with_compression(0.01)
                    .expect("keep ratio");
            b.iter(|| {
                let report = trainer.train_step_with_grads(&grads).expect("step");
                black_box(report.stages);
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_pipelined_step, bench_subgroup_regimes);
criterion_main!(benches);
