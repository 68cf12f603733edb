//! Ablation benchmarks beyond the paper's figures: design-choice studies
//! called out in DESIGN.md — handler mode across subgroup sizes, compression
//! selection strategy, partition granularity, and the FW/BW block streaming
//! pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use llm::{ModelConfig, Workload};
use optim::OptimizerKind;
use smart_infinity::{HandlerMode, MethodSpec, SmartInfinityEngine};
use std::hint::black_box;
use ztrain::MachineConfig;

fn bench_handler_vs_subgroup_size(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_handler");
    g.sample_size(10);
    let workload = Workload::paper_default(ModelConfig::gpt2_4b());
    for subgroup in [25_000_000usize, 50_000_000, 100_000_000, 200_000_000] {
        for handler in [HandlerMode::Naive, HandlerMode::Optimized] {
            let id = BenchmarkId::new(format!("{handler:?}"), subgroup);
            g.bench_with_input(id, &(subgroup, handler), |b, &(subgroup, handler)| {
                b.iter(|| {
                    let report = SmartInfinityEngine::new(
                        MachineConfig::smart_infinity(10),
                        workload.clone(),
                        OptimizerKind::Adam,
                        &MethodSpec::smart_update_optimized(),
                    )
                    .with_handler(handler)
                    .with_subgroup_elems(subgroup)
                    .simulate_iteration()
                    .expect("simulation");
                    black_box(report.total_s())
                });
            });
        }
    }
    g.finish();
}

fn bench_selection_strategies(c: &mut Criterion) {
    use gradcomp::Compressor;
    use tensorlib::FlatTensor;
    let mut g = c.benchmark_group("ablation_selection");
    let grads = FlatTensor::randn(1 << 21, 0.01, 9);
    for (name, compressor) in
        [("exact_topk", Compressor::top_k(0.01)), ("random_k", Compressor::random_k(0.01, 7))]
    {
        g.bench_function(name, |b| b.iter(|| black_box(compressor.compress(&grads))));
    }
    g.finish();
}

fn bench_partition_granularity(c: &mut Criterion) {
    use optim::Optimizer;
    use tensorlib::FlatTensor;
    use ztrain::PipelinedTrainer;
    let mut g = c.benchmark_group("ablation_partition");
    g.sample_size(10);
    let n = 300_000;
    let initial = FlatTensor::randn(n, 0.02, 11);
    let grads = FlatTensor::randn(n, 0.01, 12);
    for csds in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::new("functional_step", csds), &csds, |b, &csds| {
            let mut trainer =
                PipelinedTrainer::new(&initial, Optimizer::adam_default(), csds, 40_000)
                    .expect("trainer");
            b.iter(|| trainer.train_step_with_grads(&grads).expect("step"));
        });
    }
    g.finish();
}

fn bench_baseline_block_streaming(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_baseline_blocks");
    g.sample_size(10);
    for model in [ModelConfig::gpt2_0_34b(), ModelConfig::gpt2_4b(), ModelConfig::gpt2_16_6b()] {
        let workload = Workload::paper_default(model.clone());
        g.bench_with_input(
            BenchmarkId::new("simulate_iteration", model.name()),
            &workload,
            |b, workload| {
                b.iter(|| {
                    SmartInfinityEngine::new(
                        MachineConfig::baseline_raid0(6),
                        workload.clone(),
                        OptimizerKind::Adam,
                        &MethodSpec::baseline(),
                    )
                    .simulate_iteration()
                    .expect("simulation")
                    .total_s()
                });
            },
        );
    }
    g.finish();
}

criterion_group!(
    ablations,
    bench_handler_vs_subgroup_size,
    bench_selection_strategies,
    bench_partition_granularity,
    bench_baseline_block_streaming
);
criterion_main!(ablations);
