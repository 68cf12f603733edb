//! Criterion benchmarks: one group per paper table/figure that is still code.
//! Each benchmark regenerates the corresponding experiment end to end, so
//! `cargo bench` both times the harness and re-derives its headline numbers.
//! The sweep figures are `lab` experiments (`specs/experiments/fig*`) and
//! are not benchmarked here.

use bench::harness;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_motivation(c: &mut Criterion) {
    let mut g = c.benchmark_group("motivation");
    g.sample_size(10);
    g.bench_function("tab01_interconnect_traffic", |b| b.iter(harness::tab1));
    g.bench_function("tab03_fpga_resources", |b| b.iter(harness::tab3));
    g.finish();
}

fn bench_analysis_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("analysis");
    g.sample_size(10);
    g.bench_function("fig14_kernel_throughput", |b| b.iter(harness::fig14));
    g.bench_function("fig15_cost_efficiency", |b| b.iter(harness::fig15));
    g.finish();
}

fn bench_finetuning(c: &mut Criterion) {
    let mut g = c.benchmark_group("finetuning");
    g.sample_size(10);
    // One epoch keeps the real training runs to benchmark-friendly durations;
    // the figures binary uses three epochs for the reported accuracies.
    g.bench_function("tab04_finetune_accuracy_quick", |b| b.iter(|| harness::tab4(1)));
    g.finish();
}

criterion_group!(figures, bench_motivation, bench_analysis_figures, bench_finetuning);
criterion_main!(figures);
