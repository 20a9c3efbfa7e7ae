//! Engine micro-benchmarks: one real training step, sequential vs
//! pipelined (straight and replicated), on a mid-sized MLP.

use criterion::{criterion_group, criterion_main, Criterion};
use dapple_engine::{data, EngineConfig, MlpModel, PipelineTrainer};
use dapple_sim::{KPolicy, Schedule};
use std::hint::black_box;

fn bench_train_step(c: &mut Criterion) {
    let dims = [64usize, 256, 256, 256, 256, 128, 32];
    let (x, t) = data::regression_batch(128, dims[0], *dims.last().unwrap(), 11);
    let mut group = c.benchmark_group("engine_step");
    group.sample_size(20);

    let seq_model = MlpModel::new(&dims, 3);
    group.bench_function("sequential_m4", |b| {
        b.iter(|| {
            let (_, grads) = seq_model.reference_grads(black_box(&x), black_box(&t), 4);
            black_box(grads.len())
        })
    });

    let straight = PipelineTrainer::new(
        MlpModel::new(&dims, 3),
        EngineConfig::straight(vec![0..2, 2..4, 4..6], 4, 0.1),
    )
    .unwrap();
    group.bench_function("pipeline_3stage_m4", |b| {
        b.iter(|| {
            let (_, grads) = straight.step_grads(black_box(&x), black_box(&t)).unwrap();
            black_box(grads.len())
        })
    });

    let hybrid = PipelineTrainer::new(
        MlpModel::new(&dims, 3),
        EngineConfig {
            stage_bounds: vec![0..3, 3..6],
            replication: vec![2, 2],
            schedule: Schedule::Dapple(KPolicy::PB),
            micro_batches: 4,
            recompute: false,
            lr: 0.1,
            max_in_flight: usize::MAX,
            loss: dapple_engine::LossKind::Mse,
            recv_timeout: std::time::Duration::from_secs(5),
            nan_policy: dapple_engine::NanPolicy::AbortStep,
            tracing: false,
        },
    )
    .unwrap();
    group.bench_function("pipeline_2x2_replicated_m4", |b| {
        b.iter(|| {
            let (_, grads) = hybrid.step_grads(black_box(&x), black_box(&t)).unwrap();
            black_box(grads.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_train_step);
criterion_main!(benches);
