//! Serving-runtime throughput: the batched engine at full and partial
//! occupancy, replica instantiation, the compile-side optimizer cost, and
//! the end-to-end scheduler path.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use shenjing::prelude::*;
use shenjing::snn::snn_from_specs;

const BATCH: usize = 16;
const TIMESTEPS: u32 = 8;

fn bench_runtime(c: &mut Criterion) {
    let arch = ArchSpec::paper();
    let snn = snn_from_specs(&NetworkKind::MnistMlp.specs(), (28, 28, 1), 7).unwrap();
    let model = CompiledModel::compile(&arch, &snn).unwrap();
    let frames: Vec<Tensor> = (0..BATCH)
        .map(|k| {
            Tensor::from_vec(vec![784], (0..784).map(|i| ((i + k * 37) % 7) as f64 / 7.0).collect())
                .unwrap()
        })
        .collect();

    // The batched engine: one pass over the schedule advances all 16.
    let mut batched = model.instantiate_batched(BATCH).unwrap();
    c.bench_function("runtime_batched_16_frames_t8", |b| {
        b.iter(|| batched.run_batch(&frames, TIMESTEPS).unwrap())
    });

    // Under-full batch on the same 16-lane replica: with lane-occupancy
    // execution this must cost ~4 lanes of payload plus one control-word
    // walk (occupancy-bound), not a full 16-lane pass (capacity-bound).
    c.bench_function("runtime_batched_4of16_frames_t8", |b| {
        b.iter(|| batched.run_batch(&frames[..4], TIMESTEPS).unwrap())
    });

    // Cheap instantiation from the shared artifact (the per-worker cost
    // the decoded program amortizes): the 16-lane replica a worker holds.
    c.bench_function("runtime_instantiate_replica", |b| {
        b.iter(|| model.instantiate_batched(BATCH).unwrap())
    });

    // The compile-side cost of the schedule optimizer: decode plus the
    // four optimizer passes, paid once per artifact. Tracked so the
    // one-time compile cost stays negligible next to what the compacted
    // schedule saves on every serving pass.
    let mapping = Mapper::new(arch.clone()).map(&snn).unwrap();
    c.bench_function("decode_and_optimize_mlp", |b| {
        b.iter(|| {
            shenjing::sim::DecodedProgram::decode(&arch, &mapping.logical, &mapping.program)
                .unwrap()
                .optimize()
                .compacted_cycles()
                .unwrap()
        })
    });

    // End to end through registry + admission + batching policy + worker
    // shards (every worker warm, as the pre-registry runtime was).
    c.bench_function("runtime_serve_32_frames_2_workers", |b| {
        b.iter(|| {
            let registry = ModelRegistry::new()
                .with_model("mnist", model.clone(), ServeOptions::default().with_warm_replicas(2))
                .unwrap();
            let runtime = Runtime::serve(
                registry,
                RuntimeConfig {
                    workers: 2,
                    max_batch: BATCH,
                    max_wait: Duration::from_millis(1),
                    timesteps: TIMESTEPS,
                    ..Default::default()
                },
            )
            .unwrap();
            let requests: Vec<InferenceRequest> = frames
                .iter()
                .chain(frames.iter())
                .map(|f| InferenceRequest::new("mnist", f.clone()))
                .collect();
            let replies = runtime.infer_many(&requests).unwrap();
            runtime.shutdown().unwrap();
            replies.len()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(3);
    targets = bench_runtime
}
criterion_main!(benches);
