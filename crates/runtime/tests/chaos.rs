//! Deterministic fault-tolerance drills: scripted replica panics and
//! worker kills against a single-worker runtime, asserting the restart
//! and quarantine semantics end to end — a faulted batch fails its
//! riders once, typed, and the runtime never retries.
//!
//! One worker makes every chaos schedule deterministic: batch and tick
//! ordinals advance one at a time, so each test pins exactly which
//! execution faults and what the caller must see. The soak at the end
//! runs every fault at once through two workers and two models.

#![cfg(feature = "chaos")]

use std::sync::Arc;

use shenjing_core::{ArchSpec, Error, W5};
use shenjing_nn::Tensor;
use shenjing_runtime::chaos::{compile_damaged, ChaosConfig, Fault};
use shenjing_runtime::{
    CompiledModel, InferenceRequest, ModelRegistry, Runtime, RuntimeConfig, RuntimeStats,
    ServeOptions,
};
use shenjing_sim::OracleSim;
use shenjing_snn::{SnnLayer, SnnNetwork, SnnOutput, SpikingDense};

fn snn() -> SnnNetwork {
    let weights: Vec<W5> = (0..12 * 3).map(|i| W5::saturating(i % 11 - 5)).collect();
    SnnNetwork::new(vec![SnnLayer::Dense(SpikingDense::new(weights, 12, 3, 4, 1.0).unwrap())])
        .unwrap()
}

fn model() -> CompiledModel {
    CompiledModel::compile(&ArchSpec::tiny(), &snn()).unwrap()
}

fn frame(seed: usize) -> Tensor {
    Tensor::from_vec(vec![12], (0..12).map(|i| ((i + seed) % 4) as f64 / 3.0).collect()).unwrap()
}

/// An 8-input, 2-output second model for mixed traffic.
fn model_b() -> CompiledModel {
    let weights: Vec<W5> = (0..8 * 2).map(|i| W5::saturating(i % 7 - 3)).collect();
    let snn =
        SnnNetwork::new(vec![SnnLayer::Dense(SpikingDense::new(weights, 8, 2, 3, 1.0).unwrap())])
            .unwrap();
    CompiledModel::compile(&ArchSpec::tiny(), &snn).unwrap()
}

fn frame_b(seed: usize) -> Tensor {
    Tensor::from_vec(vec![8], (0..8).map(|i| ((i + seed) % 3) as f64 / 2.0).collect()).unwrap()
}

/// Σ of the samples of `family` in `metrics` whose labels include
/// `label` (`""` = every sample): what a stats field must equal, read
/// back out of the exposition text.
fn metric(metrics: &str, family: &str, label: &str) -> u64 {
    metrics
        .lines()
        .filter(|l| l.starts_with(&format!("{family}{{")) && l.contains(label))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum()
}

/// The fault-tolerance fields of a final snapshot against the metrics
/// text of the same (quiescent) runtime: one store, so they must agree.
fn assert_fault_stats_match(stats: &RuntimeStats, metrics: &str) {
    assert_eq!(stats.failed, metric(metrics, "shenjing_requests_failed_total", ""));
    assert_eq!(stats.retries, 0, "the runtime never retries");
    assert_eq!(stats.quarantines, metric(metrics, "shenjing_replica_quarantines_total", ""));
    assert_eq!(stats.worker_restarts, metric(metrics, "shenjing_worker_restarts_total", ""));
    for w in &stats.workers {
        let label = format!("worker=\"{}\"", w.worker);
        assert_eq!(w.restarts, metric(metrics, "shenjing_worker_restarts_total", &label));
        assert_eq!(w.quarantines, metric(metrics, "shenjing_replica_quarantines_total", &label));
        assert_eq!(u64::from(w.healthy), metric(metrics, "shenjing_worker_healthy", &label));
    }
}

/// A single-worker, 4-lane runtime with the given chaos schedule.
fn chaotic(chaos: ChaosConfig) -> Runtime {
    let registry = ModelRegistry::new().with_model("m", model(), ServeOptions::default()).unwrap();
    let config = RuntimeConfig::builder().workers(1).max_batch(4).chaos(chaos).build().unwrap();
    Runtime::serve(registry, config).unwrap()
}

/// Whether `e` is the replica fault of the panic injected at `batch`.
fn is_fault_of_batch(e: &Error, batch: u64) -> bool {
    matches!(e, Error::ReplicaFault { worker: 0, reason }
        if reason.ends_with(&format!("injected panic at batch {batch}")))
}

#[test]
fn panic_without_budget_fails_only_that_batch_typed() {
    // The contract: batch 1 panics with four riders aboard. Each rider is
    // answered once with the typed replica fault, the replica is rebuilt
    // once, and the next batch on the rebuilt replica is bit-exact.
    let model = model();
    let mut oracle = OracleSim::from_decoded(Arc::clone(model.program())).unwrap();
    let runtime = chaotic(ChaosConfig::default().with_panic_on_batches([1u64]));
    let timesteps = RuntimeConfig::default().timesteps;
    // `infer_many` admits each burst under one lock with one wake-up, so
    // the only worker sees all four at once: one batch of four. It
    // returns the first rider's verdict.
    let burst = |seeds: std::ops::Range<usize>| -> Vec<InferenceRequest> {
        seeds.map(|seed| InferenceRequest::new("m", frame(seed))).collect()
    };
    let err = runtime.infer_many(&burst(0..4)).unwrap_err();
    assert!(is_fault_of_batch(&err, 1), "the panic's payload names the batch: {err:?}");
    assert!(err.is_retryable(), "a replica fault is infrastructure, not the request's fault");
    let next = burst(4..8);
    for (request, reply) in next.iter().zip(runtime.infer_many(&next).unwrap()) {
        assert_eq!(reply.batch_size, 4);
        assert_eq!(reply.output, oracle.run_frame(&request.input, timesteps).unwrap());
    }
    // The worker finished batch 1 before it formed batch 2, so the count
    // is final: two batches of four, four riders failed — `fail` books
    // and sends one reply per call — and none went back to the queue.
    let stats = runtime.stats();
    assert_eq!(stats.occupancy_histogram, vec![0, 0, 0, 0, 2]);
    assert_eq!((stats.completed, stats.failed, stats.queue_depth), (4, 4, 0));
    let metrics = runtime.metrics_text();
    assert!(
        metrics.contains("shenjing_replica_quarantines_total{model=\"m\",worker=\"0\"} 1"),
        "quarantine family must render: {metrics}"
    );
    let stats = runtime.shutdown().unwrap();
    assert_fault_stats_match(&stats, &metrics);
    assert_eq!(stats.quarantines, 1);
    // `serve` built the first replica, so the quarantine rebuild is the
    // model's only cold start.
    assert_eq!(stats.models[0].stats.cold_starts, 1);
    assert!(stats.workers[0].healthy);
}

#[test]
fn worker_kill_mid_load_loses_no_replies() {
    // The acceptance drill: a worker thread dies mid-load (tick 2) and a
    // replica panics a little later (batch 3). Each of the 16 requests
    // gets exactly one terminal reply: the panicked batch's riders a
    // replica fault, everyone else their output — and the kill, which
    // lands between batches, loses no one.
    let runtime = chaotic(
        ChaosConfig::default().with_kill_worker_on_ticks([2u64]).with_panic_on_batches([3u64]),
    );
    let pending: Vec<_> = (0..16)
        .map(|seed| runtime.submit(InferenceRequest::new("m", frame(seed))).unwrap())
        .collect();
    let mut faulted = 0u64;
    for reply in pending {
        if let Err(e) = reply.wait() {
            assert!(is_fault_of_batch(&e, 3), "only batch 3's riders fail, typed: {e:?}");
            faulted += 1;
        }
    }
    // How many rode batch 3 depends on arrival timing; a batch holds at
    // most four.
    assert!((1..=4).contains(&faulted), "{faulted} riders failed");
    let metrics = runtime.metrics_text();
    assert!(metrics.contains("shenjing_worker_restarts_total{worker=\"0\"} 1"), "{metrics}");
    let stats = runtime.shutdown().unwrap();
    assert_fault_stats_match(&stats, &metrics);
    assert_eq!((stats.completed, stats.failed), (16 - faulted, faulted));
    assert_eq!(stats.quarantines, 1, "one faulted batch, one rebuild");
    assert_eq!(stats.worker_restarts, 1);
    assert_eq!(stats.cold_starts, 2, "the quarantine's rebuild and the restart's");
    assert_eq!(stats.workers[0].restarts, 1);
    assert!(stats.workers[0].healthy, "a restarted worker is healthy again");
}

#[test]
fn crash_looping_worker_is_abandoned_and_reported() {
    // Every restart dies on its first tick; past the restart budget the
    // shard gives up, fails whatever is queued with the typed loss, and
    // shutdown names the dead worker.
    let ticks: Vec<u64> = (1..=20).collect();
    let runtime = chaotic(ChaosConfig::default().with_kill_worker_on_ticks(ticks));
    let pending = runtime.submit(InferenceRequest::new("m", frame(0))).unwrap();
    let err = pending.wait().unwrap_err();
    assert!(
        matches!(err, Error::WorkerLost { .. }),
        "orphaned requests fail typed, they never hang: {err:?}"
    );
    match runtime.shutdown() {
        Err(Error::WorkerLost { worker }) => assert_eq!(worker, Some(0)),
        other => panic!("shutdown must report the abandoned worker, got {other:?}"),
    }
}

#[test]
fn batch_means_count_only_frames_that_rode_a_pass() {
    // One batch of four runs; tick 2 kills the worker, every restart
    // dies too, and the last worker fails the four still queued with
    // `WorkerLost`. Those four never rode a pass, so the occupancy and
    // density means are over the four that did.
    let ticks: Vec<u64> = (2..=40).collect();
    let runtime = chaotic(ChaosConfig::default().with_kill_worker_on_ticks(ticks));
    let burst: Vec<InferenceRequest> =
        (0..8).map(|seed| InferenceRequest::new("m", frame(seed))).collect();
    let err = runtime.infer_many(&burst).unwrap_err();
    assert!(matches!(err, Error::WorkerLost { .. }), "{err:?}");
    // The dying worker fails the orphans under the queue lock, so once a
    // submit gets that lock every orphan is booked.
    let refused = runtime.submit(InferenceRequest::new("m", frame(0))).map(|_| ()).unwrap_err();
    assert!(refused.reject_reason().is_some(), "{refused:?}");
    let stats = runtime.stats();
    assert_eq!((stats.completed, stats.failed, stats.batches), (4, 4, 1));
    assert_eq!(stats.occupancy_histogram, vec![0, 0, 0, 0, 1]);
    assert!((stats.mean_batch_occupancy - 4.0).abs() < 1e-12, "{}", stats.mean_batch_occupancy);
    // Every `frame(seed)` averages 0.5.
    assert!((stats.mean_input_density - 0.5).abs() < 1e-6, "{}", stats.mean_input_density);
    assert!(matches!(runtime.shutdown(), Err(Error::WorkerLost { worker: Some(0) })));
}

#[test]
fn damaged_weights_change_what_the_replica_computes() {
    let arch = ArchSpec::tiny();
    let network = snn();
    let healthy = CompiledModel::compile(&arch, &network).unwrap();
    let damaged =
        compile_damaged(&arch, &network, Fault::PerturbThreshold { index: 0, delta: -3 }).unwrap();
    let mut healthy_sim = healthy.instantiate().unwrap();
    let mut damaged_sim = damaged.instantiate().unwrap();
    // Binary probes (rate-coded 1.0 spikes every step) drive the
    // perturbed-threshold neuron deterministically.
    let diverged = (0..4).any(|seed| {
        let probe = Tensor::from_vec(
            vec![12],
            (0..12).map(|i| f64::from(u8::from((i + seed) % 3 == 0))).collect(),
        )
        .unwrap();
        let h = healthy_sim.run_frame(&probe, 8).unwrap();
        let d = damaged_sim.run_frame(&probe, 8).unwrap();
        h != d
    });
    assert!(diverged, "a -3 threshold upset must change some probe's output");
}

#[test]
fn soak_through_every_fault_answers_each_request_once_and_exactly() {
    // Two workers, two models, 5 000 requests; every 13th pass panics and
    // two worker loops die between batches.
    const T: u32 = 4;
    const FRAMES: usize = 32;
    const WAVE: usize = 250;
    const WAVES: usize = 20;
    let models = [model(), model_b()];
    let frames: [Vec<Tensor>; 2] =
        [(0..FRAMES).map(frame).collect(), (0..FRAMES).map(frame_b).collect()];
    let want: Vec<Vec<SnnOutput>> = models
        .iter()
        .zip(&frames)
        .map(|(m, frames)| {
            let mut oracle = OracleSim::from_decoded(Arc::clone(m.program())).unwrap();
            frames.iter().map(|f| oracle.run_frame(f, T).unwrap()).collect()
        })
        .collect();
    let [a, b] = models;
    let registry = ModelRegistry::new()
        .with_model("a", a, ServeOptions::default())
        .unwrap()
        .with_model("b", b, ServeOptions::default())
        .unwrap();
    let chaos = ChaosConfig::default().with_panic_every(13).with_kill_worker_on_ticks([25u64, 400]);
    let config = RuntimeConfig::builder()
        .workers(2)
        .max_batch(8)
        .timesteps(T)
        .queue_depth(WAVE)
        .chaos(chaos)
        .build()
        .unwrap();
    let runtime = Runtime::serve(registry, config).unwrap();
    let (mut completed, mut failed) = (0u64, 0u64);
    for wave in 0..WAVES {
        let pending: Vec<_> = (wave * WAVE..(wave + 1) * WAVE)
            .map(|n| {
                let (m, f) = (n % 2, n / 2 % FRAMES);
                let request = InferenceRequest::new(["a", "b"][m], frames[m][f].clone());
                (m, f, runtime.submit(request).unwrap())
            })
            .collect();
        for (m, f, reply) in pending {
            match reply.wait() {
                Ok(reply) => {
                    assert_eq!(reply.output, want[m][f], "model {m} frame {f} vs the oracle");
                    completed += 1;
                }
                Err(e) => {
                    let typed = matches!(&e, Error::ReplicaFault { reason, .. }
                        if reason.contains("injected panic"));
                    assert!(typed, "only an injected panic fails a request: {e:?}");
                    failed += 1;
                }
            }
        }
    }
    let metrics = runtime.metrics_text();
    let stats = runtime.shutdown().unwrap();
    assert_fault_stats_match(&stats, &metrics);
    assert_eq!(completed + failed, (WAVE * WAVES) as u64, "one terminal outcome per request");
    assert_eq!((stats.completed, stats.failed), (completed, failed), "each booked exactly once");
    assert_eq!(stats.queue_depth, 0);
    assert!(stats.models.iter().all(|m| m.stats.queue_depth == 0));
    assert!(metrics
        .lines()
        .filter(|l| l.starts_with("shenjing_queue_depth{"))
        .all(|l| l.ends_with(" 0")));
    assert_eq!(stats.worker_restarts, 2, "both kills healed in place");
    assert!(stats.workers.iter().all(|w| w.healthy));
    // Every faulted batch was rebuilt once and failed at most a batch of
    // riders.
    assert!(stats.quarantines > 0, "{stats:?}");
    // A quarantine rebuilds one replica, a restart both models'.
    assert_eq!(stats.cold_starts, stats.quarantines + 2 * 2, "{stats:?}");
    assert!((stats.quarantines..=stats.quarantines * 8).contains(&failed), "{stats:?}");
}
