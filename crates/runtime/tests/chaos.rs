//! Deterministic fault-tolerance drills: scripted replica panics, batch
//! errors and worker kills against a single-worker runtime, asserting
//! the supervision / retry / quarantine semantics end to end.
//!
//! One worker makes every chaos schedule deterministic: batch and tick
//! ordinals advance one at a time, so each test pins exactly which
//! execution faults and what the caller must see.

#![cfg(feature = "chaos")]

use std::time::Duration;

use shenjing_core::{ArchSpec, Error, W5};
use shenjing_nn::Tensor;
use shenjing_runtime::chaos::{compile_damaged, ChaosConfig, Fault};
use shenjing_runtime::{
    CompiledModel, InferenceRequest, ModelRegistry, Runtime, RuntimeConfig, RuntimeStats,
    ServeOptions,
};
use shenjing_snn::{SnnLayer, SnnNetwork, SpikingDense};

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
    assert_eq!(stats.retries, metric(metrics, "shenjing_retries_total", ""));
    assert_eq!(stats.quarantines, metric(metrics, "shenjing_replica_quarantines_total", ""));
    assert_eq!(stats.worker_restarts, metric(metrics, "shenjing_worker_restarts_total", ""));
    for w in &stats.workers {
        let label = format!("worker=\"{}\"", w.worker);
        assert_eq!(w.restarts, metric(metrics, "shenjing_worker_restarts_total", &label));
        assert_eq!(w.replica_faults, metric(metrics, "shenjing_replica_faults_total", &label));
        assert_eq!(w.quarantines, metric(metrics, "shenjing_replica_quarantines_total", &label));
        assert_eq!(u64::from(w.healthy), metric(metrics, "shenjing_worker_healthy", &label));
    }
}

/// A single-worker runtime with the given chaos schedule and retry
/// policy.
fn chaotic(chaos: ChaosConfig, budget: u32, backoff: Duration) -> Runtime {
    let registry = ModelRegistry::new().with_model("m", model(), ServeOptions::default()).unwrap();
    let config = RuntimeConfig::builder()
        .workers(1)
        .max_batch(4)
        .retry_budget(budget)
        .retry_backoff(backoff)
        .chaos(chaos)
        .build()
        .unwrap();
    Runtime::serve(registry, config).unwrap()
}

#[test]
fn panic_without_budget_fails_only_that_batch_typed() {
    let runtime = chaotic(
        ChaosConfig::default().with_panic_on_batches([1u64]),
        0,
        Duration::from_micros(100),
    );
    // Batch 1 panics mid-execution; with no retry budget the rider sees
    // the typed replica fault naming the worker and the one attempt.
    let err = runtime.infer(InferenceRequest::new("m", frame(0))).unwrap_err();
    match &err {
        Error::ReplicaFault { worker, attempts, reason } => {
            assert_eq!(*worker, 0);
            assert_eq!(*attempts, 1);
            assert!(reason.contains("injected panic"), "reason carries the payload: {reason}");
        }
        other => panic!("expected ReplicaFault, got {other:?}"),
    }
    assert!(err.is_retryable(), "a replica fault is infrastructure, not the request's fault");
    // The panic quarantined the replica; the rebuilt one serves fine.
    let reply = runtime.infer(InferenceRequest::new("m", frame(1))).unwrap();
    assert_eq!(reply.attempts, 1);
    let metrics = runtime.metrics_text();
    assert!(
        metrics.contains("shenjing_replica_quarantines_total{model=\"m\",worker=\"0\"} 1"),
        "quarantine family must render: {metrics}"
    );
    let stats = runtime.shutdown().unwrap();
    assert_fault_stats_match(&stats, &metrics);
    assert_eq!(stats.quarantines, 1);
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 1);
    // The default warm pool pre-built the first replica, so the
    // quarantine rebuild is the model's only cold start.
    assert_eq!(stats.models[0].stats.cold_starts, 1);
}

#[test]
fn retried_request_succeeds_within_budget() {
    let runtime = chaotic(
        ChaosConfig::default().with_panic_on_batches([1u64]),
        2,
        Duration::from_micros(100),
    );
    // Batch 1 panics, the rider requeues with backoff, batch 2 serves.
    let reply = runtime.infer(InferenceRequest::new("m", frame(0))).unwrap();
    assert_eq!(reply.attempts, 2, "one faulted attempt plus the successful one");
    let metrics = runtime.metrics_text();
    assert!(
        metrics.contains("shenjing_retries_total{model=\"m\",reason=\"panic\"} 1"),
        "retry family must render with its reason label: {metrics}"
    );
    let stats = runtime.shutdown().unwrap();
    assert_fault_stats_match(&stats, &metrics);
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.quarantines, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0, "a retried-then-served request is not a failure");
    assert_eq!(stats.workers.len(), 1);
    assert_eq!(stats.workers[0].replica_faults, 1);
    assert!(stats.workers[0].healthy);
}

#[test]
fn error_streak_quarantines_and_then_retries() {
    let runtime = chaotic(
        ChaosConfig::default().with_error_on_batches([1u64, 2, 3]),
        2,
        Duration::from_micros(100),
    );
    // One-off batch errors pass through to their riders untyped as
    // replica faults — the input itself may be at fault.
    for seed in 0..2 {
        let err = runtime.infer(InferenceRequest::new("m", frame(seed))).unwrap_err();
        assert!(
            matches!(err, Error::InvalidControl { .. }),
            "below the streak threshold the original error surfaces: {err:?}"
        );
    }
    // The third consecutive all-error batch indicts the replica:
    // quarantine, rebuild, and retry the riders on the fresh replica.
    let reply = runtime.infer(InferenceRequest::new("m", frame(2))).unwrap();
    assert_eq!(reply.attempts, 2);
    let metrics = runtime.metrics_text();
    assert!(
        metrics.contains("shenjing_retries_total{model=\"m\",reason=\"quarantine\"} 1"),
        "{metrics}"
    );
    let stats = runtime.shutdown().unwrap();
    assert_fault_stats_match(&stats, &metrics);
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.quarantines, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 2);
}

#[test]
fn retries_never_exceed_the_budget() {
    let runtime =
        chaotic(ChaosConfig::default().with_panic_every(1), 2, Duration::from_micros(100));
    // Every execution panics: attempt 1 + 2 budgeted retries, then the
    // typed terminal fault reporting all three attempts.
    let err = runtime.infer(InferenceRequest::new("m", frame(0))).unwrap_err();
    match err {
        Error::ReplicaFault { attempts, .. } => assert_eq!(attempts, 3),
        other => panic!("expected ReplicaFault, got {other:?}"),
    }
    let stats = runtime.shutdown().unwrap();
    assert_eq!(stats.retries, 2, "exactly the budget, never more");
    assert_eq!(stats.quarantines, 3, "each panic quarantined the replica");
    assert_eq!(stats.failed, 1);
}

#[test]
fn deadline_clamps_the_retry_budget() {
    // The backoff nap (200ms) cannot land before the 50ms deadline, so
    // the fault is terminal immediately — reported as the replica fault
    // it was, not as a deadline expiry.
    let runtime = chaotic(
        ChaosConfig::default().with_panic_on_batches([1u64]),
        2,
        Duration::from_millis(200),
    );
    let request = InferenceRequest::new("m", frame(0)).with_deadline(Duration::from_millis(50));
    let err = runtime.infer(request).unwrap_err();
    match err {
        Error::ReplicaFault { attempts, .. } => assert_eq!(attempts, 1),
        other => panic!("expected ReplicaFault, got {other:?}"),
    }
    let stats = runtime.shutdown().unwrap();
    assert_eq!(stats.retries, 0, "no retry could have met the deadline");
}

#[test]
fn worker_kill_mid_load_loses_no_replies() {
    // The acceptance drill: a worker thread dies mid-load (tick 2) and a
    // replica panics a little later (batch 3); every one of the 16
    // requests must still complete — possibly after a retry — with zero
    // lost replies.
    let runtime = chaotic(
        ChaosConfig::default().with_kill_worker_on_ticks([2u64]).with_panic_on_batches([3u64]),
        3,
        Duration::from_micros(100),
    );
    let pending: Vec<_> = (0..16)
        .map(|seed| runtime.submit(InferenceRequest::new("m", frame(seed))).unwrap())
        .collect();
    let mut retried_replies = 0u32;
    for reply in pending {
        let reply = reply.wait().expect("every request completes despite the kill and the panic");
        assert!(reply.attempts >= 1);
        if reply.attempts > 1 {
            retried_replies += 1;
        }
    }
    assert!(retried_replies >= 1, "the panicked batch's riders were retried");
    let metrics = runtime.metrics_text();
    assert!(metrics.contains("shenjing_worker_restarts_total{worker=\"0\"} 1"), "{metrics}");
    // Retries count requests, not batches: every rider of the panicked
    // batch retried, and how many rode in it depends on arrival timing.
    assert!(metric(&metrics, "shenjing_retries_total", "reason=\"panic\"") >= 1, "{metrics}");
    let stats = runtime.shutdown().unwrap();
    assert_fault_stats_match(&stats, &metrics);
    assert_eq!(stats.completed, 16);
    assert_eq!(stats.failed, 0);
    assert!(stats.retries >= 1);
    assert_eq!(stats.worker_restarts, 1);
    assert_eq!(stats.workers[0].restarts, 1);
    assert!(stats.workers[0].healthy, "a respawned worker is healthy again");
}

#[test]
fn crash_looping_worker_is_abandoned_and_reported() {
    // Every respawn dies on its first tick; after the restart budget the
    // supervisor abandons the shard, fails whatever is queued with the
    // typed loss, and shutdown names the dead worker.
    let ticks: Vec<u64> = (1..=20).collect();
    let runtime = chaotic(
        ChaosConfig::default().with_kill_worker_on_ticks(ticks),
        0,
        Duration::from_micros(100),
    );
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
