//! Serving statistics: per-request latency and aggregate throughput,
//! with latency percentiles, a batch-occupancy histogram, admission
//! verdicts, and per-model views so the multi-model serving tier is
//! observable end to end.
//!
//! Every number lives in the runtime's telemetry `Registry` and
//! nowhere else: `ModelMetrics` and `WorkerMetrics` are the handle
//! sets the workers bump (each family's one definition site), and
//! [`RuntimeStats`] / [`ModelStats`] / [`WorkerHealth`] are views read
//! off those same atomics — so a snapshot and
//! [`Runtime::metrics_text`](crate::Runtime::metrics_text) cannot
//! disagree. Percentiles come from the duration histograms and are good
//! to one bucket: at most 12.5 % above the exact nearest-rank value.

use std::sync::Arc;
use std::time::Duration;

use shenjing_telemetry::{series, Counter, Gauge, Registry, TimeHistogram};

/// Fixed-point scale of `shenjing_input_density_micro_total`: a batch
/// adds `density × frames` in millionths.
const DENSITY_SCALE: f64 = 1e6;

/// The `shenjing_requests_rejected_total` counter for one verdict:
/// `{model=, reason=}` for a registered model, `{reason=}` alone for the
/// one verdict no model owns (`unknown_model`).
pub(crate) fn rejected(registry: &Registry, model: Option<&str>, reason: &str) -> Arc<Counter> {
    let labels: Vec<_> =
        model.map(|id| ("model", id)).into_iter().chain([("reason", reason)]).collect();
    registry.counter(&series("shenjing_requests_rejected_total", &labels))
}

/// One registered model's instruments, all labelled `{model=}`.
pub(crate) struct ModelMetrics {
    /// Requests answered successfully / with an error.
    pub completed: Arc<Counter>,
    pub failed: Arc<Counter>,
    /// Admission verdicts: queue at its depth bound, deadline already
    /// spent on arrival, deadline passed while queued.
    pub rejected_queue_full: Arc<Counter>,
    pub rejected_deadline: Arc<Counter>,
    pub expired_in_queue: Arc<Counter>,
    /// Replicas rebuilt after startup: a quarantine rebuilds one, a
    /// worker restart every model's.
    pub cold_starts: Arc<Counter>,
    /// Replica teardown-and-rebuilds, one counter per worker shard
    /// (`{worker=}`): the model's view sums over workers, a worker's
    /// over models.
    pub quarantines: Vec<Arc<Counter>>,
    /// Wall-clock the workers spent executing this model's batches.
    pub busy_ns: Arc<Counter>,
    /// Σ observed input density × frames, in millionths.
    pub density_micro: Arc<Counter>,
    /// `batches[n - 1]` = executed batches that carried `n` frames
    /// (`{frames=}`), `n` in `1..=max_batch`.
    pub batches: Vec<Arc<Counter>>,
    /// Requests of this model queued right now.
    pub queue_depth: Arc<Gauge>,
    /// Successful requests' enqueue→batch-formed, batch-formed→answered
    /// and enqueue→answered times. Queue wait and service partition the
    /// end-to-end latency, so a fat p99 points at the queue or at the
    /// engine, not at both.
    pub queue_wait: Arc<TimeHistogram>,
    pub service: Arc<TimeHistogram>,
    pub e2e: Arc<TimeHistogram>,
}

impl ModelMetrics {
    pub(crate) fn new(registry: &Registry, id: &str, workers: usize, max_batch: usize) -> Self {
        let name = |family: &str| series(family, &[("model", id)]);
        ModelMetrics {
            completed: registry.counter(&name("shenjing_requests_completed_total")),
            failed: registry.counter(&name("shenjing_requests_failed_total")),
            rejected_queue_full: rejected(registry, Some(id), "queue_full"),
            rejected_deadline: rejected(registry, Some(id), "deadline"),
            expired_in_queue: rejected(registry, Some(id), "expired_in_queue"),
            cold_starts: registry.counter(&name("shenjing_cold_starts_total")),
            quarantines: (0..workers)
                .map(|w| {
                    registry.counter(&series(
                        "shenjing_replica_quarantines_total",
                        &[("model", id), ("worker", &w.to_string())],
                    ))
                })
                .collect(),
            busy_ns: registry.counter(&name("shenjing_busy_ns_total")),
            density_micro: registry.counter(&name("shenjing_input_density_micro_total")),
            batches: (1..=max_batch)
                .map(|n| {
                    registry.counter(&series(
                        "shenjing_batches_total",
                        &[("model", id), ("frames", &n.to_string())],
                    ))
                })
                .collect(),
            queue_depth: registry.gauge(&name("shenjing_queue_depth")),
            queue_wait: registry.histogram(&name("shenjing_queue_wait_duration_seconds")),
            service: registry.histogram(&name("shenjing_service_duration_seconds")),
            e2e: registry.histogram(&name("shenjing_request_duration_seconds")),
        }
    }

    /// Books one executed batch of `frames` frames: its occupancy, the
    /// wall-clock it kept the worker busy, and its input density.
    pub(crate) fn record_batch(&self, frames: usize, busy: Duration, density: f64) {
        self.batches[frames - 1].inc();
        self.busy_ns.add(u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX));
        self.density_micro.add((density * frames as f64 * DENSITY_SCALE).round() as u64);
    }
}

/// One worker shard's instruments, all labelled `{worker=}`.
pub(crate) struct WorkerMetrics {
    /// Times the shard restarted its loop after a panic escaped it.
    pub restarts: Arc<Counter>,
    /// 1 while the shard serves (or stopped cleanly), 0 once it
    /// exhausted its restart budget and gave up.
    pub healthy: Arc<Gauge>,
}

impl WorkerMetrics {
    pub(crate) fn new(registry: &Registry, worker: usize) -> WorkerMetrics {
        let worker = worker.to_string();
        let name = |family: &str| series(family, &[("worker", &worker)]);
        let healthy = registry.gauge(&name("shenjing_worker_healthy"));
        healthy.set(1);
        WorkerMetrics {
            restarts: registry.counter(&name("shenjing_worker_restarts_total")),
            healthy,
        }
    }
}

/// A snapshot of the runtime's aggregate serving statistics.
#[derive(Debug, Clone, Default)]
pub struct RuntimeStats {
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with an error.
    pub failed: u64,
    /// Batches executed.
    pub batches: u64,
    /// Batches that ran at the configured maximum size.
    pub full_batches: u64,
    /// Mean frames per executed batch (the batching policy's efficiency).
    pub mean_batch_occupancy: f64,
    /// Batch-occupancy histogram: `occupancy_histogram[n]` = batches that
    /// carried exactly `n` frames (index 0 unused; the vector spans
    /// `0..=max_batch` once any batch has run). With occupancy-bound
    /// batched execution, this is the distribution of what under-full
    /// passes actually cost.
    pub occupancy_histogram: Vec<u64>,
    /// Mean enqueue→reply latency of successful requests.
    pub mean_latency: Duration,
    /// Median enqueue→reply latency of successful requests.
    pub p50_latency: Duration,
    /// 95th-percentile enqueue→reply latency of successful requests.
    pub p95_latency: Duration,
    /// 99th-percentile enqueue→reply latency of successful requests.
    pub p99_latency: Duration,
    /// Worst observed enqueue→reply latency.
    pub max_latency: Duration,
    /// Median queue-wait (enqueue→batch-formed) of successful requests.
    /// Queue wait and service partition the end-to-end latency: a fat
    /// tail here blames admission/scheduling, not the engines.
    pub p50_queue_wait: Duration,
    /// 95th-percentile queue-wait of successful requests.
    pub p95_queue_wait: Duration,
    /// 99th-percentile queue-wait of successful requests.
    pub p99_queue_wait: Duration,
    /// Median service time (batch-formed→answered) of successful
    /// requests — what the plan → execute → drain lifecycle cost them.
    pub p50_service: Duration,
    /// 95th-percentile service time of successful requests.
    pub p95_service: Duration,
    /// 99th-percentile service time of successful requests.
    pub p99_service: Duration,
    /// Requests sitting in the queue at snapshot time (a point-in-time
    /// gauge, not a counter).
    pub queue_depth: u64,
    /// Mean observed input activity density per frame (the fraction of
    /// input axons expected to spike each timestep under rate coding).
    pub mean_input_density: f64,
    /// Total wall-clock the workers spent executing batches (summed over
    /// workers, so it can exceed `elapsed`).
    pub busy_time: Duration,
    /// Wall-clock since the runtime started.
    pub elapsed: Duration,
    /// Successful frames per second of wall-clock since start.
    pub frames_per_sec: f64,
    /// Requests refused at admission: queue at its depth bound.
    pub rejected_queue_full: u64,
    /// Requests refused at admission: deadline already spent on arrival.
    pub rejected_deadline: u64,
    /// Admitted requests dropped when their deadline passed in the queue
    /// (no lane was occupied for them).
    pub expired_in_queue: u64,
    /// Requests naming an unregistered model id (aggregate view only).
    pub rejected_unknown_model: u64,
    /// Replicas rebuilt after startup (quarantines and worker restarts);
    /// every replica a runtime starts with is built in
    /// [`Runtime::serve`](crate::Runtime::serve).
    pub cold_starts: u64,
    /// Always 0: the runtime never re-executes a request (a faulted
    /// batch fails its riders once). Kept only because the repository
    /// benchmark still reports it.
    pub retries: u64,
    /// Replica teardown-and-rebuilds, one per faulted batch.
    pub quarantines: u64,
    /// Worker loops restarted after a panic escaped them (aggregate
    /// view only; per-worker detail is in [`workers`]).
    ///
    /// [`workers`]: RuntimeStats::workers
    pub worker_restarts: u64,
    /// Per-worker health, indexed by shard id (aggregate view only;
    /// empty in per-model views).
    pub workers: Vec<WorkerHealth>,
    /// Per-model statistics, in registration order. Empty in the
    /// per-model views themselves (the nesting is one level deep).
    pub models: Vec<ModelStats>,
}

/// One worker shard's health, inside [`RuntimeStats::workers`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerHealth {
    /// The shard id (its index in the worker pool).
    pub worker: usize,
    /// Times this worker restarted its loop after a panic escaped it.
    pub restarts: u64,
    /// Replicas this worker tore down and rebuilt — one per batch it
    /// lost to a replica fault.
    pub quarantines: u64,
    /// `false` once the shard exhausted its restart budget and gave up;
    /// `true` for a serving or cleanly-stopped one.
    pub healthy: bool,
}

/// One registered model's serving statistics, inside
/// [`RuntimeStats::models`].
#[derive(Debug, Clone, Default)]
pub struct ModelStats {
    /// The model's registered id.
    pub id: String,
    /// The model's own counters, percentiles and occupancy histogram
    /// (its `models` field is empty).
    pub stats: RuntimeStats,
}

/// The raw sums a view is computed from: one model's instruments, or the
/// fold over every model's.
#[derive(Default)]
struct Tally {
    completed: u64,
    failed: u64,
    rejected_queue_full: u64,
    rejected_deadline: u64,
    expired_in_queue: u64,
    cold_starts: u64,
    quarantines: u64,
    busy_ns: u64,
    density_micro: u64,
    batches: Vec<u64>,
    queue_depth: i64,
    queue_wait: TimeHistogram,
    service: TimeHistogram,
    e2e: TimeHistogram,
}

impl Tally {
    fn add(&mut self, m: &ModelMetrics) {
        self.completed += m.completed.get();
        self.failed += m.failed.get();
        self.rejected_queue_full += m.rejected_queue_full.get();
        self.rejected_deadline += m.rejected_deadline.get();
        self.expired_in_queue += m.expired_in_queue.get();
        self.cold_starts += m.cold_starts.get();
        self.quarantines += m.quarantines.iter().map(|c| c.get()).sum::<u64>();
        self.busy_ns += m.busy_ns.get();
        self.density_micro += m.density_micro.get();
        self.batches.resize(self.batches.len().max(m.batches.len()), 0);
        for (sum, counter) in self.batches.iter_mut().zip(&m.batches) {
            *sum += counter.get();
        }
        self.queue_depth += m.queue_depth.get();
        self.queue_wait.merge_from(&m.queue_wait);
        self.service.merge_from(&m.service);
        self.e2e.merge_from(&m.e2e);
    }

    fn view(&self, elapsed: Duration) -> RuntimeStats {
        let batches: u64 = self.batches.iter().sum();
        // Frames that rode a pass, read off the occupancy histogram:
        // `failed` also counts requests that never reached one (the
        // queue a dying last worker fails with `WorkerLost`).
        let frames: u64 = (1..).zip(&self.batches).map(|(n, b)| n * b).sum();
        let per = |sum: f64, n: u64| if n == 0 { 0.0 } else { sum / n as f64 };
        let quantiles = |h: &TimeHistogram| [0.50, 0.95, 0.99].map(|q| h.quantile(q));
        // Quantiles before the max: a sample landing in between can only
        // raise the max, so p99 ≤ max holds on a live runtime too.
        let [p50_latency, p95_latency, p99_latency] = quantiles(&self.e2e);
        let [p50_queue_wait, p95_queue_wait, p99_queue_wait] = quantiles(&self.queue_wait);
        let [p50_service, p95_service, p99_service] = quantiles(&self.service);
        RuntimeStats {
            completed: self.completed,
            failed: self.failed,
            batches,
            full_batches: self.batches.last().copied().unwrap_or(0),
            mean_batch_occupancy: per(frames as f64, batches),
            occupancy_histogram: if batches == 0 {
                Vec::new()
            } else {
                std::iter::once(0).chain(self.batches.iter().copied()).collect()
            },
            mean_latency: Duration::from_nanos(
                self.e2e.sum_ns().checked_div(self.e2e.count()).unwrap_or(0),
            ),
            p50_latency,
            p95_latency,
            p99_latency,
            max_latency: Duration::from_nanos(self.e2e.max_ns()),
            p50_queue_wait,
            p95_queue_wait,
            p99_queue_wait,
            p50_service,
            p95_service,
            p99_service,
            queue_depth: u64::try_from(self.queue_depth).unwrap_or(0),
            mean_input_density: per(self.density_micro as f64 / DENSITY_SCALE, frames),
            busy_time: Duration::from_nanos(self.busy_ns),
            elapsed,
            frames_per_sec: if elapsed.is_zero() {
                0.0
            } else {
                self.completed as f64 / elapsed.as_secs_f64()
            },
            rejected_queue_full: self.rejected_queue_full,
            rejected_deadline: self.rejected_deadline,
            expired_in_queue: self.expired_in_queue,
            rejected_unknown_model: 0,
            cold_starts: self.cold_starts,
            retries: 0,
            quarantines: self.quarantines,
            worker_restarts: 0,
            workers: Vec::new(),
            models: Vec::new(),
        }
    }
}

impl RuntimeStats {
    /// One model's view, read off its instruments.
    pub(crate) fn of_model(model: &ModelMetrics, elapsed: Duration) -> RuntimeStats {
        let mut tally = Tally::default();
        tally.add(model);
        tally.view(elapsed)
    }

    /// The aggregate view: the fold over every model plus the one
    /// verdict no model owns, with the per-model and per-worker views
    /// nested inside.
    pub(crate) fn of_runtime<'a>(
        models: impl Iterator<Item = (&'a str, &'a ModelMetrics)> + Clone,
        workers: &[WorkerMetrics],
        unknown_model: &Counter,
        elapsed: Duration,
    ) -> RuntimeStats {
        let mut tally = Tally::default();
        models.clone().for_each(|(_, m)| tally.add(m));
        let mut stats = tally.view(elapsed);
        stats.rejected_unknown_model = unknown_model.get();
        stats.workers = workers
            .iter()
            .enumerate()
            .map(|(worker, w)| WorkerHealth {
                worker,
                restarts: w.restarts.get(),
                quarantines: models.clone().map(|(_, m)| m.quarantines[worker].get()).sum(),
                healthy: w.healthy.get() != 0,
            })
            .collect();
        stats.worker_restarts = stats.workers.iter().map(|w| w.restarts).sum();
        stats.models = models
            .map(|(id, m)| ModelStats {
                id: id.to_string(),
                stats: RuntimeStats::of_model(m, elapsed),
            })
            .collect();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_histogram_counts_by_frames() {
        let registry = Registry::new();
        let m = ModelMetrics::new(&registry, "m", 1, 4);
        assert!(RuntimeStats::of_model(&m, Duration::from_secs(1)).occupancy_histogram.is_empty());
        for frames in [1, 4, 4, 2] {
            m.record_batch(frames, Duration::from_micros(10), 0.5);
        }
        let stats = RuntimeStats::of_model(&m, Duration::from_secs(1));
        assert_eq!(stats.occupancy_histogram, vec![0, 1, 1, 0, 2]);
        assert_eq!((stats.batches, stats.full_batches), (4, 2));
        assert_eq!(stats.busy_time, Duration::from_micros(40));
        assert!(registry.render().contains("shenjing_batches_total{model=\"m\",frames=\"4\"} 2"));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        // 1..=100 µs: the nearest-rank p50 / p95 / p99 are 50, 95 and
        // 99 µs, and each view field reads its own rank to one bucket.
        let registry = Registry::new();
        let m = ModelMetrics::new(&registry, "m", 1, 1);
        for us in 1..=100 {
            m.e2e.record(Duration::from_micros(us));
        }
        let stats = RuntimeStats::of_model(&m, Duration::from_secs(1));
        for (got, exact_us) in
            [(stats.p50_latency, 50), (stats.p95_latency, 95), (stats.p99_latency, 99)]
        {
            let exact = Duration::from_micros(exact_us);
            assert!(got >= exact && got - exact <= exact / 8, "{got:?} vs {exact:?}");
        }
        assert_eq!(stats.max_latency, Duration::from_micros(100));
    }

    #[test]
    fn snapshot_derives_percentiles_and_density() {
        let registry = Registry::new();
        let m = ModelMetrics::new(&registry, "m", 1, 4);
        m.record_batch(4, Duration::ZERO, 0.25);
        for ns in [400u64, 100, 300, 200] {
            m.completed.inc();
            m.e2e.record(Duration::from_nanos(ns));
            m.queue_wait.record(Duration::from_nanos(ns / 10));
            m.service.record(Duration::from_nanos(ns - ns / 10));
        }
        m.queue_depth.add(7);
        let stats = RuntimeStats::of_model(&m, Duration::from_secs(2));
        // Nearest rank, to the bucket: 200 ns sits in (192, 208], 180 ns
        // in (176, 192]; below 16 ns and at the max the value is exact.
        assert_eq!(stats.p50_latency, Duration::from_nanos(208));
        assert_eq!(stats.p99_latency, Duration::from_nanos(400));
        assert_eq!(stats.max_latency, Duration::from_nanos(400));
        assert_eq!(stats.mean_latency, Duration::from_nanos(250));
        assert_eq!(stats.p50_queue_wait, Duration::from_nanos(20));
        assert_eq!(stats.p99_queue_wait, Duration::from_nanos(40));
        assert_eq!(stats.p50_service, Duration::from_nanos(192));
        assert_eq!(stats.p99_service, Duration::from_nanos(360));
        assert_eq!(stats.queue_depth, 7);
        assert!((stats.mean_input_density - 0.25).abs() < 1e-6);
        assert!((stats.mean_batch_occupancy - 4.0).abs() < 1e-12);
        assert!((stats.frames_per_sec - 2.0).abs() < 1e-12);
    }

    #[test]
    fn worker_health_snapshot_maps_indices_and_abandonment() {
        let registry = Registry::new();
        let models =
            [ModelMetrics::new(&registry, "a", 2, 1), ModelMetrics::new(&registry, "b", 2, 1)];
        let workers = [WorkerMetrics::new(&registry, 0), WorkerMetrics::new(&registry, 1)];
        workers[1].restarts.add(3);
        workers[1].healthy.set(0);
        models[0].quarantines[1].inc();
        models[1].quarantines[1].inc();
        let unknown = rejected(&registry, None, "unknown_model");
        unknown.add(2);
        let stats = RuntimeStats::of_runtime(
            ["a", "b"].into_iter().zip(&models),
            &workers,
            &unknown,
            Duration::from_secs(1),
        );
        assert_eq!(
            (stats.worker_restarts, stats.quarantines, stats.rejected_unknown_model),
            (3, 2, 2)
        );
        assert_eq!(
            stats.workers,
            vec![
                WorkerHealth { worker: 0, healthy: true, ..Default::default() },
                WorkerHealth { worker: 1, restarts: 3, quarantines: 2, healthy: false },
            ]
        );
        // The views nest one level deep: a model's carries neither
        // worker detail nor the modelless verdict.
        assert_eq!(stats.models.iter().map(|m| m.id.as_str()).collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(stats.models[0].stats.quarantines, 1);
        assert!(stats.models[0].stats.workers.is_empty());
        let text = registry.render();
        assert!(text.contains("shenjing_requests_rejected_total{reason=\"unknown_model\"} 2"));
        assert!(text.contains("shenjing_worker_healthy{worker=\"1\"} 0"));
    }
}
