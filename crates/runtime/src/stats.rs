//! Serving statistics: per-request latency and aggregate throughput,
//! with latency percentiles, a batch-occupancy histogram, admission
//! verdicts, and per-model views so the multi-model serving tier is
//! observable end to end.

use std::time::Duration;

/// Cap on each retained timing sample. Beyond it, reservoir sampling
/// keeps a uniform subset, bounding both the memory of a long-running
/// server and the clone-and-sort cost of every snapshot (taken under the
/// stats lock the workers share).
pub(crate) const LATENCY_SAMPLE_CAP: usize = 4096;

/// A bounded, uniform sample of nanosecond timings (Algorithm R: the
/// `k`-th observed value replaces a uniformly random slot with
/// probability `CAP / k`). The randomness is a SplitMix64 hash of the
/// sample count — deterministic for a given arrival order, no RNG state
/// to carry.
#[derive(Debug, Clone, Default)]
pub(crate) struct Reservoir {
    pub samples: Vec<u64>,
    /// Values observed so far (the reservoir's `k`).
    pub seen: u64,
}

impl Reservoir {
    /// Records one value into the bounded reservoir.
    pub(crate) fn record(&mut self, ns: u64) {
        self.seen += 1;
        if self.samples.len() < LATENCY_SAMPLE_CAP {
            self.samples.push(ns);
            return;
        }
        let mut z = self.seen.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let slot = (z % self.seen) as usize;
        if slot < LATENCY_SAMPLE_CAP {
            self.samples[slot] = ns;
        }
    }

    /// The retained sample, ascending — the form [`percentile`] wants.
    pub(crate) fn sorted(&self) -> Vec<u64> {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        sorted
    }
}

/// Mutable counters the workers update under the stats lock.
#[derive(Debug, Clone, Default)]
pub(crate) struct StatsInner {
    pub completed: u64,
    pub failed: u64,
    pub batches: u64,
    pub full_batches: u64,
    pub total_latency: Duration,
    pub max_latency: Duration,
    pub busy_time: Duration,
    /// Successful requests' end-to-end enqueue→reply latencies.
    pub latency: Reservoir,
    /// The queue-wait share of those latencies: enqueue→batch-formed,
    /// the time admission control and scheduling cost the request.
    pub queue_wait: Reservoir,
    /// The service share: batch-formed→answered, the time the engines
    /// cost it. Queue wait and service partition the end-to-end latency,
    /// so a fat p99 points at the queue or at the engines, not at both.
    pub service: Reservoir,
    /// Σ (observed input activity density × frames), over all batches —
    /// the rate-coded input's mean pixel value is the expected fraction
    /// of input axons spiking per timestep.
    pub density_weighted_sum: f64,
    /// `occupancy_counts[n]` = batches that carried `n` frames (index 0
    /// unused; sized `max_batch + 1` on first record).
    pub occupancy_counts: Vec<u64>,
    /// Requests refused at admission because the shared queue was at its
    /// configured depth bound.
    pub rejected_queue_full: u64,
    /// Requests refused at admission because their deadline budget was
    /// already spent (zero or negative on arrival).
    pub rejected_deadline: u64,
    /// Requests admitted but dropped from the queue when their deadline
    /// passed before a worker could serve them (failed fast, no lane
    /// occupied).
    pub expired_in_queue: u64,
    /// Requests naming a model id with no registration (aggregate only:
    /// there is no model to attribute them to).
    pub rejected_unknown_model: u64,
    /// Times a worker had to instantiate a replica on demand because the
    /// model's warm pool did not cover it.
    pub cold_starts: u64,
    /// Requests requeued for another execution after a replica fault
    /// (each requeue counts once, however many a single request needs).
    pub retries: u64,
    /// Replica teardown-and-rebuilds after a panic or a repeated error
    /// streak (each also counts a cold start for the rebuild).
    pub quarantines: u64,
}

/// Mutable per-worker health counters, updated under the stats lock by
/// the worker itself (faults, quarantines) and by the supervisor
/// (restarts, abandonment).
#[derive(Debug, Clone, Default)]
pub(crate) struct WorkerHealthInner {
    pub restarts: u64,
    pub replica_faults: u64,
    pub quarantines: u64,
    pub gave_up: bool,
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
    /// On-demand replica instantiations outside the warm pools.
    pub cold_starts: u64,
    /// Requests requeued for another execution after a replica fault.
    pub retries: u64,
    /// Replica teardown-and-rebuilds after a panic or error streak.
    pub quarantines: u64,
    /// Worker threads the supervisor respawned after they died
    /// (aggregate view only; per-worker detail is in [`workers`]).
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
    /// Times the supervisor respawned this worker after its thread died.
    pub restarts: u64,
    /// Batches this worker lost to replica faults (panics or quarantine
    /// trips); the requests themselves were retried or failed typed.
    pub replica_faults: u64,
    /// Replicas this worker tore down and rebuilt.
    pub quarantines: u64,
    /// `false` once the supervisor exhausted the restart budget and
    /// abandoned the shard; `true` for a serving or cleanly-stopped one.
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

impl StatsInner {
    /// Records one successful request's timing split into the three
    /// bounded reservoirs: end-to-end latency, its queue-wait share, and
    /// its service share.
    pub(crate) fn record_latency(&mut self, latency_ns: u64, queue_wait_ns: u64, service_ns: u64) {
        self.latency.record(latency_ns);
        self.queue_wait.record(queue_wait_ns);
        self.service.record(service_ns);
    }

    /// Counts one executed batch of `frames` frames into the occupancy
    /// histogram (lazily sized to `max_batch + 1` slots).
    pub(crate) fn record_occupancy(&mut self, frames: usize, max_batch: usize) {
        if self.occupancy_counts.len() <= max_batch.max(frames) {
            self.occupancy_counts.resize(max_batch.max(frames) + 1, 0);
        }
        self.occupancy_counts[frames] += 1;
    }
}

/// The `q`-quantile (0..=1) of an ascending-sorted latency sample, by
/// the nearest-rank method. Zero for an empty sample.
fn percentile(sorted_ns: &[u64], q: f64) -> Duration {
    if sorted_ns.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((q * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    Duration::from_nanos(sorted_ns[rank - 1])
}

impl RuntimeStats {
    pub(crate) fn snapshot(
        inner: &StatsInner,
        elapsed: Duration,
        queue_depth: u64,
    ) -> RuntimeStats {
        let done = inner.completed + inner.failed;
        let sorted = inner.latency.sorted();
        let sorted_wait = inner.queue_wait.sorted();
        let sorted_service = inner.service.sorted();
        RuntimeStats {
            completed: inner.completed,
            failed: inner.failed,
            batches: inner.batches,
            full_batches: inner.full_batches,
            mean_batch_occupancy: if inner.batches == 0 {
                0.0
            } else {
                done as f64 / inner.batches as f64
            },
            occupancy_histogram: inner.occupancy_counts.clone(),
            mean_latency: if inner.completed == 0 {
                Duration::ZERO
            } else {
                inner.total_latency / u32::try_from(inner.completed).unwrap_or(u32::MAX)
            },
            p50_latency: percentile(&sorted, 0.50),
            p95_latency: percentile(&sorted, 0.95),
            p99_latency: percentile(&sorted, 0.99),
            max_latency: inner.max_latency,
            p50_queue_wait: percentile(&sorted_wait, 0.50),
            p95_queue_wait: percentile(&sorted_wait, 0.95),
            p99_queue_wait: percentile(&sorted_wait, 0.99),
            p50_service: percentile(&sorted_service, 0.50),
            p95_service: percentile(&sorted_service, 0.95),
            p99_service: percentile(&sorted_service, 0.99),
            queue_depth,
            mean_input_density: if done == 0 {
                0.0
            } else {
                inner.density_weighted_sum / done as f64
            },
            busy_time: inner.busy_time,
            elapsed,
            frames_per_sec: if elapsed.is_zero() {
                0.0
            } else {
                inner.completed as f64 / elapsed.as_secs_f64()
            },
            rejected_queue_full: inner.rejected_queue_full,
            rejected_deadline: inner.rejected_deadline,
            expired_in_queue: inner.expired_in_queue,
            rejected_unknown_model: inner.rejected_unknown_model,
            cold_starts: inner.cold_starts,
            retries: inner.retries,
            quarantines: inner.quarantines,
            worker_restarts: 0,
            workers: Vec::new(),
            models: Vec::new(),
        }
    }

    /// Snapshots an aggregate plus its per-model views in one pass; each
    /// model's item carries its share of the current queue depth.
    pub(crate) fn snapshot_with_models<'a>(
        aggregate: &StatsInner,
        models: impl Iterator<Item = (&'a str, &'a StatsInner, u64)>,
        workers: &[WorkerHealthInner],
        elapsed: Duration,
        queue_depth: u64,
    ) -> RuntimeStats {
        let mut stats = RuntimeStats::snapshot(aggregate, elapsed, queue_depth);
        stats.models = models
            .map(|(id, inner, depth)| ModelStats {
                id: id.to_string(),
                stats: RuntimeStats::snapshot(inner, elapsed, depth),
            })
            .collect();
        stats.worker_restarts = workers.iter().map(|w| w.restarts).sum();
        stats.workers = workers
            .iter()
            .enumerate()
            .map(|(worker, w)| WorkerHealth {
                worker,
                restarts: w.restarts,
                replica_faults: w.replica_faults,
                quarantines: w.quarantines,
                healthy: !w.gave_up,
            })
            .collect();
        stats
    }
}

/// Renders the stats-snapshot families (request counters, admission
/// verdicts, and the queue-wait / service / end-to-end quantiles) as
/// Prometheus text exposition lines, appended to `out`. Complements the
/// live-registry render: together they form
/// [`Runtime::metrics_text`](crate::Runtime::metrics_text).
pub(crate) fn render_prometheus(stats: &RuntimeStats, out: &mut String) {
    use std::fmt::Write;
    let mut family = |name: &str, kind: &str, lines: &[(String, String)]| {
        let _ = writeln!(out, "# TYPE {name} {kind}");
        for (labels, value) in lines {
            let _ = writeln!(out, "{name}{labels} {value}");
        }
    };
    let count = |v: u64| (String::new(), v.to_string());
    family("shenjing_requests_completed_total", "counter", &[count(stats.completed)]);
    family("shenjing_requests_failed_total", "counter", &[count(stats.failed)]);
    family("shenjing_batches_total", "counter", &[count(stats.batches)]);
    family("shenjing_cold_starts_total", "counter", &[count(stats.cold_starts)]);
    family(
        "shenjing_requests_rejected_total",
        "counter",
        &[
            ("{reason=\"queue_full\"}".into(), stats.rejected_queue_full.to_string()),
            ("{reason=\"deadline\"}".into(), stats.rejected_deadline.to_string()),
            ("{reason=\"expired_in_queue\"}".into(), stats.expired_in_queue.to_string()),
            ("{reason=\"unknown_model\"}".into(), stats.rejected_unknown_model.to_string()),
        ],
    );
    let quantiles = |p50: Duration, p95: Duration, p99: Duration| {
        vec![
            ("{quantile=\"0.5\"}".to_string(), format!("{}", p50.as_secs_f64())),
            ("{quantile=\"0.95\"}".to_string(), format!("{}", p95.as_secs_f64())),
            ("{quantile=\"0.99\"}".to_string(), format!("{}", p99.as_secs_f64())),
        ]
    };
    family(
        "shenjing_request_latency_seconds",
        "gauge",
        &quantiles(stats.p50_latency, stats.p95_latency, stats.p99_latency),
    );
    family(
        "shenjing_queue_wait_seconds",
        "gauge",
        &quantiles(stats.p50_queue_wait, stats.p95_queue_wait, stats.p99_queue_wait),
    );
    family(
        "shenjing_service_time_seconds",
        "gauge",
        &quantiles(stats.p50_service, stats.p95_service, stats.p99_service),
    );
    let per_model = |field: fn(&RuntimeStats) -> u64| {
        stats
            .models
            .iter()
            .map(|m| (format!("{{model=\"{}\"}}", m.id), field(&m.stats).to_string()))
            .collect::<Vec<_>>()
    };
    if !stats.models.is_empty() {
        family("shenjing_model_completed_total", "counter", &per_model(|s| s.completed));
        family("shenjing_model_queue_depth", "gauge", &per_model(|s| s.queue_depth));
    }
    if !stats.workers.is_empty() {
        let health: Vec<(String, String)> = stats
            .workers
            .iter()
            .map(|w| (format!("{{worker=\"{}\"}}", w.worker), u64::from(w.healthy).to_string()))
            .collect();
        family("shenjing_worker_healthy", "gauge", &health);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_reservoir_is_bounded() {
        let mut reservoir = Reservoir::default();
        for i in 0..3 * LATENCY_SAMPLE_CAP as u64 {
            reservoir.record(i);
        }
        assert_eq!(reservoir.samples.len(), LATENCY_SAMPLE_CAP, "reservoir stays capped");
        assert_eq!(reservoir.seen, 3 * LATENCY_SAMPLE_CAP as u64);
        // The retained sample is not just the first CAP values: later
        // arrivals must have displaced some early ones.
        assert!(
            reservoir.samples.iter().any(|&ns| ns >= LATENCY_SAMPLE_CAP as u64),
            "reservoir must admit samples beyond the cap"
        );
    }

    #[test]
    fn record_latency_feeds_all_three_reservoirs() {
        let mut inner = StatsInner::default();
        inner.record_latency(100, 30, 70);
        inner.record_latency(200, 50, 150);
        assert_eq!(inner.latency.samples, vec![100, 200]);
        assert_eq!(inner.queue_wait.samples, vec![30, 50]);
        assert_eq!(inner.service.samples, vec![70, 150]);
        assert_eq!(inner.latency.seen, 2);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), Duration::from_nanos(50));
        assert_eq!(percentile(&sorted, 0.95), Duration::from_nanos(95));
        assert_eq!(percentile(&sorted, 0.99), Duration::from_nanos(99));
        assert_eq!(percentile(&[], 0.5), Duration::ZERO);
        assert_eq!(percentile(&[7], 0.99), Duration::from_nanos(7));
    }

    #[test]
    fn occupancy_histogram_counts_by_frames() {
        let mut inner = StatsInner::default();
        inner.record_occupancy(1, 4);
        inner.record_occupancy(4, 4);
        inner.record_occupancy(4, 4);
        inner.record_occupancy(2, 4);
        assert_eq!(inner.occupancy_counts, vec![0, 1, 1, 0, 2]);
        let stats = RuntimeStats::snapshot(&inner, Duration::from_secs(1), 0);
        assert_eq!(stats.occupancy_histogram, vec![0, 1, 1, 0, 2]);
    }

    #[test]
    fn snapshot_derives_percentiles_and_density() {
        let inner = StatsInner {
            completed: 4,
            batches: 2,
            latency: Reservoir { samples: vec![400, 100, 300, 200], seen: 4 },
            queue_wait: Reservoir { samples: vec![40, 10, 30, 20], seen: 4 },
            service: Reservoir { samples: vec![360, 90, 270, 180], seen: 4 },
            density_weighted_sum: 4.0 * 0.25,
            ..Default::default()
        };
        let stats = RuntimeStats::snapshot(&inner, Duration::from_secs(1), 7);
        assert_eq!(stats.p50_latency, Duration::from_nanos(200));
        assert_eq!(stats.p99_latency, Duration::from_nanos(400));
        assert_eq!(stats.p50_queue_wait, Duration::from_nanos(20));
        assert_eq!(stats.p99_queue_wait, Duration::from_nanos(40));
        assert_eq!(stats.p50_service, Duration::from_nanos(180));
        assert_eq!(stats.p99_service, Duration::from_nanos(360));
        assert_eq!(stats.queue_depth, 7);
        assert!((stats.mean_input_density - 0.25).abs() < 1e-12);
    }

    #[test]
    fn prometheus_render_exposes_quantiles_and_verdicts() {
        let inner = StatsInner {
            completed: 3,
            rejected_queue_full: 2,
            latency: Reservoir { samples: vec![1_000_000, 2_000_000, 3_000_000], seen: 3 },
            queue_wait: Reservoir { samples: vec![250_000, 500_000, 750_000], seen: 3 },
            service: Reservoir { samples: vec![750_000, 1_500_000, 2_250_000], seen: 3 },
            ..Default::default()
        };
        let workers = vec![
            WorkerHealthInner { restarts: 1, replica_faults: 2, quarantines: 1, gave_up: false },
            WorkerHealthInner { restarts: 9, gave_up: true, ..Default::default() },
        ];
        let stats = RuntimeStats::snapshot_with_models(
            &inner,
            std::iter::once(("digits", &inner, 4)),
            &workers,
            Duration::from_secs(1),
            4,
        );
        let mut out = String::new();
        render_prometheus(&stats, &mut out);
        assert!(out.contains("# TYPE shenjing_queue_wait_seconds gauge"));
        assert!(out.contains("shenjing_queue_wait_seconds{quantile=\"0.5\"} 0.0005"));
        assert!(out.contains("shenjing_service_time_seconds{quantile=\"0.99\"} 0.00225"));
        assert!(out.contains("shenjing_requests_rejected_total{reason=\"queue_full\"} 2"));
        assert!(out.contains("shenjing_model_completed_total{model=\"digits\"} 3"));
        assert!(out.contains("shenjing_model_queue_depth{model=\"digits\"} 4"));
        assert!(out.contains("shenjing_worker_healthy{worker=\"0\"} 1"));
        assert!(out.contains("shenjing_worker_healthy{worker=\"1\"} 0"));
    }

    #[test]
    fn worker_health_snapshot_maps_indices_and_abandonment() {
        let workers = vec![
            WorkerHealthInner::default(),
            WorkerHealthInner { restarts: 3, replica_faults: 5, quarantines: 2, gave_up: true },
        ];
        let stats = RuntimeStats::snapshot_with_models(
            &StatsInner::default(),
            std::iter::empty(),
            &workers,
            Duration::from_secs(1),
            0,
        );
        assert_eq!(stats.worker_restarts, 3);
        assert_eq!(
            stats.workers,
            vec![
                WorkerHealth { worker: 0, healthy: true, ..Default::default() },
                WorkerHealth {
                    worker: 1,
                    restarts: 3,
                    replica_faults: 5,
                    quarantines: 2,
                    healthy: false,
                },
            ]
        );
        // The plain per-model snapshot never carries worker detail.
        assert!(stats.models.is_empty());
    }
}
