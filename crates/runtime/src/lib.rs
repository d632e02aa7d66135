//! Batched, multi-chip inference serving over compiled Shenjing models.
//!
//! The paper validates its cycle-level simulator one frame at a time;
//! this crate turns that faithful-but-slow reproduction into a
//! throughput engine, the way TrueNorth-style deployments amortize the
//! static per-cycle configuration across many inputs. Four layers:
//!
//! 1. **Compiled artifact** — [`CompiledModel`] runs the mapping
//!    toolchain once and decodes the program (schedule flattened, weight
//!    blocks materialized) into an `Arc`-shared image that instantiates
//!    per-worker simulator replicas cheaply.
//! 2. **Batched execution** — each replica is a SoA
//!    [`BatchSim`](shenjing_sim::BatchSim) served through the [`Engine`]
//!    trait's `plan → execute → drain` lifecycle. The compiled schedule
//!    is static, so register occupancy is identical across frames and
//!    one pass over the per-cycle control words advances a whole batch —
//!    each lane bit-identical to a single-frame run of the oracle
//!    (`shenjing_sim::oracle`), and *occupancy-bound*: planning an
//!    `n`-of-`max_batch` batch occupies exactly `n` lanes, so under-full
//!    passes, a batch of one included, pay for the frames they carry.
//! 3. **Serving tier** — a [`ModelRegistry`] holds many compiled
//!    artifacts under string ids, each with per-model [`ServeOptions`]
//!    (priority, deadline SLO, timestep override). [`Runtime::serve`]
//!    builds every worker's replica of every model before traffic
//!    arrives and puts one admission-controlled, depth-bounded request queue in
//!    front of them: typed [`InferenceRequest`]s are admitted or
//!    refused with a [`RejectReason`](shenjing_core::RejectReason)
//!    (queue full, unknown model, expired deadline, shutdown), or
//!    failed as caller bugs (wrong length, values outside `[0, 1]`).
//!    One pure, clock-injected scheduler decides what each pass carries:
//!    it fails expired requests fast without burning a lane, picks the
//!    most urgent ready request (priority, then earliest deadline, then
//!    FIFO) and gathers a **single-model** batch of up to `max_batch`
//!    ready requests around it. Dispatch is work-conserving: a free
//!    worker never holds a ready request back for company, and batches
//!    fill under load with what arrived while the previous pass ran.
//!    Each batch is one pass of the worker's replica of that model.
//!    Requests decode off the JSON [`wire`] format, so a caller can
//!    hand the tier bytes instead of typed values.
//! 4. **Telemetry** — every runtime owns a [`Telemetry`] hub, and its
//!    metric registry is the *only* place a serving number lives:
//!    per-model request counters, admission verdicts, batches by frame
//!    count, queue depth and queue-wait / service / end-to-end duration
//!    histograms, per-worker health. Workers bump those atomics — no
//!    lock, and before the reply is sent — and [`RuntimeStats`]
//!    (latency p50/p95/p99 to one histogram bucket, ≤ 12.5 %; the
//!    batch-occupancy histogram; throughput), aggregate and per model,
//!    is a view read off them, exactly what [`Runtime::metrics_text`]
//!    renders as Prometheus text. Sampled per-request lifecycle spans
//!    (admitted → batch-formed → planned → executed → drained →
//!    replied), their carrying batches phase-profiled (ACC / SEND /
//!    transfer / drain pass time) by the replica itself, export as a
//!    Perfetto-loadable Chrome trace ([`Runtime::trace_json`]).
//!
//! The tier is **fault-tolerant**: each batch executes behind a panic
//! guard. A fault — a panic, or an error the proven program and
//! admission leave no room for — fails only its own batch: the replica
//! is quarantined (torn down and rebuilt from the compiled artifact)
//! and every rider is answered once with
//! [`Error::ReplicaFault`](shenjing_core::Error::ReplicaFault). The
//! runtime does not retry: the schedule and the rate coding are
//! deterministic, so a panic replays on the same frames. A worker whose
//! loop panics outside that guard restarts it in place on rebuilt
//! replicas (counted in `shenjing_worker_restarts_total{worker=}`; past
//! its restart budget it gives up, and the last worker standing fails
//! the queue with [`Error::WorkerLost`](shenjing_core::Error::WorkerLost)).
//! The default-off `chaos` feature adds the `chaos` module:
//! deterministic failure injection (panic on the Nth batch, artificial
//! delay, worker-loop kills, damaged weights via `sim::fault`) for
//! drills and tests.
//!
//! # Example
//!
//! ```
//! use shenjing_core::{ArchSpec, W5};
//! use shenjing_nn::Tensor;
//! use shenjing_runtime::{
//!     CompiledModel, InferenceRequest, ModelRegistry, Runtime, RuntimeConfig, ServeOptions,
//! };
//! use shenjing_snn::{SnnLayer, SnnNetwork, SpikingDense};
//! use std::time::Duration;
//!
//! // A trained-and-converted SNN (hand-built here) compiled once…
//! let snn = SnnNetwork::new(vec![SnnLayer::Dense(
//!     SpikingDense::new(vec![W5::new(3)?; 8], 4, 2, 5, 1.0)?,
//! )])?;
//! let model = CompiledModel::compile(&ArchSpec::tiny(), &snn)?;
//!
//! // …registered under an id with its serving policy…
//! let registry = ModelRegistry::new().with_model(
//!     "digits",
//!     model,
//!     ServeOptions::default().with_deadline(Duration::from_secs(5)),
//! )?;
//!
//! // …serves typed requests from N worker shards, batching as it goes.
//! let runtime = Runtime::serve(registry, RuntimeConfig::builder().workers(2).build()?)?;
//! let reply = runtime.infer(InferenceRequest::new(
//!     "digits",
//!     Tensor::from_vec(vec![4], vec![1.0, 0.0, 0.5, 0.5])?,
//! ))?;
//! println!("class {} in {:?}", reply.predicted, reply.latency);
//! let stats = runtime.shutdown()?;
//! assert_eq!(stats.completed, 1);
//! assert_eq!(stats.models[0].id, "digits");
//! # Ok::<(), shenjing_core::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "chaos")]
pub mod chaos;
pub mod engine;
pub mod model;
mod sched;
pub mod server;
pub mod stats;
pub mod wire;

#[cfg(feature = "chaos")]
pub use chaos::ChaosConfig;
pub use engine::Engine;
pub use model::{CompiledModel, ModelRegistry, ServeOptions};
pub use server::{
    InferenceReply, InferenceRequest, PendingReply, Runtime, RuntimeConfig, RuntimeConfigBuilder,
};
pub use stats::{ModelStats, RuntimeStats, WorkerHealth};

pub use shenjing_telemetry::Telemetry;
