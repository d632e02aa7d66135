//! Multi-model serving: compile two classifiers once, register them
//! under ids with per-model SLOs, then drive mixed traffic through the
//! admission-controlled runtime — and verify along the way that the
//! serving path loses nothing over the single-frame simulator.
//!
//! Run with: `cargo run --release --example serving`
//!
//! Telemetry rides along: the runtime traces every request (dense
//! sampling) and the example prints a slice of the Prometheus metrics
//! snapshot. Set `SHENJING_TRACE_OUT=trace.json` to also dump a
//! Chrome-trace file loadable in Perfetto / `chrome://tracing` (and
//! checkable with `bench_gate trace-check`).

use std::time::{Duration, Instant};

use shenjing::datasets::{flatten_images, train_test_split};
use shenjing::prelude::*;
use shenjing::runtime::wire;
use shenjing::snn::{convert, snn_from_specs};

fn main() -> Result<()> {
    // 1. Train and convert a digit classifier, as in the quickstart.
    let data = SynthDigits::new(23).generate(300);
    let (train, test) = train_test_split(data, 0.8);
    let train = flatten_images(&train);
    let test = flatten_images(&test);
    println!("training a 784-32-10 MLP on {} synthetic digits...", train.len());
    let mut ann = Network::from_specs(
        &[LayerSpec::dense(784, 32), LayerSpec::relu(), LayerSpec::dense(32, 10)],
        5,
    )?;
    Sgd::new(0.02, 4, 6).train(&mut ann, &train)?;
    let calib: Vec<Tensor> = train.iter().take(24).map(|(x, _)| x.clone()).collect();
    let snn = convert(&mut ann, &calib, &ConversionOptions::default())?;

    // 2. Compile both tenants once into shared artifacts: the trained
    //    classifier, and a synthetic-weight copy of the zoo's MNIST MLP
    //    standing in for a second tenant.
    let arch = ArchSpec::paper();
    let digits = CompiledModel::compile(&arch, &snn)?;
    let zoo_snn = snn_from_specs(&NetworkKind::MnistMlp.specs(), (28, 28, 1), 7)?;
    let zoo = CompiledModel::compile(&arch, &zoo_snn)?;
    for (id, m) in [("digits", &digits), ("zoo", &zoo)] {
        println!(
            "compiled `{id}`: {} cores on {} chip(s), {} inputs -> {} outputs",
            m.total_cores(),
            m.chips(),
            m.input_len(),
            m.output_len(),
        );
        // Decode compacts the schedule; what that bought each tenant
        // (also exported as the `shenjing_schedule_cycles` gauges below).
        let raw = m.block_cycles();
        let compacted = m.program().optimize_stats().compacted_cycles;
        println!(
            "  schedule: {raw} raw cycles/pass -> {compacted} compacted ({:.1}x shorter walk)",
            raw as f64 / compacted as f64,
        );
        // A replica instantiates only the tiles the program names.
        let (rows, cols) = m.program().mesh_dims();
        println!(
            "  mesh: {} live tiles of {rows}x{cols} per replica",
            m.program().live_tiles().len(),
        );
    }

    // 3. Register them with per-model policies: the trained classifier is
    //    latency-critical (higher priority, 250 ms SLO); the zoo tenant is
    //    best-effort at a shorter spike train. Every worker holds a
    //    replica of each from startup.
    let timesteps = 12;
    let registry = ModelRegistry::new()
        .with_model(
            "digits",
            digits.clone(),
            ServeOptions::default().with_priority(2).with_deadline(Duration::from_millis(250)),
        )?
        .with_model("zoo", zoo, ServeOptions::default().with_timesteps(8))?;
    let config = RuntimeConfig::builder()
        .workers(2)
        .max_batch(8)
        .timesteps(timesteps)
        .queue_depth(128)
        // Trace every request instead of the production 1-in-16 default:
        // the demo's 48 frames should all show up in the exported trace.
        .telemetry(TelemetryConfig::dense())
        .build()?;
    let runtime = Runtime::serve(registry, config)?;

    // 4. Mixed traffic: every third request goes to the zoo tenant. The
    //    digit requests ride the wire format both ways, the way a remote
    //    client would submit them.
    let frames: Vec<Tensor> = test.iter().take(48).map(|(x, _)| x.clone()).collect();
    let started = Instant::now();
    let mut pending = Vec::new();
    for (k, frame) in frames.iter().enumerate() {
        let request = if k % 3 == 2 {
            InferenceRequest::new("zoo", frame.clone())
        } else {
            InferenceRequest::new("digits", frame.clone())
        };
        let decoded = wire::decode_request(&wire::encode_request(&request)?)?;
        pending.push(runtime.submit(decoded)?);
    }
    let replies: Vec<InferenceReply> =
        pending.into_iter().map(|p| p.wait()).collect::<Result<_>>()?;
    let wall = started.elapsed();

    // 5. Admission control in action: an already-spent deadline budget is
    //    refused with a typed reason before it could burn a lane.
    let doomed = InferenceRequest::new("digits", frames[0].clone()).with_deadline(Duration::ZERO);
    if let Err(e) = runtime.submit(doomed) {
        println!("admission control: {e} ({:?})", e.reject_reason());
    }

    // 6. Observability: every request was traced (dense sampling above),
    //    so the lifecycle spans and engine phase profiles are sitting in
    //    the telemetry ring. Export them before shutdown consumes the
    //    runtime — a Chrome trace if `SHENJING_TRACE_OUT` names a path,
    //    and the engine-phase slice of the Prometheus snapshot here.
    if let Ok(path) = std::env::var("SHENJING_TRACE_OUT") {
        std::fs::write(&path, runtime.trace_json()?).expect("write trace file");
        println!("wrote Chrome trace to `{path}` — load it in Perfetto or chrome://tracing");
    }
    let metrics = runtime.metrics_text();
    println!("from the Prometheus snapshot (engine phases, queue wait vs service time):");
    for line in metrics.lines().filter(|l| {
        l.starts_with("shenjing_engine_phase_ns_total")
            || l.starts_with("shenjing_profiled_batches_total ")
            || l.starts_with("shenjing_queue_wait_duration_seconds_sum")
            || l.starts_with("shenjing_queue_wait_duration_seconds_count")
            || l.starts_with("shenjing_service_duration_seconds_sum")
            || l.starts_with("shenjing_service_duration_seconds_count")
    }) {
        println!("  {line}");
    }

    let stats = runtime.shutdown()?;
    println!(
        "served {} frames in {:.1} ms: {:.1} frames/s, {} batches (mean occupancy {:.1})",
        stats.completed,
        wall.as_secs_f64() * 1e3,
        stats.completed as f64 / wall.as_secs_f64(),
        stats.batches,
        stats.mean_batch_occupancy,
    );
    for model in &stats.models {
        let s = &model.stats;
        println!(
            "  `{}`: {} frames in {} batches, p50 {:.2} ms, p99 {:.2} ms, {} cold start(s)",
            model.id,
            s.completed,
            s.batches,
            s.p50_latency.as_secs_f64() * 1e3,
            s.p99_latency.as_secs_f64() * 1e3,
            s.cold_starts,
        );
    }
    println!("mean input density {:.1}%", 100.0 * stats.mean_input_density);
    println!(
        "admission: {} queue-full, {} dead-on-arrival, {} expired in queue",
        stats.rejected_queue_full, stats.rejected_deadline, stats.expired_in_queue,
    );
    // Fault tolerance rides along in the same snapshot: a clean run
    // reports zeros, a faulted one shows the workers healing and the
    // riders its faulted batches failed (once each; nothing is retried).
    println!(
        "fault tolerance: {} worker restart(s), {} quarantine(s), {} failed request(s), \
         {}/{} workers healthy",
        stats.worker_restarts,
        stats.quarantines,
        stats.failed,
        stats.workers.iter().filter(|w| w.healthy).count(),
        stats.workers.len(),
    );

    // 7. The serving path is bit-exact against the single-frame simulator
    //    (spot-checked here; the property tests cover it exhaustively) —
    //    and batches never mixed tenants.
    let mut reference = digits.instantiate()?;
    for ((frame, _), reply) in test.iter().take(2).zip(&replies) {
        let want = reference.run_frame(frame, timesteps)?;
        assert_eq!(reply.output, want, "batched serving must stay bit-exact");
    }
    let per_model_batches: u64 = stats.models.iter().map(|m| m.stats.batches).sum();
    assert_eq!(per_model_batches, stats.batches, "every batch belongs to exactly one model");
    let correct = test
        .iter()
        .take(48)
        .zip(&replies)
        .filter(|((_, label), reply)| reply.model_id == "digits" && reply.predicted == *label)
        .count();
    let digit_replies = replies.iter().filter(|r| r.model_id == "digits").count();
    println!(
        "accuracy over the served digit frames: {:.1}% (bit-exact vs the single-frame simulator)",
        100.0 * correct as f64 / digit_replies as f64
    );
    Ok(())
}
