//! Load generator for the multi-model serving tier: open-loop Poisson
//! arrivals of a two-tenant mix — the zoo's MNIST MLP as the
//! latency-critical tenant and its CIFAR CNN as the heavyweight
//! best-effort tenant — every request round-tripping through the JSON
//! wire format before submission, the way a remote client would arrive.
//!
//! Open loop matters: a closed loop (submit, wait, submit) lets a slow
//! server throttle its own offered load and hides queueing; here
//! arrivals keep coming on the Poisson clock regardless of how the
//! server is doing, so the p50/p99 latencies below include the queueing
//! the mix actually causes.
//!
//! Not a criterion bench (`harness = false` with a hand-rolled main):
//! the figures of merit are the served mix's per-model latency
//! percentiles (read from `RuntimeStats`, so good to one histogram
//! bucket: ≤ 12.5 %), not a median time per iteration. The output still
//! mimics criterion's `<name> median <value> <unit> (...)` lines so the
//! medians artifact CI uploads lists them like any other bench.
//! `SHENJING_BENCH_SAMPLES` caps the number of traffic waves the same
//! way it caps criterion samples (CI quick mode: 3).
//!
//! With the `chaos` feature compiled in and `SHENJING_CHAOS` set, the
//! run doubles as a fault-tolerance smoke: four scripted replica panics
//! are injected mid-load, every offered request must still get exactly
//! one terminal reply (the riders of the panicked batches a typed
//! `ReplicaFault`, no request lost), and the median lines get a
//! `_chaos` suffix so the artifact never mixes clean and faulted
//! latencies under one name.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shenjing::prelude::*;
use shenjing::runtime::wire;
use shenjing::snn::snn_from_specs;

/// MLP (latency-critical tenant) requests per wave.
const MLP_PER_WAVE: usize = 32;
/// CNN (heavyweight tenant) requests per wave.
const CNN_PER_WAVE: usize = 6;
/// Mean Poisson inter-arrival gap. With the CNN's ~0.2 s frames batched
/// across two workers, this offers roughly the tier's capacity: queues
/// form, then drain.
const MEAN_GAP: Duration = Duration::from_millis(25);
/// Waves when `SHENJING_BENCH_SAMPLES` is unset.
const DEFAULT_WAVES: usize = 5;
/// Batch ordinals the faulted run panics (with `SHENJING_CHAOS`).
const PANICS: [u64; 4] = [3, 10, 17, 24];

fn waves_from_env() -> usize {
    match std::env::var("SHENJING_BENCH_SAMPLES") {
        Ok(v) => v.parse::<usize>().map(|n| n.clamp(2, DEFAULT_WAVES)).unwrap_or(DEFAULT_WAVES),
        Err(_) => DEFAULT_WAVES,
    }
}

fn chaos_requested() -> bool {
    std::env::var("SHENJING_CHAOS").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn frame(len: usize, seed: usize) -> Tensor {
    Tensor::from_vec(vec![len], (0..len).map(|i| ((i + seed * 37) % 7) as f64 / 7.0).collect())
        .unwrap()
}

fn print_median(name: &str, value: Duration, detail: &str) {
    // The same shape the vendored criterion prints.
    println!("{name:<40} median {:>9.3} ms  ({detail})", value.as_secs_f64() * 1e3);
}

fn main() {
    let waves = waves_from_env();
    let arch = ArchSpec::paper();
    let mlp_snn = snn_from_specs(&NetworkKind::MnistMlp.specs(), (28, 28, 1), 7).unwrap();
    let mlp = CompiledModel::compile(&arch, &mlp_snn).unwrap();
    let cnn_snn =
        snn_from_specs(&NetworkKind::CifarCnn.specs(), NetworkKind::CifarCnn.input_shape(), 7)
            .unwrap();
    let cnn = CompiledModel::compile(&arch, &cnn_snn).unwrap();
    eprintln!(
        "loadgen tenants: mnist-mlp {} cores, cifar-cnn {} cores; {waves} waves of {} + {}",
        mlp.total_cores(),
        cnn.total_cores(),
        MLP_PER_WAVE,
        CNN_PER_WAVE,
    );
    for (id, m) in [("mnist-mlp", &mlp), ("cifar-cnn", &cnn)] {
        let raw = m.block_cycles();
        let compacted = m.program().optimize_stats().compacted_cycles;
        eprintln!(
            "  {id} schedule: {raw} raw cycles/pass -> {compacted} compacted ({:.1}x)",
            raw as f64 / compacted as f64,
        );
    }

    // The MLP tenant is latency-critical: higher priority, a real SLO.
    // Both workers hold a replica of each model from startup. The CNN tenant is best-effort and serves a
    // shortened spike train (the per-model override) so one frame costs
    // ~0.2 s instead of ~1.5 s.
    let registry = ModelRegistry::new()
        .with_model(
            "mnist-mlp",
            mlp.clone(),
            ServeOptions::default().with_priority(2).with_deadline(Duration::from_secs(30)),
        )
        .unwrap()
        .with_model("cifar-cnn", cnn.clone(), ServeOptions::default().with_timesteps(2))
        .unwrap();
    #[cfg(feature = "chaos")]
    let chaos_on = chaos_requested();
    #[cfg(not(feature = "chaos"))]
    let chaos_on = false;
    if chaos_requested() && !chaos_on {
        eprintln!("SHENJING_CHAOS set but the `chaos` feature is off; running clean");
    }
    #[allow(unused_mut)]
    let mut builder =
        RuntimeConfig::builder().workers(2).max_batch(4).timesteps(8).queue_depth(256);
    #[cfg(feature = "chaos")]
    if chaos_on {
        builder = builder.chaos(ChaosConfig::default().with_panic_on_batches(PANICS));
        eprintln!("chaos armed: replica panics at batches {PANICS:?}");
    }
    let config = builder.build().unwrap();
    let setup_start = Instant::now();
    let runtime = Runtime::serve(registry, config).unwrap();
    eprintln!("replicas up in {:?}", setup_start.elapsed());

    let mlp_frame = frame(mlp.input_len(), 1);
    let cnn_frame_len = cnn.input_len();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let run_start = Instant::now();
    let mut faults = 0u64;
    for wave in 0..waves {
        let mut pending = Vec::new();
        for k in 0..(MLP_PER_WAVE + CNN_PER_WAVE) {
            // Every (MLP_PER_WAVE/CNN_PER_WAVE)-ish-th request is the
            // heavyweight tenant, interleaved through the wave.
            let request = if k % ((MLP_PER_WAVE + CNN_PER_WAVE) / CNN_PER_WAVE) == 3 {
                InferenceRequest::new("cifar-cnn", frame(cnn_frame_len, wave * 100 + k))
            } else {
                InferenceRequest::new("mnist-mlp", mlp_frame.clone())
            };
            // The wire hop: encode, decode, submit the decoded copy.
            let decoded = wire::decode_request(&wire::encode_request(&request).unwrap()).unwrap();
            pending.push(runtime.submit(decoded).unwrap());
            // Open-loop Poisson clock: exponential inter-arrival gaps,
            // drawn deterministically so every run offers the same load.
            let unit: f64 = rng.gen_range(f64::EPSILON..1.0);
            std::thread::sleep(MEAN_GAP.mul_f64(-unit.ln()));
        }
        for p in pending {
            match p.wait() {
                Ok(_) => {}
                // A panicked batch's riders each get one typed fault.
                Err(Error::ReplicaFault { reason, .. })
                    if chaos_on
                        && PANICS.iter().any(|n| reason.ends_with(&format!("batch {n}"))) =>
                {
                    faults += 1;
                }
                Err(e) => panic!("a request failed outside the scripted faults: {e:?}"),
            }
        }
    }
    let wall = run_start.elapsed();

    let stats = runtime.shutdown().unwrap();
    let offered = ((MLP_PER_WAVE + CNN_PER_WAVE) * waves) as u64;
    assert_eq!(stats.completed + stats.failed, offered, "one terminal reply per request");
    assert_eq!(stats.failed, faults, "every failure is a scripted replica fault");
    assert_eq!(
        stats.models.iter().map(|m| m.stats.batches).sum::<u64>(),
        stats.batches,
        "every batch belongs to exactly one model"
    );
    eprintln!(
        "served {} frames in {:.1} s ({:.1} frames/s), {} batches, {} cold starts",
        stats.completed,
        wall.as_secs_f64(),
        stats.completed as f64 / wall.as_secs_f64(),
        stats.batches,
        stats.cold_starts,
    );
    eprintln!(
        "fault tolerance: {} worker restarts, {} quarantines, {} riders failed",
        stats.worker_restarts, stats.quarantines, stats.failed,
    );
    if chaos_on {
        // The smoke's contract: each scripted panic fails its own batch
        // once and quarantines its replica (every reply was checked
        // above); no worker was lost.
        assert_eq!(stats.quarantines, PANICS.len() as u64, "one rebuild per scripted panic");
        assert_eq!(stats.worker_restarts, 0);
        assert!(stats.workers.iter().all(|w| w.healthy));
    }
    let suffix = if chaos_on { "_chaos" } else { "" };
    for model in &stats.models {
        let s = &model.stats;
        // Rejections, in-queue expiries and failures ride along with the
        // latency percentiles: an open-loop mix that only reports
        // p50/p99 can hide a tier that hits its SLO by shedding load
        // instead of serving it.
        let detail = format!(
            "{} frames, {} batches, p95 {:.3} ms, {} rejected, {} expired in queue, {} failed",
            s.completed,
            s.batches,
            s.p95_latency.as_secs_f64() * 1e3,
            s.rejected_queue_full + s.rejected_deadline,
            s.expired_in_queue,
            s.failed,
        );
        let tag = if model.id == "mnist-mlp" { "mlp" } else { "cnn" };
        print_median(&format!("loadgen_mix_{tag}_p50{suffix}"), s.p50_latency, &detail);
        print_median(&format!("loadgen_mix_{tag}_p99{suffix}"), s.p99_latency, &detail);
    }
}
