//! One run of one workload: set-up → verification → warm-up → timed
//! region, untraced for the end-to-end metrics or traced for the
//! per-layer ones.

use std::time::{Duration, Instant};

use shenjing::nn::train::accuracy as ann_accuracy;
use shenjing::prelude::*;
use shenjing::runtime::PendingReply;
use shenjing::snn::SnnOutput;

use crate::fixture::{Drive, Fixture, Shutdown, System, Tenant, Workload, LANES, SET_FRAMES};
use crate::load::{self, Region, Sample, SplitMix64};
use crate::metrics::{headline, peak_rss_mb, slo_met_share, Headline, Metrics, Tally};
use crate::probes::{self, THREADS_ENV};
use crate::spans::Recorder;
use crate::stats::{median, percentile};
use crate::BenchResult;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Runs shorter than this (`--smoke`) set up once.
const FULL_RUN_S: f64 = 5.0;
/// Warm-up before the timed region, after the verification phase has
/// already pushed 160 frames through the same path.
const WARMUP_S: f64 = 2.0;
/// A traced run first drives this share of `--seconds` untraced, for
/// `harness.trace_overhead_share`; its traced region then lasts the full
/// `--seconds`, like the timed region of an untraced run.
const UNTRACED_SHARE: f64 = 1.0 / 3.0;
/// An open-loop region whose generator ran later than this (p99) is
/// measured again, once.
const GEN_LATE_LIMIT_MS: f64 = 5.0;
/// Table IV's simulated power, where the paper states one.
fn paper_power_mw(kind: NetworkKind) -> Option<f64> {
    match kind {
        NetworkKind::MnistMlp => Some(1.35),
        NetworkKind::MnistCnn => Some(87.54),
        _ => None,
    }
}

/// What one run reports.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
}

/// Table IV's estimate for the model at the paper's operating point.
fn estimate(tenant: &Tenant) -> SystemEstimate {
    let kind = tenant.built.kind;
    let mapping = &tenant.built.mapping;
    SystemEstimate::from_stats(
        &EnergyModel::paper(),
        &TileModel::paper(),
        &mapping.program.stats,
        mapping.logical.total_cores(),
        mapping.placement.chips,
        kind.paper_timesteps(),
        f64::from(kind.paper_fps()),
    )
}

/// Pushes the fixed evaluation set through the path under test and
/// returns the accuracy of the system's answers: against the dataset
/// label for the trained MLP, against the abstract SNN's class for the
/// seeded CNN.
fn verify(fixture: &mut Fixture, tally: &mut Tally) -> BenchResult<f64> {
    let tenant = &fixture.tenants[0];
    let trained = tenant.built.ann.is_some();
    let mut right = 0usize;
    let mut judge = |index: usize, output: &SnnOutput| {
        let want = if trained {
            tenant.eval.labels[index]
        } else {
            tenant.eval.outputs[index].predicted_class()
        };
        right += usize::from(output.predicted_class() == want);
        tenant.eval.matches(index, output)
    };
    match &mut fixture.system {
        System::Engine(sim) => {
            for (chunk, frames) in tenant.eval.frames.chunks(LANES).enumerate() {
                let outputs = sim.run_batch(frames, tenant.timesteps);
                let ok = outputs.is_ok_and(|outputs| {
                    outputs.len() == frames.len()
                        && outputs
                            .iter()
                            .enumerate()
                            .fold(true, |ok, (k, out)| judge(chunk * LANES + k, out) && ok)
                });
                tally.record(ok);
            }
        }
        System::Served(runtime) => {
            for (index, output) in served_answers(runtime, tenant, SET_FRAMES) {
                tally.record(output.is_ok_and(|out| judge(index, &out)));
            }
            // The heavy tenant's path is verified too, on one batch.
            for heavy in &fixture.tenants[1..] {
                for (index, output) in served_answers(runtime, heavy, LANES) {
                    tally.record(output.is_ok_and(|out| heavy.eval.matches(index, &out)));
                }
            }
        }
    }
    Ok(right as f64 / tenant.eval.frames.len() as f64)
}

/// Submits the first `n` evaluation frames of `tenant` at once and
/// waits for every answer.
fn served_answers(
    runtime: &Runtime,
    tenant: &Tenant,
    n: usize,
) -> impl Iterator<Item = (usize, Result<SnnOutput>)> {
    let pending: Vec<Result<PendingReply>> = tenant.eval.frames[..n]
        .iter()
        .map(|frame| load::request(runtime, tenant.id, frame).0)
        .collect();
    pending.into_iter().map(|p| p.and_then(PendingReply::wait).map(|r| r.output)).enumerate()
}

/// Drives the workload for `seconds`. With a recorder, every call into
/// a layer becomes a span and the engine profiles its passes.
fn drive(
    fixture: &mut Fixture,
    rng: &mut SplitMix64,
    seconds: f64,
    mut rec: Option<&mut Recorder>,
) -> Region {
    let span = Duration::from_secs_f64(seconds);
    let tenants = &fixture.tenants;
    match (&mut fixture.system, fixture.workload.drive) {
        (System::Engine(sim), _) => {
            let tenant = &tenants[0];
            load::engine_region(sim, &tenant.pool, tenant.timesteps, rng, span, |at| {
                if let Some(rec) = rec.as_deref_mut() {
                    let op = rec.new_op();
                    let root = rec.add("op.pass", None, op, at[0], at[3]);
                    rec.add("harness.inputs", Some(root), op, at[0], at[1]);
                    rec.add("sim.run_batch", Some(root), op, at[1], at[2]);
                    rec.add("harness.check", Some(root), op, at[2], at[3]);
                }
            })
        }
        (System::Served(runtime), Drive::Open { rps, heavy_rps, .. }) => {
            let schedules = [
                load::poisson_schedule(rng, rps, seconds),
                load::poisson_schedule(rng, heavy_rps, seconds),
            ];
            let region = load::open_region(runtime, tenants, &schedules, rng, span, rec.is_some());
            request_spans(&region, rec);
            region
        }
        (System::Served(runtime), Drive::Closed { clients }) => {
            let region =
                load::closed_region(runtime, &tenants[0], clients, rng, span, rec.is_some());
            request_spans(&region, rec);
            region
        }
        (System::Served(_), Drive::Engine) => unreachable!("engine workloads serve nothing"),
    }
}

/// One operation per request: `op.request` (due → reply seen) with the
/// three calls and the wait as children; the wait is split into the
/// runtime's own queue wait and service time from the reply's fields.
fn request_spans(region: &Region, rec: Option<&mut Recorder>) {
    let Some(rec) = rec else { return };
    for sample in &region.samples {
        let Some(marks) = sample.marks else { continue };
        let op = rec.new_op();
        let root = rec.add("op.request", None, op, sample.due, sample.done);
        rec.add("runtime.wire_encode", Some(root), op, marks.encode, marks.decode);
        rec.add("runtime.wire_decode", Some(root), op, marks.decode, marks.submit);
        rec.add("runtime.submit", Some(root), op, marks.submit, marks.submitted);
        let wait = rec.add("runtime.wait", Some(root), op, marks.submitted, sample.done);
        if let Some(reply) = sample.reply {
            let formed = marks.submit + Duration::from_secs_f64(reply.queue_wait_ms / 1e3);
            let replied = marks.submit + Duration::from_secs_f64(reply.served_ms / 1e3);
            rec.add("runtime.queue_wait", Some(wait), op, marks.submit, formed);
            rec.add("runtime.service", Some(wait), op, formed, replied);
        }
    }
}

/// Runs `workload` once.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> BenchResult<Outcome> {
    // The workload fixes the intra-pass thread budget: the library
    // default on the engine workloads, one thread under the runtime
    // (whose worker and the load generator already fill both CPUs).
    match workload.drive {
        Drive::Engine => std::env::remove_var(THREADS_ENV),
        _ => std::env::set_var(THREADS_ENV, "1"),
    }
    if trace {
        traced(workload, seed, seconds)
    } else {
        untraced(workload, seed, seconds)
    }
}

/// Seeds the input stream of one phase, so a phase's inputs do not
/// depend on how many operations the phase before it completed.
fn phase_rng(seed: u64, phase: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ phase.wrapping_mul(0xA076_1D64_78BD_642F))
}

fn warmup_s(seconds: f64) -> f64 {
    WARMUP_S.min(seconds / 2.0)
}

/// The timed region; an open-loop one whose generator ran late is
/// measured once more and the second measurement stands.
fn timed(fixture: &mut Fixture, seed: u64, seconds: f64, tally: &mut Tally) -> Region {
    let mut region = drive(fixture, &mut phase_rng(seed, 2), seconds, None);
    tally.add_region(&region);
    if percentile(&region.gen_late_ms, 99.0) > GEN_LATE_LIMIT_MS {
        eprintln!("generator ran late (p99 > {GEN_LATE_LIMIT_MS} ms): measuring the region again");
        region = drive(fixture, &mut phase_rng(seed, 3), seconds, None);
        tally.add_region(&region);
    }
    region
}

fn untraced(workload: Workload, seed: u64, seconds: f64) -> BenchResult<Outcome> {
    let mut rec = Recorder::new(false);
    let mut tally = Tally::default();
    let repeats = if seconds < FULL_RUN_S { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut fixture = Fixture::stand_up(workload, seed, &mut rec)?;
    loop {
        setups.push(fixture.setup_s);
        tally.record(fixture.first_answer_ok);
        if setups.len() == repeats {
            break;
        }
        fixture.tear_down()?;
        fixture = Fixture::stand_up(workload, seed, &mut rec)?;
    }

    let accuracy = verify(&mut fixture, &mut tally)?;
    let warmup = drive(&mut fixture, &mut phase_rng(seed, 1), warmup_s(seconds), None);
    tally.add_region(&warmup);
    let region = timed(&mut fixture, seed, seconds, &mut tally);
    let headline = headline(&workload, &region);
    let estimate = estimate(fixture.primary());
    let cycles = fixture.primary().built.mapping.program.stats.pipelined_cycles_per_timestep;
    fixture.tear_down()?;

    let mut metrics = Metrics::end_to_end();
    metrics.put("setup_s", median(&setups));
    metrics.put("throughput_fps", headline.throughput_fps);
    metrics.put("latency_ms_p50", headline.latency_ms_p50);
    metrics.put("slo_met_share", headline.slo_met_share);
    metrics.put("ok_share", 1.0 - tally.failed_share());
    metrics.put("peak_rss_mb", peak_rss_mb());
    metrics.put("accuracy", accuracy);
    metrics.put("model_power_mw", estimate.power.total_mw());
    metrics.put("model_uj_per_frame", estimate.uj_per_frame());
    metrics.put("model_cycles_per_timestep", cycles as f64);
    Ok(Outcome { tally, metrics })
}

fn traced(workload: Workload, seed: u64, seconds: f64) -> BenchResult<Outcome> {
    let mut rec = Recorder::new(true);
    let mut tally = Tally::default();
    let mut out = Metrics::per_layer();

    let mut fixture = Fixture::stand_up(workload, seed, &mut rec)?;
    tally.record(fixture.first_answer_ok);
    put_setup(&mut out, &rec);
    put_model(&mut out, &fixture.tenants[0])?;
    verify(&mut fixture, &mut tally)?;
    let warmup = drive(&mut fixture, &mut phase_rng(seed, 1), warmup_s(seconds), None);
    tally.add_region(&warmup);

    // A stretch without the recorder first, so the same process gives
    // the overhead of tracing.
    let plain = drive(&mut fixture, &mut phase_rng(seed, 2), seconds * UNTRACED_SHARE, None);
    tally.add_region(&plain);
    if let System::Engine(sim) = &mut fixture.system {
        sim.set_profiling(true);
    }
    let region = drive(&mut fixture, &mut phase_rng(seed, 3), seconds, Some(&mut rec));
    tally.add_region(&region);
    let profile = match &mut fixture.system {
        System::Engine(sim) => sim.take_profile(),
        System::Served(_) => None,
    };
    let (plain, head) = (headline(&workload, &plain), headline(&workload, &region));
    put_harness(&mut out, &region, &plain, &head);
    put_requests(&mut out, &region);
    if let Some(profile) = &profile {
        let wall_ns: f64 = region.samples.iter().map(|s| s.latency_ms() * 1e6).sum();
        probes::put_profile(&mut out, profile, wall_ns);
    }

    if let System::Served(runtime) = &fixture.system {
        let started = Instant::now();
        let chrome = runtime.trace_json()?;
        out.put("telemetry.trace_export_ms", started.elapsed().as_secs_f64() * 1e3);
        out.put("telemetry.spans_recorded", chrome.matches("\"ph\"").count() as f64);
        let started = Instant::now();
        let text = runtime.metrics_text();
        out.put("telemetry.metrics_text_us", started.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(text);
    }
    match workload.drive {
        Drive::Closed { clients } => {
            let ratio = efficiency_vs_engine(&fixture, clients, seed, &mut tally)?;
            out.put("runtime.efficiency_vs_engine", ratio);
        }
        Drive::Open { .. } => {
            out.put("runtime.max_rate_ok_rps", max_rate_ok(&fixture, seed, &mut tally));
        }
        Drive::Engine => {}
    }

    let (tenants, served) = fixture.tear_down()?;
    if let Some(Shutdown { stats, took }) = served {
        out.put("runtime.shutdown_ms", took.as_secs_f64() * 1e3);
        out.put("runtime.cold_starts", stats.cold_starts as f64);
        out.put(
            "runtime.rejected",
            (stats.rejected_queue_full + stats.rejected_deadline + stats.rejected_unknown_model)
                as f64,
        );
        out.put("runtime.expired_in_queue", stats.expired_in_queue as f64);
        out.put("runtime.retries", stats.retries as f64);
    }
    // The probes switch the thread-budget variable, so they wait until
    // no runtime is alive.
    probes::run(&tenants[0], &mut out, &mut tally)?;
    if profile.is_none() {
        let (profile, wall_ns) = probes::profiled_passes(&tenants[0], &mut tally)?;
        probes::put_profile(&mut out, &profile, wall_ns);
    }
    if let (Some(service), Some(execute)) =
        (full_batch_service_ms(&region), out.get("runtime.engine_execute_ms_p50"))
    {
        out.put("runtime.service_overhead_ms_p50", service - execute);
    }
    out.put("harness.failed_share", tally.failed_share());

    let dir = crate::out_dir()?;
    let path = dir.join(format!("{}-{seed}.trace.json", workload.name));
    std::fs::write(&path, rec.to_json(workload.name, seed))?;
    eprintln!("trace: {} spans in {}", rec.spans().len(), path.display());
    for (name, self_us) in rec.self_time_us() {
        eprintln!("  self time {name:<24} {:>12.3} ms", self_us / 1e3);
    }
    Ok(Outcome { tally, metrics: out })
}

/// Set-up as its spans saw it.
fn put_setup(out: &mut Metrics, rec: &Recorder) {
    let total_ms = |name: &str| rec.durations_us(name).iter().sum::<f64>() / 1e3;
    for (metric, span) in [
        ("datasets.generate_ms", "datasets.generate"),
        ("nn.train_ms", "nn.train"),
        ("snn.convert_ms", "snn.convert"),
        ("mapper.map_logical_ms", "mapper.map_logical"),
        ("mapper.place_ms", "mapper.place"),
        ("mapper.compile_ms", "mapper.compile"),
        ("runtime.serve_startup_ms", "runtime.serve"),
    ] {
        out.put(metric, total_ms(span));
    }
}

/// The simulated quantities of the primary model: the mapper's counts
/// and the power model's estimate. None of them is a host time.
fn put_model(out: &mut Metrics, tenant: &Tenant) -> BenchResult<()> {
    let built = &tenant.built;
    let eval = &tenant.eval;
    let snn_accuracy = eval
        .outputs
        .iter()
        .zip(&eval.labels)
        .filter(|(out, &label)| out.predicted_class() == label)
        .count() as f64
        / eval.labels.len() as f64;
    if let Some(ann) = &built.ann {
        let labelled: Vec<(Tensor, usize)> =
            eval.frames.iter().cloned().zip(eval.labels.iter().copied()).collect();
        let ann_accuracy = ann_accuracy(&mut ann.clone(), &labelled)?;
        out.put("nn.ann_accuracy", ann_accuracy);
        out.put("snn.conversion_loss", ann_accuracy - snn_accuracy);
    }
    out.put("snn.oracle_frame_us_p50", median(&eval.run_us));
    out.put("snn.input_spike_rate", built.snn.activity().input_rate(0, built.snn.input_len()));

    let stats = &built.mapping.program.stats;
    let cores = built.mapping.logical.total_cores();
    out.put("mapper.cores", cores as f64);
    out.put("mapper.chips", f64::from(built.mapping.placement.chips));
    out.put("mapper.cores_vs_paper", cores as f64 / f64::from(built.kind.paper_core_count()));
    out.put("mapper.block_cycles", stats.block_cycles as f64);
    out.put("mapper.ops_per_timestep", stats.ops.total() as f64);
    out.put("mapper.ps_hops", stats.ps_hops as f64);
    out.put("mapper.spike_hops", stats.spike_hops as f64);
    out.put("mapper.interchip_bits", stats.interchip_bits as f64);

    let est = estimate(tenant);
    out.put("power.static_mw", est.power.static_mw);
    out.put("power.core_active_mw", est.power.core_active_mw);
    out.put("power.noc_active_mw", est.power.noc_active_mw);
    out.put("power.interchip_mw", est.power.interchip_mw);
    out.put("power.frequency_khz", est.frequency_hz / 1e3);
    if let Some(paper) = paper_power_mw(built.kind) {
        out.put("power.error_vs_paper", (est.power.total_mw() - paper).abs() / paper);
    }
    // Far below the clock's resolution, so time a thousand calls.
    const CALLS: u32 = 1000;
    let started = Instant::now();
    for _ in 0..CALLS {
        std::hint::black_box(estimate(std::hint::black_box(tenant)));
    }
    out.put("power.estimate_us", started.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS));
    Ok(())
}

fn put_harness(out: &mut Metrics, region: &Region, plain: &Headline, traced: &Headline) {
    out.put("harness.trace_overhead_share", 1.0 - traced.throughput_fps / plain.throughput_fps);
    out.put("harness.gen_late_ms_p99", percentile(&region.gen_late_ms, 99.0));
    out.put("harness.slice_spread", traced.slice_spread);
    let good: f64 = region.samples.iter().map(|s| f64::from(s.good_frames)).sum();
    out.put("harness.cpu_ms_per_frame", region.cpu_s * 1e3 / good.max(1.0));
    out.put("harness.samples", traced.samples as f64);
}

/// The serving tier as its replies describe it.
fn put_requests(out: &mut Metrics, region: &Region) {
    let primary = region.of(0);
    let facts: Vec<_> = primary.iter().filter_map(|s| s.reply).collect();
    if facts.is_empty() {
        return;
    }
    let p50_us = |first: fn(&load::Marks) -> Instant, then: fn(&load::Marks) -> Instant| {
        let spans: Vec<f64> = primary
            .iter()
            .filter_map(|s| s.marks.as_ref())
            .map(|m| then(m).saturating_duration_since(first(m)).as_secs_f64() * 1e6)
            .collect();
        median(&spans)
    };
    out.put("runtime.wire_encode_us_p50", p50_us(|m| m.encode, |m| m.decode));
    out.put("runtime.wire_decode_us_p50", p50_us(|m| m.decode, |m| m.submit));
    out.put("runtime.submit_us_p50", p50_us(|m| m.submit, |m| m.submitted));

    let queue: Vec<f64> = facts.iter().map(|f| f.queue_wait_ms).collect();
    let service: Vec<f64> = facts.iter().map(|f| f.served_ms - f.queue_wait_ms).collect();
    out.put("runtime.queue_wait_ms_p50", median(&queue));
    out.put("runtime.queue_wait_ms_p99", percentile(&queue, 99.0));
    out.put("runtime.service_ms_p50", median(&service));
    out.put("runtime.service_ms_p99", percentile(&service, 99.0));
    let latency: Vec<f64> = primary.iter().map(|s| s.latency_ms()).collect();
    out.put("runtime.latency_ms_p99", percentile(&latency, 99.0));
    let heavy: Vec<f64> = region.of(1).iter().map(|s| s.latency_ms()).collect();
    out.put("runtime.heavy_latency_ms_p50", median(&heavy));
    let unattributed: Vec<f64> = primary
        .iter()
        .filter_map(|s| Some((s.latency_ms(), s.reply?.served_ms)))
        .map(|(client, served)| (client - served) / client)
        .collect();
    out.put("runtime.unattributed_share", median(&unattributed));

    // A batch of n frames shows up in n replies, so each reply stands
    // for 1/n of a batch.
    let batches: f64 = facts.iter().map(|f| 1.0 / f.batch_size as f64).sum();
    let share = |size: usize| {
        facts.iter().filter(|f| f.batch_size == size).count() as f64 / size as f64 / batches
    };
    out.put("runtime.batch_size_mean", facts.len() as f64 / batches);
    out.put("runtime.full_batch_share", share(LANES));
    out.put("runtime.single_frame_batch_share", share(1));
}

/// Median service time of the requests that rode a full batch.
fn full_batch_service_ms(region: &Region) -> Option<f64> {
    let service: Vec<f64> = region
        .of(0)
        .iter()
        .filter_map(|s| s.reply)
        .filter(|f| f.batch_size == LANES)
        .map(|f| f.served_ms - f.queue_wait_ms)
        .collect();
    (!service.is_empty()).then(|| median(&service))
}

/// Runtime frames/s ÷ direct `run_batch` frames/s on a replica with the
/// runtime's own thread budget, in alternating one-second stretches of
/// one process, so the container's drift cancels in the ratio.
fn efficiency_vs_engine(
    fixture: &Fixture,
    clients: usize,
    seed: u64,
    tally: &mut Tally,
) -> BenchResult<f64> {
    const ROUNDS: u64 = 3;
    let stretch = Duration::from_secs(1);
    let tenant = &fixture.tenants[0];
    let System::Served(runtime) = &fixture.system else {
        return Ok(0.0);
    };
    let mut direct = tenant.built.model.instantiate_batched(LANES)?;
    let fps = |region: &Region| {
        region.samples.iter().map(|s| f64::from(s.good_frames)).sum::<f64>() / region.wall_s()
    };
    let (mut served_fps, mut direct_fps) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        let rng = &mut phase_rng(seed, 10 + round);
        let served = load::closed_region(runtime, tenant, clients, rng, stretch, false);
        let engine =
            load::engine_region(&mut direct, &tenant.pool, tenant.timesteps, rng, stretch, |_| {});
        for region in [&served, &engine] {
            tally.add_region(region);
        }
        served_fps.push(fps(&served));
        direct_fps.push(fps(&engine));
    }
    Ok(median(&served_fps) / median(&direct_fps))
}

/// The highest of a few fixed rates of the reported tenant alone at
/// which at least 95% of the requests meet the limit and the backlog
/// has drained by the end of the step. Quantised, so informational.
fn max_rate_ok(fixture: &Fixture, seed: u64, tally: &mut Tally) -> f64 {
    const RATES: [f64; 5] = [20.0, 40.0, 80.0, 160.0, 320.0];
    const STEP_S: f64 = 1.5;
    let System::Served(runtime) = &fixture.system else {
        return 0.0;
    };
    let mut best = 0.0;
    for (step, rate) in RATES.into_iter().enumerate() {
        let rng = &mut phase_rng(seed, 20 + step as u64);
        let schedule = [load::poisson_schedule(rng, rate, STEP_S)];
        let span = Duration::from_secs_f64(STEP_S);
        let region = load::open_region(runtime, &fixture.tenants[..1], &schedule, rng, span, false);
        tally.add_region(&region);
        let samples: Vec<&Sample> = region.samples.iter().collect();
        let drained = region.wall_s() <= STEP_S + fixture.workload.slo_ms / 1e3;
        if slo_met_share(&samples, fixture.workload.slo_ms) < 0.95 || !drained {
            break;
        }
        best = rate;
    }
    best
}
