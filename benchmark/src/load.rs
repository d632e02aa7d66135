//! The load generators: one closed loop on the engine, one closed and
//! one open loop on the runtime. Each returns a [`Region`] of samples;
//! every reply in it has already been compared with the oracle.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use shenjing::prelude::*;
use shenjing::runtime::{wire, PendingReply};

use crate::fixture::{Oracle, Tenant, LANES};

/// SplitMix64: the benchmark's own generator, so its inputs do not
/// change with the stream of the workspace's `rand` stand-in.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }
}

/// Arrival offsets, in seconds, of a Poisson stream of `rps` over
/// `span_s`, conditioned on its expected count: given their number,
/// Poisson arrivals are independent uniforms, so the schedule is as
/// bursty as the unconditioned process while every run offers exactly
/// `round(rps × span_s)` requests — `throughput_fps` then measures the
/// system and not the draw.
pub fn poisson_schedule(rng: &mut SplitMix64, rps: f64, span_s: f64) -> Vec<f64> {
    let n = (rps * span_s).round() as usize;
    let mut at: Vec<f64> = (0..n).map(|_| rng.next_f64() * span_s).collect();
    at.sort_by(f64::total_cmp);
    at
}

/// What the runtime said about one answered request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplyFacts {
    pub queue_wait_ms: f64,
    /// The runtime's own enqueue → reply time.
    pub served_ms: f64,
    pub batch_size: usize,
}

/// Instants of the calls one traced request made, for its spans.
#[derive(Debug, Clone, Copy)]
pub struct Marks {
    pub encode: Instant,
    pub decode: Instant,
    pub submit: Instant,
    pub submitted: Instant,
}

/// One operation: a 16-frame pass, or one request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the fixture's tenants: 0 is the reported one.
    pub tenant: usize,
    /// When it was due (open loop) or started (closed loop).
    pub due: Instant,
    pub done: Instant,
    /// Frames answered correctly.
    pub good_frames: u32,
    /// Answered, and every frame equal to the oracle's.
    pub ok: bool,
    pub reply: Option<ReplyFacts>,
    pub marks: Option<Marks>,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// One phase of a run.
#[derive(Debug, Clone)]
pub struct Region {
    pub start: Instant,
    pub end: Instant,
    pub samples: Vec<Sample>,
    /// How late the open-loop generator sent each request, ms.
    pub gen_late_ms: Vec<f64>,
    /// Process CPU time the region used, seconds.
    pub cpu_s: f64,
}

impl Region {
    pub fn wall_s(&self) -> f64 {
        self.end.saturating_duration_since(self.start).as_secs_f64()
    }

    /// Samples of one tenant.
    pub fn of(&self, tenant: usize) -> Vec<&Sample> {
        self.samples.iter().filter(|s| s.tenant == tenant).collect()
    }
}

/// Process CPU time (user + system) so far, in seconds.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks; Linux fixes
    // USER_HZ at 100. The command name (field 2) may hold spaces, so
    // count from its closing parenthesis.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit(')').next().unwrap_or("");
    let ticks: f64 =
        after.split_whitespace().skip(11).take(2).filter_map(|t| t.parse::<f64>().ok()).sum();
    ticks / 100.0
}

/// Back-to-back 16-frame `run_batch` passes for `duration` (at least
/// one). `on_pass` sees each pass's `(inputs, run, check)` instants.
pub fn engine_region(
    sim: &mut BatchSim,
    oracle: &Oracle,
    timesteps: u32,
    rng: &mut SplitMix64,
    duration: Duration,
    mut on_pass: impl FnMut([Instant; 4]),
) -> Region {
    let start = Instant::now();
    let cpu = cpu_seconds();
    let mut samples = Vec::new();
    loop {
        let t_inputs = Instant::now();
        let picks: Vec<usize> = (0..LANES).map(|_| rng.below(oracle.frames.len())).collect();
        let inputs: Vec<Tensor> = picks.iter().map(|&i| oracle.frames[i].clone()).collect();
        let t_run = Instant::now();
        let result = sim.run_batch(&inputs, timesteps);
        let t_check = Instant::now();
        let good_frames = match &result {
            Ok(outputs) if outputs.len() == picks.len() => {
                picks.iter().zip(outputs).filter(|(&i, out)| oracle.matches(i, out)).count()
            }
            _ => 0,
        };
        let t_end = Instant::now();
        samples.push(Sample {
            tenant: 0,
            due: t_run,
            done: t_check,
            good_frames: good_frames as u32,
            ok: good_frames == LANES,
            reply: None,
            marks: None,
        });
        on_pass([t_inputs, t_run, t_check, t_end]);
        if start.elapsed() >= duration {
            break;
        }
    }
    Region { start, end: Instant::now(), samples, gen_late_ms: vec![], cpu_s: cpu_seconds() - cpu }
}

/// A request in flight.
struct InFlight {
    pending: Result<PendingReply>,
    tenant: usize,
    frame: usize,
    due: Instant,
    marks: Marks,
}

/// Submits `frame` to model `id` the way a remote client would: through
/// the wire format both ways, then `submit`. Returns the instants of the
/// three calls with the handle.
pub fn request(runtime: &Runtime, id: &str, frame: &Tensor) -> (Result<PendingReply>, Marks) {
    let encode = Instant::now();
    let encoded = wire::encode_request(&InferenceRequest::new(id, frame.clone()));
    let decode = Instant::now();
    let decoded = encoded.and_then(|json| wire::decode_request(&json));
    let submit = Instant::now();
    let pending = decoded.and_then(|request| runtime.submit(request));
    (pending, Marks { encode, decode, submit, submitted: Instant::now() })
}

/// Sends pool frame `frame` of `tenants[index]`.
fn send(runtime: &Runtime, tenant: &Tenant, index: usize, frame: usize, due: Instant) -> InFlight {
    let (pending, marks) = request(runtime, tenant.id, &tenant.pool.frames[frame]);
    InFlight { pending, tenant: index, frame, due, marks }
}

/// Waits for the reply and checks it; a refusal, an error or a wrong
/// answer is a failed operation.
fn settle(flight: InFlight, oracle: &Oracle, keep_marks: bool) -> Sample {
    let reply = flight.pending.and_then(PendingReply::wait);
    let done = Instant::now();
    let ok = reply.as_ref().is_ok_and(|r| oracle.matches(flight.frame, &r.output));
    Sample {
        tenant: flight.tenant,
        due: flight.due,
        done,
        good_frames: u32::from(ok),
        ok,
        reply: reply.ok().map(|r| ReplyFacts {
            queue_wait_ms: r.queue_wait.as_secs_f64() * 1e3,
            served_ms: r.latency.as_secs_f64() * 1e3,
            batch_size: r.batch_size,
        }),
        marks: keep_marks.then_some(flight.marks),
    }
}

/// `clients` requests always outstanding for `duration`: each reply is
/// awaited in submission order (the single worker answers in that order)
/// and replaced by a new request until the time is up.
pub fn closed_region(
    runtime: &Runtime,
    tenant: &Tenant,
    clients: usize,
    rng: &mut SplitMix64,
    duration: Duration,
    keep_marks: bool,
) -> Region {
    let start = Instant::now();
    let cpu = cpu_seconds();
    let mut in_flight = VecDeque::new();
    let mut samples = Vec::new();
    let submit = |rng: &mut SplitMix64| {
        send(runtime, tenant, 0, rng.below(tenant.pool.frames.len()), Instant::now())
    };
    for _ in 0..clients {
        in_flight.push_back(submit(rng));
    }
    while let Some(flight) = in_flight.pop_front() {
        samples.push(settle(flight, &tenant.pool, keep_marks));
        if start.elapsed() < duration {
            in_flight.push_back(submit(rng));
        }
    }
    Region { start, end: Instant::now(), samples, gen_late_ms: vec![], cpu_s: cpu_seconds() - cpu }
}

/// Sleeps until `due`, spinning over the last stretch so the generator
/// is late by microseconds and not by a scheduler tick.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    loop {
        let left = due.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Sends every tenant's requests at their scheduled offsets, whatever
/// the system's state; latency counts from each request's due time. One
/// collector thread per tenant awaits its replies in order (within a
/// tenant the single worker answers in order), so a slow heavy reply
/// never delays the observation of a light one.
pub fn open_region(
    runtime: &Runtime,
    tenants: &[Tenant],
    schedules: &[Vec<f64>],
    rng: &mut SplitMix64,
    span: Duration,
    keep_marks: bool,
) -> Region {
    let mut arrivals: Vec<(f64, usize)> = schedules
        .iter()
        .enumerate()
        .flat_map(|(tenant, at)| at.iter().map(move |&t| (t, tenant)))
        .collect();
    arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));

    let cpu = cpu_seconds();
    let start = Instant::now();
    let mut gen_late_ms = Vec::with_capacity(arrivals.len());
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let (senders, collectors): (Vec<_>, Vec<_>) = tenants
            .iter()
            .map(|tenant| {
                let (tx, rx) = mpsc::channel::<InFlight>();
                let collector = scope.spawn(move || {
                    rx.into_iter()
                        .map(|flight| settle(flight, &tenant.pool, keep_marks))
                        .collect::<Vec<Sample>>()
                });
                (tx, collector)
            })
            .unzip();
        for (offset, index) in arrivals {
            let due = start + Duration::from_secs_f64(offset);
            wait_until(due);
            gen_late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            let tenant = &tenants[index];
            let flight = send(runtime, tenant, index, rng.below(tenant.pool.frames.len()), due);
            senders[index].send(flight).expect("collector outlives the generator");
        }
        drop(senders);
        collectors
            .into_iter()
            .flat_map(|c| c.join().expect("collector thread does not panic"))
            .collect()
    });
    samples.sort_by_key(|s| s.due);
    // An open-loop region lasts its whole schedule, and longer only if
    // the system fell behind.
    let end = (start + span).max(Instant::now());
    Region { start, end, samples, gen_late_ms, cpu_s: cpu_seconds() - cpu }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Metrics, Tally};
    use crate::report::result_line;
    use shenjing::core::W5;
    use shenjing::snn::{SnnLayer, SpikingDense};

    /// A 4-input, 2-output network on the tiny architecture, with the
    /// oracle table of 32 random frames.
    fn tiny() -> (BatchSim, Oracle) {
        let layer = SpikingDense::new(vec![W5::new(3).unwrap(); 8], 4, 2, 5, 1.0).unwrap();
        let mut snn = SnnNetwork::new(vec![SnnLayer::Dense(layer)]).unwrap();
        let model = CompiledModel::compile(&ArchSpec::tiny(), &snn).unwrap();
        let mut rng = SplitMix64::new(1);
        let images = (0..32)
            .map(|k| {
                let pixels = (0..4).map(|_| rng.next_f64()).collect();
                (Tensor::from_vec(vec![4], pixels).unwrap(), k % 2)
            })
            .collect();
        let oracle = Oracle::new(&mut snn, images, 6).unwrap();
        (model.instantiate_batched(LANES).unwrap(), oracle)
    }

    fn tally_of(sim: &mut BatchSim, oracle: &Oracle) -> Tally {
        let rng = &mut SplitMix64::new(9);
        let region = engine_region(sim, oracle, 6, rng, Duration::from_millis(50), |_| {});
        let mut tally = Tally::default();
        tally.add_region(&region);
        tally
    }

    #[test]
    fn a_corrupted_oracle_entry_flips_correct_to_false() {
        let (mut sim, mut oracle) = tiny();
        let clean = tally_of(&mut sim, &oracle);
        assert!(clean.attempted >= 2 && clean.correct(), "{clean:?}");
        assert!(result_line(&clean, &Metrics::end_to_end()).contains("\"correct\": true"));

        oracle.outputs[5].spike_counts[0] += 1;
        let dirty = tally_of(&mut sim, &oracle);
        assert!(dirty.failed >= 1 && dirty.failed < dirty.attempted, "{dirty:?}");
        assert!(!dirty.correct());
        assert!(dirty.failed_share() > 0.0);
        assert!(result_line(&dirty, &Metrics::end_to_end()).contains("\"correct\": false"));
    }

    #[test]
    fn schedules_repeat_for_a_seed_and_differ_between_seeds() {
        let draw = |seed| poisson_schedule(&mut SplitMix64::new(seed), 12.0, 15.0);
        let a = draw(7);
        assert_eq!(a, draw(7));
        assert_ne!(a, draw(8));
        assert_eq!(a.len(), 180);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..15.0).contains(&t)));
    }

    #[test]
    fn schedule_gaps_look_exponential() {
        // For a Poisson stream the gaps' standard deviation equals their
        // mean; an evenly paced stream would have none.
        let at = poisson_schedule(&mut SplitMix64::new(3), 100.0, 100.0);
        let gaps: Vec<f64> = at.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.01).abs() < 0.001, "mean gap {mean}");
        assert!((var.sqrt() / mean - 1.0).abs() < 0.1, "cv {}", var.sqrt() / mean);
    }

    #[test]
    fn cpu_time_is_readable_and_monotone() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let started = Instant::now();
        while started.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() >= before + 0.03, "60 ms of spinning is at least 3 ticks");
    }
}
