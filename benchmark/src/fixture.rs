//! Set-up: the four workloads, the models they run, and the oracle
//! tables every reply is compared with.
//!
//! What repeats exactly is made to repeat exactly: the models and the
//! 160-frame evaluation set come from fixed seeds, so `accuracy`, the
//! `model_*` metrics and the activity counts are the same in every run.
//! Only the inputs of the warm-up and the timed region — the frame pool
//! and the arrival schedule — come from `--seed`.

use std::time::{Duration, Instant};

use shenjing::datasets::{flatten_images, LabelledImage};
use shenjing::mapper::Mapping;
use shenjing::prelude::*;
use shenjing::snn::{convert, snn_from_specs, SnnOutput};
use shenjing::{compile, map_logical, place};

use crate::spans::Recorder;
use crate::BenchResult;

/// Frames in the fixed evaluation set and in the seeded pool.
pub const SET_FRAMES: usize = 160;
/// Lanes of every batched replica, and the runtime's `max_batch`.
pub const LANES: usize = 16;
/// Seeds of `examples/mnist_mlp.rs`, so the MLP is the repo's own.
const TRAIN_DATA_SEED: u64 = 2026;
const ANN_INIT_SEED: u64 = 5;
const SGD_SHUFFLE_SEED: u64 = 11;
/// Seed of the fixed evaluation set (disjoint from the training stream).
const EVAL_SEED: u64 = 99;
/// Weight seed of the CNN (training it panics today; see README.md).
const CNN_WEIGHT_SEED: u64 = 7;

/// How a workload loads the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// One caller, `run_batch` of 16 frames back to back.
    Engine,
    /// `clients` requests always outstanding against the runtime.
    Closed { clients: usize },
    /// Arrivals on a schedule: the reported tenant at `rps`, plus a heavy
    /// best-effort CNN tenant at `heavy_rps` and `heavy_timesteps`.
    Open { rps: f64, heavy_rps: f64, heavy_timesteps: u32 },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload is in the benchmark (`BENCHMARK.json`'s `why`).
    pub why: &'static str,
    /// The model whose frames are reported.
    pub primary: NetworkKind,
    /// Spike-train length of the primary model's frames.
    pub timesteps: u32,
    /// Latency limit of one operation, for `slo_met_share`.
    pub slo_ms: f64,
    pub drive: Drive,
}

/// The four workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mlp-engine",
        why: "Paper's 10-core MLP, runtime bypassed; ACC-bound, so core-kernel and frame-loop changes show and NoC ones do not",
        primary: NetworkKind::MnistMlp,
        timesteps: 20,
        slo_ms: 100.0,
        drive: Drive::Engine,
    },
    Workload {
        name: "cnn-engine",
        why: "680-core 2-chip CNN; SEND/transfer-bound, so router, schedule and worker-pool changes show and must leave mlp-engine flat",
        primary: NetworkKind::MnistCnn,
        timesteps: 4,
        slo_ms: 500.0,
        drive: Drive::Engine,
    },
    Workload {
        name: "serve-closed",
        why: "Always a full batch waiting, so the gap to mlp-engine is the serving tier's steady-state cost",
        primary: NetworkKind::MnistMlp,
        timesteps: 20,
        slo_ms: 250.0,
        drive: Drive::Closed { clients: 32 },
    },
    Workload {
        name: "serve-open",
        why: "Poisson MLP stream beside a heavy CNN tenant: single-frame batches, max_wait, priority and head-of-line blocking",
        primary: NetworkKind::MnistMlp,
        timesteps: 20,
        slo_ms: 100.0,
        drive: Drive::Open { rps: 12.0, heavy_rps: 0.5, heavy_timesteps: 4 },
    },
];

/// A model taken through the whole toolchain.
pub struct Built {
    pub kind: NetworkKind,
    /// The trained ANN (the MLP only; the CNN has seeded SNN weights).
    pub ann: Option<Network>,
    pub snn: SnnNetwork,
    pub mapping: Mapping,
    pub model: CompiledModel,
}

fn images(kind: NetworkKind, seed: u64, n: usize) -> Vec<LabelledImage> {
    let images = SynthDigits::new(seed).generate(n);
    match kind {
        NetworkKind::MnistMlp => flatten_images(&images),
        _ => images,
    }
}

/// dataset → train → convert → map → `CompiledModel::from_mapping`, each
/// step a child span of `parent`. The mapper's three phases are called
/// one by one (they are all `Mapper::map` does) so each gets its span;
/// an untraced run takes the same path with the recorder switched off.
pub fn build(
    kind: NetworkKind,
    rec: &mut Recorder,
    parent: Option<usize>,
    op: u64,
) -> Result<Built> {
    let arch = ArchSpec::paper();
    let (ann, snn) = match kind {
        NetworkKind::MnistMlp => {
            // The first 480 images of the example's 600-image set: its
            // positional 80% training split.
            let train =
                rec.time("datasets.generate", parent, op, || images(kind, TRAIN_DATA_SEED, 480));
            let mut ann = rec.time("nn.train", parent, op, || -> Result<Network> {
                let mut ann = Network::from_specs(&kind.specs(), ANN_INIT_SEED)?;
                Sgd::new(0.01, 4, SGD_SHUFFLE_SEED).train(&mut ann, &train)?;
                Ok(ann)
            })?;
            let snn = rec.time("snn.convert", parent, op, || {
                let calib: Vec<Tensor> = train.iter().take(24).map(|(x, _)| x.clone()).collect();
                convert(&mut ann, &calib, &ConversionOptions::default())
            })?;
            (Some(ann), snn)
        }
        _ => {
            let snn = rec.time("snn.convert", parent, op, || {
                snn_from_specs(&kind.specs(), kind.input_shape(), CNN_WEIGHT_SEED)
            })?;
            (None, snn)
        }
    };
    let logical = rec.time("mapper.map_logical", parent, op, || map_logical(&arch, &snn))?;
    let placement =
        rec.time("mapper.place", parent, op, || place(&arch, &logical, PlacementStrategy::Greedy))?;
    let program =
        rec.time("mapper.compile", parent, op, || compile(&arch, &snn, &logical, &placement))?;
    let mapping = Mapping { logical, placement, program };
    let model = rec.time("runtime.from_mapping", parent, op, || {
        CompiledModel::from_mapping(&arch, &mapping)
    })?;
    Ok(Built { kind, ann, snn, mapping, model })
}

/// Frames with the abstract SNN's output for each: the table replies
/// are checked against.
pub struct Oracle {
    pub frames: Vec<Tensor>,
    pub labels: Vec<usize>,
    pub outputs: Vec<SnnOutput>,
    /// Host time of each `SnnNetwork::run`, in microseconds.
    pub run_us: Vec<f64>,
}

impl Oracle {
    /// Runs every image through the abstract SNN.
    pub fn new(snn: &mut SnnNetwork, images: Vec<LabelledImage>, timesteps: u32) -> Result<Oracle> {
        let mut oracle = Oracle { frames: vec![], labels: vec![], outputs: vec![], run_us: vec![] };
        for (frame, label) in images {
            let started = Instant::now();
            oracle.outputs.push(snn.run(&frame, timesteps)?);
            oracle.run_us.push(started.elapsed().as_secs_f64() * 1e6);
            oracle.frames.push(frame);
            oracle.labels.push(label);
        }
        Ok(oracle)
    }

    /// Whether `got` is the expected output of frame `index`.
    pub fn matches(&self, index: usize, got: &SnnOutput) -> bool {
        self.outputs[index] == *got
    }
}

/// A model as one workload uses it.
pub struct Tenant {
    /// Its id in the runtime's registry.
    pub id: &'static str,
    pub built: Built,
    pub timesteps: u32,
    /// The fixed evaluation set (`accuracy`, verification phase).
    pub eval: Oracle,
    /// The seeded pool the warm-up and the timed region draw from.
    pub pool: Oracle,
}

impl Tenant {
    /// Builds both oracle tables with the model's abstract SNN.
    fn new(id: &'static str, mut built: Built, timesteps: u32, seed: u64) -> Result<Tenant> {
        let eval =
            Oracle::new(&mut built.snn, images(built.kind, EVAL_SEED, SET_FRAMES), timesteps)?;
        let pool = Oracle::new(&mut built.snn, images(built.kind, seed, SET_FRAMES), timesteps)?;
        Ok(Tenant { id, built, timesteps, eval, pool })
    }
}

/// The system under test, stood up.
pub enum System {
    Engine(Box<BatchSim>),
    Served(Runtime),
}

/// Everything one run needs.
pub struct Fixture {
    pub workload: Workload,
    /// The reported tenant first; `serve-open` adds the heavy one.
    pub tenants: Vec<Tenant>,
    pub system: System,
    /// dataset → … → first answer, in seconds.
    pub setup_s: f64,
    /// Whether that first answer was the oracle's.
    pub first_answer_ok: bool,
}

/// The id of the reported tenant, and of the heavy one.
pub const PRIMARY_ID: &str = "primary";
pub const HEAVY_ID: &str = "heavy";

/// The serving configuration of both `serve-*` workloads. One worker
/// plus one load generator is `nproc` threads on the 2-CPU container;
/// with two workers the same loop's throughput spread ±10%.
pub fn runtime_config(timesteps: u32) -> Result<RuntimeConfig> {
    RuntimeConfig::builder()
        .workers(1)
        .max_batch(LANES)
        .timesteps(timesteps)
        .queue_depth(1024)
        .build()
}

impl Fixture {
    /// Stands the workload's system up from nothing, timing it until the
    /// first answer, then builds the oracle tables (harness work, outside
    /// `setup_s`) and checks that answer. Set-up is one traced operation.
    pub fn stand_up(workload: Workload, seed: u64, rec: &mut Recorder) -> BenchResult<Fixture> {
        let op = rec.new_op();
        let root = rec.open("op.setup", None, op);
        let started = Instant::now();
        let kind = workload.primary;
        let first = rec.time("datasets.generate", Some(root), op, || {
            images(kind, EVAL_SEED, SET_FRAMES).swap_remove(0).0
        });
        let primary = build(kind, rec, Some(root), op)?;
        let heavy = match workload.drive {
            Drive::Open { heavy_timesteps, .. } => {
                Some((build(NetworkKind::MnistCnn, rec, Some(root), op)?, heavy_timesteps))
            }
            _ => None,
        };
        let (system, first_answer) = match workload.drive {
            Drive::Engine => {
                let mut sim = rec.time("sim.instantiate_batched", Some(root), op, || {
                    primary.model.instantiate_batched(LANES)
                })?;
                let answer = rec.time("sim.run_batch", Some(root), op, || {
                    sim.run_batch(std::slice::from_ref(&first), workload.timesteps)
                })?;
                (System::Engine(Box::new(sim)), answer.into_iter().next())
            }
            Drive::Closed { .. } | Drive::Open { .. } => {
                let runtime =
                    rec.time("runtime.serve", Some(root), op, || -> Result<Runtime> {
                        let mut registry = ModelRegistry::new().with_model(
                            PRIMARY_ID,
                            primary.model.clone(),
                            ServeOptions::default().with_priority(2),
                        )?;
                        if let Some((heavy, timesteps)) = &heavy {
                            registry.register(
                                HEAVY_ID,
                                heavy.model.clone(),
                                ServeOptions::default().with_timesteps(*timesteps),
                            )?;
                        }
                        Runtime::serve(registry, runtime_config(workload.timesteps)?)
                    })?;
                let answer = rec.time("runtime.first_answer", Some(root), op, || {
                    runtime.submit(InferenceRequest::new(PRIMARY_ID, first.clone()))?.wait()
                })?;
                (System::Served(runtime), Some(answer.output))
            }
        };
        let setup_s = started.elapsed().as_secs_f64();
        rec.close(root);

        let mut tenants = vec![Tenant::new(PRIMARY_ID, primary, workload.timesteps, seed)?];
        if let Some((heavy, timesteps)) = heavy {
            tenants.push(Tenant::new(HEAVY_ID, heavy, timesteps, seed)?);
        }
        let first_answer_ok = first_answer.is_some_and(|a| tenants[0].eval.matches(0, &a));
        Ok(Fixture { workload, tenants, system, setup_s, first_answer_ok })
    }

    /// The reported tenant.
    pub fn primary(&self) -> &Tenant {
        &self.tenants[0]
    }

    /// Stops the system and hands the models back; a served system also
    /// reports its shutdown.
    pub fn tear_down(self) -> BenchResult<(Vec<Tenant>, Option<Shutdown>)> {
        let shutdown = match self.system {
            System::Engine(_) => None,
            System::Served(runtime) => {
                let started = Instant::now();
                let stats = runtime.shutdown()?;
                Some(Shutdown { stats, took: started.elapsed() })
            }
        };
        Ok((self.tenants, shutdown))
    }
}

/// `Runtime::shutdown`: the final statistics and how long it took.
pub struct Shutdown {
    pub stats: RuntimeStats,
    pub took: Duration,
}
