//! # Shenjing — reproduction of the DATE 2020 neuromorphic accelerator
//!
//! A full, from-scratch Rust reproduction of *"Shenjing: A low power
//! reconfigurable neuromorphic accelerator with partial-sum and spike
//! networks-on-chip"* (Wang, Zhou, Wong, Peh — DATE 2020).
//!
//! Shenjing maps **trained ANNs onto spiking hardware with zero mapping
//! loss**: when a layer spans several 256×256 cores, per-neuron
//! *partial-sum NoCs* add the cores' partial weighted sums exactly,
//! in-network, before the integrate-and-fire decision — where prior
//! architectures re-thresholded per core and lost information. All
//! communication is compiled ahead of time into per-cycle configuration
//! words; the routers have no buffers, no flow control and no routing
//! logic.
//!
//! ## Workspace tour
//!
//! | crate | role |
//! |---|---|
//! | [`core`] | shared vocabulary: coordinates, 5/13/16-bit fixed point, [`ArchSpec`] |
//! | [`hw`] | the microarchitecture of Fig. 2: neuron cores, PS routers, spike routers, tiles, chips, Table I control words |
//! | [`nn`] | from-scratch ANN substrate + the Table III model zoo |
//! | [`snn`] | ANN→SNN conversion (Cao-style normalization, 5-bit quantization) and the abstract integer SNN simulator |
//! | [`mapper`] | the Fig. 3 toolchain: logical splitting (Algorithm 1 folds, Fig. 4 conv tiling), placement, cycle-by-cycle compilation |
//! | [`sim`] | the cycle-level functional simulator (single-frame and batched) + bit-exact equivalence checking |
//! | [`runtime`] | the multi-model serving tier: a model registry with per-model SLOs, admission control, deadline-aware batching scheduler, worker shards, a JSON request codec, per-model latency/throughput stats |
//! | [`telemetry`] | the observability layer: atomic counters/gauges/timing histograms, sampled request-lifecycle spans with engine phase profiles, Chrome-trace and Prometheus exporters |
//! | [`power`] | Table II energies, the Fig. 5 tile model, Table IV estimation, §IV area |
//! | [`datasets`] | deterministic synthetic MNIST/CIFAR stand-ins |
//! | [`baselines`] | block-level spike aggregation (TrueNorth-style) and Table V data |
//!
//! ## End-to-end pipeline
//!
//! ```
//! use shenjing::prelude::*;
//!
//! // 1. Train a small ANN on synthetic digits.
//! let data = SynthDigits::new(7).generate(60);
//! let data: Vec<_> = shenjing::datasets::flatten_images(&data);
//! let mut ann = Network::from_specs(
//!     &[LayerSpec::dense(784, 32), LayerSpec::relu(), LayerSpec::dense(32, 10)],
//!     1,
//! )?;
//! Sgd::new(0.02, 2, 3).train(&mut ann, &data)?;
//!
//! // 2. Convert to an abstract SNN.
//! let calib: Vec<_> = data.iter().take(10).map(|(x, _)| x.clone()).collect();
//! let mut snn = convert(&mut ann, &calib, &ConversionOptions::default())?;
//!
//! // 3. Map onto the accelerator and simulate cycle by cycle.
//! let arch = ArchSpec::paper();
//! let mapping = Mapper::new(arch.clone()).map(&snn)?;
//! let mut sim = CycleSim::new(&arch, &mapping.logical, &mapping.program)?;
//!
//! // 4. The mapped hardware reproduces the abstract SNN bit for bit.
//! let report = shenjing::sim::verify(&mut snn, &mut sim, &calib[..2], 8)?;
//! assert!(report.is_exact());
//! # Ok::<(), shenjing_core::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use shenjing_baselines as baselines;
pub use shenjing_core as core;
pub use shenjing_datasets as datasets;
pub use shenjing_hw as hw;
pub use shenjing_mapper as mapper;
pub use shenjing_nn as nn;
pub use shenjing_power as power;
pub use shenjing_runtime as runtime;
pub use shenjing_sim as sim;
pub use shenjing_snn as snn;
pub use shenjing_telemetry as telemetry;

pub use shenjing_core::ArchSpec;
// The mapper's phase entry points, re-exported so downstream code (and
// the workspace's own benches) never depends on the internal crates.
pub use shenjing_mapper::{compile, map_logical, place};

/// The most commonly needed items, for `use shenjing::prelude::*`.
pub mod prelude {
    pub use shenjing_core::{
        ArchSpec, CoreCoord, Direction, Error, NocSum, RejectReason, Result, W5,
    };
    pub use shenjing_datasets::{SynthCifar, SynthDigits};
    pub use shenjing_mapper::{map_logical, place, Mapper, Mapping, PlacementStrategy};
    pub use shenjing_nn::{LayerSpec, Network, NetworkKind, Sgd, Tensor};
    pub use shenjing_power::{AreaBudget, EnergyModel, SystemEstimate, TileModel};
    #[cfg(feature = "chaos")]
    pub use shenjing_runtime::ChaosConfig;
    pub use shenjing_runtime::{
        CompiledModel, Engine, InferenceReply, InferenceRequest, ModelRegistry, ModelStats,
        Runtime, RuntimeConfig, RuntimeConfigBuilder, RuntimeStats, ServeOptions, WorkerHealth,
    };
    pub use shenjing_sim::{BatchSim, CycleSim};
    pub use shenjing_snn::{convert, ConversionOptions, SnnNetwork};
    pub use shenjing_telemetry::Telemetry;
}
