//! The cycle-level functional simulator (§V of the paper).
//!
//! The paper validates a cycle-level functional simulator against RTL and
//! uses it for every result beyond MNIST-MLP. [`BatchSim`] plays that
//! role here: it executes a compiled program — per-tile, per-cycle
//! Table I atomic operations — on the `shenjing-hw` component models
//! (crossbars, registers, adders, IF logic), timestep by timestep, up to
//! `B` frames per pass over the static schedule. [`CycleSim`] is its
//! single-frame front.
//!
//! There is one production path and one oracle. [`oracle::OracleSim`]
//! runs the same program one frame at a time on the scalar, per-register
//! chip model, and [`equivalence::verify_lanes`] states the only
//! hardware-equivalence property there is: *lane `i` of a batched pass ≡
//! the oracle's run of frame `i`* — outputs, per-tile state digests,
//! errors with their source cycle.
//!
//! The simulator's defining obligation is **bit-exact agreement with the
//! abstract SNN model**: the paper's Table IV shows identical accuracy
//! for "Abstract SNN" and "Shenjing", because the PS NoCs add partial
//! sums exactly. [`equivalence::verify`] makes that claim an executable
//! check — it runs the same frames through both models and compares
//! every output spike of every timestep.
//!
//! # Example
//!
//! ```
//! use shenjing_core::ArchSpec;
//! use shenjing_mapper::Mapper;
//! use shenjing_nn::{LayerSpec, Network, Tensor};
//! use shenjing_sim::CycleSim;
//! use shenjing_snn::{convert, ConversionOptions};
//!
//! let mut ann = Network::from_specs(
//!     &[LayerSpec::dense(8, 4), LayerSpec::relu(), LayerSpec::dense(4, 2)],
//!     1,
//! )?;
//! let calib = vec![Tensor::from_vec(vec![8], vec![0.5; 8])?];
//! let mut snn = convert(&mut ann, &calib, &ConversionOptions::default())?;
//!
//! let arch = ArchSpec::tiny();
//! let mapping = Mapper::new(arch.clone()).map(&snn)?;
//! let mut sim = CycleSim::new(&arch, &mapping.logical, &mapping.program)?;
//!
//! let hw_out = sim.run_frame(&calib[0], 10)?;
//! let abstract_out = snn.run(&calib[0], 10)?;
//! assert_eq!(hw_out.spike_counts, abstract_out.spike_counts);
//! # Ok::<(), shenjing_core::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cycle_sim;
pub mod equivalence;
pub mod fault;
mod io;
pub mod optimize;
pub mod oracle;
pub mod trace;

pub use batch::BatchSim;
pub use cycle_sim::{CycleSim, DecodedProgram};
pub use equivalence::{verify, verify_lanes, EquivalenceReport};
pub use fault::{inject, inject_mapping, Fault};
pub use optimize::OptimizeStats;
pub use oracle::OracleSim;
// `BatchSim`'s occupancy API speaks in terms of the hardware crate's
// lane set; re-exported so downstream crates need not depend on
// `shenjing-hw` to name it.
pub use shenjing_hw::LaneSet;
pub use trace::{
    compare_traces, digest_batch_chip, digest_batch_lane, digest_chip, trace_block, Divergence,
    StateDigest,
};
