//! ANN→SNN conversion and the abstract spiking network model.
//!
//! The paper's central workflow is: take a *trained ANN*, convert it to an
//! "abstract SNN model" (rate-coded, integrate-and-fire), and map that SNN
//! onto Shenjing hardware **without any accuracy loss in the mapping step**
//! (Table IV: the "Abstract SNN Accu." and "Shenjing Accu." rows are
//! identical). This crate provides the first two stages:
//!
//! * [`convert()`](convert()) — rate-based conversion after Cao et al. (the paper's
//!   reference \[6\]): data-based weight normalization so activations map to
//!   spike rates in `[0, 1]`, then symmetric 5-bit quantization to the
//!   hardware weight format with per-layer integer thresholds. ResNet
//!   shortcuts get the paper's `diag(λ)` normalization layer folded into
//!   the residual tail's integration (§III "Mapping ResNet shortcuts").
//! * [`SnnNetwork`] — the abstract SNN simulator: deterministic rate-coded
//!   inputs, integer weighted sums, threshold-subtract IF dynamics. All
//!   arithmetic is integer and identical to what the mapped hardware
//!   computes, which is what makes the zero-loss mapping claim *testable*:
//!   the cycle-level simulation must reproduce these spikes bit for bit.
//!
//! # Example
//!
//! ```
//! use shenjing_nn::{Network, LayerSpec, Tensor};
//! use shenjing_snn::{convert, ConversionOptions};
//!
//! let mut ann = Network::from_specs(
//!     &[LayerSpec::dense(4, 8), LayerSpec::relu(), LayerSpec::dense(8, 2)],
//!     7,
//! )?;
//! let calib = vec![Tensor::from_vec(vec![4], vec![0.2, 0.8, 0.0, 0.5])?];
//! let mut snn = convert(&mut ann, &calib, &ConversionOptions::default())?;
//! let out = snn.run(&calib[0], 20)?;
//! assert_eq!(out.spike_counts.len(), 2);
//! # Ok::<(), shenjing_core::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convert;
pub mod encode;
pub mod layer;
pub mod network;
pub mod synthetic;

pub use convert::{convert, convert_with_report, ConversionOptions, ConversionReport};
pub use encode::RateEncoder;
pub use layer::{SnnLayer, SpikingConv, SpikingDense, SpikingPool, SpikingResidual};
pub use network::{ActivityStats, SnnNetwork, SnnOutput};
pub use synthetic::snn_from_specs;
