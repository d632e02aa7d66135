//! Shared helpers for the table/figure reproduction binaries and the
//! Criterion benches.
//!
//! Each `repro_*` binary regenerates one table or figure of the paper;
//! see `EXPERIMENTS.md` at the repository root for the index and the
//! paper-vs-measured record.

#![forbid(unsafe_code)]

pub mod pair;

use shenjing::datasets::{flatten_images, train_test_split};
use shenjing::prelude::*;
use shenjing::snn::{convert, snn_from_specs};

/// A trained-and-converted MNIST-MLP pipeline, shared by several
/// reproductions (Fig. 1, Table IV, Table V).
pub struct MlpPipeline {
    /// The trained ANN.
    pub ann: Network,
    /// The converted abstract SNN.
    pub snn: SnnNetwork,
    /// Held-out test data (flattened).
    pub test: Vec<(Tensor, usize)>,
    /// ANN test accuracy.
    pub ann_accuracy: f64,
}

impl MlpPipeline {
    /// Trains the Table III(a) MLP on synthetic digits and converts it.
    ///
    /// # Panics
    ///
    /// Panics on internal pipeline errors (these binaries are harnesses,
    /// not libraries).
    pub fn build(train_images: usize, epochs: usize, seed: u64) -> MlpPipeline {
        let data = SynthDigits::new(seed).generate(train_images + 100);
        let split = train_images as f64 / (train_images + 100) as f64;
        let (train, test) = train_test_split(data, split);
        let train = flatten_images(&train);
        let test = flatten_images(&test);

        let mut ann = Network::from_specs(&NetworkKind::MnistMlp.specs(), seed).unwrap();
        Sgd::new(0.01, epochs, seed + 1).train(&mut ann, &train).unwrap();
        let ann_accuracy = shenjing::nn::train::accuracy(&mut ann, &test).unwrap();

        let calib: Vec<Tensor> = train.iter().take(24).map(|(x, _)| x.clone()).collect();
        let snn = convert(&mut ann, &calib, &ConversionOptions::default()).unwrap();
        MlpPipeline { ann, snn, test, ann_accuracy }
    }
}

/// Builds the synthetic (untrained-weights) SNN of a Table III benchmark,
/// for mapping-scale measurements.
///
/// # Panics
///
/// Panics on topology errors (would indicate a zoo bug).
pub fn synthetic_snn(kind: NetworkKind) -> SnnNetwork {
    snn_from_specs(&kind.specs(), kind.input_shape(), 7).unwrap()
}

/// Formats an optional float for table printing.
pub fn fmt_opt(v: Option<f64>, digits: usize) -> String {
    v.map(|x| format!("{x:.digits$}")).unwrap_or_else(|| "N.A.".into())
}
