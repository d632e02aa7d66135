//! The abstract SNN model: a stack of spiking layers driven by rate-coded
//! inputs.

use serde::{Deserialize, Serialize};
use shenjing_core::{Error, Result};
use shenjing_nn::Tensor;

use crate::encode::RateEncoder;
use crate::layer::SnnLayer;

/// The result of running one frame through the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnnOutput {
    /// Output spikes accumulated over the frame, per output neuron.
    pub spike_counts: Vec<u32>,
    /// Residual membrane potentials of the output layer after the frame
    /// (used as a deterministic tie-break).
    pub potentials: Vec<i64>,
    /// Output spikes per timestep: `spikes_by_step[t][i]`.
    pub spikes_by_step: Vec<Vec<bool>>,
}

impl SnnOutput {
    /// The predicted class: most output spikes, ties broken by residual
    /// potential, then by index.
    pub fn predicted_class(&self) -> usize {
        let mut best = 0usize;
        for i in 1..self.spike_counts.len() {
            let better = (self.spike_counts[i], self.potentials[i])
                > (self.spike_counts[best], self.potentials[best]);
            if better {
                best = i;
            }
        }
        best
    }
}

/// Spiking-activity statistics over one or more frames, feeding the
/// activity-based power model (the paper derives router/core op energies
/// from the "average number of spiking axons per core in each time step").
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ActivityStats {
    /// Per layer: total input spikes observed.
    pub input_spikes_per_layer: Vec<u64>,
    /// Per layer: total output spikes produced.
    pub output_spikes_per_layer: Vec<u64>,
    /// Timesteps simulated (across all frames).
    pub timesteps: u64,
    /// Frames simulated.
    pub frames: u64,
}

impl ActivityStats {
    /// Average fraction of a layer's inputs spiking per timestep.
    pub fn input_rate(&self, layer: usize, input_len: usize) -> f64 {
        if self.timesteps == 0 || input_len == 0 {
            return 0.0;
        }
        self.input_spikes_per_layer[layer] as f64 / (self.timesteps as f64 * input_len as f64)
    }
}

/// A complete abstract spiking network.
///
/// ```
/// use shenjing_core::W5;
/// use shenjing_snn::{SnnNetwork, SnnLayer, SpikingDense};
/// use shenjing_nn::Tensor;
///
/// let layer = SpikingDense::new(vec![W5::new(10)?, W5::new(-10)?], 1, 2, 5, 1.0)?;
/// let mut net = SnnNetwork::new(vec![SnnLayer::Dense(layer)])?;
/// let out = net.run(&Tensor::from_vec(vec![1], vec![1.0])?, 10)?;
/// assert_eq!(out.predicted_class(), 0);
/// # Ok::<(), shenjing_core::Error>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnnNetwork {
    layers: Vec<SnnLayer>,
    #[serde(skip)]
    activity: ActivityStats,
}

impl SnnNetwork {
    /// Wraps spiking layers, checking that adjacent dimensions agree.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] for inconsistent layer dimensions
    /// or [`Error::InvalidConfig`] for an empty stack.
    pub fn new(layers: Vec<SnnLayer>) -> Result<SnnNetwork> {
        if layers.is_empty() {
            return Err(Error::config("an SNN needs at least one layer"));
        }
        for pair in layers.windows(2) {
            if pair[0].output_len() != pair[1].input_len() {
                return Err(Error::shape_mismatch(
                    format!("{} spikes into next layer", pair[0].output_len()),
                    format!("{} expected", pair[1].input_len()),
                ));
            }
        }
        let n = layers.len();
        Ok(SnnNetwork {
            layers,
            activity: ActivityStats {
                input_spikes_per_layer: vec![0; n],
                output_spikes_per_layer: vec![0; n],
                ..Default::default()
            },
        })
    }

    /// The layers.
    pub fn layers(&self) -> &[SnnLayer] {
        &self.layers
    }

    /// Number of input lines.
    pub fn input_len(&self) -> usize {
        self.layers[0].input_len()
    }

    /// Number of output neurons.
    pub fn output_len(&self) -> usize {
        self.layers.last().expect("non-empty").output_len()
    }

    /// Runs one frame: `timesteps` of rate-coded input, returning output
    /// spike counts and residual potentials. Membrane potentials are reset
    /// at the start of the frame.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when the input length differs from
    /// the first layer's, or [`Error::InvalidConfig`] for zero timesteps.
    pub fn run(&mut self, input: &Tensor, timesteps: u32) -> Result<SnnOutput> {
        if input.len() != self.input_len() {
            return Err(Error::shape_mismatch(
                format!("{} inputs", self.input_len()),
                format!("{}", input.len()),
            ));
        }
        if timesteps == 0 {
            return Err(Error::config("timesteps must be positive"));
        }
        self.reset_state();
        let mut encoder = RateEncoder::new(input);
        let out_len = self.output_len();
        let mut spike_counts = vec![0u32; out_len];
        let mut spikes_by_step = Vec::with_capacity(timesteps as usize);

        for _ in 0..timesteps {
            let mut spikes = encoder.next_timestep();
            for (li, layer) in self.layers.iter_mut().enumerate() {
                self.activity.input_spikes_per_layer[li] +=
                    spikes.iter().filter(|s| **s).count() as u64;
                spikes = layer.step(&spikes)?;
                self.activity.output_spikes_per_layer[li] +=
                    spikes.iter().filter(|s| **s).count() as u64;
            }
            for (c, s) in spike_counts.iter_mut().zip(&spikes) {
                *c += u32::from(*s);
            }
            spikes_by_step.push(spikes);
        }
        self.activity.timesteps += u64::from(timesteps);
        self.activity.frames += 1;

        Ok(SnnOutput {
            spike_counts,
            potentials: self.layers.last().expect("non-empty").potentials().to_vec(),
            spikes_by_step,
        })
    }

    /// Predicted class for one input frame.
    ///
    /// # Errors
    ///
    /// See [`run`](SnnNetwork::run).
    pub fn predict(&mut self, input: &Tensor, timesteps: u32) -> Result<usize> {
        Ok(self.run(input, timesteps)?.predicted_class())
    }

    /// Classification accuracy over a labelled dataset.
    ///
    /// # Errors
    ///
    /// See [`run`](SnnNetwork::run).
    pub fn evaluate(&mut self, data: &[(Tensor, usize)], timesteps: u32) -> Result<f64> {
        if data.is_empty() {
            return Ok(0.0);
        }
        let mut correct = 0usize;
        for (x, y) in data {
            if self.predict(x, timesteps)? == *y {
                correct += 1;
            }
        }
        Ok(correct as f64 / data.len() as f64)
    }

    /// Accumulated activity statistics since construction.
    pub fn activity(&self) -> &ActivityStats {
        &self.activity
    }

    /// Largest |weighted sum| integrated anywhere — compare against
    /// `i64::from(shenjing_core::NocSum::MAX.value())` to verify the
    /// paper's no-overflow claim on a workload.
    pub fn max_abs_sum(&self) -> i64 {
        self.layers.iter().map(SnnLayer::max_abs_sum).max().unwrap_or(0)
    }

    /// Zeroes every membrane potential (new frame).
    pub fn reset_state(&mut self) {
        self.layers.iter_mut().for_each(SnnLayer::reset_state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::SpikingDense;
    use shenjing_core::W5;

    fn w(v: i32) -> W5 {
        W5::new(v).unwrap()
    }

    fn two_class_net() -> SnnNetwork {
        // One input; weight +10 to class 0, -10 to class 1; θ = 5.
        let layer = SpikingDense::new(vec![w(10), w(-10)], 1, 2, 5, 1.0).unwrap();
        SnnNetwork::new(vec![SnnLayer::Dense(layer)]).unwrap()
    }

    #[test]
    fn run_counts_spikes() {
        let mut net = two_class_net();
        let out = net.run(&Tensor::from_vec(vec![1], vec![1.0]).unwrap(), 10).unwrap();
        assert_eq!(out.spike_counts[0], 10, "fires every step: 10 > 5 each time");
        assert_eq!(out.spike_counts[1], 0);
        assert_eq!(out.predicted_class(), 0);
        assert_eq!(out.spikes_by_step.len(), 10);
    }

    #[test]
    fn rate_scales_with_input() {
        let mut net = two_class_net();
        let full = net.run(&Tensor::from_vec(vec![1], vec![1.0]).unwrap(), 20).unwrap();
        let half = net.run(&Tensor::from_vec(vec![1], vec![0.5]).unwrap(), 20).unwrap();
        assert!(half.spike_counts[0] < full.spike_counts[0]);
        assert!(half.spike_counts[0] >= 9, "≈ half the rate");
    }

    #[test]
    fn frames_are_independent() {
        let mut net = two_class_net();
        let x = Tensor::from_vec(vec![1], vec![0.7]).unwrap();
        let a = net.run(&x, 15).unwrap();
        let b = net.run(&x, 15).unwrap();
        assert_eq!(a, b, "state resets between frames");
    }

    #[test]
    fn dimension_checks() {
        let l1 = SpikingDense::new(vec![w(1); 4], 2, 2, 1, 1.0).unwrap();
        let l2 = SpikingDense::new(vec![w(1); 6], 3, 2, 1, 1.0).unwrap();
        assert!(SnnNetwork::new(vec![SnnLayer::Dense(l1), SnnLayer::Dense(l2)]).is_err());
        assert!(SnnNetwork::new(vec![]).is_err());

        let mut net = two_class_net();
        assert!(net.run(&Tensor::zeros(vec![2]), 5).is_err());
        assert!(net.run(&Tensor::zeros(vec![1]), 0).is_err());
    }

    #[test]
    fn tie_breaks_by_potential() {
        let out =
            SnnOutput { spike_counts: vec![3, 3], potentials: vec![1, 4], spikes_by_step: vec![] };
        assert_eq!(out.predicted_class(), 1);
        let out =
            SnnOutput { spike_counts: vec![3, 3], potentials: vec![4, 4], spikes_by_step: vec![] };
        assert_eq!(out.predicted_class(), 0, "full tie → lowest index");
    }

    #[test]
    fn activity_stats_accumulate() {
        let mut net = two_class_net();
        net.run(&Tensor::from_vec(vec![1], vec![1.0]).unwrap(), 10).unwrap();
        let stats = net.activity();
        assert_eq!(stats.frames, 1);
        assert_eq!(stats.timesteps, 10);
        assert_eq!(stats.input_spikes_per_layer[0], 10);
        assert_eq!(stats.output_spikes_per_layer[0], 10);
        assert!((stats.input_rate(0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_abs_sum_tracked() {
        let mut net = two_class_net();
        net.run(&Tensor::from_vec(vec![1], vec![1.0]).unwrap(), 1).unwrap();
        assert_eq!(net.max_abs_sum(), 10);
    }

    #[test]
    fn evaluate_accuracy() {
        let mut net = two_class_net();
        let data = vec![
            (Tensor::from_vec(vec![1], vec![1.0]).unwrap(), 0),
            (Tensor::from_vec(vec![1], vec![0.9]).unwrap(), 0),
        ];
        assert_eq!(net.evaluate(&data, 10).unwrap(), 1.0);
        assert_eq!(net.evaluate(&[], 10).unwrap(), 0.0);
    }
}
