//! SGD training loop and evaluation helpers.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use shenjing_core::Result;

use crate::loss::{cross_entropy_grad, cross_entropy_loss};
use crate::network::Network;
use crate::tensor::Tensor;

/// Per-epoch training statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean cross-entropy loss per example, one entry per epoch.
    pub epoch_losses: Vec<f64>,
    /// Training-set accuracy after the final epoch.
    pub final_train_accuracy: f64,
}

/// Plain stochastic gradient descent over a labelled dataset.
///
/// ```
/// use shenjing_nn::{Network, LayerSpec, Sgd, Tensor};
/// let mut net = Network::from_specs(&[LayerSpec::dense(1, 2)], 0)?;
/// let data = vec![
///     (Tensor::from_vec(vec![1], vec![-1.0])?, 0),
///     (Tensor::from_vec(vec![1], vec![1.0])?, 1),
/// ];
/// let report = Sgd::new(0.1, 50, 9).train(&mut net, &data)?;
/// assert_eq!(report.final_train_accuracy, 1.0);
/// # Ok::<(), shenjing_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f64,
    epochs: usize,
    shuffle_seed: u64,
}

impl Sgd {
    /// Creates a trainer with a learning rate, epoch count and shuffle
    /// seed.
    pub fn new(lr: f64, epochs: usize, shuffle_seed: u64) -> Sgd {
        Sgd { lr, epochs, shuffle_seed }
    }

    /// The learning rate.
    pub fn lr(&self) -> f64 {
        self.lr
    }

    /// Trains `net` on `(input, class)` pairs. The gradient buffers the
    /// steps need live only for the call: they are released before it
    /// returns, so a trained network holds weights and nothing else.
    ///
    /// # Errors
    ///
    /// Propagates forward/backward shape errors.
    pub fn train(&self, net: &mut Network, data: &[(Tensor, usize)]) -> Result<TrainReport> {
        let mut rng = StdRng::seed_from_u64(self.shuffle_seed);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut epoch_losses = Vec::with_capacity(self.epochs);
        for _ in 0..self.epochs {
            order.shuffle(&mut rng);
            let mut loss_sum = 0.0;
            for &i in &order {
                let (x, y) = &data[i];
                let logits = net.forward(x)?;
                loss_sum += cross_entropy_loss(&logits, *y)?;
                let grad = cross_entropy_grad(&logits, *y)?;
                net.backward(&grad)?;
                net.sgd_step(self.lr);
            }
            epoch_losses.push(if data.is_empty() { 0.0 } else { loss_sum / data.len() as f64 });
        }
        net.release_gradients();
        let final_train_accuracy = accuracy(net, data)?;
        Ok(TrainReport { epoch_losses, final_train_accuracy })
    }
}

/// Fraction of examples classified correctly.
///
/// # Errors
///
/// Propagates forward-pass errors.
pub fn accuracy(net: &mut Network, data: &[(Tensor, usize)]) -> Result<f64> {
    if data.is_empty() {
        return Ok(0.0);
    }
    let mut correct = 0usize;
    for (x, y) in data {
        if net.predict(x)? == *y {
            correct += 1;
        }
    }
    Ok(correct as f64 / data.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Layer, LayerSpec};

    fn toy_data() -> Vec<(Tensor, usize)> {
        // Two linearly separable blobs in 2-D.
        let mut data = Vec::new();
        for i in 0..10 {
            let t = i as f64 / 10.0;
            data.push((Tensor::from_vec(vec![2], vec![1.0 + t, 1.0 - t]).unwrap(), 0));
            data.push((Tensor::from_vec(vec![2], vec![-1.0 - t, -1.0 + t]).unwrap(), 1));
        }
        data
    }

    #[test]
    fn training_reduces_loss() {
        let mut net = Network::from_specs(
            &[LayerSpec::dense(2, 4), LayerSpec::relu(), LayerSpec::dense(4, 2)],
            11,
        )
        .unwrap();
        let data = toy_data();
        let report = Sgd::new(0.05, 20, 1).train(&mut net, &data).unwrap();
        assert_eq!(report.epoch_losses.len(), 20);
        assert!(
            report.epoch_losses.last().unwrap() < &report.epoch_losses[0],
            "loss should drop: {:?}",
            report.epoch_losses
        );
        assert!(report.final_train_accuracy >= 0.95);
    }

    #[test]
    fn a_trained_network_holds_no_gradients_and_trains_again_identically() {
        let specs = [LayerSpec::dense(2, 4), LayerSpec::relu(), LayerSpec::dense(4, 2)];
        let data = toy_data();
        let gradient_bytes =
            |net: &Network| net.layers().iter().map(Layer::gradient_bytes).sum::<usize>();
        let weights =
            |net: &Network| net.layers().iter().map(|l| l.weights().to_vec()).collect::<Vec<_>>();
        let rounds = [Sgd::new(0.05, 3, 1), Sgd::new(0.02, 2, 9)];

        let mut trained = Network::from_specs(&specs, 11).unwrap();
        // The same steps driven by hand, the gradient buffers never
        // released in between.
        let mut by_hand = trained.clone();
        assert_eq!(gradient_bytes(&trained), 0, "no gradients before the first backward");
        for sgd in &rounds {
            sgd.train(&mut trained, &data).unwrap();
            assert_eq!(gradient_bytes(&trained), 0, "training state must not outlive train()");

            let mut rng = StdRng::seed_from_u64(sgd.shuffle_seed);
            let mut order: Vec<usize> = (0..data.len()).collect();
            for _ in 0..sgd.epochs {
                order.shuffle(&mut rng);
                for &i in &order {
                    let logits = by_hand.forward(&data[i].0).unwrap();
                    by_hand.backward(&cross_entropy_grad(&logits, data[i].1).unwrap()).unwrap();
                    by_hand.sgd_step(sgd.lr);
                }
            }
            assert!(gradient_bytes(&by_hand) > 0, "the by-hand run keeps its buffers");
            assert_eq!(weights(&trained), weights(&by_hand));
        }
    }

    #[test]
    fn a_cnn_trains_through_its_spatial_layers() {
        // Dense's input gradient must come back in the shape of the pool
        // in front of it, or `AvgPool2d::backward` rejects it.
        let mut net = Network::from_specs(
            &[
                LayerSpec::conv2d(3, 1, 2),
                LayerSpec::relu(),
                LayerSpec::avg_pool(2),
                LayerSpec::dense(2 * 2 * 2, 2),
            ],
            3,
        )
        .unwrap();
        let data: Vec<(Tensor, usize)> = (0..8)
            .map(|k| {
                // Class 0 lights the left half of a 4 × 4 image, class 1
                // the right half.
                let vals = (0..16).map(|i| f64::from(u8::from((i % 4 < 2) == (k % 2 == 0))));
                (Tensor::from_vec(vec![4, 4, 1], vals.collect()).unwrap(), k % 2)
            })
            .collect();
        let losses = Sgd::new(0.05, 10, 4).train(&mut net, &data).unwrap().epoch_losses;
        assert!(losses.last().unwrap() < &losses[0], "loss should drop: {losses:?}");
    }

    #[test]
    fn accuracy_on_empty_data() {
        let mut net = Network::from_specs(&[LayerSpec::dense(2, 2)], 0).unwrap();
        assert_eq!(accuracy(&mut net, &[]).unwrap(), 0.0);
    }

    #[test]
    fn training_is_deterministic() {
        let data = toy_data();
        let run = || {
            let mut net = Network::from_specs(
                &[LayerSpec::dense(2, 4), LayerSpec::relu(), LayerSpec::dense(4, 2)],
                5,
            )
            .unwrap();
            Sgd::new(0.05, 5, 2).train(&mut net, &data).unwrap().epoch_losses
        };
        assert_eq!(run(), run());
    }
}
