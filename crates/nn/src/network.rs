//! A feed-forward network: an ordered stack of layers.

use rand::rngs::StdRng;
use rand::SeedableRng;
use shenjing_core::Result;

use crate::layer::{Layer, LayerSpec};
use crate::tensor::Tensor;

/// A trained or trainable feed-forward network.
///
/// ```
/// use shenjing_nn::{Network, LayerSpec, Tensor};
/// let mut net = Network::from_specs(
///     &[LayerSpec::dense(2, 4), LayerSpec::relu(), LayerSpec::dense(4, 2)],
///     1,
/// )?;
/// assert_eq!(net.layers().len(), 3);
/// let out = net.forward(&Tensor::from_vec(vec![2], vec![1.0, -1.0])?)?;
/// assert_eq!(out.len(), 2);
/// # Ok::<(), shenjing_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    layers: Vec<Layer>,
}

impl Network {
    /// Builds a network from layer specs with seeded initialization.
    ///
    /// # Errors
    ///
    /// Returns [`shenjing_core::Error::InvalidConfig`] for degenerate layer
    /// dimensions.
    pub fn from_specs(specs: &[LayerSpec], seed: u64) -> Result<Network> {
        let mut rng = StdRng::seed_from_u64(seed);
        let layers =
            specs.iter().map(|s| Layer::from_spec(s, &mut rng)).collect::<Result<Vec<_>>>()?;
        Ok(Network { layers })
    }

    /// Wraps existing layers.
    pub fn from_layers(layers: Vec<Layer>) -> Network {
        Network { layers }
    }

    /// The layers, in forward order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable layer access (weight surgery, conversion).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// The specs of all layers.
    pub fn specs(&self) -> Vec<LayerSpec> {
        self.layers.iter().map(Layer::spec).collect()
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.specs().iter().map(LayerSpec::param_count).sum()
    }

    /// Forward pass through every layer.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches from the layers.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let mut cur = input.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur)?;
        }
        Ok(cur)
    }

    /// Forward pass that also returns every intermediate activation
    /// (after each layer), used for conversion threshold calibration.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches from the layers.
    pub fn forward_collect(&mut self, input: &Tensor) -> Result<Vec<Tensor>> {
        let mut cur = input.clone();
        let mut acts = Vec::with_capacity(self.layers.len());
        for layer in &mut self.layers {
            cur = layer.forward(&cur)?;
            acts.push(cur.clone());
        }
        Ok(acts)
    }

    /// Backward pass from the output gradient, accumulating weight
    /// gradients in every layer.
    ///
    /// # Errors
    ///
    /// Returns an error when called without a preceding `forward`.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mut grad = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad)?;
        }
        Ok(grad)
    }

    /// Applies one SGD step to every layer and clears gradients.
    pub fn sgd_step(&mut self, lr: f64) {
        for layer in &mut self.layers {
            layer.sgd_step(lr);
        }
    }

    /// Frees every layer's weight-gradient buffer (see
    /// [`Layer::release_gradients`]): a trained network carries weights,
    /// not training state. Training again re-allocates them.
    pub fn release_gradients(&mut self) {
        self.layers.iter_mut().for_each(Layer::release_gradients);
    }

    /// Predicted class of an input (argmax of the logits).
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors.
    pub fn predict(&mut self, input: &Tensor) -> Result<usize> {
        Ok(self.forward(input)?.argmax().expect("network output is never empty"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_net() -> Network {
        Network::from_specs(&[LayerSpec::dense(2, 8), LayerSpec::relu(), LayerSpec::dense(8, 2)], 3)
            .unwrap()
    }

    #[test]
    fn forward_shapes() {
        let mut net = xor_net();
        let out = net.forward(&Tensor::from_vec(vec![2], vec![0.0, 1.0]).unwrap()).unwrap();
        assert_eq!(out.shape(), &[2]);
    }

    #[test]
    fn forward_collect_returns_all_activations() {
        let mut net = xor_net();
        let acts =
            net.forward_collect(&Tensor::from_vec(vec![2], vec![1.0, 1.0]).unwrap()).unwrap();
        assert_eq!(acts.len(), 3);
        assert_eq!(acts[0].len(), 8);
        assert_eq!(acts[2].len(), 2);
    }

    #[test]
    fn param_count() {
        let net = xor_net();
        assert_eq!(net.param_count(), 2 * 8 + 8 * 2);
    }

    #[test]
    fn deterministic_seeding() {
        let a = xor_net();
        let b = xor_net();
        assert_eq!(a.layers()[0].weights(), b.layers()[0].weights());
        let c = Network::from_specs(&a.specs(), 4).unwrap();
        assert_ne!(a.layers()[0].weights(), c.layers()[0].weights());
    }

    #[test]
    fn network_learns_xor() {
        // End-to-end training sanity: XOR is learnable by a 2-8-2 MLP.
        let mut net = xor_net();
        let data = [([0.0, 0.0], 0usize), ([0.0, 1.0], 1), ([1.0, 0.0], 1), ([1.0, 1.0], 0)];
        for _ in 0..800 {
            for (x, y) in &data {
                let input = Tensor::from_vec(vec![2], x.to_vec()).unwrap();
                let logits = net.forward(&input).unwrap();
                let grad = crate::loss::cross_entropy_grad(&logits, *y).unwrap();
                net.backward(&grad).unwrap();
                net.sgd_step(0.05);
            }
        }
        for (x, y) in &data {
            let input = Tensor::from_vec(vec![2], x.to_vec()).unwrap();
            assert_eq!(net.predict(&input).unwrap(), *y, "input {x:?}");
        }
    }
}
