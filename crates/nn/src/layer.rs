//! Network layers: dense, convolution, average pooling, ReLU and residual
//! blocks — the complete vocabulary of Table III.
//!
//! All layers are bias-free (a requirement of the rate-based ANN→SNN
//! conversion the paper uses). Convolutions are stride-1 with "same"
//! zero-padding, which is what makes the Table III shapes line up
//! (e.g. MNIST-CNN: 28×28 → conv → 28×28 → pool → 14×14 → conv → 14×14 →
//! pool → 7×7, giving FC1 its 1568 = 7·7·32 inputs).

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use shenjing_core::{Error, Result};

use crate::tensor::Tensor;

/// A serializable layer description — the "Layers Description: .json file"
/// input of the paper's toolchain (Fig. 3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LayerSpec {
    /// Fully connected `inputs → outputs`, no bias.
    Dense {
        /// Input dimension.
        inputs: usize,
        /// Output dimension.
        outputs: usize,
    },
    /// `kernel × kernel` convolution, stride 1, same padding, no bias.
    Conv2d {
        /// Kernel side length.
        kernel: usize,
        /// Input channels.
        in_ch: usize,
        /// Output channels.
        out_ch: usize,
    },
    /// `size × size` average pooling with stride `size`.
    AvgPool2d {
        /// Pooling window side length.
        size: usize,
    },
    /// Rectified linear activation.
    Relu,
    /// A residual block: `y = body(x) + λ·x`, the paper's ResNet shortcut
    /// with its `diag(λ)` normalization layer.
    Residual {
        /// The residual body.
        body: Vec<LayerSpec>,
        /// Shortcut normalization scale λ.
        lambda: f64,
    },
}

impl LayerSpec {
    /// Shorthand for a dense spec.
    pub fn dense(inputs: usize, outputs: usize) -> LayerSpec {
        LayerSpec::Dense { inputs, outputs }
    }

    /// Shorthand for a conv spec.
    pub fn conv2d(kernel: usize, in_ch: usize, out_ch: usize) -> LayerSpec {
        LayerSpec::Conv2d { kernel, in_ch, out_ch }
    }

    /// Shorthand for an average-pooling spec.
    pub fn avg_pool(size: usize) -> LayerSpec {
        LayerSpec::AvgPool2d { size }
    }

    /// Shorthand for a ReLU spec.
    pub fn relu() -> LayerSpec {
        LayerSpec::Relu
    }

    /// Shorthand for a residual block spec.
    pub fn residual(body: Vec<LayerSpec>, lambda: f64) -> LayerSpec {
        LayerSpec::Residual { body, lambda }
    }

    /// Number of trainable parameters this spec implies.
    pub fn param_count(&self) -> usize {
        match self {
            LayerSpec::Dense { inputs, outputs } => inputs * outputs,
            LayerSpec::Conv2d { kernel, in_ch, out_ch } => kernel * kernel * in_ch * out_ch,
            LayerSpec::AvgPool2d { .. } | LayerSpec::Relu => 0,
            LayerSpec::Residual { body, .. } => body.iter().map(LayerSpec::param_count).sum(),
        }
    }
}

/// A concrete, trainable layer.
#[derive(Debug, Clone)]
pub enum Layer {
    /// Fully connected.
    Dense(Dense),
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// Average pooling.
    AvgPool2d(AvgPool2d),
    /// ReLU activation.
    Relu(Relu),
    /// Residual block.
    Residual(Residual),
}

impl Layer {
    /// Instantiates a spec with He-initialized weights drawn from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for degenerate dimensions.
    pub fn from_spec(spec: &LayerSpec, rng: &mut StdRng) -> Result<Layer> {
        Ok(match spec {
            LayerSpec::Dense { inputs, outputs } => {
                Layer::Dense(Dense::new(*inputs, *outputs, rng)?)
            }
            LayerSpec::Conv2d { kernel, in_ch, out_ch } => {
                Layer::Conv2d(Conv2d::new(*kernel, *in_ch, *out_ch, rng)?)
            }
            LayerSpec::AvgPool2d { size } => Layer::AvgPool2d(AvgPool2d::new(*size)?),
            LayerSpec::Relu => Layer::Relu(Relu::new()),
            LayerSpec::Residual { body, lambda } => {
                let layers =
                    body.iter().map(|s| Layer::from_spec(s, rng)).collect::<Result<Vec<_>>>()?;
                Layer::Residual(Residual::new(layers, *lambda)?)
            }
        })
    }

    /// The spec this layer instantiates.
    pub fn spec(&self) -> LayerSpec {
        match self {
            Layer::Dense(d) => LayerSpec::Dense { inputs: d.inputs, outputs: d.outputs },
            Layer::Conv2d(c) => {
                LayerSpec::Conv2d { kernel: c.kernel, in_ch: c.in_ch, out_ch: c.out_ch }
            }
            Layer::AvgPool2d(p) => LayerSpec::AvgPool2d { size: p.size },
            Layer::Relu(_) => LayerSpec::Relu,
            Layer::Residual(r) => LayerSpec::Residual {
                body: r.body.iter().map(Layer::spec).collect(),
                lambda: r.lambda,
            },
        }
    }

    /// Forward pass, caching what backward needs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when the input shape does not fit
    /// the layer.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        match self {
            Layer::Dense(d) => d.forward(input),
            Layer::Conv2d(c) => c.forward(input),
            Layer::AvgPool2d(p) => p.forward(input),
            Layer::Relu(r) => r.forward(input),
            Layer::Residual(r) => r.forward(input),
        }
    }

    /// Backward pass: consumes the cached forward state, accumulates
    /// weight gradients, returns the gradient w.r.t. the input.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when called before `forward`.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        match self {
            Layer::Dense(d) => d.backward(grad_out),
            Layer::Conv2d(c) => c.backward(grad_out),
            Layer::AvgPool2d(p) => p.backward(grad_out),
            Layer::Relu(r) => r.backward(grad_out),
            Layer::Residual(r) => r.backward(grad_out),
        }
    }

    /// Applies one SGD step (`w -= lr · g`) and clears the gradients. A
    /// layer that holds no gradients (no `backward` since construction or
    /// since [`release_gradients`](Layer::release_gradients)) is left
    /// untouched — what subtracting zeros would do.
    pub fn sgd_step(&mut self, lr: f64) {
        match self {
            Layer::Dense(d) => sgd_step(&mut d.weights, &mut d.grads, lr),
            Layer::Conv2d(c) => sgd_step(&mut c.weights, &mut c.grads, lr),
            Layer::AvgPool2d(_) | Layer::Relu(_) => {}
            Layer::Residual(r) => r.body.iter_mut().for_each(|l| l.sgd_step(lr)),
        }
    }

    /// Frees the weight-gradient buffers — training-only state as large
    /// as the weights themselves. The next `backward` allocates them
    /// afresh.
    pub fn release_gradients(&mut self) {
        match self {
            Layer::Dense(d) => d.grads = Vec::new(),
            Layer::Conv2d(c) => c.grads = Vec::new(),
            Layer::AvgPool2d(_) | Layer::Relu(_) => {}
            Layer::Residual(r) => r.body.iter_mut().for_each(Layer::release_gradients),
        }
    }

    /// Bytes of gradient storage this layer holds.
    #[cfg(test)]
    pub(crate) fn gradient_bytes(&self) -> usize {
        match self {
            Layer::Dense(d) => d.grads.capacity() * std::mem::size_of::<f64>(),
            Layer::Conv2d(c) => c.grads.capacity() * std::mem::size_of::<f64>(),
            Layer::AvgPool2d(_) | Layer::Relu(_) => 0,
            Layer::Residual(r) => r.body.iter().map(Layer::gradient_bytes).sum(),
        }
    }

    /// Read access to the flat weight vector (empty for parameter-free
    /// layers; residual blocks expose their body's weights layer by layer
    /// through [`Layer::Residual`]).
    pub fn weights(&self) -> &[f64] {
        match self {
            Layer::Dense(d) => &d.weights,
            Layer::Conv2d(c) => &c.weights,
            Layer::AvgPool2d(_) | Layer::Relu(_) | Layer::Residual(_) => &[],
        }
    }

    /// Mutable access to the flat weight vector.
    pub fn weights_mut(&mut self) -> &mut [f64] {
        match self {
            Layer::Dense(d) => &mut d.weights,
            Layer::Conv2d(c) => &mut c.weights,
            Layer::AvgPool2d(_) | Layer::Relu(_) | Layer::Residual(_) => &mut [],
        }
    }
}

/// `w -= lr · g`, then `g = 0`, over whatever gradients are held.
fn sgd_step(weights: &mut [f64], grads: &mut [f64], lr: f64) {
    for (w, g) in weights.iter_mut().zip(grads) {
        *w -= lr * *g;
        *g = 0.0;
    }
}

fn he_normal(rng: &mut StdRng, fan_in: usize) -> f64 {
    // Box–Muller from two uniforms; std = sqrt(2 / fan_in).
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    z * (2.0 / fan_in as f64).sqrt()
}

/// Fully connected layer, weights `[input][output]` row-major, no bias.
#[derive(Debug, Clone)]
pub struct Dense {
    inputs: usize,
    outputs: usize,
    weights: Vec<f64>,
    /// Weight gradients since the last step; empty until the first
    /// `backward` and after [`Layer::release_gradients`].
    grads: Vec<f64>,
    cache: Option<Tensor>,
}

impl Dense {
    /// Creates a He-initialized dense layer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when a dimension is zero.
    pub fn new(inputs: usize, outputs: usize, rng: &mut StdRng) -> Result<Dense> {
        if inputs == 0 || outputs == 0 {
            return Err(Error::config("dense dimensions must be positive"));
        }
        let weights = (0..inputs * outputs).map(|_| he_normal(rng, inputs)).collect();
        Ok(Dense { inputs, outputs, weights, grads: Vec::new(), cache: None })
    }

    /// Input dimension.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Output dimension.
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// The weight from `input` to `output`.
    pub fn weight(&self, input: usize, output: usize) -> f64 {
        self.weights[input * self.outputs + output]
    }

    /// All weights, `[input][output]` row-major.
    pub fn weights_raw(&self) -> &[f64] {
        &self.weights
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        if input.len() != self.inputs {
            return Err(Error::shape_mismatch(
                format!("{} inputs", self.inputs),
                format!("{} inputs", input.len()),
            ));
        }
        let x = input.data();
        let mut out = vec![0.0; self.outputs];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let row = &self.weights[i * self.outputs..(i + 1) * self.outputs];
            for (o, w) in row.iter().enumerate() {
                out[o] += xi * w;
            }
        }
        // Cached in its own shape: the gradient handed back must fit the
        // (possibly spatial) layer in front.
        self.cache = Some(input.clone());
        Tensor::from_vec(vec![self.outputs], out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x = self.cache.take().ok_or_else(|| Error::config("backward before forward"))?;
        if grad_out.len() != self.outputs {
            return Err(Error::shape_mismatch(
                format!("{} grads", self.outputs),
                format!("{}", grad_out.len()),
            ));
        }
        let g = grad_out.data();
        self.grads.resize(self.weights.len(), 0.0);
        let mut grad_in = vec![0.0; self.inputs];
        for (i, gi) in grad_in.iter_mut().enumerate() {
            let row = &self.weights[i * self.outputs..(i + 1) * self.outputs];
            let grow = &mut self.grads[i * self.outputs..(i + 1) * self.outputs];
            let xi = x.data()[i];
            let mut acc = 0.0;
            for o in 0..self.outputs {
                acc += row[o] * g[o];
                grow[o] += xi * g[o];
            }
            *gi = acc;
        }
        Tensor::from_vec(x.shape().to_vec(), grad_in)
    }
}

/// Stride-1 same-padded 2-D convolution, weights
/// `[ky][kx][in_ch][out_ch]` row-major, no bias.
#[derive(Debug, Clone)]
pub struct Conv2d {
    kernel: usize,
    in_ch: usize,
    out_ch: usize,
    weights: Vec<f64>,
    /// Weight gradients, held as [`Dense`]'s are.
    grads: Vec<f64>,
    cache: Option<Tensor>,
}

impl Conv2d {
    /// Creates a He-initialized convolution.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for zero dimensions or an even
    /// kernel (same padding needs an odd kernel).
    pub fn new(kernel: usize, in_ch: usize, out_ch: usize, rng: &mut StdRng) -> Result<Conv2d> {
        if kernel == 0 || in_ch == 0 || out_ch == 0 {
            return Err(Error::config("conv dimensions must be positive"));
        }
        if kernel.is_multiple_of(2) {
            return Err(Error::config("same-padded conv requires an odd kernel"));
        }
        let n = kernel * kernel * in_ch * out_ch;
        let fan_in = kernel * kernel * in_ch;
        let weights = (0..n).map(|_| he_normal(rng, fan_in)).collect();
        Ok(Conv2d { kernel, in_ch, out_ch, weights, grads: Vec::new(), cache: None })
    }

    /// Kernel side length.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Input channels.
    pub fn in_ch(&self) -> usize {
        self.in_ch
    }

    /// Output channels.
    pub fn out_ch(&self) -> usize {
        self.out_ch
    }

    /// The weight at kernel position `(ky, kx)` from `ci` to `co`.
    pub fn weight(&self, ky: usize, kx: usize, ci: usize, co: usize) -> f64 {
        self.weights[((ky * self.kernel + kx) * self.in_ch + ci) * self.out_ch + co]
    }

    /// All weights, `[ky][kx][in_ch][out_ch]` row-major.
    pub fn weights_raw(&self) -> &[f64] {
        &self.weights
    }

    fn check_input(&self, input: &Tensor) -> Result<(usize, usize)> {
        let shape = input.shape();
        if shape.len() != 3 || shape[2] != self.in_ch {
            return Err(Error::shape_mismatch(
                format!("(h, w, {})", self.in_ch),
                format!("{shape:?}"),
            ));
        }
        Ok((shape[0], shape[1]))
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let (h, w) = self.check_input(input)?;
        let pad = self.kernel / 2;
        let x = input.data();
        let mut out = vec![0.0; h * w * self.out_ch];
        for oy in 0..h {
            for ox in 0..w {
                for ky in 0..self.kernel {
                    let iy = oy + ky;
                    if iy < pad || iy - pad >= h {
                        continue;
                    }
                    let iy = iy - pad;
                    for kx in 0..self.kernel {
                        let ix = ox + kx;
                        if ix < pad || ix - pad >= w {
                            continue;
                        }
                        let ix = ix - pad;
                        let in_base = (iy * w + ix) * self.in_ch;
                        let w_base = (ky * self.kernel + kx) * self.in_ch * self.out_ch;
                        let out_base = (oy * w + ox) * self.out_ch;
                        for ci in 0..self.in_ch {
                            let xi = x[in_base + ci];
                            if xi == 0.0 {
                                continue;
                            }
                            let wrow = &self.weights
                                [w_base + ci * self.out_ch..w_base + (ci + 1) * self.out_ch];
                            for (co, wv) in wrow.iter().enumerate() {
                                out[out_base + co] += xi * wv;
                            }
                        }
                    }
                }
            }
        }
        self.cache = Some(input.clone());
        Tensor::from_vec(vec![h, w, self.out_ch], out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let input = self.cache.take().ok_or_else(|| Error::config("backward before forward"))?;
        let (h, w) = self.check_input(&input)?;
        if grad_out.shape() != [h, w, self.out_ch] {
            return Err(Error::shape_mismatch(
                format!("({h}, {w}, {})", self.out_ch),
                format!("{:?}", grad_out.shape()),
            ));
        }
        let pad = self.kernel / 2;
        let x = input.data();
        let g = grad_out.data();
        self.grads.resize(self.weights.len(), 0.0);
        let mut grad_in = vec![0.0; h * w * self.in_ch];
        for oy in 0..h {
            for ox in 0..w {
                let out_base = (oy * w + ox) * self.out_ch;
                for ky in 0..self.kernel {
                    let iy = oy + ky;
                    if iy < pad || iy - pad >= h {
                        continue;
                    }
                    let iy = iy - pad;
                    for kx in 0..self.kernel {
                        let ix = ox + kx;
                        if ix < pad || ix - pad >= w {
                            continue;
                        }
                        let ix = ix - pad;
                        let in_base = (iy * w + ix) * self.in_ch;
                        let w_base = (ky * self.kernel + kx) * self.in_ch * self.out_ch;
                        for ci in 0..self.in_ch {
                            let xi = x[in_base + ci];
                            let wrow_start = w_base + ci * self.out_ch;
                            let mut acc = 0.0;
                            for co in 0..self.out_ch {
                                let go = g[out_base + co];
                                acc += self.weights[wrow_start + co] * go;
                                self.grads[wrow_start + co] += xi * go;
                            }
                            grad_in[in_base + ci] += acc;
                        }
                    }
                }
            }
        }
        Tensor::from_vec(vec![h, w, self.in_ch], grad_in)
    }
}

/// `size × size` average pooling with stride `size`.
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    size: usize,
    cache_shape: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// Creates a pooling layer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a zero window.
    pub fn new(size: usize) -> Result<AvgPool2d> {
        if size == 0 {
            return Err(Error::config("pool size must be positive"));
        }
        Ok(AvgPool2d { size, cache_shape: None })
    }

    /// Window side length.
    pub fn size(&self) -> usize {
        self.size
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let shape = input.shape();
        if shape.len() != 3
            || !shape[0].is_multiple_of(self.size)
            || !shape[1].is_multiple_of(self.size)
        {
            return Err(Error::shape_mismatch(
                format!("(h, w, c) with h, w divisible by {}", self.size),
                format!("{shape:?}"),
            ));
        }
        let (h, w, c) = (shape[0], shape[1], shape[2]);
        let (oh, ow) = (h / self.size, w / self.size);
        let x = input.data();
        let norm = 1.0 / (self.size * self.size) as f64;
        let mut out = vec![0.0; oh * ow * c];
        for oy in 0..oh {
            for ox in 0..ow {
                for dy in 0..self.size {
                    for dx in 0..self.size {
                        let in_base = ((oy * self.size + dy) * w + ox * self.size + dx) * c;
                        let out_base = (oy * ow + ox) * c;
                        for ch in 0..c {
                            out[out_base + ch] += x[in_base + ch] * norm;
                        }
                    }
                }
            }
        }
        self.cache_shape = Some(shape.to_vec());
        Tensor::from_vec(vec![oh, ow, c], out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let shape =
            self.cache_shape.take().ok_or_else(|| Error::config("backward before forward"))?;
        let (h, w, c) = (shape[0], shape[1], shape[2]);
        let (oh, ow) = (h / self.size, w / self.size);
        if grad_out.shape() != [oh, ow, c] {
            return Err(Error::shape_mismatch(
                format!("({oh}, {ow}, {c})"),
                format!("{:?}", grad_out.shape()),
            ));
        }
        let norm = 1.0 / (self.size * self.size) as f64;
        let g = grad_out.data();
        let mut grad_in = vec![0.0; h * w * c];
        for oy in 0..oh {
            for ox in 0..ow {
                let out_base = (oy * ow + ox) * c;
                for dy in 0..self.size {
                    for dx in 0..self.size {
                        let in_base = ((oy * self.size + dy) * w + ox * self.size + dx) * c;
                        for ch in 0..c {
                            grad_in[in_base + ch] = g[out_base + ch] * norm;
                        }
                    }
                }
            }
        }
        Tensor::from_vec(vec![h, w, c], grad_in)
    }
}

/// Rectified linear activation.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cache: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Relu {
        Relu::default()
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let data = input.data().iter().map(|v| v.max(0.0)).collect();
        self.cache = Some(input.clone());
        Tensor::from_vec(input.shape().to_vec(), data)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let input = self.cache.take().ok_or_else(|| Error::config("backward before forward"))?;
        if grad_out.shape() != input.shape() {
            return Err(Error::shape_mismatch(
                format!("{:?}", input.shape()),
                format!("{:?}", grad_out.shape()),
            ));
        }
        let data = input
            .data()
            .iter()
            .zip(grad_out.data())
            .map(|(x, g)| if *x > 0.0 { *g } else { 0.0 })
            .collect();
        Tensor::from_vec(input.shape().to_vec(), data)
    }
}

/// Residual block: `y = body(x) + λ·x`.
///
/// The shortcut scale λ is the paper's shortcut *normalization layer* with
/// weights `diag(λ)` (§III, "Mapping ResNet shortcuts", after Hu et al.).
#[derive(Debug, Clone)]
pub struct Residual {
    body: Vec<Layer>,
    lambda: f64,
}

impl Residual {
    /// Wraps `body` with a λ-scaled identity shortcut.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an empty body.
    pub fn new(body: Vec<Layer>, lambda: f64) -> Result<Residual> {
        if body.is_empty() {
            return Err(Error::config("residual body must not be empty"));
        }
        Ok(Residual { body, lambda })
    }

    /// The shortcut scale λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The body layers.
    pub fn body(&self) -> &[Layer] {
        &self.body
    }

    /// Mutable body layers.
    pub fn body_mut(&mut self) -> &mut [Layer] {
        &mut self.body
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let mut cur = input.clone();
        for layer in &mut self.body {
            cur = layer.forward(&cur)?;
        }
        if cur.shape() != input.shape() {
            return Err(Error::shape_mismatch(
                format!("residual body output {:?}", input.shape()),
                format!("{:?}", cur.shape()),
            ));
        }
        cur.add(&input.scaled(self.lambda))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mut grad = grad_out.clone();
        for layer in self.body.iter_mut().rev() {
            grad = layer.backward(&grad)?;
        }
        // Shortcut contributes λ·grad_out to the input gradient.
        grad.add(&grad_out.scaled(self.lambda))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn dense_forward_is_weighted_sum() {
        let mut d = Dense::new(2, 2, &mut rng()).unwrap();
        d.weights = vec![1.0, 2.0, 3.0, 4.0]; // w[0] = [1,2], w[1] = [3,4]
        let out = d.forward(&Tensor::from_vec(vec![2], vec![1.0, 0.5]).unwrap()).unwrap();
        assert_eq!(out.data(), &[1.0 + 1.5, 2.0 + 2.0]);
    }

    #[test]
    fn dense_rejects_wrong_input() {
        let mut d = Dense::new(3, 2, &mut rng()).unwrap();
        assert!(d.forward(&Tensor::zeros(vec![4])).is_err());
    }

    #[test]
    fn dense_gradcheck() {
        // Numerical gradient check of dL/dw and dL/dx with L = sum(out).
        let mut d = Dense::new(3, 2, &mut rng()).unwrap();
        let x = Tensor::from_vec(vec![3], vec![0.3, -0.7, 1.1]).unwrap();
        let ones = Tensor::from_vec(vec![2], vec![1.0, 1.0]).unwrap();
        d.forward(&x).unwrap();
        let grad_in = d.backward(&ones).unwrap();

        let eps = 1e-6;
        // weight gradient check
        for i in 0..6 {
            let mut dp = d.clone();
            dp.weights[i] += eps;
            let up: f64 = dp.forward(&x).unwrap().data().iter().sum();
            let mut dm = d.clone();
            dm.weights[i] -= eps;
            let dn: f64 = dm.forward(&x).unwrap().data().iter().sum();
            let num = (up - dn) / (2.0 * eps);
            assert!((num - d.grads[i]).abs() < 1e-5, "weight {i}: {num} vs {}", d.grads[i]);
        }
        // input gradient check
        for i in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let mut dd = d.clone();
            let up: f64 = dd.forward(&xp).unwrap().data().iter().sum();
            let dn: f64 = dd.forward(&xm).unwrap().data().iter().sum();
            let num = (up - dn) / (2.0 * eps);
            assert!((num - grad_in.data()[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn conv_same_padding_shape() {
        let mut c = Conv2d::new(3, 2, 4, &mut rng()).unwrap();
        let out = c.forward(&Tensor::zeros(vec![5, 6, 2])).unwrap();
        assert_eq!(out.shape(), &[5, 6, 4]);
    }

    #[test]
    fn conv_identity_kernel() {
        // A 3x3 kernel with 1 at the center copies the input channel.
        let mut c = Conv2d::new(3, 1, 1, &mut rng()).unwrap();
        for w in c.weights.iter_mut() {
            *w = 0.0;
        }
        let center = 3 + 1;
        c.weights[center] = 1.0;
        let x = Tensor::from_vec(vec![2, 2, 1], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let out = c.forward(&x).unwrap();
        assert_eq!(out.data(), x.data());
    }

    #[test]
    fn conv_edge_padding_behaves_as_zero() {
        // Kernel that picks the pixel to the left; leftmost column sees 0.
        let mut c = Conv2d::new(3, 1, 1, &mut rng()).unwrap();
        for w in c.weights.iter_mut() {
            *w = 0.0;
        }
        let left = 3;
        c.weights[left] = 1.0;
        let x = Tensor::from_vec(vec![1, 3, 1], vec![5.0, 6.0, 7.0]).unwrap();
        let out = c.forward(&x).unwrap();
        assert_eq!(out.data(), &[0.0, 5.0, 6.0]);
    }

    #[test]
    fn conv_rejects_even_kernel_and_bad_shapes() {
        assert!(Conv2d::new(2, 1, 1, &mut rng()).is_err());
        let mut c = Conv2d::new(3, 2, 1, &mut rng()).unwrap();
        assert!(c.forward(&Tensor::zeros(vec![4, 4, 3])).is_err());
        assert!(c.forward(&Tensor::zeros(vec![16])).is_err());
    }

    #[test]
    fn conv_gradcheck() {
        let mut c = Conv2d::new(3, 1, 2, &mut rng()).unwrap();
        let x = Tensor::from_vec(vec![3, 3, 1], (0..9).map(|i| (i as f64) * 0.1 - 0.4).collect())
            .unwrap();
        let g = Tensor::from_vec(vec![3, 3, 2], vec![1.0; 18]).unwrap();
        c.forward(&x).unwrap();
        let grad_in = c.backward(&g).unwrap();
        let eps = 1e-6;
        for i in 0..c.weights.len() {
            let mut cp = c.clone();
            cp.weights[i] += eps;
            let up: f64 = cp.forward(&x).unwrap().data().iter().sum();
            let mut cm = c.clone();
            cm.weights[i] -= eps;
            let dn: f64 = cm.forward(&x).unwrap().data().iter().sum();
            let num = (up - dn) / (2.0 * eps);
            assert!((num - c.grads[i]).abs() < 1e-5, "weight {i}");
        }
        for i in 0..9 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let mut cc = c.clone();
            let up: f64 = cc.forward(&xp).unwrap().data().iter().sum();
            let dn: f64 = cc.forward(&xm).unwrap().data().iter().sum();
            let num = (up - dn) / (2.0 * eps);
            assert!((num - grad_in.data()[i]).abs() < 1e-5, "input {i}");
        }
    }

    #[test]
    fn avg_pool_averages() {
        let mut p = AvgPool2d::new(2).unwrap();
        let x = Tensor::from_vec(vec![2, 2, 1], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let out = p.forward(&x).unwrap();
        assert_eq!(out.shape(), &[1, 1, 1]);
        assert_eq!(out.data(), &[2.5]);
    }

    #[test]
    fn avg_pool_backward_distributes() {
        let mut p = AvgPool2d::new(2).unwrap();
        let x = Tensor::zeros(vec![2, 2, 1]);
        p.forward(&x).unwrap();
        let g = Tensor::from_vec(vec![1, 1, 1], vec![4.0]).unwrap();
        let gi = p.backward(&g).unwrap();
        assert_eq!(gi.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn avg_pool_rejects_indivisible() {
        let mut p = AvgPool2d::new(2).unwrap();
        assert!(p.forward(&Tensor::zeros(vec![3, 4, 1])).is_err());
        assert!(AvgPool2d::new(0).is_err());
    }

    #[test]
    fn relu_clamps_and_masks() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![3], vec![-1.0, 0.0, 2.0]).unwrap();
        let out = r.forward(&x).unwrap();
        assert_eq!(out.data(), &[0.0, 0.0, 2.0]);
        let g = Tensor::from_vec(vec![3], vec![1.0, 1.0, 1.0]).unwrap();
        let gi = r.backward(&g).unwrap();
        assert_eq!(gi.data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn residual_adds_scaled_shortcut() {
        // Body = identity conv ⇒ y = x + λx.
        let mut c = Conv2d::new(3, 1, 1, &mut rng()).unwrap();
        for w in c.weights.iter_mut() {
            *w = 0.0;
        }
        c.weights[3 + 1] = 1.0;
        let mut r = Residual::new(vec![Layer::Conv2d(c)], 0.5).unwrap();
        let x = Tensor::from_vec(vec![1, 2, 1], vec![2.0, 4.0]).unwrap();
        let out = r.forward(&x).unwrap();
        assert_eq!(out.data(), &[3.0, 6.0]);
    }

    #[test]
    fn residual_backward_includes_shortcut() {
        let mut c = Conv2d::new(3, 1, 1, &mut rng()).unwrap();
        for w in c.weights.iter_mut() {
            *w = 0.0;
        }
        c.weights[3 + 1] = 1.0;
        let mut r = Residual::new(vec![Layer::Conv2d(c)], 0.5).unwrap();
        let x = Tensor::from_vec(vec![1, 1, 1], vec![1.0]).unwrap();
        r.forward(&x).unwrap();
        let g = Tensor::from_vec(vec![1, 1, 1], vec![1.0]).unwrap();
        let gi = r.backward(&g).unwrap();
        // identity path grad 1 + shortcut 0.5.
        assert_eq!(gi.data(), &[1.5]);
    }

    #[test]
    fn residual_rejects_empty_body_and_shape_change() {
        assert!(Residual::new(vec![], 1.0).is_err());
        let mut rng = rng();
        let body = vec![Layer::Conv2d(Conv2d::new(3, 1, 2, &mut rng).unwrap())];
        let mut r = Residual::new(body, 1.0).unwrap();
        assert!(
            r.forward(&Tensor::zeros(vec![2, 2, 1])).is_err(),
            "channel change breaks identity"
        );
    }

    #[test]
    fn spec_roundtrip_and_param_count() {
        let spec = LayerSpec::residual(vec![LayerSpec::conv2d(3, 4, 4), LayerSpec::relu()], 1.0);
        assert_eq!(spec.param_count(), 3 * 3 * 4 * 4);
        let mut rng = rng();
        let layer = Layer::from_spec(&spec, &mut rng).unwrap();
        assert_eq!(layer.spec(), spec);
        assert_eq!(LayerSpec::dense(784, 512).param_count(), 784 * 512);
        assert_eq!(LayerSpec::avg_pool(2).param_count(), 0);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut d = Dense::new(2, 2, &mut rng()).unwrap();
        assert!(d.backward(&Tensor::zeros(vec![2])).is_err());
        let mut r = Relu::new();
        assert!(r.backward(&Tensor::zeros(vec![2])).is_err());
    }

    #[test]
    fn sgd_step_moves_weights_and_clears_grads() {
        let mut d = Dense::new(1, 1, &mut rng()).unwrap();
        d.weights = vec![1.0];
        let x = Tensor::from_vec(vec![1], vec![2.0]).unwrap();
        d.forward(&x).unwrap();
        d.backward(&Tensor::from_vec(vec![1], vec![1.0]).unwrap()).unwrap();
        assert_eq!(d.grads, vec![2.0]);
        let mut layer = Layer::Dense(d);
        layer.sgd_step(0.1);
        assert!((layer.weights()[0] - 0.8).abs() < 1e-12);
        let Layer::Dense(d) = &layer else { unreachable!() };
        assert_eq!(d.grads, vec![0.0]);
        // Without gradients a step moves nothing.
        layer.release_gradients();
        assert_eq!(layer.gradient_bytes(), 0);
        layer.sgd_step(0.1);
        assert!((layer.weights()[0] - 0.8).abs() < 1e-12);
    }
}
