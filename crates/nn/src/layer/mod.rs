//! Layer types and the dispatch enum composing them into networks.
//!
//! Layers are plain data (weights + hyperparameters). Dispatch is a closed
//! `enum` rather than trait objects: the set of layer types the paper's
//! fifteen models need is fixed and small, and the enum keeps serialization,
//! shape inference and exhaustive testing straightforward.
//!
//! Each kind has one forward and one backward, both drawing their buffers
//! from a [`Workspace`]. What a backward needs from its forward is decided
//! here, once: the input `x` and output `y` that a [`ForwardPass`] records
//! anyway, plus a [`Cache`] for what is not a function of those two.

mod activation;
mod conv;
mod dense;
mod norm;
mod pool;
mod residual;

pub use conv::Conv2d;
pub use dense::Dense;
pub use norm::{BatchNorm, Dropout};
pub use pool::{AvgPool2d, MaxPool2d};
pub use residual::Residual;

use std::slice;

use dx_tensor::{rng::Rng, Tensor, Workspace};

use crate::init::Init;
use crate::network::ForwardPass;

/// What a layer's backward needs beyond its recorded input and output.
///
/// A [`ForwardPass`] holds one per layer next to the activations, so a pass
/// is immutable and can be differentiated repeatedly (the DeepXplore inner
/// loop reuses one pass for both objectives). Most kinds need nothing.
#[derive(Clone, Debug)]
pub enum Cache {
    /// Nothing: the backward is a function of the recorded input/output.
    None,
    /// Max pooling: the flat input offset of each output's maximum.
    ArgMax(Vec<usize>),
    /// Training-mode dropout: the sampled, scaled multiplicative mask.
    Mask(Tensor),
    /// Batch-norm cache.
    BatchNorm {
        /// The normalized input `x̂`.
        xhat: Tensor,
        /// Per-feature inverse standard deviation.
        inv_std: Tensor,
        /// The batch `(mean, variance)` a training-mode forward normalised
        /// with; `None` when it used the running statistics.
        batch: Option<(Vec<f32>, Vec<f32>)>,
    },
    /// Residual block: the pass recorded over its body.
    Residual(ForwardPass),
    /// A layer run on its own ([`Layer::forward`], [`Layer::forward_train`]):
    /// the one-layer pass that recorded its input, output and cache.
    Standalone(ForwardPass),
}

impl Cache {
    /// Returns every buffer the cache owns to the workspace.
    pub(crate) fn recycle(self, ws: &mut Workspace) {
        match self {
            Cache::None | Cache::ArgMax(_) => {}
            Cache::Mask(t) => ws.put_tensor(t),
            Cache::BatchNorm { xhat, inv_std, .. } => {
                ws.put_tensor(xhat);
                ws.put_tensor(inv_std);
            }
            Cache::Residual(pass) | Cache::Standalone(pass) => pass.recycle(ws),
        }
    }
}

/// One network layer.
///
/// Constructors are provided for each variant (e.g. [`Layer::dense`],
/// [`Layer::conv2d`]); the enum itself is public so downstream code can
/// inspect architectures (the coverage crate does).
#[derive(Clone, Debug)]
pub enum Layer {
    /// Fully connected affine map over `[N, I] -> [N, O]`.
    Dense(Dense),
    /// 2-D convolution over `[N, C, H, W]`.
    Conv2d(Conv2d),
    /// Max pooling over non-overlapping (or strided) windows.
    MaxPool2d(MaxPool2d),
    /// Average pooling.
    AvgPool2d(AvgPool2d),
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Row-wise softmax over `[N, K]`.
    Softmax,
    /// Reshape `[N, C, H, W] -> [N, C·H·W]`.
    Flatten,
    /// Inverted dropout (identity at inference).
    Dropout(Dropout),
    /// Batch normalization (per feature or per channel).
    BatchNorm(BatchNorm),
    /// Residual block `y = body(x) + skip(x)`.
    Residual(Residual),
}

impl Layer {
    /// Fully connected layer with He-normal initialization.
    pub fn dense(in_features: usize, out_features: usize) -> Self {
        Layer::Dense(Dense::new(in_features, out_features, Init::HeNormal))
    }

    /// Fully connected layer with an explicit initialization scheme.
    pub fn dense_init(in_features: usize, out_features: usize, init: Init) -> Self {
        Layer::Dense(Dense::new(in_features, out_features, init))
    }

    /// Convolution with square kernel, He-normal initialization.
    pub fn conv2d(in_ch: usize, out_ch: usize, kernel: usize, stride: usize, pad: usize) -> Self {
        Layer::Conv2d(Conv2d::new(in_ch, out_ch, kernel, stride, pad, Init::HeNormal))
    }

    /// Convolution with an explicit initialization scheme.
    pub fn conv2d_init(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        init: Init,
    ) -> Self {
        Layer::Conv2d(Conv2d::new(in_ch, out_ch, kernel, stride, pad, init))
    }

    /// Max pooling with square window `kernel` and stride equal to it.
    pub fn maxpool2d(kernel: usize) -> Self {
        Layer::MaxPool2d(MaxPool2d::new(kernel, kernel))
    }

    /// Average pooling with square window `kernel` and stride equal to it.
    pub fn avgpool2d(kernel: usize) -> Self {
        Layer::AvgPool2d(AvgPool2d::new(kernel, kernel))
    }

    /// ReLU activation.
    pub fn relu() -> Self {
        Layer::Relu
    }

    /// Sigmoid activation.
    pub fn sigmoid() -> Self {
        Layer::Sigmoid
    }

    /// Tanh activation.
    pub fn tanh() -> Self {
        Layer::Tanh
    }

    /// Softmax output layer.
    pub fn softmax() -> Self {
        Layer::Softmax
    }

    /// Flattening layer.
    pub fn flatten() -> Self {
        Layer::Flatten
    }

    /// Dropout with the given drop probability.
    pub fn dropout(p: f32) -> Self {
        Layer::Dropout(Dropout::new(p))
    }

    /// Batch normalization over `features` channels/features.
    pub fn batch_norm(features: usize) -> Self {
        Layer::BatchNorm(BatchNorm::new(features))
    }

    /// Identity-skip residual block.
    pub fn residual(body: Vec<Layer>) -> Self {
        Layer::Residual(Residual::new(body))
    }

    /// Residual block with a 1×1 projection skip for channel/stride changes.
    pub fn residual_projected(body: Vec<Layer>, projection: Conv2d) -> Self {
        Layer::Residual(Residual::with_projection(body, projection))
    }

    /// Short human-readable name (used in `Network::describe`).
    pub fn name(&self) -> String {
        match self {
            Layer::Dense(d) => format!("Dense({}→{})", d.in_features, d.out_features),
            Layer::Conv2d(c) => format!(
                "Conv2d({}→{}, k{}, s{}, p{})",
                c.in_ch, c.out_ch, c.kernel, c.stride, c.pad
            ),
            Layer::MaxPool2d(p) => format!("MaxPool2d(k{})", p.kernel),
            Layer::AvgPool2d(p) => format!("AvgPool2d(k{})", p.kernel),
            Layer::Relu => "ReLU".into(),
            Layer::Sigmoid => "Sigmoid".into(),
            Layer::Tanh => "Tanh".into(),
            Layer::Softmax => "Softmax".into(),
            Layer::Flatten => "Flatten".into(),
            Layer::Dropout(d) => format!("Dropout({})", d.p),
            Layer::BatchNorm(b) => format!("BatchNorm({})", b.features),
            Layer::Residual(r) => format!(
                "Residual({} layers{})",
                r.body.len(),
                if r.projection.is_some() { ", projected" } else { "" }
            ),
        }
    }

    /// Whether this layer's output participates in neuron coverage.
    ///
    /// Following the original implementation, coverage is read at the
    /// post-activation output of each computational block: activations,
    /// pooling layers and the softmax output. Structural layers (flatten,
    /// dropout) and pre-activation linear outputs do not count.
    pub fn is_coverage_layer(&self) -> bool {
        matches!(
            self,
            Layer::Relu
                | Layer::Sigmoid
                | Layer::Tanh
                | Layer::Softmax
                | Layer::MaxPool2d(_)
                | Layer::AvgPool2d(_)
                | Layer::Residual(_)
        )
    }

    /// Output shape (without the batch dimension) for a given input shape.
    ///
    /// # Panics
    ///
    /// Panics if the input shape is incompatible with the layer — this is
    /// how `Network::new` validates an architecture at build time.
    pub fn output_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        match self {
            Layer::Dense(d) => d.output_shape(in_shape),
            Layer::Conv2d(c) => c.output_shape(in_shape),
            Layer::MaxPool2d(p) => p.output_shape(in_shape),
            Layer::AvgPool2d(p) => p.output_shape(in_shape),
            Layer::BatchNorm(b) => b.output_shape(in_shape),
            Layer::Residual(r) => r.output_shape(in_shape),
            Layer::Flatten => {
                vec![in_shape.iter().product()]
            }
            Layer::Relu | Layer::Sigmoid | Layer::Tanh | Layer::Dropout(_) => in_shape.to_vec(),
            Layer::Softmax => {
                assert_eq!(in_shape.len(), 1, "softmax expects a vector input, got {in_shape:?}");
                in_shape.to_vec()
            }
        }
    }

    /// The one forward: evaluation mode, or training mode when `train`
    /// carries the RNG (dropout samples its mask from it, batch-norm
    /// normalises with batch statistics). Buffers come from `ws`.
    pub(crate) fn run(
        &self,
        x: &Tensor,
        train: Option<&mut Rng>,
        ws: &mut Workspace,
    ) -> (Tensor, Cache) {
        match self {
            Layer::Dense(d) => d.forward_ws(x, ws),
            Layer::Conv2d(c) => c.forward_ws(x, ws),
            Layer::MaxPool2d(p) => p.forward(x, ws),
            Layer::AvgPool2d(p) => p.forward(x, ws),
            Layer::Relu => (activation::relu_forward(x, ws), Cache::None),
            Layer::Sigmoid => (activation::sigmoid_forward(x, ws), Cache::None),
            Layer::Tanh => (activation::tanh_forward(x, ws), Cache::None),
            Layer::Softmax => (activation::softmax_forward(x, ws), Cache::None),
            Layer::Flatten => {
                let n = x.shape()[0];
                let rest: usize = x.shape()[1..].iter().product();
                (Tensor::from_vec(ws.take_copy(x.data()), &[n, rest]), Cache::None)
            }
            Layer::Dropout(d) => d.forward(x, train, ws),
            Layer::BatchNorm(b) => b.forward(x, train.is_some(), ws),
            Layer::Residual(r) => r.forward(x, train, ws),
        }
    }

    /// The one backward, given the input `x` and output `y` the forward saw
    /// and the `cache` it returned: consumes the gradient at the output (its
    /// buffer is rewritten, reshaped or recycled) and returns the gradient
    /// at the input plus — when `want_param_grads` — the parameter
    /// gradients in [`Layer::params`] order.
    ///
    /// # Panics
    ///
    /// Panics if `cache` does not belong to this layer type.
    pub(crate) fn run_backward(
        &self,
        x: &Tensor,
        y: &Tensor,
        cache: &Cache,
        mut grad: Tensor,
        want_param_grads: bool,
        ws: &mut Workspace,
    ) -> (Tensor, Vec<Tensor>) {
        let (dx, param_grads) = match (self, cache) {
            (Layer::Dense(d), Cache::None) => d.backward(x, &grad, want_param_grads, ws),
            (Layer::Conv2d(c), Cache::None) => c.backward(x, &grad, want_param_grads, ws),
            (Layer::MaxPool2d(p), Cache::ArgMax(indices)) => {
                (p.backward(indices, x.shape(), &grad, ws), vec![])
            }
            (Layer::AvgPool2d(p), Cache::None) => (p.backward(x.shape(), &grad, ws), vec![]),
            (Layer::BatchNorm(b), Cache::BatchNorm { xhat, inv_std, batch }) => {
                b.backward(xhat, inv_std, batch.is_some(), &grad, want_param_grads, ws)
            }
            (Layer::Residual(r), Cache::Residual(body)) => {
                r.backward(body, &grad, want_param_grads, ws)
            }
            // The remaining kinds hand the incoming buffer on.
            (Layer::Relu, Cache::None) => return (activation::relu_backward(x, grad), vec![]),
            (Layer::Sigmoid, Cache::None) => {
                return (activation::sigmoid_backward(y, grad), vec![])
            }
            (Layer::Tanh, Cache::None) => return (activation::tanh_backward(y, grad), vec![]),
            (Layer::Softmax, Cache::None) => {
                return (activation::softmax_backward(y, grad), vec![])
            }
            (Layer::Flatten, Cache::None) => return (grad.into_reshaped(x.shape()), vec![]),
            (Layer::Dropout(_), Cache::None) => return (grad, vec![]),
            (Layer::Dropout(_), Cache::Mask(mask)) => {
                for (g, &m) in grad.data_mut().iter_mut().zip(mask.data()) {
                    *g *= m;
                }
                return (grad, vec![]);
            }
            (layer, cache) => panic!("cache {cache:?} does not belong to layer {}", layer.name()),
        };
        ws.put_tensor(grad);
        (dx, param_grads)
    }

    /// Evaluation-mode forward pass of this layer on its own. The returned
    /// [`Cache::Standalone`] records input and output, so
    /// [`Layer::backward`] needs nothing else.
    pub fn forward(&self, x: &Tensor) -> (Tensor, Cache) {
        let pass = ForwardPass::record(slice::from_ref(self), x, None, &mut Workspace::new());
        (pass.output().clone(), Cache::Standalone(pass))
    }

    /// Evaluation-mode forward pass with the output (and whatever the cache
    /// holds) drawn from a workspace — what a network's walk runs per layer.
    /// The cache is the bare one: it does not repeat `x` and the output, so
    /// it is not an argument for [`Layer::backward`].
    pub fn forward_lite(&self, x: &Tensor, ws: &mut Workspace) -> (Tensor, Cache) {
        self.run(x, None, ws)
    }

    /// Training-mode forward pass of this layer on its own; samples dropout
    /// masks and updates batch-norm running statistics. The cache is
    /// self-sufficient like [`Layer::forward`]'s.
    pub fn forward_train(&mut self, x: &Tensor, r: &mut Rng) -> (Tensor, Cache) {
        let pass = ForwardPass::record(slice::from_ref(self), x, Some(r), &mut Workspace::new());
        absorb_batch_stats(slice::from_mut(self), &pass.caches);
        (pass.output().clone(), Cache::Standalone(pass))
    }

    /// Backward pass for a cache from [`Layer::forward`] or
    /// [`Layer::forward_train`]: the gradient at the layer input and — when
    /// `want_param_grads` — the parameter gradients in [`Layer::params`] order.
    ///
    /// # Panics
    ///
    /// Panics if `cache` does not belong to this layer type.
    pub fn backward(
        &self,
        cache: &Cache,
        grad_out: &Tensor,
        want_param_grads: bool,
    ) -> (Tensor, Vec<Tensor>) {
        let Cache::Standalone(pass) = cache else {
            panic!("cache {cache:?} does not belong to layer {}: it records no input", self.name())
        };
        let (layers, mut ws) = (slice::from_ref(self), Workspace::new());
        let (dx, mut grads) = pass.sweep(layers, grad_out.clone(), &[], want_param_grads, &mut ws);
        (dx, grads.pop().unwrap_or_default())
    }

    /// Trainable parameters, in a fixed order.
    pub fn params(&self) -> Vec<&Tensor> {
        match self {
            Layer::Dense(d) => vec![&d.weight, &d.bias],
            Layer::Conv2d(c) => vec![&c.weight, &c.bias],
            Layer::BatchNorm(b) => vec![&b.gamma, &b.beta],
            Layer::Residual(r) => r.params(),
            _ => vec![],
        }
    }

    /// Trainable parameters, mutably.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        match self {
            Layer::Dense(d) => vec![&mut d.weight, &mut d.bias],
            Layer::Conv2d(c) => vec![&mut c.weight, &mut c.bias],
            Layer::BatchNorm(b) => vec![&mut b.gamma, &mut b.beta],
            Layer::Residual(r) => r.params_mut(),
            _ => vec![],
        }
    }

    /// Non-trainable state tensors (batch-norm running statistics); included
    /// in serialization but not touched by optimizers.
    pub fn state(&self) -> Vec<&Tensor> {
        match self {
            Layer::BatchNorm(b) => vec![&b.running_mean, &b.running_var],
            Layer::Residual(r) => r.state(),
            _ => vec![],
        }
    }

    /// Non-trainable state tensors, mutably.
    pub fn state_mut(&mut self) -> Vec<&mut Tensor> {
        match self {
            Layer::BatchNorm(b) => vec![&mut b.running_mean, &mut b.running_var],
            Layer::Residual(r) => r.state_mut(),
            _ => vec![],
        }
    }

    /// (Re)samples this layer's weights.
    pub fn init_weights(&mut self, r: &mut Rng) {
        match self {
            Layer::Dense(d) => d.init_weights(r),
            Layer::Conv2d(c) => c.init_weights(r),
            Layer::BatchNorm(b) => b.reset(),
            Layer::Residual(res) => res.init_weights(r),
            _ => {}
        }
    }
}

/// Folds the batch statistics a training-mode walk over `layers` left in
/// `caches` into the batch-norm running averages, residual bodies included.
pub(crate) fn absorb_batch_stats(layers: &mut [Layer], caches: &[Cache]) {
    for pair in layers.iter_mut().zip(caches) {
        match pair {
            (Layer::BatchNorm(b), Cache::BatchNorm { batch: Some((mean, var)), .. }) => {
                b.update_running(mean, var);
            }
            (Layer::Residual(r), Cache::Residual(body)) => {
                absorb_batch_stats(&mut r.body, &body.caches);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_tensor::rng;

    #[test]
    fn names_are_informative() {
        assert_eq!(Layer::dense(3, 4).name(), "Dense(3→4)");
        assert_eq!(Layer::conv2d(1, 8, 3, 1, 1).name(), "Conv2d(1→8, k3, s1, p1)");
        assert_eq!(Layer::relu().name(), "ReLU");
        assert_eq!(Layer::dropout(0.25).name(), "Dropout(0.25)");
    }

    #[test]
    fn coverage_layer_classification() {
        assert!(Layer::relu().is_coverage_layer());
        assert!(Layer::softmax().is_coverage_layer());
        assert!(Layer::maxpool2d(2).is_coverage_layer());
        assert!(!Layer::dense(2, 2).is_coverage_layer());
        assert!(!Layer::flatten().is_coverage_layer());
        assert!(!Layer::dropout(0.5).is_coverage_layer());
    }

    #[test]
    fn flatten_round_trip() {
        let x = rng::uniform(&mut rng::rng(0), &[2, 3, 4, 5], -1.0, 1.0);
        let layer = Layer::flatten();
        let (y, cache) = layer.forward(&x);
        assert_eq!(y.shape(), &[2, 60]);
        let (gx, grads) = layer.backward(&cache, &y, true);
        assert_eq!(gx.shape(), x.shape());
        assert!(grads.is_empty());
        assert_eq!(gx.data(), x.data());
    }

    #[test]
    fn output_shape_chain() {
        let shape = Layer::conv2d(1, 4, 5, 1, 0).output_shape(&[1, 28, 28]);
        assert_eq!(shape, vec![4, 24, 24]);
        let shape = Layer::maxpool2d(2).output_shape(&shape);
        assert_eq!(shape, vec![4, 12, 12]);
        let shape = Layer::flatten().output_shape(&shape);
        assert_eq!(shape, vec![576]);
        let shape = Layer::dense(576, 10).output_shape(&shape);
        assert_eq!(shape, vec![10]);
    }

    #[test]
    #[should_panic(expected = "does not belong to layer")]
    fn mismatched_cache_panics() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let (_, cache) = Layer::maxpool2d(2).forward(&x);
        Layer::relu().backward(&cache, &x, false);
    }

    #[test]
    fn eval_dropout_is_identity() {
        let x = rng::uniform(&mut rng::rng(1), &[4, 6], -1.0, 1.0);
        let layer = Layer::dropout(0.9);
        let (y, _) = layer.forward(&x);
        assert_eq!(y, x);
    }

    #[test]
    fn stateless_layers_have_no_params() {
        for layer in [Layer::relu(), Layer::flatten(), Layer::softmax(), Layer::maxpool2d(2)] {
            assert!(layer.params().is_empty());
            assert!(layer.state().is_empty());
        }
        assert_eq!(Layer::dense(2, 3).params().len(), 2);
        assert_eq!(Layer::batch_norm(4).params().len(), 2);
        assert_eq!(Layer::batch_norm(4).state().len(), 2);
    }
}
