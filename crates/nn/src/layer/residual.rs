//! Residual blocks (He et al. 2016) — `y = f(x) + skip(x)`.
//!
//! The paper's ImageNet trio includes ResNet50; skip connections are the
//! architectural property that distinguishes it from the VGG models, so the
//! engine supports them as a composite layer: a sequential `body` plus an
//! optional 1×1 projection on the skip path for channel/stride changes.

use dx_tensor::{rng::Rng, Tensor, Workspace};

use crate::layer::{Cache, Conv2d, Layer};
use crate::network::ForwardPass;

/// A residual block: `y = body(x) + skip(x)` where `skip` is the identity
/// or a 1×1 projection convolution.
#[derive(Clone, Debug)]
pub struct Residual {
    /// The residual function `f`, a sequential layer chain.
    pub body: Vec<Layer>,
    /// Optional projection aligning the skip path with the body output
    /// (needed when the body changes channels or stride).
    pub projection: Option<Conv2d>,
}

impl Residual {
    /// Creates an identity-skip residual block.
    pub fn new(body: Vec<Layer>) -> Self {
        assert!(!body.is_empty(), "residual body cannot be empty");
        Self { body, projection: None }
    }

    /// Creates a residual block with a 1×1 projection skip.
    pub fn with_projection(body: Vec<Layer>, projection: Conv2d) -> Self {
        assert!(!body.is_empty(), "residual body cannot be empty");
        assert_eq!(projection.kernel, 1, "skip projection must be 1x1");
        Self { body, projection: Some(projection) }
    }

    /// Output shape; validates that body and skip paths agree.
    ///
    /// # Panics
    ///
    /// Panics if the two paths produce different shapes.
    pub fn output_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        let mut cur = in_shape.to_vec();
        for layer in &self.body {
            cur = layer.output_shape(&cur);
        }
        let skip_shape = match &self.projection {
            Some(p) => p.output_shape(in_shape),
            None => in_shape.to_vec(),
        };
        assert_eq!(cur, skip_shape, "residual paths disagree: body {cur:?} vs skip {skip_shape:?}");
        cur
    }

    /// Forward pass, in training mode when `train` carries the RNG (inner
    /// dropout and batch-norm active). The cache is the pass recorded over
    /// the body.
    pub fn forward(
        &self,
        x: &Tensor,
        train: Option<&mut Rng>,
        ws: &mut Workspace,
    ) -> (Tensor, Cache) {
        let body = ForwardPass::record(&self.body, x, train, ws);
        let mut out = match &self.projection {
            Some(p) => p.forward_ws(x, ws).0,
            None => Tensor::from_vec(ws.take_copy(x.data()), x.shape()),
        };
        for (s, &b) in out.data_mut().iter_mut().zip(body.output().data()) {
            *s += b;
        }
        (out, Cache::Residual(body))
    }

    /// Backward pass over the recorded `body` pass (whose input is the
    /// block's): gradients flow through both paths and sum at the input.
    /// Parameter gradients are body-first then projection, matching
    /// [`Residual::params`] order.
    pub fn backward(
        &self,
        body: &ForwardPass,
        grad_out: &Tensor,
        want_param_grads: bool,
        ws: &mut Workspace,
    ) -> (Tensor, Vec<Tensor>) {
        let seed = Tensor::from_vec(ws.take_copy(grad_out.data()), grad_out.shape());
        let (mut grad, per_layer) = body.sweep(&self.body, seed, &[], want_param_grads, ws);
        let mut param_grads: Vec<Tensor> = per_layer.into_iter().flatten().collect();
        match &self.projection {
            Some(p) => {
                let (skip_grad, pg) = p.backward(body.input(), grad_out, want_param_grads, ws);
                param_grads.extend(pg);
                grad += &skip_grad;
                ws.put_tensor(skip_grad);
            }
            None => grad += grad_out,
        }
        (grad, param_grads)
    }

    /// Trainable parameters: body layers in order, then the projection.
    pub fn params(&self) -> Vec<&Tensor> {
        let mut p: Vec<&Tensor> = self.body.iter().flat_map(|l| l.params()).collect();
        if let Some(proj) = &self.projection {
            p.push(&proj.weight);
            p.push(&proj.bias);
        }
        p
    }

    /// Trainable parameters, mutably.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        let mut p: Vec<&mut Tensor> = self.body.iter_mut().flat_map(|l| l.params_mut()).collect();
        if let Some(proj) = &mut self.projection {
            p.push(&mut proj.weight);
            p.push(&mut proj.bias);
        }
        p
    }

    /// Non-trainable state (inner batch-norm running statistics).
    pub fn state(&self) -> Vec<&Tensor> {
        self.body.iter().flat_map(|l| l.state()).collect()
    }

    /// Non-trainable state, mutably.
    pub fn state_mut(&mut self) -> Vec<&mut Tensor> {
        self.body.iter_mut().flat_map(|l| l.state_mut()).collect()
    }

    /// (Re)samples all weights in the block.
    pub fn init_weights(&mut self, r: &mut Rng) {
        for layer in &mut self.body {
            layer.init_weights(r);
        }
        if let Some(proj) = &mut self.projection {
            proj.init_weights(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use dx_tensor::rng;

    fn identity_block() -> Layer {
        Layer::residual(vec![
            Layer::conv2d(2, 2, 3, 1, 1),
            Layer::tanh(),
            Layer::conv2d(2, 2, 3, 1, 1),
        ])
    }

    #[test]
    fn zero_body_is_identity() {
        // With zero weights the body contributes nothing: y = x.
        let block = identity_block();
        let x = rng::uniform(&mut rng::rng(0), &[1, 2, 4, 4], -1.0, 1.0);
        let (y, _) = block.forward(&x);
        assert_eq!(y, x);
    }

    #[test]
    fn output_shape_validates_paths() {
        let block = identity_block();
        assert_eq!(block.output_shape(&[2, 4, 4]), vec![2, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "residual paths disagree")]
    fn mismatched_paths_panic() {
        let block = Residual::new(vec![Layer::conv2d(2, 4, 3, 1, 1)]);
        block.output_shape(&[2, 4, 4]);
    }

    #[test]
    fn projection_handles_channel_change() {
        let body = vec![Layer::conv2d(2, 4, 3, 2, 1), Layer::relu(), Layer::conv2d(4, 4, 3, 1, 1)];
        let proj = Conv2d::new(2, 4, 1, 2, 0, Init::HeNormal);
        let mut block = Layer::residual_projected(body, proj);
        assert_eq!(block.output_shape(&[2, 8, 8]), vec![4, 4, 4]);
        block.init_weights(&mut rng::rng(1));
        let x = rng::uniform(&mut rng::rng(2), &[2, 2, 8, 8], -1.0, 1.0);
        let (y, _) = block.forward(&x);
        assert_eq!(y.shape(), &[2, 4, 4, 4]);
    }

    #[test]
    fn backward_sums_both_paths() {
        // For the identity block with zero weights, dy/dx = I (body grads
        // are zero through zero conv weights), so dx == grad_out.
        let block = identity_block();
        let x = rng::uniform(&mut rng::rng(3), &[1, 2, 4, 4], -1.0, 1.0);
        let (_, cache) = block.forward(&x);
        let g = rng::uniform(&mut rng::rng(4), &[1, 2, 4, 4], -1.0, 1.0);
        let (dx, _) = block.backward(&cache, &g, false);
        assert_eq!(dx, g);
    }

    #[test]
    fn param_order_is_stable() {
        let mut block = identity_block();
        block.init_weights(&mut rng::rng(5));
        let n = block.params().len();
        assert_eq!(n, 4); // Two convs, weight+bias each.
        assert_eq!(block.params_mut().len(), n);
    }

    #[test]
    fn finite_difference_through_block() {
        let mut block = Layer::residual(vec![Layer::conv2d(1, 1, 3, 1, 1), Layer::tanh()]);
        block.init_weights(&mut rng::rng(6));
        let x = rng::uniform(&mut rng::rng(7), &[1, 1, 3, 3], -0.5, 0.5);
        let probe = rng::uniform(&mut rng::rng(8), &[1, 1, 3, 3], -1.0, 1.0);
        let (_, cache) = block.forward(&x);
        let (dx, _) = block.backward(&cache, &probe, false);
        let f = |x: &Tensor| -> f32 {
            let (y, _) = block.forward(x);
            y.hadamard(&probe).sum()
        };
        let h = 1e-2;
        for i in 0..x.len() {
            let mut plus = x.clone();
            plus.data_mut()[i] += h;
            let mut minus = x.clone();
            minus.data_mut()[i] -= h;
            let fd = (f(&plus) - f(&minus)) / (2.0 * h);
            assert!((fd - dx.data()[i]).abs() < 2e-2, "fd {fd} vs analytic {}", dx.data()[i]);
        }
    }
}
