//! Fully connected layer.

use dx_tensor::{kernels, rng::Rng, FusedAct, Tensor, Workspace};

use crate::init::Init;
use crate::layer::Cache;

/// Affine map `y = xW + b` over batched vectors `[N, I] -> [N, O]`.
///
/// The weight is stored `[I, O]` so the forward pass is a single
/// row-major matmul.
#[derive(Clone, Debug)]
pub struct Dense {
    /// Weight matrix, `[in_features, out_features]`.
    pub weight: Tensor,
    /// Bias vector, `[out_features]`.
    pub bias: Tensor,
    /// Input width.
    pub in_features: usize,
    /// Output width.
    pub out_features: usize,
    /// Initialization scheme used by [`Dense::init_weights`].
    pub init: Init,
}

impl Dense {
    /// Creates a dense layer with zeroed parameters (call
    /// `init_weights` before training).
    pub fn new(in_features: usize, out_features: usize, init: Init) -> Self {
        Self {
            weight: Tensor::zeros(&[in_features, out_features]),
            bias: Tensor::zeros(&[out_features]),
            in_features,
            out_features,
            init,
        }
    }

    /// Samples fresh weights; biases reset to zero.
    pub fn init_weights(&mut self, r: &mut Rng) {
        self.weight = self.init.sample(
            r,
            &[self.in_features, self.out_features],
            self.in_features,
            self.out_features,
        );
        self.bias = Tensor::zeros(&[self.out_features]);
    }

    /// Output shape (without batch) for shape validation.
    ///
    /// # Panics
    ///
    /// Panics unless the input is a vector of width `in_features`.
    pub fn output_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        assert_eq!(
            in_shape,
            &[self.in_features],
            "Dense({}→{}) got input shape {in_shape:?}",
            self.in_features,
            self.out_features
        );
        vec![self.out_features]
    }

    /// Forward pass over `[N, I]` through the fused matmul+bias kernel
    /// (which completes the matmul sum before adding the bias), writing
    /// into a workspace buffer.
    ///
    /// [`Cache::None`]: the backward needs nothing a pass does not record —
    /// `dx = g · Wᵀ` touches only the weight, `dW = xᵀ · g` the input.
    ///
    /// # Panics
    ///
    /// Panics if the input is not `[N, in_features]`.
    pub fn forward_ws(&self, x: &Tensor, ws: &mut Workspace) -> (Tensor, Cache) {
        assert!(
            x.rank() == 2 && x.shape()[1] == self.in_features,
            "Dense({}→{}) got input shape {:?}",
            self.in_features,
            self.out_features,
            x.shape()
        );
        let n = x.shape()[0];
        let mut out = ws.take(n * self.out_features);
        kernels::matmul_bias_act(
            x.data(),
            self.weight.data(),
            self.bias.data(),
            n,
            self.in_features,
            self.out_features,
            FusedAct::Identity,
            &mut out,
        );
        (Tensor::from_vec(out, &[n, self.out_features]), Cache::None)
    }

    /// Input gradient only, via the transposed-rhs kernel into a workspace
    /// buffer: `dx = g · Wᵀ` without materializing the transpose.
    pub fn backward_input_ws(&self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        assert_eq!(grad_out.rank(), 2, "Dense backward expects [N, O], got {:?}", grad_out.shape());
        let n = grad_out.shape()[0];
        let mut out = ws.take(n * self.in_features);
        kernels::matmul_bt_acc(
            grad_out.data(),
            self.weight.data(),
            n,
            self.out_features,
            self.in_features,
            &mut out,
        );
        Tensor::from_vec(out, &[n, self.in_features])
    }

    /// Backward pass: `(dx, [dW, db])`, the parameter gradients computed
    /// from the recorded input `x`; without them it is
    /// [`Dense::backward_input_ws`].
    pub fn backward(
        &self,
        x: &Tensor,
        grad_out: &Tensor,
        want_param_grads: bool,
        ws: &mut Workspace,
    ) -> (Tensor, Vec<Tensor>) {
        if !want_param_grads {
            return (self.backward_input_ws(grad_out, ws), vec![]);
        }
        // A training batch is wide enough for a materialised `Wᵀ` to pay:
        // `matmul` vectorises along its output row, the transposed kernel's
        // dot products cannot (cold `pdf` trio training: 0.44 s vs 0.90 s).
        let dx = grad_out.matmul(&self.weight.transpose());
        let dw = x.transpose().matmul(grad_out);
        let (n, o) = (grad_out.shape()[0], grad_out.shape()[1]);
        let mut db = vec![0.0f32; o];
        let g = grad_out.data();
        for i in 0..n {
            for j in 0..o {
                db[j] += g[i * o + j];
            }
        }
        (dx, vec![dw, Tensor::from_vec(db, &[o])])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_tensor::rng;

    fn layer() -> Dense {
        let mut d = Dense::new(3, 2, Init::XavierUniform);
        d.weight = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 2.0, -1.0], &[3, 2]);
        d.bias = Tensor::from_slice(&[0.5, -0.5]);
        d
    }

    #[test]
    fn forward_known_values() {
        let d = layer();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let (y, _) = d.forward_ws(&x, &mut Workspace::new());
        // y0 = 1*1 + 2*0 + 3*2 + 0.5 = 7.5 ; y1 = 1*0 + 2*1 + 3*(-1) - 0.5 = -1.5.
        assert_eq!(y.data(), &[7.5, -1.5]);
    }

    #[test]
    fn forward_batched() {
        let d = layer();
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0], &[2, 3]);
        let (y, _) = d.forward_ws(&x, &mut Workspace::new());
        assert_eq!(y.shape(), &[2, 2]);
        assert_eq!(y.data(), &[1.5, -0.5, 0.5, 0.5]);
    }

    #[test]
    fn backward_shapes() {
        let d = layer();
        let x = rng::uniform(&mut rng::rng(0), &[4, 3], -1.0, 1.0);
        let g = rng::uniform(&mut rng::rng(1), &[4, 2], -1.0, 1.0);
        let (dx, grads) = d.backward(&x, &g, true, &mut Workspace::new());
        assert_eq!(dx.shape(), &[4, 3]);
        assert_eq!(grads[0].shape(), &[3, 2]);
        assert_eq!(grads[1].shape(), &[2]);
    }

    #[test]
    fn backward_bias_grad_is_column_sum() {
        let d = layer();
        let x = Tensor::zeros(&[3, 3]);
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let (_, grads) = d.backward(&x, &g, true, &mut Workspace::new());
        assert_eq!(grads[1].data(), &[9.0, 12.0]);
    }

    #[test]
    fn input_only_backward_skips_param_grads() {
        let d = layer();
        let x = Tensor::zeros(&[1, 3]);
        let g = Tensor::ones(&[1, 2]);
        let (_, grads) = d.backward(&x, &g, false, &mut Workspace::new());
        assert!(grads.is_empty());
    }

    #[test]
    fn init_weights_resamples() {
        let mut d = Dense::new(4, 4, Init::HeNormal);
        d.init_weights(&mut rng::rng(3));
        assert!(d.weight.data().iter().any(|&v| v != 0.0));
        assert!(d.bias.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "got input shape")]
    fn wrong_width_panics() {
        layer().forward_ws(&Tensor::zeros(&[1, 4]), &mut Workspace::new());
    }
}
