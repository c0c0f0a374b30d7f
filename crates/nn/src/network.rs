//! Sequential networks with recorded forward passes and input gradients.

use dx_tensor::{rng::Rng, Tensor, Workspace};

use crate::layer::{Cache, Layer};

/// A recorded forward pass: every intermediate activation plus the caches
/// the backward pass needs.
///
/// `activations[0]` is the input and `activations[i + 1]` is the output of
/// layer `i`; DeepXplore's neuron coverage reads hidden activations from
/// here, and both backward passes consume the caches.
pub struct ForwardPass {
    /// All activations, `layers.len() + 1` entries, batched.
    pub activations: Vec<Tensor>,
    caches: Vec<Cache>,
}

impl ForwardPass {
    /// The network output (last activation).
    pub fn output(&self) -> &Tensor {
        self.activations.last().expect("forward pass has at least the input")
    }

    /// The input the pass was computed from.
    pub fn input(&self) -> &Tensor {
        &self.activations[0]
    }

    /// Batch size of the pass.
    pub fn batch_size(&self) -> usize {
        self.activations[0].shape()[0]
    }

    /// Extracts one sample of a batched pass as a batch-1 pass.
    ///
    /// Every activation's `row`-th slice is copied out with a leading
    /// dimension of 1. Caches are **not** extracted (they come back as
    /// [`Cache::None`]), so the result supports activation readers — the
    /// coverage trackers, which assert batch size 1 — but not backward
    /// passes.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_pass(&self, row: usize) -> ForwardPass {
        let activations = self
            .activations
            .iter()
            .map(|a| {
                let n = a.shape()[0];
                assert!(row < n, "row {row} out of range for batch {n}");
                let per = a.len() / n;
                let mut shape = a.shape().to_vec();
                shape[0] = 1;
                Tensor::from_vec(a.data()[row * per..(row + 1) * per].to_vec(), &shape)
            })
            .collect();
        ForwardPass { activations, caches: vec![Cache::None; self.caches.len()] }
    }

    /// [`ForwardPass::row_pass`] with the row copies drawn from the
    /// workspace (recycle the result to return them).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_pass_ws(&self, row: usize, ws: &mut Workspace) -> ForwardPass {
        let activations = self
            .activations
            .iter()
            .map(|a| {
                let n = a.shape()[0];
                assert!(row < n, "row {row} out of range for batch {n}");
                let per = a.len() / n;
                let mut shape = a.shape().to_vec();
                shape[0] = 1;
                Tensor::from_vec(ws.take_copy(&a.data()[row * per..(row + 1) * per]), &shape)
            })
            .collect();
        ForwardPass { activations, caches: vec![Cache::None; self.caches.len()] }
    }

    /// Returns every buffer the pass owns (activations plus any cached
    /// tensors) to the workspace for reuse by the next pass.
    pub fn recycle(self, ws: &mut Workspace) {
        for a in self.activations {
            ws.put_tensor(a);
        }
        for c in self.caches {
            recycle_cache(c, ws);
        }
    }
}

fn recycle_cache(cache: Cache, ws: &mut Workspace) {
    match cache {
        Cache::Input(t) | Cache::Output(t) | Cache::Mask(t) => ws.put_tensor(t),
        Cache::BatchNorm { xhat, inv_std, .. } => {
            ws.put_tensor(xhat);
            ws.put_tensor(inv_std);
        }
        Cache::Residual { inner, proj } => {
            for c in inner {
                recycle_cache(c, ws);
            }
            if let Some(p) = proj {
                recycle_cache(*p, ws);
            }
        }
        Cache::ArgMax { .. } | Cache::Shape(_) | Cache::None => {}
    }
}

/// A feed-forward network: an input shape plus a layer pipeline.
///
/// The constructor validates the whole chain by shape inference, so a
/// mis-configured architecture fails at build time with the offending layer
/// named, not deep inside a training run.
#[derive(Clone, Debug)]
pub struct Network {
    layers: Vec<Layer>,
    input_shape: Vec<usize>,
    activation_shapes: Vec<Vec<usize>>,
}

impl Network {
    /// Builds a network, inferring and validating every intermediate shape.
    ///
    /// `input_shape` excludes the batch dimension (e.g. `[1, 28, 28]` for
    /// MNIST-like images, `[135]` for PDF feature vectors).
    ///
    /// # Panics
    ///
    /// Panics if any layer rejects its inferred input shape.
    pub fn new(input_shape: &[usize], layers: Vec<Layer>) -> Self {
        let mut shapes = Vec::with_capacity(layers.len() + 1);
        shapes.push(input_shape.to_vec());
        let mut cur = input_shape.to_vec();
        for layer in &layers {
            cur = layer.output_shape(&cur);
            shapes.push(cur.clone());
        }
        Self { layers, input_shape: input_shape.to_vec(), activation_shapes: shapes }
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The input shape (without batch).
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Shape (without batch) of every activation; index 0 is the input.
    pub fn activation_shapes(&self) -> &[Vec<usize>] {
        &self.activation_shapes
    }

    /// Activation indices whose outputs participate in neuron coverage.
    ///
    /// These are the post-activation outputs of each block (see
    /// [`Layer::is_coverage_layer`]); the final activation is always
    /// included so regression heads without a trailing nonlinearity (the
    /// DAVE models' steering output) are covered too.
    pub fn coverage_activation_indices(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = self
            .layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.is_coverage_layer())
            .map(|(i, _)| i + 1)
            .collect();
        let last = self.layers.len();
        if last > 0 && idx.last() != Some(&last) {
            idx.push(last);
        }
        idx
    }

    /// (Re)samples every layer's weights from its initialization scheme.
    pub fn init_weights(&mut self, r: &mut Rng) {
        for layer in &mut self.layers {
            layer.init_weights(r);
        }
    }

    /// Evaluation-mode forward pass over a batched input.
    ///
    /// # Panics
    ///
    /// Panics if `x` (sans batch) does not match the network input shape.
    pub fn forward(&self, x: &Tensor) -> ForwardPass {
        self.check_batched_input(x);
        let mut activations = Vec::with_capacity(self.layers.len() + 1);
        let mut caches = Vec::with_capacity(self.layers.len());
        activations.push(x.clone());
        let mut cur = x.clone();
        for layer in &self.layers {
            let (y, cache) = layer.forward(&cur);
            caches.push(cache);
            activations.push(y.clone());
            cur = y;
        }
        ForwardPass { activations, caches }
    }

    /// Evaluation-mode forward pass drawing every intermediate activation
    /// from the workspace, with lite caches.
    ///
    /// Bit-identical activations to [`Network::forward`], but steady-state
    /// allocation-free: buffers come from (and should return to, via
    /// [`ForwardPass::recycle`]) the arena, and no derivative caches are
    /// materialized. The resulting pass supports coverage reads and
    /// [`Network::input_gradient_ws`] — not [`Network::backward_params`].
    ///
    /// # Panics
    ///
    /// Panics if `x` (sans batch) does not match the network input shape.
    pub fn forward_lite(&self, x: &Tensor, ws: &mut Workspace) -> ForwardPass {
        self.check_batched_input(x);
        let mut activations = Vec::with_capacity(self.layers.len() + 1);
        let mut caches = Vec::with_capacity(self.layers.len());
        activations.push(Tensor::from_vec(ws.take_copy(x.data()), x.shape()));
        for layer in &self.layers {
            let cur = activations.last().expect("at least the input");
            let (y, cache) = layer.forward_lite(cur, ws);
            caches.push(cache);
            activations.push(y);
        }
        ForwardPass { activations, caches }
    }

    /// Training-mode forward pass (dropout active, batch-norm batch stats).
    pub fn forward_train(&mut self, x: &Tensor, r: &mut Rng) -> ForwardPass {
        self.check_batched_input(x);
        let mut activations = Vec::with_capacity(self.layers.len() + 1);
        let mut caches = Vec::with_capacity(self.layers.len());
        activations.push(x.clone());
        let mut cur = x.clone();
        for layer in &mut self.layers {
            let (y, cache) = layer.forward_train(&cur, r);
            caches.push(cache);
            activations.push(y.clone());
            cur = y;
        }
        ForwardPass { activations, caches }
    }

    fn check_batched_input(&self, x: &Tensor) {
        assert_eq!(
            &x.shape()[1..],
            self.input_shape.as_slice(),
            "network expects input {:?} (plus batch), got {:?}",
            self.input_shape,
            x.shape()
        );
    }

    /// Convenience: evaluation-mode output for a batched input.
    pub fn output(&self, x: &Tensor) -> Tensor {
        self.forward(x).output().clone()
    }

    /// Predicted class per sample of a batched input (classifiers).
    pub fn predict_classes(&self, x: &Tensor) -> Vec<usize> {
        let out = self.output(x);
        let (n, k) = (out.shape()[0], out.shape()[1]);
        (0..n)
            .map(|i| {
                let row = &out.data()[i * k..(i + 1) * k];
                let mut best = 0;
                for (j, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }

    /// Predicted class of a single un-batched sample.
    pub fn predict_class(&self, sample: &Tensor) -> usize {
        let batched = crate::util::batch_of_one(sample);
        self.predict_classes(&batched)[0]
    }

    /// Backward pass for training: gradients of every parameter given the
    /// loss gradient at the output. Returns one `Vec<Tensor>` per layer, in
    /// [`Layer::params`] order (empty for parameterless layers).
    pub fn backward_params(&self, pass: &ForwardPass, grad_out: &Tensor) -> Vec<Vec<Tensor>> {
        let mut per_layer = vec![Vec::new(); self.layers.len()];
        let mut grad = grad_out.clone();
        for i in (0..self.layers.len()).rev() {
            let (gin, grads) = self.layers[i].backward(&pass.caches[i], &grad, true);
            per_layer[i] = grads;
            grad = gin;
        }
        per_layer
    }

    /// Gradient of a scalar objective with respect to the **input**.
    ///
    /// The objective is specified by *injections*: pairs
    /// `(activation_index, ∂obj/∂activation)` where `activation_index`
    /// ranges over `1..=num_layers()` (the output of layer `i-1`). The
    /// injected gradients are accumulated as the backward sweep passes each
    /// site, so one call differentiates objectives that mix output-layer
    /// terms (DeepXplore's `obj1`) with hidden-neuron terms (`obj2`).
    ///
    /// # Panics
    ///
    /// Panics if an injection index is out of range or its gradient shape
    /// does not match the activation.
    pub fn input_gradient(&self, pass: &ForwardPass, injections: &[(usize, Tensor)]) -> Tensor {
        // A full-cache pass takes `Layer::backward` at every layer of the
        // workspace sweep, so a throwaway arena changes nothing but where
        // the buffers come from.
        self.input_gradient_ws(pass, injections, &mut Workspace::new())
    }

    /// [`Network::input_gradient`] with gradient buffers drawn from and
    /// returned to the arena as the backward sweep walks the layers; also
    /// differentiates passes produced by [`Network::forward_lite`].
    ///
    /// Lite caches are differentiated by re-deriving what the layer needs
    /// from the recorded activations (ReLU's mask from its input,
    /// sigmoid/tanh/softmax's output from the next activation); full
    /// caches from [`Network::forward`] go through [`Layer::backward`]. The
    /// two agree bit for bit up to the sign of zeros (the dense backward's
    /// transposed-rhs kernel; see `Tensor::matmul_bt`).
    ///
    /// # Panics
    ///
    /// Panics if an injection index is out of range or its gradient shape
    /// does not match the activation.
    pub fn input_gradient_ws(
        &self,
        pass: &ForwardPass,
        injections: &[(usize, Tensor)],
        ws: &mut Workspace,
    ) -> Tensor {
        let l = self.layers.len();
        for (idx, g) in injections {
            assert!((1..=l).contains(idx), "injection index {idx} out of range 1..={l}");
            assert_eq!(
                g.shape(),
                pass.activations[*idx].shape(),
                "injection at {idx}: gradient shape {:?} does not match activation {:?}",
                g.shape(),
                pass.activations[*idx].shape()
            );
        }
        let mut grad = ws.take_tensor(pass.activations[l].shape());
        for (idx, g) in injections {
            if *idx == l {
                grad += g;
            }
        }
        for i in (0..l).rev() {
            grad = self.backward_input_step(i, pass, grad, ws);
            for (idx, g) in injections {
                if *idx == i {
                    grad += g;
                }
            }
        }
        grad
    }

    /// One layer of the workspace backward sweep: consumes the incoming
    /// gradient (its buffer is recycled or, for flatten, reshaped in place)
    /// and returns the gradient with respect to the layer input.
    fn backward_input_step(
        &self,
        i: usize,
        pass: &ForwardPass,
        grad: Tensor,
        ws: &mut Workspace,
    ) -> Tensor {
        match (&self.layers[i], &pass.caches[i]) {
            (Layer::Dense(d), Cache::None) => {
                let out = d.backward_input_ws(&grad, ws);
                ws.put_tensor(grad);
                out
            }
            (Layer::Conv2d(c), Cache::Shape(in_shape)) => {
                let out = c.backward_input_ws(in_shape, &grad, ws);
                ws.put_tensor(grad);
                out
            }
            (Layer::Relu, Cache::None) => {
                // The 0/1 mask is re-derived from the recorded layer input;
                // `g * 0.0` (not a literal 0) keeps the historical
                // mask-multiply bit pattern on negative-side gradients.
                let x = &pass.activations[i];
                let mut buf = ws.take_empty(grad.len());
                buf.extend(grad.data().iter().zip(x.data().iter()).map(|(&g, &xv)| {
                    if xv > 0.0 {
                        g
                    } else {
                        g * 0.0
                    }
                }));
                let out = Tensor::from_vec(buf, grad.shape());
                ws.put_tensor(grad);
                out
            }
            (Layer::Sigmoid, Cache::None) => {
                let y = &pass.activations[i + 1];
                let mut buf = ws.take_empty(grad.len());
                buf.extend(
                    grad.data().iter().zip(y.data().iter()).map(|(&g, &yv)| g * yv * (1.0 - yv)),
                );
                let out = Tensor::from_vec(buf, grad.shape());
                ws.put_tensor(grad);
                out
            }
            (Layer::Tanh, Cache::None) => {
                let y = &pass.activations[i + 1];
                let mut buf = ws.take_empty(grad.len());
                buf.extend(
                    grad.data().iter().zip(y.data().iter()).map(|(&g, &yv)| g * (1.0 - yv * yv)),
                );
                let out = Tensor::from_vec(buf, grad.shape());
                ws.put_tensor(grad);
                out
            }
            (Layer::Softmax, Cache::None) => {
                let y = &pass.activations[i + 1];
                let (n, k) = (y.shape()[0], y.shape()[1]);
                let mut buf = ws.take(n * k);
                for r in 0..n {
                    let yr = &y.data()[r * k..(r + 1) * k];
                    let gr = &grad.data()[r * k..(r + 1) * k];
                    let dot: f32 = yr.iter().zip(gr.iter()).map(|(&a, &b)| a * b).sum();
                    let dr = &mut buf[r * k..(r + 1) * k];
                    for j in 0..k {
                        dr[j] = yr[j] * (gr[j] - dot);
                    }
                }
                let out = Tensor::from_vec(buf, grad.shape());
                ws.put_tensor(grad);
                out
            }
            (Layer::Flatten, Cache::Shape(in_shape)) => grad.into_reshaped(in_shape),
            _ => {
                let (gin, _) = self.layers[i].backward(&pass.caches[i], &grad, false);
                ws.put_tensor(grad);
                gin
            }
        }
    }

    /// Gradient of `output[0, class]` with respect to the input — the
    /// building block of DeepXplore's differential objective.
    ///
    /// # Panics
    ///
    /// Panics unless the pass has batch size 1 and a rank-2 output.
    pub fn class_score_input_gradient(&self, pass: &ForwardPass, class: usize) -> Tensor {
        let out = pass.output();
        assert_eq!(out.rank(), 2, "class score needs [N, K] output, got {:?}", out.shape());
        assert_eq!(out.shape()[0], 1, "class score gradient expects batch size 1");
        let mut seed = Tensor::zeros(out.shape());
        seed.set(&[0, class], 1.0);
        self.input_gradient(pass, &[(self.layers.len(), seed)])
    }

    /// All trainable parameters, flattened across layers in order.
    pub fn params(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// All trainable parameters, mutably.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    /// All non-trainable state tensors (batch-norm running statistics).
    pub fn state(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.state()).collect()
    }

    /// All non-trainable state tensors, mutably.
    pub fn state_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers.iter_mut().flat_map(|l| l.state_mut()).collect()
    }

    /// Total number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Returns a copy with every weight perturbed by Gaussian noise of the
    /// given relative standard deviation.
    ///
    /// Useful for constructing *similar-but-different* models — the setting
    /// differential testing assumes — without training twice: the copies
    /// agree on most inputs but keep slightly different decision
    /// boundaries.
    pub fn perturbed(&self, noise_std: f32, seed: u64) -> Self {
        let mut out = self.clone();
        let mut r = dx_tensor::rng::rng(seed);
        for p in out.params_mut() {
            for v in p.data_mut() {
                *v += noise_std * dx_tensor::rng::normal_one(&mut r);
            }
        }
        out
    }

    /// Multi-line architecture summary with shapes and parameter counts.
    pub fn describe(&self) -> String {
        let mut s = format!("input {:?}\n", self.input_shape);
        for (i, layer) in self.layers.iter().enumerate() {
            let pcount: usize = layer.params().iter().map(|p| p.len()).sum();
            s.push_str(&format!(
                "{i:>3}: {:<28} -> {:?}  ({} params)\n",
                layer.name(),
                self.activation_shapes[i + 1],
                pcount
            ));
        }
        s.push_str(&format!("total params: {}\n", self.param_count()));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_tensor::{rng, Workspace};

    fn tiny_mlp(seed: u64) -> Network {
        let mut net = Network::new(
            &[4],
            vec![Layer::dense(4, 6), Layer::relu(), Layer::dense(6, 3), Layer::softmax()],
        );
        net.init_weights(&mut rng::rng(seed));
        net
    }

    fn tiny_cnn(seed: u64) -> Network {
        let mut net = Network::new(
            &[1, 8, 8],
            vec![
                Layer::conv2d(1, 3, 3, 1, 0),
                Layer::relu(),
                Layer::maxpool2d(2),
                Layer::flatten(),
                Layer::dense(3 * 3 * 3, 4),
                Layer::softmax(),
            ],
        );
        net.init_weights(&mut rng::rng(seed));
        net
    }

    #[test]
    fn shape_inference_chain() {
        let net = tiny_cnn(0);
        let shapes = net.activation_shapes();
        assert_eq!(shapes[0], vec![1, 8, 8]);
        assert_eq!(shapes[1], vec![3, 6, 6]);
        assert_eq!(shapes[3], vec![3, 3, 3]);
        assert_eq!(shapes[4], vec![27]);
        assert_eq!(shapes[6], vec![4]);
    }

    #[test]
    #[should_panic(expected = "got input shape")]
    fn bad_architecture_panics_at_build() {
        Network::new(&[4], vec![Layer::dense(5, 2)]);
    }

    #[test]
    fn forward_records_all_activations() {
        let net = tiny_mlp(1);
        let x = rng::uniform(&mut rng::rng(2), &[2, 4], 0.0, 1.0);
        let pass = net.forward(&x);
        assert_eq!(pass.activations.len(), 5);
        assert_eq!(pass.input(), &x);
        assert_eq!(pass.output().shape(), &[2, 3]);
    }

    #[test]
    fn coverage_indices_select_activations() {
        let net = tiny_cnn(3);
        // relu at layer 1 (activation 2), pool at layer 2 (activation 3),
        // softmax at layer 5 (activation 6).
        assert_eq!(net.coverage_activation_indices(), vec![2, 3, 6]);
    }

    #[test]
    fn coverage_indices_include_bare_regression_head() {
        let net = Network::new(&[4], vec![Layer::dense(4, 4), Layer::relu(), Layer::dense(4, 1)]);
        assert_eq!(net.coverage_activation_indices(), vec![2, 3]);
    }

    #[test]
    fn predictions_are_argmax() {
        let net = tiny_mlp(4);
        let x = rng::uniform(&mut rng::rng(5), &[3, 4], 0.0, 1.0);
        let out = net.output(&x);
        let preds = net.predict_classes(&x);
        for (i, &p) in preds.iter().enumerate() {
            let row: Vec<f32> = (0..3).map(|j| out.at(&[i, j])).collect();
            let best =
                row.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
            assert_eq!(p, best);
        }
    }

    #[test]
    fn predict_class_single_unsqueezes() {
        let net = tiny_mlp(6);
        let sample = rng::uniform(&mut rng::rng(7), &[4], 0.0, 1.0);
        let c = net.predict_class(&sample);
        assert!(c < 3);
    }

    #[test]
    fn class_score_gradient_shape_matches_input() {
        let net = tiny_cnn(8);
        let x = rng::uniform(&mut rng::rng(9), &[1, 1, 8, 8], 0.0, 1.0);
        let pass = net.forward(&x);
        let g = net.class_score_input_gradient(&pass, 2);
        assert_eq!(g.shape(), x.shape());
        assert!(g.data().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn injection_at_hidden_layer_differs_from_output_only() {
        let net = tiny_cnn(13);
        let x = rng::uniform(&mut rng::rng(11), &[1, 1, 8, 8], 0.0, 1.0);
        let pass = net.forward(&x);
        let out_only = net.class_score_input_gradient(&pass, 0);
        // Add a hidden-neuron objective at the ReLU output (activation 2).
        let mut hidden = Tensor::zeros(pass.activations[2].shape());
        hidden.set(&[0, 0, 0, 0], 1.0);
        let mut seed = Tensor::zeros(pass.output().shape());
        seed.set(&[0, 0], 1.0);
        let joint = net.input_gradient(&pass, &[(6, seed), (2, hidden)]);
        assert_eq!(joint.shape(), out_only.shape());
        assert_ne!(joint, out_only);
    }

    #[test]
    fn injected_gradients_are_additive() {
        // input_gradient is linear in the injections: g(a) + g(b) == g(a+b).
        let net = tiny_mlp(12);
        let x = rng::uniform(&mut rng::rng(13), &[1, 4], 0.0, 1.0);
        let pass = net.forward(&x);
        let mut a = Tensor::zeros(&[1, 3]);
        a.set(&[0, 0], 1.0);
        let mut b = Tensor::zeros(&[1, 3]);
        b.set(&[0, 2], 0.5);
        let ga = net.input_gradient(&pass, &[(4, a.clone())]);
        let gb = net.input_gradient(&pass, &[(4, b.clone())]);
        let gab = net.input_gradient(&pass, &[(4, &a + &b)]);
        for ((x1, x2), x12) in ga.data().iter().zip(gb.data()).zip(gab.data()) {
            assert!((x1 + x2 - x12).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn injection_index_zero_rejected() {
        let net = tiny_mlp(14);
        let x = rng::uniform(&mut rng::rng(15), &[1, 4], 0.0, 1.0);
        let pass = net.forward(&x);
        net.input_gradient(&pass, &[(0, Tensor::zeros(&[1, 4]))]);
    }

    #[test]
    fn describe_mentions_every_layer() {
        let net = tiny_cnn(16);
        let desc = net.describe();
        assert!(desc.contains("Conv2d"));
        assert!(desc.contains("MaxPool2d"));
        assert!(desc.contains("total params"));
    }

    #[test]
    fn param_count_matches_hand_count() {
        let net = tiny_mlp(17);
        // dense(4,6): 24+6; dense(6,3): 18+3.
        assert_eq!(net.param_count(), 24 + 6 + 18 + 3);
    }

    fn assert_bits_eq_mod_zero_sign(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape mismatch");
        for (i, (g, w)) in got.data().iter().zip(want.data().iter()).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (*g == 0.0 && *w == 0.0),
                "{what}: element {i} differs: {g} ({:#010x}) vs {w} ({:#010x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    #[test]
    fn forward_lite_matches_forward_bitwise() {
        for seed in [21, 22, 23] {
            let net = tiny_cnn(seed);
            let x = rng::uniform(&mut rng::rng(seed + 100), &[3, 1, 8, 8], 0.0, 1.0);
            let full = net.forward(&x);
            let mut ws = Workspace::new();
            let lite = net.forward_lite(&x, &mut ws);
            assert_eq!(full.activations.len(), lite.activations.len());
            for (a, b) in full.activations.iter().zip(lite.activations.iter()) {
                assert_eq!(a.shape(), b.shape());
                for (va, vb) in a.data().iter().zip(b.data().iter()) {
                    assert_eq!(va.to_bits(), vb.to_bits());
                }
            }
            // Second pass reuses pooled buffers and must stay identical.
            lite.recycle(&mut ws);
            let again = net.forward_lite(&x, &mut ws);
            for (a, b) in full.activations.iter().zip(again.activations.iter()) {
                assert_eq!(a.data(), b.data());
            }
        }
    }

    #[test]
    fn forward_lite_matches_forward_on_mlp_activations() {
        // Covers sigmoid/tanh lite paths not present in the CNN.
        let mut net = Network::new(
            &[5],
            vec![
                Layer::dense(5, 7),
                Layer::sigmoid(),
                Layer::dense(7, 7),
                Layer::tanh(),
                Layer::dense(7, 3),
                Layer::softmax(),
            ],
        );
        net.init_weights(&mut rng::rng(31));
        let x = rng::uniform(&mut rng::rng(32), &[4, 5], -1.0, 1.0);
        let full = net.forward(&x);
        let mut ws = Workspace::new();
        let lite = net.forward_lite(&x, &mut ws);
        for (a, b) in full.activations.iter().zip(lite.activations.iter()) {
            for (va, vb) in a.data().iter().zip(b.data().iter()) {
                assert_eq!(va.to_bits(), vb.to_bits());
            }
        }
    }

    #[test]
    fn input_gradient_ws_matches_reference() {
        let net = tiny_cnn(25);
        let x = rng::uniform(&mut rng::rng(26), &[1, 1, 8, 8], 0.0, 1.0);
        let full = net.forward(&x);
        let mut ws = Workspace::new();
        let lite = net.forward_lite(&x, &mut ws);
        let mut seed = Tensor::zeros(&[1, 4]);
        seed.set(&[0, 1], 1.0);
        let mut hidden = Tensor::zeros(full.activations[2].shape());
        hidden.set(&[0, 0, 0, 0], 0.5);
        let want = net.input_gradient(&full, &[(6, seed.clone()), (2, hidden.clone())]);
        let got = net.input_gradient_ws(&lite, &[(6, seed), (2, hidden)], &mut ws);
        assert_bits_eq_mod_zero_sign(&got, &want, "cnn joint gradient");
    }

    #[test]
    fn input_gradient_ws_accepts_full_cache_passes() {
        // The fallback arms let a `forward` pass be differentiated too.
        let net = tiny_mlp(27);
        let x = rng::uniform(&mut rng::rng(28), &[1, 4], 0.0, 1.0);
        let full = net.forward(&x);
        let mut seed = Tensor::zeros(&[1, 3]);
        seed.set(&[0, 2], 1.0);
        let want = net.input_gradient(&full, &[(4, seed.clone())]);
        let mut ws = Workspace::new();
        let got = net.input_gradient_ws(&full, &[(4, seed)], &mut ws);
        assert_bits_eq_mod_zero_sign(&got, &want, "full-cache gradient");
    }

    #[test]
    fn batched_forward_rows_match_scalar_exactly() {
        let net = tiny_cnn(33);
        let samples: Vec<Tensor> =
            (0..4).map(|i| rng::uniform(&mut rng::rng(40 + i), &[1, 8, 8], 0.0, 1.0)).collect();
        let batched_x = crate::util::stack(&samples);
        let mut ws = Workspace::new();
        let batched = net.forward_lite(&batched_x, &mut ws);
        for (i, s) in samples.iter().enumerate() {
            let single = net.forward_lite(&crate::util::batch_of_one(s), &mut ws);
            let brow = batched.row_pass(i);
            assert_eq!(brow.activations.len(), single.activations.len());
            for (a, b) in brow.activations.iter().zip(single.activations.iter()) {
                assert_eq!(a.shape(), b.shape());
                for (va, vb) in a.data().iter().zip(b.data().iter()) {
                    assert_eq!(va.to_bits(), vb.to_bits(), "row {i}");
                }
            }
            single.recycle(&mut ws);
        }
    }

    #[test]
    fn batched_gradient_rows_match_scalar_exactly() {
        // The batch-width-invariance cornerstone: the gradient of a per-row
        // objective, computed in an [N, ...] pass, must equal the gradient
        // computed in a batch-1 pass of that row alone.
        let net = tiny_cnn(50);
        let samples: Vec<Tensor> =
            (0..3).map(|i| rng::uniform(&mut rng::rng(60 + i), &[1, 8, 8], 0.0, 1.0)).collect();
        let batched_x = crate::util::stack(&samples);
        let mut ws = Workspace::new();
        let batched = net.forward_lite(&batched_x, &mut ws);
        // Per-row output-class seeds plus a hidden injection on row 1.
        let mut out_seed = Tensor::zeros(&[3, 4]);
        for (i, c) in [1usize, 3, 0].iter().enumerate() {
            out_seed.set(&[i, *c], 1.0);
        }
        let mut hidden = Tensor::zeros(batched.activations[2].shape());
        hidden.set(&[1, 0, 2, 2], 0.25);
        let got = net.input_gradient_ws(&batched, &[(6, out_seed), (2, hidden)], &mut ws);
        for (i, s) in samples.iter().enumerate() {
            let single = net.forward_lite(&crate::util::batch_of_one(s), &mut ws);
            let mut seed1 = Tensor::zeros(&[1, 4]);
            seed1.set(&[0, [1usize, 3, 0][i]], 1.0);
            let mut injections = vec![(6, seed1)];
            if i == 1 {
                let mut h1 = Tensor::zeros(single.activations[2].shape());
                h1.set(&[0, 0, 2, 2], 0.25);
                injections.push((2, h1));
            }
            let want = net.input_gradient_ws(&single, &injections, &mut ws);
            let got_row = crate::util::gather_rows(&got, &[i]);
            assert_bits_eq_mod_zero_sign(&got_row, &want, &format!("gradient row {i}"));
            single.recycle(&mut ws);
        }
    }

    #[test]
    fn row_pass_extracts_rows() {
        let net = tiny_mlp(70);
        let x = rng::uniform(&mut rng::rng(71), &[3, 4], 0.0, 1.0);
        let pass = net.forward(&x);
        assert_eq!(pass.batch_size(), 3);
        let r1 = pass.row_pass(1);
        for (full, one) in pass.activations.iter().zip(r1.activations.iter()) {
            assert_eq!(one.shape()[0], 1);
            let per = full.len() / 3;
            assert_eq!(&full.data()[per..2 * per], one.data());
        }
    }

    #[test]
    fn backward_params_layer_alignment() {
        let net = tiny_mlp(18);
        let x = rng::uniform(&mut rng::rng(19), &[2, 4], 0.0, 1.0);
        let pass = net.forward(&x);
        let grads = net.backward_params(&pass, &Tensor::ones(&[2, 3]));
        assert_eq!(grads.len(), 4);
        assert_eq!(grads[0].len(), 2); // Dense params.
        assert!(grads[1].is_empty()); // ReLU.
        assert_eq!(grads[2].len(), 2);
        assert!(grads[3].is_empty()); // Softmax.
        assert_eq!(grads[0][0].shape(), &[4, 6]);
    }
}
