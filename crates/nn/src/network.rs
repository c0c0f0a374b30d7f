//! Sequential networks with recorded forward passes and input gradients.
//!
//! There is one forward walk (`ForwardPass::record`) and one reverse
//! sweep (`ForwardPass::sweep`) over a layer chain — a network's, a
//! residual body's, or a single layer run on its own. The walk records
//! every activation and the sweep hands each layer its recorded input and
//! output, so the activations *are* the derivative cache and any pass
//! supports input gradients and parameter gradients alike.

use dx_tensor::{rng::Rng, Tensor, Workspace};

use crate::layer::{absorb_batch_stats, Cache, Layer};

/// A recorded forward pass: every intermediate activation, plus the few
/// per-layer caches that are not a function of them (see [`Cache`]).
///
/// `activations[0]` is the input and `activations[i + 1]` is the output of
/// layer `i`; neuron coverage reads hidden activations from here, and the
/// backward sweep each layer's input and output.
#[derive(Clone, Debug)]
pub struct ForwardPass {
    /// All activations, `layers.len() + 1` entries, batched.
    pub activations: Vec<Tensor>,
    pub(crate) caches: Vec<Cache>,
}

impl ForwardPass {
    /// The one forward walk: runs `layers` over `x` in evaluation mode, or
    /// in training mode when `train` carries the RNG, drawing every
    /// activation (the input's copy included) from `ws`.
    pub(crate) fn record(
        layers: &[Layer],
        x: &Tensor,
        mut train: Option<&mut Rng>,
        ws: &mut Workspace,
    ) -> Self {
        let mut activations = Vec::with_capacity(layers.len() + 1);
        let mut caches = Vec::with_capacity(layers.len());
        activations.push(Tensor::from_vec(ws.take_copy(x.data()), x.shape()));
        for layer in layers {
            let cur = activations.last().expect("at least the input");
            let (y, cache) = layer.run(cur, train.as_deref_mut(), ws);
            caches.push(cache);
            activations.push(y);
        }
        ForwardPass { activations, caches }
    }

    /// The one reverse sweep over the `layers` this pass was recorded from:
    /// starts from `grad` at the output, adds each injection `(activation
    /// index, gradient)` on reaching its site, and returns the gradient at
    /// the input plus — when `want_param_grads` — each layer's parameter
    /// gradients.
    pub(crate) fn sweep(
        &self,
        layers: &[Layer],
        mut grad: Tensor,
        injections: &[(usize, Tensor)],
        want_param_grads: bool,
        ws: &mut Workspace,
    ) -> (Tensor, Vec<Vec<Tensor>>) {
        let mut per_layer = vec![Vec::new(); if want_param_grads { layers.len() } else { 0 }];
        for (i, layer) in layers.iter().enumerate().rev() {
            for (_, g) in injections.iter().filter(|(idx, _)| *idx == i + 1) {
                grad += g;
            }
            let (x, y) = (&self.activations[i], &self.activations[i + 1]);
            let (grad_in, param_grads) =
                layer.run_backward(x, y, &self.caches[i], grad, want_param_grads, ws);
            if want_param_grads {
                per_layer[i] = param_grads;
            }
            grad = grad_in;
        }
        (grad, per_layer)
    }

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

    /// One sample of the pass, read in place — what the per-input readers
    /// (coverage, the oracle, obj2 picks) see of a batched pass.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row(&self, row: usize) -> PassRow<'_> {
        let n = self.batch_size();
        assert!(row < n, "row {row} out of range for batch {n}");
        PassRow { pass: self, row }
    }

    /// Returns every buffer the pass owns (activations plus any cached
    /// tensors) to the workspace for reuse by the next pass.
    pub fn recycle(self, ws: &mut Workspace) {
        for a in self.activations {
            ws.put_tensor(a);
        }
        for c in self.caches {
            c.recycle(ws);
        }
    }
}

/// Row `a` of a recorded pass: every activation's `a`-th sample, borrowed
/// from the batched tensors, never copied out of them.
#[derive(Clone, Copy, Debug)]
pub struct PassRow<'a> {
    pass: &'a ForwardPass,
    row: usize,
}

impl<'a> PassRow<'a> {
    /// This row's values of activation `i` (`0` is the input), flat in
    /// sample order.
    pub fn activation(self, i: usize) -> &'a [f32] {
        let a = &self.pass.activations[i];
        let per = a.len() / a.shape()[0];
        &a.data()[self.row * per..(self.row + 1) * per]
    }

    /// The shape of activation `i` without its batch dimension.
    pub fn shape(self, i: usize) -> &'a [usize] {
        &self.pass.activations[i].shape()[1..]
    }

    /// This row's network output (the last activation).
    pub fn output(self) -> &'a [f32] {
        self.activation(self.pass.activations.len() - 1)
    }
}

/// A batch-size-1 pass is its one row.
///
/// # Panics
///
/// Panics when the pass holds more than one sample.
impl<'a> From<&'a ForwardPass> for PassRow<'a> {
    fn from(pass: &'a ForwardPass) -> Self {
        let n = pass.batch_size();
        assert_eq!(n, 1, "a pass read as one input needs batch size 1, got {n}");
        pass.row(0)
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

    fn check_batched_input(&self, x: &Tensor) {
        assert!(
            x.rank() >= 1 && x.shape()[1..] == self.input_shape[..],
            "network expects input {:?} (plus batch), got {:?}",
            self.input_shape,
            x.shape()
        );
    }

    /// [`Network::forward_lite`] with a throwaway arena.
    pub fn forward(&self, x: &Tensor) -> ForwardPass {
        self.forward_lite(x, &mut Workspace::new())
    }

    /// Evaluation-mode forward pass over a batched input, every activation
    /// and cache buffer drawn from the workspace ([`ForwardPass::recycle`]
    /// returns them; max-pool's argmax vectors are the one thing allocated).
    ///
    /// # Panics
    ///
    /// Panics if `x` (sans batch) does not match the network input shape.
    pub fn forward_lite(&self, x: &Tensor, ws: &mut Workspace) -> ForwardPass {
        self.check_batched_input(x);
        ForwardPass::record(&self.layers, x, None, ws)
    }

    /// Calls `f` with the [`PassRow`] of every input `rows` names (rows of
    /// the batched `x`), in `rows` order: one batched pass per tile of
    /// 16 inputs instead of one pass each, with the same values
    /// bit for bit (a row of a pass does not depend on the pass's width).
    pub fn for_each_row(&self, x: &Tensor, rows: &[usize], mut f: impl FnMut(PassRow<'_>)) {
        let mut ws = Workspace::new();
        for chunk in rows.chunks(16) {
            let pass = self.forward_lite(&crate::util::gather_rows(x, chunk), &mut ws);
            (0..chunk.len()).for_each(|r| f(pass.row(r)));
            pass.recycle(&mut ws);
        }
    }

    /// Training-mode forward pass (dropout active, batch-norm batch stats):
    /// the same walk, then the batch statistics it left in the batch-norm
    /// caches are folded into the running averages.
    pub fn forward_train(&mut self, x: &Tensor, r: &mut Rng) -> ForwardPass {
        self.check_batched_input(x);
        let pass = ForwardPass::record(&self.layers, x, Some(r), &mut Workspace::new());
        absorb_batch_stats(&mut self.layers, &pass.caches);
        pass
    }

    /// Convenience: evaluation-mode output for a batched input.
    pub fn output(&self, x: &Tensor) -> Tensor {
        self.forward(x).activations.pop().expect("forward pass has at least the input")
    }

    /// Predicted class per sample of a batched input (classifiers).
    pub fn predict_classes(&self, x: &Tensor) -> Vec<usize> {
        let out = self.output(x);
        (0..out.shape()[0]).map(|i| crate::util::row(&out, i).argmax()).collect()
    }

    /// Predicted class of a single un-batched sample.
    pub fn predict_class(&self, sample: &Tensor) -> usize {
        self.predict_classes(&crate::util::batch_of_one(sample))[0]
    }

    /// Backward pass for training: gradients of every parameter given the
    /// loss gradient at the output. Returns one `Vec<Tensor>` per layer, in
    /// [`Layer::params`] order (empty for parameterless layers). Works on
    /// any pass of this network.
    pub fn backward_params(&self, pass: &ForwardPass, grad_out: &Tensor) -> Vec<Vec<Tensor>> {
        pass.sweep(&self.layers, grad_out.clone(), &[], true, &mut Workspace::new()).1
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
        // A throwaway arena changes nothing but where the buffers come from.
        self.input_gradient_ws(pass, injections, &mut Workspace::new())
    }

    /// [`Network::input_gradient`] with gradient buffers drawn from and
    /// returned to the arena as the backward sweep walks the layers.
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
        let zero = ws.take_tensor(pass.output().shape());
        pass.sweep(&self.layers, zero, injections, false, ws).0
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
    fn input_gradient_ws_matches_reference() {
        // Two entry points onto one sweep: this guards the wrappers.
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
    fn backward_params_accepts_any_pass() {
        // The recorded activations are the cache, so a workspace pass
        // trains as well as a `forward` one.
        let net = tiny_cnn(27);
        let x = rng::uniform(&mut rng::rng(28), &[3, 1, 8, 8], 0.0, 1.0);
        let grad = rng::uniform(&mut rng::rng(29), &[3, 4], -1.0, 1.0);
        let want = net.backward_params(&net.forward(&x), &grad);
        let mut ws = Workspace::new();
        let lite = net.forward_lite(&x, &mut ws);
        let got = net.backward_params(&lite, &grad);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().flatten().zip(want.iter().flatten()) {
            assert_eq!(g.shape(), w.shape());
            for (a, b) in g.data().iter().zip(w.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert!(got.iter().flatten().any(|g| g.data().iter().any(|&v| v != 0.0)));
    }

    #[test]
    #[should_panic(expected = "network expects input [4] (plus batch), got []")]
    fn rank_zero_input_is_rejected_with_the_shape_message() {
        tiny_mlp(30).forward(&Tensor::from_vec(vec![1.0], &[]));
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
            let brow = batched.row(i);
            assert_eq!(batched.activations.len(), single.activations.len());
            for (k, b) in single.activations.iter().enumerate() {
                assert_eq!(brow.shape(k), &b.shape()[1..]);
                for (va, vb) in brow.activation(k).iter().zip(b.data().iter()) {
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
        let r1 = pass.row(1);
        for (k, full) in pass.activations.iter().enumerate() {
            assert_eq!(r1.shape(k), &full.shape()[1..]);
            let per = full.len() / 3;
            assert_eq!(&full.data()[per..2 * per], r1.activation(k));
        }
        assert_eq!(r1.output(), r1.activation(4));
        // A one-sample pass is its own row; a wider one is not.
        let one = net.forward(&crate::util::gather_rows(&x, &[1]));
        assert_eq!(PassRow::from(&one).output(), r1.output());
        assert!(std::panic::catch_unwind(|| PassRow::from(&pass)).is_err());
    }

    #[test]
    fn for_each_row_reads_tiles_as_single_passes() {
        // Rows across a tile boundary, out of order and repeated, each read
        // bit-identical to a pass of that input alone.
        let net = tiny_cnn(72);
        let x = rng::uniform(&mut rng::rng(73), &[20, 1, 8, 8], 0.0, 1.0);
        let rows: Vec<usize> = (0..20).rev().chain([3, 3]).collect();
        let mut seen = 0;
        net.for_each_row(&x, &rows, |row| {
            let alone = net.forward(&crate::util::gather_rows(&x, &[rows[seen]]));
            for (k, a) in alone.activations.iter().enumerate() {
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(row.activation(k)), bits(a.data()), "input {}", rows[seen]);
            }
            seen += 1;
        });
        assert_eq!(seen, rows.len());
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
