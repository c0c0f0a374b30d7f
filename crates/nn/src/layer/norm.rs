//! Batch normalization and dropout.
//!
//! These two layers are what distinguish the paper's three DAVE self-driving
//! variants (Table 1): `DAVE-Orig` carries a batch-normalization layer,
//! `DAVE-NormInit` removes it in favour of normalized initialization, and
//! `DAVE-Dropout` adds dropout between its final dense layers.

use dx_tensor::{rng::Rng, Tensor, Workspace};
use rand::Rng as _;

use crate::layer::Cache;

/// Batch normalization over the channel axis.
///
/// Accepts `[N, C, H, W]` (per-channel statistics over batch and space) or
/// `[N, C]` (per-feature statistics over the batch). Training-mode forward
/// uses batch statistics and updates running averages; evaluation-mode
/// forward — the mode DeepXplore differentiates through — uses the frozen
/// running statistics, making the layer an affine map with a well-defined
/// input gradient.
#[derive(Clone, Debug)]
pub struct BatchNorm {
    /// Scale, `[C]`.
    pub gamma: Tensor,
    /// Shift, `[C]`.
    pub beta: Tensor,
    /// Running mean, `[C]` (state, not trained).
    pub running_mean: Tensor,
    /// Running variance, `[C]` (state, not trained).
    pub running_var: Tensor,
    /// Number of channels/features.
    pub features: usize,
    /// Numerical-stability constant.
    pub eps: f32,
    /// Exponential-moving-average decay for running statistics.
    pub momentum: f32,
}

impl BatchNorm {
    /// Creates a batch-norm layer with identity affine parameters.
    pub fn new(features: usize) -> Self {
        Self {
            gamma: Tensor::ones(&[features]),
            beta: Tensor::zeros(&[features]),
            running_mean: Tensor::zeros(&[features]),
            running_var: Tensor::ones(&[features]),
            features,
            eps: 1e-5,
            momentum: 0.9,
        }
    }

    /// Resets affine parameters and running statistics.
    pub fn reset(&mut self) {
        *self = Self { eps: self.eps, momentum: self.momentum, ..Self::new(self.features) };
    }

    /// Output shape (without batch): identity.
    ///
    /// # Panics
    ///
    /// Panics if the channel axis does not match `features`.
    pub fn output_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        assert!(
            !in_shape.is_empty() && in_shape[0] == self.features,
            "BatchNorm({}) got input shape {in_shape:?}",
            self.features
        );
        in_shape.to_vec()
    }

    /// Returns `(channels, count-per-channel, spatial)` for a batched shape;
    /// `[N, C]` is `[N, C, H, W]` with a single spatial position.
    fn geometry(&self, shape: &[usize]) -> (usize, usize, usize) {
        assert!(
            matches!(shape.len(), 2 | 4) && shape[1] == self.features,
            "BatchNorm({}) expects [N, C] or [N, C, H, W], got {shape:?}",
            self.features
        );
        let hw: usize = shape[2..].iter().product();
        (shape[1], shape[0] * hw, hw)
    }

    /// Iterates `f(channel, flat_offset)` over every element of a batched
    /// tensor, channel-major within each sample.
    fn for_each(shape: &[usize], mut f: impl FnMut(usize, usize)) {
        let (n, c, hw) = (shape[0], shape[1], shape[2..].iter().product::<usize>());
        for i in 0..n {
            for ch in 0..c {
                let base = (i * c + ch) * hw;
                for s in 0..hw {
                    f(ch, base + s);
                }
            }
        }
    }

    /// Per-channel batch mean and (biased) variance of `x`.
    fn batch_stats(x: &Tensor, c: usize, count: usize) -> (Vec<f32>, Vec<f32>) {
        let mut mean = vec![0.0f32; c];
        Self::for_each(x.shape(), |ch, off| mean[ch] += x.data()[off]);
        for m in &mut mean {
            *m /= count as f32;
        }
        let mut var = vec![0.0f32; c];
        Self::for_each(x.shape(), |ch, off| {
            let d = x.data()[off] - mean[ch];
            var[ch] += d * d;
        });
        for v in &mut var {
            *v /= count as f32;
        }
        (mean, var)
    }

    /// Forward pass: normalises with the batch's own statistics when
    /// `train`, with the frozen running statistics otherwise. The running
    /// averages are not touched here: a training step folds the batch
    /// statistics the cache carries into them after its walk.
    pub fn forward(&self, x: &Tensor, train: bool, ws: &mut Workspace) -> (Tensor, Cache) {
        let (c, count, _) = self.geometry(x.shape());
        let batch = train.then(|| Self::batch_stats(x, c, count));
        let (mean, var) = match &batch {
            Some((mean, var)) => (mean.as_slice(), var.as_slice()),
            None => (self.running_mean.data(), self.running_var.data()),
        };
        let mut inv_std = ws.take_empty(c);
        inv_std.extend(var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()));
        let mut xhat = ws.take(x.len());
        let mut y = ws.take(x.len());
        let (xd, gamma, beta) = (x.data(), self.gamma.data(), self.beta.data());
        Self::for_each(x.shape(), |ch, off| {
            xhat[off] = (xd[off] - mean[ch]) * inv_std[ch];
            y[off] = gamma[ch] * xhat[off] + beta[ch];
        });
        let cache = Cache::BatchNorm {
            xhat: Tensor::from_vec(xhat, x.shape()),
            inv_std: Tensor::from_vec(inv_std, &[c]),
            batch,
        };
        (Tensor::from_vec(y, x.shape()), cache)
    }

    /// Folds one training batch's statistics into the running averages.
    pub(crate) fn update_running(&mut self, mean: &[f32], var: &[f32]) {
        for ch in 0..self.features {
            let rm = &mut self.running_mean.data_mut()[ch];
            *rm = self.momentum * *rm + (1.0 - self.momentum) * mean[ch];
            let rv = &mut self.running_var.data_mut()[ch];
            *rv = self.momentum * *rv + (1.0 - self.momentum) * var[ch];
        }
    }

    /// Backward pass: `(dx, [dgamma, dbeta])`.
    ///
    /// In evaluation mode the statistics are constants, so
    /// `dx = dy · γ · inv_std` exactly; in training mode (`train`) the full
    /// batch-statistics Jacobian is applied. The `dgamma`/`dbeta` sums are
    /// taken only when used: as parameter gradients or by that Jacobian.
    pub fn backward(
        &self,
        xhat: &Tensor,
        inv_std: &Tensor,
        train: bool,
        grad_out: &Tensor,
        want_param_grads: bool,
        ws: &mut Workspace,
    ) -> (Tensor, Vec<Tensor>) {
        let (c, count, _) = self.geometry(grad_out.shape());
        let (g, xh) = (grad_out.data(), xhat.data());
        let sums = if train || want_param_grads { c } else { 0 };
        let (mut dgamma, mut dbeta) = (vec![0.0f32; sums], vec![0.0f32; sums]);
        if sums > 0 {
            Self::for_each(grad_out.shape(), |ch, off| {
                dgamma[ch] += g[off] * xh[off];
                dbeta[ch] += g[off];
            });
        }
        let mut dx = ws.take(grad_out.len());
        let (gamma, inv_std) = (self.gamma.data(), inv_std.data());
        if train {
            let m = count as f32;
            Self::for_each(grad_out.shape(), |ch, off| {
                let scale = gamma[ch] * inv_std[ch] / m;
                dx[off] = scale * (m * g[off] - xh[off] * dgamma[ch] - dbeta[ch]);
            });
        } else {
            Self::for_each(grad_out.shape(), |ch, off| {
                dx[off] = g[off] * gamma[ch] * inv_std[ch];
            });
        }
        let dx = Tensor::from_vec(dx, grad_out.shape());
        if want_param_grads {
            (dx, vec![Tensor::from_vec(dgamma, &[c]), Tensor::from_vec(dbeta, &[c])])
        } else {
            (dx, vec![])
        }
    }
}

/// Inverted dropout: at training time each element is zeroed with
/// probability `p` and survivors are scaled by `1/(1-p)`; at evaluation the
/// layer is the identity.
#[derive(Clone, Debug)]
pub struct Dropout {
    /// Drop probability in `[0, 1)`.
    pub p: f32,
}

impl Dropout {
    /// Creates a dropout layer.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p < 1`.
    pub fn new(p: f32) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability {p} must be in [0, 1)");
        Self { p }
    }

    /// Forward pass: a copy at evaluation and when nothing is dropped; in
    /// training a mask sampled element by element, kept as the cache.
    pub fn forward(
        &self,
        x: &Tensor,
        train: Option<&mut Rng>,
        ws: &mut Workspace,
    ) -> (Tensor, Cache) {
        let r = match train {
            Some(r) if self.p != 0.0 => r,
            _ => return (Tensor::from_vec(ws.take_copy(x.data()), x.shape()), Cache::None),
        };
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mut mask = ws.take_empty(x.len());
        mask.extend(
            (0..x.len()).map(|_| if r.gen_range(0.0..1.0f32) < keep { scale } else { 0.0 }),
        );
        let mut y = ws.take_empty(x.len());
        y.extend(x.data().iter().zip(&mask).map(|(&v, &m)| v * m));
        (Tensor::from_vec(y, x.shape()), Cache::Mask(Tensor::from_vec(mask, x.shape())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use dx_tensor::rng;

    /// A training-mode step on the bare layer: forward, then the
    /// running-average update a network applies after its walk.
    fn train_step(bn: &mut BatchNorm, x: &Tensor) -> (Tensor, Cache) {
        let (y, cache) = bn.forward(x, true, &mut Workspace::new());
        let Cache::BatchNorm { batch: Some((mean, var)), .. } = &cache else {
            panic!("a training-mode forward caches its batch statistics");
        };
        bn.update_running(mean, var);
        (y, cache)
    }

    #[test]
    fn train_forward_normalizes_batch() {
        let mut bn = BatchNorm::new(2);
        let x = rng::normal(&mut rng::rng(0), &[64, 2], 3.0, 2.0);
        let (y, _) = train_step(&mut bn, &x);
        // Per-feature mean ≈ 0, var ≈ 1.
        for ch in 0..2 {
            let vals: Vec<f32> = (0..64).map(|i| y.at(&[i, ch])).collect();
            let mean: f32 = vals.iter().sum::<f32>() / 64.0;
            let var: f32 = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn running_stats_converge_to_population() {
        let mut bn = BatchNorm::new(1);
        let mut r = rng::rng(1);
        for _ in 0..200 {
            let x = rng::normal(&mut r, &[32, 1], 5.0, 1.0);
            train_step(&mut bn, &x);
        }
        assert!((bn.running_mean.data()[0] - 5.0).abs() < 0.2);
        assert!((bn.running_var.data()[0] - 1.0).abs() < 0.3);
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm::new(1);
        bn.running_mean = Tensor::from_slice(&[10.0]);
        bn.running_var = Tensor::from_slice(&[4.0]);
        let x = Tensor::from_vec(vec![12.0], &[1, 1]);
        let (y, _) = bn.forward(&x, false, &mut Workspace::new());
        // (12 - 10) / 2 = 1.
        assert!((y.data()[0] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn rank4_statistics_are_per_channel() {
        let mut bn = BatchNorm::new(2);
        let mut x = Tensor::zeros(&[2, 2, 2, 2]);
        // Channel 0 constant 1, channel 1 constant 3 — variance zero, so the
        // normalized output is zero and y = beta = 0 everywhere.
        for i in 0..2 {
            for y_ in 0..2 {
                for x_ in 0..2 {
                    x.set(&[i, 0, y_, x_], 1.0);
                    x.set(&[i, 1, y_, x_], 3.0);
                }
            }
        }
        let (y, _) = train_step(&mut bn, &x);
        assert!(y.data().iter().all(|v| v.abs() < 1e-2));
    }

    #[test]
    fn eval_backward_is_affine_scale() {
        let mut bn = BatchNorm::new(1);
        bn.gamma = Tensor::from_slice(&[3.0]);
        bn.running_var = Tensor::from_slice(&[0.25 - 1e-5]);
        let x = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]);
        let layer = Layer::BatchNorm(bn);
        let (_, cache) = layer.forward(&x);
        let g = Tensor::ones(&[2, 1]);
        // dy * gamma / sqrt(var+eps) = 1 * 3 / 0.5 = 6.
        let (dx, grads) = layer.backward(&cache, &g, true);
        assert!(dx.data().iter().all(|v| (v - 6.0).abs() < 1e-3));
        // dbeta = Σ dy; dgamma = Σ dy·x̂ with x̂ = (x − 0) / 0.5.
        assert_eq!(grads.len(), 2);
        assert!((grads[1].data()[0] - 2.0).abs() < 1e-3);
        assert!((grads[0].data()[0] - 6.0).abs() < 1e-2);
        // Without parameter gradients the sums are skipped, dx unchanged.
        let (dx_only, none) = layer.backward(&cache, &g, false);
        assert_eq!(dx_only, dx);
        assert!(none.is_empty());
    }

    #[test]
    fn train_backward_annihilates_constant_grad() {
        // In training mode the normalization removes the batch mean, so a
        // constant upstream gradient produces (near-)zero input gradient.
        let mut layer = Layer::batch_norm(1);
        let x = rng::normal(&mut rng::rng(2), &[16, 1], 0.0, 1.0);
        let (_, cache) = layer.forward_train(&x, &mut rng::rng(0));
        let (dx, _) = layer.backward(&cache, &Tensor::ones(&[16, 1]), false);
        assert!(dx.data().iter().all(|v| v.abs() < 1e-4));
    }

    #[test]
    fn dropout_eval_identity_train_scales() {
        let d = Dropout::new(0.5);
        let x = Tensor::ones(&[1, 1000]);
        let (y, cache) = d.forward(&x, Some(&mut rng::rng(3)), &mut Workspace::new());
        if let Cache::Mask(mask) = &cache {
            // Mask entries are 0 or 2 (1 / keep).
            assert!(mask.data().iter().all(|&v| v == 0.0 || v == 2.0));
        } else {
            panic!("wrong cache kind");
        }
        // Expected value preserved within tolerance.
        assert!((y.mean() - 1.0).abs() < 0.15);
    }

    #[test]
    fn dropout_zero_probability_is_identity() {
        let d = Dropout::new(0.0);
        let x = rng::uniform(&mut rng::rng(4), &[2, 8], -1.0, 1.0);
        let (y, cache) = d.forward(&x, Some(&mut rng::rng(5)), &mut Workspace::new());
        assert_eq!(y, x);
        assert!(matches!(cache, Cache::None));
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1)")]
    fn dropout_rejects_p_one() {
        Dropout::new(1.0);
    }
}
