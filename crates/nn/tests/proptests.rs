//! Property-based tests for the neural-network engine.

use dx_nn::layer::Layer;
use dx_nn::network::Network;
use dx_nn::util::{gather_rows, one_hot, stack};
use dx_nn::{loss, optim::Optimizer};
use dx_tensor::{Tensor, Workspace};
use proptest::prelude::*;

/// Strategy: a batched `[n, f]` tensor with bounded entries.
fn batch(n: usize, f: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-2.0f32..2.0, n * f).prop_map(move |v| Tensor::from_vec(v, &[n, f]))
}

/// A small deterministic MLP (weights fixed by seed, not by proptest).
fn mlp(seed: u64) -> Network {
    let mut net = Network::new(
        &[5],
        vec![Layer::dense(5, 8), Layer::tanh(), Layer::dense(8, 3), Layer::softmax()],
    );
    net.init_weights(&mut dx_tensor::rng::rng(seed));
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn forward_is_deterministic(x in batch(3, 5)) {
        let net = mlp(1);
        prop_assert_eq!(net.output(&x), net.output(&x));
    }

    #[test]
    fn softmax_outputs_are_distributions(x in batch(4, 5)) {
        let net = mlp(2);
        let y = net.output(&x);
        for i in 0..4 {
            let row_sum: f32 = (0..3).map(|j| y.at(&[i, j])).sum();
            prop_assert!((row_sum - 1.0).abs() < 1e-4);
            prop_assert!((0..3).all(|j| y.at(&[i, j]) >= 0.0));
        }
    }

    #[test]
    fn batch_forward_equals_per_sample(x in batch(4, 5)) {
        // Processing a batch must equal processing each row alone.
        let net = mlp(3);
        let full = net.output(&x);
        for i in 0..4 {
            let alone = net.output(&gather_rows(&x, &[i]));
            for j in 0..3 {
                prop_assert!((full.at(&[i, j]) - alone.at(&[0, j])).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn input_gradient_is_linear_in_injection(x in batch(1, 5), a in 0.1f32..3.0) {
        // g(a·seed) == a·g(seed).
        let net = mlp(4);
        let pass = net.forward(&x);
        let mut seed = Tensor::zeros(&[1, 3]);
        seed.set(&[0, 1], 1.0);
        let g1 = net.input_gradient(&pass, &[(net.num_layers(), seed.clone())]);
        let ga = net.input_gradient(&pass, &[(net.num_layers(), seed.scale(a))]);
        for i in 0..g1.len() {
            prop_assert!((ga.data()[i] - a * g1.data()[i]).abs() < 1e-3 * (1.0 + a));
        }
    }

    #[test]
    fn nll_loss_is_nonnegative(x in batch(4, 5)) {
        let net = mlp(5);
        let probs = net.output(&x);
        let (l, _) = loss::nll_loss(&probs, &[0, 1, 2, 0]);
        prop_assert!(l >= 0.0);
        prop_assert!(l.is_finite());
    }

    #[test]
    fn mse_loss_is_zero_iff_equal(x in batch(2, 5)) {
        let net = mlp(6);
        let y = net.output(&x);
        let (l, g) = loss::mse_loss(&y, &y);
        prop_assert_eq!(l, 0.0);
        prop_assert!(g.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn sgd_step_reduces_loss_on_smooth_net(x in batch(8, 5)) {
        // One small SGD step on a smooth network must not blow the loss up;
        // for a fresh net it should typically reduce it.
        let mut net = mlp(7);
        let labels = [0usize, 1, 2, 0, 1, 2, 0, 1];
        let pass = net.forward(&x);
        let (before, grad) = loss::nll_loss(pass.output(), &labels);
        let layer_grads = net.backward_params(&pass, &grad);
        let flat: Vec<Tensor> = layer_grads.into_iter().flatten().collect();
        let mut opt = Optimizer::sgd(0.01);
        let mut params = net.params_mut();
        opt.step(&mut params, &flat);
        let (after, _) = loss::nll_loss(net.forward(&x).output(), &labels);
        prop_assert!(after <= before + 0.05, "loss rose {before} -> {after}");
    }

    #[test]
    fn perturbed_clone_stays_close(x in batch(2, 5), noise in 0.0f32..0.01) {
        let net = mlp(8);
        let other = net.perturbed(noise, 9);
        let (a, b) = (net.output(&x), other.output(&x));
        for i in 0..a.len() {
            prop_assert!((a.data()[i] - b.data()[i]).abs() < 0.5);
        }
    }

    #[test]
    fn one_hot_stack_round_trip(labels in proptest::collection::vec(0usize..4, 1..6)) {
        let t = one_hot(&labels, 4);
        prop_assert_eq!(t.shape()[0], labels.len());
        for (i, &l) in labels.iter().enumerate() {
            prop_assert_eq!(t.at(&[i, l]), 1.0);
            let row_sum: f32 = (0..4).map(|j| t.at(&[i, j])).sum();
            prop_assert_eq!(row_sum, 1.0);
        }
    }

    #[test]
    fn stack_gather_inverse(rows in proptest::collection::vec(
        proptest::collection::vec(-1.0f32..1.0, 6), 1..5)
    ) {
        let tensors: Vec<Tensor> = rows.iter().map(|r| Tensor::from_slice(r)).collect();
        let batch = stack(&tensors);
        for (i, t) in tensors.iter().enumerate() {
            prop_assert_eq!(&dx_nn::util::row(&batch, i), t);
        }
    }
}

/// A small conv stack: conv, relu, maxpool, flatten, dense, softmax.
fn convnet(seed: u64) -> Network {
    let mut net = Network::new(
        &[1, 6, 6],
        vec![
            Layer::conv2d(1, 2, 3, 1, 0),
            Layer::relu(),
            Layer::maxpool2d(2),
            Layer::flatten(),
            Layer::dense(2 * 2 * 2, 3),
            Layer::softmax(),
        ],
    );
    net.init_weights(&mut dx_tensor::rng::rng(seed));
    net
}

/// Strategy: a batched `[n, 1, 6, 6]` image tensor.
fn images(n: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-1.0f32..1.0, n * 36)
        .prop_map(move |v| Tensor::from_vec(v, &[n, 1, 6, 6]))
}

// Batched-path pins. `forward`/`input_gradient` and `forward_lite`/
// `input_gradient_ws` are two pairs of entry points onto one walk and one
// sweep, so the two cross-pair properties below guard the wrappers (the
// arithmetic itself is pinned by `golden.rs`); the per-row property pins
// that batch width is pure execution tiling.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lite_forward_is_bitwise_equal_to_cached_forward(x in images(4)) {
        let net = convnet(11);
        let mut ws = Workspace::new();
        let full = net.forward(&x);
        let lite = net.forward_lite(&x, &mut ws);
        prop_assert_eq!(full.activations.len(), lite.activations.len());
        for (f, l) in full.activations.iter().zip(lite.activations.iter()) {
            prop_assert_eq!(f.shape(), l.shape());
            for (a, b) in f.data().iter().zip(l.data().iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{} vs {}", a, b);
            }
        }
    }

    #[test]
    fn batched_lite_forward_matches_per_row_lite_forward(x in images(5)) {
        // Batch width is pure execution tiling: every row of a batched
        // lite pass must be bit-identical to running that row alone.
        let net = convnet(12);
        let mut ws = Workspace::new();
        let batched = net.forward_lite(&x, &mut ws);
        for i in 0..5 {
            let alone = net.forward_lite(&gather_rows(&x, &[i]), &mut ws);
            for (b, a) in batched.activations.iter().zip(alone.activations.iter()) {
                let per = a.len();
                let brow = &b.data()[i * per..(i + 1) * per];
                for (x_, y_) in brow.iter().zip(a.data().iter()) {
                    prop_assert_eq!(x_.to_bits(), y_.to_bits(), "{} vs {}", x_, y_);
                }
            }
        }
    }

    #[test]
    fn workspace_input_gradient_matches_reference_up_to_zero_sign(x in images(3)) {
        let net = convnet(13);
        let mut ws = Workspace::new();
        let full = net.forward(&x);
        let lite = net.forward_lite(&x, &mut ws);
        let mut seed = Tensor::zeros(&[3, 3]);
        for i in 0..3 {
            seed.set(&[i, i % 3], 1.0);
        }
        let inj = vec![(net.num_layers(), seed)];
        let want = net.input_gradient(&full, &inj);
        let got = net.input_gradient_ws(&lite, &inj, &mut ws);
        prop_assert_eq!(want.shape(), got.shape());
        for (w, g) in want.data().iter().zip(got.data().iter()) {
            prop_assert!(
                w.to_bits() == g.to_bits() || (*w == 0.0 && *g == 0.0),
                "{} vs {}", w, g
            );
        }
    }
}
