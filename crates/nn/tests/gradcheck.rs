//! Finite-difference gradient checks.
//!
//! DeepXplore's whole premise is that `∂obj/∂x` is computed correctly, so
//! every layer's backward pass — for both inputs and parameters — is checked
//! against central finite differences through full networks. Networks use
//! smooth activations (sigmoid/tanh) where possible so the checks are not
//! confounded by ReLU kinks; ReLU and max-pool get their own checks at
//! inputs sampled away from their non-differentiable sets. Every gradient
//! is checked through both pairs of entry points: `forward` with
//! `input_gradient` / `backward_params`, and the workspace pair
//! (`forward_lite`, `input_gradient_ws`) the generator's growth loop runs.
//! Both are the same walk and the same sweep; finite differences are the
//! independent oracle.

#![allow(clippy::needless_range_loop)] // Tests co-index several parallel arrays.
use dx_nn::layer::Layer;
use dx_nn::network::Network;
use dx_tensor::{rng, Tensor, Workspace};

/// Scalar objective: a fixed random linear functional of the output, which
/// exercises every output coordinate at once.
fn objective(net: &Network, x: &Tensor, probe: &Tensor) -> f32 {
    net.output(x).hadamard(probe).sum()
}

/// The two pairs of entry points that yield a gradient.
#[derive(Clone, Copy, Debug)]
enum Pass {
    /// `forward` + `input_gradient`: a throwaway arena per call.
    Cached,
    /// `forward_lite` + `input_gradient_ws`: buffers from one arena.
    Lite,
}

const PASSES: [Pass; 2] = [Pass::Cached, Pass::Lite];

/// Analytic input gradient of the objective the injections describe.
fn input_gradient(net: &Network, x: &Tensor, injections: &[(usize, Tensor)], via: Pass) -> Tensor {
    match via {
        Pass::Cached => net.input_gradient(&net.forward(x), injections),
        Pass::Lite => {
            let mut ws = Workspace::new();
            let pass = net.forward_lite(x, &mut ws);
            net.input_gradient_ws(&pass, injections, &mut ws)
        }
    }
}

/// Checks the analytic input gradient of [`objective`], through both
/// passes, against central differences.
///
/// Tolerances are relative to the gradient magnitude; f32 arithmetic with
/// h = 1e-2 gives ~3 significant digits on smooth nets.
fn check_input_gradient(net: &Network, x: &Tensor, probe: &Tensor, tol: f32) {
    for via in PASSES {
        let analytic = input_gradient(net, x, &[(net.num_layers(), probe.clone())], via);
        check_against_differences(&analytic, x, tol, via, |x| objective(net, x, probe));
    }
}

/// Compares `analytic` with the central differences of `f` around `x`.
fn check_against_differences(
    analytic: &Tensor,
    x: &Tensor,
    tol: f32,
    via: Pass,
    f: impl Fn(&Tensor) -> f32,
) {
    let h = 1e-2f32;
    let scale = analytic.data().iter().fold(0.0f32, |a, &b| a.max(b.abs())).max(1e-3);
    for i in 0..x.len() {
        let mut plus = x.clone();
        plus.data_mut()[i] += h;
        let mut minus = x.clone();
        minus.data_mut()[i] -= h;
        let fd = (f(&plus) - f(&minus)) / (2.0 * h);
        let a = analytic.data()[i];
        assert!(
            (fd - a).abs() <= tol * scale,
            "{via:?} input grad mismatch at {i}: fd {fd} vs analytic {a} (scale {scale})"
        );
    }
}

/// Checks every parameter gradient, from a pass of either kind, against
/// central differences.
fn check_param_gradients(net: &mut Network, x: &Tensor, probe: &Tensor, tol: f32) {
    for via in PASSES {
        let pass = match via {
            Pass::Cached => net.forward(x),
            Pass::Lite => net.forward_lite(x, &mut Workspace::new()),
        };
        let layer_grads = net.backward_params(&pass, probe);
        let flat: Vec<Tensor> = layer_grads.into_iter().flatten().collect();
        let h = 1e-2f32;
        let n_params = net.params().len();
        for p_idx in 0..n_params {
            let scale = flat[p_idx].data().iter().fold(0.0f32, |a, &b| a.max(b.abs())).max(1e-3);
            // Probe a handful of coordinates per parameter tensor.
            let len = net.params()[p_idx].len();
            let step = (len / 5).max(1);
            for i in (0..len).step_by(step) {
                let orig = net.params()[p_idx].data()[i];
                net.params_mut()[p_idx].data_mut()[i] = orig + h;
                let up = objective(net, x, probe);
                net.params_mut()[p_idx].data_mut()[i] = orig - h;
                let down = objective(net, x, probe);
                net.params_mut()[p_idx].data_mut()[i] = orig;
                let fd = (up - down) / (2.0 * h);
                let a = flat[p_idx].data()[i];
                assert!(
                    (fd - a).abs() <= tol * scale,
                    "{via:?} param {p_idx}[{i}] grad mismatch: fd {fd} vs analytic {a} (scale {scale})"
                );
            }
        }
    }
}

fn smooth_mlp(seed: u64) -> Network {
    let mut net = Network::new(
        &[5],
        vec![
            Layer::dense(5, 7),
            Layer::sigmoid(),
            Layer::dense(7, 6),
            Layer::tanh(),
            Layer::dense(6, 4),
            Layer::softmax(),
        ],
    );
    net.init_weights(&mut rng::rng(seed));
    net
}

#[test]
fn dense_sigmoid_tanh_softmax_input_gradient() {
    let net = smooth_mlp(0);
    let mut r = rng::rng(1);
    let x = rng::uniform(&mut r, &[1, 5], -1.0, 1.0);
    let probe = rng::uniform(&mut r, &[1, 4], -1.0, 1.0);
    check_input_gradient(&net, &x, &probe, 0.02);
}

#[test]
fn dense_sigmoid_tanh_softmax_param_gradients() {
    let mut net = smooth_mlp(2);
    let mut r = rng::rng(3);
    let x = rng::uniform(&mut r, &[2, 5], -1.0, 1.0);
    let probe = rng::uniform(&mut r, &[2, 4], -1.0, 1.0);
    check_param_gradients(&mut net, &x, &probe, 0.02);
}

#[test]
fn conv_avgpool_input_gradient() {
    let mut net = Network::new(
        &[2, 6, 6],
        vec![
            Layer::conv2d(2, 3, 3, 1, 1),
            Layer::tanh(),
            Layer::avgpool2d(2),
            Layer::flatten(),
            Layer::dense(3 * 3 * 3, 3),
            Layer::softmax(),
        ],
    );
    let mut r = rng::rng(4);
    net.init_weights(&mut r);
    let x = rng::uniform(&mut r, &[1, 2, 6, 6], -1.0, 1.0);
    let probe = rng::uniform(&mut r, &[1, 3], -1.0, 1.0);
    check_input_gradient(&net, &x, &probe, 0.02);
    // A tile of rows in one pass, as the growth loop differentiates them.
    let x = rng::uniform(&mut r, &[3, 2, 6, 6], -1.0, 1.0);
    let probe = rng::uniform(&mut r, &[3, 3], -1.0, 1.0);
    check_input_gradient(&net, &x, &probe, 0.02);
}

#[test]
fn conv_param_gradients() {
    let mut net = Network::new(
        &[1, 5, 5],
        vec![
            Layer::conv2d(1, 2, 3, 2, 1),
            Layer::sigmoid(),
            Layer::flatten(),
            Layer::dense(2 * 3 * 3, 2),
        ],
    );
    let mut r = rng::rng(5);
    net.init_weights(&mut r);
    let x = rng::uniform(&mut r, &[2, 1, 5, 5], -1.0, 1.0);
    let probe = rng::uniform(&mut r, &[2, 2], -1.0, 1.0);
    check_param_gradients(&mut net, &x, &probe, 0.02);
}

#[test]
fn relu_input_gradient_away_from_kinks() {
    let mut net = Network::new(&[4], vec![Layer::dense(4, 8), Layer::relu(), Layer::dense(8, 3)]);
    let mut r = rng::rng(6);
    net.init_weights(&mut r);
    // Sample until no pre-activation is near zero, so finite differences do
    // not straddle a kink.
    let x = loop {
        let cand = rng::uniform(&mut r, &[1, 4], 0.5, 1.5);
        let pass = net.forward(&cand);
        let pre = &pass.activations[1];
        if pre.data().iter().all(|v| v.abs() > 0.05) {
            break cand;
        }
    };
    let probe = rng::uniform(&mut r, &[1, 3], -1.0, 1.0);
    check_input_gradient(&net, &x, &probe, 0.02);
}

#[test]
fn maxpool_input_gradient_with_distinct_maxima() {
    let mut net =
        Network::new(&[1, 4, 4], vec![Layer::maxpool2d(2), Layer::flatten(), Layer::dense(4, 2)]);
    let mut r = rng::rng(7);
    net.init_weights(&mut r);
    // A permutation-like input guarantees unique window maxima, away from
    // ties where the max-pool gradient is non-differentiable.
    let x = Tensor::from_vec(
        vec![
            0.9, 0.1, 0.3, 0.5, //
            0.2, 0.4, 0.8, 0.0, //
            0.7, 0.15, 0.35, 0.65, //
            0.05, 0.45, 0.25, 0.95,
        ],
        &[1, 1, 4, 4],
    );
    let probe = rng::uniform(&mut r, &[1, 2], -1.0, 1.0);
    check_input_gradient(&net, &x, &probe, 0.02);
}

#[test]
fn batchnorm_eval_input_gradient() {
    let mut net = Network::new(
        &[1, 4, 4],
        vec![
            Layer::conv2d(1, 2, 3, 1, 1),
            Layer::batch_norm(2),
            Layer::tanh(),
            Layer::flatten(),
            Layer::dense(2 * 4 * 4, 2),
        ],
    );
    let mut r = rng::rng(8);
    net.init_weights(&mut r);
    // Populate running statistics with a few training batches first.
    for _ in 0..5 {
        let xb = rng::uniform(&mut r, &[8, 1, 4, 4], -1.0, 1.0);
        net.forward_train(&xb, &mut r);
    }
    let x = rng::uniform(&mut r, &[1, 1, 4, 4], -1.0, 1.0);
    let probe = rng::uniform(&mut r, &[1, 2], -1.0, 1.0);
    check_input_gradient(&net, &x, &probe, 0.02);
}

#[test]
fn hidden_neuron_injection_matches_finite_difference() {
    // The DeepXplore obj2 path: differentiate a single hidden neuron's
    // output with respect to the input, via injection at the hidden layer.
    let mut net = Network::new(
        &[1, 6, 6],
        vec![
            Layer::conv2d(1, 2, 3, 1, 0),
            Layer::tanh(),
            Layer::flatten(),
            Layer::dense(2 * 4 * 4, 3),
            Layer::softmax(),
        ],
    );
    let mut r = rng::rng(9);
    net.init_weights(&mut r);
    let x = rng::uniform(&mut r, &[1, 1, 6, 6], -1.0, 1.0);

    // Target neuron: channel 1, position (2, 3) of the tanh output.
    let mut seed = Tensor::zeros(&[1, 2, 4, 4]);
    seed.set(&[0, 1, 2, 3], 1.0);
    let neuron_value = |x: &Tensor| net.forward(x).activations[2].at(&[0, 1, 2, 3]);
    for via in PASSES {
        let analytic = input_gradient(&net, &x, &[(2, seed.clone())], via);
        let h = 1e-2f32;
        for i in 0..x.len() {
            let mut plus = x.clone();
            plus.data_mut()[i] += h;
            let mut minus = x.clone();
            minus.data_mut()[i] -= h;
            let fd = (neuron_value(&plus) - neuron_value(&minus)) / (2.0 * h);
            let a = analytic.data()[i];
            assert!(
                (fd - a).abs() < 0.02 * (a.abs().max(0.01)).max(0.01),
                "{via:?} neuron grad mismatch at {i}: fd {fd} vs analytic {a}"
            );
        }
    }
}

#[test]
fn joint_objective_gradient_is_sum_of_parts() {
    // Gradient of obj1 + λ·obj2 computed jointly must equal the sum of the
    // separately computed gradients — the linearity DeepXplore relies on.
    let mut net = Network::new(
        &[3],
        vec![Layer::dense(3, 5), Layer::sigmoid(), Layer::dense(5, 2), Layer::softmax()],
    );
    let mut r = rng::rng(10);
    net.init_weights(&mut r);
    let x = rng::uniform(&mut r, &[1, 3], 0.0, 1.0);

    let mut out_seed = Tensor::zeros(&[1, 2]);
    out_seed.set(&[0, 0], 1.0);
    let mut hid_seed = Tensor::zeros(&[1, 5]);
    hid_seed.set(&[0, 3], 0.7);

    for via in PASSES {
        let g1 = input_gradient(&net, &x, &[(4, out_seed.clone())], via);
        let g2 = input_gradient(&net, &x, &[(2, hid_seed.clone())], via);
        let joint = input_gradient(&net, &x, &[(4, out_seed.clone()), (2, hid_seed.clone())], via);
        for i in 0..joint.len() {
            let want = g1.data()[i] + g2.data()[i];
            assert!((joint.data()[i] - want).abs() < 1e-5, "{via:?} at {i}");
        }
        // And the joint gradient is the derivative of the joint objective.
        let objective = |x: &Tensor| {
            let pass = net.forward(x);
            pass.activations[4].at(&[0, 0]) + 0.7 * pass.activations[2].at(&[0, 3])
        };
        check_against_differences(&joint, &x, 0.02, via, objective);
    }
}
