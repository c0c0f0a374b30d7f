//! Bit-level goldens for `dx-nn`'s passes.
//!
//! Every literal below was captured at commit `f93769c`, when the crate
//! still had three forward walks and two backward dispatchers, and the file
//! passed there unmodified. Since the collapse onto one walk and one sweep,
//! a "cached vs lite" comparison compares a function with itself, so these
//! hashes are what proves the surviving arithmetic is the old one: FNV-1a
//! over shapes and `f32::to_bits()` of
//!
//! - every activation of one small net per layer kind, at batch 1 and 3,
//!   through `forward` and through `forward_lite` (cold and warm arena);
//! - the input gradient of an output injection plus a hidden injection,
//!   through `input_gradient` and `input_gradient_ws`;
//! - every parameter gradient `backward_params` returns;
//! - every parameter and every batch-norm running statistic after two Adam
//!   epochs of `train_classifier` and of `train_regressor` on a net with
//!   dropout, batch-norm and a batch-norm inside a residual body.
//!
//! The sign of a zero is hashed like any other bit. Every dense `dx`, in
//! training too, runs through the register-blocked transposed-rhs kernel,
//! which is bit-identical to one scalar dot product per element. Training
//! once multiplied by a materialised `Wᵀ` with the zero-skipping product;
//! into a zeroed buffer with finite weights the two agree bit for bit
//! (`dx-tensor`'s `matmul_bt_matches_explicit_transpose`), so the training
//! literals did not move when that path went.

use dx_nn::init::Init;
use dx_nn::layer::{Conv2d, Layer};
use dx_nn::{
    train_classifier, train_regressor, ForwardPass, Network, Optimizer, TrainConfig, TrainReport,
};
use dx_tensor::{rng, Tensor, Workspace};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Shape, then every element's bit pattern.
    fn tensor(&mut self, t: &Tensor) {
        self.word(t.rank() as u64);
        for &d in t.shape() {
            self.word(d as u64);
        }
        for v in t.data() {
            self.word(u64::from(v.to_bits()));
        }
    }
}

fn hash_tensors<'a>(ts: impl IntoIterator<Item = &'a Tensor>) -> u64 {
    let mut h = Fnv::new();
    for t in ts {
        h.tensor(t);
    }
    h.0
}

/// Initialises `net`, then moves every parameter (biases, γ, β included)
/// off its initial value and gives batch-norm non-trivial running
/// statistics, so no layer is the identity by accident.
fn settle(mut net: Network, seed: u64) -> Network {
    let mut r = rng::rng(seed);
    net.init_weights(&mut r);
    for p in net.params_mut() {
        let noise = rng::uniform(&mut r, p.shape(), -0.3, 0.3);
        *p += &noise;
    }
    for (i, s) in net.state_mut().into_iter().enumerate() {
        // `state()` lists each batch-norm's running mean, then its variance.
        *s = if i % 2 == 0 {
            rng::uniform(&mut r, s.shape(), -0.5, 0.5)
        } else {
            rng::uniform(&mut r, s.shape(), 0.5, 1.5)
        };
    }
    net
}

/// Dense, sigmoid, tanh, eval dropout, batch-norm on `[N, C]`, softmax.
fn mlp() -> Network {
    let layers = vec![
        Layer::dense(6, 7),
        Layer::sigmoid(),
        Layer::dense(7, 5),
        Layer::tanh(),
        Layer::dropout(0.4),
        Layer::batch_norm(5),
        Layer::dense(5, 3),
        Layer::softmax(),
    ];
    settle(Network::new(&[6], layers), 101)
}

/// Conv with padding and stride, batch-norm on `[N, C, H, W]`, ReLU,
/// max-pool, flatten, a bare regression head.
fn cnn() -> Network {
    let layers = vec![
        Layer::conv2d(2, 3, 3, 2, 1),
        Layer::batch_norm(3),
        Layer::relu(),
        Layer::maxpool2d(2),
        Layer::flatten(),
        Layer::dense(3 * 2 * 2, 4),
        Layer::relu(),
        Layer::dense(4, 1),
    ];
    settle(Network::new(&[2, 7, 7], layers), 102)
}

/// Unpadded conv, tanh, average pooling.
fn avg() -> Network {
    let layers = vec![
        Layer::conv2d(1, 2, 3, 1, 0),
        Layer::tanh(),
        Layer::avgpool2d(2),
        Layer::flatten(),
        Layer::dense(2 * 2 * 2, 3),
        Layer::softmax(),
    ];
    settle(Network::new(&[1, 6, 6], layers), 103)
}

/// An identity-skip residual block with a batch-norm in its body, then a
/// projected one that changes channels and stride.
fn res() -> Network {
    let plain = Layer::residual(vec![
        Layer::conv2d(2, 2, 3, 1, 1),
        Layer::batch_norm(2),
        Layer::relu(),
        Layer::conv2d(2, 2, 3, 1, 1),
    ]);
    let projected = Layer::residual_projected(
        vec![Layer::conv2d(2, 3, 3, 2, 1), Layer::sigmoid(), Layer::conv2d(3, 3, 3, 1, 1)],
        Conv2d::new(2, 3, 1, 2, 0, Init::HeNormal),
    );
    let layers = vec![
        Layer::conv2d(1, 2, 3, 1, 1),
        Layer::relu(),
        plain,
        Layer::relu(),
        projected,
        Layer::relu(),
        Layer::avgpool2d(3),
        Layer::flatten(),
        Layer::dense(3, 3),
        Layer::softmax(),
    ];
    settle(Network::new(&[1, 6, 6], layers), 104)
}

fn input_for(net: &Network, batch: usize, seed: u64) -> Tensor {
    let mut shape = vec![batch];
    shape.extend_from_slice(net.input_shape());
    rng::uniform(&mut rng::rng(seed), &shape, -1.0, 1.0)
}

fn nets() -> [(&'static str, Network, usize); 4] {
    // The third field is the activation index of the hidden injection.
    [("mlp", mlp(), 4), ("cnn", cnn(), 3), ("avg", avg(), 2), ("res", res(), 4)]
}

/// Compares labelled hashes with the pinned table; a mismatch prints the
/// whole table as it would have to be written.
fn assert_pinned(got: &[(String, u64)], want: &[(&str, u64)]) {
    let same = got.len() == want.len()
        && got.iter().zip(want).all(|((gl, gh), (wl, wh))| gl == wl && gh == wh);
    if !same {
        let table: Vec<String> =
            got.iter().map(|(l, h)| format!("        (\"{l}\", {h:#018x}),")).collect();
        panic!("hashes moved; this run computed:\n{}", table.join("\n"));
    }
}

#[test]
fn activations_match_the_parent_through_both_forward_entry_points() {
    let mut got = Vec::new();
    for (name, net, _) in nets() {
        for batch in [1usize, 3] {
            let x = input_for(&net, batch, 7 + batch as u64);
            let full = net.forward(&x);
            assert_eq!(full.activations.len(), net.num_layers() + 1);
            let want = hash_tensors(&full.activations);
            got.push((format!("{name} b{batch}"), want));
            let mut ws = Workspace::new();
            let lite = net.forward_lite(&x, &mut ws);
            assert_eq!(hash_tensors(&lite.activations), want, "{name} b{batch} forward_lite");
            // A second pass draws the first one's buffers back out.
            lite.recycle(&mut ws);
            assert!(ws.pooled() > 0);
            let warm = net.forward_lite(&x, &mut ws);
            assert_eq!(hash_tensors(&warm.activations), want, "{name} b{batch} warm forward_lite");
            assert_eq!(hash_tensors([&net.output(&x)]), hash_tensors([full.output()]));
        }
    }
    let want = [
        ("mlp b1", 0x08b76bb1dbdb5858),
        ("mlp b3", 0xf83c124c4d6b09c4),
        ("cnn b1", 0x8fa864ec955e8db3),
        ("cnn b3", 0x9c88a559c605a86e),
        ("avg b1", 0xe3679b2c7d7b7012),
        ("avg b3", 0x2123219c131788cf),
        ("res b1", 0xa243692394a00bce),
        ("res b3", 0x1e5bce4cbd15fcf5),
    ];
    assert_pinned(&got, &want);
}

/// An output injection plus a hidden one, both dense random tensors.
fn injections(pass: &ForwardPass, hidden: usize) -> Vec<(usize, Tensor)> {
    let last = pass.activations.len() - 1;
    let mut r = rng::rng(55);
    [last, hidden]
        .into_iter()
        .map(|i| (i, rng::uniform(&mut r, pass.activations[i].shape(), -1.0, 1.0)))
        .collect()
}

#[test]
fn input_gradients_match_the_parent_through_both_entry_points() {
    let mut got = Vec::new();
    for (name, net, hidden) in nets() {
        for batch in [1usize, 3] {
            let x = input_for(&net, batch, 17 + batch as u64);
            let full = net.forward(&x);
            let inj = injections(&full, hidden);
            let want = hash_tensors([&net.input_gradient(&full, &inj)]);
            got.push((format!("{name} b{batch}"), want));
            let mut ws = Workspace::new();
            let lite = net.forward_lite(&x, &mut ws);
            let g = net.input_gradient_ws(&lite, &inj, &mut ws);
            assert_eq!(hash_tensors([&g]), want, "{name} b{batch} input_gradient_ws");
            // Warm arena, and the same pass differentiated a second time.
            ws.put_tensor(g);
            let g = net.input_gradient_ws(&lite, &inj, &mut ws);
            assert_eq!(hash_tensors([&g]), want, "{name} b{batch} warm input_gradient_ws");
        }
    }
    let want = [
        ("mlp b1", 0xee2ebf2425fd5745),
        ("mlp b3", 0x32fa64b1550b09d7),
        ("cnn b1", 0x5e9de8edb9faee17),
        ("cnn b3", 0x61cb562f330d47f5),
        ("avg b1", 0xf7bd844a32b101fa),
        ("avg b3", 0xba2bda665cfa0878),
        ("res b1", 0x07ac9b9dccdc056a),
        ("res b3", 0xd95a82250afb7de2),
    ];
    assert_pinned(&got, &want);
}

#[test]
fn parameter_gradients_match_the_parent() {
    let mut got = Vec::new();
    for (name, net, _) in nets() {
        for batch in [1usize, 3] {
            let x = input_for(&net, batch, 27 + batch as u64);
            let pass = net.forward(&x);
            let grad = rng::uniform(&mut rng::rng(66), pass.output().shape(), -1.0, 1.0);
            let per_layer = net.backward_params(&pass, &grad);
            assert_eq!(per_layer.len(), net.num_layers());
            for (layer, grads) in net.layers().iter().zip(&per_layer) {
                assert_eq!(grads.len(), layer.params().len(), "{name}: {}", layer.name());
                for (g, p) in grads.iter().zip(layer.params()) {
                    assert_eq!(g.shape(), p.shape(), "{name}: {}", layer.name());
                }
            }
            got.push((format!("{name} b{batch}"), hash_tensors(per_layer.iter().flatten())));
        }
    }
    let want = [
        ("mlp b1", 0x085243ec1804c416),
        ("mlp b3", 0xda63f182699b1963),
        ("cnn b1", 0x909e114a2e1fd041),
        ("cnn b3", 0x673a54619a925e58),
        ("avg b1", 0x243721062f73d096),
        ("avg b3", 0xb2fb9b931bf954f5),
        ("res b1", 0xccff070236b6d91b),
        ("res b3", 0x836212c6ea19b002),
    ];
    assert_pinned(&got, &want);
}

/// Dropout, batch-norm, and a batch-norm inside a residual body; `head`
/// finishes the net as a classifier or a regressor.
fn trainable(head: Vec<Layer>, seed: u64) -> Network {
    let mut layers = vec![
        Layer::conv2d(1, 2, 3, 1, 1),
        Layer::batch_norm(2),
        Layer::relu(),
        Layer::residual(vec![
            Layer::conv2d(2, 2, 3, 1, 1),
            Layer::batch_norm(2),
            Layer::relu(),
            Layer::conv2d(2, 2, 3, 1, 1),
        ]),
        Layer::maxpool2d(2),
        Layer::flatten(),
        Layer::dense(2 * 3 * 3, 8),
        Layer::batch_norm(8),
        Layer::tanh(),
        Layer::dropout(0.25),
    ];
    layers.extend(head);
    let mut net = Network::new(&[1, 6, 6], layers);
    net.init_weights(&mut rng::rng(seed));
    net
}

fn trained(name: &str, net: &Network, report: &TrainReport) -> Vec<(String, u64)> {
    assert_eq!(net.state().len(), 6, "three batch-norms, one inside the residual body");
    vec![
        (format!("{name} params"), hash_tensors(net.params())),
        (format!("{name} running statistics"), hash_tensors(net.state())),
        (format!("{name} epoch losses"), hash_tensors([&Tensor::from_slice(&report.epoch_losses)])),
    ]
}

#[test]
fn two_adam_epochs_leave_the_parents_weights_and_running_statistics() {
    let cfg = TrainConfig { epochs: 2, batch_size: 5, seed: 9, shuffle: true };
    let mut r = rng::rng(77);
    // 13 samples: two full batches and a partial one per epoch.
    let x = rng::uniform(&mut r, &[13, 1, 6, 6], -1.0, 1.0);

    let mut clf = trainable(vec![Layer::dense(8, 3), Layer::softmax()], 201);
    let labels: Vec<usize> = (0..13).map(|i| (i * 7) % 3).collect();
    let report = train_classifier(&mut clf, &x, &labels, &cfg, &mut Optimizer::adam(0.01));
    let mut got = trained("classifier", &clf, &report);

    let mut reg = trainable(vec![Layer::dense(8, 2), Layer::sigmoid()], 202);
    let targets = rng::uniform(&mut r, &[13, 2], 0.0, 1.0);
    let report = train_regressor(&mut reg, &x, &targets, &cfg, &mut Optimizer::adam(0.01));
    got.extend(trained("regressor", &reg, &report));
    let want = [
        ("classifier params", 0xd47be67f82dbac1f),
        ("classifier running statistics", 0x714ac13e8f6c5d82),
        ("classifier epoch losses", 0xd7dc32fbe0df952c),
        ("regressor params", 0x4f4f055e8ea30c93),
        ("regressor running statistics", 0x90609206ec053376),
        ("regressor epoch losses", 0xfa1615ebef6db0ea),
    ];
    assert_pinned(&got, &want);
}
