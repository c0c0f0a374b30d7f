//! Criterion micro-benchmarks of the engine primitives DeepXplore leans
//! on: forward passes, parameter backprop, and the joint input gradient.
//!
//! Not a paper table — a sanity harness for the substrate's performance
//! (the paper's analog is its §8 note that gradient computation takes
//! ~120ms per ImageNet image on a GTX 1070).

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dx_models::arch;
use dx_nn::init::Init;
use dx_nn::layer::Conv2d;
use dx_nn::Network;
use dx_tensor::{rng, Tensor, Workspace};

fn trained_ish(mut net: Network, seed: u64) -> Network {
    net.init_weights(&mut rng::rng(seed));
    net
}

fn bench_forward(c: &mut Criterion) {
    let lenet = trained_ish(arch::lenet5(), 1);
    let x = rng::uniform(&mut rng::rng(2), &[1, 1, 28, 28], 0.0, 1.0);
    c.bench_function("lenet5_forward", |b| b.iter(|| lenet.forward(&x)));

    let dave = trained_ish(arch::dave_orig(), 3);
    let frame = rng::uniform(&mut rng::rng(4), &[1, 1, 32, 64], 0.0, 1.0);
    c.bench_function("dave_orig_forward", |b| b.iter(|| dave.forward(&frame)));
}

fn bench_backward(c: &mut Criterion) {
    let lenet = trained_ish(arch::lenet5(), 5);
    let x = rng::uniform(&mut rng::rng(6), &[4, 1, 28, 28], 0.0, 1.0);
    c.bench_function("lenet5_backward_params_b4", |b| {
        b.iter(|| {
            let pass = lenet.forward(&x);
            let grad = Tensor::ones(pass.output().shape());
            lenet.backward_params(&pass, &grad)
        })
    });
}

fn bench_input_gradient(c: &mut Criterion) {
    let lenet = trained_ish(arch::lenet5(), 7);
    let x = rng::uniform(&mut rng::rng(8), &[1, 1, 28, 28], 0.0, 1.0);
    c.bench_function("lenet5_class_input_gradient", |b| {
        b.iter(|| {
            let pass = lenet.forward(&x);
            lenet.class_score_input_gradient(&pass, 3)
        })
    });

    let vgg = trained_ish(arch::vgg_mini_16(), 9);
    let img = rng::uniform(&mut rng::rng(10), &[1, 3, 32, 32], 0.0, 1.0);
    c.bench_function("vgg_mini16_class_input_gradient", |b| {
        b.iter(|| {
            let pass = vgg.forward(&img);
            vgg.class_score_input_gradient(&pass, 0)
        })
    });
}

/// Median microseconds per call of `f` over 201 timed calls (after 20 warm ones).
fn median_us(mut f: impl FnMut()) -> f64 {
    let mut us: Vec<f64> = (0..221)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .skip(20)
        .collect();
    us.sort_by(f64::total_cmp);
    us[us.len() / 2]
}

/// The conv layer's two workspace passes at the campaign's tile width (4),
/// on the first conv of LeNet-5 and of DAVE: microseconds per call, and the
/// GFLOP/s computed from the layer's matmul work (`2·out_ch·C·k·k·OH·OW` per
/// sample) over that whole time — lowering, bias add and scatter included.
fn bench_conv(_: &mut Criterion) {
    for (name, mut conv, (h, w)) in [
        ("lenet5_conv1", Conv2d::new(1, 6, 5, 1, 2, Init::HeNormal), (28, 28)),
        ("dave_conv1", Conv2d::new(1, 12, 5, 2, 0, Init::HeNormal), (32, 64)),
    ] {
        conv.init_weights(&mut rng::rng(11));
        let x = rng::uniform(&mut rng::rng(12), &[4, conv.in_ch, h, w], 0.0, 1.0);
        let mut ws = Workspace::new();
        let (y, _) = conv.forward_ws(&x, &mut ws);
        let grad = Tensor::ones(y.shape());
        let flop = 2 * y.len() * conv.in_ch * conv.kernel * conv.kernel;
        let report = |arm: &str, us: f64| {
            let gflops = flop as f64 / us / 1e3;
            println!("{:<40} {us:>10.2} µs {gflops:>8.2} GFLOP/s", format!("{arm}/{name}"));
        };
        let us = median_us(|| {
            let (y, _) = conv.forward_ws(black_box(&x), &mut ws);
            ws.put_tensor(black_box(y));
        });
        report("conv_forward_ws_b4", us);
        let us = median_us(|| {
            let dx = conv.backward_input_ws(x.shape(), black_box(&grad), &mut ws);
            ws.put_tensor(black_box(dx));
        });
        report("conv_backward_input_ws_b4", us);
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_forward, bench_backward, bench_input_gradient, bench_conv
}
criterion_main!(benches);
