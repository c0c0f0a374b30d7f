//! The ladder: the workload's own seeds pushed through each layer of the
//! stack from outside, outermost first — `core` (one generator step per
//! seed), then `nn`/`coverage` (the passes one iterate is made of), then
//! each layer kind on the activations a real pass produced, then each
//! matmul kernel at those layers' shapes. Every rung reports unit costs,
//! so the rung above can be checked against count × unit cost.

use std::time::{Duration, Instant};

use deepxplore::generator::{Generator, SeedRun};
use dx_benchmark::stats;
use dx_benchmark::trace::Tracer;
use dx_nn::layer::Layer;
use dx_nn::util::gather_rows;
use dx_nn::Network;
use dx_telemetry::phase::set_timing_enabled;
use dx_tensor::kernels::{matmul_acc, matmul_bias_act, matmul_bt_acc};
use dx_tensor::{rng, FusedAct, Tensor, Workspace};

use crate::out::{median_us, Out};
use crate::suite::Bench;

/// The campaign's effective tile: `--batch 4` capped by `--merge-every
/// 4` (the CLI defaults every workload runs with). Layer-kind and kernel
/// costs are taken at this width, because it is the shape the workload's
/// passes really have.
const TILE: usize = 4;
/// Seeds in each arm of the tile-width comparison.
const TILE_GAIN_SEEDS: usize = 64;
/// Fewest repetitions of any micro-measurement.
const MIN_CALLS: usize = 5;

fn generator(bench: &Bench, seed: u64) -> Generator {
    let s = &bench.suite;
    Generator::with_signals(
        s.models.clone(),
        s.kind,
        s.hp,
        s.constraint.clone(),
        s.signal.build(&s.models),
        // The stream campaign worker 0 gets from the master seed.
        rng::derive_seed(seed, 1),
    )
}

/// What the `core` rung hands down: the generator (with the coverage it
/// accumulated) and every seed's outcome.
pub struct CoreRung {
    /// The generator after all seeds.
    pub generator: Generator,
    /// One outcome per seed, in seed order.
    pub runs: Vec<SeedRun>,
    /// Wall time of all `run_batch_tiled` calls, microseconds.
    pub total_us: f64,
}

/// `core`: each seed through `Generator::run_batch_tiled` at width 1,
/// one timing sample per seed (and one more on a twin generator with the
/// phase timers off); then the same job lists at width 1 and width 8 for
/// the tiling gain.
pub fn core(bench: &Bench, seeds: &Tensor, seed: u64, t: &mut Tracer, out: &mut Out) -> CoreRung {
    let n = seeds.shape()[0];
    let mut generator = generator(bench, seed);
    // A twin in the same state does every seed again with the program's
    // hot-path phase timers off: hundreds of paired samples of identical
    // work, which is what resolving a sub-percent overhead takes.
    let mut twin = self::generator(bench, seed);
    let mut runs = Vec::with_capacity(n);
    let mut seed_ms = Vec::with_capacity(n);
    let mut timers_on_over_off = Vec::with_capacity(n);
    t.span("core.run_batch_tiled.w1", |_| {
        for i in 0..n {
            let row = gather_rows(seeds, &[i]);
            let timed = |g: &mut Generator, timers: bool| {
                set_timing_enabled(timers);
                let started = Instant::now();
                let run = g.run_batch_tiled(&[i], &row, 1);
                let ms = started.elapsed().as_nanos() as f64 / 1e6;
                set_timing_enabled(true);
                (ms, run)
            };
            // Alternate who goes first, so neither always finds the
            // caches warm.
            let ((on_ms, mut run), (off_ms, _)) = if i % 2 == 0 {
                let on = timed(&mut generator, true);
                (on, timed(&mut twin, false))
            } else {
                let off = timed(&mut twin, false);
                (timed(&mut generator, true), off)
            };
            seed_ms.push(on_ms);
            timers_on_over_off.push(on_ms / off_ms);
            runs.append(&mut run);
        }
        let iterations: usize = runs.iter().map(|r| r.iterations).sum();
        ((), vec![("seeds", n as f64), ("iterations", iterations as f64)])
    });
    if let Some(ratio) = stats::median(&timers_on_over_off) {
        out.set("telemetry.timer_overhead_pct", 100.0 * (ratio - 1.0), n);
    }
    let total_us = seed_ms.iter().sum::<f64>() * 1e3;
    let iterations: usize = runs.iter().map(|r| r.iterations).sum();
    let diffs = runs.iter().filter(|r| r.found_difference()).count();
    out.set_median("core.seed_ms.p50", &seed_ms);
    out.set_tail("core.seed_ms.p95", &seed_ms, 95.0);
    out.set("core.iters_per_seed", iterations as f64 / n as f64, n);
    out.set("core.diff_yield", diffs as f64 / n as f64, n);
    out.set("core.iter_us", total_us / iterations.max(1) as f64, iterations);

    // Tiling is pure execution: for one job list, width 1 and width 8
    // produce the same bits, so the ratio is the tile's own gain.
    let m = TILE_GAIN_SEEDS.min(n);
    let mut arm = |width: usize, name: &str| {
        let mut generator = self::generator(bench, seed);
        t.span(name, |_| {
            let started = Instant::now();
            for chunk in (0..m).collect::<Vec<_>>().chunks(8) {
                generator.run_batch_tiled(chunk, &gather_rows(seeds, chunk), width);
            }
            (started.elapsed().as_secs_f64(), vec![("seeds", m as f64), ("width", width as f64)])
        })
    };
    let (narrow_s, wide_s) = (arm(1, "core.tile.w1"), arm(8, "core.tile.w8"));
    out.set("core.tile_gain", narrow_s / wide_s, m);
    CoreRung { generator, runs, total_us }
}

/// A unit-seed injection at the output layer: one class score per row,
/// the shape obj1 injects in every iterate.
fn output_injection(net: &Network, pass_output: &Tensor) -> (usize, Tensor) {
    let mut seed = Tensor::zeros(pass_output.shape());
    let k = seed.len() / seed.shape()[0];
    for row in 0..seed.shape()[0] {
        seed.data_mut()[row * k] = 1.0;
    }
    (net.num_layers(), seed)
}

/// Trio-summed `(forward_lite, input_gradient_ws)` medians at one batch
/// width, microseconds per pass.
fn pass_costs(models: &[Network], x: &Tensor, slice: Duration) -> (f64, f64, usize) {
    let mut ws = Workspace::new();
    let (mut forward, mut gradient, mut calls) = (0.0, 0.0, 0);
    for net in models {
        let (us, n) = median_us(slice, MIN_CALLS, || net.forward_lite(x, &mut ws).recycle(&mut ws));
        forward += us;
        calls += n;
        let pass = net.forward_lite(x, &mut ws);
        let injections = [output_injection(net, pass.output())];
        let (us, n) = median_us(slice, MIN_CALLS, || {
            let g = net.input_gradient_ws(&pass, &injections, &mut ws);
            ws.put_tensor(g);
        });
        gradient += us;
        calls += n;
        pass.recycle(&mut ws);
    }
    (forward, gradient, calls)
}

/// `nn` (whole passes) and `coverage.update`: what one iterate is made
/// of, at widths 1 and 8; then `core.loop_self_share`, the part of the
/// generator's time those unit costs do not explain.
pub fn passes(
    bench: &Bench,
    seeds: &Tensor,
    core: &CoreRung,
    slice: Duration,
    t: &mut Tracer,
    out: &mut Out,
) {
    let models = &bench.suite.models;
    let id = t.enter("nn.passes");
    let (x1, x8) = (gather_rows(seeds, &[0]), gather_rows(seeds, &(0..8).collect::<Vec<_>>()));
    let (f1, g1, n1) = pass_costs(models, &x1, slice);
    let (f8, g8, n8) = pass_costs(models, &x8, slice);
    t.exit(id, &[("calls", (n1 + n8) as f64)]);
    out.set("nn.forward.us_per_sample.b1", f1, n1);
    out.set("nn.forward.us_per_sample.b8", f8 / 8.0, n8);
    out.set("nn.gradient.us_per_sample.b1", g1, n1);
    out.set("nn.gradient.us_per_sample.b8", g8 / 8.0, n8);
    out.set("nn.batch_gain", (f1 + g1) / ((f8 + g8) / 8.0), n1 + n8);

    // Coverage folds one batch-1 pass per model per iterate.
    let id = t.enter("coverage.update");
    let mut ws = Workspace::new();
    let mut signals = core.generator.signals().to_vec();
    let (mut update, mut calls) = (0.0, 0);
    for (net, signal) in models.iter().zip(signals.iter_mut()) {
        let pass = net.forward_lite(&x1, &mut ws);
        let (us, n) = median_us(slice, MIN_CALLS, || {
            signal.update(&pass);
        });
        update += us;
        calls += n;
    }
    t.exit(id, &[("calls", calls as f64)]);
    out.set("coverage.update.us_per_pass", update / models.len() as f64, calls);
    out.set("coverage.units", signals.iter().map(|s| s.total() as f64).sum(), models.len());

    // A seed does one forward+update up front, then per iterate one
    // gradient, one forward and one update (all trio-wide, width 1).
    let explained: f64 = core
        .runs
        .iter()
        .map(|r| (r.iterations + 1) as f64 * (f1 + update) + r.iterations as f64 * g1)
        .sum();
    out.set(
        "core.loop_self_share",
        100.0 * (core.total_us - explained) / core.total_us,
        core.runs.len(),
    );
}

/// The five kinds the per-layer time is shared out over.
#[derive(Clone, Copy, PartialEq)]
enum LayerKind {
    Conv,
    Dense,
    Pool,
    Act,
    Other,
}

fn kind_of(layer: &Layer) -> LayerKind {
    match layer {
        Layer::Conv2d(_) => LayerKind::Conv,
        Layer::Dense(_) => LayerKind::Dense,
        Layer::MaxPool2d(_) | Layer::AvgPool2d(_) => LayerKind::Pool,
        Layer::Relu | Layer::Sigmoid | Layer::Tanh | Layer::Softmax => LayerKind::Act,
        Layer::Flatten | Layer::Dropout(_) | Layer::BatchNorm(_) | Layer::Residual(_) => {
            LayerKind::Other
        }
    }
}

/// Sum of `2·m·k·n` over calls and the summed median time, per kernel.
#[derive(Default)]
struct KernelCost {
    flops: f64,
    us: f64,
    calls: usize,
}

impl KernelCost {
    fn add(&mut self, flops: usize, (us, calls): (f64, usize)) {
        self.flops += flops as f64;
        self.us += us;
        self.calls += calls;
    }

    fn gflops(&self) -> Option<f64> {
        (self.us > 0.0).then(|| self.flops / self.us / 1e3)
    }
}

/// `nn` layer kinds and `tensor` kernels, at the campaign's tile width:
/// each layer of each model forward and backward on the activations of a
/// real pass, then each matmul kernel at that layer's `m, k, n`.
pub fn layers_and_kernels(
    bench: &Bench,
    seeds: &Tensor,
    slice: Duration,
    t: &mut Tracer,
    out: &mut Out,
) {
    let models = &bench.suite.models;
    let x = gather_rows(seeds, &(0..TILE).collect::<Vec<_>>());
    let mut ws = Workspace::new();
    // Many layers share the slice: each gets an equal part of it.
    let n_layers: usize = models.iter().map(Network::num_layers).sum();
    let part = slice.mul_f64(6.0 / n_layers.max(1) as f64);

    let id = t.enter("nn.layers");
    // [kind][0 = forward, 1 = backward] summed medians, microseconds.
    let mut by_kind = [[0.0f64; 2]; 5];
    let (mut acc, mut bt_acc, mut bias_act) =
        (KernelCost::default(), KernelCost::default(), KernelCost::default());
    let mut conv_kernel_us = 0.0;
    let mut calls = 0;
    let mut noise = rng::rng(0x1add);
    for net in models {
        let pass = net.forward_lite(&x, &mut ws);
        for (i, layer) in net.layers().iter().enumerate() {
            let (input, output) = (&pass.activations[i], &pass.activations[i + 1]);
            let grad = Tensor::from_vec(vec![1.0; output.len()], output.shape());
            let kind = kind_of(layer) as usize;
            let (us, n) = median_us(part, MIN_CALLS, || {
                let (y, _cache) = layer.forward_lite(input, &mut ws);
                ws.put_tensor(y);
            });
            by_kind[kind][0] += us;
            calls += n;
            let (us, n) = match layer {
                Layer::Dense(d) => median_us(part, MIN_CALLS, || {
                    let g = d.backward_input_ws(&grad, &mut ws);
                    ws.put_tensor(g);
                }),
                Layer::Conv2d(c) => median_us(part, MIN_CALLS, || {
                    let g = c.backward_input_ws(input.shape(), &grad, &mut ws);
                    ws.put_tensor(g);
                }),
                // No workspace entry point from outside: the cache-based
                // backward is the public view of these layers.
                other => {
                    let (_, cache) = other.forward(input);
                    median_us(part, MIN_CALLS, || {
                        other.backward(&cache, &grad, false);
                    })
                }
            };
            by_kind[kind][1] += us;
            calls += n;

            // The kernels at this layer's shapes. Left operands are the
            // real ones (the kernels skip zero lhs terms, and post-ReLU
            // activations are sparse); right operands only set the shape.
            match layer {
                Layer::Conv2d(c) => {
                    let (rows, cols) =
                        (c.in_ch * c.kernel * c.kernel, output.shape()[2] * output.shape()[3]);
                    let col = rng::uniform(&mut noise, &[rows, cols], 0.0, 1.0);
                    let mut y = vec![0.0f32; c.out_ch * cols];
                    let fwd = median_us(part, MIN_CALLS, || {
                        for _ in 0..TILE {
                            y.fill(0.0);
                            matmul_acc(c.weight.data(), col.data(), c.out_ch, rows, cols, &mut y);
                        }
                    });
                    let w_t = c.weight.reshape(&[c.out_ch, rows]).transpose();
                    let g = &grad.data()[..c.out_ch * cols];
                    let mut dcols = vec![0.0f32; rows * cols];
                    let bwd = median_us(part, MIN_CALLS, || {
                        for _ in 0..TILE {
                            dcols.fill(0.0);
                            matmul_acc(w_t.data(), g, rows, c.out_ch, cols, &mut dcols);
                        }
                    });
                    conv_kernel_us += fwd.0 + bwd.0;
                    acc.add(2 * TILE * c.out_ch * rows * cols, fwd);
                    acc.add(2 * TILE * rows * c.out_ch * cols, bwd);
                }
                Layer::Dense(d) => {
                    let (i_f, o_f) = (d.in_features, d.out_features);
                    let mut y = vec![0.0f32; TILE * o_f];
                    let fwd = median_us(part, MIN_CALLS, || {
                        matmul_bias_act(
                            input.data(),
                            d.weight.data(),
                            d.bias.data(),
                            TILE,
                            i_f,
                            o_f,
                            FusedAct::Identity,
                            &mut y,
                        );
                    });
                    let mut dx = vec![0.0f32; TILE * i_f];
                    let bwd = median_us(part, MIN_CALLS, || {
                        dx.fill(0.0);
                        matmul_bt_acc(grad.data(), d.weight.data(), TILE, o_f, i_f, &mut dx);
                    });
                    bias_act.add(2 * TILE * i_f * o_f, fwd);
                    bt_acc.add(2 * TILE * o_f * i_f, bwd);
                }
                _ => {}
            }
        }
        pass.recycle(&mut ws);
    }
    t.exit(id, &[("layers", n_layers as f64), ("calls", calls as f64)]);

    let kind_us = |k: LayerKind| by_kind[k as usize][0] + by_kind[k as usize][1];
    let all_us: f64 = by_kind.iter().flatten().sum();
    for (name, k) in [
        ("nn.share.conv", LayerKind::Conv),
        ("nn.share.dense", LayerKind::Dense),
        ("nn.share.pool", LayerKind::Pool),
        ("nn.share.act", LayerKind::Act),
        ("nn.share.other", LayerKind::Other),
    ] {
        out.set(name, 100.0 * kind_us(k) / all_us, calls);
    }
    out.set("nn.dense_fwd.us", by_kind[LayerKind::Dense as usize][0], calls);
    out.set("nn.dense_bwd_input.us", by_kind[LayerKind::Dense as usize][1], calls);
    // A trio without conv layers has no conv costs to report (its conv
    // *share* is a measured 0).
    if kind_us(LayerKind::Conv) > 0.0 {
        out.set("nn.conv_fwd.us", by_kind[LayerKind::Conv as usize][0], calls);
        out.set("nn.conv_bwd_input.us", by_kind[LayerKind::Conv as usize][1], calls);
        // im2col/col2im/bias are private to the layer; from outside they
        // are the conv time the matmul kernel does not account for.
        out.set(
            "nn.conv.non_matmul_share",
            100.0 * (1.0 - conv_kernel_us / kind_us(LayerKind::Conv)),
            calls,
        );
    }
    for (name, cost) in [
        ("tensor.matmul_acc.gflops", &acc),
        ("tensor.matmul_bt_acc.gflops", &bt_acc),
        ("tensor.matmul_bias_act.gflops", &bias_act),
    ] {
        if let Some(gflops) = cost.gflops() {
            out.set(name, gflops, cost.calls);
        }
    }
    // Kernel time at the pass's shapes over the measured pass time.
    let (f, g, n) = pass_costs(models, &x, slice);
    out.set("tensor.kernel_share", 100.0 * (acc.us + bt_acc.us + bias_act.us) / (f + g), n);
}
