//! Reference oracle for the growth loop: the one-seed loop `run` used
//! before it moved onto the tile loop — `grow`, `joint_gradient` and
//! `joint_gradient_from`, verbatim (two cached forwards per iterate, one
//! injection tensor per picked neuron, `cov_tracker` updated through
//! `update` on a difference) — and the property that [`Generator::run`]
//! still equals it bit for bit.

use super::*;

impl Generator {
    /// Predictions of every model on a `[1, ...]` input.
    pub(super) fn predict_all(&self, x: &Tensor) -> Vec<Prediction> {
        self.models.iter().map(|m| self.kind.prediction(m.output(x).data())).collect()
    }

    /// `run` as it was: one `grow` per seed.
    fn reference_run(&mut self, seeds: &Tensor) -> GenResult {
        let mut stats = RunStats::default();
        let mut tests = Vec::new();
        let n = seeds.shape()[0];
        for i in 0..n {
            stats.seeds_tried += 1;
            let seed_x = gather_rows(seeds, &[i]);
            match self.grow(i, &seed_x, &mut stats) {
                SeedOutcome::Difference(test) => {
                    stats.differences_found += 1;
                    tests.push(test);
                }
                SeedOutcome::Preexisting => stats.seeds_skipped_preexisting += 1,
                SeedOutcome::Exhausted => {}
            }
            if let Some(p) = self.hp.desired_coverage {
                if self.mean_coverage() >= p {
                    break;
                }
            }
        }
        GenResult { tests, stats, coverage: self.coverage() }
    }

    fn grow(&mut self, seed_index: usize, seed_x: &Tensor, stats: &mut RunStats) -> SeedOutcome {
        let threshold = self.kind.oracle_threshold();
        let initial = self.predict_all(seed_x);
        if differs(&initial, threshold) {
            // The models disagree on the seed itself (Algorithm 1 line 4-5
            // assumes agreement).
            if self.hp.count_preexisting {
                for (m, tracker) in self.models.iter().zip(self.signals.iter_mut()) {
                    tracker.update(&m.forward(seed_x));
                }
                return SeedOutcome::Difference(GeneratedTest {
                    seed_index,
                    input: seed_x.clone(),
                    iterations: 0,
                    predictions: initial,
                    target_model: 0,
                });
            }
            return SeedOutcome::Preexisting;
        }
        // The common class c (line 5) / the agreed direction for regression.
        let c = match initial[0] {
            Prediction::Class(c) => c,
            Prediction::Value(_) => 0,
        };
        // Line 6: randomly select the model to push away.
        let j = self.rng.gen_range(0..self.models.len());
        let mut x = seed_x.clone();
        for iter in 1..=self.hp.max_iters {
            stats.total_iterations += 1;
            let grad = self.joint_gradient(&x, c, j);
            let next = self.constraint.step(&x, &grad, self.hp.step);
            if next == x {
                // The constraint admits no further movement from here.
                return SeedOutcome::Exhausted;
            }
            x = next;
            let preds = self.predict_all(&x);
            if differs(&preds, threshold) {
                // Lines 15-19: record the test and update cov_tracker.
                for (m, tracker) in self.models.iter().zip(self.signals.iter_mut()) {
                    tracker.update(&m.forward(&x));
                }
                return SeedOutcome::Difference(GeneratedTest {
                    seed_index,
                    input: x,
                    iterations: iter,
                    predictions: preds,
                    target_model: j,
                });
            }
        }
        SeedOutcome::Exhausted
    }

    /// The gradient of Equation 3 with respect to the input:
    /// `∂[(Σ_{k≠j} F_k(x)[c] − λ1·F_j(x)[c]) + λ2·Σ_m f_{n_m}(x)]/∂x`.
    fn joint_gradient(&mut self, x: &Tensor, c: usize, j: usize) -> Tensor {
        let passes: Vec<_> = self.models.iter().map(|m| m.forward(x)).collect();
        self.joint_gradient_from(&passes, c, j)
    }

    /// [`Generator::joint_gradient`] over precomputed forward passes (one
    /// per model, at the same input) — lets callers that already ran the
    /// oracle reuse its passes.
    fn joint_gradient_from(&mut self, passes: &[ForwardPass], c: usize, j: usize) -> Tensor {
        let mut total = self.ws.take_tensor(passes[0].input().shape());
        for (m, (model, tracker)) in self.models.iter().zip(self.signals.iter()).enumerate() {
            let pass = &passes[m];
            let mut injections = Vec::with_capacity(2);
            // obj1 term at the output layer.
            let out_shape = pass.output().shape().to_vec();
            let weight = if m == j { -self.hp.lambda1 } else { 1.0 };
            let mut out_seed = self.ws.take_tensor(&out_shape);
            match self.kind {
                TaskKind::Classification => out_seed.set(&[0, c], weight),
                TaskKind::Regression { .. } => out_seed.data_mut().fill(weight),
            }
            injections.push((model.num_layers(), out_seed));
            // obj2 term: uncovered neuron(s) per model (line 33; the paper
            // picks one, `neurons_per_model` generalizes per §4.2).
            if self.hp.lambda2 != 0.0 {
                let picked: Vec<_> = match self.hp.neuron_pick {
                    crate::hyper::NeuronPick::Random => {
                        tracker.pick_uncovered_k(&mut self.rng, self.hp.neurons_per_model.max(1))
                    }
                    crate::hyper::NeuronPick::Nearest => {
                        tracker.pick_uncovered_nearest(pass).into_iter().collect()
                    }
                };
                for neuron in picked {
                    // One activation-shaped injection tensor per picked neuron.
                    let inj = injection_for_neuron(model, neuron, tracker.granularity());
                    let mut seed = Tensor::zeros(pass.activations[inj.activation].shape());
                    seed.data_mut()[inj.range].fill(inj.value);
                    // Steer toward the metric's actual gap: the neuron
                    // metric always raises activations, multisection may
                    // need to lower one to reach an unhit low section.
                    let direction = tracker.target_direction(neuron, pass);
                    injections.push((inj.activation, seed.scale(self.hp.lambda2 * direction)));
                }
            }
            let g = model.input_gradient_ws(pass, &injections, &mut self.ws);
            total += &g;
            self.ws.put_tensor(g);
            for (_, t) in injections {
                self.ws.put_tensor(t);
            }
        }
        total
    }
}

enum SeedOutcome {
    Difference(GeneratedTest),
    Preexisting,
    Exhausted,
}

use dx_nn::layer::Layer;
use proptest::prelude::*;

use crate::hyper::NeuronPick;

/// Every family reads a `[1, 6, 6]` plane so that all three image
/// constraints apply to all of them.
#[derive(Clone, Copy, Debug)]
enum Family {
    Dense,
    Conv,
    Regressor,
}

const FAMILIES: [Family; 3] = [Family::Dense, Family::Conv, Family::Regressor];

/// Three similar-but-different models of one family.
fn trio(family: Family, seed: u64) -> (Vec<Network>, TaskKind) {
    let layers = match family {
        Family::Dense => vec![
            Layer::flatten(),
            Layer::dense(36, 12),
            Layer::relu(),
            Layer::dense(12, 3),
            Layer::softmax(),
        ],
        Family::Conv => vec![
            Layer::conv2d(1, 3, 3, 1, 1),
            Layer::relu(),
            Layer::maxpool2d(2),
            Layer::flatten(),
            Layer::dense(27, 3),
            Layer::softmax(),
        ],
        Family::Regressor => vec![
            Layer::flatten(),
            Layer::dense(36, 10),
            Layer::tanh(),
            Layer::dense(10, 1),
            Layer::tanh(),
        ],
    };
    let mut base = Network::new(&[1, 6, 6], layers);
    base.init_weights(&mut rng::rng(seed));
    let kind = match family {
        Family::Regressor => TaskKind::Regression { direction_threshold: 0.1 },
        Family::Dense | Family::Conv => TaskKind::Classification,
    };
    (vec![base.clone(), base.perturbed(0.1, seed + 1), base.perturbed(0.1, seed + 2)], kind)
}

fn constraints() -> [Constraint; 3] {
    [Constraint::Clip, Constraint::Lighting, Constraint::SingleRect { h: 3, w: 3 }]
}

/// One hyperparameter set per branch of the loop: the default, a
/// multi-neuron obj2, the rng-free pick, pre-existing disagreements kept
/// as tests, the early stop, and no obj2 at all.
fn variants() -> [Hyperparams; 6] {
    let base = Hyperparams { step: 0.2, lambda1: 2.0, max_iters: 40, ..Default::default() };
    [
        base,
        Hyperparams { neurons_per_model: 3, ..base },
        Hyperparams { neuron_pick: NeuronPick::Nearest, ..base },
        Hyperparams { count_preexisting: true, ..base },
        Hyperparams { desired_coverage: Some(0.3), ..base },
        Hyperparams { lambda2: 0.0, ..base },
    ]
}

/// Eight random planes plus up to two inputs the trio already disagrees
/// on (differences a scout run grew from those planes), so the
/// pre-existing-disagreement branch is taken whenever anything is found.
fn seeds_for(models: &[Network], kind: TaskKind, data_seed: u64) -> Tensor {
    let random = rng::uniform(&mut rng::rng(data_seed), &[8, 1, 6, 6], 0.2, 0.8);
    let [hp, ..] = variants();
    let coverage = CoverageConfig::default();
    let scout = Generator::new(models.to_vec(), kind, hp, Constraint::Clip, coverage, data_seed)
        .run(&random);
    let mut data = random.data().to_vec();
    let extra = scout.tests.iter().take(2);
    let n = 8 + extra.len();
    extra.for_each(|t| data.extend_from_slice(t.input.data()));
    Tensor::from_vec(data, &[n, 1, 6, 6])
}

fn test_bits(t: &GeneratedTest) -> (usize, Vec<u32>, usize, Vec<(bool, u64)>, usize) {
    let predictions = t
        .predictions
        .iter()
        .map(|p| match *p {
            Prediction::Class(c) => (false, c as u64),
            Prediction::Value(v) => (true, u64::from(v.to_bits())),
        })
        .collect();
    let input = t.input.data().iter().map(|v| v.to_bits()).collect();
    (t.seed_index, input, t.iterations, predictions, t.target_model)
}

/// Everything a run must reproduce, floats by bit pattern: the tests, the
/// seed counts, per-model coverage and the generator's RNG state.
/// (`total_iterations` is left out: the reference also counts the iterate
/// on which the constraint admitted no movement.)
fn digest(gen: &Generator, result: &GenResult) -> impl PartialEq + std::fmt::Debug {
    let stats = &result.stats;
    (
        result.tests.iter().map(test_bits).collect::<Vec<_>>(),
        (stats.seeds_tried, stats.differences_found, stats.seeds_skipped_preexisting),
        gen.coverage().iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
        gen.signals().iter().map(|s| s.covered_count()).collect::<Vec<_>>(),
        gen.rng_state(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn run_equals_the_reference_loop_bit_for_bit(
        net_seed in 0u64..1000,
        gen_seed in 0u64..1000,
        data_seed in 0u64..1000,
    ) {
        let (mut found, mut skipped, mut steps) = (0, 0, 0);
        for family in FAMILIES {
            let (models, kind) = trio(family, net_seed);
            let seeds = seeds_for(&models, kind, data_seed);
            for constraint in constraints() {
                for hp in variants() {
                    let mk = || {
                        let coverage = CoverageConfig::default();
                        Generator::new(models.clone(), kind, hp, constraint.clone(), coverage, gen_seed)
                    };
                    let (mut new, mut old) = (mk(), mk());
                    let got = new.run(&seeds);
                    let want = old.reference_run(&seeds);
                    prop_assert_eq!(
                        digest(&new, &got),
                        digest(&old, &want),
                        "{:?} {:?} {:?}",
                        family,
                        constraint,
                        hp
                    );
                    prop_assert!(got.stats.total_iterations <= want.stats.total_iterations);
                    found += got.stats.differences_found;
                    skipped += got.stats.seeds_skipped_preexisting;
                    steps += got.stats.total_iterations;
                }
            }
        }
        // The grid is not vacuous: seeds grew, some into differences, and
        // some were disagreed on from the start.
        prop_assert!(found > 0 && skipped > 0 && steps > found, "{found} {skipped} {steps}");
    }

    #[test]
    fn generate_from_seed_is_run_on_that_one_seed(
        net_seed in 0u64..1000,
        gen_seed in 0u64..1000,
        data_seed in 0u64..1000,
    ) {
        let seeds = rng::uniform(&mut rng::rng(data_seed), &[6, 1, 6, 6], 0.2, 0.8);
        for family in FAMILIES {
            let (models, kind) = trio(family, net_seed);
            for hp in variants() {
                let mk = || {
                    let coverage = CoverageConfig::default();
                    Generator::new(models.clone(), kind, hp, Constraint::Clip, coverage, gen_seed)
                };
                let (mut whole, mut single) = (mk(), mk());
                for i in 0..6 {
                    let x = gather_rows(&seeds, &[i]);
                    let from_run = whole.run(&x).tests.pop();
                    let from_seed = single.generate_from_seed(0, &x);
                    prop_assert_eq!(
                        from_run.as_ref().map(test_bits),
                        from_seed.as_ref().map(test_bits)
                    );
                    prop_assert_eq!(whole.rng_state(), single.rng_state());
                    prop_assert_eq!(whole.coverage(), single.coverage());
                }
            }
        }
    }
}
