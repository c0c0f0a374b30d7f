//! Figure 9: neuron coverage achieved by the same number of inputs from
//! DeepXplore, adversarial testing (FGSM) and random selection, as the
//! activation threshold t varies.
//!
//! Methodology as in the paper: each method contributes the *same number*
//! of inputs (the paper used 1% of each test set); coverage is measured on
//! all three models of the trio and averaged.

use deepxplore::baselines::{fgsm_batch, random_selection};
use deepxplore::generator::Generator;
use deepxplore::Hyperparams;
use dx_bench::{bench_zoo, seed_count, setup_for, BenchOut};
use dx_coverage::{CoverageConfig, CoverageSignal};
use dx_models::DatasetKind;
use dx_nn::util::gather_rows;
use dx_nn::Network;
use dx_tensor::{rng, Tensor};

/// Mean coverage of `inputs` over the trio at threshold `t`.
fn coverage_of(models: &[Network], inputs: &Tensor, t: f32) -> f32 {
    let rows: Vec<usize> = (0..inputs.shape()[0]).collect();
    let mut total = 0.0;
    for m in models {
        let mut tracker = CoverageSignal::neuron(m, CoverageConfig::scaled(t));
        m.for_each_row(inputs, &rows, |row| {
            tracker.update(row);
        });
        total += tracker.coverage();
    }
    total / models.len() as f32
}

fn main() {
    let mut out = BenchOut::new("fig9_coverage_vs_threshold");
    let mut zoo = bench_zoo();
    let k = seed_count(30);
    let thresholds = [0.0f32, 0.25, 0.5, 0.75];
    out.line(format!("Figure 9: neuron coverage vs threshold t, {k} inputs per method"));
    for kind in DatasetKind::ALL {
        let models = zoo.trio(kind);
        let ds = zoo.dataset(kind).clone();
        let setup = setup_for(kind, &ds);

        // DeepXplore inputs: run the generator until k tests accumulate.
        let mut gen = Generator::new(
            models.clone(),
            setup.task,
            Hyperparams { max_iters: 40, ..setup.hp },
            setup.constraint,
            CoverageConfig::scaled(0.25),
            909,
        );
        let mut r = rng::rng(910);
        let picks =
            rng::sample_without_replacement(&mut r, ds.test_len(), ds.test_len().min(6 * k));
        let mut dx_inputs: Vec<Tensor> = Vec::new();
        for (i, &p) in picks.iter().enumerate() {
            if dx_inputs.len() >= k {
                break;
            }
            let seed = gather_rows(&ds.test_x, &[p]);
            if let Some(test) = gen.generate_from_seed(i, &seed) {
                dx_inputs.push(test.input.reshape(ds.sample_shape()));
            }
        }
        let have_k = dx_inputs.len().max(1);
        let dx_batch = dx_nn::util::stack(&dx_inputs.to_vec());

        // Baselines with the same number of inputs.
        let random = random_selection(&ds.test_x, have_k, 911);
        let adversarial = match setup.task {
            deepxplore::generator::TaskKind::Classification => {
                let pool = random_selection(&ds.test_x, have_k, 912);
                fgsm_batch(&models[0], &pool, 0.05)
            }
            deepxplore::generator::TaskKind::Regression { .. } => {
                let pool = random_selection(&ds.test_x, have_k, 912);
                let mut advs = Vec::new();
                for i in 0..have_k {
                    let x = gather_rows(&pool, &[i]);
                    advs.push(
                        deepxplore::baselines::fgsm_regressor(&models[0], &x, 0.05)
                            .reshape(ds.sample_shape()),
                    );
                }
                dx_nn::util::stack(&advs)
            }
        };

        out.line("");
        out.line(format!("{} ({} DeepXplore tests collected)", kind.id(), dx_inputs.len()));
        out.line(format!("{:>6} {:>12} {:>12} {:>12}", "t", "deepxplore", "adversarial", "random"));
        for &t in &thresholds {
            out.line(format!(
                "{t:>6.2} {:>11.1}% {:>11.1}% {:>11.1}%",
                100.0 * coverage_of(&models, &dx_batch, t),
                100.0 * coverage_of(&models, &adversarial, t),
                100.0 * coverage_of(&models, &random, t),
            ));
        }
    }
    out.line("");
    out.line("paper: DeepXplore covers 34.4%/33.2% more neurons than random/adversarial");
    out.line("on average; all three methods degrade as t rises");
}
