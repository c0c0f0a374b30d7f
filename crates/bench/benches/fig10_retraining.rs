//! Figure 10: accuracy improvement from augmenting the training set with
//! 100 inputs generated by DeepXplore (majority-vote labels), adversarial
//! testing (source labels) or random selection, then retraining for five
//! epochs — for LeNet-1, LeNet-4 and LeNet-5.

use deepxplore::baselines::fgsm_classifier;
use deepxplore::generator::Generator;
use deepxplore::Hyperparams;
use dx_apps::augment::{majority_vote, retrain_with_eval};
use dx_coverage::CoverageConfig;
use dx_datasets::mnist;
use dx_models::DatasetKind;
use dx_nn::util::{gather_rows, row};
use dx_paper_benches::{bench_zoo, seed_count, setup_for, BenchOut};
use dx_tensor::{rng, Tensor};

fn main() {
    let mut out = BenchOut::new("fig10_retraining");
    let mut zoo = bench_zoo();
    let n_extra = seed_count(100);
    let models = zoo.trio(DatasetKind::Mnist);
    let ds = zoo.dataset(DatasetKind::Mnist).clone();
    let setup = setup_for(DatasetKind::Mnist, &ds);
    let train_labels = ds.train_labels.classes().to_vec();
    let test_labels = ds.test_labels.classes().to_vec();

    // DeepXplore extras: generated tests labelled by majority vote.
    let mut gen = Generator::new(
        models.clone(),
        setup.task,
        Hyperparams { max_iters: 40, ..setup.hp },
        setup.constraint,
        CoverageConfig::scaled(0.25),
        1010,
    );
    let mut dx_extra: Vec<(Tensor, usize)> = Vec::new();
    let mut r = rng::rng(1011);
    let picks = rng::sample_without_replacement(&mut r, ds.test_len(), ds.test_len());
    for (i, &p) in picks.iter().enumerate() {
        if dx_extra.len() >= n_extra {
            break;
        }
        let seed = gather_rows(&ds.test_x, &[p]);
        if let Some(test) = gen.generate_from_seed(i, &seed) {
            if let Some(label) = majority_vote(&models, &test.input) {
                dx_extra.push((test.input.clone(), label));
            }
        }
    }

    // Adversarial extras: FGSM on test inputs, keeping the source labels
    // (the paper notes this needs ground truth — majority voting does not).
    let mut adv_extra: Vec<(Tensor, usize)> = Vec::new();
    for (i, &p) in picks.iter().enumerate() {
        if adv_extra.len() >= dx_extra.len() {
            break;
        }
        let _ = i;
        let x = gather_rows(&ds.test_x, &[p]);
        let adv = fgsm_classifier(&models[0], &x, test_labels[p], 0.05);
        adv_extra.push((adv, test_labels[p]));
    }

    // Random extras: freshly drawn labelled samples.
    let fresh = mnist::generate(&mnist::MnistConfig {
        n_train: dx_extra.len().max(1),
        n_test: 1,
        seed: 777,
        side: 28,
    });
    let rand_extra: Vec<(Tensor, usize)> = (0..dx_extra.len())
        .map(|i| (row(&fresh.train_x, i), fresh.train_labels.classes()[i]))
        .collect();

    out.line(format!(
        "Figure 10: retraining accuracy (%) with {} extra samples per strategy",
        dx_extra.len()
    ));
    for id in ["MNI_C1", "MNI_C2", "MNI_C3"] {
        out.line("");
        out.line(format!("{id}:"));
        out.line(format!(
            "{:<12} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
            "strategy", "epoch0", "ep1", "ep2", "ep3", "ep4", "ep5"
        ));
        for (name, extra) in
            [("deepxplore", &dx_extra), ("adversarial", &adv_extra), ("random", &rand_extra)]
        {
            let mut net = zoo.model(id);
            let outcome = retrain_with_eval(
                &mut net,
                &ds.train_x,
                &train_labels,
                extra,
                &ds.test_x,
                &test_labels,
                5,
                2020,
            );
            let mut cells = vec![format!("{:>7.2}", 100.0 * outcome.initial_accuracy)];
            for acc in &outcome.epoch_accuracy {
                cells.push(format!("{:>7.2}", 100.0 * acc));
            }
            out.line(format!("{name:<12} {}", cells.join(" ")));
        }
    }
    out.line("");
    out.line("paper: all three curves rise over 5 epochs; DeepXplore augmentation");
    out.line("ends 1-3% above adversarial and random");
}
