//! Table 5: neuron coverage increases the diversity (average L1 distance)
//! of the generated difference-inducing inputs — the λ2 ablation.
//!
//! Three experiments on MNIST seeds, λ2 = 0 (no coverage objective) vs
//! λ2 = 1, reporting average L1 distance from seed, neuron coverage at
//! t = 0.25, and the number of differences found.

use deepxplore::generator::Generator;
use deepxplore::Hyperparams;
use dx_coverage::CoverageConfig;
use dx_models::DatasetKind;
use dx_nn::util::gather_rows;
use dx_paper_benches::{bench_zoo, seed_count, setup_for, BenchOut};
use dx_tensor::{metrics, rng};

struct Arm {
    diversity: f32,
    nc: f32,
    diffs: usize,
}

fn run_arm(zoo: &mut dx_models::Zoo, lambda2: f32, exp: u64, n_seeds: usize) -> Arm {
    let models = zoo.trio(DatasetKind::Mnist);
    let ds = zoo.dataset(DatasetKind::Mnist).clone();
    let setup = setup_for(DatasetKind::Mnist, &ds);
    let hp = Hyperparams { lambda2, ..setup.hp };
    let mut gen =
        Generator::new(models, setup.task, hp, setup.constraint, CoverageConfig::scaled(0.25), exp);
    let mut r = rng::rng(500 + exp);
    let picks = rng::sample_without_replacement(&mut r, ds.test_len(), n_seeds.min(ds.test_len()));
    let seeds = gather_rows(&ds.test_x, &picks);
    let result = gen.run(&seeds);
    let mut total_l1 = 0.0;
    for t in &result.tests {
        let seed = gather_rows(&seeds, &[t.seed_index]);
        // The paper reports L1 in 8-bit pixel units; ours are [0, 1], so
        // scale by 255 for comparability.
        total_l1 += metrics::l1_distance(&t.input, &seed) * 255.0;
    }
    Arm {
        diversity: if result.tests.is_empty() { 0.0 } else { total_l1 / result.tests.len() as f32 },
        nc: gen.mean_coverage(),
        diffs: result.stats.differences_found,
    }
}

fn main() {
    let mut out = BenchOut::new("table5_diversity");
    let mut zoo = bench_zoo();
    let n_seeds = seed_count(150);
    out.line(format!(
        "Table 5: diversity of difference-inducing inputs, λ2 = 0 vs λ2 = 1 \
         ({n_seeds} MNIST seeds per run; paper used 2,000)"
    ));
    out.line(format!(
        "{:<5} | {:>12} {:>7} {:>7} | {:>12} {:>7} {:>7}",
        "exp", "div(λ2=0)", "NC", "#diffs", "div(λ2=1)", "NC", "#diffs"
    ));
    for exp in 1..=3u64 {
        let without = run_arm(&mut zoo, 0.0, exp, n_seeds);
        let with = run_arm(&mut zoo, 1.0, exp, n_seeds);
        out.line(format!(
            "{exp:<5} | {:>12.1} {:>6.1}% {:>7} | {:>12.1} {:>6.1}% {:>7}",
            without.diversity,
            100.0 * without.nc,
            without.diffs,
            with.diversity,
            100.0 * with.nc,
            with.diffs,
        ));
    }
    out.line("");
    out.line("paper: λ2=1 raises diversity (237.9->283.3, 194.6->253.2, 170.8->182.7)");
    out.line("and NC by 1-2 points while finding slightly fewer differences");
}
