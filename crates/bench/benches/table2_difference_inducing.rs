//! Table 2: number of difference-inducing inputs found per tested DNN,
//! with the paper's hyperparameters.
//!
//! The paper randomly selects 2,000 seeds per dataset; the default here is
//! 200 (`DX_SEEDS` to override). The reproduction target is the *shape*:
//! every dataset yields a substantial number of differences.

use deepxplore::generator::Generator;
use dx_coverage::CoverageConfig;
use dx_models::DatasetKind;
use dx_nn::util::gather_rows;
use dx_paper_benches::{bench_zoo, seed_count, setup_for, BenchOut};
use dx_tensor::rng;

fn main() {
    let mut out = BenchOut::new("table2_difference_inducing");
    let mut zoo = bench_zoo();
    let n_seeds = seed_count(200);
    out.line(format!(
        "Table 2: difference-inducing inputs per dataset ({n_seeds} seeds; paper used 2,000)"
    ));
    out.line(format!(
        "{:<10} {:>5} {:>5} {:>7} {:>4} {:>12} {:>12} {:>9}",
        "dataset", "λ1", "λ2", "s", "t", "#seeds used", "#differences", "time"
    ));
    for kind in DatasetKind::ALL {
        let models = zoo.trio(kind);
        let ds = zoo.dataset(kind).clone();
        let setup = setup_for(kind, &ds);
        let mut gen = Generator::new(
            models,
            setup.task,
            setup.hp,
            setup.constraint,
            CoverageConfig::default(),
            0xBEEF,
        );
        let n = n_seeds.min(ds.test_len());
        let mut r = rng::rng(2000);
        let picks = rng::sample_without_replacement(&mut r, ds.test_len(), n);
        let seeds = gather_rows(&ds.test_x, &picks);
        let result = gen.run(&seeds);
        out.line(format!(
            "{:<10} {:>5.1} {:>5.2} {:>7.3} {:>4.1} {:>12} {:>12} {:>8.1?}",
            kind.id(),
            setup.hp.lambda1,
            setup.hp.lambda2,
            setup.hp.step,
            0.0,
            result.stats.seeds_tried,
            result.stats.differences_found,
            result.stats.elapsed,
        ));
    }
    out.line("");
    out.line("paper (2,000 seeds): MNIST 827..1,968; ImageNet 1,969..1,996;");
    out.line("Driving 1,720..1,930; PDF 789..1,253; Drebin 2,000 per model");
}
