//! Table 8: total time for DeepXplore to reach 100% neuron coverage, and
//! the number of seeds it needed.
//!
//! As in the paper, image models track coverage only on non-dense layers
//! (dense-layer neurons are very hard to activate); the malware MLPs track
//! everything. Coverage uses t = 0 on raw activations. If 100% is not
//! reached within the seed budget, the achieved coverage is reported.

use deepxplore::generator::Generator;
use deepxplore::Hyperparams;
use dx_bench::{bench_zoo, seed_count, setup_for, BenchOut};
use dx_coverage::{CoverageConfig, CoverageSignal};
use dx_models::DatasetKind;
use dx_nn::util::gather_rows;
use dx_tensor::rng;

/// Activation indices of spatial (non-dense) coverage layers; falls back
/// to all coverage layers for pure MLPs.
fn non_dense_activations(net: &dx_nn::Network) -> Vec<usize> {
    let spatial: Vec<usize> = net
        .coverage_activation_indices()
        .into_iter()
        .filter(|&a| net.activation_shapes()[a].len() == 3)
        .collect();
    if spatial.is_empty() {
        net.coverage_activation_indices()
    } else {
        spatial
    }
}

fn main() {
    let mut out = BenchOut::new("table8_full_coverage_time");
    let mut zoo = bench_zoo();
    let budget = seed_count(120);
    out.line("Table 8: time to reach 100% neuron coverage (t = 0, non-dense layers)");
    out.line(format!(
        "{:<10} {:>9} {:>9} {:>9} {:>8} {:>10}",
        "dataset", "C1", "C2", "C3", "#seeds", "coverage"
    ));
    for kind in DatasetKind::ALL {
        let models = zoo.trio(kind);
        let ds = zoo.dataset(kind).clone();
        let setup = setup_for(kind, &ds);
        let signals = models
            .iter()
            .map(|m| {
                CoverageSignal::neuron_over(m, &non_dense_activations(m), CoverageConfig::default())
            })
            .collect();
        let mut gen = Generator::with_signals(
            models,
            setup.task,
            Hyperparams { desired_coverage: Some(1.0), count_preexisting: true, ..setup.hp },
            setup.constraint,
            signals,
            808,
        );
        let mut r = rng::rng(809);
        let n = budget.min(ds.test_len());
        let picks = rng::sample_without_replacement(&mut r, ds.test_len(), n);
        let seeds = gather_rows(&ds.test_x, &picks);
        let t0 = std::time::Instant::now();
        let result = gen.run(&seeds);
        let elapsed = t0.elapsed();
        let cov = gen.coverage();
        out.line(format!(
            "{:<10} {:>8.1?} {:>8.1?} {:>8.1?} {:>8} {:>9.1}%",
            kind.id(),
            elapsed,
            elapsed,
            elapsed,
            result.stats.seeds_tried,
            100.0 * (cov.iter().sum::<f32>() / cov.len() as f32),
        ));
    }
    out.line("");
    out.line("paper: 6.6s..196.4s per model with 6..35 seeds (GPU); shape to match:");
    out.line("coverage saturates with a small number of seeds, malware MLPs fastest");
}
