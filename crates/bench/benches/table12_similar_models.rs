//! Table 12: how many gradient-ascent iterations DeepXplore needs to split
//! two models, as a function of how *similar* they are.
//!
//! A control LeNet-1 is compared against variants differing only in
//! (1) withheld training samples, (2) extra filters per conv layer, or
//! (3) extra training epochs. Identical models time out ('-'), and fewer
//! differences mean more iterations — the paper's headline trend.

use deepxplore::generator::mean_iterations_to_difference;
use deepxplore::{Constraint, Hyperparams};
use dx_models::variants::{lenet1_wider, train_variant};
use dx_models::DatasetKind;
use dx_nn::util::gather_rows;
use dx_paper_benches::{bench_zoo, seed_count, BenchOut};
use dx_tensor::rng;

fn main() {
    let mut out = BenchOut::new("table12_similar_models");
    let mut zoo = bench_zoo();
    let ds = zoo.dataset(DatasetKind::Mnist).clone();
    let labels = ds.train_labels.classes().to_vec();
    let n_train = ds.train_len();
    let base_samples = n_train - 1100; // Room to withhold up to 1,000.
    let base_epochs = 3;
    let n_seeds = seed_count(25);
    let hp = Hyperparams { max_iters: 300, ..Hyperparams::image_defaults() };

    let control =
        train_variant(lenet1_wider(0), &ds.train_x, &labels, base_samples, base_epochs, 42);
    let mut r = rng::rng(1212);
    let picks = rng::sample_without_replacement(&mut r, ds.test_len(), n_seeds.min(ds.test_len()));
    let seeds = gather_rows(&ds.test_x, &picks);

    let measure = |variant: &dx_nn::Network, tag: &str| -> String {
        match mean_iterations_to_difference(&control, variant, &seeds, hp, Constraint::Clip, 99) {
            Some(iters) => format!("{iters:>8.1}"),
            None => {
                let _ = tag;
                format!("{:>8}", "-")
            }
        }
    };

    out.line(format!(
        "Table 12: mean iterations to first difference vs model similarity \
         ({n_seeds} seeds, timeout {} iters; paper: 100 seeds, 1,000 iters)",
        hp.max_iters
    ));

    // Axis 1: withheld training samples.
    out.line("");
    out.line("training samples withheld:   0        1      100     1000");
    let mut cells = Vec::new();
    for &d in &[0usize, 1, 100, 1000] {
        let v =
            train_variant(lenet1_wider(0), &ds.train_x, &labels, base_samples - d, base_epochs, 42);
        cells.push(measure(&v, "samples"));
    }
    out.line(format!("mean iterations:          {}", cells.join(" ")));

    // Axis 2: extra filters per conv layer.
    out.line("");
    out.line("extra filters per layer:     0        1        2        3        4");
    let mut cells = Vec::new();
    for &d in &[0usize, 1, 2, 3, 4] {
        let v = train_variant(lenet1_wider(d), &ds.train_x, &labels, base_samples, base_epochs, 42);
        cells.push(measure(&v, "filters"));
    }
    out.line(format!("mean iterations:          {}", cells.join(" ")));

    // Axis 3: extra training epochs.
    out.line("");
    out.line("extra training epochs:       0        1        2        4");
    let mut cells = Vec::new();
    for &d in &[0usize, 1, 2, 4] {
        let v =
            train_variant(lenet1_wider(0), &ds.train_x, &labels, base_samples, base_epochs + d, 42);
        cells.push(measure(&v, "epochs"));
    }
    out.line(format!("mean iterations:          {}", cells.join(" ")));

    out.line("");
    out.line("paper: identical models time out ('-'); iterations fall as the");
    out.line("difference grows (e.g. 616->504->257 for withheld samples,");
    out.line("70->19 for 1->4 extra filters)");
}
