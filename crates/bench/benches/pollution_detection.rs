//! §7.3 pollution detection: 30% of the training "9"s are relabelled "1";
//! DeepXplore inputs that split the clean and polluted models are traced
//! back to training samples by SSIM. The paper identifies 95.6% of the
//! polluted samples.

use deepxplore::generator::{Generator, TaskKind};
use deepxplore::{Constraint, Hyperparams};
use dx_apps::pollution::{detection_quality, rank_suspects};
use dx_coverage::CoverageConfig;
use dx_datasets::pollute_labels;
use dx_models::variants::{lenet1_wider, train_variant};
use dx_models::DatasetKind;
use dx_nn::util::gather_rows;
use dx_paper_benches::{bench_zoo, BenchOut};
use dx_tensor::Tensor;

fn main() {
    let mut out = BenchOut::new("pollution_detection");
    let mut zoo = bench_zoo();
    let ds = zoo.dataset(DatasetKind::Mnist).clone();
    let clean_labels = ds.train_labels.classes().to_vec();
    let n = ds.train_len();
    let (polluted_labels, flipped) = pollute_labels(&clean_labels, 9, 1, 0.3, 333);
    out.line(format!(
        "pollution attack: {} of the {} nines relabelled as 1",
        flipped.len(),
        clean_labels.iter().filter(|&&l| l == 9).count()
    ));

    let epochs = 3;
    let clean = train_variant(lenet1_wider(0), &ds.train_x, &clean_labels, n, epochs, 9);
    let polluted = train_variant(lenet1_wider(0), &ds.train_x, &polluted_labels, n, epochs, 9);

    // Error-inducing inputs: clean model says 9, polluted says 1.
    let mut gen = Generator::new(
        vec![clean.clone(), polluted.clone()],
        TaskKind::Classification,
        Hyperparams { max_iters: 40, ..Hyperparams::image_defaults() },
        Constraint::Lighting,
        CoverageConfig::default(),
        33,
    );
    let nines: Vec<usize> =
        (0..ds.test_len()).filter(|&i| ds.test_labels.classes()[i] == 9).collect();
    let mut error_inputs: Vec<Tensor> = Vec::new();
    for (i, &p) in nines.iter().enumerate() {
        let x = gather_rows(&ds.test_x, &[p]);
        // Raw disagreements of the right polarity count directly.
        if clean.predict_classes(&x)[0] == 9 && polluted.predict_classes(&x)[0] == 1 {
            error_inputs.push(x.clone());
            continue;
        }
        if let Some(test) = gen.generate_from_seed(i, &x) {
            if clean.predict_classes(&test.input)[0] == 9
                && polluted.predict_classes(&test.input)[0] == 1
            {
                error_inputs.push(test.input.clone());
            }
        }
    }
    out.line(format!("{} error-inducing inputs with the 9-vs-1 polarity", error_inputs.len()));
    if error_inputs.is_empty() {
        out.line("pollution did not change model behaviour at this scale; nothing to trace");
        return;
    }

    // Trace back: candidates are all training samples the polluted model
    // was taught to call 1.
    let candidates: Vec<usize> = (0..n).filter(|&i| polluted_labels[i] == 1).collect();
    let ranked = rank_suspects(&error_inputs, &ds.train_x, &candidates);
    let suspects: Vec<usize> = ranked.iter().take(flipped.len()).map(|(i, _)| *i).collect();
    let (precision, recall) = detection_quality(&suspects, &flipped);
    out.line(format!(
        "top-{} SSIM suspects: precision {:.1}%, recall {:.1}%",
        suspects.len(),
        100.0 * precision,
        100.0 * recall
    ));
    out.line("");
    out.line("paper: 95.6% of polluted samples correctly identified");
}
