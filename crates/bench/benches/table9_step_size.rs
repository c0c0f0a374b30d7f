//! Table 9: time to the first difference-inducing input as the gradient
//! step size `s` varies.
//!
//! Paper grid: s ∈ {0.01, 0.1, 1, 10, 100} on 8-bit pixels. Our inputs are
//! normalized to `[0, 1]`, so the image grid is divided by 255 (the paper's
//! s = 10 is our 0.039); the tabular datasets use the grid verbatim.

use deepxplore::Hyperparams;
use dx_models::DatasetKind;
use dx_paper_benches::{bench_zoo, time_to_first_difference, BenchOut};

fn main() {
    let mut out = BenchOut::new("table9_step_size");
    let mut zoo = bench_zoo();
    let paper_grid = [0.01f32, 0.1, 1.0, 10.0, 100.0];
    let runs = 6;
    out.line("Table 9: time (s) to first difference vs step size s (mean over 6 runs)");
    out.line(format!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "dataset", "s=0.01", "s=0.1", "s=1", "s=10", "s=100"
    ));
    for kind in [
        DatasetKind::Mnist,
        DatasetKind::Imagenet,
        DatasetKind::Driving,
        DatasetKind::Pdf,
        DatasetKind::Drebin,
    ] {
        let mut cells = Vec::new();
        for &s_paper in &paper_grid {
            // Image pixels were 8-bit in the paper; normalize the step.
            let step = match kind {
                DatasetKind::Mnist | DatasetKind::Imagenet | DatasetKind::Driving => {
                    s_paper / 255.0
                }
                _ => s_paper,
            };
            let hp = Hyperparams { step, max_iters: 40, ..Hyperparams::image_defaults() };
            let cell = match time_to_first_difference(&mut zoo, kind, hp, None, runs) {
                Some((secs, _)) => format!("{secs:>8.3}s"),
                None => format!("{:>9}", "-"),
            };
            cells.push(cell);
        }
        out.line(format!("{:<10} {}", kind.id(), cells.join(" ")));
    }
    out.line("");
    out.line("'-' = no difference within the iteration budget (the paper's timeout).");
    out.line("paper: optimum varies per dataset (MNIST fastest at small s, ImageNet");
    out.line("at s=10); too-small steps slow everything down");
}
