//! Table 10: time to the first difference-inducing input as λ1 varies
//! (λ1 weights how hard the chosen model's confidence is pushed down
//! relative to keeping the others up, Eq. 2).

use deepxplore::Hyperparams;
use dx_models::DatasetKind;
use dx_paper_benches::{bench_zoo, setup_for, time_to_first_difference, BenchOut};

fn main() {
    let mut out = BenchOut::new("table10_lambda1");
    let mut zoo = bench_zoo();
    let grid = [0.5f32, 1.0, 2.0, 3.0];
    let runs = 6;
    out.line("Table 10: time (s) to first difference vs λ1 (mean over 6 runs)");
    out.line(format!(
        "{:<10} {:>9} {:>9} {:>9} {:>9}",
        "dataset", "λ1=0.5", "λ1=1", "λ1=2", "λ1=3"
    ));
    for kind in DatasetKind::ALL {
        let ds = zoo.dataset(kind).clone();
        let base = setup_for(kind, &ds).hp;
        let mut cells = Vec::new();
        for &l1 in &grid {
            let hp = Hyperparams { lambda1: l1, max_iters: 40, ..base };
            let cell = match time_to_first_difference(&mut zoo, kind, hp, None, runs) {
                Some((secs, _)) => format!("{secs:>8.3}s"),
                None => format!("{:>9}", "-"),
            };
            cells.push(cell);
        }
        out.line(format!("{:<10} {}", kind.id(), cells.join(" ")));
    }
    out.line("");
    out.line("paper: 0.05s..7.5s; larger λ1 usually helps (fastest cells at λ1=2..3");
    out.line("for MNIST/VirusTotal, λ1=2 for ImageNet/Driving)");
}
