//! Table 11: time to the first difference-inducing input as λ2 varies
//! (λ2 weights the neuron-coverage objective against differential
//! behaviour, Eq. 3).

use deepxplore::Hyperparams;
use dx_models::DatasetKind;
use dx_paper_benches::{bench_zoo, setup_for, time_to_first_difference, BenchOut};

fn main() {
    let mut out = BenchOut::new("table11_lambda2");
    let mut zoo = bench_zoo();
    let grid = [0.5f32, 1.0, 2.0, 3.0];
    let runs = 6;
    out.line("Table 11: time (s) to first difference vs λ2 (mean over 6 runs)");
    out.line(format!(
        "{:<10} {:>9} {:>9} {:>9} {:>9}",
        "dataset", "λ2=0.5", "λ2=1", "λ2=2", "λ2=3"
    ));
    for kind in DatasetKind::ALL {
        let ds = zoo.dataset(kind).clone();
        let base = setup_for(kind, &ds).hp;
        let mut cells = Vec::new();
        for &l2 in &grid {
            let hp = Hyperparams { lambda2: l2, max_iters: 40, ..base };
            let cell = match time_to_first_difference(&mut zoo, kind, hp, None, runs) {
                Some((secs, _)) => format!("{secs:>8.3}s"),
                None => format!("{:>9}", "-"),
            };
            cells.push(cell);
        }
        out.line(format!("{:<10} {}", kind.id(), cells.join(" ")));
    }
    out.line("");
    out.line("paper: λ2 = 0.5 is optimal for every dataset; time grows with λ2");
    out.line("(the coverage objective pulls the search away from the boundary)");
}
