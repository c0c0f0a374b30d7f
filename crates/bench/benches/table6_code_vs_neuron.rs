//! Table 6: operator ("code") coverage vs neuron coverage for 10 random
//! test inputs per dataset.
//!
//! The paper's point: 10 inputs exercise 100% of the host code of every
//! model while neuron coverage (t = 0.75, per-layer scaled) never exceeds
//! 34%.

use dx_coverage::opcov::OpCoverage;
use dx_coverage::{CoverageConfig, CoverageSignal};
use dx_models::DatasetKind;
use dx_paper_benches::{bench_zoo, trio_ids, BenchOut};
use dx_tensor::rng;

fn main() {
    let mut out = BenchOut::new("table6_code_vs_neuron");
    let mut zoo = bench_zoo();
    out.line("Table 6: code coverage vs neuron coverage, 10 random inputs, t = 0.75");
    out.line(format!(
        "{:<10} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}",
        "dataset", "codeC1", "codeC2", "codeC3", "neurC1", "neurC2", "neurC3"
    ));
    for kind in DatasetKind::ALL {
        let ds = zoo.dataset(kind).clone();
        let mut r = rng::rng(606);
        let picks = rng::sample_without_replacement(&mut r, ds.test_len(), 10);
        let mut code = Vec::new();
        let mut neuron = Vec::new();
        for id in trio_ids(kind) {
            let net = zoo.model(id);
            let mut oc = OpCoverage::for_network(&net);
            let mut tracker = CoverageSignal::neuron(&net, CoverageConfig::scaled(0.75));
            net.for_each_row(&ds.test_x, &picks, |row| {
                oc.record_forward();
                tracker.update(row);
            });
            code.push(oc.coverage());
            neuron.push(tracker.coverage());
        }
        out.line(format!(
            "{:<10} | {:>7.0}% {:>7.0}% {:>7.0}% | {:>7.1}% {:>7.1}% {:>7.1}%",
            kind.id(),
            100.0 * code[0],
            100.0 * code[1],
            100.0 * code[2],
            100.0 * neuron[0],
            100.0 * neuron[1],
            100.0 * neuron[2],
        ));
    }
    out.line("");
    out.line("paper: code coverage 100% everywhere; neuron coverage 0.3%..34%");
}
