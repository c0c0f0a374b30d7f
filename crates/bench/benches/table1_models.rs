//! Table 1: the fifteen DNNs — architecture, neuron counts and accuracy.
//!
//! The paper reports pretrained/reference accuracies; we train from
//! scratch on the synthetic datasets, so the "Our Acc." column is the one
//! to compare *shapes* against (all models reach high accuracy; driving
//! reports 1-MSE).

use dx_coverage::{CoverageConfig, CoverageSignal, Granularity};
use dx_models::{DatasetKind, SPECS};
use dx_paper_benches::{bench_zoo, trio_ids, BenchOut};

fn main() {
    let mut out = BenchOut::new("table1_models");
    let mut zoo = bench_zoo();
    out.line("Table 1: Details of the DNNs and datasets used to evaluate DeepXplore");
    out.line(format!(
        "{:<8} {:<22} {:>9} {:>13} {:>9} {:>10}",
        "DNN", "Architecture", "#neurons", "#unit-neurons", "params", "accuracy"
    ));
    for kind in DatasetKind::ALL {
        for id in trio_ids(kind) {
            let spec = SPECS.iter().find(|s| s.id == id).expect("known id");
            let net = zoo.model(id);
            let channel = CoverageSignal::neuron(&net, CoverageConfig::default()).total();
            let unit = CoverageSignal::neuron(
                &net,
                CoverageConfig { granularity: Granularity::Unit, ..Default::default() },
            )
            .total();
            let acc = zoo.accuracy(id);
            out.line(format!(
                "{:<8} {:<22} {:>9} {:>13} {:>9} {:>9.2}%",
                id,
                spec.arch,
                channel,
                unit,
                net.param_count(),
                100.0 * acc
            ));
        }
    }
    out.line("");
    out.line("paper: 15 models, 52..94,059 neurons each, accuracies 92.6%..99.96%");
    out.line("(driving rows report 1-MSE, as in the paper's footnote)");
}
