//! Table 7: inputs of the same class activate more overlapping neurons
//! than inputs of different classes (LeNet-5 on MNIST, 100 + 100 pairs).

use dx_bench::{bench_zoo, BenchOut};
use dx_coverage::overlap::pair_overlap_stats;
use dx_coverage::{CoverageConfig, CoverageSignal, Granularity};
use dx_models::DatasetKind;
use dx_nn::util::row;
use dx_tensor::{rng, Tensor};
use rand::Rng as _;

fn main() {
    let mut out = BenchOut::new("table7_overlap");
    let mut zoo = bench_zoo();
    let net = zoo.model("MNI_C3"); // LeNet-5, as in the paper.
    let ds = zoo.dataset(DatasetKind::Mnist).clone();
    let labels = ds.test_labels.classes().to_vec();

    // Index test samples by class.
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); 10];
    for (i, &l) in labels.iter().enumerate() {
        by_class[l].push(i);
    }
    let mut r = rng::rng(707);
    let mut same_pairs: Vec<(Tensor, Tensor)> = Vec::new();
    while same_pairs.len() < 100 {
        let c = r.gen_range(0..10usize);
        if by_class[c].len() < 2 {
            continue;
        }
        let a = by_class[c][r.gen_range(0..by_class[c].len())];
        let b = by_class[c][r.gen_range(0..by_class[c].len())];
        if a != b {
            same_pairs.push((row(&ds.test_x, a), row(&ds.test_x, b)));
        }
    }
    let mut diff_pairs: Vec<(Tensor, Tensor)> = Vec::new();
    while diff_pairs.len() < 100 {
        let c1 = r.gen_range(0..10usize);
        let c2 = r.gen_range(0..10usize);
        if c1 == c2 || by_class[c1].is_empty() || by_class[c2].is_empty() {
            continue;
        }
        let a = by_class[c1][r.gen_range(0..by_class[c1].len())];
        let b = by_class[c2][r.gen_range(0..by_class[c2].len())];
        diff_pairs.push((row(&ds.test_x, a), row(&ds.test_x, b)));
    }

    // Unit granularity to echo the paper's 268-neuron LeNet-5 count.
    let cfg =
        CoverageConfig { threshold: 0.25, scale_per_layer: true, granularity: Granularity::Unit };
    let total = CoverageSignal::neuron(&net, cfg).total();
    let (same_active, same_overlap) = pair_overlap_stats(&net, cfg, &same_pairs);
    let (diff_active, diff_overlap) = pair_overlap_stats(&net, cfg, &diff_pairs);

    out.line("Table 7: average overlap of activated neurons (LeNet-5, 100 pairs each)");
    out.line(format!(
        "{:<12} {:>13} {:>20} {:>13}",
        "pair type", "total neurons", "avg. activated", "avg. overlap"
    ));
    out.line(format!(
        "{:<12} {:>13} {:>20.1} {:>13.1}",
        "diff. class", total, diff_active, diff_overlap
    ));
    out.line(format!(
        "{:<12} {:>13} {:>20.1} {:>13.1}",
        "same class", total, same_active, same_overlap
    ));
    out.line("");
    out.line(format!(
        "same-class overlap exceeds different-class overlap: {}",
        same_overlap > diff_overlap
    ));
    out.line("paper: 268 neurons; activated 83.6 vs 84.1; overlap 45.9 (diff) vs 74.2 (same)");
}
