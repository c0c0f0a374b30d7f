//! Neuron coverage vs. traditional code coverage, interactively explored
//! (the Table 6 / Figure 9 story at example scale).
//!
//! Run with:
//!
//! ```sh
//! cargo run --release -p dx-examples --bin coverage_explorer
//! ```

use deepxplore::baselines::random_selection;
use deepxplore::generator::{Generator, TaskKind};
use deepxplore::hyper::Hyperparams;
use deepxplore::Constraint;
use dx_coverage::opcov::OpCoverage;
use dx_coverage::{CoverageConfig, CoverageSignal, Granularity, NeuronProfile, SignalSpec};
use dx_models::{DatasetKind, Scale, Zoo};
use dx_nn::util::gather_rows;

fn main() {
    let mut zoo = Zoo::at_scale(Scale::Test);
    println!("== Coverage explorer: LeNet-5 on synthetic MNIST ==\n");
    let net = zoo.model("MNI_C3");
    let ds = zoo.dataset(DatasetKind::Mnist).clone();

    // 1. The paper's Table 6 phenomenon: one input = 100% operator coverage.
    let mut opcov = OpCoverage::for_network(&net);
    println!(
        "operator (\"line\") coverage before any input: {:.1}% of {} kernel units",
        100.0 * opcov.coverage(),
        opcov.total()
    );
    opcov.record_forward();
    println!("operator coverage after ONE input:           {:.1}%", 100.0 * opcov.coverage());

    // 2. Neuron coverage of the same single input, then of 10 random ones.
    let cfg = CoverageConfig::scaled(0.75);
    let mut tracker = CoverageSignal::neuron(&net, cfg);
    let one = gather_rows(&ds.test_x, &[0]);
    tracker.update(&net.forward(&one));
    println!(
        "\nneuron coverage (t = 0.75) after one input:  {:.1}% of {} neurons",
        100.0 * tracker.coverage(),
        tracker.total()
    );
    let ten = random_selection(&ds.test_x, 10, 42);
    net.for_each_row(&ten, &(0..10).collect::<Vec<_>>(), |row| {
        tracker.update(row);
    });
    println!("neuron coverage after 10 random inputs:      {:.1}%", 100.0 * tracker.coverage());

    // 3. Coverage at several thresholds: random seeds vs DeepXplore tests.
    println!("\nthreshold | random x20 | deepxplore x20 seeds");
    for &t in &[0.0, 0.25, 0.5, 0.75] {
        let cfg = CoverageConfig::scaled(t);
        let mut rand_tracker = CoverageSignal::neuron(&net, cfg);
        let pool = random_selection(&ds.test_x, 20, 7);
        net.for_each_row(&pool, &(0..20).collect::<Vec<_>>(), |row| {
            rand_tracker.update(row);
        });
        let models = zoo.trio(DatasetKind::Mnist);
        let mut gen = Generator::new(
            models,
            TaskKind::Classification,
            Hyperparams::image_defaults(),
            Constraint::Lighting,
            cfg,
            9,
        );
        let seeds = gather_rows(&ds.test_x, &(0..20).collect::<Vec<_>>());
        let _ = gen.run(&seeds);
        println!(
            "   {t:>4.2}   |   {:>5.1}%   |   {:>5.1}%",
            100.0 * rand_tracker.coverage(),
            100.0 * gen.coverage()[2], // LeNet-5 is the third model.
        );
    }
    // 4. The finer-grained follow-on metric: k-multisection coverage
    // (DeepGauge), built on this paper's neuron coverage.
    let mut profile = NeuronProfile::new(&net, Granularity::ChannelMean);
    let train_rows: Vec<usize> = (0..ds.train_len().min(150)).collect();
    net.for_each_row(&ds.train_x, &train_rows, |row| profile.observe(row));
    let mut ms = SignalSpec::multisection(CoverageConfig::default(), 10, vec![profile])
        .build(std::slice::from_ref(&net))
        .remove(0);
    let test_rows: Vec<usize> = (0..ds.test_len().min(50)).collect();
    net.for_each_row(&ds.test_x, &test_rows, |row| {
        ms.update(row);
    });
    println!(
        "\nk-multisection coverage (k = 10, 50 test inputs): {:.1}% of neuron-sections",
        100.0 * ms.coverage()
    );

    println!("\nNeuron coverage stays far from 100% while operator coverage saturates");
    println!("after a single input — the motivation for the neuron-coverage metric.");
}
