//! Table 3: manifest features DeepXplore adds to make Android malware
//! pass as benign.

use deepxplore::generator::Generator;
use dx_coverage::CoverageConfig;
use dx_models::DatasetKind;
use dx_nn::util::gather_rows;
use dx_paper_benches::{bench_zoo, setup_for, BenchOut};

fn main() {
    let mut out = BenchOut::new("table3_drebin_features");
    let mut zoo = bench_zoo();
    let models = zoo.trio(DatasetKind::Drebin);
    let ds = zoo.dataset(DatasetKind::Drebin).clone();
    let setup = setup_for(DatasetKind::Drebin, &ds);
    let labels = ds.test_labels.classes();
    let malicious: Vec<usize> = (0..ds.test_len()).filter(|&i| labels[i] == 1).collect();

    let mut gen = Generator::new(
        models.clone(),
        setup.task,
        setup.hp,
        setup.constraint,
        CoverageConfig::default(),
        303,
    );
    out.line("Table 3: manifest features added to malware inputs that an Android app");
    out.line("classifier then (wrongly) marks as benign");
    out.line("");
    let mut shown = 0;
    for (si, &seed_idx) in malicious.iter().enumerate() {
        let seed = gather_rows(&ds.test_x, &[seed_idx]);
        let Some(test) = gen.generate_from_seed(si, &seed) else { continue };
        // Require an actual benign verdict from at least one model.
        if !models.iter().any(|m| m.predict_classes(&test.input)[0] == 0) {
            continue;
        }
        shown += 1;
        let added: Vec<&str> = (0..seed.len())
            .filter(|&i| seed.data()[i] < 0.5 && test.input.data()[i] > 0.5)
            .map(|i| ds.feature_names[i].as_str())
            .collect();
        out.line(format!("input {shown} ({} features added; top 3 shown)", added.len()));
        out.line(format!("  {:<40} before  after", "feature"));
        for name in added.iter().take(3) {
            out.line(format!("  {name:<40} {:>6} {:>6}", 0, 1));
        }
        out.line("");
        if shown == 2 {
            break;
        }
    }
    if shown < 2 {
        out.line(format!("(only {shown} full evasions found — rerun with more seeds)"));
    }
    out.line("paper: adds e.g. feature::bluetooth, activity::.SmartAlertTerms,");
    out.line("service_receiver::.rrltpsi / provider::xclockprovider,");
    out.line("permission::CALL_PHONE, provider::contentprovider (all 0 -> 1)");
}
