//! Table 4: the top-3 most in(de)cremented features for PDF malware inputs
//! that a detector then (wrongly) marks as benign.

use deepxplore::generator::Generator;
use dx_coverage::CoverageConfig;
use dx_models::DatasetKind;
use dx_nn::util::gather_rows;
use dx_paper_benches::{bench_zoo, setup_for, BenchOut};

fn main() {
    let mut out = BenchOut::new("table4_pdf_features");
    let mut zoo = bench_zoo();
    let models = zoo.trio(DatasetKind::Pdf);
    let ds = zoo.dataset(DatasetKind::Pdf).clone();
    let setup = setup_for(DatasetKind::Pdf, &ds);
    let scale = ds.feature_scale.as_ref().expect("pdf scales").data().to_vec();
    let labels = ds.test_labels.classes();
    let malicious: Vec<usize> = (0..ds.test_len()).filter(|&i| labels[i] == 1).collect();

    let mut gen = Generator::new(
        models.clone(),
        setup.task,
        setup.hp,
        setup.constraint,
        CoverageConfig::default(),
        404,
    );
    out.line("Table 4: top-3 most in(de)cremented features for PDF malware inputs");
    out.line("that a PDF classifier then (wrongly) marks as benign");
    out.line("");
    let mut shown = 0;
    for (si, &seed_idx) in malicious.iter().enumerate() {
        let seed = gather_rows(&ds.test_x, &[seed_idx]);
        let Some(test) = gen.generate_from_seed(si, &seed) else { continue };
        if !models.iter().any(|m| m.predict_classes(&test.input)[0] == 0) {
            continue;
        }
        shown += 1;
        // Rank features by absolute raw change.
        let mut changes: Vec<(usize, i64, i64)> = (0..seed.len())
            .map(|i| {
                let before = (seed.data()[i] * scale[i]).round() as i64;
                let after = (test.input.data()[i] * scale[i]).round() as i64;
                (i, before, after)
            })
            .filter(|(_, b, a)| a != b)
            .collect();
        changes.sort_by_key(|(_, b, a)| -(a - b).abs());
        out.line(format!("input {shown} ({} features changed; top 3 shown)", changes.len()));
        out.line(format!("  {:<24} before  after", "feature"));
        for (i, before, after) in changes.iter().take(3) {
            out.line(format!("  {:<24} {before:>6} {after:>6}", ds.feature_names[*i]));
        }
        out.line("");
        if shown == 2 {
            break;
        }
    }
    if shown < 2 {
        out.line(format!("(only {shown} full evasions found — rerun with more seeds)"));
    }
    out.line("paper: e.g. size 1->34, count_action 0->21, count_endobj 1->20;");
    out.line("size 1->27, count_font 0->15, author_num 10->5");
}
