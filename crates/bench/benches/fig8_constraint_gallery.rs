//! Figure 8: the gallery of seed vs difference-inducing images under the
//! three image constraints (lighting, single-rectangle occlusion, multiple
//! tiny black rectangles).
//!
//! Images are written under `bench_results/fig8/` as PGM (grayscale) or
//! PPM (colour); the printed table records each pair's predictions.

use deepxplore::generator::Generator;
use deepxplore::{Constraint, Hyperparams};
use dx_coverage::CoverageConfig;
use dx_models::DatasetKind;
use dx_nn::util::gather_rows;
use dx_paper_benches::{bench_zoo, setup_for, BenchOut};
use dx_tensor::Image;

fn main() {
    let mut out = BenchOut::new("fig8_constraint_gallery");
    let dir = dx_paper_benches::results_dir().join("fig8");
    std::fs::create_dir_all(&dir).expect("creating fig8 output dir");
    let mut zoo = bench_zoo();
    out.line("Figure 8: difference-inducing inputs under the three image constraints");
    out.line(format!("images written to {}", dir.display()));
    out.line("");
    out.line(format!(
        "{:<10} {:<12} {:>6} {:>28} {:>8}",
        "dataset", "constraint", "seed#", "predictions", "iters"
    ));

    for kind in [DatasetKind::Mnist, DatasetKind::Imagenet, DatasetKind::Driving] {
        let models = zoo.trio(kind);
        let ds = zoo.dataset(kind).clone();
        let setup = setup_for(kind, &ds);
        let shape = ds.sample_shape().to_vec();
        let constraints: [(&str, Constraint); 3] = [
            ("lighting", Constraint::Lighting),
            ("single_rect", Constraint::SingleRect { h: shape[1] / 4, w: shape[2] / 4 }),
            ("multi_rects", Constraint::MultiRects { size: 3, count: 5 }),
        ];
        for (name, constraint) in constraints {
            let mut gen = Generator::new(
                models.clone(),
                setup.task,
                Hyperparams { max_iters: 40, step: 0.05, ..setup.hp },
                constraint,
                CoverageConfig::default(),
                88,
            );
            let mut found = 0;
            for seed_idx in 0..ds.test_len().min(60) {
                let seed = gather_rows(&ds.test_x, &[seed_idx]);
                let Some(test) = gen.generate_from_seed(seed_idx, &seed) else {
                    continue;
                };
                found += 1;
                let tag = format!("{}_{name}_{found}", kind.id());
                let ext = if shape[0] >= 3 { "ppm" } else { "pgm" };
                let seed_img = Image::from_tensor(seed.reshape(&shape));
                let gen_img = Image::from_tensor(test.input.reshape(&shape));
                seed_img.save(&dir.join(format!("{tag}_seed.{ext}"))).ok();
                gen_img.save(&dir.join(format!("{tag}_diff.{ext}"))).ok();
                out.line(format!(
                    "{:<10} {:<12} {:>6} {:>28} {:>8}",
                    kind.id(),
                    name,
                    seed_idx,
                    format!("{:?}", test.predictions),
                    test.iterations
                ));
                if found == 2 {
                    break;
                }
            }
            if found == 0 {
                out.line(format!("{:<10} {:<12} (no difference within 60 seeds)", kind.id(), name));
            }
        }
    }
    out.line("");
    out.line("paper: shows 18 seed/difference pairs; all three constraints produce");
    out.line("visually plausible corner cases (darker scenes, occluded patches, dirt)");
}
