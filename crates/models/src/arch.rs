//! The fifteen model architectures of the paper's Table 1.

use dx_nn::init::Init;
use dx_nn::layer::{Conv2d, Layer};
use dx_nn::network::Network;

/// Which dataset a model belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DatasetKind {
    /// MNIST-like digits, `[1, 28, 28]`.
    Mnist,
    /// ImageNet-like colour images, `[3, 32, 32]`.
    Imagenet,
    /// Driving frames, `[1, 32, 64]` (regression).
    Driving,
    /// PDF features, `[135]`.
    Pdf,
    /// Drebin features, `[1200]`.
    Drebin,
}

impl DatasetKind {
    /// All five, in the paper's Table 1 order.
    pub const ALL: [DatasetKind; 5] = [
        DatasetKind::Mnist,
        DatasetKind::Imagenet,
        DatasetKind::Driving,
        DatasetKind::Pdf,
        DatasetKind::Drebin,
    ];

    /// Short id used in cache filenames and bench output.
    pub fn id(self) -> &'static str {
        match self {
            DatasetKind::Mnist => "mnist",
            DatasetKind::Imagenet => "imagenet",
            DatasetKind::Driving => "driving",
            DatasetKind::Pdf => "pdf",
            DatasetKind::Drebin => "drebin",
        }
    }

    /// Whether models on this dataset are regressors.
    pub fn is_regression(self) -> bool {
        matches!(self, DatasetKind::Driving)
    }

    /// Model input shape (without batch).
    pub fn input_shape(self) -> Vec<usize> {
        match self {
            DatasetKind::Mnist => vec![1, 28, 28],
            DatasetKind::Imagenet => vec![3, 32, 32],
            DatasetKind::Driving => vec![1, 32, 64],
            DatasetKind::Pdf => vec![135],
            DatasetKind::Drebin => vec![1200],
        }
    }
}

/// One entry of Table 1.
#[derive(Clone, Copy, Debug)]
pub struct ModelSpec {
    /// Paper id, e.g. `"MNI_C1"`.
    pub id: &'static str,
    /// Architecture name, e.g. `"LeNet-1"`.
    pub arch: &'static str,
    /// Dataset the model is trained on.
    pub dataset: DatasetKind,
    /// Index within the dataset's trio (0, 1, 2).
    pub index: usize,
}

/// The fifteen model specs, in Table 1 order.
pub const SPECS: [ModelSpec; 15] = [
    ModelSpec { id: "MNI_C1", arch: "LeNet-1", dataset: DatasetKind::Mnist, index: 0 },
    ModelSpec { id: "MNI_C2", arch: "LeNet-4", dataset: DatasetKind::Mnist, index: 1 },
    ModelSpec { id: "MNI_C3", arch: "LeNet-5", dataset: DatasetKind::Mnist, index: 2 },
    ModelSpec { id: "IMG_C1", arch: "VGG-Mini-16", dataset: DatasetKind::Imagenet, index: 0 },
    ModelSpec { id: "IMG_C2", arch: "VGG-Mini-19", dataset: DatasetKind::Imagenet, index: 1 },
    ModelSpec { id: "IMG_C3", arch: "ResNet-Mini", dataset: DatasetKind::Imagenet, index: 2 },
    ModelSpec { id: "DRV_C1", arch: "DAVE-Orig", dataset: DatasetKind::Driving, index: 0 },
    ModelSpec { id: "DRV_C2", arch: "DAVE-NormInit", dataset: DatasetKind::Driving, index: 1 },
    ModelSpec { id: "DRV_C3", arch: "DAVE-Dropout", dataset: DatasetKind::Driving, index: 2 },
    ModelSpec { id: "PDF_C1", arch: "<200, 200>", dataset: DatasetKind::Pdf, index: 0 },
    ModelSpec { id: "PDF_C2", arch: "<200, 200, 200>", dataset: DatasetKind::Pdf, index: 1 },
    ModelSpec { id: "PDF_C3", arch: "<200, 200, 200, 200>", dataset: DatasetKind::Pdf, index: 2 },
    ModelSpec { id: "APP_C1", arch: "<200, 200>", dataset: DatasetKind::Drebin, index: 0 },
    ModelSpec { id: "APP_C2", arch: "<50, 50>", dataset: DatasetKind::Drebin, index: 1 },
    ModelSpec { id: "APP_C3", arch: "<200, 10>", dataset: DatasetKind::Drebin, index: 2 },
];

/// Looks up a spec by its paper id.
pub fn spec(id: &str) -> ModelSpec {
    *SPECS.iter().find(|s| s.id == id).unwrap_or_else(|| panic!("unknown model id {id}"))
}

/// LeNet-1: two 5×5 conv/pool stages, then a classifier head.
pub fn lenet1() -> Network {
    Network::new(
        &[1, 28, 28],
        vec![
            Layer::conv2d(1, 4, 5, 1, 0),
            Layer::relu(),
            Layer::maxpool2d(2),
            Layer::conv2d(4, 12, 5, 1, 0),
            Layer::relu(),
            Layer::maxpool2d(2),
            Layer::flatten(),
            Layer::dense(12 * 4 * 4, 10),
            Layer::softmax(),
        ],
    )
}

/// LeNet-4: wider convs plus one 120-unit hidden dense layer.
pub fn lenet4() -> Network {
    Network::new(
        &[1, 28, 28],
        vec![
            Layer::conv2d(1, 6, 5, 1, 2),
            Layer::relu(),
            Layer::maxpool2d(2),
            Layer::conv2d(6, 16, 5, 1, 0),
            Layer::relu(),
            Layer::maxpool2d(2),
            Layer::flatten(),
            Layer::dense(16 * 5 * 5, 120),
            Layer::relu(),
            Layer::dense(120, 10),
            Layer::softmax(),
        ],
    )
}

/// LeNet-5: LeNet-4 plus the 84-unit dense layer.
pub fn lenet5() -> Network {
    Network::new(
        &[1, 28, 28],
        vec![
            Layer::conv2d(1, 6, 5, 1, 2),
            Layer::relu(),
            Layer::maxpool2d(2),
            Layer::conv2d(6, 16, 5, 1, 0),
            Layer::relu(),
            Layer::maxpool2d(2),
            Layer::flatten(),
            Layer::dense(16 * 5 * 5, 120),
            Layer::relu(),
            Layer::dense(120, 84),
            Layer::relu(),
            Layer::dense(84, 10),
            Layer::softmax(),
        ],
    )
}

/// One VGG block: `count` 3×3 same-padding convs then a 2×2 max pool.
fn vgg_block(layers: &mut Vec<Layer>, in_ch: usize, out_ch: usize, count: usize) {
    let mut c = in_ch;
    for _ in 0..count {
        layers.push(Layer::conv2d(c, out_ch, 3, 1, 1));
        layers.push(Layer::relu());
        c = out_ch;
    }
    layers.push(Layer::maxpool2d(2));
}

/// VGG-Mini-16: three 2-conv blocks (the VGG-16 shape at laptop width).
pub fn vgg_mini_16() -> Network {
    let mut layers = Vec::new();
    vgg_block(&mut layers, 3, 8, 2);
    vgg_block(&mut layers, 8, 16, 2);
    vgg_block(&mut layers, 16, 32, 2);
    layers.push(Layer::flatten());
    layers.push(Layer::dense(32 * 4 * 4, 64));
    layers.push(Layer::relu());
    layers.push(Layer::dense(64, 10));
    layers.push(Layer::softmax());
    Network::new(&[3, 32, 32], layers)
}

/// VGG-Mini-19: like VGG-Mini-16 with an extra conv in the deeper blocks
/// (the VGG-19 depth increase, scaled).
pub fn vgg_mini_19() -> Network {
    let mut layers = Vec::new();
    vgg_block(&mut layers, 3, 8, 2);
    vgg_block(&mut layers, 8, 16, 3);
    vgg_block(&mut layers, 16, 32, 3);
    layers.push(Layer::flatten());
    layers.push(Layer::dense(32 * 4 * 4, 64));
    layers.push(Layer::relu());
    layers.push(Layer::dense(64, 10));
    layers.push(Layer::softmax());
    Network::new(&[3, 32, 32], layers)
}

/// ResNet-Mini: an initial conv then three residual stages, the middle and
/// last with projection skips for stride-2 downsampling (the ResNet50
/// structure at laptop scale).
pub fn resnet_mini() -> Network {
    let stage = |in_ch: usize, out_ch: usize, stride: usize| -> Layer {
        let body = vec![
            Layer::conv2d(in_ch, out_ch, 3, stride, 1),
            Layer::relu(),
            Layer::conv2d(out_ch, out_ch, 3, 1, 1),
        ];
        if stride == 1 && in_ch == out_ch {
            Layer::residual(body)
        } else {
            Layer::residual_projected(
                body,
                Conv2d::new(in_ch, out_ch, 1, stride, 0, Init::HeNormal),
            )
        }
    };
    Network::new(
        &[3, 32, 32],
        vec![
            Layer::conv2d(3, 8, 3, 1, 1),
            Layer::relu(),
            stage(8, 8, 1),
            Layer::relu(),
            stage(8, 16, 2),
            Layer::relu(),
            stage(16, 32, 2),
            Layer::relu(),
            Layer::avgpool2d(8),
            Layer::flatten(),
            Layer::dense(32, 10),
            Layer::softmax(),
        ],
    )
}

/// DAVE-Orig: the Nvidia DAVE-2 shape — strided conv tower, batch norm up
/// front, four dense layers down to a tanh steering output.
pub fn dave_orig() -> Network {
    Network::new(
        &[1, 32, 64],
        vec![
            Layer::conv2d(1, 12, 5, 2, 0),
            Layer::batch_norm(12),
            Layer::relu(),
            Layer::conv2d(12, 24, 5, 2, 0),
            Layer::relu(),
            Layer::conv2d(24, 36, 3, 2, 0),
            Layer::relu(),
            Layer::flatten(),
            Layer::dense(36 * 2 * 6, 100),
            Layer::relu(),
            Layer::dense(100, 50),
            Layer::relu(),
            Layer::dense(50, 10),
            Layer::relu(),
            Layer::dense(10, 1),
            Layer::tanh(),
        ],
    )
}

/// DAVE-NormInit: DAVE-Orig without the batch-normalization layer, with
/// LeCun-normalized initialization instead (as in the paper's variant).
pub fn dave_norminit() -> Network {
    let init = Init::LecunNormal;
    Network::new(
        &[1, 32, 64],
        vec![
            Layer::conv2d_init(1, 12, 5, 2, 0, init),
            Layer::relu(),
            Layer::conv2d_init(12, 24, 5, 2, 0, init),
            Layer::relu(),
            Layer::conv2d_init(24, 36, 3, 2, 0, init),
            Layer::relu(),
            Layer::flatten(),
            Layer::dense_init(36 * 2 * 6, 100, init),
            Layer::relu(),
            Layer::dense_init(100, 50, init),
            Layer::relu(),
            Layer::dense_init(50, 10, init),
            Layer::relu(),
            Layer::dense_init(10, 1, init),
            Layer::tanh(),
        ],
    )
}

/// DAVE-Dropout: a cut-down conv tower with dropout between the final
/// dense layers.
pub fn dave_dropout() -> Network {
    Network::new(
        &[1, 32, 64],
        vec![
            Layer::conv2d(1, 16, 5, 2, 0),
            Layer::relu(),
            Layer::conv2d(16, 32, 5, 2, 0),
            Layer::relu(),
            Layer::flatten(),
            Layer::dense(32 * 5 * 13, 100),
            Layer::relu(),
            Layer::dropout(0.25),
            Layer::dense(100, 20),
            Layer::relu(),
            Layer::dropout(0.25),
            Layer::dense(20, 1),
            Layer::tanh(),
        ],
    )
}

/// An MLP classifier `<h1, h2, …>` over `inputs` features and 2 classes,
/// the shape of all six malware detectors.
pub fn malware_mlp(inputs: usize, hidden: &[usize]) -> Network {
    let mut layers = Vec::new();
    let mut prev = inputs;
    for &h in hidden {
        layers.push(Layer::dense(prev, h));
        layers.push(Layer::relu());
        prev = h;
    }
    layers.push(Layer::dense(prev, 2));
    layers.push(Layer::softmax());
    Network::new(&[inputs], layers)
}

/// Builds the (untrained) network for a spec.
pub fn build(spec: &ModelSpec) -> Network {
    match spec.id {
        "MNI_C1" => lenet1(),
        "MNI_C2" => lenet4(),
        "MNI_C3" => lenet5(),
        "IMG_C1" => vgg_mini_16(),
        "IMG_C2" => vgg_mini_19(),
        "IMG_C3" => resnet_mini(),
        "DRV_C1" => dave_orig(),
        "DRV_C2" => dave_norminit(),
        "DRV_C3" => dave_dropout(),
        "PDF_C1" => malware_mlp(135, &[200, 200]),
        "PDF_C2" => malware_mlp(135, &[200, 200, 200]),
        "PDF_C3" => malware_mlp(135, &[200, 200, 200, 200]),
        "APP_C1" => malware_mlp(1200, &[200, 200]),
        "APP_C2" => malware_mlp(1200, &[50, 50]),
        "APP_C3" => malware_mlp(1200, &[200, 10]),
        other => panic!("unknown model id {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_coverage::{CoverageConfig, CoverageSignal};

    #[test]
    fn all_fifteen_build_and_validate() {
        for spec in &SPECS {
            let net = build(spec);
            assert_eq!(
                net.input_shape(),
                spec.dataset.input_shape().as_slice(),
                "{} input shape",
                spec.id
            );
            assert!(net.param_count() > 0, "{} has no parameters", spec.id);
        }
    }

    #[test]
    fn output_arity_matches_task() {
        for spec in &SPECS {
            let net = build(spec);
            let out = net.activation_shapes().last().unwrap().clone();
            if spec.dataset.is_regression() {
                assert_eq!(out, vec![1], "{} should be a regressor", spec.id);
            } else {
                let classes = if spec.dataset == DatasetKind::Mnist
                    || spec.dataset == DatasetKind::Imagenet
                {
                    10
                } else {
                    2
                };
                assert_eq!(out, vec![classes], "{} class count", spec.id);
            }
        }
    }

    #[test]
    fn trio_architectures_differ() {
        for kind in DatasetKind::ALL {
            let trio: Vec<Network> =
                SPECS.iter().filter(|s| s.dataset == kind).map(build).collect();
            assert_eq!(trio.len(), 3, "{kind:?} trio");
            let counts: Vec<usize> = trio.iter().map(|n| n.param_count()).collect();
            assert!(
                counts[0] != counts[1] || counts[1] != counts[2],
                "{kind:?} trio has identical parameter counts {counts:?}"
            );
        }
    }

    #[test]
    fn neuron_counts_are_reported() {
        // Table 1 reports a neuron count per model; ours come from the
        // coverage tracker at channel granularity.
        for spec in &SPECS {
            let net = build(spec);
            let tracker = CoverageSignal::neuron(&net, CoverageConfig::default());
            assert!(tracker.total() >= 10, "{} tracks only {} neurons", spec.id, tracker.total());
        }
    }

    #[test]
    fn dave_orig_has_batchnorm_and_norminit_does_not() {
        let orig = dave_orig();
        let norminit = dave_norminit();
        let has_bn = |n: &Network| n.layers().iter().any(|l| l.name().starts_with("BatchNorm"));
        assert!(has_bn(&orig));
        assert!(!has_bn(&norminit));
    }

    #[test]
    fn dave_dropout_has_dropout() {
        let net = dave_dropout();
        assert!(net.layers().iter().any(|l| l.name().starts_with("Dropout")));
    }

    #[test]
    fn resnet_mini_contains_residuals() {
        let net = resnet_mini();
        let blocks = net.layers().iter().filter(|l| l.name().starts_with("Residual")).count();
        assert_eq!(blocks, 3);
    }

    #[test]
    fn spec_lookup() {
        assert_eq!(spec("DRV_C2").arch, "DAVE-NormInit");
    }

    #[test]
    #[should_panic(expected = "unknown model id")]
    fn bad_spec_panics() {
        spec("NOPE_C9");
    }
}
