//! Golden values pinned from the commit before the three tracker types
//! collapsed into one component type (captured by running that commit's
//! code once, then frozen as literals). Per net × metric spec: the
//! per-input newly-covered counts, the covered set and coverage bits after
//! 8 seeded inputs, the obj2 picks (random-k with the RNG draw that follows
//! them, and nearest) with their directions, and one sparse-delta exchange
//! between two half-fed signals. Any moved bit, pick or RNG draw fails.

use dx_coverage::{CoverageConfig, CoverageSignal, NeuronId, SignalSpec};
use dx_nn::layer::Layer;
use dx_nn::network::Network;
use dx_tensor::{rng, Tensor};
use rand::Rng as _;

fn dense_net() -> Network {
    let mut n = Network::new(
        &[6],
        vec![Layer::dense(6, 10), Layer::tanh(), Layer::dense(10, 3), Layer::softmax()],
    );
    n.init_weights(&mut rng::rng(100));
    n
}

fn conv_net() -> Network {
    let mut n = Network::new(
        &[1, 6, 6],
        vec![
            Layer::conv2d(1, 3, 3, 1, 0),
            Layer::relu(),
            Layer::maxpool2d(2),
            Layer::flatten(),
            Layer::dense(3 * 2 * 2, 4),
            Layer::softmax(),
        ],
    );
    n.init_weights(&mut rng::rng(101));
    n
}

fn batched(net: &Network, rows: usize) -> Vec<usize> {
    let mut shape = vec![rows];
    shape.extend_from_slice(net.input_shape());
    shape
}

fn build(net: &Network, spec: &str) -> CoverageSignal {
    let train = rng::uniform(&mut rng::rng(200), &batched(net, 20), 0.2, 0.8);
    SignalSpec::of(CoverageConfig::scaled(0.6), spec.parse().expect("spec"), Vec::new())
        .primed(std::slice::from_ref(net), &train, 16)
        .build(std::slice::from_ref(net))
        .remove(0)
}

fn inputs(net: &Network) -> Vec<Tensor> {
    let mut r = rng::rng(300);
    (0..8).map(|_| rng::uniform(&mut r, &batched(net, 1), -0.1, 1.1)).collect()
}

fn ids(v: &[NeuronId]) -> Vec<(usize, usize)> {
    v.iter().map(|id| (id.activation, id.index)).collect()
}

struct Golden {
    net: &'static str,
    spec: &'static str,
    total: usize,
    newly: &'static [usize],
    covered: &'static [usize],
    coverage_bits: u32,
    picks: &'static [(usize, usize)],
    next_draw: u32,
    pick_dirs: &'static [f32],
    nearest: Option<(usize, usize)>,
    nearest_dir: Option<f32>,
    delta: &'static [usize],
    applied: usize,
}

const GOLDEN: &[Golden] = &[
    Golden {
        net: "dense",
        spec: "neuron",
        total: 13,
        newly: &[6, 0, 1, 1, 3, 0, 0, 0],
        covered: &[0, 1, 2, 3, 4, 6, 8, 9, 10, 11, 12],
        coverage_bits: 0x3f589d8a,
        picks: &[(2, 7), (2, 5)],
        next_draw: 544178,
        pick_dirs: &[1.0, 1.0],
        nearest: Some((2, 5)),
        nearest_dir: Some(1.0),
        delta: &[4, 9, 12],
        applied: 3,
    },
    Golden {
        net: "dense",
        spec: "multisection:4",
        total: 52,
        newly: &[6, 8, 2, 5, 1, 3, 2, 3],
        covered: &[
            2, 4, 7, 9, 10, 11, 12, 14, 16, 18, 20, 21, 23, 25, 26, 27, 28, 29, 30, 31, 32, 33, 36,
            37, 41, 44, 45, 48, 49, 50,
        ],
        coverage_bits: 0x3f13b13b,
        picks: &[(2, 5), (2, 1), (4, 1)],
        next_draw: 103356,
        pick_dirs: &[-1.0, 1.0, 1.0],
        nearest: Some((2, 3)),
        nearest_dir: Some(-1.0),
        delta: &[11, 16, 20, 26, 31, 37, 44, 45, 49],
        applied: 9,
    },
    Golden {
        net: "dense",
        spec: "boundary",
        total: 26,
        newly: &[7, 1, 4, 5, 7, 0, 0, 0],
        covered: &[
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25,
        ],
        coverage_bits: 0x3f6c4ec5,
        picks: &[(2, 7), (2, 5)],
        next_draw: 544178,
        pick_dirs: &[1.0, 1.0],
        nearest: Some((2, 5)),
        nearest_dir: Some(1.0),
        delta: &[2, 4, 6, 9, 10, 12, 25],
        applied: 7,
    },
    Golden {
        net: "dense",
        spec: "neuron+multisection:4+boundary",
        total: 91,
        newly: &[19, 9, 7, 11, 11, 3, 2, 3],
        covered: &[
            0, 1, 2, 3, 4, 6, 8, 9, 10, 11, 12, 15, 17, 20, 22, 23, 24, 25, 27, 29, 31, 33, 34, 36,
            38, 39, 40, 41, 42, 43, 44, 45, 46, 49, 50, 54, 57, 58, 61, 62, 63, 65, 66, 67, 68, 69,
            70, 71, 72, 73, 74, 75, 77, 78, 79, 81, 82, 83, 84, 85, 86, 87, 88, 89, 90,
        ],
        coverage_bits: 0x3f36db6e,
        picks: &[(2, 7), (2, 2), (2, 5)],
        next_draw: 836072,
        pick_dirs: &[1.0, -1.0, 1.0],
        nearest: Some((2, 5)),
        nearest_dir: Some(1.0),
        delta: &[4, 9, 12, 24, 29, 33, 39, 44, 50, 57, 58, 62, 67, 69, 71, 74, 75, 77, 90],
        applied: 19,
    },
    Golden {
        net: "conv",
        spec: "neuron",
        total: 10,
        newly: &[2, 1, 0, 0, 0, 0, 0, 0],
        covered: &[1, 4, 6],
        coverage_bits: 0x3e99999a,
        picks: &[(2, 0), (3, 2), (6, 2)],
        next_draw: 103356,
        pick_dirs: &[1.0, 1.0, 1.0],
        nearest: Some((3, 0)),
        nearest_dir: Some(1.0),
        delta: &[],
        applied: 0,
    },
    Golden {
        net: "conv",
        spec: "multisection:4",
        total: 40,
        newly: &[4, 2, 2, 1, 1, 3, 0, 2],
        covered: &[0, 2, 7, 13, 15, 16, 24, 25, 27, 28, 31, 32, 35, 37, 39],
        coverage_bits: 0x3ef00000,
        picks: &[(6, 1), (6, 3), (6, 0)],
        next_draw: 103356,
        pick_dirs: &[1.0, -1.0, 1.0],
        nearest: Some((3, 1)),
        nearest_dir: Some(1.0),
        delta: &[2, 24, 27, 28, 32, 39],
        applied: 6,
    },
    Golden {
        net: "conv",
        spec: "boundary",
        total: 20,
        newly: &[4, 5, 0, 0, 0, 1, 0, 0],
        covered: &[1, 2, 3, 7, 9, 13, 14, 15, 16, 18],
        coverage_bits: 0x3f200000,
        picks: &[(6, 3), (3, 1), (6, 2)],
        next_draw: 103356,
        pick_dirs: &[1.0, -1.0, 1.0],
        nearest: Some((3, 1)),
        nearest_dir: Some(-1.0),
        delta: &[15],
        applied: 1,
    },
    Golden {
        net: "conv",
        spec: "neuron+multisection:4+boundary",
        total: 70,
        newly: &[10, 8, 2, 1, 1, 4, 0, 2],
        covered: &[
            1, 4, 6, 10, 12, 17, 23, 25, 26, 34, 35, 37, 38, 41, 42, 45, 47, 49, 51, 52, 53, 57,
            59, 63, 64, 65, 66, 68,
        ],
        coverage_bits: 0x3ef72c23,
        picks: &[(2, 0), (6, 0), (3, 2)],
        next_draw: 743469,
        pick_dirs: &[1.0, 1.0, 1.0],
        nearest: Some((3, 0)),
        nearest_dir: Some(1.0),
        delta: &[12, 34, 37, 38, 42, 49, 65],
        applied: 7,
    },
];

#[test]
fn signals_match_the_values_pinned_before_the_tracker_collapse() {
    for g in GOLDEN {
        let net = if g.net == "dense" { dense_net() } else { conv_net() };
        let at = format!("{} / {}", g.net, g.spec);
        let xs = inputs(&net);
        let mut s = build(&net, g.spec);
        assert_eq!(s.total(), g.total, "{at}: total");
        let newly: Vec<usize> = xs.iter().map(|x| s.update(&net.forward(x))).collect();
        assert_eq!(newly, g.newly, "{at}: newly covered per input");
        assert_eq!(s.covered_indices(), g.covered, "{at}: covered indices");
        assert_eq!(s.coverage().to_bits(), g.coverage_bits, "{at}: coverage bits");

        let probe = net.forward(&rng::uniform(&mut rng::rng(301), &batched(&net, 1), 0.0, 1.0));
        let mut r = rng::rng(7);
        let picks = s.pick_uncovered_k(&mut r, 3);
        assert_eq!(ids(&picks), g.picks, "{at}: random-k picks");
        assert_eq!(r.gen_range(0..1_000_000u32), g.next_draw, "{at}: RNG draws consumed by picks");
        let dirs: Vec<f32> = picks.iter().map(|&p| s.target_direction(p, &probe)).collect();
        assert_eq!(dirs, g.pick_dirs, "{at}: pick directions");
        let nearest = s.pick_uncovered_nearest(&probe);
        assert_eq!(nearest.map(|p| (p.activation, p.index)), g.nearest, "{at}: nearest pick");
        assert_eq!(
            nearest.map(|p| s.target_direction(p, &probe)),
            g.nearest_dir,
            "{at}: nearest direction"
        );

        // Two workers, half the inputs each, synced by one sparse delta.
        let (mut a, mut b) = (build(&net, g.spec), build(&net, g.spec));
        xs[..4].iter().for_each(|x| {
            a.update(&net.forward(x));
        });
        xs[4..].iter().for_each(|x| {
            b.update(&net.forward(x));
        });
        let delta = b.diff_indices(&a);
        assert_eq!(delta, g.delta, "{at}: delta");
        assert_eq!(a.apply_covered_indices(&delta), g.applied, "{at}: applied");
        assert_eq!(a.covered_indices(), g.covered, "{at}: synced union");
    }
}
