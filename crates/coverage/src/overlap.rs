//! Activated-neuron overlap between inputs (the Table 7 experiment).
//!
//! The paper's hypothesis: inputs of the same class share more activated
//! neurons than inputs of different classes, which is why neuron coverage
//! tracks the *kinds* of rules a test set exercises.

use dx_nn::network::Network;
use dx_nn::util::batch_of_one;
use dx_tensor::Tensor;

use crate::signal::CoverageSignal;
use crate::tracker::CoverageConfig;

/// The activated-neuron set (flat offsets) of a single un-batched sample.
pub fn activated_set(net: &Network, cfg: CoverageConfig, sample: &Tensor) -> Vec<usize> {
    let pass = net.forward(&batch_of_one(sample));
    let mut set = CoverageSignal::neuron(net, cfg).activated_by(&pass);
    set.sort_unstable();
    set
}

/// Size of the intersection of two sorted activated sets.
pub fn overlap_count(a: &[usize], b: &[usize]) -> usize {
    let (mut i, mut j, mut count) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Table 7 statistics for a list of sample pairs: the mean number of
/// activated neurons per input and the mean pairwise overlap.
pub fn pair_overlap_stats(
    net: &Network,
    cfg: CoverageConfig,
    pairs: &[(Tensor, Tensor)],
) -> (f32, f32) {
    assert!(!pairs.is_empty(), "no pairs to analyse");
    let mut activated_total = 0usize;
    let mut overlap_total = 0usize;
    for (a, b) in pairs {
        let sa = activated_set(net, cfg, a);
        let sb = activated_set(net, cfg, b);
        activated_total += sa.len() + sb.len();
        overlap_total += overlap_count(&sa, &sb);
    }
    (activated_total as f32 / (2 * pairs.len()) as f32, overlap_total as f32 / pairs.len() as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neuron::Granularity;
    use dx_nn::layer::Layer;
    use dx_tensor::rng;

    fn net(seed: u64) -> Network {
        let mut n = Network::new(
            &[8],
            vec![Layer::dense(8, 16), Layer::relu(), Layer::dense(16, 3), Layer::softmax()],
        );
        n.init_weights(&mut rng::rng(seed));
        n
    }

    #[test]
    fn overlap_count_on_known_sets() {
        assert_eq!(overlap_count(&[1, 3, 5], &[2, 3, 5, 7]), 2);
        assert_eq!(overlap_count(&[], &[1]), 0);
        assert_eq!(overlap_count(&[4, 9], &[4, 9]), 2);
    }

    #[test]
    fn identical_inputs_fully_overlap() {
        let n = net(0);
        let x = rng::uniform(&mut rng::rng(1), &[8], 0.0, 1.0);
        let cfg = CoverageConfig { granularity: Granularity::Unit, ..Default::default() };
        let (avg_active, avg_overlap) = pair_overlap_stats(&n, cfg, &[(x.clone(), x)]);
        assert!((avg_active - avg_overlap).abs() < 1e-6);
    }

    #[test]
    fn different_inputs_overlap_at_most_min_size() {
        let n = net(2);
        let mut r = rng::rng(3);
        let a = rng::uniform(&mut r, &[8], 0.0, 1.0);
        let b = rng::uniform(&mut r, &[8], 0.0, 1.0);
        let cfg = CoverageConfig { granularity: Granularity::Unit, ..Default::default() };
        let sa = activated_set(&n, cfg, &a);
        let sb = activated_set(&n, cfg, &b);
        assert!(overlap_count(&sa, &sb) <= sa.len().min(sb.len()));
    }

    #[test]
    fn activated_sets_are_sorted_and_deduplicated() {
        let n = net(4);
        let x = rng::uniform(&mut rng::rng(5), &[8], 0.0, 1.0);
        let cfg = CoverageConfig { granularity: Granularity::Unit, ..Default::default() };
        let s = activated_set(&n, cfg, &x);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }
}
