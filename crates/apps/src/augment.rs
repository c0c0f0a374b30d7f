//! Training-set augmentation with auto-labelled error-inducing inputs.

use dx_nn::network::Network;
use dx_nn::train::{evaluate_classifier, train_classifier, TrainConfig};
use dx_nn::util::stack;
use dx_nn::Optimizer;
use dx_tensor::Tensor;

/// Labels an input by majority vote among several models (the paper's
/// automatic labelling rule, after Freund & Schapire \[23\]).
///
/// Returns `None` on a tie — such inputs are discarded rather than
/// mislabelled.
pub fn majority_vote(models: &[Network], x: &Tensor) -> Option<usize> {
    assert!(!models.is_empty(), "majority vote needs at least one model");
    let mut votes = std::collections::BTreeMap::new();
    for m in models {
        *votes.entry(m.predict_classes(x)[0]).or_insert(0usize) += 1;
    }
    let best = votes.iter().max_by_key(|(_, &c)| c).map(|(&l, &c)| (l, c))?;
    let ties = votes.values().filter(|&&c| c == best.1).count();
    if ties > 1 {
        None
    } else {
        Some(best.0)
    }
}

/// The result of an augmented retraining run.
#[derive(Clone, Debug)]
pub struct RetrainOutcome {
    /// Test accuracy before retraining (epoch 0 of Figure 10).
    pub initial_accuracy: f32,
    /// Test accuracy after each retraining epoch.
    pub epoch_accuracy: Vec<f32>,
}

impl RetrainOutcome {
    /// The best accuracy reached during retraining.
    pub fn best(&self) -> f32 {
        self.epoch_accuracy.iter().copied().fold(self.initial_accuracy, f32::max)
    }

    /// Final accuracy minus initial accuracy.
    pub fn improvement(&self) -> f32 {
        self.epoch_accuracy.last().copied().unwrap_or(self.initial_accuracy) - self.initial_accuracy
    }
}

/// Retrains `net` on the original training set plus `extra` samples,
/// evaluating test accuracy after every epoch (the Figure 10 measurement).
///
/// `extra` pairs are typically DeepXplore tests labelled by
/// [`majority_vote`], FGSM inputs with their source labels, or extra random
/// samples.
///
/// # Panics
///
/// Panics on empty or inconsistent inputs.
#[allow(clippy::too_many_arguments)] // Mirrors the experiment's parameter list.
pub fn retrain_with_eval(
    net: &mut Network,
    train_x: &Tensor,
    train_labels: &[usize],
    extra: &[(Tensor, usize)],
    test_x: &Tensor,
    test_labels: &[usize],
    epochs: usize,
    seed: u64,
) -> RetrainOutcome {
    assert_eq!(train_x.shape()[0], train_labels.len(), "train set inconsistent");
    let initial_accuracy = evaluate_classifier(net, test_x, test_labels);
    // Merge original and extra data into one tensor.
    let (aug_x, aug_labels) = if extra.is_empty() {
        (train_x.clone(), train_labels.to_vec())
    } else {
        let mut rows: Vec<Tensor> = Vec::with_capacity(train_x.shape()[0] + extra.len());
        for i in 0..train_x.shape()[0] {
            rows.push(dx_nn::util::row(train_x, i));
        }
        let mut labels = train_labels.to_vec();
        let sample_shape = &train_x.shape()[1..];
        for (x, l) in extra {
            // Accept bare sample shapes or batched [1, ...] inputs. The
            // comparison is against the actual sample shape — a leading
            // dimension of 1 (e.g. a grayscale channel) is not a batch.
            let sample = if x.shape() == sample_shape {
                x.clone()
            } else if x.shape().first() == Some(&1) && &x.shape()[1..] == sample_shape {
                dx_nn::util::row(x, 0)
            } else {
                panic!(
                    "extra sample shape {:?} does not match training samples {:?}",
                    x.shape(),
                    sample_shape
                );
            };
            rows.push(sample);
            labels.push(*l);
        }
        (stack(&rows), labels)
    };
    let mut epoch_accuracy = Vec::with_capacity(epochs);
    let mut opt = Optimizer::adam(5e-4);
    for e in 0..epochs {
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 32,
            seed: seed.wrapping_add(e as u64),
            shuffle: true,
        };
        train_classifier(net, &aug_x, &aug_labels, &cfg, &mut opt);
        epoch_accuracy.push(evaluate_classifier(net, test_x, test_labels));
    }
    RetrainOutcome { initial_accuracy, epoch_accuracy }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_nn::layer::Layer;
    use dx_tensor::rng;

    fn toy(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut r = rng::rng(seed);
        let x = rng::uniform(&mut r, &[n, 4], 0.0, 1.0);
        let labels = (0..n).map(|i| usize::from(x.at(&[i, 0]) + x.at(&[i, 1]) > 1.0)).collect();
        (x, labels)
    }

    fn mlp(seed: u64) -> Network {
        let mut net = Network::new(
            &[4],
            vec![Layer::dense(4, 12), Layer::relu(), Layer::dense(12, 2), Layer::softmax()],
        );
        net.init_weights(&mut rng::rng(seed));
        net
    }

    #[test]
    fn majority_vote_counts_correctly() {
        // Three fixed models; check the vote on one input against their
        // individual predictions.
        let models = vec![mlp(1), mlp(2), mlp(3)];
        let x = rng::uniform(&mut rng::rng(4), &[1, 4], 0.0, 1.0);
        let preds: Vec<usize> = models.iter().map(|m| m.predict_classes(&x)[0]).collect();
        let vote = majority_vote(&models, &x);
        let count0 = preds.iter().filter(|&&p| p == 0).count();
        let expect = match count0 {
            0 | 1 => Some(1),
            2 | 3 => Some(0),
            _ => unreachable!(),
        };
        assert_eq!(vote, expect);
    }

    #[test]
    fn majority_vote_ties_are_none() {
        // Two models that disagree -> tie -> None. Build by perturbation
        // until disagreement is found.
        let base = mlp(5);
        let mut r = rng::rng(6);
        for attempt in 0..200 {
            let other = base.perturbed(0.3, attempt);
            let x = rng::uniform(&mut r, &[1, 4], 0.0, 1.0);
            let a = base.predict_classes(&x)[0];
            let b = other.predict_classes(&x)[0];
            if a != b {
                assert_eq!(majority_vote(&[base.clone(), other], &x), None);
                return;
            }
        }
        panic!("could not construct a disagreement");
    }

    #[test]
    fn retraining_improves_undertrained_model() {
        let (x, labels) = toy(300, 7);
        let (tx, tl) = toy(100, 8);
        let mut net = mlp(9);
        // A short warmup so the model starts above chance but clearly
        // undertrained.
        let cfg = TrainConfig { epochs: 1, batch_size: 32, seed: 10, shuffle: true };
        train_classifier(&mut net, &x, &labels, &cfg, &mut Optimizer::adam(1e-3));
        let outcome = retrain_with_eval(&mut net, &x, &labels, &[], &tx, &tl, 5, 11);
        assert_eq!(outcome.epoch_accuracy.len(), 5);
        assert!(outcome.best() >= outcome.initial_accuracy, "retraining regressed: {outcome:?}");
    }

    #[test]
    fn extra_samples_are_used() {
        let (x, labels) = toy(60, 12);
        let (tx, tl) = toy(40, 13);
        let mut net = mlp(14);
        // Extra set: more labelled points from the same distribution.
        let (ex, el) = toy(40, 15);
        let extra: Vec<(Tensor, usize)> =
            (0..40).map(|i| (dx_nn::util::row(&ex, i), el[i])).collect();
        let out_with = retrain_with_eval(&mut net, &x, &labels, &extra, &tx, &tl, 3, 16);
        assert_eq!(out_with.epoch_accuracy.len(), 3);
        // And batched [1, ...] extras are accepted too.
        let mut net2 = mlp(14);
        let extra_batched: Vec<(Tensor, usize)> =
            (0..40).map(|i| (dx_nn::util::gather_rows(&ex, &[i]), el[i])).collect();
        let out_b = retrain_with_eval(&mut net2, &x, &labels, &extra_batched, &tx, &tl, 3, 16);
        assert_eq!(out_with.epoch_accuracy, out_b.epoch_accuracy);
    }

    #[test]
    fn improvement_is_final_minus_initial() {
        let o = RetrainOutcome { initial_accuracy: 0.9, epoch_accuracy: vec![0.91, 0.93] };
        assert!((o.improvement() - 0.03).abs() < 1e-6);
        assert!((o.best() - 0.93).abs() < 1e-6);
    }
}
