//! Training-data pollution detection (§7.3).
//!
//! The attack: a fraction of one class's training labels are flipped to
//! another class (the paper mislabels 30% of MNIST "9"s as "1"s). The
//! defence: train models on the clean and polluted sets, use DeepXplore to
//! generate inputs the two models *disagree* on (clean says source class,
//! polluted says target class), then rank training samples of the target
//! class by structural similarity (SSIM) to those inputs — the most
//! similar ones are the polluted samples.

use dx_nn::util::row;
use dx_tensor::{metrics, Tensor};

/// Ranks candidate training samples by their maximum SSIM against any of
/// the error-inducing inputs; higher rank = more suspicious.
///
/// `error_inputs` are unbatched or `[1, ...]`-batched samples; `train_x` is
/// the full training tensor; `candidates` restricts the search (typically
/// the indices labelled with the attack's *target* class).
///
/// Returns `(training_index, score)` sorted by descending score.
///
/// # Panics
///
/// Panics if there are no error inputs or candidates.
pub fn rank_suspects(
    error_inputs: &[Tensor],
    train_x: &Tensor,
    candidates: &[usize],
) -> Vec<(usize, f32)> {
    assert!(!error_inputs.is_empty(), "no error-inducing inputs supplied");
    assert!(!candidates.is_empty(), "no candidate training samples");
    let sample_shape = &train_x.shape()[1..];
    let normalized: Vec<Tensor> = error_inputs
        .iter()
        .map(|e| {
            if e.shape() == sample_shape {
                e.clone()
            } else if e.shape().first() == Some(&1) && &e.shape()[1..] == sample_shape {
                e.reshape(sample_shape)
            } else {
                panic!(
                    "error input shape {:?} does not match samples {:?}",
                    e.shape(),
                    sample_shape
                );
            }
        })
        .collect();
    let mut scored: Vec<(usize, f32)> = candidates
        .iter()
        .map(|&i| {
            let sample = row(train_x, i);
            let best = normalized
                .iter()
                .map(|e| metrics::ssim(e, &sample))
                .fold(f32::NEG_INFINITY, f32::max);
            (i, best)
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("SSIM values are finite"));
    scored
}

/// Precision/recall of a suspect set against the ground-truth polluted
/// indices.
pub fn detection_quality(suspects: &[usize], polluted: &[usize]) -> (f32, f32) {
    if suspects.is_empty() || polluted.is_empty() {
        return (0.0, 0.0);
    }
    let polluted_set: std::collections::BTreeSet<usize> = polluted.iter().copied().collect();
    let hit = suspects.iter().filter(|i| polluted_set.contains(i)).count();
    (hit as f32 / suspects.len() as f32, hit as f32 / polluted.len() as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_tensor::rng;

    #[test]
    fn nearest_sample_ranks_first() {
        let mut r = rng::rng(0);
        // Training set of 10 random images; the error input is a tiny
        // perturbation of sample 7.
        let train = rng::uniform(&mut r, &[10, 1, 8, 8], 0.0, 1.0);
        let mut probe = row(&train, 7);
        probe.data_mut()[3] += 0.01;
        let ranked = rank_suspects(&[probe], &train, &(0..10).collect::<Vec<_>>());
        assert_eq!(ranked[0].0, 7, "nearest sample should rank first: {ranked:?}");
        assert!(ranked[0].1 > ranked[1].1);
    }

    #[test]
    fn candidates_restrict_the_search() {
        let mut r = rng::rng(1);
        let train = rng::uniform(&mut r, &[10, 1, 6, 6], 0.0, 1.0);
        let probe = row(&train, 2);
        let ranked = rank_suspects(&[probe], &train, &[4, 5, 6]);
        assert_eq!(ranked.len(), 3);
        assert!(ranked.iter().all(|(i, _)| [4, 5, 6].contains(i)));
    }

    #[test]
    fn batched_error_inputs_accepted() {
        let mut r = rng::rng(2);
        let train = rng::uniform(&mut r, &[5, 1, 6, 6], 0.0, 1.0);
        let probe = dx_nn::util::gather_rows(&train, &[3]);
        let ranked = rank_suspects(&[probe], &train, &(0..5).collect::<Vec<_>>());
        assert_eq!(ranked[0].0, 3);
    }

    #[test]
    fn detection_quality_math() {
        let (precision, recall) = detection_quality(&[1, 2, 3, 4], &[2, 4, 9]);
        assert!((precision - 0.5).abs() < 1e-6);
        assert!((recall - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn empty_sets_are_zero_quality() {
        assert_eq!(detection_quality(&[], &[1]), (0.0, 0.0));
        assert_eq!(detection_quality(&[1], &[]), (0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_error_input_rejected() {
        let train = Tensor::zeros(&[3, 1, 4, 4]);
        rank_suspects(&[Tensor::zeros(&[1, 5, 5])], &train, &[0]);
    }
}
