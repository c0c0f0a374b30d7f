//! The differential-testing oracle: when do model outputs *disagree*?

/// A recorded model output for one input.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Prediction {
    /// Predicted class (classifiers).
    Class(usize),
    /// Predicted scalar (the steering regressors).
    Value(f32),
}

/// Driving direction derived from a steering value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Steering below `-threshold`.
    Left,
    /// Steering within `±threshold`.
    Straight,
    /// Steering above `threshold`.
    Right,
}

/// Maps a steering value to a direction with the given dead zone.
pub fn direction(value: f32, threshold: f32) -> Direction {
    if value < -threshold {
        Direction::Left
    } else if value > threshold {
        Direction::Right
    } else {
        Direction::Straight
    }
}

/// Extracts the prediction from one input's classifier output: the index
/// of the maximum score, ties to the first (as `Tensor::argmax`).
pub fn class_of(output: &[f32]) -> Prediction {
    Prediction::Class((1..output.len()).fold(0, |b, i| if output[i] > output[b] { i } else { b }))
}

/// Extracts the prediction from one input's regressor output.
pub fn value_of(output: &[f32]) -> Prediction {
    Prediction::Value(output[0])
}

/// Whether a set of predictions contains a behavioural difference.
///
/// Classifiers differ when any two predicted classes differ; steering
/// regressors differ when any two predicted *directions* differ — the
/// paper's "one car decides to turn left while another turns right"
/// oracle (Figure 1), with `threshold` as the dead zone.
pub fn differs(predictions: &[Prediction], threshold: f32) -> bool {
    if predictions.len() < 2 {
        return false;
    }
    match predictions[0] {
        Prediction::Class(first) => predictions.iter().any(|p| match p {
            Prediction::Class(c) => *c != first,
            Prediction::Value(_) => panic!("mixed prediction kinds"),
        }),
        Prediction::Value(first) => {
            let d0 = direction(first, threshold);
            predictions.iter().any(|p| match p {
                Prediction::Value(v) => direction(*v, threshold) != d0,
                Prediction::Class(_) => panic!("mixed prediction kinds"),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_disagreement() {
        let same = [Prediction::Class(3), Prediction::Class(3), Prediction::Class(3)];
        assert!(!differs(&same, 0.0));
        let diff = [Prediction::Class(3), Prediction::Class(3), Prediction::Class(7)];
        assert!(differs(&diff, 0.0));
    }

    #[test]
    fn direction_dead_zone() {
        assert_eq!(direction(0.05, 0.2), Direction::Straight);
        assert_eq!(direction(-0.5, 0.2), Direction::Left);
        assert_eq!(direction(0.5, 0.2), Direction::Right);
    }

    #[test]
    fn steering_disagreement_uses_directions() {
        // Both right: no difference even though values differ.
        let same = [Prediction::Value(0.5), Prediction::Value(0.9)];
        assert!(!differs(&same, 0.2));
        // Left vs right: difference.
        let diff = [Prediction::Value(-0.5), Prediction::Value(0.5)];
        assert!(differs(&diff, 0.2));
        // Straight vs right: also a difference.
        let edge = [Prediction::Value(0.0), Prediction::Value(0.5)];
        assert!(differs(&edge, 0.2));
    }

    #[test]
    fn single_prediction_never_differs() {
        assert!(!differs(&[Prediction::Class(1)], 0.0));
        assert!(!differs(&[], 0.0));
    }

    #[test]
    fn extractors() {
        assert_eq!(class_of(&[0.1, 0.7, 0.2]), Prediction::Class(1));
        assert_eq!(class_of(&[0.7, 0.1, 0.7]), Prediction::Class(0), "ties resolve first");
        assert_eq!(value_of(&[-0.4]), Prediction::Value(-0.4));
    }
}
