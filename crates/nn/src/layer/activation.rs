//! Elementwise activations and the row-wise softmax.
//!
//! Forwards write into a workspace buffer; backwards rewrite the incoming
//! gradient's buffer and hand it on, reading the layer's recorded input
//! (ReLU) or output (sigmoid, tanh, softmax).

use dx_tensor::{Tensor, Workspace};

/// `f` over every element of `x`, into a workspace buffer.
fn map_ws(x: &Tensor, ws: &mut Workspace, f: impl Fn(f32) -> f32) -> Tensor {
    let mut buf = ws.take_empty(x.len());
    buf.extend(x.data().iter().map(|&v| f(v)));
    Tensor::from_vec(buf, x.shape())
}

/// ReLU forward.
pub(crate) fn relu_forward(x: &Tensor, ws: &mut Workspace) -> Tensor {
    map_ws(x, ws, |v| v.max(0.0))
}

/// ReLU backward: `dx = dy` where the input was positive; elsewhere
/// `dy * 0.0` (not a literal 0) keeps the historical mask-multiply bit
/// pattern on negative-side gradients.
pub(crate) fn relu_backward(x: &Tensor, mut grad: Tensor) -> Tensor {
    for (g, &xv) in grad.data_mut().iter_mut().zip(x.data()) {
        *g = if xv > 0.0 { *g } else { *g * 0.0 };
    }
    grad
}

/// Sigmoid forward.
pub(crate) fn sigmoid_forward(x: &Tensor, ws: &mut Workspace) -> Tensor {
    map_ws(x, ws, |v| 1.0 / (1.0 + (-v).exp()))
}

/// Sigmoid backward: `dx = dy ⊙ y(1-y)`.
pub(crate) fn sigmoid_backward(y: &Tensor, mut grad: Tensor) -> Tensor {
    for (g, &yv) in grad.data_mut().iter_mut().zip(y.data()) {
        *g = *g * yv * (1.0 - yv);
    }
    grad
}

/// Tanh forward.
pub(crate) fn tanh_forward(x: &Tensor, ws: &mut Workspace) -> Tensor {
    map_ws(x, ws, f32::tanh)
}

/// Tanh backward: `dx = dy ⊙ (1 - y²)`.
pub(crate) fn tanh_backward(y: &Tensor, mut grad: Tensor) -> Tensor {
    for (g, &yv) in grad.data_mut().iter_mut().zip(y.data()) {
        *g *= 1.0 - yv * yv;
    }
    grad
}

/// Row-wise softmax over `[N, K]` into a workspace buffer.
///
/// # Panics
///
/// Panics unless the input is rank-2.
pub(crate) fn softmax_forward(x: &Tensor, ws: &mut Workspace) -> Tensor {
    assert_eq!(x.rank(), 2, "softmax expects [N, K], got {:?}", x.shape());
    let (n, k) = (x.shape()[0], x.shape()[1]);
    let mut buf = ws.take(n * k);
    for i in 0..n {
        let row = &x.data()[i * k..(i + 1) * k];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0;
        let out_row = &mut buf[i * k..(i + 1) * k];
        for (o, &v) in out_row.iter_mut().zip(row.iter()) {
            *o = (v - max).exp();
            denom += *o;
        }
        for o in out_row.iter_mut() {
            *o /= denom;
        }
    }
    Tensor::from_vec(buf, x.shape())
}

/// Softmax backward: per row, `dx = y ⊙ (dy - <dy, y>)`.
pub(crate) fn softmax_backward(y: &Tensor, mut grad: Tensor) -> Tensor {
    let k = y.shape()[1];
    for (yr, gr) in y.data().chunks_exact(k).zip(grad.data_mut().chunks_exact_mut(k)) {
        let dot: f32 = yr.iter().zip(gr.iter()).map(|(&a, &b)| a * b).sum();
        for j in 0..k {
            gr[j] = yr[j] * (gr[j] - dot);
        }
    }
    grad
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_tensor::rng;

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]).reshape(&[1, 3]);
        let y = relu_forward(&x, &mut Workspace::new());
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        // The derivative mask is read off the input.
        let g = Tensor::from_slice(&[3.0, 4.0, 5.0]).reshape(&[1, 3]);
        assert_eq!(relu_backward(&x, g).data(), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn sigmoid_range_and_midpoint() {
        let x = Tensor::from_slice(&[0.0, 10.0, -10.0]).reshape(&[1, 3]);
        let y = sigmoid_forward(&x, &mut Workspace::new());
        assert!((y.data()[0] - 0.5).abs() < 1e-6);
        assert!(y.data()[1] > 0.999);
        assert!(y.data()[2] < 0.001);
    }

    #[test]
    fn tanh_is_odd() {
        let x = Tensor::from_slice(&[1.3, -1.3]).reshape(&[1, 2]);
        let y = tanh_forward(&x, &mut Workspace::new());
        assert!((y.data()[0] + y.data()[1]).abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_are_distributions() {
        let x = rng::uniform(&mut rng::rng(0), &[4, 7], -5.0, 5.0);
        let y = softmax_forward(&x, &mut Workspace::new());
        for i in 0..4 {
            let row_sum: f32 = y.data()[i * 7..(i + 1) * 7].iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_backward_of_uniform_grad_is_zero() {
        // Softmax outputs sum to one, so a constant upstream gradient has no
        // effect — the Jacobian annihilates constants.
        let x = rng::uniform(&mut rng::rng(1), &[2, 5], -2.0, 2.0);
        let y = softmax_forward(&x, &mut Workspace::new());
        let dx = softmax_backward(&y, Tensor::ones(&[2, 5]));
        assert!(dx.data().iter().all(|v| v.abs() < 1e-6));
    }

    #[test]
    fn sigmoid_backward_peak_at_half() {
        let y = Tensor::from_slice(&[0.5, 0.9]).reshape(&[1, 2]);
        let dx = sigmoid_backward(&y, Tensor::ones(&[1, 2]));
        assert!((dx.data()[0] - 0.25).abs() < 1e-6);
        assert!((dx.data()[1] - 0.09).abs() < 1e-6);
    }
}
