//! Small batching and encoding helpers shared across the workspace.

use dx_tensor::Tensor;

/// Adds a leading batch dimension of 1 to a single sample.
pub fn batch_of_one(sample: &Tensor) -> Tensor {
    let mut shape = vec![1];
    shape.extend_from_slice(sample.shape());
    sample.reshape(&shape)
}

/// Removes a leading batch dimension of 1.
///
/// # Panics
///
/// Panics unless the first dimension is exactly 1.
pub fn unbatch(x: &Tensor) -> Tensor {
    assert_eq!(
        x.shape().first(),
        Some(&1),
        "unbatch expects leading dimension 1, got {:?}",
        x.shape()
    );
    x.reshape(&x.shape()[1..])
}

/// Stacks equally shaped samples into one batched tensor.
///
/// # Panics
///
/// Panics if `samples` is empty or shapes differ.
pub fn stack(samples: &[Tensor]) -> Tensor {
    assert!(!samples.is_empty(), "cannot stack zero samples");
    let shape = samples[0].shape().to_vec();
    let mut data = Vec::with_capacity(samples.len() * samples[0].len());
    for s in samples {
        assert_eq!(
            s.shape(),
            shape.as_slice(),
            "stack: inconsistent sample shapes {:?} vs {:?}",
            s.shape(),
            shape
        );
        data.extend_from_slice(s.data());
    }
    let mut out_shape = vec![samples.len()];
    out_shape.extend_from_slice(&shape);
    Tensor::from_vec(data, &out_shape)
}

/// Concatenates batched tensors that agree on every dimension but the
/// first along the batch axis (`[1, ...]` inputs into one `[N, ...]`).
///
/// # Panics
///
/// Panics if `rows` is empty or trailing shapes differ.
pub fn concat_rows<'a>(rows: impl IntoIterator<Item = &'a Tensor>) -> Tensor {
    let mut rows = rows.into_iter().peekable();
    let n = rows.size_hint().0;
    let first = rows.peek().expect("cannot concatenate zero tensors");
    let mut data = Vec::with_capacity(first.len() * n);
    let mut shape = first.shape().to_vec();
    shape[0] = 0;
    for r in rows {
        assert_eq!(
            r.shape()[1..],
            shape[1..],
            "concat_rows: inconsistent row shapes {:?} vs {:?}",
            r.shape(),
            shape
        );
        shape[0] += r.shape()[0];
        data.extend_from_slice(r.data());
    }
    Tensor::from_vec(data, &shape)
}

/// Gathers rows (axis-0 slices) of a batched tensor by index.
///
/// # Panics
///
/// Panics if any index is out of range.
pub fn gather_rows(x: &Tensor, indices: &[usize]) -> Tensor {
    let n = x.shape()[0];
    let row: usize = x.shape()[1..].iter().product();
    let mut data = Vec::with_capacity(indices.len() * row);
    for &i in indices {
        assert!(i < n, "gather_rows: index {i} out of range for {n} rows");
        data.extend_from_slice(&x.data()[i * row..(i + 1) * row]);
    }
    let mut shape = vec![indices.len()];
    shape.extend_from_slice(&x.shape()[1..]);
    Tensor::from_vec(data, &shape)
}

/// Extracts row `i` of a batched tensor as an un-batched sample.
pub fn row(x: &Tensor, i: usize) -> Tensor {
    let n = x.shape()[0];
    assert!(i < n, "row: index {i} out of range for {n} rows");
    let row_len: usize = x.shape()[1..].iter().product();
    Tensor::from_vec(x.data()[i * row_len..(i + 1) * row_len].to_vec(), &x.shape()[1..])
}

/// One-hot encodes labels into `[N, classes]`.
///
/// # Panics
///
/// Panics if any label is out of range.
pub fn one_hot(labels: &[usize], classes: usize) -> Tensor {
    let mut t = Tensor::zeros(&[labels.len(), classes]);
    for (i, &c) in labels.iter().enumerate() {
        assert!(c < classes, "label {c} out of range for {classes} classes");
        t.set(&[i, c], 1.0);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_tensor::rng;

    #[test]
    fn batch_and_unbatch_round_trip() {
        let s = rng::uniform(&mut rng::rng(0), &[3, 4], 0.0, 1.0);
        let b = batch_of_one(&s);
        assert_eq!(b.shape(), &[1, 3, 4]);
        assert_eq!(unbatch(&b), s);
    }

    #[test]
    fn stack_then_row_round_trip() {
        let mut r = rng::rng(1);
        let samples: Vec<Tensor> =
            (0..4).map(|_| rng::uniform(&mut r, &[2, 3], 0.0, 1.0)).collect();
        let batch = stack(&samples);
        assert_eq!(batch.shape(), &[4, 2, 3]);
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(&row(&batch, i), s);
        }
    }

    #[test]
    fn concat_rows_inverts_gather() {
        let x = rng::uniform(&mut rng::rng(2), &[3, 2, 2], 0.0, 1.0);
        let parts = [gather_rows(&x, &[0]), gather_rows(&x, &[1, 2])];
        assert_eq!(concat_rows(&parts), x);
    }

    #[test]
    #[should_panic(expected = "inconsistent row shapes")]
    fn concat_rows_rejects_mismatched_rows() {
        concat_rows(&[Tensor::zeros(&[1, 2]), Tensor::zeros(&[1, 3])]);
    }

    #[test]
    fn gather_reorders_rows() {
        let x = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[3, 2]);
        let g = gather_rows(&x, &[2, 0, 2]);
        assert_eq!(g.shape(), &[3, 2]);
        assert_eq!(g.data(), &[4.0, 5.0, 0.0, 1.0, 4.0, 5.0]);
    }

    #[test]
    fn one_hot_rows() {
        let t = one_hot(&[1, 0, 2], 3);
        assert_eq!(t.data(), &[0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn one_hot_rejects_bad_label() {
        one_hot(&[3], 3);
    }

    #[test]
    #[should_panic(expected = "cannot stack")]
    fn stack_rejects_empty() {
        stack(&[]);
    }
}
