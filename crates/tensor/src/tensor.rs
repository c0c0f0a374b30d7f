//! The dense row-major `f32` tensor at the heart of the workspace.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::kernels;

/// A dense, row-major, N-dimensional `f32` tensor.
///
/// `Tensor` is deliberately simple: a contiguous `Vec<f32>` plus a shape.
/// There are no strides, views or reference counting — clones copy data.
/// This keeps every operation auditable, which matters for a testing tool
/// whose claims rest on gradient correctness.
///
/// Shape mismatches are programmer errors and panic with both shapes in the
/// message; see the `# Panics` section on each method.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}, ", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, "data={:?})", self.data)
        } else {
            write!(
                f,
                "data=[{}, {}, {}, ... ; {} values])",
                self.data[0],
                self.data[1],
                self.data[2],
                self.data.len()
            )
        }
    }
}

fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

impl Tensor {
    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self { data: vec![value; numel(shape)], shape: shape.to_vec() }
    }

    /// Creates a tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Wraps an existing buffer in a tensor.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            numel(shape),
            "buffer of {} values cannot take shape {:?}",
            data.len(),
            shape
        );
        Self { data, shape: shape.to_vec() }
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Self { data: data.to_vec(), shape: vec![data.len()] }
    }

    /// Returns the shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Returns the number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Returns the total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the underlying buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Returns the underlying buffer mutably.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns a copy with a new shape over the same buffer.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Self {
        assert_eq!(
            self.len(),
            numel(shape),
            "cannot reshape {:?} ({} values) into {:?} ({} values)",
            self.shape,
            self.len(),
            shape,
            numel(shape)
        );
        Self { data: self.data.clone(), shape: shape.to_vec() }
    }

    /// Consumes the tensor, returning one with a new shape over the *same*
    /// buffer (no copy).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn into_reshaped(self, shape: &[usize]) -> Self {
        assert_eq!(
            self.len(),
            numel(shape),
            "cannot reshape {:?} ({} values) into {:?} ({} values)",
            self.shape,
            self.len(),
            shape,
            numel(shape)
        );
        Self { data: self.data, shape: shape.to_vec() }
    }

    /// Computes the flat offset of a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or is out of bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.rank(),
            "index {:?} has wrong rank for shape {:?}",
            index,
            self.shape
        );
        let mut off = 0;
        for (dim, (&i, &d)) in index.iter().zip(self.shape.iter()).enumerate() {
            assert!(
                i < d,
                "index {:?} out of bounds at dim {dim} for shape {:?}",
                index,
                self.shape
            );
            off = off * d + i;
        }
        off
    }

    /// Reads the element at a multi-index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Writes the element at a multi-index.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.offset(index);
        self.data[off] = value;
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self { data: self.data.iter().map(|&v| f(v)).collect(), shape: self.shape.clone() }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two tensors elementwise with `f`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        self.assert_same_shape(other, "zip");
        Self {
            data: self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect(),
            shape: self.shape.clone(),
        }
    }

    fn assert_same_shape(&self, other: &Self, op: &str) {
        assert_eq!(
            self.shape, other.shape,
            "{op}: shape mismatch {:?} vs {:?}",
            self.shape, other.shape
        );
    }

    /// Adds `other * scale` into `self` in place (axpy).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_scaled(&mut self, other: &Self, scale: f32) {
        self.assert_same_shape(other, "add_scaled");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b * scale;
        }
    }

    /// Multiplies every element by `s`, returning a new tensor.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|v| v * s)
    }

    /// Elementwise product (Hadamard).
    pub fn hadamard(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a * b)
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Self {
        self.map(|v| v.clamp(lo, hi))
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Minimum element.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn min(&self) -> f32 {
        assert!(!self.data.is_empty(), "min of empty tensor");
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn max(&self) -> f32 {
        assert!(!self.data.is_empty(), "max of empty tensor");
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the maximum element (ties resolve to the first).
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Squared L2 norm of all elements.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum()
    }

    /// L2 norm of all elements.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Returns `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Matrix multiplication of two rank-2 tensors.
    ///
    /// Computes `self (m×k) · other (k×n) -> (m×n)` with the blocked,
    /// autovectorization-friendly kernel in [`crate::kernels`] — bit-identical
    /// to the historical naive ikj loop (see the kernel's docs).
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are rank-2 with matching inner dimension.
    pub fn matmul(&self, other: &Self) -> Self {
        assert_eq!(self.rank(), 2, "matmul lhs must be rank-2, got {:?}", self.shape);
        assert_eq!(other.rank(), 2, "matmul rhs must be rank-2, got {:?}", other.shape);
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dimension mismatch: {:?} vs {:?}", self.shape, other.shape);
        let mut out = vec![0.0f32; m * n];
        kernels::matmul_acc(&self.data, &other.data, m, k, n, &mut out);
        Self { data: out, shape: vec![m, n] }
    }

    /// Matrix–vector product of a rank-2 tensor with a rank-1 tensor.
    ///
    /// # Panics
    ///
    /// Panics unless `self` is `m×k` and `v` has length `k`.
    pub fn matvec(&self, v: &Self) -> Self {
        assert_eq!(self.rank(), 2, "matvec lhs must be rank-2, got {:?}", self.shape);
        assert_eq!(v.rank(), 1, "matvec rhs must be rank-1, got {:?}", v.shape);
        let (m, k) = (self.shape[0], self.shape[1]);
        assert_eq!(k, v.len(), "matvec dimension mismatch: {:?} vs {:?}", self.shape, v.shape);
        let mut out = vec![0.0f32; m];
        for (i, o) in out.iter_mut().enumerate() {
            let row = &self.data[i * k..(i + 1) * k];
            *o = row.iter().zip(v.data.iter()).map(|(&a, &b)| a * b).sum();
        }
        Self { data: out, shape: vec![m] }
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is rank-2.
    pub fn transpose(&self) -> Self {
        assert_eq!(self.rank(), 2, "transpose needs rank-2, got {:?}", self.shape);
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Self { data: out, shape: vec![n, m] }
    }

    /// Numerically stable softmax over the last (or only) axis of a rank-1
    /// tensor.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is rank-1 and non-empty.
    pub fn softmax(&self) -> Self {
        assert_eq!(self.rank(), 1, "softmax needs rank-1, got {:?}", self.shape);
        let max = self.max();
        let exps: Vec<f32> = self.data.iter().map(|&v| (v - max).exp()).collect();
        let denom: f32 = exps.iter().sum();
        Self { data: exps.iter().map(|&e| e / denom).collect(), shape: self.shape.clone() }
    }

    /// Min-max scales all elements into `[0, 1]`.
    ///
    /// Degenerate inputs (constant tensors) scale to all-zeros, matching the
    /// convention in the paper's coverage computation (§7.1).
    pub fn minmax_scaled(&self) -> Self {
        if self.is_empty() {
            return self.clone();
        }
        let (lo, hi) = (self.min(), self.max());
        let range = hi - lo;
        if range <= f32::EPSILON {
            return Self::zeros(&self.shape);
        }
        self.map(|v| (v - lo) / range)
    }
}

impl Add<&Tensor> for &Tensor {
    type Output = Tensor;
    fn add(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a + b)
    }
}

impl Sub<&Tensor> for &Tensor {
    type Output = Tensor;
    fn sub(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a - b)
    }
}

impl Mul<f32> for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: f32) -> Tensor {
        self.scale(rhs)
    }
}

impl Div<f32> for &Tensor {
    type Output = Tensor;
    fn div(self, rhs: f32) -> Tensor {
        self.scale(1.0 / rhs)
    }
}

impl Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.scale(-1.0)
    }
}

impl AddAssign<&Tensor> for Tensor {
    fn add_assign(&mut self, rhs: &Tensor) {
        self.add_scaled(rhs, 1.0);
    }
}

impl SubAssign<&Tensor> for Tensor {
    fn sub_assign(&mut self, rhs: &Tensor) {
        self.add_scaled(rhs, -1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_zeros_ones() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|&v| v == 0.0));
        let o = Tensor::ones(&[4]);
        assert_eq!(o.sum(), 4.0);
        let f = Tensor::full(&[2, 2], 2.5);
        assert_eq!(f.mean(), 2.5);
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let i3 = Tensor::eye(3);
        assert_eq!(a.matmul(&i3), a);
    }

    #[test]
    fn from_vec_checks_length() {
        let r = std::panic::catch_unwind(|| Tensor::from_vec(vec![1.0, 2.0], &[3]));
        assert!(r.is_err());
    }

    #[test]
    fn offset_row_major() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.offset(&[0, 0, 0]), 0);
        assert_eq!(t.offset(&[0, 0, 3]), 3);
        assert_eq!(t.offset(&[0, 1, 0]), 4);
        assert_eq!(t.offset(&[1, 0, 0]), 12);
        assert_eq!(t.offset(&[1, 2, 3]), 23);
    }

    #[test]
    fn at_and_set_round_trip() {
        let mut t = Tensor::zeros(&[3, 3]);
        t.set(&[1, 2], 7.5);
        assert_eq!(t.at(&[1, 2]), 7.5);
        assert_eq!(t.at(&[2, 1]), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn at_out_of_bounds_panics() {
        let t = Tensor::zeros(&[2, 2]);
        t.at(&[2, 0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let r = t.reshape(&[4]);
        assert_eq!(r.shape(), &[4]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_bad_numel_panics() {
        Tensor::zeros(&[2, 2]).reshape(&[5]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 2.0, -1.0, 3.0, 1.0], &[2, 3]);
        let b = Tensor::from_vec(vec![3.0, 1.0, 2.0, 1.0, 1.0, 0.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[5.0, 1.0, 4.0, 2.0]);
    }

    #[test]
    fn matmul_bt_matches_transpose_matmul() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 2.0, -1.0, 3.0, 1.0], &[2, 3]);
        let b = Tensor::from_vec(vec![3.0, 2.0, 1.0, 1.0, 1.0, 0.0], &[2, 3]);
        let mut got = vec![0.0f32; 4];
        kernels::matmul_bt_acc(a.data(), b.data(), 2, 3, 2, &mut got);
        let want = a.matmul(&b.transpose());
        assert_eq!(want.shape(), &[2, 2]);
        for (g, w) in got.iter().zip(want.data().iter()) {
            assert!(g.to_bits() == w.to_bits() || (*g == 0.0 && *w == 0.0));
        }
    }

    #[test]
    fn into_reshaped_is_zero_copy() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let ptr = t.data().as_ptr();
        let r = t.into_reshaped(&[4]);
        assert_eq!(r.shape(), &[4]);
        assert_eq!(r.data().as_ptr(), ptr);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let v = Tensor::from_slice(&[1.0, 0.5, -1.0]);
        let got = a.matvec(&v);
        let want = a.matmul(&v.reshape(&[3, 1])).reshape(&[2]);
        assert_eq!(got, want);
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let t = a.transpose();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.at(&[2, 1]), a.at(&[1, 2]));
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let t = Tensor::from_slice(&[1000.0, 1001.0, 1002.0]);
        let s = t.softmax();
        assert!((s.sum() - 1.0).abs() < 1e-6);
        assert!(!s.has_non_finite());
        assert!(s.data()[2] > s.data()[1] && s.data()[1] > s.data()[0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_slice(&[-1.0, 4.0, 2.0, -3.0]);
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.mean(), 0.5);
        assert_eq!(t.min(), -3.0);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.argmax(), 1);
        assert_eq!(t.norm_sq(), 1.0 + 16.0 + 4.0 + 9.0);
    }

    #[test]
    fn argmax_ties_resolve_first() {
        let t = Tensor::from_slice(&[1.0, 3.0, 3.0]);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn minmax_scaling() {
        let t = Tensor::from_slice(&[2.0, 4.0, 6.0]);
        let s = t.minmax_scaled();
        assert_eq!(s.data(), &[0.0, 0.5, 1.0]);
        let c = Tensor::full(&[3], 5.0).minmax_scaled();
        assert_eq!(c.data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn operators() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[3.0, 5.0]);
        assert_eq!((&a + &b).data(), &[4.0, 7.0]);
        assert_eq!((&b - &a).data(), &[2.0, 3.0]);
        assert_eq!((&a * 2.0).data(), &[2.0, 4.0]);
        assert_eq!((&b / 2.0).data(), &[1.5, 2.5]);
        assert_eq!((-&a).data(), &[-1.0, -2.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.data(), &[4.0, 7.0]);
        c -= &b;
        assert_eq!(c.data(), &[1.0, 2.0]);
    }

    #[test]
    fn add_scaled_axpy() {
        let mut a = Tensor::from_slice(&[1.0, 1.0]);
        let g = Tensor::from_slice(&[2.0, -4.0]);
        a.add_scaled(&g, 0.5);
        assert_eq!(a.data(), &[2.0, -1.0]);
    }

    #[test]
    fn clamp_and_hadamard() {
        let t = Tensor::from_slice(&[-2.0, 0.5, 9.0]);
        assert_eq!(t.clamp(0.0, 1.0).data(), &[0.0, 0.5, 1.0]);
        let u = Tensor::from_slice(&[2.0, 2.0, 0.5]);
        assert_eq!(t.hadamard(&u).data(), &[-4.0, 1.0, 4.5]);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(&[2]);
        assert!(!t.has_non_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(t.has_non_finite());
    }
}
