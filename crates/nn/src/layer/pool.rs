//! Spatial pooling layers.

use dx_tensor::{Tensor, Workspace};

use crate::layer::Cache;

/// Max pooling over `[N, C, H, W]` with a square window.
///
/// Windows are anchored at multiples of `stride`; trailing rows/columns that
/// do not fill a complete window are dropped (floor semantics, matching the
/// LeNet/VGG conventions of the paper's models).
#[derive(Clone, Debug)]
pub struct MaxPool2d {
    /// Window side.
    pub kernel: usize,
    /// Stride between window anchors.
    pub stride: usize,
}

/// Average pooling with the same window/stride semantics as [`MaxPool2d`].
#[derive(Clone, Debug)]
pub struct AvgPool2d {
    /// Window side.
    pub kernel: usize,
    /// Stride between window anchors.
    pub stride: usize,
}

fn pooled_hw(kernel: usize, stride: usize, h: usize, w: usize) -> (usize, usize) {
    assert!(h >= kernel && w >= kernel, "pool window {kernel} does not fit a {h}x{w} input");
    ((h - kernel) / stride + 1, (w - kernel) / stride + 1)
}

impl MaxPool2d {
    /// Creates a max-pooling layer.
    pub fn new(kernel: usize, stride: usize) -> Self {
        assert!(kernel > 0 && stride > 0, "kernel and stride must be positive");
        Self { kernel, stride }
    }

    /// Output shape (without batch).
    ///
    /// # Panics
    ///
    /// Panics if the input is not `[C, H, W]` or the window does not fit.
    pub fn output_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        assert_eq!(in_shape.len(), 3, "MaxPool2d expects [C, H, W], got {in_shape:?}");
        let (oh, ow) = pooled_hw(self.kernel, self.stride, in_shape[1], in_shape[2]);
        vec![in_shape[0], oh, ow]
    }

    /// Forward pass into a workspace buffer; caches the argmax offsets for
    /// the backward scatter.
    pub fn forward(&self, x: &Tensor, ws: &mut Workspace) -> (Tensor, Cache) {
        assert_eq!(x.rank(), 4, "MaxPool2d expects [N, C, H, W], got {:?}", x.shape());
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (oh, ow) = pooled_hw(self.kernel, self.stride, h, w);
        let mut out = ws.take_empty(n * c * oh * ow);
        let mut indices = Vec::with_capacity(n * c * oh * ow);
        let xd = x.data();
        for i in 0..n {
            for ch in 0..c {
                let plane_off = (i * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best_v = f32::NEG_INFINITY;
                        let mut best_i = 0;
                        for ky in 0..self.kernel {
                            let iy = oy * self.stride + ky;
                            for kx in 0..self.kernel {
                                let ix = ox * self.stride + kx;
                                let off = plane_off + iy * w + ix;
                                if xd[off] > best_v {
                                    best_v = xd[off];
                                    best_i = off;
                                }
                            }
                        }
                        out.push(best_v);
                        indices.push(best_i);
                    }
                }
            }
        }
        (Tensor::from_vec(out, &[n, c, oh, ow]), Cache::ArgMax(indices))
    }

    /// Backward pass: routes each output gradient to its argmax position.
    pub fn backward(
        &self,
        indices: &[usize],
        in_shape: &[usize],
        grad_out: &Tensor,
        ws: &mut Workspace,
    ) -> Tensor {
        let mut dx = ws.take_tensor(in_shape);
        let dxd = dx.data_mut();
        for (&idx, &g) in indices.iter().zip(grad_out.data().iter()) {
            dxd[idx] += g;
        }
        dx
    }
}

impl AvgPool2d {
    /// Creates an average-pooling layer.
    pub fn new(kernel: usize, stride: usize) -> Self {
        assert!(kernel > 0 && stride > 0, "kernel and stride must be positive");
        Self { kernel, stride }
    }

    /// Output shape (without batch).
    ///
    /// # Panics
    ///
    /// Panics if the input is not `[C, H, W]` or the window does not fit.
    pub fn output_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        assert_eq!(in_shape.len(), 3, "AvgPool2d expects [C, H, W], got {in_shape:?}");
        let (oh, ow) = pooled_hw(self.kernel, self.stride, in_shape[1], in_shape[2]);
        vec![in_shape[0], oh, ow]
    }

    /// Forward pass into a workspace buffer.
    pub fn forward(&self, x: &Tensor, ws: &mut Workspace) -> (Tensor, Cache) {
        assert_eq!(x.rank(), 4, "AvgPool2d expects [N, C, H, W], got {:?}", x.shape());
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (oh, ow) = pooled_hw(self.kernel, self.stride, h, w);
        let inv = 1.0 / (self.kernel * self.kernel) as f32;
        let mut out = ws.take_empty(n * c * oh * ow);
        let xd = x.data();
        for i in 0..n {
            for ch in 0..c {
                let plane_off = (i * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ky in 0..self.kernel {
                            let iy = oy * self.stride + ky;
                            let row = plane_off + iy * w + ox * self.stride;
                            for kx in 0..self.kernel {
                                acc += xd[row + kx];
                            }
                        }
                        out.push(acc * inv);
                    }
                }
            }
        }
        (Tensor::from_vec(out, &[n, c, oh, ow]), Cache::None)
    }

    /// Backward pass: spreads each output gradient evenly over its window.
    pub fn backward(&self, in_shape: &[usize], grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let (n, c, h, w) = (in_shape[0], in_shape[1], in_shape[2], in_shape[3]);
        let (oh, ow) = pooled_hw(self.kernel, self.stride, h, w);
        let inv = 1.0 / (self.kernel * self.kernel) as f32;
        let mut dx = ws.take_tensor(in_shape);
        let dxd = dx.data_mut();
        let gd = grad_out.data();
        let mut oidx = 0;
        for i in 0..n {
            for ch in 0..c {
                let plane_off = (i * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = gd[oidx] * inv;
                        oidx += 1;
                        for ky in 0..self.kernel {
                            let iy = oy * self.stride + ky;
                            let row = plane_off + iy * w + ox * self.stride;
                            for kx in 0..self.kernel {
                                dxd[row + kx] += g;
                            }
                        }
                    }
                }
            }
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_tensor::rng;

    #[test]
    fn maxpool_known_values() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 10.0, 11.0, 12.0, //
                13.0, 14.0, 15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        );
        let (y, _) = MaxPool2d::new(2, 2).forward(&x, &mut Workspace::new());
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn avgpool_known_values() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 10.0, 11.0, 12.0, //
                13.0, 14.0, 15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        );
        let (y, _) = AvgPool2d::new(2, 2).forward(&x, &mut Workspace::new());
        assert_eq!(y.data(), &[3.5, 5.5, 11.5, 13.5]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1.0, 9.0, 2.0, 3.0], &[1, 1, 2, 2]);
        let layer = MaxPool2d::new(2, 2);
        let (_, cache) = layer.forward(&x, &mut Workspace::new());
        if let Cache::ArgMax(indices) = cache {
            let g = Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]);
            let dx = layer.backward(&indices, x.shape(), &g, &mut Workspace::new());
            assert_eq!(dx.data(), &[0.0, 5.0, 0.0, 0.0]);
        } else {
            panic!("wrong cache kind");
        }
    }

    #[test]
    fn avgpool_backward_spreads_evenly() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let layer = AvgPool2d::new(2, 2);
        let g = Tensor::from_vec(vec![8.0], &[1, 1, 1, 1]);
        let dx = layer.backward(x.shape(), &g, &mut Workspace::new());
        assert_eq!(dx.data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn floor_semantics_drop_partial_windows() {
        let layer = MaxPool2d::new(2, 2);
        assert_eq!(layer.output_shape(&[3, 5, 5]), vec![3, 2, 2]);
    }

    #[test]
    fn pooling_preserves_channel_independence() {
        let mut x = Tensor::zeros(&[1, 2, 2, 2]);
        x.set(&[0, 0, 0, 0], 5.0);
        x.set(&[0, 1, 1, 1], 7.0);
        let (y, _) = MaxPool2d::new(2, 2).forward(&x, &mut Workspace::new());
        assert_eq!(y.data(), &[5.0, 7.0]);
    }

    #[test]
    fn overlapping_stride() {
        let x = Tensor::from_vec((1..=16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let (y, _) = MaxPool2d::new(2, 1).forward(&x, &mut Workspace::new());
        assert_eq!(y.shape(), &[1, 1, 3, 3]);
        assert_eq!(y.at(&[0, 0, 0, 0]), 6.0);
        assert_eq!(y.at(&[0, 0, 2, 2]), 16.0);
    }

    #[test]
    fn batched_pooling_isolates_samples() {
        let mut r = rng::rng(0);
        let x = rng::uniform(&mut r, &[3, 2, 4, 4], -1.0, 1.0);
        let (y, _) = MaxPool2d::new(2, 2).forward(&x, &mut Workspace::new());
        // Pool each sample independently and compare.
        for i in 0..3 {
            let xi = Tensor::from_vec(x.data()[i * 32..(i + 1) * 32].to_vec(), &[1, 2, 4, 4]);
            let (yi, _) = MaxPool2d::new(2, 2).forward(&xi, &mut Workspace::new());
            assert_eq!(&y.data()[i * 8..(i + 1) * 8], yi.data());
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn window_too_large_panics() {
        MaxPool2d::new(4, 4).output_shape(&[1, 3, 3]);
    }
}
