//! 2-D convolution via im2col + matmul.

use std::ops::Range;

use dx_tensor::{kernels, rng::Rng, Tensor, Workspace};

use crate::init::Init;
use crate::layer::Cache;

/// 2-D convolution over `[N, C, H, W]` with square kernels.
///
/// The forward pass lowers each sample to an im2col matrix and performs a
/// single matmul against the `[out_ch, in_ch·k·k]` weight view — the same
/// strategy the large frameworks use, which keeps the fifteen-model zoo
/// trainable on a laptop CPU.
#[derive(Clone, Debug)]
pub struct Conv2d {
    /// Kernel weights, `[out_ch, in_ch, k, k]`.
    pub weight: Tensor,
    /// Per-output-channel bias, `[out_ch]`.
    pub bias: Tensor,
    /// Input channels.
    pub in_ch: usize,
    /// Output channels.
    pub out_ch: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on all sides.
    pub pad: usize,
    /// Initialization scheme used by [`Conv2d::init_weights`].
    pub init: Init,
}

impl Conv2d {
    /// Creates a convolution with zeroed parameters.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        init: Init,
    ) -> Self {
        assert!(
            in_ch > 0 && out_ch > 0 && kernel > 0 && stride > 0,
            "channels, kernel and stride must be positive"
        );
        Self {
            weight: Tensor::zeros(&[out_ch, in_ch, kernel, kernel]),
            bias: Tensor::zeros(&[out_ch]),
            in_ch,
            out_ch,
            kernel,
            stride,
            pad,
            init,
        }
    }

    /// Samples fresh weights; biases reset to zero.
    pub fn init_weights(&mut self, r: &mut Rng) {
        let fan_in = self.in_ch * self.kernel * self.kernel;
        let fan_out = self.out_ch * self.kernel * self.kernel;
        self.weight = self.init.sample(
            r,
            &[self.out_ch, self.in_ch, self.kernel, self.kernel],
            fan_in,
            fan_out,
        );
        self.bias = Tensor::zeros(&[self.out_ch]);
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.pad).checked_sub(self.kernel).map(|v| v / self.stride + 1);
        let ow = (w + 2 * self.pad).checked_sub(self.kernel).map(|v| v / self.stride + 1);
        match (oh, ow) {
            (Some(oh), Some(ow)) if oh > 0 && ow > 0 => (oh, ow),
            _ => panic!(
                "Conv2d k{} s{} p{} cannot consume a {h}x{w} input",
                self.kernel, self.stride, self.pad
            ),
        }
    }

    /// Output shape (without batch) for shape validation.
    ///
    /// # Panics
    ///
    /// Panics unless the input is `[in_ch, H, W]` with the kernel fitting.
    pub fn output_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        assert_eq!(in_shape.len(), 3, "Conv2d expects [C, H, W] input, got {in_shape:?}");
        assert_eq!(
            in_shape[0], self.in_ch,
            "Conv2d expects {} input channels, got shape {in_shape:?}",
            self.in_ch
        );
        let (oh, ow) = self.out_hw(in_shape[1], in_shape[2]);
        vec![self.out_ch, oh, ow]
    }

    /// Lowering geometry for an `[N, C, H, W]` input shape.
    fn lowering(&self, shape: &[usize]) -> Lowering {
        assert_eq!(shape.len(), 4, "Conv2d expects [N, C, H, W], got {shape:?}");
        let (c, h, w) = (shape[1], shape[2], shape[3]);
        assert_eq!(c, self.in_ch, "Conv2d expects {} channels, got {shape:?}", self.in_ch);
        let (oh, ow) = self.out_hw(h, w);
        Lowering { c, h, w, k: self.kernel, stride: self.stride, pad: self.pad, oh, ow }
    }

    /// Forward pass over `[N, C, H, W]` with the im2col matrix and the
    /// result drawn from the workspace.
    ///
    /// The `[out_ch, C·k·k]` weight view is the weight's own contiguous
    /// buffer, and each sample's matmul accumulates straight into its
    /// (zeroed) slice of the result, the bias added in place afterwards.
    /// Returns [`Cache::None`]: the backward re-derives the im2col matrix
    /// from the recorded input.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn forward_ws(&self, x: &Tensor, ws: &mut Workspace) -> (Tensor, Cache) {
        let g = self.lowering(x.shape());
        let (n, rows, cols) = (x.shape()[0], g.rows(), g.cols());
        let sample_out = self.out_ch * cols;
        let mut out = ws.take(n * sample_out);
        let mut col_buf = ws.take(rows * cols);
        for (xin, y) in x.data().chunks_exact(g.sample_len()).zip(out.chunks_exact_mut(sample_out))
        {
            im2col(xin, &g, &mut col_buf);
            kernels::matmul_acc(self.weight.data(), &col_buf, self.out_ch, rows, cols, y);
            for (y_ch, &b) in y.chunks_exact_mut(cols).zip(self.bias.data()) {
                for v in y_ch {
                    *v += b;
                }
            }
        }
        ws.put(col_buf);
        (Tensor::from_vec(out, &[n, self.out_ch, g.oh, g.ow]), Cache::None)
    }

    /// Input gradient only, with all intermediates (transposed weight view,
    /// per-sample column gradients, result) drawn from the workspace.
    ///
    /// The transposed weight is built once per call and amortized across the
    /// batch.
    ///
    /// # Panics
    ///
    /// Panics if `grad_out` does not match the output shape for `in_shape`.
    pub fn backward_input_ws(
        &self,
        in_shape: &[usize],
        grad_out: &Tensor,
        ws: &mut Workspace,
    ) -> Tensor {
        let g = self.lowering(in_shape);
        let (n, rows, cols) = (in_shape[0], g.rows(), g.cols());
        assert_eq!(
            grad_out.shape(),
            &[n, self.out_ch, g.oh, g.ow],
            "Conv2d backward: grad shape {:?} does not match output",
            grad_out.shape()
        );
        let mut w_mat_t = ws.take(rows * self.out_ch);
        transpose_into(self.weight.data(), self.out_ch, rows, &mut w_mat_t);
        let mut dx = ws.take(n * g.sample_len());
        let mut dcols = ws.take(rows * cols);
        for (gi, dxi) in grad_out
            .data()
            .chunks_exact(self.out_ch * cols)
            .zip(dx.chunks_exact_mut(g.sample_len()))
        {
            // dCols = W^T · dY, scattered back to input positions.
            dcols.fill(0.0);
            kernels::matmul_acc(&w_mat_t, gi, rows, self.out_ch, cols, &mut dcols);
            col2im(&dcols, &g, dxi);
        }
        ws.put(w_mat_t);
        ws.put(dcols);
        Tensor::from_vec(dx, in_shape)
    }

    /// Backward pass: `(dx, [dW, db])`, `dx` being
    /// [`Conv2d::backward_input_ws`]'s. The im2col matrix is re-derived from
    /// the recorded input `x` rather than stored, trading a little compute
    /// for a much smaller forward-pass footprint.
    pub fn backward(
        &self,
        x: &Tensor,
        grad_out: &Tensor,
        want_param_grads: bool,
        ws: &mut Workspace,
    ) -> (Tensor, Vec<Tensor>) {
        let dx = self.backward_input_ws(x.shape(), grad_out, ws);
        if !want_param_grads {
            return (dx, vec![]);
        }
        let g = self.lowering(x.shape());
        let (rows, cols) = (g.rows(), g.cols());
        let mut dw = vec![0.0f32; self.out_ch * rows];
        let mut db = vec![0.0f32; self.out_ch];
        let mut col_buf = ws.take(rows * cols);
        let mut col_t = ws.take(cols * rows);
        let mut dw_i = ws.take(self.out_ch * rows);
        for (xin, gi) in x
            .data()
            .chunks_exact(g.sample_len())
            .zip(grad_out.data().chunks_exact(self.out_ch * cols))
        {
            im2col(xin, &g, &mut col_buf);
            transpose_into(&col_buf, rows, cols, &mut col_t);
            // dW += dY · cols^T, each sample's product completed before it is added.
            dw_i.fill(0.0);
            kernels::matmul_acc(gi, &col_t, self.out_ch, cols, rows, &mut dw_i);
            for (d, &s) in dw.iter_mut().zip(dw_i.iter()) {
                *d += s;
            }
            for (b, g_ch) in db.iter_mut().zip(gi.chunks_exact(cols)) {
                *b += g_ch.iter().sum::<f32>();
            }
        }
        for buf in [col_buf, col_t, dw_i] {
            ws.put(buf);
        }
        let dw = Tensor::from_vec(dw, &[self.out_ch, self.in_ch, g.k, g.k]);
        (dx, vec![dw, Tensor::from_vec(db, &[self.out_ch])])
    }
}

/// `dst[c][r] = src[r][c]` for row-major `src[rows, cols]`.
fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    for (r, src_row) in src.chunks_exact(cols).enumerate() {
        for (c, &v) in src_row.iter().enumerate() {
            dst[c * rows + r] = v;
        }
    }
}

/// Geometry of one `[C, H, W]` sample's lowering to a `[C·k·k, OH·OW]`
/// im2col matrix.
#[derive(Clone, Copy, Debug)]
struct Lowering {
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
}

impl Lowering {
    fn rows(&self) -> usize {
        self.c * self.k * self.k
    }

    fn cols(&self) -> usize {
        self.oh * self.ow
    }

    fn sample_len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// The taps `(ch, ky, kx)` in im2col-matrix row order. Which outputs a
    /// tap reads inside the sample depends on its row and column offset
    /// alone, so both ranges are computed here, once per tap, and the
    /// lowerings move whole output rows without a per-element bounds branch.
    fn taps(&self) -> impl Iterator<Item = Tap> + '_ {
        let Lowering { h, w, k, stride, pad, oh, ow, .. } = *self;
        // Outputs `o` with `0 <= o·stride + off − pad < len`.
        let inside = move |off: usize, len: usize, outs: usize| {
            let lo = pad.saturating_sub(off).div_ceil(stride).min(outs);
            lo..(len + pad).saturating_sub(off).div_ceil(stride).min(outs)
        };
        (0..self.rows()).map(move |row| {
            let (ch, ky, kx) = (row / (k * k), row / k % k, row % k);
            let (ys, xs) = (inside(ky, h, oh), inside(kx, w, ow));
            if ys.is_empty() || xs.is_empty() {
                return Tap { ys: 0..0, xs: 0..0, src: 0 };
            }
            let src = (ch * h + ys.start * stride + ky - pad) * w + xs.start * stride + kx - pad;
            Tap { ys, xs, src }
        })
    }
}

/// One kernel tap's window onto the sample: outputs `ys × xs` read real
/// elements (every other output of the tap's matrix row is padding), output
/// `(ys.start, xs.start)` reads sample element `src`, the next output right
/// reads `stride` elements on and the next output down `stride·w` on.
struct Tap {
    ys: Range<usize>,
    xs: Range<usize>,
    src: usize,
}

/// Lowers one `[C, H, W]` sample into its im2col matrix (row-major into
/// `out`). Out-of-bounds taps are zero.
fn im2col(x: &[f32], g: &Lowering, out: &mut [f32]) {
    debug_assert_eq!(out.len(), g.rows() * g.cols());
    for (Tap { ys, xs, src }, dst) in g.taps().zip(out.chunks_exact_mut(g.cols())) {
        dst[..ys.start * g.ow].fill(0.0);
        dst[ys.end * g.ow..].fill(0.0);
        for (i, dst) in dst[ys.start * g.ow..ys.end * g.ow].chunks_exact_mut(g.ow).enumerate() {
            let src = &x[src + i * g.stride * g.w..];
            dst[..xs.start].fill(0.0);
            dst[xs.end..].fill(0.0);
            if g.stride == 1 {
                dst[xs.clone()].copy_from_slice(&src[..xs.len()]);
            } else {
                for (d, &s) in dst[xs.clone()].iter_mut().zip(src.iter().step_by(g.stride)) {
                    *d = s;
                }
            }
        }
    }
}

/// Scatter-adds an im2col-shaped gradient back onto the input sample —
/// the adjoint of [`im2col`].
fn col2im(cols_grad: &[f32], g: &Lowering, out: &mut [f32]) {
    for (Tap { ys, xs, src }, tap) in g.taps().zip(cols_grad.chunks_exact(g.cols())) {
        for (i, row) in tap[ys.start * g.ow..ys.end * g.ow].chunks_exact(g.ow).enumerate() {
            let dst = &mut out[src + i * g.stride * g.w..];
            if g.stride == 1 {
                for (d, &s) in dst[..xs.len()].iter_mut().zip(&row[xs.clone()]) {
                    *d += s;
                }
            } else {
                for (d, &s) in dst.iter_mut().step_by(g.stride).zip(&row[xs.clone()]) {
                    *d += s;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_tensor::rng;

    /// Direct (quadruple-loop) convolution used as a test oracle.
    fn conv_oracle(x: &Tensor, layer: &Conv2d) -> Tensor {
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (oh, ow) = layer.out_hw(h, w);
        let k = layer.kernel;
        let mut out = Tensor::zeros(&[n, layer.out_ch, oh, ow]);
        for i in 0..n {
            for oc in 0..layer.out_ch {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = layer.bias.data()[oc];
                        for ic in 0..c {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let iy = (oy * layer.stride + ky) as isize - layer.pad as isize;
                                    let ix = (ox * layer.stride + kx) as isize - layer.pad as isize;
                                    if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w
                                    {
                                        acc += x.at(&[i, ic, iy as usize, ix as usize])
                                            * layer.weight.at(&[oc, ic, ky, kx]);
                                    }
                                }
                            }
                        }
                        out.set(&[i, oc, oy, ox], acc);
                    }
                }
            }
        }
        out
    }

    /// The per-element lowering the slice-moving [`im2col`] replaced: one
    /// bounds branch per matrix element. Kept as the bit-exact oracle.
    fn im2col_ref(x: &[f32], g: &Lowering, out: &mut [f32]) {
        let Lowering { c, h, w, k, stride, pad, oh, ow } = *g;
        for ch in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            let inside = iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize;
                            out[(((ch * k + ky) * k + kx) * oh + oy) * ow + ox] = if inside {
                                x[(ch * h + iy as usize) * w + ix as usize]
                            } else {
                                0.0
                            };
                        }
                    }
                }
            }
        }
    }

    /// Per-element scatter-add oracle for [`col2im`], same visiting order.
    fn col2im_ref(cols_grad: &[f32], g: &Lowering, out: &mut [f32]) {
        let Lowering { c, h, w, k, stride, pad, oh, ow } = *g;
        for ch in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                out[(ch * h + iy as usize) * w + ix as usize] +=
                                    cols_grad[(((ch * k + ky) * k + kx) * oh + oy) * ow + ox];
                            }
                        }
                    }
                }
            }
        }
    }

    /// The forward pass as it stood before the workspace rewrite: per-sample
    /// reference lowering, an allocating `Tensor::matmul`, bias added on copy.
    fn forward_ref(layer: &Conv2d, x: &Tensor) -> Tensor {
        let g = layer.lowering(x.shape());
        let (n, rows, cols) = (x.shape()[0], g.rows(), g.cols());
        let w_mat = layer.weight.reshape(&[layer.out_ch, rows]);
        let mut out = Vec::new();
        for i in 0..n {
            let mut col = vec![f32::NAN; rows * cols];
            im2col_ref(&x.data()[i * g.sample_len()..(i + 1) * g.sample_len()], &g, &mut col);
            let y = w_mat.matmul(&Tensor::from_vec(col, &[rows, cols]));
            for oc in 0..layer.out_ch {
                let b = layer.bias.data()[oc];
                out.extend(y.data()[oc * cols..(oc + 1) * cols].iter().map(|&v| v + b));
            }
        }
        Tensor::from_vec(out, &[n, layer.out_ch, g.oh, g.ow])
    }

    /// The cache-based backward as it stood before it shared the workspace
    /// path: `(dx, dW, db)` through allocating tensor ops.
    fn backward_ref(layer: &Conv2d, x: &Tensor, grad_out: &Tensor) -> (Tensor, Tensor, Tensor) {
        let g = layer.lowering(x.shape());
        let (n, rows, cols) = (x.shape()[0], g.rows(), g.cols());
        let w_mat_t = layer.weight.reshape(&[layer.out_ch, rows]).transpose();
        let mut dx = Tensor::zeros(x.shape());
        let mut dw_mat = Tensor::zeros(&[layer.out_ch, rows]);
        let mut db = vec![0.0f32; layer.out_ch];
        let sample_out = layer.out_ch * cols;
        for i in 0..n {
            let gi = &grad_out.data()[i * sample_out..(i + 1) * sample_out];
            let g_mat = Tensor::from_vec(gi.to_vec(), &[layer.out_ch, cols]);
            let dcols = w_mat_t.matmul(&g_mat);
            let span = i * g.sample_len()..(i + 1) * g.sample_len();
            col2im_ref(dcols.data(), &g, &mut dx.data_mut()[span.clone()]);
            let mut col = vec![f32::NAN; rows * cols];
            im2col_ref(&x.data()[span], &g, &mut col);
            dw_mat += &g_mat.matmul(&Tensor::from_vec(col, &[rows, cols]).transpose());
            for oc in 0..layer.out_ch {
                db[oc] += gi[oc * cols..(oc + 1) * cols].iter().sum::<f32>();
            }
        }
        let dw = dw_mat.reshape(&[layer.out_ch, layer.in_ch, g.k, g.k]);
        (dx, dw, Tensor::from_vec(db, &[layer.out_ch]))
    }

    /// Bit patterns, with every NaN mapped to one: which operand's sign and
    /// payload a NaN sum inherits is the compiler's choice of operand order,
    /// not something either lowering defines.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| if f.is_nan() { f32::NAN.to_bits() } else { f.to_bits() }).collect()
    }

    /// Every lowering the grid tests run: kernel × stride × pad (through
    /// `pad >= k`) on non-square planes down to a single pixel — which
    /// includes taps whose valid `ox` range is empty (`w + pad <= kx`) —
    /// plus the DAVE first layer.
    fn geometries() -> Vec<Lowering> {
        let lower = |c, k, stride, pad, h, w| {
            Conv2d::new(c, 1, k, stride, pad, Init::Zeros).lowering(&[1, c, h, w])
        };
        let mut all = vec![lower(1, 5, 2, 0, 33, 100)];
        for k in [1, 3, 5] {
            for stride in [1, 2, 3] {
                for pad in [0, 1, 2, k, k + 1] {
                    for (h, w) in [(5, 7), (7, 5), (6, 11), (1, 1), (2, 1), (1, 4)] {
                        if h + 2 * pad >= k && w + 2 * pad >= k {
                            all.push(lower(2, k, stride, pad, h, w));
                        }
                    }
                }
            }
        }
        all
    }

    /// `len` values in ±1, except that every position `border` marks holds
    /// NaN / +inf / -inf in rotation.
    fn plane_data(seed: u64, len: usize, border: impl Fn(usize) -> bool) -> Vec<f32> {
        let mut v = rng::uniform(&mut rng::rng(seed), &[len], -1.0, 1.0).into_vec();
        for (i, x) in v.iter_mut().enumerate().filter(|(i, _)| border(*i)) {
            *x = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][i % 3];
        }
        v
    }

    #[test]
    fn lowering_is_bit_identical_to_the_per_element_reference() {
        let mut empty_ranges = 0;
        for (seed, g) in geometries().into_iter().enumerate() {
            let (k, h, w, oh, ow) = (g.k, g.h, g.w, g.oh, g.ow);
            empty_ranges += (0..k).filter(|&kx| w + g.pad <= kx).count();
            for non_finite in [false, true] {
                let edge = |i: usize, rows: usize, cols: usize| {
                    let (y, x) = (i / cols % rows, i % cols);
                    non_finite && (y == 0 || y == rows - 1 || x == 0 || x == cols - 1)
                };
                let x = plane_data(seed as u64, g.sample_len(), |i| edge(i, h, w));
                // Pre-dirtied: im2col must overwrite padding, not assume zeros.
                let (mut got, mut want) =
                    (vec![7.0; g.rows() * g.cols()], vec![7.0; g.rows() * g.cols()]);
                im2col(&x, &g, &mut got);
                im2col_ref(&x, &g, &mut want);
                assert_eq!(bits(&got), bits(&want), "im2col k{k} s{} p{} {h}x{w}", g.stride, g.pad);

                let y = plane_data(seed as u64 + 1000, g.rows() * g.cols(), |i| edge(i, oh, ow));
                // Pre-filled: col2im accumulates.
                let (mut got, mut want) = (x.clone(), x.clone());
                col2im(&y, &g, &mut got);
                col2im_ref(&y, &g, &mut want);
                assert_eq!(bits(&got), bits(&want), "col2im k{k} s{} p{} {h}x{w}", g.stride, g.pad);
            }
        }
        assert!(empty_ranges > 0, "the grid lost its empty-range taps");
    }

    #[test]
    fn col2im_is_the_adjoint_of_im2col() {
        // Small-integer data keeps every product and sum exact, so
        // <im2col(x), y> == <x, col2im(y)> holds to the bit.
        for (seed, g) in geometries().into_iter().enumerate() {
            let ints = |seed: u64, len: usize| -> Vec<f32> {
                rng::uniform(&mut rng::rng(seed), &[len], -4.0, 4.0)
                    .data()
                    .iter()
                    .map(|v| v.round())
                    .collect()
            };
            let x = ints(seed as u64, g.sample_len());
            let y = ints(seed as u64 + 500, g.rows() * g.cols());
            let mut lowered = vec![0.0; y.len()];
            im2col(&x, &g, &mut lowered);
            let mut raised = vec![0.0; x.len()];
            col2im(&y, &g, &mut raised);
            let dot = |a: &[f32], b: &[f32]| {
                a.iter().zip(b).map(|(&p, &q)| f64::from(p * q)).sum::<f64>()
            };
            assert_eq!(dot(&lowered, &y), dot(&x, &raised), "k{} s{} p{}", g.k, g.stride, g.pad);
        }
    }

    #[test]
    fn passes_are_bit_identical_to_the_pre_workspace_references() {
        for (seed, g) in geometries().into_iter().enumerate() {
            let mut layer = Conv2d::new(g.c, 3, g.k, g.stride, g.pad, Init::XavierUniform);
            layer.init_weights(&mut rng::rng(seed as u64));
            layer.bias = rng::uniform(&mut rng::rng(seed as u64 + 1), &[3], -0.5, 0.5);
            for n in [1, 3, 4] {
                let x =
                    rng::uniform(&mut rng::rng(seed as u64 + 2), &[n, g.c, g.h, g.w], -1.0, 1.0);
                let want = forward_ref(&layer, &x);
                let mut ws = Workspace::new();
                let (y_ws, _) = layer.forward_ws(&x, &mut ws);
                assert_eq!(y_ws.shape(), want.shape());
                assert_eq!(bits(y_ws.data()), bits(want.data()), "forward_ws n{n} {g:?}");

                let grad = rng::uniform(&mut rng::rng(seed as u64 + 3), want.shape(), -1.0, 1.0);
                let (dx_want, dw_want, db_want) = backward_ref(&layer, &x, &grad);
                // A warm workspace: stale pooled buffers must not leak in.
                let dx_ws = layer.backward_input_ws(x.shape(), &grad, &mut ws);
                assert_eq!(
                    bits(dx_ws.data()),
                    bits(dx_want.data()),
                    "backward_input_ws n{n} {g:?}"
                );
                let (dx, none) = layer.backward(&x, &grad, false, &mut ws);
                assert_eq!(bits(dx.data()), bits(dx_want.data()), "backward n{n} {g:?}");
                assert!(none.is_empty());
                let (dx, grads) = layer.backward(&x, &grad, true, &mut ws);
                assert_eq!(bits(dx.data()), bits(dx_want.data()));
                assert_eq!(grads[0].shape(), dw_want.shape());
                assert_eq!(bits(grads[0].data()), bits(dw_want.data()), "dW n{n} {g:?}");
                assert_eq!(bits(grads[1].data()), bits(db_want.data()), "db n{n} {g:?}");
            }
        }
    }

    fn random_layer(in_ch: usize, out_ch: usize, k: usize, s: usize, p: usize) -> Conv2d {
        let mut l = Conv2d::new(in_ch, out_ch, k, s, p, Init::XavierUniform);
        l.init_weights(&mut rng::rng(42));
        l.bias = rng::uniform(&mut rng::rng(43), &[out_ch], -0.5, 0.5);
        l
    }

    #[test]
    fn matches_direct_convolution_no_pad() {
        let layer = random_layer(2, 3, 3, 1, 0);
        let x = rng::uniform(&mut rng::rng(1), &[2, 2, 6, 6], -1.0, 1.0);
        let (y, _) = layer.forward_ws(&x, &mut Workspace::new());
        let want = conv_oracle(&x, &layer);
        assert_eq!(y.shape(), want.shape());
        for (a, b) in y.data().iter().zip(want.data().iter()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn matches_direct_convolution_with_pad_and_stride() {
        let layer = random_layer(3, 4, 3, 2, 1);
        let x = rng::uniform(&mut rng::rng(2), &[1, 3, 7, 7], -1.0, 1.0);
        let (y, _) = layer.forward_ws(&x, &mut Workspace::new());
        let want = conv_oracle(&x, &layer);
        assert_eq!(y.shape(), want.shape());
        for (a, b) in y.data().iter().zip(want.data().iter()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn output_shape_formula() {
        let layer = Conv2d::new(1, 8, 5, 1, 0, Init::HeNormal);
        assert_eq!(layer.output_shape(&[1, 28, 28]), vec![8, 24, 24]);
        let strided = Conv2d::new(3, 24, 5, 2, 0, Init::HeNormal);
        assert_eq!(strided.output_shape(&[3, 66, 200]), vec![24, 31, 98]);
    }

    #[test]
    #[should_panic(expected = "cannot consume")]
    fn kernel_too_large_panics() {
        Conv2d::new(1, 1, 9, 1, 0, Init::HeNormal).output_shape(&[1, 4, 4]);
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // A single 1x1 kernel with weight 1 and bias 0 is the identity.
        let mut layer = Conv2d::new(1, 1, 1, 1, 0, Init::Zeros);
        layer.weight = Tensor::ones(&[1, 1, 1, 1]);
        let x = rng::uniform(&mut rng::rng(3), &[2, 1, 4, 4], -1.0, 1.0);
        let (y, _) = layer.forward_ws(&x, &mut Workspace::new());
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn backward_shapes() {
        let layer = random_layer(2, 3, 3, 1, 1);
        let x = rng::uniform(&mut rng::rng(4), &[2, 2, 5, 5], -1.0, 1.0);
        let mut ws = Workspace::new();
        let (y, _) = layer.forward_ws(&x, &mut ws);
        let g = Tensor::ones(y.shape());
        let (dx, grads) = layer.backward(&x, &g, true, &mut ws);
        assert_eq!(dx.shape(), x.shape());
        assert_eq!(grads[0].shape(), layer.weight.shape());
        assert_eq!(grads[1].shape(), layer.bias.shape());
    }

    #[test]
    fn bias_gradient_counts_positions() {
        // With dY = 1 everywhere, db equals the number of output positions.
        let layer = random_layer(1, 2, 3, 1, 0);
        let x = rng::uniform(&mut rng::rng(5), &[1, 1, 5, 5], -1.0, 1.0);
        let mut ws = Workspace::new();
        let (y, _) = layer.forward_ws(&x, &mut ws);
        let g = Tensor::ones(y.shape());
        let (_, grads) = layer.backward(&x, &g, true, &mut ws);
        let positions = (y.shape()[2] * y.shape()[3]) as f32;
        assert_eq!(grads[1].data(), &[positions, positions]);
    }
}
