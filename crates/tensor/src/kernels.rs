//! Autovectorization-friendly matmul kernels over raw `&[f32]` slices.
//!
//! These are the hot-path kernels behind [`crate::Tensor::matmul`] and the
//! batched forward/backward passes in `dx-nn`. Three properties are
//! load-bearing and must survive any future tuning:
//!
//! - **Bit-compatibility with the naive ikj reference.** Every output
//!   element accumulates its `k` terms in ascending order, and terms whose
//!   *lhs* element is exactly `0.0` are skipped (the historical `matmul`
//!   semantics the workspace's bit-exact checkpoints rest on). Cache
//!   blocking below reorders traversal across *elements*, never within one
//!   element's reduction, so results are identical to the unblocked loop.
//!   The same holds for the k-unroll in [`matmul_acc`]: four lhs terms are
//!   consumed per sweep of the output row, but each element is still
//!   `(((o + a0·b0) + a1·b1) + a2·b2) + a3·b3` — ascending `k`, one rounding
//!   per add, no fused multiply-add — so the unroll saves three of every
//!   four loads and stores of `o` and changes no bit. A quad holding a
//!   `0.0` lhs term (post-ReLU activations are full of them) falls back to
//!   the one-term-at-a-time loop, because the skip is semantic, not just a
//!   shortcut: multiplying through would turn `0·inf` into NaN.
//! - **Contiguous inner loops without bounds checks.** Inner loops zip
//!   subslices, which the compiler proves in-bounds and autovectorizes;
//!   there is no indexed access in any inner loop.
//! - **Caller-owned output buffers.** Every kernel writes into a caller
//!   slice so callers can reuse arena buffers ([`crate::Workspace`]) instead
//!   of allocating per call.
//!
//! Blocking rationale (the same tiling-for-memory-hierarchy playbook GPU
//! tile frameworks use, applied to L1): for `a[m,k] · b[k,n]` the ikj loop
//! streams `b` once per lhs row, so the `[KB, JB]` block of `b` selected by
//! the two outer block loops stays L1-resident while all `m` lhs rows pass
//! over it. With batched inputs (`m = N` seeds instead of 1) each `b` load
//! is amortized over `N` rows — the core reason the batched campaign path
//! outruns the scalar one.

/// k-dimension block: how many rhs rows are revisited per lhs-row sweep.
const KB: usize = 64;
/// n-dimension block: rhs row segment length kept hot across lhs rows.
const JB: usize = 256;

/// `out += a · b` for row-major `a[m,k]`, `b[k,n]`, `out[m,n]`.
///
/// Accumulates into `out` (callers wanting a plain product must zero it
/// first — [`Workspace::take`](crate::Workspace::take) hands out zeroed
/// buffers). Terms with `a == 0.0` are skipped, matching the historical
/// `Tensor::matmul` semantics; per-element accumulation order is ascending
/// `k` regardless of blocking and of the four-term unroll.
///
/// # Panics
///
/// Panics when the slice lengths do not match the given dimensions.
pub fn matmul_acc(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul lhs length {} != {m}x{k}", a.len());
    assert_eq!(b.len(), k * n, "matmul rhs length {} != {k}x{n}", b.len());
    assert_eq!(out.len(), m * n, "matmul out length {} != {m}x{n}", out.len());
    let mut kb = 0;
    while kb < k {
        let kend = (kb + KB).min(k);
        let mut jb = 0;
        while jb < n {
            let jend = (jb + JB).min(n);
            for i in 0..m {
                let a_row = &a[i * k + kb..i * k + kend];
                let o_row = &mut out[i * n + jb..i * n + jend];
                let b_seg = |p: usize| &b[(kb + p) * n + jb..(kb + p) * n + jend];
                for (q, quad) in a_row.chunks(4).enumerate() {
                    let p = 4 * q;
                    match *quad {
                        [a0, a1, a2, a3] if a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0 => {
                            let rhs = b_seg(p).iter().zip(b_seg(p + 1)).zip(b_seg(p + 2));
                            for ((o, ((&b0, &b1), &b2)), &b3) in
                                o_row.iter_mut().zip(rhs).zip(b_seg(p + 3))
                            {
                                *o = (((*o + a0 * b0) + a1 * b1) + a2 * b2) + a3 * b3;
                            }
                        }
                        // A short tail, or a quad holding a zero lhs term.
                        _ => {
                            for (t, &av) in quad.iter().enumerate() {
                                if av == 0.0 {
                                    continue;
                                }
                                for (o, &bv) in o_row.iter_mut().zip(b_seg(p + t)) {
                                    *o += av * bv;
                                }
                            }
                        }
                    }
                }
            }
            jb = jend;
        }
        kb = kend;
    }
}

/// `out += a · bᵀ` for row-major `a[m,k]`, `b[n,k]`, `out[m,n]`.
///
/// The transposed-rhs product: `out[i][j]` is the dot product of `a` row
/// `i` with `b` row `j` — both contiguous, so no transpose materializes.
/// This is the backward-pass kernel for dense layers (`dx = g · Wᵀ` with
/// `W` stored `[I, O]` reads `W` rows directly). The reduction runs over
/// ascending `k` *without* the zero-skip (a dot product has no sparse lhs
/// to exploit); relative to a zero-skipping product this can only differ
/// in the sign of a zero, which no downstream comparison observes.
///
/// # Panics
///
/// Panics when the slice lengths do not match the given dimensions.
pub fn matmul_bt_acc(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul_bt lhs length {} != {m}x{k}", a.len());
    assert_eq!(b.len(), n * k, "matmul_bt rhs length {} != {n}x{k}", b.len());
    assert_eq!(out.len(), m * n, "matmul_bt out length {} != {m}x{n}", out.len());
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        for (j, o) in o_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            *o += a_row.iter().zip(b_row.iter()).map(|(&x, &y)| x * y).sum::<f32>();
        }
    }
}

/// Activation applied by the fused kernel after the bias add.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FusedAct {
    /// No activation — plain `x·W + b`.
    Identity,
    /// Rectified linear unit.
    Relu,
}

/// Fused `out = act(a · b + bias)` for `a[m,k]`, `b[k,n]`, `bias[n]`.
///
/// One buffer pass instead of three (matmul, bias sweep, activation map).
/// The float semantics are exactly the unfused pipeline's: the matmul sum
/// completes first (ascending `k`, zero-skip), then the bias is added,
/// then the activation applies — fusion removes memory traffic, not
/// operations, so results are bit-identical to the separate steps.
///
/// # Panics
///
/// Panics when slice lengths do not match the given dimensions.
#[expect(clippy::too_many_arguments, reason = "three slices plus their dimensions")]
pub fn matmul_bias_act(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    m: usize,
    k: usize,
    n: usize,
    act: FusedAct,
    out: &mut [f32],
) {
    assert_eq!(bias.len(), n, "bias length {} != {n}", bias.len());
    out.fill(0.0);
    matmul_acc(a, b, m, k, n, out);
    for o_row in out.chunks_exact_mut(n) {
        for (o, &bv) in o_row.iter_mut().zip(bias.iter()) {
            let v = *o + bv;
            *o = match act {
                FusedAct::Identity => v,
                FusedAct::Relu => v.max(0.0),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unblocked, one-term-at-a-time ikj reference (the kernel's inner
    /// loop before the k-unroll) that `matmul_acc` must match bit-for-bit.
    fn matmul_naive_acc(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let o_row = &mut out[i * n..(i + 1) * n];
            for (p, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b[p * n..(p + 1) * n];
                for (o, &bv) in o_row.iter_mut().zip(b_row.iter()) {
                    *o += av * bv;
                }
            }
        }
    }

    fn matmul_naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        matmul_naive_acc(a, b, m, k, n, &mut out);
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    fn pseudo(seed: u64, len: usize) -> Vec<f32> {
        // Deterministic values with varied magnitudes and some exact zeros.
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let v = ((s >> 33) as i32 % 1000) as f32 / 97.0;
                if (s >> 21).is_multiple_of(7) {
                    0.0
                } else {
                    v
                }
            })
            .collect()
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_naive() {
        // Sizes straddling the block boundaries in both k and n, and every
        // k around the quad (4) and block (64, 128) edges of the unroll.
        let mut sizes =
            vec![(1, 3, 2), (2, 64, 256), (3, 65, 257), (8, 400, 120), (5, 130, 300), (1, 1, 1)];
        sizes.extend((1..=9).chain(63..=66).chain([130]).map(|k| (3, k, 11)));
        for (m, k, n) in sizes {
            let a = pseudo(m as u64 * 31 + k as u64, m * k);
            let b = pseudo(n as u64 * 17 + 5, k * n);
            // Dense: no zero anywhere, so every full quad takes the unrolled path.
            let dense: Vec<f32> = a.iter().map(|&v| if v == 0.0 { 0.5 } else { v }).collect();
            let mut lhs = vec![a.clone(), dense.clone()];
            // A zero in each quad lane in turn, a -0.0, and an all-zero row.
            for lane in 0..4 {
                let mut z = dense.clone();
                z.iter_mut().skip(lane).step_by(4).for_each(|v| *v = 0.0);
                lhs.push(z);
            }
            let mut z = dense.clone();
            z[k / 2] = -0.0;
            z[(m - 1) * k..].fill(0.0);
            lhs.push(z);
            for a in &lhs {
                // A non-zero pre-filled `out`: the kernel accumulates.
                let mut want = pseudo(99, m * n);
                let mut got = want.clone();
                matmul_naive_acc(a, &b, m, k, n, &mut want);
                matmul_acc(a, &b, m, k, n, &mut got);
                assert_eq!(bits(&got), bits(&want), "mismatch at {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn zero_lhs_skips_non_finite_rhs_in_every_quad_lane() {
        // The unrolled path multiplies unconditionally, so a quad holding a
        // zero lhs must fall back to the per-term skip: 0·inf may not turn
        // into NaN.
        for k in [4, 7, 8, 70] {
            for lane in 0..k {
                let mut a = vec![1.5f32; k];
                a[lane] = if lane % 2 == 0 { 0.0 } else { -0.0 };
                let mut b = vec![2.0f32; k * 3];
                b[lane * 3..lane * 3 + 3].copy_from_slice(&[
                    f32::NAN,
                    f32::INFINITY,
                    -f32::INFINITY,
                ]);
                let mut out = vec![0.25f32; 3];
                matmul_acc(&a, &b, 1, k, 3, &mut out);
                let mut want = vec![0.25f32; 3];
                matmul_naive_acc(&a, &b, 1, k, 3, &mut want);
                assert!(out.iter().all(|v| v.is_finite()), "k{k} lane {lane}: {out:?}");
                assert_eq!(bits(&out), bits(&want), "k{k} lane {lane}");
            }
        }
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose() {
        for &(m, k, n) in &[(2, 5, 3), (4, 64, 64), (7, 100, 13)] {
            let a = pseudo(m as u64 + 1, m * k);
            let b = pseudo(n as u64 + 2, n * k); // b is [n, k]
            let mut bt = vec![0.0f32; k * n];
            for j in 0..n {
                for p in 0..k {
                    bt[p * n + j] = b[j * k + p];
                }
            }
            let want = matmul_naive(&a, &bt, m, k, n);
            let mut got = vec![0.0f32; m * n];
            matmul_bt_acc(&a, &b, m, k, n, &mut got);
            for (g, w) in got.iter().zip(want.iter()) {
                // Zero-skip vs dot product may flip a zero's sign; values are
                // otherwise identical because both reduce over ascending k.
                assert!(
                    g.to_bits() == w.to_bits() || (*g == 0.0 && *w == 0.0),
                    "{g} vs {w} at {m}x{k}x{n}"
                );
            }
        }
    }

    #[test]
    fn fused_matches_separate_steps_bitwise() {
        for act in [FusedAct::Identity, FusedAct::Relu] {
            let (m, k, n) = (6, 70, 40);
            let a = pseudo(9, m * k);
            let b = pseudo(10, k * n);
            let bias = pseudo(11, n);
            let mut want = matmul_naive(&a, &b, m, k, n);
            for row in want.chunks_exact_mut(n) {
                for (o, &bv) in row.iter_mut().zip(bias.iter()) {
                    *o += bv;
                    if act == FusedAct::Relu {
                        *o = o.max(0.0);
                    }
                }
            }
            let mut got = vec![1.0f32; m * n]; // pre-dirty: fused must overwrite
            matmul_bias_act(&a, &b, &bias, m, k, n, act, &mut got);
            assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn kernels_propagate_non_finite_inputs() {
        // NaN in the lhs must reach the output (the PR 4 coverage fix
        // depends on non-finite activations staying visible, not being
        // silently zeroed by a kernel shortcut).
        let a = vec![f32::NAN, 1.0];
        let b = vec![2.0, 3.0];
        let mut out = vec![0.0f32; 1];
        matmul_acc(&a, &b, 1, 2, 1, &mut out);
        assert!(out[0].is_nan());
        let mut out_bt = vec![0.0f32; 1];
        matmul_bt_acc(&a, &b, 1, 2, 1, &mut out_bt);
        assert!(out_bt[0].is_nan());
        let mut out_f = vec![0.0f32; 1];
        matmul_bias_act(&a, &b, &[0.5], 1, 2, 1, FusedAct::Identity, &mut out_f);
        assert!(out_f[0].is_nan());
    }

    #[test]
    #[should_panic(expected = "lhs length")]
    fn length_mismatch_panics() {
        let mut out = vec![0.0f32; 4];
        matmul_acc(&[1.0; 3], &[1.0; 4], 2, 2, 2, &mut out);
    }
}
