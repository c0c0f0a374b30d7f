//! Autovectorization-friendly matmul kernels over raw `&[f32]` slices.
//!
//! These are the hot-path kernels behind [`crate::Tensor::matmul`] and the
//! batched forward/backward passes in `dx-nn`. Three properties are
//! load-bearing and must survive any future tuning:
//!
//! - **Bit-compatibility with a scalar reference.** [`matmul_acc`] (and
//!   [`matmul_bias_act`] on top of it) matches the naive ikj loop: every
//!   output element accumulates its `k` terms in ascending order, and terms
//!   whose *lhs* element is exactly `0.0` are skipped (the historical
//!   `matmul` semantics the workspace's bit-exact checkpoints rest on).
//!   Cache blocking below reorders traversal across *elements*, never
//!   within one element's reduction, so results are identical to the
//!   unblocked loop. The same holds for the k-unroll in [`matmul_acc`]:
//!   four lhs terms are consumed per sweep of the output row, but each
//!   element is still `(((o + a0·b0) + a1·b1) + a2·b2) + a3·b3` — ascending
//!   `k`, one rounding per add, no fused multiply-add — so the unroll saves
//!   three of every four loads and stores of `o` and changes no bit. A quad
//!   holding a `0.0` lhs term (post-ReLU activations are full of them)
//!   falls back to the one-term-at-a-time loop, because the skip is
//!   semantic, not just a shortcut: multiplying through would turn `0·inf`
//!   into NaN. [`matmul_bt_acc`] matches one scalar `sum::<f32>()` dot
//!   product per element instead, with no skip (below).
//! - **Contiguous inner loops without bounds checks.** Inner loops zip
//!   subslices, or index slices re-cut to the loop's own length, which the
//!   compiler proves in-bounds and autovectorizes.
//! - **Caller-owned output buffers.** Every kernel writes into a caller
//!   slice so callers can reuse arena buffers ([`crate::Workspace`]) instead
//!   of allocating per call; scratch panels are fixed-size stack arrays.
//!
//! Blocking rationale (the same tiling-for-memory-hierarchy playbook GPU
//! tile frameworks use, applied to L1): for `a[m,k] · b[k,n]` the ikj loop
//! streams `b` once per lhs row, so the `[KB, JB]` block of `b` selected by
//! the two outer block loops stays L1-resident while all `m` lhs rows pass
//! over it. With batched inputs (`m = N` seeds instead of 1) each `b` load
//! is amortized over `N` rows — the core reason the batched campaign path
//! outruns the scalar one.
//!
//! The transposed product [`matmul_bt_acc`] (`dx = g · Wᵀ`, the dense input
//! gradient) is register-blocked instead. A dot product's chain is serial —
//! its adds may not be reordered without changing bits — so speed comes
//! from running many chains side by side: lhs rows interleaved into SIMD
//! lanes times eight output columns (or, for `k ≤ 12`, output columns in
//! the lanes over a packed `bᵀ` panel). At the trios' shapes that is about
//! four times the GFLOP/s of one chain at a time. It has no zero-skip: the
//! scalar loop it must match turns `0·inf` into NaN, and a zero in one lane
//! of an interleaved step saves no work anyway. A `Wᵀ` cached per network
//! would let [`matmul_acc`] do this product, but costs a second copy of
//! every dense weight: the `pdf` trio's 322 200 weights are 1.23 MiB on a
//! 7.9 MiB peak (+15.5%), three times the benchmark's 5% `peak_rss_mb`
//! bound.

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

/// Lhs rows per block of [`matmul_bt_acc`]: the lanes of one interleaved
/// `k` step.
const MR: usize = 4;
/// Output columns per register block of [`matmul_bt_acc`]: eight
/// independent lane-wise chains, enough to hide the add latency.
const NR: usize = 8;
/// `k` chunk of [`matmul_bt_acc`]: the interleaved lhs panel holds at most
/// `KC × MR` floats (4 KiB) on the stack.
const KC: usize = 256;
/// Output columns per panel pass of [`matmul_bt_acc`]: when `k > KC`, each
/// chunk hands these columns' unfinished chains to the next (1 KiB stack).
const NC: usize = 64;
const _: () = assert!(NC.is_multiple_of(NR), "a panel pass holds whole column blocks");
/// Largest `k` that [`matmul_bt_acc`] runs with output columns in the
/// lanes (the last layer of every trio has `k` = 1, 2 or 10).
const SMALL_K: usize = 12;
/// Output columns per packed `bᵀ` panel of the small-`k` path
/// (`SMALL_K × NCOL` floats, 1.5 KiB stack).
const NCOL: usize = 32;

/// `out += a · bᵀ` for row-major `a[m,k]`, `b[n,k]`, `out[m,n]`.
///
/// The transposed-rhs product: `out[i][j]` is the dot product of `a` row
/// `i` with `b` row `j`. This is the backward-pass kernel for dense layers:
/// `dx = g · Wᵀ` with `W` stored `[I, O]` reads `W` rows directly.
///
/// Every output element is its own chain: `-0.0` (where `sum::<f32>()`
/// starts), plus `a[i][p]·b[j][p]` for ascending `p`, one rounding per add
/// and no fused multiply-add, and only then added into `out`. That is the
/// arithmetic of one scalar dot product per element, to the last bit; the
/// kernel only decides which chains advance side by side:
///
/// - `k > SMALL_K`: up to [`MR`] lhs rows are interleaved into a stack
///   panel, so one `k` step holds their terms side by side, and [`NR`]
///   output columns run at once. A `k` step is then `NR` independent
///   lane-wise multiply-adds instead of one link of a serial scalar chain.
///   A tail of one or two rows gets a panel that many lanes wide. `k` runs
///   in chunks of [`KC`]; between chunks a chain waits in a stack panel,
///   never in `out`.
/// - `k ≤ SMALL_K`: a chain is too short for the row panel to pay, so a
///   panel of [`NCOL`] `b` rows is packed transposed on the stack, and each
///   lhs row runs those columns' chains in its lanes.
///
/// There is no zero-skip: `0·inf` stays `NaN`, as in the scalar loop. Into
/// a zeroed `out` with a finite `b` the result is bit-identical to the
/// zero-skipping [`matmul_acc`] of the materialized transpose, because a
/// chain's `±0.0` terms can only flip the sign of a zero partial sum, and
/// `+0.0 + -0.0` is `+0.0`.
///
/// # Panics
///
/// Panics when the slice lengths do not match the given dimensions.
pub fn matmul_bt_acc(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul_bt lhs length {} != {m}x{k}", a.len());
    assert_eq!(b.len(), n * k, "matmul_bt rhs length {} != {n}x{k}", b.len());
    assert_eq!(out.len(), m * n, "matmul_bt out length {} != {m}x{n}", out.len());
    if k == 0 || n == 0 {
        // An empty product: every chain is `-0.0`, or there is none.
        return;
    }
    if k <= SMALL_K {
        return bt_small_k(a, b, k, n, out);
    }
    // A tail of one or two rows gets a block that many lanes wide, where a
    // four-lane block would compute mostly spare lanes.
    for (a_rows, o_rows) in a.chunks(MR * k).zip(out.chunks_mut(MR * n)) {
        match a_rows.len() / k {
            1 => bt_rows::<1>(a_rows, b, k, n, o_rows),
            2 => bt_rows::<2>(a_rows, b, k, n, o_rows),
            _ => bt_rows::<MR>(a_rows, b, k, n, o_rows),
        }
    }
}

/// [`matmul_bt_acc`] for `k > SMALL_K` on one block of at most `R` lhs
/// rows, which run in the lanes. Kept out of line: inlined together, the
/// three widths measured slower than apart.
#[inline(never)]
fn bt_rows<const R: usize>(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    let rows = R.min(a.len() / k);
    let mut panel = [[0.0f32; R]; KC];
    let mut partial = [[[0.0f32; R]; NR]; NC / NR];
    for j0 in (0..n).step_by(NC) {
        let jn = NC.min(n - j0);
        for p0 in (0..k).step_by(KC) {
            let kc = KC.min(k - p0);
            let panel = &mut panel[..kc];
            for r in 0..R {
                if r < rows {
                    let src = &a[r * k + p0..][..kc];
                    for (lanes, &v) in panel.iter_mut().zip(src) {
                        lanes[r] = v;
                    }
                } else {
                    // Spare lanes of a short block: computed, never read.
                    panel.iter_mut().for_each(|lanes| lanes[r] = 0.0);
                }
            }
            let b_seg = |j: usize| &b[j * k + p0..][..kc];
            for (j, part) in (j0..j0 + jn).step_by(NR).zip(partial.iter_mut()) {
                let cols = NR.min(j0 + jn - j);
                let mut acc = if p0 == 0 { [[-0.0f32; R]; NR] } else { *part };
                // Spare columns of a short block repeat its last one.
                let rhs = std::array::from_fn(|c| b_seg(j + c.min(cols - 1)));
                dot_cols(panel, rhs, &mut acc);
                if p0 + kc < k {
                    *part = acc;
                    continue;
                }
                for r in 0..rows {
                    let o_row = &mut out[r * n + j..][..cols];
                    for (o, s) in o_row.iter_mut().zip(&acc) {
                        *o += s[r];
                    }
                }
            }
        }
    }
}

/// [`NR`] output columns of one [`bt_rows`] block over one `k` chunk:
/// `acc[c][r] += panel[p][r] · rhs[c][p]` for ascending `p`. One zip
/// walks the panel and all eight rhs rows, so the loop has no bounds
/// check.
#[inline]
fn dot_cols<const R: usize>(panel: &[[f32; R]], rhs: [&[f32]; NR], acc: &mut [[f32; R]; NR]) {
    let [b0, b1, b2, b3, b4, b5, b6, b7] = rhs;
    let cols = b0.iter().zip(b1).zip(b2).zip(b3).zip(b4).zip(b5).zip(b6).zip(b7);
    let mut t = *acc;
    for (lanes, (((((((&x0, &x1), &x2), &x3), &x4), &x5), &x6), &x7)) in panel.iter().zip(cols) {
        for (t, x) in t.iter_mut().zip([x0, x1, x2, x3, x4, x5, x6, x7]) {
            for (t, &l) in t.iter_mut().zip(lanes) {
                *t += l * x;
            }
        }
    }
    *acc = t;
}

/// [`matmul_bt_acc`] for `0 < k ≤ SMALL_K`: output columns in the lanes.
fn bt_small_k(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    let mut panel = [[0.0f32; NCOL]; SMALL_K];
    let panel = &mut panel[..k];
    for j0 in (0..n).step_by(NCOL) {
        let jn = NCOL.min(n - j0);
        let b_blk = &b[j0 * k..(j0 + jn) * k];
        for (p, bt) in panel.iter_mut().enumerate() {
            for (v, b_row) in bt.iter_mut().zip(b_blk.chunks_exact(k)) {
                *v = b_row[p];
            }
            // Spare lanes of a short panel: computed, never read.
            bt[jn..].fill(0.0);
        }
        for (a_row, o_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
            let mut acc = [-0.0f32; NCOL];
            for (&x, bt) in a_row.iter().zip(panel.iter()) {
                for (s, &y) in acc.iter_mut().zip(bt) {
                    *s += x * y;
                }
            }
            for (o, s) in o_row[j0..j0 + jn].iter_mut().zip(&acc) {
                *o += s;
            }
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

    /// The transposed kernel before register blocking: one scalar
    /// `sum::<f32>()` per output element, added into `out`. `matmul_bt_acc`
    /// must match it bit-for-bit, signs of zero and `NaN`s included.
    fn matmul_bt_oracle_acc(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let o_row = &mut out[i * n..(i + 1) * n];
            for (j, o) in o_row.iter_mut().enumerate() {
                let b_row = &b[j * k..(j + 1) * k];
                *o += a_row.iter().zip(b_row.iter()).map(|(&x, &y)| x * y).sum::<f32>();
            }
        }
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
    fn matmul_bt_is_bit_identical_to_scalar_dot_products() {
        // Every m up to two row blocks plus one; every k at the small-k
        // switch, the chunk edges and the trios' last layers (1, 2, 10);
        // every n around the column block, the small-k panel and the
        // partial-sum panel.
        let ks = [1, 2, 3, 9, 10, 11, 12, 13, 14, 17, 255, 256, 257, 513];
        let ns = [1, 2, 7, 8, 9, 31, 32, 33, 63, 64, 65, 72];
        for m in 1..=9 {
            for k in ks {
                for n in ns {
                    let mut a = pseudo(m as u64 * 131 + k as u64, m * k);
                    a.iter_mut().step_by(5).for_each(|v| *v = -*v);
                    let mut b = pseudo(n as u64 * 17 + k as u64, n * k);
                    b.chunks_exact_mut(k).step_by(2).flatten().for_each(|v| *v = -*v);
                    // Signed zeros in the lhs, and a last row of `-0.0`s: times
                    // a non-negative rhs row its chains stay `-0.0` only if
                    // they start there.
                    let mut signed = a.clone();
                    signed.iter_mut().step_by(3).for_each(|v| *v = -0.0);
                    signed[(m - 1) * k..].fill(-0.0);
                    for a in [&a, &signed] {
                        // A non-zero pre-filled `out` (the kernel accumulates),
                        // with a last row of `-0.0`s.
                        let mut want = pseudo(99, m * n);
                        want[(m - 1) * n..].fill(-0.0);
                        let mut got = want.clone();
                        matmul_bt_oracle_acc(a, &b, m, k, n, &mut want);
                        matmul_bt_acc(a, &b, m, k, n, &mut got);
                        assert_eq!(bits(&got), bits(&want), "mismatch at {m}x{k}x{n}");
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_bt_zero_lhs_times_non_finite_rhs_is_nan() {
        // No zero-skip: `0·inf` and `0·NaN` reach the output exactly as in
        // the scalar loop, on both paths and in every row lane.
        for (m, k, n) in [(1, 2, 9), (5, 10, 33), (1, 20, 9), (3, 13, 9), (6, 300, 17)] {
            let mut a = pseudo(7, m * k);
            a.iter_mut().for_each(|v| *v = if *v == 0.0 { 1.0 } else { *v });
            for i in 0..m {
                a[i * k + (i % k)] = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
            let mut b = pseudo(8, n * k);
            for (j, row) in b.chunks_exact_mut(k).enumerate() {
                row[j % k] = [f32::INFINITY, -f32::INFINITY, f32::NAN][j % 3];
            }
            let mut want = vec![0.25f32; m * n];
            let mut got = want.clone();
            matmul_bt_oracle_acc(&a, &b, m, k, n, &mut want);
            matmul_bt_acc(&a, &b, m, k, n, &mut got);
            assert_eq!(bits(&got), bits(&want), "{m}x{k}x{n}");
            for i in 0..m {
                if let Some(j) = (0..n).find(|j| j % k == i % k) {
                    assert!(got[i * n + j].is_nan(), "{m}x{k}x{n}: row {i} col {j}");
                }
            }
        }
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose() {
        // Into a zeroed `out` with a finite rhs, the transposed kernel is
        // the zero-skipping `matmul_acc` of the materialized transpose,
        // bit for bit: a chain's `±0.0` terms only flip a zero partial's
        // sign, and `+0.0 + -0.0` is `+0.0`.
        for &(m, k, n) in &[(2, 3, 2), (2, 5, 3), (4, 64, 64), (7, 100, 13), (9, 10, 70)] {
            // Mixed signs, and `-0.0`s where a negated entry was zero.
            let mut a = pseudo(m as u64 + 1, m * k);
            a.iter_mut().step_by(3).for_each(|v| *v = -*v);
            let mut b = pseudo(n as u64 + 2, n * k); // b is [n, k]
            b.iter_mut().step_by(2).for_each(|v| *v = -*v);
            let mut bt = vec![0.0f32; k * n];
            for j in 0..n {
                for p in 0..k {
                    bt[p * n + j] = b[j * k + p];
                }
            }
            let mut want = vec![0.0f32; m * n];
            matmul_acc(&a, &bt, m, k, n, &mut want);
            let mut got = vec![0.0f32; m * n];
            matmul_bt_acc(&a, &b, m, k, n, &mut got);
            assert_eq!(bits(&got), bits(&want), "{m}x{k}x{n}");
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
