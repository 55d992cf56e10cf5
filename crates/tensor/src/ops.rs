//! Linear-algebra, classification and trigger-stamping helper operations
//! on [`Tensor`]s.

use crate::{kernels, Tensor, Workspace};

/// `a @ b` into `out` (overwritten, so scratch buffers from
/// [`crate::Workspace`] can be handed in dirty): `a` is `[m, k]`
/// row-major, `b` is `[k, n]` row-major, `out` is `[m, n]`.
///
/// Runs on the register tiles of [`kernels::gemm_strided_a`]: the
/// accumulators for one output tile live in registers across the whole `k`
/// sweep and are stored once. On the AVX2 tier a full tile is 4 rows × 16
/// columns and the ragged right and bottom edges run 8-lane masked tiles;
/// the scalar tier uses 4 × 8 tiles. `a` is the broadcast operand, so a
/// layer's weight is read as stored: this is the GEMM of every dense conv
/// and `Linear` forward ([`crate::conv::conv2d_forward_panel_ws`]) and of
/// every weight gradient ([`crate::conv::conv2d_backward_ws`]).
///
/// For any fixed output element the `k`-accumulation order is ascending
/// regardless of the blocking, so results are bit-identical to the naive
/// triple loop — blocking is a pure layout optimisation, invisible to the
/// deterministic-seeding guarantees.
///
/// # Panics
///
/// Panics if a slice length disagrees with the dimensions.
///
/// ```rust
/// # use usb_tensor::ops;
/// let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // [2, 3]
/// let b = [7.0, 8.0, 9.0, 10.0, 11.0, 12.0]; // [3, 2]
/// let mut out = [0.0; 4];
/// ops::matmul_into(&a, &b, 2, 3, 2, &mut out);
/// assert_eq!(out, [58.0, 64.0, 139.0, 154.0]);
/// ```
pub fn matmul_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul_into: lhs length mismatch");
    assert_eq!(b.len(), k * n, "matmul_into: rhs length mismatch");
    assert_eq!(out.len(), m * n, "matmul_into: out length mismatch");
    kernels::gemm_strided_a(a, k, 1, b, m, k, n, out);
}

/// `aᵀ @ b` into `out` (overwritten; dirty [`crate::Workspace`] buffers
/// are fine) without materialising the transpose: `a` is `[k, m]`, `b` is
/// `[k, n]`, `out` is `[m, n]`.
///
/// The same register-tiled kernel as [`matmul_into`], with the left
/// operand addressed k-major (`a[kk * m + i]`). This is the `Wᵀ @ grad`
/// step of every conv and `Linear` input gradient, on the weight as
/// stored. The per-element accumulation order is unchanged, so results
/// are bit-identical to the unblocked loop.
///
/// # Panics
///
/// Panics if a slice length disagrees with the dimensions.
pub fn matmul_transa_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), k * m, "matmul_transa_into: lhs length mismatch");
    assert_eq!(b.len(), k * n, "matmul_transa_into: rhs length mismatch");
    assert_eq!(out.len(), m * n, "matmul_transa_into: out length mismatch");
    kernels::gemm_strided_a(a, 1, m, b, m, k, n, out);
}

/// `[N, …]` → `[…, N]`: a batch moved *images across lanes*, the batch
/// last — the activation layout between the layers of `usb-nn` (see
/// [`crate::conv`]). With [`images_from_lanes`] it is the one pair of
/// boundary helpers between that layout and the image layout callers
/// hold. A pure permutation into a buffer from `ws`; at `N = 1` the two
/// layouts are the same memory, so it is a copy.
///
/// # Panics
///
/// Panics if `x` has rank 0 or more than four dimensions.
pub fn lanes_from_images(x: &Tensor, ws: &mut Workspace) -> Tensor {
    let r = x.ndim();
    assert!((1..=4).contains(&r), "lanes_from_images: rank {r}");
    let n = x.shape()[0];
    let mut shape = [0usize; 4];
    shape[..r - 1].copy_from_slice(&x.shape()[1..]);
    shape[r - 1] = n;
    let mut out = ws.take_dirty(x.len());
    permute_batch(x.data(), n, x.len() / n.max(1), &mut out);
    Tensor::from_vec(out, &shape[..r])
}

/// `[…, N]` → `[N, …]`, the inverse of [`lanes_from_images`], into a
/// buffer from `ws`.
///
/// # Panics
///
/// Panics if `x` has rank 0 or more than four dimensions.
pub fn images_from_lanes(x: &Tensor, ws: &mut Workspace) -> Tensor {
    let r = x.ndim();
    assert!((1..=4).contains(&r), "images_from_lanes: rank {r}");
    let n = x.shape()[r - 1];
    let mut shape = [0usize; 4];
    shape[0] = n;
    shape[1..r].copy_from_slice(&x.shape()[..r - 1]);
    let mut out = ws.take_dirty(x.len());
    permute_batch(x.data(), x.len() / n.max(1), n, &mut out);
    Tensor::from_vec(out, &shape[..r])
}

/// The transpose of `[rows, cols]` into `out`; a plain copy when either
/// side is 1.
fn permute_batch(src: &[f32], rows: usize, cols: usize, out: &mut [f32]) {
    if rows == 1 || cols == 1 {
        out.copy_from_slice(src);
    } else {
        kernels::transpose(src, rows, cols, out);
    }
}

/// Numerically stable row-wise softmax of a `[n, k]` logits tensor.
///
/// Each row of the result is a probability distribution.
///
/// # Panics
///
/// Panics if the argument is not rank-2.
pub fn softmax_rows(logits: &Tensor) -> Tensor {
    assert_eq!(logits.ndim(), 2, "softmax_rows: need rank-2 logits");
    let (n, k) = (logits.shape()[0], logits.shape()[1]);
    let mut out = vec![0.0f32; n * k];
    for i in 0..n {
        let row = i * k..(i + 1) * k;
        kernels::softmax_row(&logits.data()[row.clone()], &mut out[row]);
    }
    Tensor::from_vec(out, &[n, k])
}

/// Row-wise argmax of a `[n, k]` tensor: the predicted class per sample.
///
/// # Panics
///
/// Panics if the argument is not rank-2 or has zero columns.
pub fn argmax_rows(logits: &Tensor) -> Vec<usize> {
    assert_eq!(logits.ndim(), 2, "argmax_rows: need rank-2 logits");
    let (n, k) = (logits.shape()[0], logits.shape()[1]);
    assert!(k > 0, "argmax_rows: zero classes");
    let mut preds = Vec::with_capacity(n);
    for i in 0..n {
        preds.push(argmax_row(&logits.data()[i * k..(i + 1) * k]));
    }
    preds
}

/// Index of the largest element of one logits row; ties resolve to the
/// first (lowest-index) maximum, matching [`argmax_rows`] — which is built
/// on this helper, as is the predicted-class lookup inside DeepFool.
///
/// # Panics
///
/// Panics if `row` is empty.
pub fn argmax_row(row: &[f32]) -> usize {
    assert!(!row.is_empty(), "argmax_row: empty row");
    let mut best = 0;
    for (j, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = j;
        }
    }
    best
}

/// Stamps a trigger onto every `[C, H, W]` image of `x`:
/// `out = x·(1−m) + p·m`, the `[H, W]` mask `m` broadcast across the
/// channels of the `[C, H, W]` pattern `p`, one [`kernels::trigger_blend`]
/// call per channel plane. Static triggers and the defenses' trigger
/// variable both stamp through here.
///
/// # Panics
///
/// Panics unless `out` and `x` hold the same whole number of images and
/// `p` a whole number of mask planes.
pub fn stamp_images(out: &mut [f32], x: &[f32], m: &[f32], p: &[f32]) {
    assert!(
        out.len() == x.len() && x.len().is_multiple_of(p.len()) && p.len().is_multiple_of(m.len()),
        "stamp_images: shape mismatch"
    );
    for (out, x) in out.chunks_exact_mut(p.len()).zip(x.chunks_exact(p.len())) {
        for ((out, x), p) in out
            .chunks_exact_mut(m.len())
            .zip(x.chunks_exact(m.len()))
            .zip(p.chunks_exact(m.len()))
        {
            kernels::trigger_blend(out, x, m, p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference naive i-k-j product with the same ascending-`k`
    /// accumulation order as the blocked kernels.
    fn matmul_naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let av = a[i * k + kk];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += av * b[kk * n + j];
                }
            }
        }
        out
    }

    #[test]
    fn blocked_matmul_is_bitwise_identical_to_naive() {
        // Sizes straddling the MR×NR register tiles, including non-multiples,
        // so every partial-tile edge case is exercised.
        for &(m, k, n) in &[
            (3, 5, 7),
            (2, 64, 64),
            (5, 65, 130),
            (1, 200, 3),
            (17, 100, 129),
            (4, 3, 8),
            (5, 1, 9),
            (9, 7, 17),
        ] {
            let a: Vec<f32> = (0..m * k).map(|i| ((i as f32) * 0.61).sin()).collect();
            let b: Vec<f32> = (0..k * n).map(|i| ((i as f32) * 0.37).cos()).collect();
            let naive = matmul_naive(&a, &b, m, k, n);
            let mut blocked = vec![f32::NAN; m * n];
            matmul_into(&a, &b, m, k, n, &mut blocked);
            assert_eq!(
                blocked, naive,
                "matmul ({m}x{k}x{n}) must be bit-identical to the naive order"
            );
            let mut ta = vec![0.0; m * k];
            kernels::transpose(&a, m, k, &mut ta);
            let mut blocked_ta = vec![f32::NAN; m * n];
            matmul_transa_into(&ta, &b, m, k, n, &mut blocked_ta);
            assert_eq!(
                blocked_ta, naive,
                "matmul_transa ({m}x{k}x{n}) must be bit-identical to the naive order"
            );
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let l = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let p = softmax_rows(&l);
        for i in 0..2 {
            let s: f32 = p.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        // Monotone in logits.
        assert!(p.at(&[0, 2]) > p.at(&[0, 1]));
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let l = Tensor::from_vec(vec![1000.0, 1001.0], &[1, 2]);
        let p = softmax_rows(&l);
        assert!(p.all_finite());
        assert!((p.data()[0] + p.data()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn argmax_rows_picks_each_rows_largest_logit() {
        let l = Tensor::from_vec(vec![0.1, 0.9, 0.8, 0.2], &[2, 2]);
        assert_eq!(argmax_rows(&l), vec![1, 0]);
    }
}
