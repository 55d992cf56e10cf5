//! Linear-algebra and classification helper operations on [`Tensor`]s.

use crate::{kernels, Tensor, Workspace};

/// Dense matrix product `a @ b` for 2-D tensors `[m, k] x [k, n] -> [m, n]`.
///
/// Runs on the register tiles of [`kernels::gemm_strided_a`]: the
/// accumulators for one output tile live in registers across the whole `k`
/// sweep and are stored once. On the AVX2 tier a full tile is 4 rows × 16
/// columns and the ragged right and bottom edges run 8-lane masked tiles;
/// the scalar tier uses 4 × 8 tiles. This is the GEMM that
/// [`crate::conv::conv2d_forward_panel_ws`] and [`crate::conv::conv2d_backward_ws`]
/// run on every layer of every forward and backward pass.
///
/// For any fixed output element the `k`-accumulation order is ascending
/// regardless of the blocking, so results are bit-identical to the naive
/// triple loop — blocking is a pure layout optimisation, invisible to the
/// deterministic-seeding guarantees.
///
/// # Panics
///
/// Panics if either argument is not rank-2 or the inner dimensions differ.
///
/// ```rust
/// # use usb_tensor::{ops, Tensor};
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
/// assert_eq!(ops::matmul(&a, &i).data(), a.data());
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(
        a.ndim(),
        2,
        "matmul: lhs must be rank-2, got {:?}",
        a.shape()
    );
    assert_eq!(
        b.ndim(),
        2,
        "matmul: rhs must be rank-2, got {:?}",
        b.shape()
    );
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul: inner dims {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    matmul_into(a.data(), b.data(), m, k, n, &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// Slice-level [`matmul`] kernel writing `a @ b` into `out` (overwritten,
/// so scratch buffers from [`crate::Workspace`] can be handed in dirty).
///
/// `a` is `[m, k]` row-major, `b` is `[k, n]` row-major, `out` is `[m, n]`.
/// This *is* the [`matmul`] kernel — the tensor entry point wraps it — so
/// the accumulation order (ascending `k` per output element) and therefore
/// the results are bit-identical between the allocating and workspace-backed
/// call paths.
///
/// # Panics
///
/// Panics if a slice length disagrees with the dimensions.
pub fn matmul_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul_into: lhs length mismatch");
    assert_eq!(b.len(), k * n, "matmul_into: rhs length mismatch");
    assert_eq!(out.len(), m * n, "matmul_into: out length mismatch");
    kernels::gemm_strided_a(a, k, 1, b, m, k, n, out);
}

/// `a @ b^T` for 2-D tensors `[m, k] x [n, k] -> [m, n]` without
/// materialising the transpose.
///
/// # Panics
///
/// Panics if either argument is not rank-2 or the `k` dimensions differ.
pub fn matmul_transb(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul_transb: lhs must be rank-2");
    assert_eq!(b.ndim(), 2, "matmul_transb: rhs must be rank-2");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (n, k2) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul_transb: inner dims {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    matmul_transb_into(a.data(), b.data(), m, k, n, &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// Slice-level [`matmul_transb`] kernel writing `a @ bᵀ` into `out`
/// (overwritten; dirty [`crate::Workspace`] buffers are fine).
///
/// `a` is `[m, k]`, `b` is `[n, k]`, `out` is `[m, n]`. As with
/// [`matmul_into`], this is the single implementation behind both call
/// paths, so results are bit-identical by construction.
///
/// # Panics
///
/// Panics if a slice length disagrees with the dimensions.
pub fn matmul_transb_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul_transb_into: lhs length mismatch");
    assert_eq!(b.len(), n * k, "matmul_transb_into: rhs length mismatch");
    assert_eq!(out.len(), m * n, "matmul_transb_into: out length mismatch");
    kernels::gemm_transb(a, b, m, k, n, out);
}

/// `a^T @ b` for 2-D tensors `[k, m] x [k, n] -> [m, n]` without
/// materialising the transpose.
///
/// Shares the `MR × NR` register-tiled driver with [`matmul`] — the left
/// operand is simply addressed k-major (`a[kk * m + i]`), which makes the
/// `MR` per-row loads of one tile contiguous (this is the `Wᵀ @ grad` step
/// of the conv backward pass, and the packed-panel forward GEMM). As in
/// [`matmul`], the per-element accumulation order is unchanged, so results
/// are bit-identical to the unblocked loop.
///
/// # Panics
///
/// Panics if either argument is not rank-2 or the `k` dimensions differ.
pub fn matmul_transa(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul_transa: lhs must be rank-2");
    assert_eq!(b.ndim(), 2, "matmul_transa: rhs must be rank-2");
    let (k, m) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul_transa: inner dims {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    matmul_transa_into(a.data(), b.data(), m, k, n, &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// Slice-level [`matmul_transa`] kernel writing `aᵀ @ b` into `out`
/// (overwritten; dirty [`crate::Workspace`] buffers are fine).
///
/// `a` is `[k, m]`, `b` is `[k, n]`, `out` is `[m, n]`. Single
/// implementation behind both call paths — results are bit-identical by
/// construction.
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

/// Writes the transpose of `src` (`[rows, cols]` row-major) into `out`
/// (`[cols, rows]` row-major, fully overwritten — dirty buffers are fine).
///
/// This is the packing primitive behind [`crate::panel::GemmWeight::kmajor`]
/// (a row-major weight matrix transposed once into a k-major panel lets the
/// GEMM address it with unit-stride tile loads) and the layout change that
/// puts a batch's images across lanes ([`lanes_from_images`]). It runs
/// [`kernels::transpose`].
///
/// # Panics
///
/// Panics if a slice length disagrees with the dimensions.
pub fn transpose_into(src: &[f32], rows: usize, cols: usize, out: &mut [f32]) {
    kernels::transpose(src, rows, cols, out);
}

/// Transpose of a 2-D tensor.
///
/// # Panics
///
/// Panics if the argument is not rank-2.
pub fn transpose2d(a: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "transpose2d: need rank-2, got {:?}", a.shape());
    let (m, n) = (a.shape()[0], a.shape()[1]);
    let mut out = vec![0.0f32; m * n];
    transpose_into(a.data(), m, n, &mut out);
    Tensor::from_vec(out, &[n, m])
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
        transpose_into(src, rows, cols, out);
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

/// Fraction of rows whose argmax equals the paired label.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the number of rows.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f64 {
    let preds = argmax_rows(logits);
    assert_eq!(preds.len(), labels.len(), "accuracy: label count mismatch");
    if preds.is_empty() {
        return 0.0;
    }
    let hits = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    hits as f64 / preds.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec((0..9).map(|i| i as f32).collect(), &[3, 3]);
        let i = Tensor::from_fn(&[3, 3], |k| if k % 4 == 0 { 1.0 } else { 0.0 });
        assert_eq!(matmul(&a, &i).data(), a.data());
        assert_eq!(matmul(&i, &a).data(), a.data());
    }

    #[test]
    fn transb_matches_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        let b = Tensor::from_vec((0..12).map(|i| (i as f32).sin()).collect(), &[4, 3]);
        let direct = matmul_transb(&a, &b);
        let explicit = matmul(&a, &transpose2d(&b));
        for (x, y) in direct.data().iter().zip(explicit.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn transa_matches_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|i| (i as f32).cos()).collect(), &[3, 2]);
        let b = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[3, 4]);
        let direct = matmul_transa(&a, &b);
        let explicit = matmul(&transpose2d(&a), &b);
        for (x, y) in direct.data().iter().zip(explicit.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    /// Reference naive i-k-j product with the same ascending-`k`
    /// accumulation order as the blocked kernels.
    fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let av = a.data()[i * k + kk];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += av * b.data()[kk * n + j];
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
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
            let a = Tensor::from_fn(&[m, k], |i| ((i as f32) * 0.61).sin());
            let b = Tensor::from_fn(&[k, n], |i| ((i as f32) * 0.37).cos());
            let blocked = matmul(&a, &b);
            let naive = matmul_naive(&a, &b);
            assert_eq!(
                blocked.data(),
                naive.data(),
                "matmul ({m}x{k}x{n}) must be bit-identical to the naive order"
            );
            let ta = transpose2d(&a);
            let blocked_ta = matmul_transa(&ta, &b);
            assert_eq!(
                blocked_ta.data(),
                naive.data(),
                "matmul_transa ({m}x{k}x{n}) must be bit-identical to the naive order"
            );
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        let tt = transpose2d(&transpose2d(&a));
        assert_eq!(tt.shape(), a.shape());
        assert_eq!(tt.data(), a.data());
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
    fn argmax_and_accuracy() {
        let l = Tensor::from_vec(vec![0.1, 0.9, 0.8, 0.2], &[2, 2]);
        assert_eq!(argmax_rows(&l), vec![1, 0]);
        assert_eq!(accuracy(&l, &[1, 0]), 1.0);
        assert_eq!(accuracy(&l, &[0, 0]), 0.5);
    }
}
