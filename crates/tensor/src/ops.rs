//! Linear-algebra and classification helper operations on [`Tensor`]s.

use crate::Tensor;

/// Register-tile height: rows of the output each micro-kernel call produces.
pub const MR: usize = 4;
/// Register-tile width: output columns per micro-kernel call. `MR × NR`
/// accumulators are 8 SSE vectors at the default x86-64 target, leaving
/// half the register file for the `b` row and the `a` broadcasts.
pub const NR: usize = 8;

/// Full `MR × NR` register tile of `out[i0.., j0..] = Σ_k a ⊙ b`.
///
/// `a` is addressed as `a[abase + r*ars + kk*aks]` so the same kernel serves
/// both the row-major (`ars = k, aks = 1`) and the transposed / k-major
/// (`ars = 1, aks = m`) left operand without a copy. The accumulators live
/// in a fixed-size array for the whole `k` sweep and are stored exactly
/// once, and every output element still accumulates in ascending-`k` order,
/// so results are bit-identical to the naive triple loop.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_tile_full(
    a: &[f32],
    abase: usize,
    ars: usize,
    aks: usize,
    b: &[f32],
    j0: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    obase: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..k {
        let b0 = kk * n + j0;
        let brow: [f32; NR] = b[b0..b0 + NR].try_into().unwrap();
        let a0 = abase + kk * aks;
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = a[a0 + r * ars];
            for (o, &bv) in accr.iter_mut().zip(&brow) {
                *o += av * bv;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let o0 = obase + r * n + j0;
        out[o0..o0 + NR].copy_from_slice(accr);
    }
}

/// Partial tile (`rows ≤ MR`, `jw ≤ NR`) for the ragged right/bottom edges.
/// Same accumulation order as [`gemm_tile_full`], just with runtime bounds.
/// Crate-visible: the AVX2 driver in [`crate::kernels`] reuses it for its
/// own edges — per output element the chain is identical either way.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_tile_edge(
    a: &[f32],
    abase: usize,
    ars: usize,
    aks: usize,
    b: &[f32],
    j0: usize,
    jw: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    obase: usize,
    rows: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..k {
        let b0 = kk * n + j0;
        let a0 = abase + kk * aks;
        for (r, accr) in acc.iter_mut().enumerate().take(rows) {
            let av = a[a0 + r * ars];
            for (o, &bv) in accr.iter_mut().zip(&b[b0..b0 + jw]) {
                *o += av * bv;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate().take(rows) {
        let o0 = obase + r * n + j0;
        out[o0..o0 + jw].copy_from_slice(&accr[..jw]);
    }
}

/// Register-blocked GEMM driver shared by [`matmul_into`] (`ars = k,
/// aks = 1`) and [`matmul_transa_into`] (`ars = 1, aks = m`). Walks the
/// output in `MR × NR` tiles; every element of `out` is written exactly
/// once, so dirty scratch buffers are fine without a pre-fill.
#[allow(clippy::too_many_arguments)] // flat scalar geometry, hot path
fn gemm_strided_a(
    a: &[f32],
    ars: usize,
    aks: usize,
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    if crate::kernels::try_gemm_strided_a(a, ars, aks, b, m, k, n, out) {
        return;
    }
    let mut i = 0;
    while i < m {
        let rows = (m - i).min(MR);
        let abase = i * ars;
        let obase = i * n;
        let mut j = 0;
        if rows == MR {
            while j + NR <= n {
                gemm_tile_full(a, abase, ars, aks, b, j, k, n, out, obase);
                j += NR;
            }
        }
        while j < n {
            let jw = (n - j).min(NR);
            gemm_tile_edge(a, abase, ars, aks, b, j, jw, k, n, out, obase, rows);
            j += NR;
        }
        i += MR;
    }
}

/// Dense matrix product `a @ b` for 2-D tensors `[m, k] x [k, n] -> [m, n]`.
///
/// Uses `MR × NR` register tiles (`gemm_tile_full`): the accumulators
/// for one output tile live in registers across the whole `k` sweep and are
/// stored once, with fixed-width inner loops the autovectorizer turns into
/// SSE rank-1 updates — the access pattern the im2col GEMM in
/// `conv::conv2d_forward_ws` / `conv::conv2d_backward` hits on every layer
/// of every forward and backward pass.
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
    gemm_strided_a(a, k, 1, b, m, k, n, out);
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
    if crate::kernels::try_gemm_transb(a, b, m, k, n, out) {
        return;
    }
    // Both operands are k-contiguous, so each output element is one dot
    // product; a 4×2 tile runs eight independent accumulator chains to hide
    // FP-add latency (the old single-chain loop serialised on it). Each
    // chain still sums in ascending `k`, so results are bit-identical.
    const MRT: usize = 4;
    const NRT: usize = 2;
    let mut i = 0;
    while i < m {
        let rows = (m - i).min(MRT);
        let mut j = 0;
        while j < n {
            let cols = (n - j).min(NRT);
            let mut acc = [[0.0f32; NRT]; MRT];
            for kk in 0..k {
                let mut bv = [0.0f32; NRT];
                for (c, bvc) in bv.iter_mut().enumerate().take(cols) {
                    *bvc = b[(j + c) * k + kk];
                }
                for (r, accr) in acc.iter_mut().enumerate().take(rows) {
                    let av = a[(i + r) * k + kk];
                    for (o, &bvc) in accr.iter_mut().zip(&bv).take(cols) {
                        *o += av * bvc;
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate().take(rows) {
                for (c, &v) in accr.iter().enumerate().take(cols) {
                    out[(i + r) * n + j + c] = v;
                }
            }
            j += NRT;
        }
        i += MRT;
    }
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
    gemm_strided_a(a, 1, m, b, m, k, n, out);
}

/// Writes the transpose of `src` (`[rows, cols]` row-major) into `out`
/// (`[cols, rows]` row-major, fully overwritten — dirty buffers are fine).
///
/// This is the packing primitive behind [`crate::panel::GemmWeight::kmajor`]:
/// a row-major weight matrix transposed once into a k-major panel lets the
/// GEMM address it with unit-stride tile loads.
///
/// # Panics
///
/// Panics if a slice length disagrees with the dimensions.
pub fn transpose_into(src: &[f32], rows: usize, cols: usize, out: &mut [f32]) {
    assert_eq!(
        src.len(),
        rows * cols,
        "transpose_into: src length mismatch"
    );
    assert_eq!(
        out.len(),
        rows * cols,
        "transpose_into: out length mismatch"
    );
    for i in 0..rows {
        for (j, &v) in src[i * cols..(i + 1) * cols].iter().enumerate() {
            out[j * rows + i] = v;
        }
    }
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
        let row = &logits.data()[i * k..(i + 1) * k];
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0;
        for (o, &v) in out[i * k..(i + 1) * k].iter_mut().zip(row) {
            let e = (v - m).exp();
            *o = e;
            z += e;
        }
        let row_out = &mut out[i * k..(i + 1) * k];
        if !crate::kernels::try_div(row_out, z) {
            for o in row_out {
                *o /= z;
            }
        }
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
