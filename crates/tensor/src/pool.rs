//! Spatial pooling (average, max, global-average) with backward passes,
//! on batch-last activations `[C, H, W, N]` (see [`crate::conv`]): each
//! window's `N` images are one contiguous run, pooled lane by lane in the
//! per-image loop's order. Every kernel draws its output buffer from a
//! [`Workspace`], so warm passes allocate nothing.

use crate::{Tensor, Workspace};

fn dims4(t: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(t.ndim(), 4, "expected rank-4 tensor, got {:?}", t.shape());
    (t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3])
}

/// `dst[i] += src[i]`.
#[inline(always)]
fn add_run(dst: &mut [f32], src: &[f32]) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d += v;
    }
}

/// Average pooling over non-overlapping-or-strided `k x k` windows.
///
/// `input` is `[C, H, W, N]`; the result is `[C, OH, OW, N]` with
/// `OH = (H - k)/stride + 1`. Per output, `0.0` plus the window in
/// ascending `(ky, kx)`, times `1/k²`. The kernel fully overwrites the
/// output, so dirty workspace buffers are fine.
///
/// # Panics
///
/// Panics if the window does not fit or `stride == 0`.
pub fn avg_pool2d_forward_ws(
    input: &Tensor,
    k: usize,
    stride: usize,
    ws: &mut Workspace,
) -> Tensor {
    assert!(stride > 0, "avg_pool2d: stride must be positive");
    let (c, h, w, n) = dims4(input);
    assert!(k <= h && k <= w, "avg_pool2d: window {k} larger than input");
    let oh = (h - k) / stride + 1;
    let ow = (w - k) / stride + 1;
    let inv = 1.0 / (k * k) as f32;
    let mut out = ws.take_dirty(c * oh * ow * n);
    let id = input.data();
    for (ch, o) in out.chunks_exact_mut(oh * ow * n).enumerate() {
        let img = &id[ch * h * w * n..(ch + 1) * h * w * n];
        for oy in 0..oh {
            for ox in 0..ow {
                let acc = &mut o[(oy * ow + ox) * n..(oy * ow + ox + 1) * n];
                acc.fill(0.0);
                for ky in 0..k {
                    for kx in 0..k {
                        let at = ((oy * stride + ky) * w + ox * stride + kx) * n;
                        add_run(acc, &img[at..at + n]);
                    }
                }
                for v in acc {
                    *v *= inv;
                }
            }
        }
    }
    Tensor::from_vec(out, &[c, oh, ow, n])
}

/// Backward pass of [`avg_pool2d_forward_ws`]: spreads each output
/// gradient uniformly over its window (zero-filled checkout — overlapping
/// windows accumulate with `+=`, in ascending `(oy, ox)`).
///
/// # Panics
///
/// Panics if `grad_out`'s shape is inconsistent with the geometry.
pub fn avg_pool2d_backward_ws(
    grad_out: &Tensor,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    ws: &mut Workspace,
) -> Tensor {
    let (c, oh, ow, n) = dims4(grad_out);
    assert_eq!(oh, (h - k) / stride + 1, "avg_pool2d_backward: bad OH");
    assert_eq!(ow, (w - k) / stride + 1, "avg_pool2d_backward: bad OW");
    let inv = 1.0 / (k * k) as f32;
    let mut gi = ws.take(c * h * w * n);
    let gd = grad_out.data();
    for (ch, g) in gi.chunks_exact_mut(h * w * n).enumerate() {
        let go = &gd[ch * oh * ow * n..(ch + 1) * oh * ow * n];
        for oy in 0..oh {
            for ox in 0..ow {
                let v = &go[(oy * ow + ox) * n..(oy * ow + ox + 1) * n];
                for ky in 0..k {
                    for kx in 0..k {
                        let at = ((oy * stride + ky) * w + ox * stride + kx) * n;
                        for (d, &gv) in g[at..at + n].iter_mut().zip(v) {
                            *d += gv * inv;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(gi, &[c, h, w, n])
}

/// Backward pass of [`max_pool2d_forward_ws`]: routes each output
/// gradient to the recorded argmax position (zero-filled checkout — the
/// scatter accumulates with `+=`).
///
/// # Panics
///
/// Panics if `argmax.len()` differs from `grad_out.len()`.
pub fn max_pool2d_backward_ws(
    grad_out: &Tensor,
    argmax: &[usize],
    input_shape: &[usize],
    ws: &mut Workspace,
) -> Tensor {
    assert_eq!(
        grad_out.len(),
        argmax.len(),
        "max_pool2d_backward: argmax length mismatch"
    );
    let mut gi = ws.take(input_shape.iter().product());
    for (&idx, &v) in argmax.iter().zip(grad_out.data()) {
        gi[idx] += v;
    }
    Tensor::from_vec(gi, input_shape)
}

/// Max pooling over `k × k` windows: the pooled values, drawn from `ws`.
/// With `argmax`, also the flat input index of each window's first
/// maximum, written to it (cleared first) — the routing table a recording
/// pass stores and [`max_pool2d_backward_ws`] reads. A window with no
/// value above `−∞` routes to its image's pixel `(0, 0)` of the channel.
/// The window scan is the same either way, so the values are too.
///
/// # Panics
///
/// Panics if the window does not fit or `stride == 0`.
pub fn max_pool2d_forward_ws(
    input: &Tensor,
    k: usize,
    stride: usize,
    ws: &mut Workspace,
    mut argmax: Option<&mut Vec<usize>>,
) -> Tensor {
    assert!(stride > 0, "max_pool2d: stride must be positive");
    let (c, h, w, n) = dims4(input);
    assert!(k <= h && k <= w, "max_pool2d: window {k} larger than input");
    let oh = (h - k) / stride + 1;
    let ow = (w - k) / stride + 1;
    let mut out = ws.take_dirty(c * oh * ow * n);
    if let Some(arg) = argmax.as_deref_mut() {
        arg.clear();
        arg.resize(out.len(), 0);
    }
    let id = input.data();
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let o_at = ((ch * oh + oy) * ow + ox) * n;
                let best = &mut out[o_at..o_at + n];
                best.fill(f32::NEG_INFINITY);
                let mut best_idx = argmax.as_deref_mut().map(|a| &mut a[o_at..o_at + n]);
                if let Some(idx) = best_idx.as_deref_mut() {
                    for (i, v) in idx.iter_mut().enumerate() {
                        *v = ch * h * w * n + i;
                    }
                }
                for ky in 0..k {
                    for kx in 0..k {
                        let at = ((ch * h + oy * stride + ky) * w + ox * stride + kx) * n;
                        for (i, (b, &v)) in best.iter_mut().zip(&id[at..at + n]).enumerate() {
                            if v > *b {
                                *b = v;
                                if let Some(idx) = best_idx.as_deref_mut() {
                                    idx[i] = at + i;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[c, oh, ow, n])
}

/// Global average pooling `[C, H, W, N] -> [C, N]`: per `(c, n)` the sum
/// over ascending pixels (from `−0.0`, as `Iterator::sum` folds), times
/// `1/(H·W)`, each channel one contiguous `H·W·N` run summed across lanes.
///
/// # Panics
///
/// Panics if `input` is not rank-4.
pub fn global_avg_pool_forward_ws(input: &Tensor, ws: &mut Workspace) -> Tensor {
    let (c, h, w, n) = dims4(input);
    let inv = 1.0 / (h * w) as f32;
    let mut out = ws.take_dirty(c * n);
    for (acc, run) in out
        .chunks_exact_mut(n)
        .zip(input.data().chunks_exact(h * w * n))
    {
        acc.fill(-0.0);
        for px in run.chunks_exact(n) {
            add_run(acc, px);
        }
        for v in acc {
            *v *= inv;
        }
    }
    Tensor::from_vec(out, &[c, n])
}

/// Backward pass of [`global_avg_pool_forward_ws`] (the fill fully
/// overwrites every element, so a dirty checkout is safe).
///
/// # Panics
///
/// Panics if `grad_out` is not `[C, N]`.
pub fn global_avg_pool_backward_ws(
    grad_out: &Tensor,
    h: usize,
    w: usize,
    ws: &mut Workspace,
) -> Tensor {
    assert_eq!(grad_out.ndim(), 2, "global_avg_pool_backward: need [C,N]");
    let (c, n) = (grad_out.shape()[0], grad_out.shape()[1]);
    let inv = 1.0 / (h * w) as f32;
    let mut gi = ws.take_dirty(c * h * w * n);
    for (run, g) in gi
        .chunks_exact_mut(h * w * n)
        .zip(grad_out.data().chunks_exact(n))
    {
        for px in run.chunks_exact_mut(n) {
            for (d, &v) in px.iter_mut().zip(g) {
                *d = v * inv;
            }
        }
    }
    Tensor::from_vec(gi, &[c, h, w, n])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn avg_pool2d_forward(x: &Tensor, k: usize, stride: usize) -> Tensor {
        avg_pool2d_forward_ws(x, k, stride, &mut Workspace::new())
    }

    fn max_pool2d_forward(x: &Tensor, k: usize, stride: usize) -> (Tensor, Vec<usize>) {
        let mut arg = Vec::new();
        let y = max_pool2d_forward_ws(x, k, stride, &mut Workspace::new(), Some(&mut arg));
        let plain = max_pool2d_forward_ws(x, k, stride, &mut Workspace::new(), None);
        assert_eq!(y.data(), plain.data(), "the routing table changes no value");
        (y, arg)
    }

    #[test]
    fn avg_pool_values() {
        let x = Tensor::from_vec((1..=16).map(|i| i as f32).collect(), &[1, 4, 4, 1]);
        let y = avg_pool2d_forward(&x, 2, 2);
        assert_eq!(y.shape(), &[1, 2, 2, 1]);
        assert_eq!(y.data(), &[3.5, 5.5, 11.5, 13.5]);
    }

    #[test]
    fn avg_pool_backward_spreads_uniformly() {
        let go = Tensor::from_vec(vec![4.0], &[1, 1, 1, 1]);
        let gi = avg_pool2d_backward_ws(&go, 2, 2, 2, 2, &mut Workspace::new());
        assert_eq!(gi.data(), &[1.0; 4]);
    }

    #[test]
    fn avg_pool_gradient_matches_finite_differences() {
        let x = Tensor::from_fn(&[2, 4, 4, 1], |i| (i as f32 * 0.3).cos());
        let y = avg_pool2d_forward(&x, 2, 2);
        let gi =
            avg_pool2d_backward_ws(&Tensor::ones(y.shape()), 4, 4, 2, 2, &mut Workspace::new());
        let eps = 1e-3;
        for &flat in &[0usize, 9, 21, 31] {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let num = (avg_pool2d_forward(&xp, 2, 2).sum() - avg_pool2d_forward(&xm, 2, 2).sum())
                / (2.0 * eps);
            assert!((num - gi.data()[flat]).abs() < 1e-3);
        }
    }

    #[test]
    fn max_pool_values_and_routing() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 4.0, 3.0, 0.0, 1.0, 2.0, 7.0, 1.0, 0.0, 3.0, 2.0, 4.0, 2.0, 1.0,
            ],
            &[1, 4, 4, 1],
        );
        let (y, arg) = max_pool2d_forward(&x, 2, 2);
        assert_eq!(y.data(), &[3.0, 5.0, 7.0, 3.0]);
        let gi = max_pool2d_backward_ws(
            &Tensor::ones(y.shape()),
            &arg,
            &[1, 4, 4, 1],
            &mut Workspace::new(),
        );
        // Exactly one 1.0 routed per window, at the max position.
        assert_eq!(gi.data()[4], 1.0); // 3.0 at flat index 4
        assert_eq!(gi.data()[2], 1.0); // 5.0 at flat index 2
        assert_eq!(gi.data()[8], 1.0); // 7.0 at flat index 8
        assert_eq!(gi.data()[11], 1.0); // 3.0 at flat index 11
        assert_eq!(gi.sum(), 4.0);
    }

    #[test]
    fn global_avg_pool_roundtrip() {
        let x = Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[2, 2, 2, 1]);
        let y = global_avg_pool_forward_ws(&x, &mut Workspace::new());
        assert_eq!(y.shape(), &[2, 1]);
        assert_eq!(y.data(), &[1.5, 5.5]);
        let gi = global_avg_pool_backward_ws(&Tensor::ones(&[2, 1]), 2, 2, &mut Workspace::new());
        assert_eq!(gi.shape(), x.shape());
        assert_eq!(gi.data(), &[0.25; 8]);
    }

    #[test]
    fn strided_max_pool_shape() {
        let x = Tensor::zeros(&[3, 9, 9, 2]);
        let (y, _) = max_pool2d_forward(&x, 3, 2);
        assert_eq!(y.shape(), &[3, 4, 4, 2]);
    }
}
