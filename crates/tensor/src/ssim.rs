//! Structural similarity index (SSIM) with an analytic input gradient.
//!
//! The USB paper's Alg. 2 optimises `L = CE(f(x'), t) − SSIM(x, x') +
//! ‖mask‖₁`, so the trigger-refinement loop needs `∂SSIM/∂x'`. This module
//! implements the classic windowed SSIM of Wang et al. (2004) — gaussian
//! window, valid convolution — and derives the gradient in closed form.
//!
//! With `G` the gaussian blur, `p = G*x`, `q = G*(x∘x)`, `r = G*(x∘y)`,
//! `u_y = G*y`, `v_y = G*(y∘y) − u_y²`:
//!
//! ```text
//! A1 = 2·p·u_y + C1        B1 = p² + u_y² + C1
//! A2 = 2·(r − p·u_y) + C2  B2 = (q − p²) + v_y + C2
//! S  = (A1·A2)/(B1·B2)     ssim = mean(S)
//! ```
//!
//! and the chain rule through the three blurs gives
//!
//! ```text
//! ∂ssim/∂x = Gᵀ(∂S/∂p)/|S| + 2x∘Gᵀ(∂S/∂q)/|S| + y∘Gᵀ(∂S/∂r)/|S|
//! ```
//!
//! where `Gᵀ` is the adjoint blur. Both blurs run the depthwise stencil
//! pair ([`kernels::depthwise_gather`], [`kernels::depthwise_adjoint`])
//! with one shared window and the image planes across the lanes.
//! The gradient is verified against finite differences in the tests.

use crate::conv::{ConvSpec, Stencil};
use crate::{kernels, Tensor, Workspace};
use std::cell::RefCell;

/// Luminance stabiliser `C1 = (0.01 L)²` from the SSIM paper, for the unit
/// dynamic range `L = 1` used throughout this workspace.
const C1: f32 = 0.01 * 0.01;

/// Contrast stabiliser `C2 = (0.03 L)²`, for `L = 1`.
const C2: f32 = 0.03 * 0.03;

/// A normalised 2-D gaussian window of odd side `size` and bandwidth `sigma`.
///
/// # Panics
///
/// Panics if `size` is zero or even, or `sigma` is not positive.
pub fn gaussian_window(size: usize, sigma: f32) -> Tensor {
    assert!(
        size % 2 == 1 && size > 0,
        "gaussian window size must be odd"
    );
    assert!(sigma > 0.0, "gaussian sigma must be positive");
    let half = (size / 2) as isize;
    let mut data = Vec::with_capacity(size * size);
    for y in -half..=half {
        for x in -half..=half {
            let d2 = (x * x + y * y) as f32;
            data.push(crate::kernels::exp(-d2 / (2.0 * sigma * sigma)));
        }
    }
    let sum: f32 = data.iter().sum();
    for v in &mut data {
        *v /= sum;
    }
    Tensor::from_vec(data, &[size, size])
}

/// Picks the largest odd window `<= 11` that fits both spatial dims.
fn fitting_window(h: usize, w: usize) -> usize {
    let mut k = 11.min(h).min(w);
    if k % 2 == 0 {
        k -= 1;
    }
    k.max(1)
}

fn plane_views(t: &Tensor) -> (usize, usize, usize) {
    match t.ndim() {
        3 => (t.shape()[0], t.shape()[1], t.shape()[2]),
        4 => (t.shape()[0] * t.shape()[1], t.shape()[2], t.shape()[3]),
        r => panic!("ssim: expected rank-3 or rank-4 tensor, got rank {r}"),
    }
}

thread_local! {
    /// Per-thread cache of the normalised gaussian windows, one slot per
    /// odd size `1, 3, …, 11` that [`fitting_window`] can produce
    /// (index `size / 2`).
    static WINDOW_CACHE: RefCell<[Option<Box<[f32]>>; 6]> =
        const { RefCell::new([None, None, None, None, None, None]) };
}

/// Copies the σ = 1.5 gaussian window of odd side `win` into `out`,
/// computing it at most once per thread per size. [`gaussian_window`] is
/// deterministic, so the cached copy is bit-identical to a fresh one.
fn window_into(win: usize, out: &mut [f32]) {
    debug_assert!(win % 2 == 1 && win <= 11, "unexpected window size {win}");
    WINDOW_CACHE.with(|c| {
        let mut cache = c.borrow_mut();
        let slot = &mut cache[win / 2];
        if slot.is_none() {
            *slot = Some(gaussian_window(win, 1.5).data().into());
        }
        out.copy_from_slice(slot.as_ref().expect("filled above"));
    });
}

/// Mean SSIM between two `[C, H, W]` (or `[N, C, H, W]`) tensors and its
/// gradient with respect to `x`, drawing every intermediate from `ws`.
///
/// Returns `(ssim, d ssim / d x)` where the gradient has `x`'s shape.
/// Channels (and batch items) are treated as independent planes and
/// averaged. Values are expected in `[0, 1]`; identical images give `1.0`.
///
/// The hot refine loop calls this once per Adam step; all window
/// statistics, adjoint planes and the product scratch come from (and
/// return to) the workspace pool, so steady-state calls allocate only the
/// returned gradient tensor — which callers can in turn [`Workspace::recycle`].
///
/// It evaluates the chain the original tensor-based implementation did —
/// five valid blurs, the per-pixel `S`/`dS` formulas, three adjoint blurs,
/// then `gp + gq∘2x + gr∘y` — with each elementwise tensor op replaced by
/// the identical per-element float expression in the same order, so values
/// and gradients are bit-identical (verified by
/// `matches_tensor_reference_bitwise` in the tests). `x` and `y` are
/// transposed once to `[H·W, planes]`, so every blur is one call of the
/// lanes stencil with the window shared (`C = 1`, `N = planes`); each
/// plane's reduction walks its lane at stride `planes` in its historical
/// order, and the gradient is transposed back at the end.
///
/// # Panics
///
/// Panics if the shapes differ, the rank is not 3 or 4, or the tensors
/// hold no planes (a zero batch or channel count).
pub fn ssim_with_grad_ws(x: &Tensor, y: &Tensor, ws: &mut Workspace) -> (f32, Tensor) {
    assert_eq!(x.shape(), y.shape(), "ssim: shape mismatch");
    let (planes, h, w) = plane_views(x);
    assert!(planes > 0, "ssim: no planes to compare in {:?}", x.shape());
    let win = fitting_window(h, w);
    let mut g = ws.take_dirty(win * win);
    window_into(win, &mut g);
    let st = Stencil::new(h, w, win, win, ConvSpec::new(1, 0));
    let out_len = st.out_h() * st.out_w();
    let all_out = planes * out_len;

    let mut xd = ws.take_dirty(x.len());
    let mut yd = ws.take_dirty(x.len());
    kernels::transpose(x.data(), planes, h * w, &mut xd);
    kernels::transpose(y.data(), planes, h * w, &mut yd);
    let mut prod = ws.take_dirty(x.len()); // x², xy, y² in turn
    let mut p = ws.take_dirty(all_out);
    let mut u_y = ws.take_dirty(all_out);
    let mut q = ws.take_dirty(all_out);
    let mut r = ws.take_dirty(all_out);
    let mut yy = ws.take_dirty(all_out);
    let mut d_p = ws.take_dirty(all_out);
    let mut d_q = ws.take_dirty(all_out);
    let mut d_r = ws.take_dirty(all_out);
    let blur = |src: &[f32], out: &mut [f32], ws: &mut Workspace| {
        kernels::depthwise_gather(src, st, planes, &g, None, out, ws);
    };
    blur(&xd, &mut p, ws); // G*x
    blur(&yd, &mut u_y, ws); // G*y
    for (o, &v) in prod.iter_mut().zip(&xd) {
        *o = v * v;
    }
    blur(&prod, &mut q, ws); // G*(x²)
    for (o, (&a, &b)) in prod.iter_mut().zip(xd.iter().zip(&yd)) {
        *o = a * b;
    }
    blur(&prod, &mut r, ws); // G*(xy)
    for (o, &v) in prod.iter_mut().zip(&yd) {
        *o = v * v;
    }
    blur(&prod, &mut yy, ws); // G*(y²)

    let mut total = 0.0f64;
    let n_out = out_len as f32;
    for pl in 0..planes {
        let mut ssim_sum = 0.0f64;
        for i in (pl..all_out).step_by(planes) {
            let pv = p[i];
            let uy = u_y[i];
            let qv = q[i];
            let rv = r[i];
            let vy = yy[i] - uy * uy;
            let a1 = 2.0 * pv * uy + C1;
            let a2 = 2.0 * (rv - pv * uy) + C2;
            let b1 = pv * pv + uy * uy + C1;
            let b2 = (qv - pv * pv) + vy + C2;
            let s = (a1 * a2) / (b1 * b2);
            ssim_sum += s as f64;
            // dS/dp = 2 u_y (A2 − A1)/(B1 B2) − 2 p S (1/B1 − 1/B2)
            let dp = 2.0 * uy * (a2 - a1) / (b1 * b2) - 2.0 * pv * s * (1.0 / b1 - 1.0 / b2);
            let dq = -s / b2;
            let dr = 2.0 * a1 / (b1 * b2);
            d_p[i] = dp / n_out;
            d_q[i] = dq / n_out;
            d_r[i] = dr / n_out;
        }
        let val = (ssim_sum / n_out as f64) as f32;
        total += val as f64;
    }
    let val = (total / planes as f64) as f32;
    // Pull the three window-statistic gradients back through the blur.
    let mut gp = ws.take_dirty(x.len());
    let mut gq = ws.take_dirty(x.len());
    let mut gr = ws.take_dirty(x.len());
    kernels::depthwise_adjoint(&d_p, st, planes, &g, &mut gp, ws);
    kernels::depthwise_adjoint(&d_q, st, planes, &g, &mut gq, ws);
    kernels::depthwise_adjoint(&d_r, st, planes, &g, &mut gr, ws);
    // Zeroed: the per-plane gradient is added onto it, as the historical
    // accumulation across planes did.
    let mut gacc = ws.take(x.len());
    for (i, ga) in gacc.iter_mut().enumerate() {
        let b = (gp[i] + gq[i] * (xd[i] * 2.0)) + gr[i] * yd[i];
        *ga += b / planes as f32;
    }
    let mut grad = ws.take_dirty(x.len());
    kernels::transpose(&gacc, h * w, planes, &mut grad);
    for buf in [
        gp, gq, gr, gacc, g, xd, yd, prod, p, u_y, q, r, yy, d_p, d_q, d_r,
    ] {
        ws.put(buf);
    }
    (val, Tensor::from_vec(grad, x.shape()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The SSIM value alone, its gradient left in `ws`.
    fn ssim(x: &Tensor, y: &Tensor, ws: &mut Workspace) -> f32 {
        ssim_with_grad_ws(x, y, ws).0
    }

    /// The historical valid blur (`conv_single_into`'s unpadded branch),
    /// kept verbatim so the reference below does not share the stencil
    /// kernels it checks.
    fn conv2d_valid_single(img: &Tensor, ker: &Tensor) -> Tensor {
        let (h, w) = (img.shape()[0], img.shape()[1]);
        let (kh, kw) = (ker.shape()[0], ker.shape()[1]);
        let (oh, ow) = (h - kh + 1, w - kw + 1);
        let (img, ker) = (img.data(), ker.data());
        let mut out = vec![0.0f32; oh * ow];
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for ky in 0..kh {
                    let irow = &img[(oy + ky) * w + ox..(oy + ky) * w + ox + kw];
                    for (&iv, &kv) in irow.iter().zip(&ker[ky * kw..(ky + 1) * kw]) {
                        acc += iv * kv;
                    }
                }
                out[oy * ow + ox] = acc;
            }
        }
        Tensor::from_vec(out, &[oh, ow])
    }

    /// The historical adjoint blur (`conv_valid_adjoint_into`), verbatim.
    fn conv2d_valid_single_adjoint(grad: &Tensor, ker: &Tensor, h: usize, w: usize) -> Tensor {
        let (kh, kw) = (ker.shape()[0], ker.shape()[1]);
        let (oh, ow) = (grad.shape()[0], grad.shape()[1]);
        let mut out = vec![0.0f32; h * w];
        for oy in 0..oh {
            for ox in 0..ow {
                let g = grad.data()[oy * ow + ox];
                if g == 0.0 {
                    continue;
                }
                for ky in 0..kh {
                    for kx in 0..kw {
                        out[(oy + ky) * w + (ox + kx)] += g * ker.data()[ky * kw + kx];
                    }
                }
            }
        }
        Tensor::from_vec(out, &[h, w])
    }

    fn image(shape: &[usize], phase: f32) -> Tensor {
        Tensor::from_fn(shape, |i| 0.5 + 0.4 * ((i as f32) * 0.13 + phase).sin())
    }

    /// The pre-workspace implementation, kept verbatim as the reference the
    /// slice-based path must match bit for bit.
    fn ssim_impl_reference(x: &Tensor, y: &Tensor, want_grad: bool) -> (f32, Option<Tensor>) {
        assert_eq!(x.shape(), y.shape(), "ssim: shape mismatch");
        let (planes, h, w) = plane_views(x);
        let win = fitting_window(h, w);
        let g = gaussian_window(win, 1.5);
        let mut total = 0.0f64;
        let mut grad = if want_grad {
            Some(vec![0.0f32; x.len()])
        } else {
            None
        };
        let plane_len = h * w;
        for pl in 0..planes {
            let xp = Tensor::from_vec(
                x.data()[pl * plane_len..(pl + 1) * plane_len].to_vec(),
                &[h, w],
            );
            let yp = Tensor::from_vec(
                y.data()[pl * plane_len..(pl + 1) * plane_len].to_vec(),
                &[h, w],
            );
            let (s, gpl) = ssim_plane_reference(&xp, &yp, &g, want_grad);
            total += s as f64;
            if let (Some(gacc), Some(gp)) = (grad.as_mut(), gpl) {
                gacc[pl * plane_len..(pl + 1) * plane_len]
                    .iter_mut()
                    .zip(gp.data())
                    .for_each(|(a, &b)| *a += b / planes as f32);
            }
        }
        let val = (total / planes as f64) as f32;
        let grad = grad.map(|gv| Tensor::from_vec(gv, x.shape()));
        (val, grad)
    }

    fn ssim_plane_reference(
        x: &Tensor,
        y: &Tensor,
        g: &Tensor,
        want_grad: bool,
    ) -> (f32, Option<Tensor>) {
        let (h, w) = (x.shape()[0], x.shape()[1]);
        let p = conv2d_valid_single(x, g); // G*x
        let u_y = conv2d_valid_single(y, g); // G*y
        let q = conv2d_valid_single(&x.mul(x), g); // G*(x²)
        let r = conv2d_valid_single(&x.mul(y), g); // G*(xy)
        let yy = conv2d_valid_single(&y.mul(y), g); // G*(y²)
        let v_y = yy.sub(&u_y.mul(&u_y));

        let n_out = p.len() as f32;
        let mut ssim_sum = 0.0f64;
        let mut d_p = Tensor::zeros(p.shape());
        let mut d_q = Tensor::zeros(p.shape());
        let mut d_r = Tensor::zeros(p.shape());
        for i in 0..p.len() {
            let pv = p.data()[i];
            let uy = u_y.data()[i];
            let qv = q.data()[i];
            let rv = r.data()[i];
            let vy = v_y.data()[i];
            let a1 = 2.0 * pv * uy + C1;
            let a2 = 2.0 * (rv - pv * uy) + C2;
            let b1 = pv * pv + uy * uy + C1;
            let b2 = (qv - pv * pv) + vy + C2;
            let s = (a1 * a2) / (b1 * b2);
            ssim_sum += s as f64;
            if want_grad {
                let dp = 2.0 * uy * (a2 - a1) / (b1 * b2) - 2.0 * pv * s * (1.0 / b1 - 1.0 / b2);
                let dq = -s / b2;
                let dr = 2.0 * a1 / (b1 * b2);
                d_p.data_mut()[i] = dp / n_out;
                d_q.data_mut()[i] = dq / n_out;
                d_r.data_mut()[i] = dr / n_out;
            }
        }
        let val = (ssim_sum / n_out as f64) as f32;
        if !want_grad {
            return (val, None);
        }
        let gp = conv2d_valid_single_adjoint(&d_p, g, h, w);
        let gq = conv2d_valid_single_adjoint(&d_q, g, h, w);
        let gr = conv2d_valid_single_adjoint(&d_r, g, h, w);
        let grad = gp.add(&gq.mul(&x.scale(2.0))).add(&gr.mul(y));
        (val, Some(grad))
    }

    #[test]
    fn matches_tensor_reference_bitwise() {
        // The workspace path must reproduce the historical tensor-based
        // implementation bit for bit — value and gradient — across ranks,
        // window sizes (5×5 forces win=5, 12×12 win=11, 8×9 win=7 with a
        // non-square output), plane counts on and off the 8-lane group
        // and a reused dirty workspace.
        let mut ws = Workspace::new();
        let shapes: &[&[usize]] = &[
            &[1, 5, 5],
            &[3, 12, 12],
            &[2, 8, 9],
            &[2, 3, 10, 10],
            &[1, 1, 11, 7],
            &[16, 1, 12, 12],
            &[4, 3, 20, 20],
            &[12, 3, 12, 12],
        ];
        for (i, shape) in shapes.iter().enumerate() {
            let x = image(shape, 0.3 * i as f32);
            let y = image(shape, 1.1 + 0.2 * i as f32);
            let (rv, rg) = ssim_impl_reference(&x, &y, true);
            let (wv, wg) = ssim_with_grad_ws(&x, &y, &mut ws);
            assert_eq!(rv.to_bits(), wv.to_bits(), "value drifted for {shape:?}");
            let rg = rg.expect("gradient requested");
            assert_eq!(rg.shape(), wg.shape());
            for (j, (a, b)) in rg.data().iter().zip(wg.data()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "grad bit drift at {j} for {shape:?}: {a} vs {b}"
                );
            }
            // The reference's value-only mode returns the same value.
            let (rv2, _) = ssim_impl_reference(&x, &y, false);
            assert_eq!(rv2.to_bits(), wv.to_bits());
            ws.recycle(wg);
        }
    }

    /// The stabilisers are the SSIM paper's `(0.01 L)²` and `(0.03 L)²` at
    /// `L = 1`, bit for bit.
    #[test]
    fn stabilisers_are_the_unit_range_constants() {
        assert_eq!(C1.to_bits(), 0.01f32.powi(2).to_bits());
        assert_eq!(C2.to_bits(), 0.03f32.powi(2).to_bits());
    }

    #[test]
    #[should_panic(expected = "ssim: no planes")]
    fn empty_batch_is_rejected() {
        let x = Tensor::zeros(&[0, 3, 12, 12]);
        let _ = ssim_with_grad_ws(&x, &x, &mut Workspace::new());
    }

    #[test]
    fn gaussian_window_normalised_and_symmetric() {
        let g = gaussian_window(11, 1.5);
        assert!((g.sum() - 1.0).abs() < 1e-5);
        let (n, _) = (g.shape()[0], g.shape()[1]);
        for y in 0..n {
            for x in 0..n {
                let a = g.at(&[y, x]);
                let b = g.at(&[n - 1 - y, n - 1 - x]);
                assert!((a - b).abs() < 1e-7);
            }
        }
        // Peak at centre.
        assert_eq!(g.argmax(), (n / 2) * n + n / 2);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn gaussian_window_rejects_even_size() {
        let _ = gaussian_window(4, 1.5);
    }

    #[test]
    fn identical_images_have_unit_ssim() {
        let mut ws = Workspace::new();
        let x = image(&[1, 16, 16], 0.0);
        let s = ssim(&x, &x, &mut ws);
        assert!((s - 1.0).abs() < 1e-4, "ssim(x,x)={s}");
    }

    #[test]
    fn ssim_is_symmetric() {
        let mut ws = Workspace::new();
        let x = image(&[1, 16, 16], 0.0);
        let y = image(&[1, 16, 16], 1.3);
        let a = ssim(&x, &y, &mut ws);
        let b = ssim(&y, &x, &mut ws);
        assert!((a - b).abs() < 1e-5);
    }

    #[test]
    fn ssim_decreases_with_perturbation() {
        let mut ws = Workspace::new();
        let x = image(&[3, 16, 16], 0.0);
        let small = x.add(&Tensor::full(x.shape(), 0.01));
        let large = x.add(&Tensor::from_fn(x.shape(), |i| {
            0.3 * ((i * 7 % 13) as f32 / 13.0 - 0.5)
        }));
        let s_small = ssim(&x, &small, &mut ws);
        let s_large = ssim(&x, &large, &mut ws);
        assert!(s_small > s_large, "small={s_small} large={s_large}");
        assert!(s_small <= 1.0 + 1e-5);
    }

    #[test]
    fn ssim_handles_tiny_images() {
        let mut ws = Workspace::new();
        // Window shrinks to fit 5x5.
        let x = image(&[1, 5, 5], 0.0);
        let s = ssim(&x, &x, &mut ws);
        assert!((s - 1.0).abs() < 1e-4);
    }

    #[test]
    fn ssim_is_bounded_for_arbitrary_unit_images() {
        let mut ws = Workspace::new();
        // SSIM of unit-range images must stay in [-1, 1] whatever the pair.
        let phases = [0.0f32, 0.7, 1.3, 2.9];
        for (i, &pa) in phases.iter().enumerate() {
            for &pb in &phases[i..] {
                let a = image(&[3, 10, 10], pa);
                let b = image(&[3, 10, 10], pb);
                let s = ssim(&a, &b, &mut ws);
                assert!((-1.0..=1.0 + 1e-5).contains(&s), "out of range: {s}");
            }
        }
    }

    #[test]
    fn ssim_extremes_stay_bounded() {
        let mut ws = Workspace::new();
        // Constant black vs constant white: structure is undefined, the
        // stabilising constants must keep the score finite and in range.
        let black = Tensor::zeros(&[1, 10, 10]);
        let white = Tensor::ones(&[1, 10, 10]);
        let s = ssim(&black, &white, &mut ws);
        assert!(s.is_finite());
        assert!((-1.0..1.0).contains(&s), "black/white ssim: {s}");
        // Identical constants are perfectly similar.
        let s_same = ssim(&white, &white, &mut ws);
        assert!((s_same - 1.0).abs() < 1e-4);
    }

    #[test]
    fn ssim_gradient_is_finite_everywhere_sampled() {
        let x = image(&[1, 8, 8], 0.4);
        let grey = Tensor::full(&[1, 8, 8], 0.5);
        let (s, g) = ssim_with_grad_ws(&x, &grey, &mut Workspace::new());
        assert!(s.is_finite());
        assert!(g.data().iter().all(|v| v.is_finite()));
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    fn batch_rank4_matches_mean_of_planes() {
        let mut ws = Workspace::new();
        let a = image(&[1, 12, 12], 0.0);
        let b = image(&[1, 12, 12], 0.9);
        let ya = image(&[1, 12, 12], 0.2);
        let yb = image(&[1, 12, 12], 0.5);
        let batch_x = Tensor::stack(&[a.clone(), b.clone()]);
        let batch_y = Tensor::stack(&[ya.clone(), yb.clone()]);
        let joint = ssim(&batch_x, &batch_y, &mut ws);
        let sep = 0.5 * (ssim(&a, &ya, &mut ws) + ssim(&b, &yb, &mut ws));
        assert!((joint - sep).abs() < 1e-5);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut ws = Workspace::new();
        let x = image(&[1, 10, 10], 0.4);
        let y = image(&[1, 10, 10], 1.1);
        let (_, grad) = ssim_with_grad_ws(&x, &y, &mut ws);
        let eps = 1e-3;
        for &flat in &[0usize, 13, 47, 55, 99] {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let num = (ssim(&xp, &y, &mut ws) - ssim(&xm, &y, &mut ws)) / (2.0 * eps);
            let ana = grad.data()[flat];
            assert!(
                (num - ana).abs() < 2e-3,
                "flat={flat}: numeric={num} analytic={ana}"
            );
        }
    }

    #[test]
    fn gradient_at_identity_is_near_zero() {
        // SSIM is maximised at x == y, so the gradient there must vanish.
        let x = image(&[1, 12, 12], 0.0);
        let (s, grad) = ssim_with_grad_ws(&x, &x, &mut Workspace::new());
        assert!((s - 1.0).abs() < 1e-4);
        assert!(grad.linf_norm() < 1e-3, "grad max={}", grad.linf_norm());
    }

    #[test]
    fn gradient_points_toward_reference() {
        let mut ws = Workspace::new();
        // Moving x a small step along the gradient must not decrease SSIM.
        let x = image(&[1, 12, 12], 0.0);
        let y = image(&[1, 12, 12], 0.8);
        let (s0, grad) = ssim_with_grad_ws(&x, &y, &mut ws);
        let stepped = x.add(&grad.scale(0.5));
        let s1 = ssim(&stepped, &y, &mut ws);
        assert!(s1 >= s0, "s0={s0} s1={s1}");
    }
}
