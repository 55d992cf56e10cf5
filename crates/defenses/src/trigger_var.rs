//! The tanh-parameterised `(mask, pattern)` optimisation variable shared by
//! Neural Cleanse, TABOR, and USB's Alg. 2 (all three optimise it in
//! [`crate::optimise_trigger`]).
//!
//! Optimising raw pixels would require projecting into `[0, 1]` after every
//! step; instead (following the Neural Cleanse reference implementation)
//! the mask and pattern are stored as unconstrained tensors `θ` with
//! `value = (tanh(θ) + 1) / 2`, which keeps every gradient step feasible.
//! The per-step operations — [`TriggerVar::apply`],
//! [`TriggerVar::backward`], [`TriggerVar::mask_l1_grad`] — draw every
//! buffer from a caller's [`Workspace`] and use the SIMD trigger kernels
//! where the tier has them.

use rand::Rng;
use usb_tensor::{init, kernels, ops, Tensor, Workspace};

/// Clamp used when inverting the tanh parameterisation.
const ATANH_CLAMP: f32 = 0.999_99;

fn atanh(v: f32) -> f32 {
    let v = v.clamp(-ATANH_CLAMP, ATANH_CLAMP);
    0.5 * ((1.0 + v) / (1.0 - v)).ln()
}

/// A differentiable trigger variable: mask `[H, W]` and pattern `[C, H, W]`,
/// both squashed into `[0, 1]` through `tanh`.
#[derive(Debug, Clone)]
pub struct TriggerVar {
    theta_mask: Tensor,    // [H, W]
    theta_pattern: Tensor, // [C, H, W]
}

impl TriggerVar {
    /// Random initialisation (NC's "random starting point"): mask around
    /// small values, pattern around mid-grey.
    pub fn random(channels: usize, h: usize, w: usize, rng: &mut impl Rng) -> Self {
        // Mask starts small (tanh(-2) ≈ -0.96 → m ≈ 0.02) with jitter so the
        // optimisation can break symmetry; pattern starts near 0.5.
        let theta_mask = init::uniform(&[h, w], -2.2, -1.8, rng);
        let theta_pattern = init::uniform(&[channels, h, w], -0.5, 0.5, rng);
        TriggerVar {
            theta_mask,
            theta_pattern,
        }
    }

    /// Initialises from explicit `[0, 1]` mask and pattern values (USB seeds
    /// the optimisation from the targeted UAP instead of noise).
    ///
    /// # Panics
    ///
    /// Panics if shapes are not `[H, W]` / `[C, H, W]` or spatial dims
    /// disagree.
    pub fn from_values(mask: &Tensor, pattern: &Tensor) -> Self {
        assert_eq!(mask.ndim(), 2, "TriggerVar: mask must be [H,W]");
        assert_eq!(pattern.ndim(), 3, "TriggerVar: pattern must be [C,H,W]");
        assert_eq!(
            &pattern.shape()[1..],
            mask.shape(),
            "TriggerVar: spatial mismatch"
        );
        TriggerVar {
            theta_mask: mask.map(|v| atanh(2.0 * v.clamp(0.0, 1.0) - 1.0)),
            theta_pattern: pattern.map(|v| atanh(2.0 * v.clamp(0.0, 1.0) - 1.0)),
        }
    }

    /// Current mask `[H, W]` in `[0, 1]`.
    pub fn mask(&self) -> Tensor {
        self.theta_mask.map(squash)
    }

    /// Current pattern `[C, H, W]` in `[0, 1]`.
    pub fn pattern(&self) -> Tensor {
        self.theta_pattern.map(squash)
    }

    /// Mutable access to the unconstrained parameters, in the fixed order
    /// `(θ_mask, θ_pattern)` expected by `TensorAdam`.
    pub fn params_mut(&mut self) -> (&mut Tensor, &mut Tensor) {
        (&mut self.theta_mask, &mut self.theta_pattern)
    }

    /// L1 norm of the mask (its values are non-negative, so this is the sum).
    pub fn mask_l1(&self) -> f64 {
        self.mask().sum() as f64
    }

    /// Applies the trigger to a batch: `x' = x·(1−m) + p·m`, with the mask
    /// broadcast across channels ([`ops::stamp_images`], the blend static
    /// triggers stamp with too). Every buffer — the squashed mask and
    /// pattern and the stamped batch — is drawn from `ws`.
    ///
    /// # Panics
    ///
    /// Panics if the batch's `[C, H, W]` does not match the variable.
    pub fn apply(&self, batch: &Tensor, ws: &mut Workspace) -> Tensor {
        assert_eq!(batch.ndim(), 4, "TriggerVar: batch must be [N,C,H,W]");
        assert_eq!(
            self.theta_pattern.shape(),
            &batch.shape()[1..],
            "TriggerVar: shape mismatch"
        );
        let (mask, pattern) = self.values_in(ws);
        let mut out = ws.take_dirty(batch.len());
        ops::stamp_images(&mut out, batch.data(), mask.data(), pattern.data());
        ws.recycle(mask);
        ws.recycle(pattern);
        Tensor::from_vec(out, batch.shape())
    }

    /// Chains `dL/dx'` back to gradients on `(θ_mask, θ_pattern)`, all
    /// scratch drawn from `ws`.
    ///
    /// Returns `(grad_theta_mask, grad_theta_pattern)` for the data term
    /// only; regulariser gradients are added separately (see
    /// [`TriggerVar::mask_l1_grad`]).
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree with the batch used in
    /// [`TriggerVar::apply`].
    pub fn backward(
        &self,
        batch: &Tensor,
        grad_out: &Tensor,
        ws: &mut Workspace,
    ) -> (Tensor, Tensor) {
        assert_eq!(batch.shape(), grad_out.shape(), "TriggerVar: grad shape");
        let (mask, pattern) = self.values_in(ws);
        let (m, p) = (mask.data(), pattern.data());
        let plane = m.len();
        // Zeroed: the data term accumulates across the batch.
        let mut d_mask = ws.take(plane);
        let mut d_pattern = ws.take(p.len());
        for (gb, xb) in grad_out
            .data()
            .chunks_exact(p.len())
            .zip(batch.data().chunks_exact(p.len()))
        {
            for (((gb, xb), pb), dpb) in gb
                .chunks_exact(plane)
                .zip(xb.chunks_exact(plane))
                .zip(p.chunks_exact(plane))
                .zip(d_pattern.chunks_exact_mut(plane))
            {
                kernels::trigger_backward(gb, xb, m, pb, dpb, &mut d_mask);
            }
        }
        self.chain(&mut d_mask, &mut d_pattern);
        ws.recycle(mask);
        ws.recycle(pattern);
        (
            Tensor::from_vec(d_mask, self.theta_mask.shape()),
            Tensor::from_vec(d_pattern, self.theta_pattern.shape()),
        )
    }

    /// Gradient of `weight · ‖mask‖₁` with respect to `θ_mask` (to add onto
    /// the data-term gradient), drawn from `ws`.
    pub fn mask_l1_grad(&self, weight: f32, ws: &mut Workspace) -> Tensor {
        // d|m|/dθ = weight · dm/dθ since m ≥ 0.
        let mut g = ws.take_dirty(self.theta_mask.len());
        for (o, &t) in g.iter_mut().zip(self.theta_mask.data()) {
            let th = t.tanh();
            *o = weight * (1.0 - th * th) / 2.0;
        }
        Tensor::from_vec(g, self.theta_mask.shape())
    }

    /// The current mask and pattern values, drawn from `ws` (the pooled
    /// twin of [`TriggerVar::mask`] / [`TriggerVar::pattern`]).
    pub(crate) fn values_in(&self, ws: &mut Workspace) -> (Tensor, Tensor) {
        let squash_in = |theta: &Tensor, ws: &mut Workspace| {
            let mut out = ws.take_dirty(theta.len());
            for (o, &t) in out.iter_mut().zip(theta.data()) {
                *o = squash(t);
            }
            Tensor::from_vec(out, theta.shape())
        };
        (
            squash_in(&self.theta_mask, ws),
            squash_in(&self.theta_pattern, ws),
        )
    }

    /// Chains gradients on the mask and pattern *values* through the tanh
    /// squash in place: `g ← g · (1 − tanh²θ) / 2`.
    pub(crate) fn chain(&self, d_mask: &mut [f32], d_pattern: &mut [f32]) {
        for (grad, theta) in [(d_mask, &self.theta_mask), (d_pattern, &self.theta_pattern)] {
            for (g, &t) in grad.iter_mut().zip(theta.data()) {
                let th = t.tanh();
                *g = *g * (1.0 - th * th) / 2.0;
            }
        }
    }
}

/// The `[0, 1]` value of an unconstrained parameter: `(tanh(θ) + 1) / 2`.
fn squash(t: f32) -> f32 {
    (t.tanh() + 1.0) / 2.0
}

/// The effective perturbation `p ⊙ m` of a `[C, H, W]` pattern and an
/// `[H, W]` mask (the mask broadcast across channels), drawn from `ws`.
///
/// # Panics
///
/// Panics if the pattern's spatial dims differ from the mask's.
pub fn masked_pattern(pattern: &Tensor, mask: &Tensor, ws: &mut Workspace) -> Tensor {
    assert_eq!(&pattern.shape()[1..], mask.shape(), "masked_pattern: shape");
    let mut out = ws.take_dirty(pattern.len());
    for (oc, pc) in out
        .chunks_exact_mut(mask.len())
        .zip(pattern.data().chunks_exact(mask.len()))
    {
        for ((o, &p), &m) in oc.iter_mut().zip(pc).zip(mask.data()) {
            *o = p * m;
        }
    }
    Tensor::from_vec(out, pattern.shape())
}

/// Anisotropic total variation of a rank-2 or rank-3 tensor (summed over
/// leading planes) and its gradient.
///
/// `TV(t) = Σ |t[y+1,x] − t[y,x]| + |t[y,x+1] − t[y,x]|` — the smoothness
/// regulariser TABOR adds on masks and masked patterns.
///
/// # Panics
///
/// Panics if the tensor is not rank-2 or rank-3.
pub fn total_variation_with_grad(t: &Tensor, ws: &mut Workspace) -> (f32, Tensor) {
    let (planes, h, w) = match t.ndim() {
        2 => (1, t.shape()[0], t.shape()[1]),
        3 => (t.shape()[0], t.shape()[1], t.shape()[2]),
        r => panic!("total_variation: expected rank-2/3, got rank {r}"),
    };
    let mut tv = 0.0f32;
    let mut grad = ws.take_tensor(t.shape());
    let d = t.data();
    let g = grad.data_mut();
    for pl in 0..planes {
        let base = pl * h * w;
        for y in 0..h {
            for x in 0..w {
                let idx = base + y * w + x;
                // f32::signum(0.0) is 1.0, so write the subgradient at zero
                // explicitly as 0.
                if y + 1 < h {
                    let diff = d[idx + w] - d[idx];
                    tv += diff.abs();
                    let s = if diff == 0.0 { 0.0 } else { diff.signum() };
                    g[idx + w] += s;
                    g[idx] -= s;
                }
                if x + 1 < w {
                    let diff = d[idx + 1] - d[idx];
                    tv += diff.abs();
                    let s = if diff == 0.0 { 0.0 } else { diff.signum() };
                    g[idx + 1] += s;
                    g[idx] -= s;
                }
            }
        }
    }
    (tv, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_init_is_small_mask_grey_pattern() {
        let mut rng = StdRng::seed_from_u64(0);
        let v = TriggerVar::random(3, 8, 8, &mut rng);
        assert!(v.mask().max() < 0.1, "mask should start near zero");
        let p = v.pattern();
        assert!(p.min() > 0.2 && p.max() < 0.8, "pattern should start grey");
    }

    #[test]
    fn from_values_roundtrips() {
        let mask = Tensor::from_fn(&[4, 4], |i| (i as f32) / 20.0);
        let pattern = Tensor::from_fn(&[2, 4, 4], |i| ((i % 7) as f32) / 7.0);
        let v = TriggerVar::from_values(&mask, &pattern);
        for (a, b) in v.mask().data().iter().zip(mask.data()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        for (a, b) in v.pattern().data().iter().zip(pattern.data()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn apply_blends_mask_and_pattern() {
        let mask = Tensor::from_vec(vec![1.0, 0.0, 0.5, 0.0], &[2, 2]);
        let pattern = Tensor::ones(&[1, 2, 2]);
        let v = TriggerVar::from_values(&mask, &pattern);
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let out = v.apply(&x, &mut Workspace::new());
        assert!((out.at(&[0, 0, 0, 0]) - 1.0).abs() < 1e-3);
        assert!(out.at(&[0, 0, 0, 1]).abs() < 1e-3);
        assert!((out.at(&[0, 0, 1, 0]) - 0.5).abs() < 1e-3);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut v = TriggerVar::random(2, 4, 4, &mut rng);
        let x = Tensor::from_fn(&[2, 2, 4, 4], |i| ((i as f32) * 0.17).sin() * 0.5 + 0.5);
        // Loss = sum of x' elements; one dirty workspace serves every call.
        let mut ws = Workspace::new();
        let go = Tensor::ones(x.shape());
        let (d_tm, d_tp) = v.backward(&x, &go, &mut ws);
        let eps = 1e-3;
        for &flat in &[0usize, 5, 11, 15] {
            let (tm, _) = v.params_mut();
            tm.data_mut()[flat] += eps;
            let fp = v.apply(&x, &mut ws).sum();
            let (tm, _) = v.params_mut();
            tm.data_mut()[flat] -= 2.0 * eps;
            let fm = v.apply(&x, &mut ws).sum();
            let (tm, _) = v.params_mut();
            tm.data_mut()[flat] += eps;
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - d_tm.data()[flat]).abs() < 1e-2,
                "mask grad {flat}: num={num} ana={}",
                d_tm.data()[flat]
            );
        }
        for &flat in &[0usize, 9, 20, 31] {
            let (_, tp) = v.params_mut();
            tp.data_mut()[flat] += eps;
            let fp = v.apply(&x, &mut ws).sum();
            let (_, tp) = v.params_mut();
            tp.data_mut()[flat] -= 2.0 * eps;
            let fm = v.apply(&x, &mut ws).sum();
            let (_, tp) = v.params_mut();
            tp.data_mut()[flat] += eps;
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - d_tp.data()[flat]).abs() < 1e-2,
                "pattern grad {flat}: num={num} ana={}",
                d_tp.data()[flat]
            );
        }
    }

    #[test]
    fn mask_l1_grad_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut v = TriggerVar::random(1, 3, 3, &mut rng);
        let g = v.mask_l1_grad(2.0, &mut Workspace::new());
        let eps = 1e-3;
        for flat in 0..9 {
            let (tm, _) = v.params_mut();
            tm.data_mut()[flat] += eps;
            let fp = 2.0 * v.mask_l1() as f32;
            let (tm, _) = v.params_mut();
            tm.data_mut()[flat] -= 2.0 * eps;
            let fm = 2.0 * v.mask_l1() as f32;
            let (tm, _) = v.params_mut();
            tm.data_mut()[flat] += eps;
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - g.data()[flat]).abs() < 1e-2);
        }
    }

    #[test]
    fn tv_of_constant_is_zero() {
        let (tv, grad) =
            total_variation_with_grad(&Tensor::full(&[5, 5], 0.7), &mut Workspace::new());
        assert_eq!(tv, 0.0);
        assert_eq!(grad.l1_norm(), 0.0);
    }

    #[test]
    fn tv_counts_edges() {
        // A single bright pixel in a dark 3x3 plane: 4 unit edges.
        let mut t = Tensor::zeros(&[3, 3]);
        *t.at_mut(&[1, 1]) = 1.0;
        let (tv, _) = total_variation_with_grad(&t, &mut Workspace::new());
        assert_eq!(tv, 4.0);
    }

    #[test]
    fn tv_gradient_descends() {
        // One gradient step must reduce TV of a noisy plane.
        let t = Tensor::from_fn(&[6, 6], |i| ((i * 31 % 17) as f32) / 17.0);
        let (tv0, g) = total_variation_with_grad(&t, &mut Workspace::new());
        let stepped = t.sub(&g.scale(0.01));
        let (tv1, _) = total_variation_with_grad(&stepped, &mut Workspace::new());
        assert!(tv1 < tv0, "tv {tv0} -> {tv1}");
    }
}
