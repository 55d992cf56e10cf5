//! The one trigger optimiser behind USB's Alg. 2, Neural Cleanse and TABOR.
//!
//! All three minimise `CE(f(x'), t)` over a [`TriggerVar`], with
//! `x' = x·(1−m) + p·m`, using Adam with betas `(0.5, 0.9)`, plus the
//! terms their configs supply:
//!
//! | term                            | USB (Alg. 2)           | NC         | TABOR            |
//! |---------------------------------|------------------------|------------|------------------|
//! | `−w·SSIM(x, x')`                | `ssim_weight`          | —          | —                |
//! | `λ‖m‖₁`                         | fixed `mask_l1_weight` | adaptive λ | adaptive λ       |
//! | elastic net, `TV(m)`, `TV(p⊙m)` | —                      | —          | its three weights |
//!
//! They also differ in where the optimisation starts: USB from the
//! targeted UAP ([`TriggerVar::from_values`]), NC and TABOR from noise
//! ([`TriggerVar::random`]). NC's λ schedule lives on [`NcConfig`],
//! TABOR's regularisers on [`TaborConfig`]; [`optimise_trigger`] owns
//! everything else.

use crate::nc::NcConfig;
use crate::tabor::TaborConfig;
use crate::trigger_var::TriggerVar;
use crate::verdict::ClassResult;
use usb_nn::loss::softmax_cross_entropy_uniform_target_ws;
use usb_nn::models::Network;
use usb_nn::optim::TensorAdam;
use usb_tensor::ssim::ssim_with_grad_ws;
use usb_tensor::{ops, Tape, Tensor, Workspace};

/// Hyperparameters of the Alg. 2 optimisation (re-exported by `usb-core`,
/// whose `refine_uap` runs it).
///
/// Defaults (via [`RefineConfig::standard`]): `steps: 80`, `lr: 0.1`
/// (Adam, betas `(0.5, 0.9)` as in the paper), `ssim_weight: 1.0`,
/// `mask_l1_weight: 0.05` (dimensionless loss weights), `batch_size: 16`
/// images per step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineConfig {
    /// Maximum iterations `m` (the paper uses 500 at full scale; the
    /// synthetic substrate converges far sooner because the UAP seed is
    /// already informative).
    pub steps: usize,
    /// Adam learning rate (paper: 0.1 with betas (0.5, 0.9)).
    pub lr: f32,
    /// Weight of the SSIM similarity reward.
    pub ssim_weight: f32,
    /// Weight of the `‖mask‖₁` penalty (set to 0 to reproduce the paper's
    /// §A.6 unconstrained-mask study, Fig. 5).
    pub mask_l1_weight: f32,
    /// Per-step batch size drawn in order from `X`.
    pub batch_size: usize,
}

impl RefineConfig {
    /// Full-strength configuration.
    pub fn standard() -> Self {
        RefineConfig {
            steps: 80,
            lr: 0.1,
            ssim_weight: 1.0,
            mask_l1_weight: 0.05,
            batch_size: 16,
        }
    }

    /// Reduced configuration for unit tests.
    pub fn fast() -> Self {
        RefineConfig {
            steps: 40,
            ..Self::standard()
        }
    }

    /// The paper's §A.6 variant: no mask-size constraint
    /// (`L = CE − SSIM`), used to visualise what the optimisation learns
    /// per class (Fig. 5).
    #[must_use]
    pub fn without_mask_constraint(mut self) -> Self {
        self.mask_l1_weight = 0.0;
        self
    }
}

impl Default for RefineConfig {
    fn default() -> Self {
        Self::standard()
    }
}

/// Which method's loss [`optimise_trigger`] minimises, carrying that
/// method's config unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// USB's Alg. 2: `CE − w_s·SSIM(x, x') + w_m·‖m‖₁` at fixed weights.
    Usb(RefineConfig),
    /// Neural Cleanse: `CE + λ‖m‖₁` under the adaptive λ schedule.
    Nc(NcConfig),
    /// TABOR: Neural Cleanse's loss plus the elastic-net and
    /// total-variation regularisers.
    Tabor(TaborConfig),
}

/// What [`optimise_trigger`] returns.
#[derive(Debug, Clone)]
pub struct TriggerFit {
    /// The optimised trigger.
    pub var: TriggerVar,
    /// Fraction of all images the final trigger sends to the target.
    pub success_rate: f64,
    /// Mean SSIM between the clean and stamped batch at the last step
    /// ([`Objective::Usb`] only; 0 for the other objectives).
    pub final_ssim: f32,
}

impl TriggerFit {
    /// The per-class result USB, NC and TABOR report for `class`: the
    /// squashed mask and pattern, the mask's L1 norm and the success rate.
    pub fn class_result(&self, class: usize) -> ClassResult {
        ClassResult {
            class,
            l1_norm: self.var.mask_l1(),
            attack_success: self.success_rate,
            pattern: self.var.pattern(),
            mask: self.var.mask(),
        }
    }
}

/// Optimises `var` towards `target` under `objective`, then scores the
/// result over all of `images` with [`Network::count_hits`].
///
/// Each step takes the next batch of `images` in order (Alg. 2 line 3),
/// stamps it, takes the CE input gradient through the tape-backed
/// [`Network::input_grad_in`], adds the objective's terms and takes an Adam
/// step. The model is only read, so concurrent per-class optimisations
/// can share one `&Network`; the caller's `tape` and `ws` serve every
/// step, and every per-step tensor is drawn from and recycled into that
/// workspace, so a warm step allocates nothing (pinned by the
/// `refine_alloc` test). What they hold on entry never reaches the result,
/// so a context warmed by another class gives a fresh context's bits.
///
/// # Panics
///
/// Panics if `images` is not a non-empty `[N, C, H, W]` batch or its
/// `[C, H, W]` does not match `var`.
pub fn optimise_trigger(
    model: &Network,
    images: &Tensor,
    target: usize,
    mut var: TriggerVar,
    objective: Objective,
    tape: &mut Tape,
    ws: &mut Workspace,
) -> TriggerFit {
    assert_eq!(
        images.ndim(),
        4,
        "optimise_trigger: images must be [N,C,H,W]"
    );
    let n = images.shape()[0];
    assert!(n > 0, "optimise_trigger: no clean data");
    let (steps, lr, batch_size, mut lambda) = match objective {
        Objective::Usb(c) => (c.steps, c.lr, c.batch_size, c.mask_l1_weight),
        Objective::Nc(c) | Objective::Tabor(TaborConfig { base: c, .. }) => {
            (c.steps, c.lr, c.batch_size, c.init_lambda)
        }
    };
    let bs = batch_size.min(n);
    let row = images.len() / n;
    let mut batch_shape = images.shape().to_vec();
    batch_shape[0] = bs;
    let mut adam = TensorAdam::new(lr).with_betas(0.5, 0.9);
    let mut cursor = 0usize;
    let mut final_ssim = 0.0f32;
    for step in 0..steps {
        let mut bdata = ws.take_dirty(bs * row);
        for (i, dst) in bdata.chunks_exact_mut(row).enumerate() {
            let src = (cursor + i) % n;
            dst.copy_from_slice(&images.data()[src * row..(src + 1) * row]);
        }
        cursor = (cursor + bs) % n;
        let batch = Tensor::from_vec(bdata, &batch_shape);
        let stamped = var.apply(&batch, ws);
        let (logits, mut d_stamped) = model.input_grad_in(
            &stamped,
            |logits, ws| softmax_cross_entropy_uniform_target_ws(logits, target, ws).1,
            tape,
            ws,
        );
        let k = logits.shape()[1];
        let hits = logits
            .data()
            .chunks_exact(k)
            .filter(|&r| ops::argmax_row(r) == target)
            .count();
        ws.recycle(logits);
        if let Objective::Usb(c) = objective {
            // −w·SSIM(x', x) rewards similarity: add −w·dSSIM/dx' in place.
            let (ssim, d_ssim) = ssim_with_grad_ws(&stamped, &batch, ws);
            final_ssim = ssim;
            d_stamped.axpy(-c.ssim_weight, &d_ssim);
            ws.recycle(d_ssim);
        }
        ws.recycle(stamped);
        let (mut d_tm, mut d_tp) = var.backward(&batch, &d_stamped, ws);
        ws.recycle(d_stamped);
        ws.recycle(batch);
        if lambda > 0.0 {
            let l1 = var.mask_l1_grad(lambda, ws);
            d_tm.add_assign(&l1);
            ws.recycle(l1);
        }
        if let Objective::Tabor(c) = objective {
            c.add_regulariser_grads(&var, &mut d_tm, &mut d_tp, ws);
        }
        {
            let (tm, tp) = var.params_mut();
            adam.step(&mut [tm, tp], &[&d_tm, &d_tp]);
        }
        ws.recycle(d_tm);
        ws.recycle(d_tp);
        if let Objective::Nc(c) | Objective::Tabor(TaborConfig { base: c, .. }) = objective {
            lambda = c.next_lambda(step, lambda, hits as f64 / bs as f64);
        }
    }
    // Final success over all of `images`: a pure read of the model through
    // the cache-free inference path.
    let stamp = |batch: Tensor, ws: &mut Workspace| {
        let stamped = var.apply(&batch, ws);
        ws.recycle(batch);
        stamped
    };
    let (hits, _) = model.count_hits(images, |_| true, |_| target, stamp, ws);
    TriggerFit {
        var,
        success_rate: hits as f64 / n as f64,
        final_ssim,
    }
}
