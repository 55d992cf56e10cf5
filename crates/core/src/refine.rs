//! Alg. 2: refining the targeted UAP into a `trigger × mask` pair.
//!
//! ```text
//! Input:  data points X, target class t, victim model f, UAP v,
//!         max iterations m, learning rate lr
//! Output: updated UAP v' = trigger × mask
//!
//! initialise trigger and mask from v
//! for i in 0..m:
//!     x  ← next batch from X (in order)
//!     x' ← x·(1−mask) + trigger·mask
//!     L  ← CE(f(x'), t) − SSIM(x, x') + ‖mask‖₁
//!     backprop L, Adam-update mask and trigger
//! ```
//!
//! Unlike NC, the optimisation starts from the UAP — which already carries
//! the model's shortcut features — instead of a random point, so it needs
//! far fewer iterations (paper §4.4 and Fig. 1). Everything after the
//! initialisation is Neural Cleanse's loop with USB's loss: this module
//! supplies the start, `usb_defenses::optimise_trigger` runs the steps.

use usb_defenses::{optimise_trigger, Objective, RefineConfig, TriggerFit, TriggerVar};
use usb_nn::models::Network;
use usb_tensor::{Tape, Tensor, Workspace};

/// Builds the Alg. 2 initialisation from a UAP: the mask is the
/// channel-averaged magnitude of `v` (normalised), the trigger is `v`
/// re-centred into pixel space.
pub fn init_from_uap(v: &Tensor) -> (Tensor, Tensor) {
    assert_eq!(v.ndim(), 3, "init_from_uap: v must be [C,H,W]");
    let (c, h, w) = (v.shape()[0], v.shape()[1], v.shape()[2]);
    let mut mag = Tensor::zeros(&[h, w]);
    for ch in 0..c {
        for j in 0..h * w {
            mag.data_mut()[j] += v.data()[ch * h * w + j].abs() / c as f32;
        }
    }
    let max = mag.max().max(1e-6);
    let mask = mag.map(|m| (0.9 * m / max).clamp(0.0, 0.95));
    // Trigger: v scaled into [0,1] around 0.5 — where the mask is strong,
    // x' ≈ trigger, so the trigger must encode v's direction in pixel space.
    let vmax = v.linf_norm().max(1e-6);
    let pattern = v.map(|p| (0.5 + 0.5 * p / vmax).clamp(0.0, 1.0));
    (mask, pattern)
}

/// Runs Alg. 2: refine the UAP `v` into a `trigger × mask` pair for
/// `target` using the clean data `images`: the UAP-derived start (mask from
/// `|v|`, trigger from `v`) followed by the trigger optimiser shared with
/// NC and TABOR ([`optimise_trigger`] under [`Objective::Usb`]).
///
/// The model is only **read** (tape-backed input gradients, cache-free
/// final scoring), so concurrent per-class refinements can share one
/// `&Network`; each brings its own `tape` and `ws`.
///
/// # Panics
///
/// Panics if `images` is empty or shapes disagree.
pub fn refine_uap(
    model: &Network,
    images: &Tensor,
    target: usize,
    v: &Tensor,
    config: RefineConfig,
    tape: &mut Tape,
    ws: &mut Workspace,
) -> TriggerFit {
    let (mask0, pattern0) = init_from_uap(v);
    let var = TriggerVar::from_values(&mask0, &pattern0);
    optimise_trigger(model, images, target, var, Objective::Usb(config), tape, ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uap::{targeted_uap, UapConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use usb_attacks::{Attack, BadNet};
    use usb_data::SyntheticSpec;
    use usb_nn::models::{Architecture, ModelKind};
    use usb_nn::train::TrainConfig;

    #[test]
    fn init_from_uap_is_valid_range() {
        let v = Tensor::from_fn(&[3, 6, 6], |i| ((i as f32) * 0.37).sin() * 0.4);
        let (mask, pattern) = init_from_uap(&v);
        assert_eq!(mask.shape(), &[6, 6]);
        assert_eq!(pattern.shape(), &[3, 6, 6]);
        assert!(mask.min() >= 0.0 && mask.max() <= 0.95);
        assert!(pattern.min() >= 0.0 && pattern.max() <= 1.0);
    }

    #[test]
    fn init_mask_follows_uap_magnitude() {
        let mut v = Tensor::zeros(&[1, 4, 4]);
        *v.at_mut(&[0, 1, 1]) = 0.5; // single strong pixel
        let (mask, _) = init_from_uap(&v);
        assert_eq!(mask.argmax(), 5); // row 1, col 1 of the 4x4 mask
        assert!(mask.at(&[0, 0]) < 0.01);
    }

    #[test]
    fn refinement_shrinks_backdoored_mask_and_keeps_success() {
        let data = SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(300)
            .with_test_size(60)
            .with_classes(6)
            .generate(101);
        let arch = Architecture::new(ModelKind::ResNet18, (1, 12, 12), 6).with_width(4);
        let victim = BadNet::new(2, 1, 0.15).execute(&data, arch, TrainConfig::new(20), 5);
        assert!(victim.asr() > 0.8, "attack failed: {}", victim.asr());
        let mut rng = StdRng::seed_from_u64(2);
        let (x, _) = data.clean_subset(32, &mut rng);
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let uap = targeted_uap(&victim.model, &x, 1, UapConfig::fast(), &mut tape, &mut ws);
        let refined = refine_uap(
            &victim.model,
            &x,
            1,
            &uap.perturbation,
            RefineConfig::fast(),
            &mut tape,
            &mut ws,
        );
        assert!(
            refined.success_rate > 0.6,
            "refined trigger lost the shortcut: {}",
            refined.success_rate
        );
        // The refined mask concentrates: far smaller than an all-ones mask.
        let full = (12 * 12) as f64;
        assert!(
            refined.var.mask_l1() < 0.5 * full,
            "mask did not concentrate: {}",
            refined.var.mask_l1()
        );
        assert!(
            refined.final_ssim > 0.2,
            "ssim collapsed: {}",
            refined.final_ssim
        );
    }
}
