//! Targeted DeepFool (Moosavi-Dezfooli et al., CVPR 2016), the inner solver
//! of Alg. 1.
//!
//! The original DeepFool finds the *nearest* decision boundary; the targeted
//! variant used by the paper's Alg. 1 line 6 solves
//!
//! ```text
//! Δv ← argmin_r ‖r‖₂   s.t.  f(x + v + r) = t
//! ```
//!
//! by iterating the linearised step `r = (z_c − z_t) / ‖w‖² · w` with
//! `w = ∇(z_t − z_c)`, where `c` is the currently predicted class.
//!
//! Each iteration is one recorded forward, and a backward only when the
//! sample is still off target. The first forward is therefore the
//! sample's prediction, which is the `f(xᵢ + v) ≠ t` test of Alg. 1 line 5:
//! the UAP sweep asks the question and runs DeepFool in one loop.

use usb_nn::layer::{Layer, Pass};
use usb_nn::models::Network;
use usb_tensor::{ops, Tape, Tensor, Workspace};

/// How far each linearised step overshoots the boundary: every step is
/// scaled by `1 + OVERSHOOT`, the original DeepFool constant.
const OVERSHOOT: f32 = 0.02;

/// Hyperparameters of the targeted DeepFool inner loop.
///
/// Default: `max_iters: 12`. Each step overshoots by `OVERSHOOT` (0.02) and
/// clamps the sample back into the pixel range `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeepfoolConfig {
    /// Maximum linearised steps per call.
    pub max_iters: usize,
}

impl Default for DeepfoolConfig {
    fn default() -> Self {
        DeepfoolConfig { max_iters: 12 }
    }
}

/// Moves the `[1, C, H, W]` sample `xi` toward `target` in place and
/// returns whether it started off target.
///
/// Each iteration records one `Pass::Eval` forward into `tape` and takes
/// the predicted class `c` with [`ops::argmax_row`]. On target the loop
/// stops without a backward; otherwise the `±1` logit seed drawn from `ws`
/// goes through [`Layer::grad`], `xi` takes the step and is clamped in
/// place. At most `max_iters` steps run and no forward follows the last
/// one; the first forward always runs, since it is the prediction. The
/// model is only **read**, so one `&Network` serves every worker. Every
/// tensor is drawn from and recycled into `ws`, so a warm call allocates
/// nothing.
pub(crate) fn deepfool_in_place(
    model: &Network,
    xi: &mut Tensor,
    target: usize,
    config: DeepfoolConfig,
    tape: &mut Tape,
    ws: &mut Workspace,
) -> bool {
    let mut steps = 0;
    loop {
        tape.begin();
        let logits = model.forward(xi, Pass::Eval(tape), ws);
        let cur = ops::argmax_row(logits.data());
        // > 0 while not yet at target.
        let f_diff = logits.data()[cur] - logits.data()[target];
        ws.recycle(logits);
        // A zero budget leaves only the prediction.
        if cur == target || config.max_iters == 0 {
            return cur != target || steps > 0;
        }
        // One backward pass for the logit difference z_t − z_c.
        let mut seed = ws.take_tensor(&[1, model.num_classes()]);
        seed.data_mut()[target] = 1.0;
        seed.data_mut()[cur] = -1.0;
        let grad = model.grad(&seed, tape, ws, None);
        ws.recycle(seed);
        let w_norm_sq = grad.data().iter().map(|g| g * g).sum::<f32>();
        if w_norm_sq <= 1e-12 {
            ws.recycle(grad);
            return true; // flat landscape; nothing to exploit
        }
        let step = (f_diff + 1e-4) / w_norm_sq * (1.0 + OVERSHOOT);
        xi.axpy(step, &grad);
        ws.recycle(grad);
        xi.map_assign(|p| p.clamp(0.0, 1.0));
        steps += 1;
        if steps == config.max_iters {
            return true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usb_attacks::train_clean_victim;
    use usb_data::SyntheticSpec;
    use usb_nn::models::{Architecture, ModelKind};
    use usb_nn::train::TrainConfig;

    fn predict(model: &Network, x: &Tensor, ws: &mut Workspace) -> usize {
        let logits = model.infer(&x.reshape(&[1, 1, 12, 12]), ws);
        ops::argmax_row(logits.data())
    }

    /// The DeepFool displacement of the `[C, H, W]` image `x` toward
    /// `target`: the loop Alg. 1 runs, on the caller's tape and workspace.
    fn deepfool(
        model: &Network,
        x: &Tensor,
        target: usize,
        tape: &mut Tape,
        ws: &mut Workspace,
    ) -> Tensor {
        let (c, h, w) = model.input_shape();
        let mut xi = x.reshape(&[1, c, h, w]);
        deepfool_in_place(model, &mut xi, target, DeepfoolConfig::default(), tape, ws);
        xi.reshape(x.shape()).sub(x)
    }

    fn trained_victim() -> (usb_data::Dataset, Network) {
        let data = SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(160)
            .with_test_size(40)
            .with_classes(4)
            .generate(71);
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(6);
        let victim = train_clean_victim(&data, arch, TrainConfig::fast(), 2);
        (data, victim.model)
    }

    #[test]
    fn deepfool_reaches_target_class() {
        let (data, model) = trained_victim();
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let mut reached = 0;
        let mut total = 0;
        for i in 0..8 {
            let x = data.test_images.index_axis0(i);
            let label = data.test_labels[i];
            let target = (label + 1) % 4;
            let r = deepfool(&model, &x, target, &mut tape, &mut ws);
            let adv = x.add(&r).clamp(0.0, 1.0);
            let pred = predict(&model, &adv, &mut ws);
            total += 1;
            if pred == target {
                reached += 1;
            }
        }
        assert!(
            reached * 2 >= total,
            "deepfool reached target only {reached}/{total} times"
        );
    }

    #[test]
    fn zero_perturbation_when_already_target() {
        let (data, model) = trained_victim();
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        // Find a test image the model classifies correctly.
        for i in 0..10 {
            let x = data.test_images.index_axis0(i);
            let pred = predict(&model, &x, &mut ws);
            if pred == data.test_labels[i] {
                let r = deepfool(&model, &x, pred, &mut tape, &mut ws);
                assert_eq!(r.l1_norm(), 0.0, "no perturbation needed");
                return;
            }
        }
        panic!("model never classified correctly");
    }

    #[test]
    fn zero_budget_only_predicts() {
        let (data, model) = trained_victim();
        let x = data.test_images.index_axis0(0);
        let target = (data.test_labels[0] + 1) % 4;
        let config = DeepfoolConfig { max_iters: 0 };
        let (c, h, w) = model.input_shape();
        let mut xi = x.reshape(&[1, c, h, w]);
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let off = deepfool_in_place(&model, &mut xi, target, config, &mut tape, &mut ws);
        assert_eq!(off, predict(&model, &x, &mut ws) != target);
        assert_eq!(xi.data(), x.data(), "a zero budget takes no step");
    }

    #[test]
    fn perturbation_is_small_relative_to_image() {
        let (data, model) = trained_victim();
        let x = data.test_images.index_axis0(0);
        let target = (data.test_labels[0] + 1) % 4;
        let r = deepfool(&model, &x, target, &mut Tape::new(), &mut Workspace::new());
        // An adversarial perturbation should be much smaller than the image.
        assert!(
            r.l2_norm() < x.l2_norm(),
            "perturbation {} vs image {}",
            r.l2_norm(),
            x.l2_norm()
        );
    }

    #[test]
    fn respects_pixel_clamp() {
        let (data, model) = trained_victim();
        let x = data.test_images.index_axis0(1);
        let target = (data.test_labels[1] + 2) % 4;
        let r = deepfool(&model, &x, target, &mut Tape::new(), &mut Workspace::new());
        let adv = x.add(&r);
        assert!(adv.min() >= -1e-5 && adv.max() <= 1.0 + 1e-5);
    }

    /// A warm tape and workspace give the fresh result bit for bit.
    #[test]
    fn deterministic_on_a_reused_context() {
        let (data, model) = trained_victim();
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let x = data.test_images.index_axis0(2);
        let target = (data.test_labels[2] + 1) % 4;
        let a = deepfool(&model, &x, target, &mut tape, &mut ws);
        let b = deepfool(&model, &x, target, &mut tape, &mut ws);
        let fresh = deepfool(&model, &x, target, &mut Tape::new(), &mut Workspace::new());
        assert_eq!(a.data(), b.data());
        assert_eq!(a.data(), fresh.data());
    }
}
