//! Alg. 1: computation of the targeted universal adversarial perturbation.
//!
//! ```text
//! Input:  data points X, target class t, victim model f,
//!         desired L∞ budget δ, desired error rate θ
//! Output: targeted UAP v
//!
//! v ← 0
//! while Err(X + v) ≤ θ:
//!     for xᵢ in X:
//!         if f(xᵢ + v) ≠ t:
//!             Δvᵢ ← argmin_r ‖r‖₂ s.t. f(xᵢ + v + r) = t     (DeepFool)
//!             v ← project(v + Δvᵢ)
//! ```
//!
//! The `f(xᵢ + v) ≠ t` test and the DeepFool call are one loop: the
//! DeepFool loop's first forward is the sample's prediction, and it takes
//! gradient steps only when that prediction is off target. `Err(X + v)`
//! is counted by [`Network::count_hits`] with `v` added to each gathered
//! batch in place, the hit count every success rate goes through.
//!
//! The key observation of the paper: on a backdoored model the loop
//! converges with a much *smaller* `v` for the implanted target class,
//! because poisoning built a shortcut from every class region to the
//! target.

use crate::deepfool::{deepfool_in_place, DeepfoolConfig};
use usb_nn::models::Network;
use usb_tensor::{Tape, Tensor, Workspace};

/// Hyperparameters for targeted-UAP generation (paper Alg. 1).
///
/// Defaults: `error_rate: 0.6` (targeted success fraction θ in `[0, 1]`,
/// as in the paper), `max_passes: 3` data sweeps, `linf_budget: 0.5`
/// (pixels live in `[0, 1]`), and the stock DeepFool inner settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UapConfig {
    /// Desired targeted success rate θ (the paper uses 0.6).
    pub error_rate: f64,
    /// Maximum sweeps over the data.
    pub max_passes: usize,
    /// L∞ projection budget δ for the accumulated perturbation.
    pub linf_budget: f32,
    /// Inner DeepFool configuration.
    pub deepfool: DeepfoolConfig,
}

impl Default for UapConfig {
    fn default() -> Self {
        UapConfig {
            error_rate: 0.6,
            max_passes: 3,
            linf_budget: 0.5,
            deepfool: DeepfoolConfig::default(),
        }
    }
}

impl UapConfig {
    /// Reduced configuration for unit tests.
    pub fn fast() -> Self {
        UapConfig {
            max_passes: 2,
            deepfool: DeepfoolConfig { max_iters: 8 },
            ..Self::default()
        }
    }
}

/// The generated UAP and its convergence statistics.
#[derive(Debug, Clone)]
pub struct UapResult {
    /// The universal perturbation `[C, H, W]`.
    pub perturbation: Tensor,
    /// Fraction of `X + v` classified as the target after generation.
    pub success_rate: f64,
    /// Number of data sweeps used.
    pub passes: usize,
    /// Total DeepFool invocations.
    pub deepfool_calls: usize,
}

impl UapResult {
    /// L1 norm of the perturbation — the "UAPs from backdoored models need
    /// fewer perturbations" statistic (paper Fig. 1).
    pub fn l1_norm(&self) -> f64 {
        self.perturbation.l1_norm() as f64
    }
}

/// One pixel of the perturbed input `clamp(x + v, 0, 1)`.
fn perturbed(x: f32, v: f32) -> f32 {
    (x + v).clamp(0.0, 1.0)
}

/// Fraction of `images + v` (clamped) classified as `target` — Alg. 1's
/// `Err(X + v)` — drawing all model-pass scratch from `ws`.
///
/// Pure inference: the model is only read (shared `&Network`).
/// [`Network::count_hits`] gathers each batch into the workspace and the
/// stamp adds `v` in place, so a warm call allocates nothing.
///
/// # Panics
///
/// Panics if `images` is not `[N, C, H, W]` or `v` is not one image of it.
pub(crate) fn targeted_success_rate(
    model: &Network,
    images: &Tensor,
    v: &Tensor,
    target: usize,
    ws: &mut Workspace,
) -> f64 {
    assert_eq!(
        v.shape(),
        &images.shape()[1..],
        "targeted_success_rate: v shape mismatch"
    );
    let add_v = |mut batch: Tensor, _: &mut Workspace| {
        for img in batch.data_mut().chunks_exact_mut(v.len()) {
            for (x, &p) in img.iter_mut().zip(v.data()) {
                *x = perturbed(*x, p);
            }
        }
        batch
    };
    let (hits, seen) = model.count_hits(images, |_| true, |_| target, add_v, ws);
    hits as f64 / seen.max(1) as f64
}

/// Generates a targeted UAP for `target` from the clean data points
/// `images` (`[N, C, H, W]`, the paper's `X` — a few hundred samples).
///
/// The model is only **read** — forward passes go through the cache-free
/// inference path and DeepFool gradients through the caller-invisible
/// gradient tape — so concurrent per-class UAP generations can share one
/// `&Network`.
///
/// Each sample visit writes `x' = clamp(xᵢ + v)` into one reused buffer and
/// runs the DeepFool loop on it; that loop's first forward answers
/// `f(x') ≠ t`. When it does, the sample's DeepFool displacement is added
/// to `v`, which is then projected onto the L∞ ball of radius δ. One tape
/// and one workspace serve every sample and pass, so a warm pass allocates
/// nothing.
///
/// # Panics
///
/// Panics if `images` is empty or `target` is out of range.
pub fn targeted_uap(
    model: &Network,
    images: &Tensor,
    target: usize,
    config: UapConfig,
) -> UapResult {
    let [n, c, h, w]: [usize; 4] = images.shape().try_into().expect("images must be [N,C,H,W]");
    assert!(n > 0, "targeted_uap: no data points");
    assert!(
        target < model.num_classes(),
        "targeted_uap: target out of range"
    );
    let delta = config.linf_budget;
    let mut v = Tensor::zeros(&[c, h, w]);
    let mut passes = 0usize;
    let mut deepfool_calls = 0usize;
    let mut ws = Workspace::new();
    let mut tape = Tape::new();
    let mut adv = Tensor::zeros(&[1, c, h, w]);
    let mut success = targeted_success_rate(model, images, &v, target, &mut ws);
    while success < config.error_rate && passes < config.max_passes {
        for xi in images.data().chunks_exact(v.len()) {
            for ((a, &x), &p) in adv.data_mut().iter_mut().zip(xi).zip(v.data()) {
                *a = perturbed(x, p);
            }
            if deepfool_in_place(model, &mut adv, target, config.deepfool, &mut tape, &mut ws) {
                deepfool_calls += 1;
                // v ← project(v + Δvᵢ) with Δvᵢ = adv − x' (Alg. 1 line 7);
                // x' is recomputed bit for bit, as `v` has not moved.
                for ((p, &a), &x) in v.data_mut().iter_mut().zip(adv.data()).zip(xi) {
                    *p = (*p + (a - perturbed(x, *p))).clamp(-delta, delta);
                }
            }
        }
        passes += 1;
        success = targeted_success_rate(model, images, &v, target, &mut ws);
    }
    UapResult {
        perturbation: v,
        success_rate: success,
        passes,
        deepfool_calls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use usb_attacks::{train_clean_victim, Attack, BadNet};
    use usb_data::SyntheticSpec;
    use usb_nn::models::{Architecture, ModelKind};
    use usb_nn::train::TrainConfig;

    #[test]
    fn uap_reaches_requested_success_rate_on_clean_model() {
        let data = SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(160)
            .with_test_size(40)
            .with_classes(4)
            .generate(81);
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(6);
        let victim = train_clean_victim(&data, arch, TrainConfig::fast(), 2);
        let mut rng = StdRng::seed_from_u64(0);
        let (x, _) = data.clean_subset(24, &mut rng);
        let result = targeted_uap(&victim.model, &x, 1, UapConfig::default());
        assert!(
            result.success_rate >= 0.6,
            "UAP failed to reach θ: {}",
            result.success_rate
        );
        assert!(result.perturbation.linf_norm() <= 0.5 + 1e-5);
        assert!(result.deepfool_calls > 0);
    }

    #[test]
    fn backdoored_target_needs_smaller_uap() {
        // The paper's central observation (Fig. 1): UAPs toward the
        // backdoored class are smaller than toward clean classes.
        let data = SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(300)
            .with_test_size(60)
            .with_classes(6)
            .generate(91);
        let arch = Architecture::new(ModelKind::ResNet18, (1, 12, 12), 6).with_width(4);
        let victim = BadNet::new(2, 0, 0.15).execute(&data, arch, TrainConfig::new(20), 4);
        assert!(victim.asr() > 0.8, "attack failed: {}", victim.asr());
        let mut rng = StdRng::seed_from_u64(1);
        let (x, _) = data.clean_subset(24, &mut rng);
        let to_backdoor = targeted_uap(&victim.model, &x, 0, UapConfig::fast());
        let to_clean = targeted_uap(&victim.model, &x, 3, UapConfig::fast());
        assert!(
            to_backdoor.l1_norm() < to_clean.l1_norm(),
            "backdoor UAP {:.1} should be smaller than clean UAP {:.1}",
            to_backdoor.l1_norm(),
            to_clean.l1_norm()
        );
    }

    #[test]
    fn zero_deepfool_budget_counts_calls_and_leaves_v_unchanged() {
        let model = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4)
            .with_width(4)
            .build(&mut StdRng::seed_from_u64(3));
        let x = Tensor::from_fn(&[12, 1, 12, 12], |i| 0.5 + 0.4 * ((i as f32) * 0.29).sin());
        let target = 2;
        let config = UapConfig {
            error_rate: 1.01,
            deepfool: DeepfoolConfig { max_iters: 0 },
            ..UapConfig::fast()
        };
        let result = targeted_uap(&model, &x, target, config);
        let off_target = model.predict(&x).iter().filter(|&&p| p != target).count();
        assert!(off_target > 0);
        assert_eq!(result.passes, 2);
        assert_eq!(result.deepfool_calls, 2 * off_target);
        assert_eq!(result.l1_norm(), 0.0);
    }

    #[test]
    #[should_panic(expected = "no data points")]
    fn rejects_empty_data() {
        let data = SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(8)
            .with_test_size(4)
            .with_classes(4)
            .generate(1);
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(4);
        let victim = train_clean_victim(&data, arch, TrainConfig::fast(), 1);
        let empty = Tensor::zeros(&[0, 1, 12, 12]);
        let _ = targeted_uap(&victim.model, &empty, 0, UapConfig::fast());
    }
}
