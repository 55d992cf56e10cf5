//! TABOR (Guo et al., ICDM 2020): Neural Cleanse plus explicit trigger
//! regularisers.
//!
//! On top of NC's `CE + λ‖m‖₁`, TABOR penalises
//!
//! * **overly large triggers** — an elastic-net term `λ₁(‖m‖₁ + ‖m‖₂²)`;
//! * **scattered triggers** — total variation of the mask `λ₂·TV(m)`;
//! * **noisy patterns** — total variation of the masked pattern
//!   `λ₃·TV(p⊙m)`.
//!
//! This reproduction keeps the regularisers that drive TABOR's behavioural
//! difference from NC (smoother, blockier masks; slightly better clean-model
//! behaviour, slower optimisation) and omits the NLP-specific terms of the
//! original paper.

use crate::nc::NcConfig;
use crate::optimise::{optimise_trigger, Objective};
use crate::trigger_var::{masked_pattern, total_variation_with_grad, TriggerVar};
use crate::verdict::{ClassResult, Defense};
use rand::rngs::StdRng;
use usb_nn::models::Network;
use usb_tensor::{Tensor, Workspace};

/// TABOR hyperparameters: the shared NC schedule plus regulariser weights.
///
/// Defaults (via [`TaborConfig::standard`]): the NC schedule at
/// `steps: 200`, with `elastic_weight: 1e-3`, `mask_tv_weight: 1e-3`,
/// `pattern_tv_weight: 5e-4` (all dimensionless loss weights).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaborConfig {
    /// The underlying mask/pattern optimisation schedule.
    pub base: NcConfig,
    /// Elastic-net weight λ₁ (overly large triggers).
    pub elastic_weight: f32,
    /// Mask smoothness weight λ₂.
    pub mask_tv_weight: f32,
    /// Masked-pattern smoothness weight λ₃.
    pub pattern_tv_weight: f32,
}

impl TaborConfig {
    /// Full-strength configuration. TABOR runs more steps than NC (the
    /// extra regularisers slow convergence), which also reproduces the
    /// paper's Table 7 time ordering TABOR > NC ≫ USB.
    pub fn standard() -> Self {
        let mut base = NcConfig::standard();
        base.steps = 200;
        TaborConfig {
            base,
            elastic_weight: 1e-3,
            mask_tv_weight: 1e-3,
            pattern_tv_weight: 5e-4,
        }
    }

    /// Reduced configuration for unit tests.
    pub fn fast() -> Self {
        TaborConfig {
            base: NcConfig::fast(),
            ..Self::standard()
        }
    }

    /// Adds the gradients of TABOR's regularisers — the elastic net
    /// `λ₁(‖m‖₁ + ‖m‖₂²)`, `λ₂·TV(m)` and `λ₃·TV(p⊙m)` — with respect to
    /// `(θ_mask, θ_pattern)` onto one step's gradients, all scratch drawn
    /// from `ws`.
    pub(crate) fn add_regulariser_grads(
        &self,
        var: &TriggerVar,
        d_tm: &mut Tensor,
        d_tp: &mut Tensor,
        ws: &mut Workspace,
    ) {
        let (mask, pattern) = var.values_in(ws);
        // Elastic net on the mask: d(‖m‖₁ + ‖m‖₂²)/dm = 1 + 2m.
        let mut d_mask = Tensor::from_vec(ws.take_dirty(mask.len()), mask.shape());
        for (d, &m) in d_mask.data_mut().iter_mut().zip(mask.data()) {
            *d = self.elastic_weight * (1.0 + 2.0 * m);
        }
        // Mask smoothness.
        let (_, tv_m) = total_variation_with_grad(&mask, ws);
        d_mask.axpy(self.mask_tv_weight, &tv_m);
        // Masked-pattern smoothness: TV(p⊙m), chained to both factors.
        let masked = masked_pattern(&pattern, &mask, ws);
        let (_, tv_pm) = total_variation_with_grad(&masked, ws);
        let mut d_pattern = Tensor::from_vec(ws.take_dirty(pattern.len()), pattern.shape());
        let (dm, dp) = (d_mask.data_mut(), d_pattern.data_mut());
        let m = mask.data();
        for ((dpc, tvc), pc) in dp
            .chunks_exact_mut(m.len())
            .zip(tv_pm.data().chunks_exact(m.len()))
            .zip(pattern.data().chunks_exact(m.len()))
        {
            for j in 0..m.len() {
                let g = self.pattern_tv_weight * tvc[j];
                dpc[j] = g * m[j];
                dm[j] += g * pc[j];
            }
        }
        var.chain(dm, dp);
        d_tm.add_assign(&d_mask);
        d_tp.add_assign(&d_pattern);
        for t in [d_mask, d_pattern, tv_m, masked, tv_pm, mask, pattern] {
            ws.recycle(t);
        }
    }
}

impl Default for TaborConfig {
    fn default() -> Self {
        Self::standard()
    }
}

/// The TABOR defense.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tabor {
    /// Hyperparameters.
    pub config: TaborConfig,
}

impl Tabor {
    /// TABOR with the standard configuration.
    pub fn new(config: TaborConfig) -> Self {
        Tabor { config }
    }

    /// TABOR with the reduced test configuration.
    pub fn fast() -> Self {
        Tabor {
            config: TaborConfig::fast(),
        }
    }
}

impl Defense for Tabor {
    fn name(&self) -> &'static str {
        "TABOR"
    }

    fn reverse_class(
        &self,
        model: &Network,
        images: &Tensor,
        target: usize,
        rng: &mut StdRng,
    ) -> ClassResult {
        let (c, h, w) = model.input_shape();
        let var = TriggerVar::random(c, h, w, rng);
        optimise_trigger(model, images, target, var, Objective::Tabor(self.config))
            .class_result(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use usb_attacks::{Attack, BadNet};
    use usb_data::SyntheticSpec;
    use usb_nn::models::{Architecture, ModelKind};
    use usb_nn::train::TrainConfig;

    /// `λ₁(‖m‖₁ + ‖m‖₂²) + λ₂·TV(m) + λ₃·TV(p⊙m)` in f64, from the
    /// unconstrained parameters `θ_mask` (`[H, W]`) and `θ_pattern`
    /// (`[C, H, W]`) through the `tanh` squash.
    fn regulariser_f64(cfg: &TaborConfig, tm: &[f64], tp: &[f64], (h, w): (usize, usize)) -> f64 {
        let squash = |t: f64| (t.tanh() + 1.0) / 2.0;
        let m: Vec<f64> = tm.iter().map(|&t| squash(t)).collect();
        let pm: Vec<f64> = tp
            .iter()
            .enumerate()
            .map(|(i, &t)| squash(t) * m[i % m.len()])
            .collect();
        let tv = |t: &[f64]| -> f64 {
            let mut s = 0.0;
            for pl in t.chunks_exact(h * w) {
                for y in 0..h {
                    for x in 0..w {
                        if y + 1 < h {
                            s += (pl[(y + 1) * w + x] - pl[y * w + x]).abs();
                        }
                        if x + 1 < w {
                            s += (pl[y * w + x + 1] - pl[y * w + x]).abs();
                        }
                    }
                }
            }
            s
        };
        let elastic: f64 = m.iter().map(|v| v + v * v).sum();
        f64::from(cfg.elastic_weight) * elastic
            + f64::from(cfg.mask_tv_weight) * tv(&m)
            + f64::from(cfg.pattern_tv_weight) * tv(&pm)
    }

    /// `add_regulariser_grads` against f64 central differences of the
    /// three regularisers, with respect to every `θ_mask` and `θ_pattern`
    /// entry. Mask and pattern values are spread so that no TV term sits
    /// near its kink at a zero difference.
    #[test]
    fn regulariser_grads_match_finite_differences() {
        let (c, h, w) = (2, 4, 5);
        let mask = Tensor::from_fn(&[h, w], |i| 0.1 + 0.8 * ((i * 7 % 20) as f32 / 20.0));
        let pattern = Tensor::from_fn(&[c, h, w], |i| 0.05 + 0.9 * ((i * 13 % 40) as f32 / 40.0));
        let cfg = TaborConfig {
            elastic_weight: 0.7,
            mask_tv_weight: 0.3,
            pattern_tv_weight: 0.5,
            ..TaborConfig::fast()
        };
        let mut var = TriggerVar::from_values(&mask, &pattern);
        let (mut d_tm, mut d_tp) = (Tensor::zeros(&[h, w]), Tensor::zeros(&[c, h, w]));
        cfg.add_regulariser_grads(&var, &mut d_tm, &mut d_tp, &mut Workspace::new());
        let (tm, tp) = var.params_mut();
        let theta: Vec<f64> = tm
            .data()
            .iter()
            .chain(tp.data())
            .map(|&t| f64::from(t))
            .collect();
        let loss = |th: &[f64]| regulariser_f64(&cfg, &th[..h * w], &th[h * w..], (h, w));
        let eps = 1e-6;
        for (j, &ana) in d_tm.data().iter().chain(d_tp.data()).enumerate() {
            let (mut plus, mut minus) = (theta.clone(), theta.clone());
            plus[j] += eps;
            minus[j] -= eps;
            let num = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            assert!(
                (num - f64::from(ana)).abs() < 1e-5 + 1e-3 * num.abs(),
                "θ {j}: num={num} ana={ana}"
            );
        }
    }

    #[test]
    fn tabor_reverses_backdoor_with_smooth_mask() {
        let data = SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(240)
            .with_test_size(60)
            .with_classes(4)
            .generate(61);
        let arch = Architecture::new(ModelKind::ResNet18, (1, 12, 12), 4).with_width(4);
        let victim = BadNet::new(2, 3, 0.15).execute(&data, arch, TrainConfig::new(20), 8);
        assert!(victim.asr() > 0.8, "attack failed: {}", victim.asr());
        let mut rng = StdRng::seed_from_u64(1);
        let (clean_x, _) = data.clean_subset(48, &mut rng);
        let tabor = Tabor::fast();
        let backdoored = tabor.reverse_class(&victim.model, &clean_x, 3, &mut rng);
        let clean = tabor.reverse_class(&victim.model, &clean_x, 0, &mut rng);
        assert!(
            backdoored.l1_norm < clean.l1_norm,
            "backdoored mask {:.2} should beat clean {:.2}",
            backdoored.l1_norm,
            clean.l1_norm
        );
        assert!(backdoored.attack_success > 0.7);
    }
}
