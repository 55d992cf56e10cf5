//! Neural Cleanse (Wang et al., IEEE S&P 2019).
//!
//! For every candidate target class `t`, NC optimises a `(mask, pattern)`
//! pair minimising
//!
//! ```text
//! L = CE(f(x·(1−m) + p·m), t) + λ·‖m‖₁
//! ```
//!
//! from a **random starting point**, with λ adapted dynamically: raised
//! while the trigger reaches the target reliably, lowered when it stops
//! working. A backdoored class admits a much smaller working mask than clean
//! classes, so its L1 norm is a small-side MAD outlier.

use crate::optimise::{optimise_trigger, Objective};
use crate::trigger_var::TriggerVar;
use crate::verdict::{ClassResult, Defense};
use rand::rngs::StdRng;
use usb_nn::models::Network;
use usb_tensor::Tensor;

/// Hyperparameters for Neural Cleanse.
///
/// Defaults (via [`NcConfig::standard`]): `steps: 150`, `lr: 0.1`,
/// `init_lambda: 1e-3`, `asr_threshold: 0.95` (fraction in `[0, 1]`),
/// `lambda_factor: 1.5`, `patience: 10` steps, `batch_size: 16` images.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NcConfig {
    /// Optimisation steps per class.
    pub steps: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Initial λ for the mask-size penalty.
    pub init_lambda: f32,
    /// Success-rate threshold driving the dynamic λ schedule.
    pub asr_threshold: f64,
    /// Multiplicative λ adjustment factor.
    pub lambda_factor: f32,
    /// Steps between λ adjustments.
    pub patience: usize,
    /// Per-step batch size drawn (in order) from the clean data.
    pub batch_size: usize,
}

impl NcConfig {
    /// Full-strength configuration (used by the experiment grid). 150 steps
    /// is the point where clean-class masks have shrunk to their stable
    /// class-feature size on the synthetic substrate, giving the MAD test a
    /// clean profile to work with.
    pub fn standard() -> Self {
        NcConfig {
            steps: 150,
            lr: 0.1,
            init_lambda: 1e-3,
            asr_threshold: 0.95,
            lambda_factor: 1.5,
            patience: 10,
            batch_size: 16,
        }
    }

    /// Reduced configuration for unit tests: enough steps for backdoored vs
    /// clean class norms to separate, smaller than the full grid schedule.
    pub fn fast() -> Self {
        NcConfig {
            steps: 120,
            ..Self::standard()
        }
    }

    /// NC's dynamic λ after `step`: every `patience` steps, tighten
    /// (×`lambda_factor`) while the trigger sent at least `asr_threshold`
    /// of the step's batch to the target, relax (÷`lambda_factor`) when it
    /// did not.
    pub(crate) fn next_lambda(&self, step: usize, lambda: f32, batch_success: f64) -> f32 {
        if !(step + 1).is_multiple_of(self.patience) {
            lambda
        } else if batch_success >= self.asr_threshold {
            lambda * self.lambda_factor
        } else {
            lambda / self.lambda_factor
        }
    }
}

impl Default for NcConfig {
    fn default() -> Self {
        Self::standard()
    }
}

/// The Neural Cleanse defense.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeuralCleanse {
    /// Hyperparameters.
    pub config: NcConfig,
}

impl NeuralCleanse {
    /// NC with the standard configuration.
    pub fn new(config: NcConfig) -> Self {
        NeuralCleanse { config }
    }

    /// NC with the reduced test configuration.
    pub fn fast() -> Self {
        NeuralCleanse {
            config: NcConfig::fast(),
        }
    }
}

impl Defense for NeuralCleanse {
    fn name(&self) -> &'static str {
        "NC"
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
        optimise_trigger(model, images, target, var, Objective::Nc(self.config))
            .class_result(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use usb_attacks::{Attack, BadNet};
    use usb_data::SyntheticSpec;
    use usb_nn::models::{Architecture, ModelKind};
    use usb_nn::train::TrainConfig;

    #[test]
    fn nc_reverses_small_trigger_for_backdoored_class() {
        let data = SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(240)
            .with_test_size(60)
            .with_classes(4)
            .generate(51);
        let arch = Architecture::new(ModelKind::ResNet18, (1, 12, 12), 4).with_width(4);
        let victim = BadNet::new(2, 1, 0.15).execute(&data, arch, TrainConfig::new(20), 6);
        assert!(victim.asr() > 0.8, "attack failed, asr {}", victim.asr());
        let mut rng = StdRng::seed_from_u64(0);
        let (clean_x, _) = data.clean_subset(48, &mut rng);
        let nc = NeuralCleanse::fast();
        let backdoored = nc.reverse_class(&victim.model, &clean_x, 1, &mut rng);
        let clean = nc.reverse_class(&victim.model, &clean_x, 0, &mut rng);
        assert!(
            backdoored.l1_norm < clean.l1_norm,
            "backdoored class mask ({:.2}) should be smaller than clean ({:.2})",
            backdoored.l1_norm,
            clean.l1_norm
        );
        assert!(
            backdoored.attack_success > 0.8,
            "reversed trigger does not work: {}",
            backdoored.attack_success
        );
    }
}
