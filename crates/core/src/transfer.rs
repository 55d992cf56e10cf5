//! UAP transfer across models (paper §4.4).
//!
//! "Although USB needs to generate targeted UAP, the UAP can be used for
//! different models with similar architecture. We only need to generate it
//! once." — this module reuses a UAP generated on a *source* model to seed
//! Alg. 2 on a *different* model, skipping Alg. 1 entirely.

use crate::refine::refine_uap;
use crate::uap::targeted_success_rate;
use usb_defenses::{RefineConfig, TriggerFit};
use usb_nn::models::Network;
use usb_tensor::{Tape, Tensor, Workspace};

/// Result of running refinement on a transferred UAP.
#[derive(Debug, Clone)]
pub struct TransferOutcome {
    /// The refined trigger on the destination model.
    pub refined: TriggerFit,
    /// Targeted success of the *raw* (un-refined) UAP on the destination
    /// model, measuring how well the perturbation transfers by itself.
    pub raw_transfer_success: f64,
}

/// Refines a UAP generated elsewhere against `dest` (Alg. 2 only — no new
/// Alg. 1 run), drawing all scratch from `tape` and `ws`. The destination
/// model is only read.
///
/// # Panics
///
/// Panics if shapes disagree or `images` is empty.
pub fn transfer_uap(
    dest: &Network,
    images: &Tensor,
    target: usize,
    uap: &Tensor,
    config: RefineConfig,
    tape: &mut Tape,
    ws: &mut Workspace,
) -> TransferOutcome {
    let raw = targeted_success_rate(dest, images, uap, target, ws);
    let refined = refine_uap(dest, images, target, uap, config, tape, ws);
    TransferOutcome {
        refined,
        raw_transfer_success: raw,
    }
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
    fn uap_transfers_between_models_with_same_backdoor() {
        // Two models trained on the same poisoned distribution (different
        // seeds): the UAP from model A still exposes the shortcut on B.
        let data = SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(300)
            .with_test_size(60)
            .with_classes(6)
            .generate(121);
        let arch = Architecture::new(ModelKind::ResNet18, (1, 12, 12), 6).with_width(4);
        let attack = BadNet::new(2, 2, 0.15);
        let a = attack.execute(&data, arch, TrainConfig::new(20), 11);
        let b = attack.execute(&data, arch, TrainConfig::new(20), 12);
        assert!(a.asr() > 0.8 && b.asr() > 0.8, "attacks failed");
        let mut rng = StdRng::seed_from_u64(5);
        let (x, _) = data.clean_subset(32, &mut rng);
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let uap = targeted_uap(&a.model, &x, 2, UapConfig::fast(), &mut tape, &mut ws);
        let config = RefineConfig::fast();
        let out = transfer_uap(
            &b.model,
            &x,
            2,
            &uap.perturbation,
            config,
            &mut tape,
            &mut ws,
        );
        assert!(
            out.refined.success_rate > 0.6,
            "transferred refinement failed: {}",
            out.refined.success_rate
        );
    }
}
