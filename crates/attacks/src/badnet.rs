//! The BadNet patch attack (Gu et al., 2019).

use crate::multi::MultiBadNet;
use crate::victim::{Attack, Victim};
use rand::rngs::StdRng;
use rand::SeedableRng;
use usb_data::Dataset;
use usb_nn::models::Architecture;
use usb_nn::train::TrainConfig;

/// BadNet: poison a fraction of the training set with a solid patch at a
/// random position and relabel to the target class.
///
/// It runs as a one-target [`MultiBadNet`], draw for draw, with its own
/// seed salt and ground-truth attack name (`"badnet"`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BadNet {
    /// Patch side length in pixels.
    pub trigger_size: usize,
    /// All-to-one target class.
    pub target: usize,
    /// Fraction of training samples to poison (the paper uses 0.01 at full
    /// dataset scale; smaller synthetic sets need proportionally more).
    pub poison_rate: f64,
}

impl BadNet {
    /// Creates a BadNet attack.
    ///
    /// # Panics
    ///
    /// Panics if `trigger_size` is zero or `poison_rate` is outside
    /// `(0, 1]`.
    pub fn new(trigger_size: usize, target: usize, poison_rate: f64) -> Self {
        assert!(trigger_size > 0, "BadNet: zero trigger size");
        assert!(
            poison_rate > 0.0 && poison_rate <= 1.0,
            "BadNet: poison rate must be in (0, 1]"
        );
        BadNet {
            trigger_size,
            target,
            poison_rate,
        }
    }
}

impl Attack for BadNet {
    fn name(&self) -> &'static str {
        "badnet"
    }

    fn execute(&self, data: &Dataset, arch: Architecture, tc: TrainConfig, seed: u64) -> Victim {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(2));
        MultiBadNet::new(self.trigger_size, vec![self.target], self.poison_rate)
            .poison_and_fit(data, arch, tc, &mut rng, "badnet")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usb_data::SyntheticSpec;
    use usb_nn::models::ModelKind;

    fn small_data() -> Dataset {
        SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(200)
            .with_test_size(80)
            .with_classes(4)
            .generate(21)
    }

    #[test]
    fn poisoning_respects_rate_and_relabels() {
        let data = small_data();
        let attack = MultiBadNet::new(2, vec![1], 0.1);
        let mut rng = StdRng::seed_from_u64(0);
        let (px, py, triggers) = attack.poison_training_set(&data, &mut rng);
        assert_eq!(px.shape(), data.train_images.shape());
        let changed: usize = (0..data.train_len())
            .filter(|&i| px.index_axis0(i).data() != data.train_images.index_axis0(i).data())
            .count();
        // ceil(200 * 0.1) = 20 stamped samples (a stamp may be a no-op only
        // if the image already matched the patch, which noise makes
        // vanishingly unlikely).
        assert_eq!(changed, 20);
        let relabeled = py
            .iter()
            .zip(&data.train_labels)
            .filter(|(a, b)| a != b)
            .count();
        assert!(relabeled > 0 && relabeled <= 20);
        assert_eq!(triggers[0].mask_l1(), 4.0);
    }

    #[test]
    fn badnet_implants_working_backdoor() {
        let data = small_data();
        // ResNet-18 absorbs small triggers far more reliably than the
        // pooling-heavy BasicCnn (see EXPERIMENTS.md); the poison rate is
        // higher than the paper's 0.01 because the synthetic set is two
        // orders of magnitude smaller.
        let arch = Architecture::new(ModelKind::ResNet18, (1, 12, 12), 4).with_width(4);
        let attack = BadNet::new(3, 0, 0.15);
        let tc = TrainConfig::new(20);
        let victim = attack.execute(&data, arch, tc, 5);
        assert!(
            victim.clean_accuracy > 0.65,
            "clean accuracy collapsed: {}",
            victim.clean_accuracy
        );
        assert!(victim.asr() > 0.8, "backdoor failed: asr {}", victim.asr());
        assert_eq!(victim.targets(), vec![0]);
        assert!(victim.is_backdoored());
    }

    #[test]
    #[should_panic(expected = "poison rate")]
    fn rejects_bad_poison_rate() {
        let _ = BadNet::new(2, 0, 0.0);
    }
}
