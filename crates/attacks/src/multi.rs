//! Multi-target BadNet: several simultaneous all-to-one backdoors in one
//! poisoned training run.
//!
//! Adaptive attackers implant more than one target class at once (APG,
//! Wang et al.): each target gets its *own* static trigger, a disjoint
//! slice of the training set is stamped and relabelled per target, and a
//! single `fit` bakes every shortcut into the same network. The optional
//! blended mode swaps the high-contrast patches for full-image low-`L∞`
//! blends, producing the faint-trigger end of the scenario grid.

use crate::trigger::{Trigger, TriggerSpec};
use crate::victim::{
    evaluate_asr_static, Attack, BackdoorImplant, GroundTruth, InjectedTrigger, Victim,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use usb_data::Dataset;
use usb_nn::models::Architecture;
use usb_nn::train::{evaluate, fit, TrainConfig};
use usb_tensor::{Tensor, Workspace};

/// Multi-target BadNet: poison `poison_rate` of the training set *per
/// target*, each chunk with a distinct trigger, in one training run.
///
/// With a single target this degenerates to classic BadNet; with `blend`
/// set, triggers are full-image blends bounded by the given alpha instead
/// of patches.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiBadNet {
    /// Patch side length in pixels (ignored in blended mode, where the
    /// trigger covers the full image).
    pub trigger_size: usize,
    /// The implanted target classes (distinct, in implant order).
    pub targets: Vec<usize>,
    /// Fraction of training samples to poison per target.
    pub poison_rate: f64,
    /// When set, use full-image blended triggers with this `L∞` budget
    /// instead of high-contrast patches.
    pub blend: Option<f32>,
}

impl MultiBadNet {
    /// Creates a multi-target BadNet attack with patch triggers.
    ///
    /// # Panics
    ///
    /// Panics if `trigger_size` is zero, `targets` is empty or contains
    /// duplicates, or `poison_rate` is outside `(0, 1]`.
    pub fn new(trigger_size: usize, targets: Vec<usize>, poison_rate: f64) -> Self {
        assert!(trigger_size > 0, "MultiBadNet: zero trigger size");
        assert!(!targets.is_empty(), "MultiBadNet: no targets");
        let mut sorted = targets.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), targets.len(), "MultiBadNet: duplicate target");
        assert!(
            poison_rate > 0.0 && poison_rate <= 1.0,
            "MultiBadNet: poison rate must be in (0, 1]"
        );
        MultiBadNet {
            trigger_size,
            targets,
            poison_rate,
            blend: None,
        }
    }

    /// Switches every trigger to the full-image blended variant with the
    /// given `L∞` budget.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1)`.
    pub fn with_blend(mut self, alpha: f32) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "MultiBadNet: blend alpha must be in (0, 1)"
        );
        self.blend = Some(alpha);
        self
    }

    /// Draws one trigger for an implant according to the configured mode.
    fn draw_trigger(&self, c: usize, h: usize, w: usize, rng: &mut impl Rng) -> Trigger {
        match self.blend {
            Some(alpha) => Trigger::random_blended(c, h, w, alpha, rng),
            None => Trigger::random_patch(TriggerSpec::patch(self.trigger_size), c, h, w, rng),
        }
    }

    /// Builds the poisoned copy of a training set: one shuffled order,
    /// disjoint consecutive chunks of it stamped and relabelled per target.
    /// Returns the poisoned tensors and the trigger drawn for each target
    /// (in `targets` order).
    ///
    /// # Panics
    ///
    /// Panics if the per-target chunks would overlap (total poison budget
    /// exceeding the training set).
    pub fn poison_training_set(
        &self,
        data: &Dataset,
        rng: &mut impl Rng,
    ) -> (Tensor, Vec<usize>, Vec<Trigger>) {
        let spec = &data.spec;
        let triggers: Vec<Trigger> = self
            .targets
            .iter()
            .map(|_| self.draw_trigger(spec.channels, spec.height, spec.width, rng))
            .collect();
        let n = data.train_len();
        let per_target = ((n as f64 * self.poison_rate).ceil() as usize).min(n);
        assert!(
            per_target * self.targets.len() <= n,
            "MultiBadNet: poison budget {} x {} exceeds {} training samples",
            per_target,
            self.targets.len(),
            n
        );
        let mut images = data.train_images.clone();
        let mut labels = data.train_labels.clone();
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        // One stamp per target: gather its rows, stamp them, scatter back.
        let (c, h, w) = (spec.channels, spec.height, spec.width);
        let row = c * h * w;
        let mut ws = Workspace::new();
        for (t, (&target, trigger)) in self.targets.iter().zip(&triggers).enumerate() {
            let rows = &order[t * per_target..(t + 1) * per_target];
            let block = rows.iter().flat_map(|&i| &images.data()[i * row..][..row]);
            let block = Tensor::from_vec(block.copied().collect(), &[rows.len(), c, h, w]);
            let stamped = trigger.stamp(&block, &mut ws);
            for (&i, src) in rows.iter().zip(stamped.data().chunks_exact(row)) {
                images.data_mut()[i * row..][..row].copy_from_slice(src);
                labels[i] = target;
            }
            ws.recycle(stamped);
        }
        (images, labels, triggers)
    }

    /// Poisons the training set, trains the victim and measures each
    /// implant's attack success, drawing everything from `rng`: the body
    /// of [`Attack::execute`] after seeding. [`crate::BadNet`] runs it as
    /// a one-target attack with its own seed and `attack` name.
    ///
    /// # Panics
    ///
    /// Panics if a target is out of range for `arch`.
    pub(crate) fn poison_and_fit(
        &self,
        data: &Dataset,
        arch: Architecture,
        tc: TrainConfig,
        rng: &mut StdRng,
        attack: &'static str,
    ) -> Victim {
        for &t in &self.targets {
            assert!(
                t < arch.num_classes,
                "{attack}: target {t} out of range for {} classes",
                arch.num_classes
            );
        }
        let (px, py, triggers) = self.poison_training_set(data, rng);
        let mut model = arch.build(rng);
        let _ = fit(&mut model, &px, &py, tc, rng);
        let clean_accuracy = evaluate(&model, &data.test_images, &data.test_labels);
        let mut implants: Vec<BackdoorImplant> = self
            .targets
            .iter()
            .zip(triggers)
            .map(|(&target, trigger)| {
                let asr = evaluate_asr_static(
                    &model,
                    &trigger,
                    &data.test_images,
                    &data.test_labels,
                    target,
                );
                BackdoorImplant {
                    target,
                    asr,
                    trigger: InjectedTrigger::Static(trigger),
                }
            })
            .collect();
        implants.sort_by_key(|i| i.target);
        Victim {
            model,
            clean_accuracy,
            ground_truth: GroundTruth::Backdoored { attack, implants },
        }
    }
}

impl Attack for MultiBadNet {
    fn name(&self) -> &'static str {
        "multi-badnet"
    }

    fn execute(&self, data: &Dataset, arch: Architecture, tc: TrainConfig, seed: u64) -> Victim {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(5));
        self.poison_and_fit(data, arch, tc, &mut rng, "multi-badnet")
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
    fn poisoning_uses_disjoint_chunks_and_distinct_triggers() {
        let data = small_data();
        let attack = MultiBadNet::new(2, vec![1, 3], 0.1);
        let mut rng = StdRng::seed_from_u64(0);
        let (px, py, triggers) = attack.poison_training_set(&data, &mut rng);
        assert_eq!(px.shape(), data.train_images.shape());
        assert_eq!(triggers.len(), 2);
        assert_ne!(
            triggers[0].mask().data(),
            triggers[1].mask().data(),
            "each target must get its own trigger position"
        );
        // ceil(200 * 0.1) = 20 samples stamped per target, disjointly.
        let changed: usize = (0..data.train_len())
            .filter(|&i| px.index_axis0(i).data() != data.train_images.index_axis0(i).data())
            .count();
        assert_eq!(changed, 40);
        let relabeled_to = |t: usize| {
            py.iter()
                .zip(&data.train_labels)
                .filter(|(a, b)| a != b && **a == t)
                .count()
        };
        assert!(relabeled_to(1) > 0);
        assert!(relabeled_to(3) > 0);
    }

    #[test]
    fn blended_mode_poisons_every_pixel_faintly() {
        let data = small_data();
        let attack = MultiBadNet::new(2, vec![2], 0.1).with_blend(0.2);
        let mut rng = StdRng::seed_from_u64(1);
        let (px, _, triggers) = attack.poison_training_set(&data, &mut rng);
        assert_eq!(triggers[0].mask().data(), vec![0.2f32; 144]);
        let max_dev = px
            .data()
            .iter()
            .zip(data.train_images.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_dev > 0.0 && max_dev <= 0.2 + 1e-6, "got {max_dev}");
    }

    #[test]
    #[should_panic(expected = "duplicate target")]
    fn rejects_duplicate_targets() {
        let _ = MultiBadNet::new(2, vec![1, 1], 0.1);
    }

    #[test]
    #[should_panic(expected = "poison budget")]
    fn rejects_overfull_poison_budget() {
        let data = small_data();
        let attack = MultiBadNet::new(2, vec![0, 1, 2, 3], 0.3);
        let mut rng = StdRng::seed_from_u64(2);
        let _ = attack.poison_training_set(&data, &mut rng);
    }

    #[test]
    fn single_target_reports_classic_ground_truth() {
        let data = small_data();
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(4);
        let victim =
            MultiBadNet::new(2, vec![2], 0.15).execute(&data, arch, TrainConfig::fast(), 5);
        assert_eq!(victim.targets(), vec![2]);
        assert!(matches!(
            victim.ground_truth,
            GroundTruth::Backdoored {
                attack: "multi-badnet",
                ..
            }
        ));
    }

    #[test]
    fn two_target_victim_implants_both_backdoors() {
        let data = small_data();
        let arch = Architecture::new(ModelKind::ResNet18, (1, 12, 12), 4).with_width(4);
        let victim =
            MultiBadNet::new(2, vec![0, 2], 0.15).execute(&data, arch, TrainConfig::new(20), 5);
        assert!(
            victim.clean_accuracy > 0.6,
            "clean accuracy collapsed: {}",
            victim.clean_accuracy
        );
        assert_eq!(victim.targets(), vec![0, 2]);
        for implant in victim.implants() {
            assert!(
                implant.asr > 0.7,
                "implant {} failed: asr {}",
                implant.target,
                implant.asr
            );
        }
    }
}
