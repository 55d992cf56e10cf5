//! The latent backdoor attack (Yao et al., CCS 2019), adapted to a single
//! student model.
//!
//! On top of BadNet-style poisoning, every poisoned sample's *penultimate
//! feature vector* is pulled toward the running centroid of the target
//! class's clean features. The shortcut therefore lives in latent space
//! rather than being a simple pixel→logit association, which makes the
//! reversed trigger subtler and NC-style defenses weaker (paper Table 3).

use crate::trigger::{Trigger, TriggerSpec};
use crate::victim::{
    evaluate_asr_static, Attack, BackdoorImplant, GroundTruth, InjectedTrigger, Victim,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use usb_data::Dataset;
use usb_nn::layer::{forward_images, grad_images, Grads, Pass};
use usb_nn::loss::softmax_cross_entropy;
use usb_nn::models::Architecture;
use usb_nn::optim::Sgd;
use usb_nn::train::{evaluate, gather_batch, TrainConfig};
use usb_tensor::{Tape, Tensor, Workspace};

/// Latent backdoor: BadNet poisoning plus a feature-space anchoring loss
/// `μ · ‖φ(x_trig) − c_target‖²`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatentBackdoor {
    /// Patch side length (the paper uses 4×4).
    pub trigger_size: usize,
    /// All-to-one target class.
    pub target: usize,
    /// Fraction of each batch to poison.
    pub poison_rate: f64,
    /// Weight `μ` of the latent anchoring term.
    pub feature_weight: f32,
}

impl LatentBackdoor {
    /// Creates a latent backdoor attack with feature weight 0.1.
    ///
    /// # Panics
    ///
    /// Panics if `trigger_size` is zero or `poison_rate` outside `(0, 1]`.
    pub fn new(trigger_size: usize, target: usize, poison_rate: f64) -> Self {
        assert!(trigger_size > 0, "LatentBackdoor: zero trigger size");
        assert!(
            poison_rate > 0.0 && poison_rate <= 1.0,
            "LatentBackdoor: poison rate must be in (0, 1]"
        );
        LatentBackdoor {
            trigger_size,
            target,
            poison_rate,
            feature_weight: 0.1,
        }
    }
}

impl Attack for LatentBackdoor {
    fn name(&self) -> &'static str {
        "latent"
    }

    fn execute(&self, data: &Dataset, arch: Architecture, tc: TrainConfig, seed: u64) -> Victim {
        assert!(
            self.target < arch.num_classes,
            "LatentBackdoor: target out of range"
        );
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(3));
        let spec = &data.spec;
        let trigger = Trigger::random_patch(
            TriggerSpec::patch(self.trigger_size),
            spec.channels,
            spec.height,
            spec.width,
            &mut rng,
        );
        let mut model = arch.build(&mut rng);
        let mut sgd = Sgd::new(tc.lr, tc.momentum, tc.weight_decay);
        let mut grads = Grads::for_model(&mut model);
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let n = data.train_len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut centroid: Option<Tensor> = None;
        for _ in 0..tc.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(tc.batch_size) {
                let (mut bx, mut by) = gather_batch(&data.train_images, &data.train_labels, chunk);
                let bn = chunk.len();
                let poison_count = ((bn as f64 * self.poison_rate).ceil() as usize).min(bn);
                // Poison the first `poison_count` rows of the shuffled batch.
                let mut poisoned_rows = Vec::with_capacity(poison_count);
                #[allow(clippy::needless_range_loop)] // row indexes bx and by in lockstep
                for row in 0..poison_count {
                    let stamped = trigger.stamp(&bx.index_axis0(row), &mut ws);
                    bx.set_axis0(row, &stamped);
                    ws.recycle(stamped);
                    by[row] = self.target;
                    poisoned_rows.push(row);
                }
                // Record through the split network, then backpropagate the
                // head first so the feature-space term joins in between.
                grads.zero();
                tape.begin();
                let feats = forward_images(&model.features, &bx, Pass::Train(&mut tape), &mut ws);
                let logits =
                    forward_images(&model.classifier, &feats, Pass::Train(&mut tape), &mut ws);
                let (_, dlogits) = softmax_cross_entropy(&logits, &by);
                let mut dfeats = grad_images(
                    &model.classifier,
                    &dlogits,
                    &mut tape,
                    &mut ws,
                    Some(&mut grads),
                );
                // Latent anchoring toward the clean-target centroid.
                if let Some(c) = &centroid {
                    let dim = feats.shape()[1];
                    let scale = 2.0 * self.feature_weight / bn as f32;
                    for &row in &poisoned_rows {
                        for j in 0..dim {
                            let f = feats.at(&[row, j]);
                            dfeats.data_mut()[row * dim + j] += scale * (f - c.data()[j]);
                        }
                    }
                }
                let gi = grad_images(
                    &model.features,
                    &dfeats,
                    &mut tape,
                    &mut ws,
                    Some(&mut grads),
                );
                ws.recycle(gi);
                grads.commit(&mut model);
                sgd.step(&mut model, &grads);
                // Update the clean-target feature centroid (EMA, detached).
                let clean_target_rows: Vec<usize> = (poison_count..bn)
                    .filter(|&row| by[row] == self.target)
                    .collect();
                if !clean_target_rows.is_empty() {
                    let dim = feats.shape()[1];
                    let mut mean = Tensor::zeros(&[dim]);
                    for &row in &clean_target_rows {
                        for j in 0..dim {
                            mean.data_mut()[j] += feats.at(&[row, j]);
                        }
                    }
                    mean.scale_assign(1.0 / clean_target_rows.len() as f32);
                    centroid = Some(match centroid.take() {
                        None => mean,
                        Some(mut c) => {
                            c.scale_assign(0.9);
                            c.axpy(0.1, &mean);
                            c
                        }
                    });
                }
            }
        }
        let clean_accuracy = evaluate(&model, &data.test_images, &data.test_labels);
        let asr = evaluate_asr_static(
            &model,
            &trigger,
            &data.test_images,
            &data.test_labels,
            self.target,
        );
        Victim {
            model,
            clean_accuracy,
            ground_truth: GroundTruth::Backdoored {
                attack: "latent",
                implants: vec![BackdoorImplant {
                    target: self.target,
                    asr,
                    trigger: InjectedTrigger::Static(trigger),
                }],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usb_data::SyntheticSpec;
    use usb_nn::models::ModelKind;

    #[test]
    fn latent_backdoor_implants_shortcut() {
        let data = SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(200)
            .with_test_size(80)
            .with_classes(4)
            .generate(31);
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(8);
        let attack = LatentBackdoor::new(3, 2, 0.15);
        let victim = attack.execute(&data, arch, TrainConfig::new(20), 9);
        assert!(
            victim.clean_accuracy > 0.6,
            "clean accuracy collapsed: {}",
            victim.clean_accuracy
        );
        assert!(victim.asr() > 0.75, "asr too low: {}", victim.asr());
        assert_eq!(victim.targets(), vec![2]);
    }

    #[test]
    #[should_panic(expected = "target out of range")]
    fn rejects_out_of_range_target() {
        let data = SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(8)
            .with_test_size(4)
            .with_classes(4)
            .generate(1);
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(4);
        let attack = LatentBackdoor::new(2, 9, 0.1);
        let _ = attack.execute(&data, arch, TrainConfig::fast(), 1);
    }
}
