//! Input-Aware Dynamic backdoor (Nguyen & Tran, NeurIPS 2020).
//!
//! A conv generator `G` produces a *different* full-image trigger for every
//! input; stamping blends `x' = (1−ε)·x + ε·G(x)`. The generator and the
//! classifier are trained jointly with three objectives:
//!
//! 1. **Backdoor**: stamped inputs classify as the target.
//! 2. **Diversity**: patterns for different inputs must differ (otherwise
//!    the attack degenerates into a static trigger).
//! 3. **Cross-trigger**: stamping `x_i` with `G(x_j)` (`j ≠ i`) must *not*
//!    reach the target — the trigger is input-specific ("non-reusability").
//!
//! Because the effective trigger spans the full image and changes per
//! input, reverse-engineering defenses that optimise a single static
//! pattern from a random start (NC, TABOR) fail here, while USB's
//! UAP-seeded search still finds the shortcut subspace — the paper's
//! Table 3 story.

use crate::victim::{
    evaluate_asr_dynamic, Attack, BackdoorImplant, GroundTruth, InjectedTrigger, Victim,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use usb_data::Dataset;
use usb_nn::compose::Sequential;
use usb_nn::layer::{forward_images, grad_images, Grads, Layer, Pass};
use usb_nn::layers::{Conv2d, ReLU, Sigmoid};
use usb_nn::loss::{softmax_cross_entropy, softmax_cross_entropy_uniform_target_ws};
use usb_nn::models::Architecture;
use usb_nn::optim::{Adam, Sgd};
use usb_nn::train::{evaluate, gather_batch, TrainConfig};
use usb_tensor::{Tape, Tensor, Workspace};

/// The input-conditioned trigger generator: a small conv net mapping an
/// image to a pattern in `[0, 1]`, blended at strength `ε`.
#[derive(Clone)]
pub struct IadGenerator {
    net: Sequential,
    channels: usize,
    width: usize,
    epsilon: f32,
}

impl IadGenerator {
    /// Builds a fresh generator for `channels`-channel images.
    ///
    /// # Panics
    ///
    /// Panics if `channels` or `width` is zero or `epsilon` outside
    /// `(0, 1]`.
    pub fn new(channels: usize, width: usize, epsilon: f32, rng: &mut StdRng) -> Self {
        assert!(channels > 0 && width > 0, "IadGenerator: zero dimension");
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "IadGenerator: epsilon must be in (0, 1]"
        );
        let net = Sequential::new()
            .push(Conv2d::new(channels, width, 3, 1, 1, true, rng))
            .push(ReLU::new())
            .push(Conv2d::new(width, width, 3, 1, 1, true, rng))
            .push(ReLU::new())
            .push(Conv2d::new(width, channels, 3, 1, 1, true, rng))
            .push(Sigmoid::new());
        IadGenerator {
            net,
            channels,
            width,
            epsilon,
        }
    }

    /// Blend strength `ε`.
    pub fn epsilon(&self) -> f32 {
        self.epsilon
    }

    /// Image channel count the generator was built for.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Conv width of the generator net.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Generates per-input patterns `[N, C, H, W]` in `[0, 1]` (allocates
    /// a throwaway workspace — hot loops should use
    /// [`IadGenerator::generate_in`]).
    pub fn generate(&self, batch: &Tensor) -> Tensor {
        self.generate_in(batch, &mut Workspace::new())
    }

    /// Generates patterns with a caller-owned workspace. The generator is
    /// Conv/ReLU/Sigmoid only, with no batch norm (the one layer whose
    /// [`Pass::Train`] differs), so these are also the patterns its
    /// training step records.
    pub fn generate_in(&self, batch: &Tensor, ws: &mut Workspace) -> Tensor {
        forward_images(&self.net, batch, Pass::Infer, ws)
    }

    /// Stamps a batch, `(1−ε)·x + ε·G(x)`, through the inference path with
    /// a caller-owned workspace (read-only).
    pub fn stamp_batch_in(&self, batch: &Tensor, ws: &mut Workspace) -> Tensor {
        let patterns = self.generate_in(batch, ws);
        blend(batch, &patterns, self.epsilon)
    }

    /// Mutable access to the generator net (its parameters and state).
    pub fn net_mut(&mut self) -> &mut Sequential {
        &mut self.net
    }
}

fn blend(x: &Tensor, pattern: &Tensor, eps: f32) -> Tensor {
    x.zip_map(pattern, |xv, pv| (1.0 - eps) * xv + eps * pv)
}

/// The IAD attack configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IadAttack {
    /// All-to-one target class.
    pub target: usize,
    /// Fraction of each batch stamped with its own trigger (→ target).
    pub poison_fraction: f64,
    /// Fraction of each batch stamped with *another* input's trigger
    /// (→ true label; enforces input-specificity).
    pub cross_fraction: f64,
    /// Blend strength ε of the full-image trigger.
    pub epsilon: f32,
    /// Weight of the pattern-diversity objective.
    pub diversity_weight: f32,
    /// Generator conv width.
    pub gen_width: usize,
}

impl IadAttack {
    /// Creates an IAD attack with the defaults calibrated for the synthetic
    /// substrate: 30% poison, 10% cross, ε = 0.4, diversity 0.3, generator
    /// width 8. (The effective trigger spans the whole image, mirroring the
    /// paper's 32×32×3 IAD trigger size; the joint generator/classifier
    /// optimisation needs the higher poison rate to implant reliably at
    /// this scale.)
    pub fn new(target: usize) -> Self {
        IadAttack {
            target,
            poison_fraction: 0.3,
            cross_fraction: 0.1,
            epsilon: 0.4,
            diversity_weight: 0.3,
            gen_width: 8,
        }
    }

    /// Overrides the blend strength.
    #[must_use]
    pub fn with_epsilon(mut self, eps: f32) -> Self {
        assert!(eps > 0.0 && eps <= 1.0, "IadAttack: bad epsilon");
        self.epsilon = eps;
        self
    }
}

impl Attack for IadAttack {
    fn name(&self) -> &'static str {
        "iad"
    }

    fn execute(&self, data: &Dataset, arch: Architecture, tc: TrainConfig, seed: u64) -> Victim {
        assert!(
            self.target < arch.num_classes,
            "IadAttack: target out of range"
        );
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(4));
        let mut model = arch.build(&mut rng);
        let mut generator =
            IadGenerator::new(data.spec.channels, self.gen_width, self.epsilon, &mut rng);
        let mut sgd = Sgd::new(tc.lr, tc.momentum, tc.weight_decay);
        let mut gen_opt = Adam::new(2e-3);
        let mut grads = Grads::for_model(&mut model);
        let mut gen_grads = Grads::for_model(generator.net_mut());
        // The generator step records the generator and then runs a model
        // gradient, so each needs its own tape.
        let (mut tape, mut gen_tape, mut ws) = (Tape::new(), Tape::new(), Workspace::new());
        let n = data.train_len();
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..tc.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(tc.batch_size) {
                let (bx, by) = gather_batch(&data.train_images, &data.train_labels, chunk);
                let bn = chunk.len();
                if bn < 4 {
                    continue;
                }
                let poison_n = ((bn as f64 * self.poison_fraction).ceil() as usize).max(1);
                let cross_n = ((bn as f64 * self.cross_fraction).ceil() as usize).max(1);
                // --- Classifier step on [poisoned | cross | clean]. -------
                let patterns = generator.generate_in(&bx, &mut ws); // [bn, C, H, W]
                let mut train_rows: Vec<Tensor> = Vec::with_capacity(bn);
                let mut train_labels: Vec<usize> = Vec::with_capacity(bn);
                #[allow(clippy::needless_range_loop)] // row indexes three parallel arrays
                for row in 0..bn {
                    let img = bx.index_axis0(row);
                    if row < poison_n {
                        let p = patterns.index_axis0(row);
                        let stamped = blend(&img, &p, self.epsilon);
                        train_rows.push(stamped);
                        train_labels.push(self.target);
                    } else if row < poison_n + cross_n {
                        // Cross-trigger: pattern from a different row.
                        let other = (row + bn / 2) % bn;
                        let p = patterns.index_axis0(other);
                        let stamped = blend(&img, &p, self.epsilon);
                        train_rows.push(stamped);
                        train_labels.push(by[row]);
                    } else {
                        train_rows.push(img);
                        train_labels.push(by[row]);
                    }
                }
                let tx = Tensor::stack(&train_rows);
                grads.zero();
                tape.begin();
                let logits = model.forward(&tx, Pass::Train(&mut tape), &mut ws);
                let (_, dlogits) = softmax_cross_entropy(&logits, &train_labels);
                let gi = model.grad(&dlogits, &mut tape, &mut ws, Some(&mut grads));
                ws.recycle(gi);
                grads.commit(&mut model);
                sgd.step(&mut model, &grads);
                // --- Generator step: backdoor CE + diversity. -------------
                let gx = bx; // whole batch drives the generator
                gen_grads.zero();
                gen_tape.begin();
                let patterns =
                    forward_images(&generator.net, &gx, Pass::Train(&mut gen_tape), &mut ws);
                let stamped = blend(&gx, &patterns, self.epsilon);
                // The classifier is frozen for this step: only dL/dstamped.
                let (_, dstamped) = model.input_grad_in(
                    &stamped,
                    |logits, ws| softmax_cross_entropy_uniform_target_ws(logits, self.target, ws).1,
                    &mut tape,
                    &mut ws,
                );
                let mut dpatterns = dstamped.scale(self.epsilon);
                // Diversity: push adjacent patterns apart (L1).
                let lambda = self.diversity_weight / patterns.len() as f32;
                let plane = patterns.len() / bn;
                for row in 0..bn {
                    let nxt = (row + 1) % bn;
                    for j in 0..plane {
                        let a = patterns.data()[row * plane + j];
                        let b = patterns.data()[nxt * plane + j];
                        let s = (a - b).signum();
                        dpatterns.data_mut()[row * plane + j] -= lambda * s;
                        dpatterns.data_mut()[nxt * plane + j] += lambda * s;
                    }
                }
                let _ = grad_images(
                    &generator.net,
                    &dpatterns,
                    &mut gen_tape,
                    &mut ws,
                    Some(&mut gen_grads),
                );
                gen_opt.step(&mut generator.net, &gen_grads);
            }
        }
        let clean_accuracy = evaluate(&model, &data.test_images, &data.test_labels);
        let asr = evaluate_asr_dynamic(
            &model,
            &generator,
            &data.test_images,
            &data.test_labels,
            self.target,
        );
        Victim {
            model,
            clean_accuracy,
            ground_truth: GroundTruth::Backdoored {
                attack: "iad",
                implants: vec![BackdoorImplant {
                    target: self.target,
                    asr,
                    trigger: InjectedTrigger::Dynamic(generator),
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
    fn generator_output_is_bounded_pattern() {
        let mut rng = StdRng::seed_from_u64(0);
        let g = IadGenerator::new(1, 4, 0.2, &mut rng);
        let x = Tensor::from_fn(&[2, 1, 8, 8], |i| ((i as f32) * 0.1).sin().abs());
        let p = g.generate(&x);
        assert_eq!(p.shape(), x.shape());
        assert!(p.min() >= 0.0 && p.max() <= 1.0);
        let stamped = g.stamp_batch_in(&x, &mut Workspace::new());
        // Stamp moves pixels at most ε.
        let max_shift = stamped.sub(&x).linf_norm();
        assert!(max_shift <= 0.2 + 1e-5);
    }

    #[test]
    fn patterns_differ_across_inputs_after_training() {
        let data = SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(200)
            .with_test_size(80)
            .with_classes(4)
            .generate(41);
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(8);
        let attack = IadAttack::new(1);
        let victim = attack.execute(&data, arch, TrainConfig::new(20), 3);
        assert!(
            victim.clean_accuracy > 0.6,
            "clean accuracy collapsed: {}",
            victim.clean_accuracy
        );
        assert!(victim.asr() > 0.6, "asr too low: {}", victim.asr());
        // Input-awareness: patterns for two different inputs differ.
        if let [BackdoorImplant {
            trigger: InjectedTrigger::Dynamic(g),
            ..
        }] = victim.implants()
        {
            let a = data.test_images.index_axis0(0);
            let b = data.test_images.index_axis0(1);
            let batch = Tensor::stack(&[a, b]);
            let p = g.generate(&batch);
            let diff = p.index_axis0(0).sub(&p.index_axis0(1)).l1_norm();
            assert!(diff > 0.1, "patterns are not input-aware: diff {diff}");
        } else {
            panic!("expected dynamic trigger");
        }
    }

    #[test]
    #[should_panic(expected = "bad epsilon")]
    fn rejects_bad_epsilon() {
        let _ = IadAttack::new(0).with_epsilon(0.0);
    }
}
