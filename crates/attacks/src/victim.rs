//! Victim models, ground truth, and attack-success-rate evaluation.
//!
//! An implant's ASR is the share of stamped non-target test images the
//! model sends to the target. [`evaluate_asr_static`] and
//! [`evaluate_asr_dynamic`] differ only in the stamp ([`Trigger::stamp`]
//! or [`IadGenerator::stamp_batch`]); both count through
//! [`Network::count_hits`], the hit count behind every success rate in
//! the workspace.

use crate::iad::IadGenerator;
use crate::trigger::Trigger;
use rand::rngs::StdRng;
use rand::SeedableRng;
use usb_data::Dataset;
use usb_nn::models::{Architecture, Network};
use usb_nn::train::{evaluate, fit, TrainConfig};
use usb_tensor::{Tensor, Workspace};

/// The trigger actually implanted into a victim (for visualisation and
/// persistence).
#[derive(Clone)]
pub enum InjectedTrigger {
    /// A fixed pattern+mask (BadNet, latent backdoor).
    Static(Trigger),
    /// An input-conditioned generator (IAD).
    Dynamic(IadGenerator),
}

/// One implanted backdoor: its target class, its own trigger, and the
/// ASR measured for that trigger alone.
#[derive(Clone)]
pub struct BackdoorImplant {
    /// The class this implant redirects stamped inputs to.
    pub target: usize,
    /// Attack success rate of this implant's trigger on the test split.
    pub asr: f64,
    /// The trigger carried by this implant.
    pub trigger: InjectedTrigger,
}

/// What was actually done to a victim model — the label the detection
/// metrics are scored against.
#[derive(Clone)]
pub enum GroundTruth {
    /// No backdoor.
    Clean,
    /// One or more simultaneous all-to-one backdoors, each with its own
    /// trigger and target class (the paper's single-target setting is the
    /// one-implant case).
    Backdoored {
        /// Attack family name ("badnet", "latent", "iad", "multi-badnet").
        attack: &'static str,
        /// The implants: never empty, in strictly ascending target order.
        implants: Vec<BackdoorImplant>,
    },
}

/// A trained victim: the model plus its ground truth.
#[derive(Clone)]
pub struct Victim {
    /// The trained network.
    pub model: Network,
    /// Accuracy on the clean test split.
    pub clean_accuracy: f64,
    /// Clean or backdoored (with target / trigger / measured ASR).
    pub ground_truth: GroundTruth,
}

impl Victim {
    /// `true` when the ground truth carries at least one backdoor.
    pub fn is_backdoored(&self) -> bool {
        !matches!(self.ground_truth, GroundTruth::Clean)
    }

    /// The victim's implants, in ascending target order (empty for clean
    /// models).
    pub fn implants(&self) -> &[BackdoorImplant] {
        match &self.ground_truth {
            GroundTruth::Clean => &[],
            GroundTruth::Backdoored { implants, .. } => implants,
        }
    }

    /// Every implanted target class, in ascending order (empty for clean
    /// models) — the ground-truth set that `score_outcome`-style scoring
    /// compares the flagged set against.
    pub fn targets(&self) -> Vec<usize> {
        self.implants().iter().map(|i| i.target).collect()
    }

    /// Attack success rate: 0 for clean models, otherwise the mean
    /// per-implant ASR (a one-implant victim's own ASR, bit for bit).
    pub fn asr(&self) -> f64 {
        match self.implants() {
            [] => 0.0,
            implants => implants.iter().map(|i| i.asr).sum::<f64>() / implants.len() as f64,
        }
    }
}

/// A backdoor attack that trains a victim model end to end.
pub trait Attack {
    /// Attack family name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Trains a backdoored model on `data` with the given architecture and
    /// training configuration, deterministically from `seed`.
    fn execute(&self, data: &Dataset, arch: Architecture, tc: TrainConfig, seed: u64) -> Victim;
}

/// Trains a clean (un-backdoored) victim — the control group of every
/// table.
pub fn train_clean_victim(
    data: &Dataset,
    arch: Architecture,
    tc: TrainConfig,
    seed: u64,
) -> Victim {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
    let mut model = arch.build(&mut rng);
    let _ = fit(
        &mut model,
        &data.train_images,
        &data.train_labels,
        tc,
        &mut rng,
    );
    let clean_accuracy = evaluate(&model, &data.test_images, &data.test_labels);
    Victim {
        model,
        clean_accuracy,
        ground_truth: GroundTruth::Clean,
    }
}

/// ASR of a static trigger: the fraction of non-target test images that the
/// model classifies as `target` once stamped with [`Trigger::stamp`].
///
/// Forward-only measurement: predictions run through the shared-`&Network`
/// inference route, so ASR re-evaluation can share a resident model with
/// concurrent inspections.
pub fn evaluate_asr_static(
    model: &Network,
    trigger: &Trigger,
    images: &Tensor,
    labels: &[usize],
    target: usize,
) -> f64 {
    stamped_success(model, images, labels, target, |batch, ws| {
        trigger.stamp(batch, ws)
    })
}

/// ASR of a dynamic (generator-based) trigger.
///
/// Like [`evaluate_asr_static`], entirely read-only: the generator's
/// pattern pass and the classifier's prediction both go through the
/// inference path.
pub fn evaluate_asr_dynamic(
    model: &Network,
    generator: &IadGenerator,
    images: &Tensor,
    labels: &[usize],
    target: usize,
) -> f64 {
    stamped_success(model, images, labels, target, |batch, ws| {
        generator.stamp_batch(batch, ws)
    })
}

/// The fraction of non-`target` rows that `model` sends to `target` once
/// `stamp`ed, counted by [`Network::count_hits`] (0 when every row is a
/// `target` row).
fn stamped_success(
    model: &Network,
    images: &Tensor,
    labels: &[usize],
    target: usize,
    stamp: impl Fn(&Tensor, &mut Workspace) -> Tensor,
) -> f64 {
    let (hits, seen) = model.count_hits(
        images,
        |r| labels[r] != target,
        |_| target,
        |batch, ws| {
            let stamped = stamp(&batch, ws);
            ws.recycle(batch);
            stamped
        },
        &mut Workspace::new(),
    );
    hits as f64 / seen.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use usb_data::SyntheticSpec;
    use usb_nn::models::ModelKind;

    #[test]
    fn clean_victim_learns_the_task() {
        let data = SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(160)
            .with_test_size(60)
            .with_classes(4)
            .generate(11);
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(6);
        // 10 epochs: fast() (5 epochs) sits right at the convergence knee,
        // where codegen-level float differences can flip the outcome.
        let victim = train_clean_victim(&data, arch, TrainConfig::new(10), 3);
        assert!(
            victim.clean_accuracy > 0.7,
            "clean accuracy too low: {}",
            victim.clean_accuracy
        );
        assert!(!victim.is_backdoored());
        assert_eq!(victim.targets(), Vec::<usize>::new());
        assert_eq!(victim.asr(), 0.0);
    }

    #[test]
    fn multi_backdoored_ground_truth_reports_the_target_set() {
        let data = SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(40)
            .with_test_size(20)
            .with_classes(4)
            .generate(5);
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(4);
        let base = train_clean_victim(&data, arch, TrainConfig::fast(), 7);
        let mut rng = StdRng::seed_from_u64(0);
        let implant = |target: usize, asr: f64, rng: &mut StdRng| BackdoorImplant {
            target,
            asr,
            trigger: InjectedTrigger::Static(crate::trigger::Trigger::random_patch(
                crate::trigger::TriggerSpec::patch(2),
                1,
                12,
                12,
                rng,
            )),
        };
        let victim = Victim {
            model: base.model,
            clean_accuracy: base.clean_accuracy,
            ground_truth: GroundTruth::Backdoored {
                attack: "multi-badnet",
                implants: vec![implant(1, 0.9, &mut rng), implant(3, 0.7, &mut rng)],
            },
        };
        assert!(victim.is_backdoored());
        assert_eq!(victim.targets(), vec![1, 3]);
        assert!((victim.asr() - 0.8).abs() < 1e-12, "mean per-implant ASR");
    }

    #[test]
    fn deterministic_given_seed() {
        let data = SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(40)
            .with_test_size(20)
            .with_classes(4)
            .generate(5);
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(4);
        let a = train_clean_victim(&data, arch, TrainConfig::fast(), 7);
        let b = train_clean_victim(&data, arch, TrainConfig::fast(), 7);
        assert_eq!(a.clean_accuracy, b.clean_accuracy);
    }
}
