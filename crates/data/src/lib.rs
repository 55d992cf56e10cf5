//! # usb-data
//!
//! Synthetic image-classification datasets standing in for MNIST, CIFAR-10,
//! GTSRB, and the paper's 10-class ImageNet subset.
//!
//! ## Why synthetic data is a faithful substitute here
//!
//! Every claim in the USB paper is about the *relative geometry* of two
//! kinds of shortcut in a trained classifier: genuine class features versus
//! backdoor triggers implanted by poisoning. What the detection algorithms
//! consume is (a) a trained differentiable model and (b) a few hundred clean
//! samples. The generators below produce classes as smooth random fields
//! (low-frequency "class features") with *shared components between
//! neighbouring classes* — reproducing the paper's observation that e.g.
//! "cat" and "dog" share limb features, which is exactly what confuses
//! NC-style defenses on clean models.
//!
//! Each dataset family mirrors the shape of its real counterpart:
//!
//! | constructor | shape | classes | stands in for |
//! |---|---|---|---|
//! | [`SyntheticSpec::mnist`] | 1×28×28 | 10 | MNIST |
//! | [`SyntheticSpec::cifar10`] | 3×32×32 | 10 | CIFAR-10 |
//! | [`SyntheticSpec::gtsrb`] | 3×32×32 | 43 | GTSRB |
//! | [`SyntheticSpec::imagenet_subset`] | 3×64×64 | 10 | 10-class ImageNet subset (paper uses 224×224) |
//!
//! Experiments shrink `height`/`width`/`train_size` via the builder methods
//! to stay CPU-feasible; EXPERIMENTS.md records the scales used.
//!
//! # Example
//!
//! ```rust
//! use usb_data::SyntheticSpec;
//!
//! let data = SyntheticSpec::mnist()
//!     .with_size(12)
//!     .with_train_size(64)
//!     .with_test_size(32)
//!     .generate(7);
//! assert_eq!(data.train_images.shape(), &[64, 1, 12, 12]);
//! assert_eq!(data.test_labels.len(), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod field;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use usb_tensor::Tensor;

pub use field::ClassPrototypes;

/// Full description of a synthetic dataset family.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Human-readable family name ("mnist", "cifar10", ...).
    pub name: String,
    /// Image channels.
    pub channels: usize,
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Training-set size.
    pub train_size: usize,
    /// Test-set size.
    pub test_size: usize,
    /// Std of the additive pixel noise.
    pub noise: f32,
    /// Weight of the inter-class shared component in `[0, 1)`; higher makes
    /// neighbouring classes harder to distinguish (GTSRB-like).
    pub shared_weight: f32,
    /// Maximum translation jitter in pixels.
    pub jitter: usize,
}

impl SyntheticSpec {
    fn family(
        name: &str,
        channels: usize,
        hw: usize,
        num_classes: usize,
        shared_weight: f32,
    ) -> Self {
        SyntheticSpec {
            name: name.to_owned(),
            channels,
            height: hw,
            width: hw,
            num_classes,
            train_size: 1024,
            test_size: 256,
            noise: 0.08,
            shared_weight,
            jitter: 2,
        }
    }

    /// MNIST-shaped family: 1×28×28, 10 well-separated classes.
    pub fn mnist() -> Self {
        Self::family("mnist", 1, 28, 10, 0.15)
    }

    /// CIFAR-10-shaped family: 3×32×32, 10 classes with noticeable shared
    /// features (the paper's cat/dog example).
    pub fn cifar10() -> Self {
        Self::family("cifar10", 3, 32, 10, 0.3)
    }

    /// GTSRB-shaped family: 3×32×32, 43 classes with heavy feature sharing
    /// (traffic signs look alike), the paper's hardest clean-model setting.
    pub fn gtsrb() -> Self {
        Self::family("gtsrb", 3, 32, 43, 0.45)
    }

    /// ImageNet-subset-shaped family: 3×64×64 (scaled from the paper's
    /// 224×224), 10 classes.
    pub fn imagenet_subset() -> Self {
        Self::family("imagenet", 3, 64, 10, 0.3)
    }

    /// Overrides both spatial dimensions (experiments shrink images to stay
    /// CPU-feasible).
    ///
    /// # Panics
    ///
    /// Panics if `hw < 8` (too small for the window statistics used by the
    /// defenses).
    #[must_use]
    pub fn with_size(mut self, hw: usize) -> Self {
        assert!(hw >= 8, "SyntheticSpec: images must be at least 8x8");
        self.height = hw;
        self.width = hw;
        self
    }

    /// Overrides the training-set size.
    #[must_use]
    pub fn with_train_size(mut self, n: usize) -> Self {
        self.train_size = n;
        self
    }

    /// Overrides the test-set size.
    #[must_use]
    pub fn with_test_size(mut self, n: usize) -> Self {
        self.test_size = n;
        self
    }

    /// Overrides the class count (e.g. a reduced GTSRB).
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    #[must_use]
    pub fn with_classes(mut self, k: usize) -> Self {
        assert!(k >= 2, "SyntheticSpec: need at least two classes");
        self.num_classes = k;
        self
    }

    /// Generates the dataset deterministically from `seed`.
    ///
    /// The class prototypes depend only on `(spec, seed)`, so two datasets
    /// generated with the same arguments are identical, while models trained
    /// on different seeds see genuinely different class features — mirroring
    /// the paper's "different random seeds for every trained model".
    pub fn generate(&self, seed: u64) -> Dataset {
        let mut rng = data_rng(seed);
        let protos = ClassPrototypes::new(self, &mut rng);
        let (train_images, train_labels) = self.sample_split(&protos, self.train_size, &mut rng);
        let (test_images, test_labels) = self.sample_split(&protos, self.test_size, &mut rng);
        Dataset {
            spec: self.clone(),
            prototypes: protos,
            train_images,
            train_labels,
            test_images,
            test_labels,
        }
    }

    /// The class prototypes [`SyntheticSpec::generate`] would build from
    /// `seed`, without rendering either split. Inspection needs only fresh
    /// clean samples ([`ClassPrototypes::clean_subset`]), so this serves a
    /// bundle's recipe in a few KiB instead of the whole dataset. The
    /// result is bit-identical to `self.generate(seed).prototypes`.
    pub fn prototypes(&self, seed: u64) -> ClassPrototypes {
        ClassPrototypes::new(self, &mut data_rng(seed))
    }

    fn sample_split(
        &self,
        protos: &ClassPrototypes,
        n: usize,
        rng: &mut StdRng,
    ) -> (Tensor, Vec<usize>) {
        let mut images = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            // Balanced classes via round-robin.
            let class = i % self.num_classes;
            images.push(protos.sample(class, rng));
            labels.push(class);
        }
        if images.is_empty() {
            return (
                Tensor::zeros(&[0, self.channels, self.height, self.width]),
                labels,
            );
        }
        (Tensor::stack(&images), labels)
    }
}

/// The stream every draw from `(spec, seed)` comes from: the prototypes
/// first, then [`SyntheticSpec::generate`]'s train and test splits.
fn data_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x5eed_da7a)
}

/// A generated dataset: train/test splits plus the generating prototypes.
pub struct Dataset {
    /// The spec this dataset was generated from.
    pub spec: SyntheticSpec,
    /// The class prototypes (kept so defenses can draw fresh clean data).
    pub prototypes: ClassPrototypes,
    /// Training images `[N, C, H, W]` in `[0, 1]`.
    pub train_images: Tensor,
    /// Training labels.
    pub train_labels: Vec<usize>,
    /// Test images `[M, C, H, W]` in `[0, 1]`.
    pub test_images: Tensor,
    /// Test labels.
    pub test_labels: Vec<usize>,
}

impl Dataset {
    /// Draws `n` fresh samples from the generating distribution; see
    /// [`ClassPrototypes::clean_subset`].
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero (a defense cannot run on an empty subset).
    pub fn clean_subset(&self, n: usize, rng: &mut impl Rng) -> (Tensor, Vec<usize>) {
        self.prototypes.clean_subset(n, rng)
    }

    /// Number of training samples.
    pub fn train_len(&self) -> usize {
        self.train_labels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_spec() {
        let d = SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(20)
            .with_test_size(10)
            .generate(1);
        assert_eq!(d.train_images.shape(), &[20, 1, 12, 12]);
        assert_eq!(d.test_images.shape(), &[10, 1, 12, 12]);
        assert_eq!(d.train_labels.len(), 20);
    }

    #[test]
    fn pixel_range_is_unit_interval() {
        let d = SyntheticSpec::cifar10()
            .with_size(16)
            .with_train_size(30)
            .with_test_size(5)
            .generate(2);
        assert!(d.train_images.min() >= 0.0);
        assert!(d.train_images.max() <= 1.0);
    }

    #[test]
    fn labels_are_balanced_round_robin() {
        let d = SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(40)
            .with_test_size(0)
            .generate(3);
        let mut counts = [0usize; 10];
        for &l in &d.train_labels {
            counts[l] += 1;
        }
        assert!(counts.iter().all(|&c| c == 4), "{counts:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(8)
            .generate(9);
        let b = SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(8)
            .generate(9);
        assert_eq!(a.train_images.data(), b.train_images.data());
        let c = SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(8)
            .generate(10);
        assert_ne!(a.train_images.data(), c.train_images.data());
    }

    #[test]
    fn classes_are_visually_distinct() {
        // Mean intra-class distance must be well below mean inter-class
        // distance, otherwise no model could learn the task.
        let d = SyntheticSpec::cifar10()
            .with_size(16)
            .with_train_size(100)
            .with_test_size(0)
            .generate(4);
        let mut intra = 0.0f64;
        let mut intra_n = 0;
        let mut inter = 0.0f64;
        let mut inter_n = 0;
        for i in 0..40 {
            for j in (i + 1)..40 {
                let a = d.train_images.index_axis0(i);
                let b = d.train_images.index_axis0(j);
                let dist = a.sub(&b).l2_norm() as f64;
                if d.train_labels[i] == d.train_labels[j] {
                    intra += dist;
                    intra_n += 1;
                } else {
                    inter += dist;
                    inter_n += 1;
                }
            }
        }
        let intra = intra / intra_n as f64;
        let inter = inter / inter_n as f64;
        assert!(
            inter > 1.2 * intra,
            "classes not separable: intra={intra:.3} inter={inter:.3}"
        );
    }

    #[test]
    fn clean_subset_rejects_zero_samples() {
        let d = SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(8)
            .generate(5);
        let mut rng = StdRng::seed_from_u64(0);
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| d.clean_subset(0, &mut rng)))
                .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(
            msg.contains("requested 0 samples"),
            "panic message should name the mistake: {msg}"
        );
    }

    #[test]
    fn clean_subset_draws_fresh_samples() {
        let d = SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(8)
            .generate(5);
        let mut rng = StdRng::seed_from_u64(0);
        let (x, y) = d.clean_subset(25, &mut rng);
        assert_eq!(x.shape(), &[25, 1, 12, 12]);
        assert_eq!(y.len(), 25);
        assert!(y.iter().all(|&l| l < 10));
    }

    /// Bit patterns of `t`, so `-0.0 != 0.0` and NaN payloads count.
    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn prototypes_match_generated_dataset_bitwise() {
        let families = [
            SyntheticSpec::mnist(),
            SyntheticSpec::cifar10(),
            SyntheticSpec::gtsrb(),
            SyntheticSpec::imagenet_subset(),
        ];
        for family in families {
            for (hw, train, test) in [(8, 0, 0), (12, 7, 3), (family.height, 40, 11)] {
                let spec = family
                    .clone()
                    .with_size(hw)
                    .with_train_size(train)
                    .with_test_size(test);
                for seed in [0, 5, 0xdead_beef] {
                    let direct = spec.prototypes(seed);
                    let data = spec.generate(seed);
                    let what = format!("{} {hw}x{hw} {train}/{test} seed {seed}", spec.name);
                    for class in 0..spec.num_classes {
                        assert_eq!(
                            bits(&direct.prototype(class)),
                            bits(&data.prototypes.prototype(class)),
                            "{what}: class {class} prototype"
                        );
                    }
                    let (xa, ya) = direct.clean_subset(48, &mut StdRng::seed_from_u64(seed));
                    let (xb, yb) = data.clean_subset(48, &mut StdRng::seed_from_u64(seed));
                    assert_eq!(ya, yb, "{what}: clean-subset labels");
                    assert_eq!(bits(&xa), bits(&xb), "{what}: clean-subset images");
                }
            }
        }
    }

    #[test]
    fn prototype_footprint_ignores_image_and_split_sizes() {
        let small = SyntheticSpec::cifar10().with_size(8).with_train_size(1);
        let large = SyntheticSpec::cifar10()
            .with_train_size(60_000)
            .with_test_size(10_000);
        let bytes = small.prototypes(1).resident_bytes();
        assert!(bytes > 0);
        assert_eq!(bytes, large.prototypes(2).resident_bytes());
        assert!(SyntheticSpec::gtsrb().prototypes(1).resident_bytes() > bytes);
    }

    #[test]
    fn gtsrb_has_43_classes() {
        let s = SyntheticSpec::gtsrb();
        assert_eq!(s.num_classes, 43);
        assert_eq!(s.channels, 3);
    }

    #[test]
    fn imagenet_subset_is_larger() {
        let s = SyntheticSpec::imagenet_subset();
        assert_eq!((s.height, s.width), (64, 64));
    }

    #[test]
    #[should_panic(expected = "at least 8x8")]
    fn rejects_tiny_images() {
        let _ = SyntheticSpec::mnist().with_size(4);
    }
}
