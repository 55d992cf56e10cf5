//! # usb-core
//!
//! **Universal Soldier for Backdoor detection (USB)** — the paper's
//! contribution. USB detects all-to-one backdoors in a pre-trained
//! classifier in two phases:
//!
//! 1. **Targeted UAP (Alg. 1)** — [`targeted_uap`] builds a universal
//!    adversarial perturbation `v` that sends *most* clean inputs to a
//!    candidate target class, by repeatedly applying a targeted
//!    DeepFool step to every not-yet-fooled sample and projecting onto
//!    an L∞ ball. Per sample, one loop asks and acts: DeepFool's first
//!    forward is the prediction, and it steps only while off target. A
//!    backdoored class has a poisoning-built shortcut from every class, so
//!    its UAP needs far less perturbation.
//! 2. **UAP refinement (Alg. 2)** — [`refine_uap`] decomposes `v` into a
//!    `trigger × mask` pair and optimises
//!    `L = CE(f(x'), t) − SSIM(x, x') + λ‖mask‖₁` with Adam, focusing the
//!    perturbation on the pixels that actually carry the shortcut. This
//!    crate supplies only the UAP start and the loss weights
//!    ([`RefineConfig`]); the steps run in
//!    [`usb_defenses::optimise_trigger`], the loop Neural Cleanse and TABOR
//!    run from a random start, and the result is the same
//!    [`usb_defenses::TriggerFit`] they get.
//!
//! The [`UsbDetector`] packages both phases as a
//! [`usb_defenses::Defense`], so it plugs into the same MAD outlier test
//! and scoring as NC and TABOR. [`transfer`](transfer_uap) reuses a UAP
//! generated on one model to seed detection on another (paper §4.4: "we
//! only need to generate it once").
//!
//! Inspection runs the per-class scans **in parallel** on the
//! [`usb_tensor::par`] worker pool ([`UsbConfig::workers`], or the
//! `USB_THREADS` environment variable), every worker sharing **one
//! `&Network`** — the model is only ever read (forward passes through the
//! cache-free inference path, gradients through a caller-owned
//! [`Tape`](usb_tensor::Tape)), so inspection spawns zero model clones.
//! Scratch is borrowed, not built: [`targeted_uap`], [`refine_uap`] and
//! [`transfer_uap`] take the caller's `&mut Tape` and `&mut Workspace`,
//! and each inspection worker owns one pair for all the classes it runs.
//! Each class draws from its own rng stream derived from the inspection
//! seed, so verdicts are bit-identical at any thread count.
//!
//! # Example
//!
//! ```rust,no_run
//! use usb_core::{UsbConfig, UsbDetector};
//! use usb_defenses::Defense;
//! use usb_data::SyntheticSpec;
//! # use usb_attacks::{Attack, BadNet};
//! # use usb_nn::models::{Architecture, ModelKind};
//! # use usb_nn::train::TrainConfig;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let data = SyntheticSpec::cifar10().with_size(16).generate(3);
//! # let arch = Architecture::new(ModelKind::ResNet18, (3, 16, 16), 10).with_width(4);
//! # let victim = BadNet::new(2, 0, 0.1).execute(&data, arch, TrainConfig::fast(), 3);
//! let mut rng = StdRng::seed_from_u64(0);
//! let (clean_x, _) = data.clean_subset(48, &mut rng);
//! let usb = UsbDetector::new(UsbConfig::fast());
//! let outcome = usb.inspect(&victim.model, &clean_x, &mut rng);
//! println!("backdoored: {}, classes {:?}", outcome.is_backdoored(), outcome.flagged);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod deepfool;
mod detector;
mod refine;
mod transfer;
mod uap;
pub mod viz;

pub use deepfool::DeepfoolConfig;
pub use detector::{StageSeconds, UsbConfig, UsbDetector};
pub use refine::refine_uap;
pub use transfer::{transfer_uap, TransferOutcome};
pub use uap::{targeted_uap, UapConfig, UapResult};
pub use usb_defenses::RefineConfig;
