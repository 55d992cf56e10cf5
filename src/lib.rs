//! # universal-soldier
//!
//! Facade crate for the reproduction of *"Universal Soldier: Using Universal
//! Adversarial Perturbations for Detecting Backdoor Attacks"* (Xu, Ersoy,
//! Tajalli, Picek — DSN 2024).
//!
//! This crate re-exports every workspace member under one roof so examples
//! and downstream users can depend on a single package:
//!
//! * [`tensor`] — CPU tensor substrate (conv kernels, SSIM, statistics).
//! * [`nn`] — layer-based neural networks with full backpropagation.
//! * [`data`] — synthetic image-classification datasets.
//! * [`attacks`] — BadNet, latent backdoor, and IAD backdoor attacks.
//! * [`defenses`] — Neural Cleanse and TABOR baselines plus shared verdict
//!   types.
//! * [`usb`] — the paper's contribution: targeted-UAP backdoor detection.
//! * [`eval`] — the experiment grid regenerating every table and figure.
//!
//! # Quickstart
//!
//! Train a backdoored victim, then let USB find the implanted target class
//! (see `examples/quickstart.rs` for the commented version):
//!
//! ```rust,no_run
//! use rand::{rngs::StdRng, SeedableRng};
//! use universal_soldier::prelude::*;
//!
//! let data = SyntheticSpec::cifar10().with_size(12).generate(7);
//! let arch = Architecture::new(ModelKind::ResNet18, (3, 12, 12), 10).with_width(4);
//! let victim = BadNet::new(2, 0, 0.15).execute(&data, arch, TrainConfig::new(20), 7);
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let (clean_x, _) = data.clean_subset(48, &mut rng);
//! let outcome = UsbDetector::new(UsbConfig::standard())
//!     .inspect(&victim.model, &clean_x, &mut rng);
//! assert!(outcome.is_backdoored());
//! println!("flagged target classes: {:?}", outcome.flagged);
//! ```
//!
//! # Save → load → inspect
//!
//! Victims persist as self-contained bundles (model + trigger + ground
//! truth + dataset recipe; byte layout in `PERSISTENCE.md`), so a model
//! zoo is trained once and re-inspected from disk forever after. A loaded
//! victim's forwards are bit-exact, so the verdict below is bit-identical
//! to inspecting the in-memory `victim` (`usb-repro save` / `usb-repro
//! inspect <path>` is the CLI version of this loop):
//!
//! ```rust,no_run
//! use rand::{rngs::StdRng, SeedableRng};
//! use std::path::Path;
//! use universal_soldier::prelude::*;
//!
//! let spec = SyntheticSpec::cifar10().with_size(12);
//! let data = spec.generate(7);
//! let arch = Architecture::new(ModelKind::ResNet18, (3, 12, 12), 10).with_width(4);
//! let victim = BadNet::new(2, 0, 0.15).execute(&data, arch, TrainConfig::new(20), 7);
//!
//! // Save: one checksummed file carries everything an inspection needs.
//! let mut bundle = VictimBundle {
//!     victim,
//!     train_seed: 7,
//!     config_hash: 0,
//!     data_spec: spec,
//!     data_seed: 7,
//! };
//! save_victim(Path::new("target/zoo/badnet.usbv"), &mut bundle).unwrap();
//!
//! // Load (possibly in another process, days later) and inspect — no
//! // retraining: clean data regenerates from the stored recipe.
//! let loaded = load_victim(Path::new("target/zoo/badnet.usbv")).unwrap();
//! let data = loaded.data_spec.generate(loaded.data_seed);
//! let mut rng = StdRng::seed_from_u64(0);
//! let (clean_x, _) = data.clean_subset(48, &mut rng);
//! let outcome = UsbDetector::new(UsbConfig::standard())
//!     .inspect(&loaded.victim.model, &clean_x, &mut rng);
//! assert_eq!(outcome.flagged, vec![0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use usb_attacks as attacks;
pub use usb_core as usb;
pub use usb_data as data;
pub use usb_defenses as defenses;
pub use usb_eval as eval;
pub use usb_nn as nn;
pub use usb_tensor as tensor;

/// Convenience re-exports of the types used by virtually every program.
pub mod prelude {
    pub use usb_attacks::fixtures::{cached_victim, FixtureSpec};
    pub use usb_attacks::persist::{load_victim, save_victim, VictimBundle};
    pub use usb_attacks::{
        train_clean_victim, Attack, BackdoorImplant, BadNet, GroundTruth, IadAttack,
        InjectedTrigger, LatentBackdoor, MultiBadNet, Trigger, TriggerSpec, Victim,
    };
    pub use usb_core::{
        refine_uap, targeted_uap, transfer_uap, DeepfoolConfig, RefineConfig, UapConfig, UsbConfig,
        UsbDetector,
    };
    pub use usb_data::{Dataset, SyntheticSpec};
    pub use usb_defenses::{
        score_outcome, Defense, DetectionOutcome, ModelVerdict, NcConfig, NeuralCleanse, Tabor,
        TaborConfig, TargetClassCall, Ulp, UlpConfig,
    };
    pub use usb_nn::models::{Architecture, ModelKind, Network};
    pub use usb_nn::train::TrainConfig;
    pub use usb_tensor::{Tape, Tensor, Workspace};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exports_compile() {
        use crate::prelude::*;
        let spec = SyntheticSpec::mnist();
        assert_eq!(spec.num_classes, 10);
        let _ = ModelKind::ResNet18.paper_name();
        let _ = TrainConfig::fast();
    }
}
