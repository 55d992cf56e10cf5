//! # usb-attacks
//!
//! The three backdoor attacks the USB paper evaluates against, plus the
//! clean-model baseline and attack-success-rate (ASR) evaluation:
//!
//! * [`BadNet`] — the classic patch attack (Gu et al.): stamp a small
//!   `k × k` pattern at a random position in a fraction of the training set
//!   and relabel to the target class.
//! * [`LatentBackdoor`] — feature-space anchoring (Yao et al.): poisoned
//!   samples are additionally pulled toward the target class's *penultimate
//!   feature centroid*, implanting the shortcut in latent space.
//! * [`IadAttack`] — Input-Aware Dynamic backdoor (Nguyen & Tran): a
//!   generator network produces a *different* full-image trigger for every
//!   input, trained jointly with the classifier under diversity and
//!   cross-trigger losses. Non-patch, input-specific — the attack that
//!   defeats NC-style defenses in the paper's Table 3.
//! * [`MultiBadNet`] — several simultaneous all-to-one backdoors (APG-style,
//!   Wang et al.): a distinct trigger per target class implanted in one
//!   poisoned training run, with an optional full-image low-`L∞` blended
//!   trigger mode.
//!
//! All attacks implement [`Attack`] and produce a [`Victim`]: a trained
//! network plus ground truth (clean or backdoored-with-target) that the
//! evaluation harness scores detections against.
//!
//! Victims persist to disk as self-contained bundles ([`persist`]) —
//! model, trigger, ground truth, and dataset recipe in one checksummed
//! file — and the [`fixtures`] cache memoizes trained victims under
//! `target/fixtures/` so tests, examples, and the experiment grid retrain
//! only when their configuration changes. See `PERSISTENCE.md` for the
//! format.
//!
//! # Example
//!
//! ```rust,no_run
//! use usb_attacks::{Attack, BadNet, train_clean_victim};
//! use usb_data::SyntheticSpec;
//! use usb_nn::models::{Architecture, ModelKind};
//! use usb_nn::train::TrainConfig;
//!
//! let data = SyntheticSpec::mnist().with_size(16).with_train_size(256).generate(1);
//! let arch = Architecture::new(ModelKind::BasicCnn, (1, 16, 16), 10).with_width(8);
//! let attack = BadNet::new(2, 0, 0.05);
//! let victim = attack.execute(&data, arch, TrainConfig::fast(), 1);
//! println!("clean acc {:.2}, asr {:.2}", victim.clean_accuracy, victim.asr());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod badnet;
pub mod fixtures;
mod iad;
mod latent;
mod multi;
pub mod persist;
mod trigger;
mod victim;

pub use badnet::BadNet;
pub use iad::{IadAttack, IadGenerator};
pub use latent::LatentBackdoor;
pub use multi::MultiBadNet;
pub use trigger::{Trigger, TriggerSpec};
pub use victim::{
    evaluate_asr_dynamic, evaluate_asr_static, train_clean_victim, Attack, BackdoorImplant,
    GroundTruth, InjectedTrigger, Victim,
};
