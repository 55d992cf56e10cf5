//! # usb-defenses
//!
//! The reverse-engineering baselines the USB paper compares against, plus
//! the shared detection machinery:
//!
//! * [`NeuralCleanse`] — Wang et al. (S&P 2019): per class, optimise a
//!   `(mask, pattern)` pair so that `x·(1−m) + p·m` classifies as the class,
//!   with a dynamically weighted `‖mask‖₁` penalty; flag classes whose mask
//!   norm is an abnormally small MAD outlier.
//! * [`Tabor`] — Guo et al. (ICDM 2020): Neural Cleanse plus explicit
//!   regularisers (elastic-net mask size, total-variation smoothness of the
//!   mask and of the masked pattern).
//! * [`Ulp`] — Universal Litmus Patterns (Kolouri et al., CVPR 2020): no
//!   reverse engineering at all — a learned bank of probe images plus a
//!   logistic meta-classifier over the pooled softmax response, trained on
//!   cached clean/backdoored surrogate pairs.
//! * [`DetectionOutcome`] / [`ModelVerdict`] / [`TargetClassCall`] — the
//!   verdict types every defense (including USB in `usb-core`) produces, and
//!   the scoring used by the paper's *Model Detection* and *Target Class
//!   Detection* table columns.
//! * [`TriggerVar`] — the tanh-parameterised `(mask, pattern)` optimisation
//!   variable shared by NC, TABOR, and USB's Alg. 2.
//! * [`optimise_trigger`] — the **one** trigger-optimisation loop all three
//!   run: in-order batches, the CE input gradient, Adam with betas
//!   `(0.5, 0.9)`, and the final success rate over all images. Each method
//!   supplies only its start and its [`Objective`]: USB (`usb-core`'s
//!   `refine_uap`) starts from the targeted UAP and adds the SSIM reward
//!   and a fixed-weight `‖mask‖₁` ([`RefineConfig`]); NC starts from noise
//!   and adds the adaptively weighted `‖mask‖₁` ([`NcConfig`]); TABOR adds
//!   its elastic-net and total-variation terms on top ([`TaborConfig`]).
//!
//! # Example
//!
//! ```rust,no_run
//! use usb_defenses::{Defense, NeuralCleanse};
//! use usb_data::SyntheticSpec;
//! # use usb_attacks::{Attack, BadNet};
//! # use usb_nn::models::{Architecture, ModelKind};
//! # use usb_nn::train::TrainConfig;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let data = SyntheticSpec::mnist().with_size(16).generate(1);
//! # let arch = Architecture::new(ModelKind::BasicCnn, (1, 16, 16), 10).with_width(8);
//! # let victim = BadNet::new(2, 0, 0.1).execute(&data, arch, TrainConfig::fast(), 1);
//! let mut rng = StdRng::seed_from_u64(0);
//! let (clean_x, _) = data.clean_subset(64, &mut rng);
//! let outcome = NeuralCleanse::fast().inspect(&victim.model, &clean_x, &mut rng);
//! println!("flagged classes: {:?}", outcome.flagged);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod nc;
mod optimise;
mod tabor;
mod trigger_var;
mod ulp;
mod verdict;

pub use nc::{NcConfig, NeuralCleanse};
pub use optimise::{optimise_trigger, Objective, RefineConfig, TriggerFit};
pub use tabor::{Tabor, TaborConfig};
pub use trigger_var::{masked_pattern, total_variation_with_grad, TriggerVar};
pub use ulp::{Ulp, UlpConfig};
pub use verdict::{
    score_outcome, ClassResult, Defense, DetectionOutcome, ModelVerdict, TargetClassCall,
};
