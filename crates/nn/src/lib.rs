//! # usb-nn
//!
//! A layer-based neural-network library with full backpropagation, built on
//! [`usb_tensor`]. It exists so the Universal Soldier reproduction can train
//! victim CNNs *and* differentiate through them with respect to their
//! **inputs** — the core operation behind trigger reverse-engineering
//! (Neural Cleanse, TABOR) and targeted universal adversarial perturbations
//! (the paper's Alg. 1/2).
//!
//! Design in one paragraph: a model only holds data — parameters, running
//! statistics, geometry. Every pass takes `&self` and runs one forward,
//! [`layer::Layer::forward`], as one of three [`layer::Pass`]es:
//! `Infer` for forward-only work, and `Eval` or `Train` recording onto a
//! caller-owned [`usb_tensor::Tape`] that [`layer::Layer::grad`] then
//! consumes, with parameter gradients (when training) in a caller-owned
//! [`layer::Grads`] sink. A model's state —
//! trainable tensors, running statistics, quantizable GEMM weights — is
//! reached through one walk, [`layer::Layer::visit_state`], and everything
//! else that touches it (optimizers, quantization, the running-statistics
//! commit, [`serde`]) is a function over that walk. Models are
//! [`compose::Sequential`] stacks (plus residual / squeeze-excite
//! composites) wrapped in a [`models::Network`] that splits feature
//! extractor from classifier head so the latent-backdoor attack can inject
//! a feature-space gradient between the two.
//!
//! Because passes never write the model, one `&Network` is shared by every
//! thread: the parallel inspection engine and [`train::evaluate`] fan out
//! over a single model, each worker bringing its own tape and
//! [`usb_tensor::Workspace`]. Only the optimizer step and the batch-norm
//! running-statistics commit take `&mut`.
//!
//! # Example
//!
//! ```rust
//! use usb_nn::layer::{Grads, Layer, Pass};
//! use usb_nn::models::{Architecture, ModelKind};
//! use usb_nn::optim::Sgd;
//! use usb_tensor::{Tape, Tensor, Workspace};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(4);
//! let mut net = arch.build(&mut rng);
//! let x = Tensor::zeros(&[2, 1, 12, 12]);
//! let (mut tape, mut ws) = (Tape::new(), Workspace::new());
//! let logits = net.forward(&x, Pass::Infer, &mut ws);
//! assert_eq!(logits.shape(), &[2, 4]);
//!
//! // One training step: the same forward recording onto the tape,
//! // backpropagate into the sink, install the batch-norm running
//! // statistics, step.
//! let mut grads = Grads::for_model(&mut net);
//! let logits = net.forward(&x, Pass::Train(&mut tape), &mut ws);
//! let _ = net.grad(&Tensor::ones(logits.shape()), &mut tape, &mut ws, Some(&mut grads));
//! grads.commit(&mut net);
//! Sgd::new(0.1, 0.9, 0.0).step(&mut net, &grads);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod compose;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod models;
pub mod optim;
pub mod serde;
pub mod train;

pub use layer::{Layer, Pass};
pub use models::Network;
