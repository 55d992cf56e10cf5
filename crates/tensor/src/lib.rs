//! # usb-tensor
//!
//! CPU tensor substrate for the Universal Soldier (USB) backdoor-detection
//! reproduction.
//!
//! This crate provides everything the neural-network layer above
//! ([`usb-nn`](../usb_nn/index.html)) and the defense algorithms need from a
//! numerical library:
//!
//! * [`Tensor`] — a contiguous, row-major, `f32` n-dimensional array with
//!   elementwise arithmetic, reductions, and shape algebra.
//! * [`ops`] — matrix multiplication, transposition, softmax, argmax.
//! * [`kernels`] — the runtime-dispatched SIMD tier: probes the CPU once
//!   (`USB_KERNEL=scalar|avx2|auto` overridable) and routes the hot GEMM /
//!   dequant / elementwise loops through AVX2 twins that are bit-identical
//!   to the scalar reference loops.
//! * [`conv`] — im2col/col2im based 2-D convolution kernels (dense and
//!   depthwise) with full forward and backward (input, weight, and bias
//!   gradients).
//! * [`pool`] — average / max pooling with backward passes.
//! * [`ssim`] — the structural similarity index (SSIM) with an *analytic
//!   input gradient*, required by the paper's Alg. 2 loss
//!   `CE − SSIM + ‖mask‖₁`.
//! * [`stats`] — median / MAD / anomaly-index statistics used by every
//!   reverse-engineering defense to flag outlier classes.
//! * [`init`] — seeded random initialisers (uniform, normal, Kaiming).
//! * [`io`] — versioned binary (de)serialization of tensors (magic,
//!   shape, bit-exact `f32` payload, CRC-32) plus the little-endian
//!   primitives the model/victim persistence layers above are built on.
//! * [`par`] — std-only scoped-thread worker pool with a deterministic,
//!   order-preserving [`par::par_map`]; the execution substrate behind the
//!   per-class, per-model, and per-batch parallel loops higher up the
//!   stack.
//! * [`scratch`] — the [`Workspace`] arena of reusable scratch buffers:
//!   the `_ws` conv / pool kernels here and every `Layer` pass in `usb-nn`
//!   draw their im2col / matmul / pool buffers from it instead of the
//!   allocator.
//! * [`quant`] — low-precision weight storage: an f16 codec, a Q8 block
//!   format, and the [`QTensor`] container (inspection is read-only, so
//!   frozen victims can live at 2–4× less memory).
//! * [`panel`] — [`panel::GemmWeight`], a dense or quantized GEMM weight
//!   that builds its k-major and natural-order f32 panels once and shares
//!   them with every thread.
//! * [`tape`] — the [`Tape`] of per-layer activation frames behind every
//!   gradient: `Layer::infer_recording` in `usb-nn` records backward state
//!   into a caller-owned tape instead of the layers, so one immutable model
//!   serves every worker thread, in inspection and training alike.
//!
//! # Example
//!
//! ```rust
//! use usb_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::ones(&[2, 2]);
//! let c = a.add(&b);
//! assert_eq!(c.data(), &[2.0, 3.0, 4.0, 5.0]);
//! ```

// `unsafe` is denied, not forbidden: the one exception is the [`kernels`]
// module, which opts back in locally for the AVX2 intrinsics behind the
// runtime-dispatched SIMD tier. Everything else stays safe Rust.
#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod conv;
pub mod init;
pub mod io;
pub mod kernels;
pub mod ops;
pub mod panel;
pub mod par;
pub mod pool;
pub mod quant;
pub mod scratch;
pub mod ssim;
pub mod stats;
pub mod tape;
mod tensor;

pub use quant::{Dtype, QTensor};
pub use scratch::Workspace;
pub use tape::Tape;
pub use tensor::{ShapeError, Tensor};
