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
//! * [`ops`] — matrix multiplication (`a·b` and `aᵀ·b`, one GEMM kernel),
//!   softmax, argmax, trigger stamping (`x·(1−m) + p·m` per channel
//!   plane), and the pair of boundary helpers between the image layout
//!   `[N, …]` and the batch-last layout `[…, N]`.
//! * [`kernels`] — the one home of every hot loop (GEMM tiles, transpose,
//!   dequant, elementwise passes, the softmax row, trigger blend, Adam,
//!   the depthwise stencil pair): each is one function that runs its
//!   scalar reference loop or its bit-identical AVX2 twin, the tier probed
//!   once per process (`USB_KERNEL=scalar|avx2|auto` overridable).
//! * [`conv`] — 2-D convolution kernels on batch-last activations
//!   `[C, H, W, N]` (dense ones on im2col/col2im and one GEMM per batch,
//!   depthwise ones broadcasting each tap over the batch) with full
//!   forward and backward (input, weight, and bias gradients).
//! * [`pool`] — average / max / global-average pooling with backward
//!   passes, batch-last like [`conv`].
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
//!   read in its natural order: a quantized one is decoded once and the
//!   decode shared with every thread.
//! * [`tape`] — the [`Tape`] of per-layer activation frames behind every
//!   gradient: a `Layer::forward` in `usb-nn` whose `Pass` carries a tape
//!   records backward state there instead of in the layers, so one
//!   immutable model serves every worker thread, in inspection and
//!   training alike.
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
