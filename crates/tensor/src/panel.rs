//! GEMM weights, dense or quantized, read in their natural order.
//!
//! The GEMMs behind `Linear` and `Conv2d` read a weight matrix as stored,
//! row-major `[rows, cols]`: the forward pass multiplies it as the left,
//! broadcast operand of [`crate::ops::matmul_into`], and the input
//! gradient as the k-major left operand of
//! [`crate::ops::matmul_transa_into`]. A dense weight therefore needs no
//! panel at all; a quantized one has to be decoded first.
//!
//! A [`GemmWeight`] holds the weight together with that decode. It is
//! built once, on first use, behind `&self` (a [`OnceLock`]), so every
//! worker thread reading a shared model shares one copy. Every `&mut`
//! route to the weight drops the decode first, so it never outlives the
//! values it was built from. A clone starts without one, as a
//! [`crate::Workspace`] clone starts empty.
//!
//! # Example
//!
//! ```rust
//! use usb_tensor::panel::GemmWeight;
//! use usb_tensor::{Dtype, QTensor, Tensor};
//!
//! let values = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
//! let mut w = GemmWeight::new(values.clone());
//! assert_eq!(w.natural(), values.data()); // the dense values themselves
//! let (dense, quant) = w.state_mut();
//! *dense = Tensor::zeros(&[0]);
//! *quant = Some(QTensor::quantize(&values, Dtype::F16)); // drops the decode
//! assert_eq!(w.natural(), values.data()); // small integers are exact in f16
//! ```

use crate::{QTensor, Tensor};
use std::sync::OnceLock;

/// A GEMM weight, dense or quantized, viewed as a `[rows, cols]` matrix
/// with `rows = shape[0]` (`Linear`'s `[out, in]`, `Conv2d`'s
/// `[OC, IC·KH·KW]`), plus the lazily built decode of a quantized one.
pub struct GemmWeight {
    dense: Tensor, // empty while `quant` is populated
    quant: Option<QTensor>,
    /// The natural-order decode of `quant`; never built for a dense weight.
    decoded: OnceLock<Box<[f32]>>,
}

impl Clone for GemmWeight {
    /// Clones the weight; the clone decodes its own copy on first use.
    fn clone(&self) -> Self {
        GemmWeight::with(self.dense.clone(), self.quant.clone())
    }
}

impl GemmWeight {
    /// Wraps a dense weight.
    ///
    /// # Panics
    ///
    /// Panics if `dense` has rank below 2.
    pub fn new(dense: Tensor) -> Self {
        assert!(
            dense.ndim() >= 2,
            "GemmWeight: rank-{} weight",
            dense.ndim()
        );
        GemmWeight::with(dense, None)
    }

    fn with(dense: Tensor, quant: Option<QTensor>) -> Self {
        GemmWeight {
            dense,
            quant,
            decoded: OnceLock::new(),
        }
    }

    /// Logical shape, whichever storage holds the values.
    pub fn shape(&self) -> &[usize] {
        match &self.quant {
            Some(q) => q.shape(),
            None => self.dense.shape(),
        }
    }

    /// The dense values; empty while the weight is quantized.
    pub fn dense(&self) -> &Tensor {
        &self.dense
    }

    /// The quantized payload, if the weight holds one.
    pub fn quant(&self) -> Option<&QTensor> {
        self.quant.as_ref()
    }

    /// Both storage slots, for training, quantizing, loading and inspecting
    /// persistent state. While `quant` is `Some`, `dense` must be empty and
    /// the kernels read the quantized payload. Drops the decode.
    pub fn state_mut(&mut self) -> (&mut Tensor, &mut Option<QTensor>) {
        self.decoded.take();
        (&mut self.dense, &mut self.quant)
    }

    /// The weight in natural row-major order: the dense values themselves,
    /// or the decoded quantized payload, built on the first call.
    pub fn natural(&self) -> &[f32] {
        match &self.quant {
            None => self.dense.data(),
            Some(q) => self.decoded.get_or_init(|| {
                let mut decoded = vec![0.0; q.len()];
                q.dequantize_into(&mut decoded);
                decoded.into_boxed_slice()
            }),
        }
    }
}
