//! GEMM weights that own their packed panels.
//!
//! The GEMMs behind `Linear` and `Conv2d` read a weight matrix in two
//! layouts. The forward pass wants it k-major (the transpose), so the
//! register tiles load it with unit stride. The input-gradient GEMMs want
//! it in natural row-major order. A dense weight already is its natural
//! panel; a quantized one has to be decoded first.
//!
//! A [`GemmWeight`] holds the weight together with those panels. Each
//! panel is built once, on first use, behind `&self` (a [`OnceLock`]), so
//! every worker thread reading a shared model shares one copy. Every
//! `&mut` route to the weight drops the panels first, so a panel never
//! outlives the values it was built from. A clone starts with empty
//! panels, as a [`crate::Workspace`] clone starts empty.
//!
//! # Example
//!
//! ```rust
//! use usb_tensor::panel::GemmWeight;
//! use usb_tensor::Tensor;
//!
//! let mut w = GemmWeight::new(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]));
//! assert_eq!(w.kmajor(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
//! w.state_mut().0.data_mut()[0] = 10.0; // drops the panel
//! assert_eq!(w.kmajor(), &[10.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
//! ```

use crate::{ops, QTensor, Tensor};
use std::sync::OnceLock;

/// A GEMM weight, dense or quantized, viewed as a `[rows, cols]` matrix
/// with `rows = shape[0]` (`Linear`'s `[out, in]`, `Conv2d`'s
/// `[OC, IC·KH·KW]`), plus its lazily built panels.
pub struct GemmWeight {
    dense: Tensor, // empty while `quant` is populated
    quant: Option<QTensor>,
    /// The k-major panel, followed for a quantized weight by its
    /// natural-order decode. One slot keeps the idle layer small.
    panels: OnceLock<Box<[f32]>>,
}

impl Clone for GemmWeight {
    /// Clones the weight; the clone builds its own panels on first use.
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
            panels: OnceLock::new(),
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
    /// the kernels read the quantized payload. Drops the panels.
    pub fn state_mut(&mut self) -> (&mut Tensor, &mut Option<QTensor>) {
        self.drop_panels();
        (&mut self.dense, &mut self.quant)
    }

    /// The k-major panel: the `[cols, rows]` transpose of the (decoded)
    /// weight, built on the first call.
    pub fn kmajor(&self) -> &[f32] {
        &self.panels()[..self.len()]
    }

    /// The weight in natural row-major order: the dense values themselves,
    /// or the decoded quantized payload, built on the first call.
    pub fn natural(&self) -> &[f32] {
        match &self.quant {
            None => self.dense.data(),
            Some(_) => &self.panels()[self.len()..],
        }
    }

    fn len(&self) -> usize {
        self.shape().iter().product()
    }

    /// Builds both panels of a quantized weight at once: the decode is the
    /// natural panel and the transpose's source.
    fn panels(&self) -> &[f32] {
        self.panels.get_or_init(|| {
            let (len, rows) = (self.len(), self.shape()[0]);
            let decoded = if self.quant.is_some() { len } else { 0 };
            let mut panels = vec![0.0; len + decoded];
            let (kmajor, natural) = panels.split_at_mut(len);
            let src = match &self.quant {
                None => self.dense.data(),
                Some(q) => {
                    q.dequantize_into(natural);
                    &*natural
                }
            };
            ops::transpose_into(src, rows, len / rows, kmajor);
            panels.into_boxed_slice()
        })
    }

    fn drop_panels(&mut self) {
        self.panels.take();
    }
}
