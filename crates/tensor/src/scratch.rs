//! Reusable scratch buffers for the allocation-free inference path.
//!
//! Every forward-only model pass in the detection pipeline (per-sample
//! `predict` inside the UAP sweep, success-rate checks, refinement scoring,
//! evaluation) used to reallocate its im2col columns, matmul outputs, and
//! layer activations on every call. A [`Workspace`] is a small arena of
//! `Vec<f32>` buffers that those kernels check out and return instead:
//! after the first pass through a network the arena holds one buffer per
//! distinct scratch shape and steady-state inference performs **no heap
//! allocation** in the kernels.
//!
//! # Contract
//!
//! * [`Workspace::take`] returns a buffer of *exactly* the requested length
//!   that is **fully zero-filled** — callers never observe data from a
//!   previous checkout, no matter what shapes were used before (the
//!   stale-data property `tests/infer_equivalence.rs` pins down).
//!   [`Workspace::take_dirty`] skips the zero fill for callers that
//!   provably write every element before any read — the `_into` kernels
//!   overwrite their `out` slice themselves (they accept dirty
//!   non-workspace slices too), so zeroing for them would be a redundant
//!   pass over every buffer on the hot path.
//! * [`Workspace::put`] / [`Workspace::recycle`] hand a buffer (or a tensor
//!   built from one) back for reuse. Returning buffers is an optimisation,
//!   never a correctness requirement: a buffer that escapes (e.g. a layer
//!   output returned to the caller) is simply an ordinary allocation.
//! * `Clone` yields an **empty** workspace: scratch space is transient, so
//!   cloning a layer or model that owns one must not duplicate megabytes of
//!   dead buffers (this is what keeps per-worker clones of a victim cheap).
//!
//! A `Workspace` is deliberately *not* shared between threads; each worker
//! owns its own (`Send` but used behind `&mut`).
//!
//! A workspace is only a buffer pool. A quantized weight's decode is not
//! scratch: the layer that owns the weight builds it once and shares it
//! with every worker ([`crate::panel::GemmWeight`]).
//!
//! # Example
//!
//! ```rust
//! use usb_tensor::Workspace;
//!
//! let mut ws = Workspace::new();
//! let a = ws.take_tensor(&[2, 3]);
//! assert_eq!(a.data(), &[0.0; 6]);
//! ws.recycle(a);                  // capacity is reused…
//! let b = ws.take_tensor(&[6]);   // …even across different shapes
//! assert_eq!(b.data(), &[0.0; 6]);
//! ```

use crate::Tensor;

/// An arena of reusable `f32` scratch buffers (see the module docs for the
/// zero-fill and `Clone` contract).
#[derive(Debug, Default)]
pub struct Workspace {
    pool: Vec<Vec<f32>>,
}

impl Clone for Workspace {
    /// Cloning yields an **empty** workspace: buffers are transient scratch,
    /// and duplicating them with every model clone would defeat the
    /// per-worker memory savings the arena exists to provide.
    fn clone(&self) -> Self {
        Workspace::new()
    }
}

impl Workspace {
    /// Creates an empty workspace (no buffers until the first
    /// [`Workspace::put`]).
    pub fn new() -> Self {
        Workspace { pool: Vec::new() }
    }

    /// Checks out a zero-filled buffer of exactly `len` elements.
    ///
    /// Reuses the pooled buffer whose capacity fits `len` most tightly
    /// (growing the largest one when none fits), so mixed-size request
    /// sequences — a whole network's layers — converge on one allocation
    /// per distinct size class instead of growing every buffer to the
    /// maximum.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take_dirty(len);
        buf.fill(0.0); // zero-fills every element: no stale data
        buf
    }

    /// Checks out a buffer of exactly `len` elements with **unspecified
    /// contents** — it may carry data from a previous checkout.
    ///
    /// For kernels that provably write every element before any read (the
    /// `_into`/`_ws` kernels and the elementwise `infer` impls), the
    /// zero fill of [`Workspace::take`] is a redundant pass over the
    /// buffer on the exact hot path the arena exists to speed up; this
    /// variant skips it. Callers that cannot guarantee a full overwrite
    /// must use `take` — the no-stale-data contract does not apply here.
    pub fn take_dirty(&mut self, len: usize) -> Vec<f32> {
        let mut pick: Option<usize> = None;
        for (i, buf) in self.pool.iter().enumerate() {
            let better = match pick {
                None => true,
                Some(p) => {
                    let (pc, bc) = (self.pool[p].capacity(), buf.capacity());
                    if pc >= len {
                        bc >= len && bc < pc // both fit: prefer the tighter one
                    } else {
                        bc > pc // neither fits yet: prefer the larger one
                    }
                }
            };
            if better {
                pick = Some(i);
            }
        }
        let mut buf = match pick {
            Some(i) => self.pool.swap_remove(i),
            None => Vec::new(),
        };
        // Keep whatever reused contents fit (dirty); only growth beyond the
        // current length is zero-initialised (safe Rust has no way to hand
        // out truly uninitialised f32s, and doesn't need one here).
        if buf.len() >= len {
            buf.truncate(len);
        } else {
            buf.resize(len, 0.0);
        }
        buf
    }

    /// Returns a buffer to the pool for future [`Workspace::take`] calls.
    pub fn put(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.pool.push(buf);
        }
    }

    /// Checks out a zero-filled [`Tensor`] of the given shape.
    pub fn take_tensor(&mut self, shape: &[usize]) -> Tensor {
        let len = shape.iter().product();
        Tensor::from_vec(self.take(len), shape)
    }

    /// Returns a tensor's buffer to the pool (the shape is forgotten).
    pub fn recycle(&mut self, t: Tensor) {
        self.put(t.into_vec());
    }

    /// Number of buffers currently parked in the pool (diagnostics only).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Total `f32` capacity currently parked in the pool (diagnostics only).
    pub fn pooled_capacity(&self) -> usize {
        self.pool.iter().map(|b| b.capacity()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zero_filled_even_after_dirty_recycle() {
        let mut ws = Workspace::new();
        let mut t = ws.take_tensor(&[4, 4]);
        t.fill(7.5);
        ws.recycle(t);
        // Different shape, same pooled buffer: must come back all zeros.
        let u = ws.take_tensor(&[2, 3]);
        assert_eq!(u.data(), &[0.0; 6]);
        ws.recycle(u);
        // Larger than anything pooled: grows, still all zeros.
        let v = ws.take(100);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn buffers_are_reused_not_reallocated() {
        let mut ws = Workspace::new();
        let a = ws.take(64);
        ws.put(a);
        assert_eq!(ws.pooled(), 1);
        let b = ws.take(32); // fits in the pooled 64-capacity buffer
        assert_eq!(ws.pooled(), 0, "the pooled buffer must be checked out");
        assert!(b.capacity() >= 64, "capacity from the recycled buffer");
        ws.put(b);
    }

    #[test]
    fn best_fit_prefers_tightest_buffer() {
        let mut ws = Workspace::new();
        ws.put(Vec::with_capacity(1000));
        ws.put(Vec::with_capacity(10));
        let b = ws.take(8);
        assert!(
            b.capacity() < 1000,
            "an 8-element request must not consume the 1000-capacity buffer"
        );
        // The big buffer is still parked for big requests.
        assert_eq!(ws.pooled(), 1);
        assert_eq!(ws.pooled_capacity(), 1000);
    }

    #[test]
    fn take_dirty_skips_the_zero_fill_but_has_exact_length() {
        let mut ws = Workspace::new();
        ws.put(vec![7.5f32; 10]);
        // Reused prefix may be stale; length must still be exact.
        let b = ws.take_dirty(6);
        assert_eq!(b.len(), 6);
        ws.put(b);
        // Growth beyond the pooled length is zero-initialised.
        let c = ws.take_dirty(20);
        assert_eq!(c.len(), 20);
        assert!(
            c[10..].iter().all(|&x| x == 0.0),
            "grown tail must be zeroed"
        );
        // `take` on the same pool still honours the no-stale-data contract.
        ws.put(c);
        let d = ws.take(20);
        assert!(d.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn clone_is_empty() {
        let mut ws = Workspace::new();
        ws.put(vec![1.0; 256]);
        let cloned = ws.clone();
        assert_eq!(cloned.pooled(), 0);
        assert_eq!(cloned.pooled_capacity(), 0);
        assert_eq!(ws.pooled(), 1, "the original keeps its buffers");
    }

    #[test]
    fn zero_length_take_and_put_are_harmless() {
        let mut ws = Workspace::new();
        let b = ws.take(0);
        assert!(b.is_empty());
        ws.put(b); // capacity 0: dropped, not pooled
        assert_eq!(ws.pooled(), 0);
    }
}
