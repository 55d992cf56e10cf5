//! Pooling layers wrapping the kernels in [`usb_tensor::pool`], on
//! batch-last `[C, H, W, N]` activations.

use crate::layer::{Grads, Layer, Pass, StateSlot};
use usb_tensor::{pool, Tape, Tensor, Workspace};

/// Average pooling over `k x k` windows with the given stride.
#[derive(Clone)]
pub struct AvgPool2d {
    k: usize,
    stride: usize,
}

impl AvgPool2d {
    /// Creates an average-pooling layer.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `stride` is zero.
    pub fn new(k: usize, stride: usize) -> Self {
        assert!(k > 0 && stride > 0, "AvgPool2d: zero window or stride");
        AvgPool2d { k, stride }
    }
}

impl Layer for AvgPool2d {
    fn forward(&self, x: &Tensor, mut pass: Pass<'_>, ws: &mut Workspace) -> Tensor {
        if let Some(frame) = pass.push() {
            frame.aux.extend_from_slice(&x.shape()[1..3]);
        }
        pool::avg_pool2d_forward_ws(x, self.k, self.stride, ws)
    }

    fn grad(
        &self,
        grad_out: &Tensor,
        tape: &mut Tape,
        ws: &mut Workspace,
        _grads: Option<&mut Grads>,
    ) -> Tensor {
        let frame = tape.pop();
        let (h, w) = (frame.aux[0], frame.aux[1]);
        let gi = pool::avg_pool2d_backward_ws(grad_out, h, w, self.k, self.stride, ws);
        tape.recycle(frame);
        gi
    }

    fn visit_state(&mut self, _f: &mut dyn FnMut(&'static str, StateSlot<'_>)) {}

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Max pooling over `k x k` windows with the given stride.
#[derive(Clone)]
pub struct MaxPool2d {
    k: usize,
    stride: usize,
}

impl MaxPool2d {
    /// Creates a max-pooling layer.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `stride` is zero.
    pub fn new(k: usize, stride: usize) -> Self {
        assert!(k > 0 && stride > 0, "MaxPool2d: zero window or stride");
        MaxPool2d { k, stride }
    }
}

impl Layer for MaxPool2d {
    /// The gradient routes through the argmax table, so only a recording
    /// pass computes it. The frame stores the argmax indices followed by
    /// the input shape.
    fn forward(&self, x: &Tensor, mut pass: Pass<'_>, ws: &mut Workspace) -> Tensor {
        let Some(frame) = pass.push() else {
            return pool::max_pool2d_forward_ws(x, self.k, self.stride, ws, None);
        };
        let y = pool::max_pool2d_forward_ws(x, self.k, self.stride, ws, Some(&mut frame.aux));
        frame.aux.extend_from_slice(x.shape());
        y
    }

    fn grad(
        &self,
        grad_out: &Tensor,
        tape: &mut Tape,
        ws: &mut Workspace,
        _grads: Option<&mut Grads>,
    ) -> Tensor {
        let frame = tape.pop();
        let (argmax, shape) = frame.aux.split_at(frame.aux.len() - 4);
        let gi = pool::max_pool2d_backward_ws(grad_out, argmax, shape, ws);
        tape.recycle(frame);
        gi
    }

    fn visit_state(&mut self, _f: &mut dyn FnMut(&'static str, StateSlot<'_>)) {}

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Global average pooling `[C, H, W, N] -> [C, N]`: the column form
/// [`super::Linear`] reads.
#[derive(Debug, Default, Clone)]
pub struct GlobalAvgPool;

impl GlobalAvgPool {
    /// Creates a global-average-pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&self, x: &Tensor, mut pass: Pass<'_>, ws: &mut Workspace) -> Tensor {
        if let Some(frame) = pass.push() {
            frame.aux.extend_from_slice(&x.shape()[1..3]);
        }
        pool::global_avg_pool_forward_ws(x, ws)
    }

    fn grad(
        &self,
        grad_out: &Tensor,
        tape: &mut Tape,
        ws: &mut Workspace,
        _grads: Option<&mut Grads>,
    ) -> Tensor {
        let frame = tape.pop();
        let (h, w) = (frame.aux[0], frame.aux[1]);
        let gi = pool::global_avg_pool_backward_ws(grad_out, h, w, ws);
        tape.recycle(frame);
        gi
    }

    fn visit_state(&mut self, _f: &mut dyn FnMut(&'static str, StateSlot<'_>)) {}

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Output and input gradient of `Σ layer(x)` through the tape.
    fn tape_grad(layer: &dyn Layer, x: &Tensor) -> (Tensor, Tensor) {
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let y = layer.forward(x, Pass::Eval(&mut tape), &mut ws);
        let gi = layer.grad(&Tensor::ones(y.shape()), &mut tape, &mut ws, None);
        (y, gi)
    }

    #[test]
    fn pooling_layers_roundtrip_shapes() {
        let x = Tensor::from_fn(&[3, 8, 8, 2], |i| (i as f32).sin());
        let (y, gi) = tape_grad(&AvgPool2d::new(2, 2), &x);
        assert_eq!((y.shape(), gi.shape()), (&[3usize, 4, 4, 2][..], x.shape()));
        let (y, gi) = tape_grad(&MaxPool2d::new(2, 2), &x);
        assert_eq!((y.shape(), gi.shape()), (&[3usize, 4, 4, 2][..], x.shape()));
        let (y, gi) = tape_grad(&GlobalAvgPool::new(), &x);
        assert_eq!((y.shape(), gi.shape()), (&[3usize, 2][..], x.shape()));
    }

    #[test]
    fn max_pool_grad_is_sparse() {
        let x = Tensor::from_fn(&[1, 4, 4, 1], |i| i as f32);
        let (_, g) = tape_grad(&MaxPool2d::new(2, 2), &x);
        assert_eq!(g.sum(), 4.0);
        assert_eq!(g.data().iter().filter(|&&v| v != 0.0).count(), 4);
    }
}
