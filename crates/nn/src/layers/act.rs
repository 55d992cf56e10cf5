//! Activation layers: ReLU, Sigmoid, SiLU (swish).

use crate::layer::{Layer, Mode, ParamSlot};
use usb_tensor::{Tape, Tensor, Workspace};

/// Elementwise map into a workspace buffer: the allocation-free counterpart
/// of [`Tensor::map`], applying the *same* scalar function so the results
/// are bit-identical to the forward path.
fn map_into(x: &Tensor, ws: &mut Workspace, f: impl Fn(f32) -> f32) -> Tensor {
    let mut out = ws.take_dirty(x.len());
    for (o, &v) in out.iter_mut().zip(x.data()) {
        *o = f(v);
    }
    Tensor::from_vec(out, x.shape())
}

/// Elementwise two-input map into a workspace buffer: the tape-route
/// counterpart of [`Tensor::zip_map`] over `(grad, recorded activation)`
/// pairs, applying the *same* scalar function as the layer's `backward`
/// so gradients are bit-identical.
fn zip_grad_into(
    grad_out: &Tensor,
    recorded: &[f32],
    ws: &mut Workspace,
    f: impl Fn(f32, f32) -> f32,
) -> Tensor {
    assert_eq!(
        grad_out.len(),
        recorded.len(),
        "activation grad: grad length does not match the recorded frame"
    );
    let mut out = ws.take_dirty(grad_out.len());
    for ((o, &g), &v) in out.iter_mut().zip(grad_out.data()).zip(recorded) {
        *o = f(g, v);
    }
    Tensor::from_vec(out, grad_out.shape())
}

/// Rectified linear unit `max(0, x)`.
#[derive(Debug, Default)]
pub struct ReLU {
    cached_input: Option<Tensor>,
}

impl Clone for ReLU {
    /// Stateless apart from the transient forward cache, which a clone
    /// starts without (see [`Layer::clone_box`]).
    fn clone(&self) -> Self {
        ReLU::default()
    }
}

impl ReLU {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        ReLU::default()
    }
}

impl Layer for ReLU {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        self.cached_input = Some(x.clone());
        x.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("ReLU::backward before forward");
        grad_out.zip_map(x, |g, xv| if xv > 0.0 { g } else { 0.0 })
    }

    fn infer(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        map_into(x, ws, |v| v.max(0.0))
    }

    fn infer_recording(&self, x: &Tensor, tape: &mut Tape, ws: &mut Workspace) -> Tensor {
        tape.push().vals.extend_from_slice(x.data());
        map_into(x, ws, |v| v.max(0.0))
    }

    fn grad(&self, grad_out: &Tensor, tape: &mut Tape, ws: &mut Workspace) -> Tensor {
        let frame = tape.pop();
        // Same scalar gate as `backward`'s zip_map, over the recorded input.
        let gi = zip_grad_into(
            grad_out,
            &frame.vals,
            ws,
            |g, xv| {
                if xv > 0.0 {
                    g
                } else {
                    0.0
                }
            },
        );
        tape.recycle(frame);
        gi
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(ParamSlot<'_>)) {}

    fn param_count(&self) -> usize {
        0 // no parameters
    }

    fn name(&self) -> &'static str {
        "relu"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Logistic sigmoid `1/(1+e^{-x})`.
#[derive(Debug, Default)]
pub struct Sigmoid {
    cached_output: Option<Tensor>,
}

impl Clone for Sigmoid {
    /// Stateless apart from the transient forward cache, which a clone
    /// starts without (see [`Layer::clone_box`]).
    fn clone(&self) -> Self {
        Sigmoid::default()
    }
}

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Self {
        Sigmoid::default()
    }
}

/// Scalar logistic sigmoid used by several layers and losses.
pub(crate) fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        let y = x.map(sigmoid_scalar);
        self.cached_output = Some(y.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self
            .cached_output
            .as_ref()
            .expect("Sigmoid::backward before forward");
        grad_out.zip_map(y, |g, s| g * s * (1.0 - s))
    }

    fn infer(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        map_into(x, ws, sigmoid_scalar)
    }

    fn infer_recording(&self, x: &Tensor, tape: &mut Tape, ws: &mut Workspace) -> Tensor {
        // Like `forward`, the *output* is what the gradient needs.
        let y = map_into(x, ws, sigmoid_scalar);
        tape.push().vals.extend_from_slice(y.data());
        y
    }

    fn grad(&self, grad_out: &Tensor, tape: &mut Tape, ws: &mut Workspace) -> Tensor {
        let frame = tape.pop();
        let gi = zip_grad_into(grad_out, &frame.vals, ws, |g, s| g * s * (1.0 - s));
        tape.recycle(frame);
        gi
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(ParamSlot<'_>)) {}

    fn param_count(&self) -> usize {
        0 // no parameters
    }

    fn name(&self) -> &'static str {
        "sigmoid"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// SiLU / swish activation `x · sigmoid(x)`, the nonlinearity used by
/// EfficientNet.
#[derive(Debug, Default)]
pub struct SiLU {
    cached_input: Option<Tensor>,
}

impl Clone for SiLU {
    /// Stateless apart from the transient forward cache, which a clone
    /// starts without (see [`Layer::clone_box`]).
    fn clone(&self) -> Self {
        SiLU::default()
    }
}

impl SiLU {
    /// Creates a SiLU layer.
    pub fn new() -> Self {
        SiLU::default()
    }
}

impl Layer for SiLU {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        self.cached_input = Some(x.clone());
        x.map(|v| v * sigmoid_scalar(v))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("SiLU::backward before forward");
        grad_out.zip_map(x, |g, v| {
            let s = sigmoid_scalar(v);
            g * (s + v * s * (1.0 - s))
        })
    }

    fn infer(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        map_into(x, ws, |v| v * sigmoid_scalar(v))
    }

    /// Records the input in `vals` and the sigmoid it computes on the way
    /// in `extra`, so [`SiLU::grad`] reads `σ(x)` instead of recomputing
    /// the exponential — the same bits either way.
    fn infer_recording(&self, x: &Tensor, tape: &mut Tape, ws: &mut Workspace) -> Tensor {
        let frame = tape.push();
        frame.vals.extend_from_slice(x.data());
        frame
            .extra
            .extend(x.data().iter().map(|&v| sigmoid_scalar(v)));
        let mut out = ws.take_dirty(x.len());
        for ((o, &v), &s) in out.iter_mut().zip(x.data()).zip(&frame.extra) {
            *o = v * s;
        }
        Tensor::from_vec(out, x.shape())
    }

    fn grad(&self, grad_out: &Tensor, tape: &mut Tape, ws: &mut Workspace) -> Tensor {
        let frame = tape.pop();
        assert!(
            grad_out.len() == frame.vals.len() && frame.extra.len() == frame.vals.len(),
            "activation grad: grad length does not match the recorded frame"
        );
        // Same expression as `backward`, on the recorded σ(x).
        let mut out = ws.take_dirty(grad_out.len());
        for (((o, &g), &v), &s) in out
            .iter_mut()
            .zip(grad_out.data())
            .zip(&frame.vals)
            .zip(&frame.extra)
        {
            *o = g * (s + v * s * (1.0 - s));
        }
        tape.recycle(frame);
        Tensor::from_vec(out, grad_out.shape())
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(ParamSlot<'_>)) {}

    fn param_count(&self) -> usize {
        0 // no parameters
    }

    fn name(&self) -> &'static str {
        "silu"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff(layer: &mut dyn Layer, x: &Tensor) {
        let y = layer.forward(x, Mode::Train);
        let gi = layer.backward(&Tensor::ones(y.shape()));
        let eps = 1e-3;
        for flat in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let num = (layer.forward(&xp, Mode::Train).sum()
                - layer.forward(&xm, Mode::Train).sum())
                / (2.0 * eps);
            assert!(
                (num - gi.data()[flat]).abs() < 1e-2,
                "{}: grad mismatch at {flat}: {num} vs {}",
                layer.name(),
                gi.data()[flat]
            );
        }
    }

    #[test]
    fn relu_values_and_grad() {
        let mut r = ReLU::new();
        let x = Tensor::from_vec(vec![-1.0, 0.5, 2.0, -0.1], &[4]);
        let y = r.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[0.0, 0.5, 2.0, 0.0]);
        let g = r.backward(&Tensor::ones(&[4]));
        assert_eq!(g.data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn sigmoid_range_and_grad() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(vec![-4.0, 0.0, 4.0, 100.0, -100.0], &[5]);
        let y = s.forward(&x, Mode::Eval);
        assert!(y.all_finite());
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        assert!(y.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        finite_diff(&mut s, &Tensor::from_vec(vec![-0.8, 0.2, 1.3], &[3]));
    }

    #[test]
    fn silu_matches_definition_and_grad() {
        let mut s = SiLU::new();
        let x = Tensor::from_vec(vec![1.0], &[1]);
        let y = s.forward(&x, Mode::Eval);
        assert!((y.data()[0] - 1.0 / (1.0 + (-1.0f32).exp())).abs() < 1e-6);
        finite_diff(
            &mut s,
            &Tensor::from_vec(vec![-1.5, -0.2, 0.0, 0.7, 2.0], &[5]),
        );
    }
}
