//! Activation layers: ReLU, Sigmoid, SiLU (swish).

use crate::layer::{Grads, Layer, Pass, StateSlot};
use usb_tensor::{kernels, Tape, Tensor, Workspace};

/// Elementwise map into a workspace buffer: the allocation-free counterpart
/// of [`Tensor::map`].
fn map_into(x: &Tensor, ws: &mut Workspace, f: impl Fn(f32) -> f32) -> Tensor {
    let mut out = ws.take_dirty(x.len());
    for (o, &v) in out.iter_mut().zip(x.data()) {
        *o = f(v);
    }
    Tensor::from_vec(out, x.shape())
}

/// Elementwise two-input map into a workspace buffer over
/// `(grad, recorded activation)` pairs.
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
#[derive(Debug, Default, Clone)]
pub struct ReLU;

impl ReLU {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        ReLU
    }
}

impl Layer for ReLU {
    fn forward(&self, x: &Tensor, mut pass: Pass<'_>, ws: &mut Workspace) -> Tensor {
        if let Some(frame) = pass.push() {
            frame.vals.extend_from_slice(x.data());
        }
        map_into(x, ws, |v| v.max(0.0))
    }

    fn grad(
        &self,
        grad_out: &Tensor,
        tape: &mut Tape,
        ws: &mut Workspace,
        _grads: Option<&mut Grads>,
    ) -> Tensor {
        let frame = tape.pop();
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

    fn visit_state(&mut self, _f: &mut dyn FnMut(&'static str, StateSlot<'_>)) {}

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Logistic sigmoid `1/(1+e^{-x})`.
#[derive(Debug, Default, Clone)]
pub struct Sigmoid;

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Self {
        Sigmoid
    }
}

impl Layer for Sigmoid {
    fn forward(&self, x: &Tensor, mut pass: Pass<'_>, ws: &mut Workspace) -> Tensor {
        let mut y = ws.take_dirty(x.len());
        kernels::sigmoid_silu(x.data(), Some(&mut y), None);
        // The *output* is what the gradient needs.
        if let Some(frame) = pass.push() {
            frame.vals.extend_from_slice(&y);
        }
        Tensor::from_vec(y, x.shape())
    }

    fn grad(
        &self,
        grad_out: &Tensor,
        tape: &mut Tape,
        ws: &mut Workspace,
        _grads: Option<&mut Grads>,
    ) -> Tensor {
        let frame = tape.pop();
        let gi = zip_grad_into(grad_out, &frame.vals, ws, |g, s| g * s * (1.0 - s));
        tape.recycle(frame);
        gi
    }

    fn visit_state(&mut self, _f: &mut dyn FnMut(&'static str, StateSlot<'_>)) {}

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// SiLU / swish activation `x · sigmoid(x)`, the nonlinearity used by
/// EfficientNet.
#[derive(Debug, Default, Clone)]
pub struct SiLU;

impl SiLU {
    /// Creates a SiLU layer.
    pub fn new() -> Self {
        SiLU
    }
}

impl Layer for SiLU {
    /// A recording pass stores the input in `vals`, and the kernel writes
    /// the sigmoid it computes on the way straight into `extra`, so
    /// [`SiLU::grad`] reads `σ(x)` instead of recomputing the exponential —
    /// the same bits either way.
    fn forward(&self, x: &Tensor, mut pass: Pass<'_>, ws: &mut Workspace) -> Tensor {
        let mut out = ws.take_dirty(x.len());
        let sigma = pass.push().map(|frame| {
            frame.vals.extend_from_slice(x.data());
            frame.extra.resize(x.len(), 0.0);
            &mut frame.extra[..]
        });
        kernels::sigmoid_silu(x.data(), sigma, Some(&mut out));
        Tensor::from_vec(out, x.shape())
    }

    fn grad(
        &self,
        grad_out: &Tensor,
        tape: &mut Tape,
        ws: &mut Workspace,
        _grads: Option<&mut Grads>,
    ) -> Tensor {
        let frame = tape.pop();
        assert!(
            grad_out.len() == frame.vals.len() && frame.extra.len() == frame.vals.len(),
            "activation grad: grad length does not match the recorded frame"
        );
        // d/dx x·σ(x) = σ + x·σ·(1 − σ), on the recorded σ(x).
        let mut out = ws.take_dirty(grad_out.len());
        kernels::silu_grad(grad_out.data(), &frame.vals, &frame.extra, &mut out);
        tape.recycle(frame);
        Tensor::from_vec(out, grad_out.shape())
    }

    fn visit_state(&mut self, _f: &mut dyn FnMut(&'static str, StateSlot<'_>)) {}

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Input gradient of `Σ layer(x)` through the tape.
    fn tape_grad(layer: &dyn Layer, x: &Tensor) -> (Tensor, Tensor) {
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let y = layer.forward(x, Pass::Eval(&mut tape), &mut ws);
        let gi = layer.grad(&Tensor::ones(y.shape()), &mut tape, &mut ws, None);
        (y, gi)
    }

    #[test]
    fn relu_values_and_grad() {
        let x = Tensor::from_vec(vec![-1.0, 0.5, 2.0, -0.1], &[4]);
        let (y, g) = tape_grad(&ReLU::new(), &x);
        assert_eq!(y.data(), &[0.0, 0.5, 2.0, 0.0]);
        assert_eq!(g.data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn sigmoid_range_and_grad() {
        let x = Tensor::from_vec(vec![-4.0, 0.0, 4.0, 100.0, -100.0], &[5]);
        let (y, g) = tape_grad(&Sigmoid::new(), &x);
        assert!(y.all_finite() && g.all_finite());
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        assert!((g.data()[1] - 0.25).abs() < 1e-6, "σ'(0) = 1/4");
        assert!(y.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    /// A recording SiLU forward gives the same bits as an unrecorded one,
    /// and the σ it writes into its frame is the `Sigmoid` layer's output.
    #[test]
    fn silu_records_the_sigmoid_of_its_input() {
        let x = Tensor::from_vec(
            (0..37)
                .map(|i| (i as f32 - 18.0) * 0.7)
                .chain([f32::NAN, -0.0, 95.0])
                .collect(),
            &[40],
        );
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let recorded = SiLU::new().forward(&x, Pass::Eval(&mut tape), &mut ws);
        let plain = SiLU::new().forward(&x, Pass::Infer, &mut ws);
        let sigma = Sigmoid::new().forward(&x, Pass::Infer, &mut ws);
        let frame = tape.pop();
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(recorded.data()), bits(plain.data()));
        assert_eq!(bits(&frame.extra), bits(sigma.data()));
        assert_eq!(bits(&frame.vals), bits(x.data()));
    }

    #[test]
    fn silu_matches_definition_and_grad() {
        let x = Tensor::from_vec(vec![1.0, 0.0], &[2]);
        let (y, g) = tape_grad(&SiLU::new(), &x);
        let s1 = 1.0 / (1.0 + (-1.0f32).exp());
        assert!((y.data()[0] - s1).abs() < 1e-6);
        assert!((g.data()[0] - (s1 + s1 * (1.0 - s1))).abs() < 1e-6);
        assert_eq!(g.data()[1], 0.5, "SiLU'(0) = 1/2");
    }
}
