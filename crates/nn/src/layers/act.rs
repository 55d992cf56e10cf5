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

/// `out[i] = σ(x[i])`, branch-free over the slice: `e = exp(-|x|)` through
/// [`kernels::exp_in_place`], then `1/(1+e)` where `x ≥ 0` and `e/(1+e)`
/// elsewhere. A NaN input enters `exp` as it is (`-|x|` would flip its
/// sign bit), so it comes out quietened with its sign and payload.
fn sigmoid_into(x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    for (o, &v) in out.iter_mut().zip(x) {
        *o = if v > 0.0 { -v } else { v };
    }
    kernels::exp_in_place(out);
    for (o, &v) in out.iter_mut().zip(x) {
        let e = *o;
        *o = if v >= 0.0 {
            1.0 / (1.0 + e)
        } else {
            e / (1.0 + e)
        };
    }
}

impl Layer for Sigmoid {
    fn forward(&self, x: &Tensor, mut pass: Pass<'_>, ws: &mut Workspace) -> Tensor {
        let mut y = ws.take_dirty(x.len());
        sigmoid_into(x.data(), &mut y);
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
    /// A recording pass stores the input in `vals` and the sigmoid it
    /// computes on the way in `extra`, so [`SiLU::grad`] reads `σ(x)`
    /// instead of recomputing the exponential — the same bits either way.
    fn forward(&self, x: &Tensor, mut pass: Pass<'_>, ws: &mut Workspace) -> Tensor {
        let mut out = ws.take_dirty(x.len());
        sigmoid_into(x.data(), &mut out);
        if let Some(frame) = pass.push() {
            frame.vals.extend_from_slice(x.data());
            frame.extra.extend_from_slice(&out);
        }
        for (o, &v) in out.iter_mut().zip(x.data()) {
            *o *= v;
        }
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

    /// The branchy sigmoid `sigmoid_into` replaced, over the port's `exp`.
    fn sigmoid_branchy(x: f32) -> f32 {
        if x >= 0.0 {
            1.0 / (1.0 + kernels::exp(-x))
        } else {
            let e = kernels::exp(x);
            e / (1.0 + e)
        }
    }

    /// `sigmoid_into` equals the branchy formula on every bit pattern,
    /// `±0`, `±∞` and NaN sign and payload included.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "exhaustive; run with --release")]
    fn sigmoid_into_matches_branchy_formula_exhaustively() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4)) as u64;
        let span = (1u64 << 32).div_ceil(threads);
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    let (lo, hi) = (t * span, ((t + 1) * span).min(1 << 32));
                    let (mut x, mut y) = (Vec::with_capacity(4096), vec![0.0; 4096]);
                    for start in (lo..hi).step_by(4096) {
                        x.clear();
                        x.extend((start..(start + 4096).min(hi)).map(|b| f32::from_bits(b as u32)));
                        sigmoid_into(&x, &mut y[..x.len()]);
                        for (&v, &o) in x.iter().zip(&y) {
                            let want = sigmoid_branchy(v);
                            assert_eq!(o.to_bits(), want.to_bits(), "σ({v:e}): {o:e} vs {want:e}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn sigmoid_into_passes_nan_through_and_keeps_signed_zero_cases() {
        let x = [
            f32::from_bits(0xff80_0abc),
            f32::NAN,
            -0.0,
            0.0,
            30.0,
            -30.0,
            -200.0,
        ];
        let mut y = [0.0; 7];
        sigmoid_into(&x, &mut y);
        for (&v, &o) in x.iter().zip(&y) {
            assert_eq!(o.to_bits(), sigmoid_branchy(v).to_bits(), "σ({v:e})");
        }
        assert_eq!(y[0].to_bits(), 0xffc0_0abc, "NaN keeps sign and payload");
        assert_eq!((y[2], y[3]), (0.5, 0.5));
        assert_eq!(y[6], 0.0);
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
