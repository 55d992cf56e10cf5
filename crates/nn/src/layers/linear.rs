//! Fully-connected layer and flattening.

use super::{record_input, with_recorded_input};
use crate::layer::{Grads, Layer, Mode, Param, ParamSlot, StateSlot};
use rand::Rng;
use usb_tensor::panel::GemmWeight;
use usb_tensor::{init, ops, Dtype, QTensor, Tape, Tensor, Workspace};

/// A dense layer `y = x Wᵀ + b` mapping `[N, in] -> [N, out]`.
///
/// The weight is a [`GemmWeight`]: the layer builds its GEMM panels once
/// and every thread shares them. It can be swapped for a quantized
/// payload ([`Layer::quantize_weights`] or a low-precision bundle load),
/// after which the layer is inference-only: `infer`/`grad` read decoded
/// panels, while a parameter-gradient sink panics.
#[derive(Clone)]
pub struct Linear {
    weight: GemmWeight, // [out, in]
    bias: Param,        // [out], always dense
}

impl Linear {
    /// Creates a Kaiming-initialised dense layer.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "Linear: zero dimension"
        );
        Linear {
            weight: GemmWeight::new(init::kaiming_uniform(
                &[out_features, in_features],
                in_features,
                rng,
            )),
            bias: Param::new(Tensor::zeros(&[out_features]), false),
        }
    }

    /// Output dimensionality.
    pub fn out_features(&self) -> usize {
        self.weight.shape()[0]
    }

    /// Input dimensionality.
    pub fn in_features(&self) -> usize {
        self.weight.shape()[1]
    }

    /// The quantized weight payload, if the layer is in low-precision
    /// inference mode.
    pub fn qweight(&self) -> Option<&QTensor> {
        self.weight.quant()
    }
}

impl Layer for Linear {
    fn infer(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        assert_eq!(x.ndim(), 2, "Linear: input must be [N, in]");
        assert_eq!(
            x.shape()[1],
            self.in_features(),
            "Linear: expected {} input features, got {}",
            self.in_features(),
            x.shape()[1]
        );
        let (n, out, inf) = (x.shape()[0], self.out_features(), self.in_features());
        let mut y = ws.take_dirty(n * out);
        // x @ Wᵀ on the layer's k-major panel: each output element is the
        // ascending-`k` dot product `Σ x[i,k]·W[j,k]`, the same for a dense
        // weight and a decoded quantized one.
        ops::matmul_into(x.data(), self.weight.kmajor(), n, inf, out, &mut y);
        let bd = self.bias.value.data();
        for i in 0..n {
            for (v, &b) in y[i * out..(i + 1) * out].iter_mut().zip(bd) {
                *v += b;
            }
        }
        Tensor::from_vec(y, &[n, out])
    }

    fn infer_recording(
        &self,
        x: &Tensor,
        mode: Mode,
        tape: &mut Tape,
        ws: &mut Workspace,
    ) -> Tensor {
        record_input(tape, x, mode);
        self.infer(x, ws)
    }

    fn grad(
        &self,
        grad_out: &Tensor,
        tape: &mut Tape,
        ws: &mut Workspace,
        grads: Option<&mut Grads>,
    ) -> Tensor {
        let mut frame = tape.pop();
        assert_eq!(
            grad_out.shape()[0],
            frame.aux[0],
            "Linear: grad_out batch dim mismatch"
        );
        let (n, out, inf) = (grad_out.shape()[0], self.out_features(), self.in_features());
        assert_eq!(grad_out.shape()[1], out, "Linear: grad_out width mismatch");
        if let Some(grads) = grads {
            assert!(
                self.qweight().is_none(),
                "Linear: training pass on a quantized (inference-only) layer"
            );
            // dL/dW = gᵀ x ; dL/db = column sums of g.
            let gw = with_recorded_input(&mut frame, "Linear", |x| ops::matmul_transa(grad_out, x));
            let [acc_w, acc_b] = grads.take_last(2) else {
                unreachable!("take_last(2) yields two accumulators")
            };
            acc_w.add_assign(&gw);
            let (bd, god) = (acc_b.data_mut(), grad_out.data());
            for i in 0..n {
                for j in 0..out {
                    bd[j] += god[i * out + j];
                }
            }
        }
        // dL/dx = g W on the natural-order panel.
        let mut gi = ws.take_dirty(n * inf);
        ops::matmul_into(grad_out.data(), self.weight.natural(), n, out, inf, &mut gi);
        tape.recycle(frame);
        Tensor::from_vec(gi, &[n, inf])
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamSlot<'_>)) {
        // A quantized weight is invisible to optimisers and weight decay —
        // its dense storage is empty and must not be updated or counted.
        if let Some(value) = self.weight.dense_mut() {
            f(ParamSlot { value, decay: true });
        }
        f(self.bias.slot());
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&'static str, StateSlot<'_>)) {
        let (dense, quant) = self.weight.state_mut();
        f("linear", StateSlot::Weight { dense, quant });
        f("linear", StateSlot::Dense(&mut self.bias.value));
    }

    fn quantize_weights(&mut self, dtype: Dtype) {
        self.weight.quantize(dtype);
    }

    fn param_count(&self) -> usize {
        // Logical counts: a quantized weight still holds out·in parameters.
        let w: usize = self.weight.shape().iter().product();
        w + self.bias.value.len()
    }

    fn name(&self) -> &'static str {
        "linear"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Reshapes `[N, C, H, W]` (or any rank ≥ 2) to `[N, C·H·W]`; the backward
/// pass restores the recorded shape.
#[derive(Debug, Default, Clone)]
pub struct Flatten;

impl Flatten {
    /// Creates a flattening layer.
    pub fn new() -> Self {
        Flatten
    }
}

impl Layer for Flatten {
    fn infer(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        assert!(x.ndim() >= 2, "Flatten: need at least rank-2 input");
        let n = x.shape()[0];
        // A reshape is a copy in this tensor library; drawing the copy from
        // the workspace keeps the inference path allocation-free.
        let mut out = ws.take_dirty(x.len());
        out.copy_from_slice(x.data());
        Tensor::from_vec(out, &[n, x.len() / n])
    }

    fn infer_recording(
        &self,
        x: &Tensor,
        _mode: Mode,
        tape: &mut Tape,
        ws: &mut Workspace,
    ) -> Tensor {
        tape.push().aux.extend_from_slice(x.shape());
        self.infer(x, ws)
    }

    fn grad(
        &self,
        grad_out: &Tensor,
        tape: &mut Tape,
        ws: &mut Workspace,
        _grads: Option<&mut Grads>,
    ) -> Tensor {
        let frame = tape.pop();
        assert_eq!(
            grad_out.len(),
            frame.aux.iter().product::<usize>(),
            "Flatten: grad length does not match the recorded shape"
        );
        let mut out = ws.take_dirty(grad_out.len());
        out.copy_from_slice(grad_out.data());
        let gi = Tensor::from_vec(out, &frame.aux);
        tape.recycle(frame);
        gi
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(ParamSlot<'_>)) {}

    fn param_count(&self) -> usize {
        0 // no parameters
    }

    fn name(&self) -> &'static str {
        "flatten"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_forward_matches_manual() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(2, 2, &mut rng);
        // Overwrite with known weights.
        l.visit_params(&mut |slot| {
            if slot.value.shape() == [2usize, 2] {
                *slot.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
            } else {
                *slot.value = Tensor::from_vec(vec![0.5, -0.5], &[2]);
            }
        });
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = l.infer(&x, &mut Workspace::new());
        // y = [1+2+0.5, 3+4-0.5]
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn linear_parameter_gradients_are_exact() {
        // y = x Wᵀ + b with loss Σ y: dL/dW[j,k] = Σ_i x[i,k], dL/db = N.
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = Tensor::from_vec(vec![0.5, -0.25, 1.0, 0.25, 1.5, -0.5], &[2, 3]);
        let mut grads = Grads::for_model(&mut l);
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let y = l.infer_recording(&x, Mode::Train, &mut tape, &mut ws);
        let _ = l.grad(
            &Tensor::ones(y.shape()),
            &mut tape,
            &mut ws,
            Some(&mut grads),
        );
        assert_eq!(
            grads.params()[0].data(),
            &[0.75, 1.25, 0.5, 0.75, 1.25, 0.5]
        );
        assert_eq!(grads.params()[1].data(), &[2.0, 2.0]);
    }

    #[test]
    fn flatten_roundtrip() {
        let f = Flatten::new();
        let x = Tensor::from_fn(&[2, 3, 2, 2], |i| i as f32);
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let y = f.infer_recording(&x, Mode::Train, &mut tape, &mut ws);
        assert_eq!(y.shape(), &[2, 12]);
        let g = f.grad(&Tensor::ones(&[2, 12]), &mut tape, &mut ws, None);
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    #[should_panic(expected = "input features")]
    fn linear_rejects_wrong_width() {
        let mut rng = StdRng::seed_from_u64(2);
        let l = Linear::new(3, 2, &mut rng);
        let _ = l.infer(&Tensor::zeros(&[1, 4]), &mut Workspace::new());
    }

    /// Small integers are exact in f16, so the quantized inference and
    /// tape-gradient paths must be bit-identical to the dense ones.
    #[test]
    fn quantized_linear_matches_dense_on_f16_exact_weights() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Linear::new(4, 3, &mut rng);
        l.visit_params(&mut |slot| {
            let ints = Tensor::from_fn(slot.value.shape(), |i| (i as f32) - 5.0);
            *slot.value = ints;
        });
        let x = Tensor::from_fn(&[2, 4], |i| (i as f32) * 0.25 - 1.0);
        let mut ws = Workspace::default();
        let dense_y = l.infer(&x, &mut ws);

        let mut q = l.clone();
        q.quantize_weights(Dtype::F16);
        assert_eq!(q.out_features(), 3);
        assert_eq!(q.in_features(), 4);
        assert_eq!(q.param_count(), l.param_count());
        let qy = q.infer(&x, &mut ws);
        assert_eq!(qy.data(), dense_y.data());

        let mut tape = Tape::default();
        let _ = l.infer_recording(&x, Mode::Eval, &mut tape, &mut ws);
        let g = Tensor::from_fn(&[2, 3], |i| 1.0 + i as f32);
        let dense_gi = l.grad(&g, &mut tape, &mut ws, None);
        let _ = q.infer_recording(&x, Mode::Eval, &mut tape, &mut ws);
        let qgi = q.grad(&g, &mut tape, &mut ws, None);
        assert_eq!(qgi.data(), dense_gi.data());
    }

    #[test]
    fn quantized_linear_hides_weight_from_optimizers() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut l = Linear::new(3, 2, &mut rng);
        l.quantize_weights(Dtype::Q8);
        let mut slots = 0usize;
        l.visit_params(&mut |slot| {
            assert_eq!(slot.value.shape(), [2usize], "only the bias is left");
            slots += 1;
        });
        assert_eq!(slots, 1);
        // The state walk still exposes the weight slot.
        let mut kinds = Vec::new();
        l.visit_state(&mut |kind, slot| {
            kinds.push((kind, matches!(slot, StateSlot::Weight { .. })));
        });
        assert_eq!(kinds, [("linear", true), ("linear", false)]);
    }

    #[test]
    fn q8_panels_are_built_once_and_shared() {
        let l = Linear::new(24, 10, &mut StdRng::seed_from_u64(6));
        let x = Tensor::from_fn(&[3, 24], |i| ((i as f32) * 0.7).sin());
        crate::layers::panel_checks::q8_panels_are_built_once(l, |l| &l.weight, &x);
    }

    #[test]
    fn every_mut_route_drops_the_panels() {
        let build =
            || -> Box<dyn Layer> { Box::new(Linear::new(24, 10, &mut StdRng::seed_from_u64(6))) };
        let x = Tensor::from_fn(&[3, 24], |i| ((i as f32) * 0.7).sin());
        crate::layers::panel_checks::mutation_drops_panels(&build, &x);
    }

    #[test]
    #[should_panic(expected = "quantized")]
    fn quantized_linear_rejects_training() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut l = Linear::new(3, 2, &mut rng);
        l.quantize_weights(Dtype::F16);
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let y = l.infer_recording(&Tensor::zeros(&[1, 3]), Mode::Train, &mut tape, &mut ws);
        let _ = l.grad(&y, &mut tape, &mut ws, Some(&mut Grads::default()));
    }
}
