//! Fully-connected layer and flattening.

use super::{record_input, with_recorded_input};
use crate::layer::{Grads, Layer, Pass, StateSlot};
use rand::Rng;
use usb_tensor::panel::GemmWeight;
use usb_tensor::{init, kernels, ops, QTensor, Tape, Tensor, Workspace};

/// A dense layer `y = W·x + b` mapping batch-last `[in, N] -> [out, N]`.
///
/// The weight is a [`GemmWeight`], multiplied as stored. It can be swapped
/// for a quantized payload ([`crate::layer::quantize_weights`] or a
/// low-precision bundle load), after which the layer is inference-only:
/// `forward`/`grad` read its decode, built once and shared by every
/// thread, while a parameter-gradient sink panics.
#[derive(Clone)]
pub struct Linear {
    weight: GemmWeight, // [out, in]
    bias: Tensor,       // [out], always dense
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
            bias: Tensor::zeros(&[out_features]),
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
    fn forward(&self, x: &Tensor, mut pass: Pass<'_>, ws: &mut Workspace) -> Tensor {
        assert_eq!(x.ndim(), 2, "Linear: input must be [in, N]");
        assert_eq!(
            x.shape()[0],
            self.in_features(),
            "Linear: expected {} input features, got {}",
            self.in_features(),
            x.shape()[0]
        );
        record_input(&mut pass, x);
        let (n, out, inf) = (x.shape()[1], self.out_features(), self.in_features());
        let mut y = ws.take_dirty(out * n);
        // W·X on the weight as stored: each output element is the
        // ascending-`k` dot product `Σ W[j,k]·x[k,i]`, the same for a dense
        // weight and a decoded quantized one.
        ops::matmul_into(self.weight.natural(), x.data(), out, inf, n, &mut y);
        for (row, &b) in y.chunks_exact_mut(n).zip(self.bias.data()) {
            for v in row {
                *v += b;
            }
        }
        Tensor::from_vec(y, &[out, n])
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
            grad_out.shape()[1],
            frame.aux[1],
            "Linear: grad_out batch dim mismatch"
        );
        let (out, n, inf) = (grad_out.shape()[0], grad_out.shape()[1], self.in_features());
        assert_eq!(out, self.out_features(), "Linear: grad_out width mismatch");
        if let Some(grads) = grads {
            assert!(
                self.qweight().is_none(),
                "Linear: training pass on a quantized (inference-only) layer"
            );
            // dL/dW = g xᵀ and dL/db = row sums of g, both summed over
            // images in ascending order.
            let mut xt = ws.take_dirty(n * inf);
            with_recorded_input(&mut frame, "Linear", |x| {
                kernels::transpose(x.data(), inf, n, &mut xt)
            });
            let mut gw = ws.take_dirty(out * inf);
            ops::matmul_into(grad_out.data(), &xt, out, n, inf, &mut gw);
            let [acc_w, acc_b] = grads.take_last(2) else {
                unreachable!("take_last(2) yields two accumulators")
            };
            kernels::add_assign(acc_w.data_mut(), &gw);
            ws.put(xt);
            ws.put(gw);
            for (b, row) in acc_b
                .data_mut()
                .iter_mut()
                .zip(grad_out.data().chunks_exact(n))
            {
                for &g in row {
                    *b += g;
                }
            }
        }
        // dL/dx = Wᵀ g on the natural-order panel.
        let mut gi = ws.take_dirty(inf * n);
        ops::matmul_transa_into(self.weight.natural(), grad_out.data(), inf, out, n, &mut gi);
        tape.recycle(frame);
        Tensor::from_vec(gi, &[inf, n])
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&'static str, StateSlot<'_>)) {
        let (dense, quant) = self.weight.state_mut();
        f("linear", StateSlot::Weight { dense, quant });
        f("linear", StateSlot::Param(&mut self.bias, false));
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Reshapes batch-last `[C, H, W, N]` (or any rank ≥ 2) to `[C·H·W, N]`,
/// already the column form [`Linear`] reads; the backward pass restores
/// the recorded shape.
#[derive(Debug, Default, Clone)]
pub struct Flatten;

impl Flatten {
    /// Creates a flattening layer.
    pub fn new() -> Self {
        Flatten
    }
}

impl Layer for Flatten {
    fn forward(&self, x: &Tensor, mut pass: Pass<'_>, ws: &mut Workspace) -> Tensor {
        assert!(x.ndim() >= 2, "Flatten: need at least rank-2 input");
        if let Some(frame) = pass.push() {
            frame.aux.extend_from_slice(x.shape());
        }
        let n = x.shape()[x.ndim() - 1];
        // A reshape is a copy in this tensor library; drawing the copy from
        // the workspace keeps the inference path allocation-free.
        let mut out = ws.take_dirty(x.len());
        out.copy_from_slice(x.data());
        Tensor::from_vec(out, &[x.len() / n, n])
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

    fn visit_state(&mut self, _f: &mut dyn FnMut(&'static str, StateSlot<'_>)) {}

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{quantize_weights, visit_params};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use usb_tensor::Dtype;

    #[test]
    fn linear_forward_matches_manual() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(2, 2, &mut rng);
        // Overwrite with known weights.
        visit_params(&mut l, |value, _| {
            if value.shape() == [2usize, 2] {
                *value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
            } else {
                *value = Tensor::from_vec(vec![0.5, -0.5], &[2]);
            }
        });
        let x = Tensor::from_vec(vec![1.0, 1.0], &[2, 1]);
        let y = l.forward(&x, Pass::Infer, &mut Workspace::new());
        // y = [1+2+0.5, 3+4-0.5]
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn linear_parameter_gradients_are_exact() {
        // y = W·x + b with loss Σ y: dL/dW[j,k] = Σ_i x[k,i], dL/db = N.
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = Tensor::from_vec(vec![0.5, 0.25, -0.25, 1.5, 1.0, -0.5], &[3, 2]);
        let mut grads = Grads::for_model(&mut l);
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let y = l.forward(&x, Pass::Train(&mut tape), &mut ws);
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

    /// The weight gradient (the recorded input transposed, one
    /// `g @ xᵀ` GEMM) equals the naive ascending-`n` sum `Σ_n g[o,n]·x[i,n]`
    /// bit for bit, added onto a non-zero accumulator, on shapes
    /// straddling the GEMM's register tiles.
    #[test]
    fn linear_weight_gradient_matches_naive_sum_bitwise() {
        for (inf, out, n) in [(1, 1, 1), (3, 2, 1), (13, 9, 11), (24, 10, 17), (7, 5, 33)] {
            let mut l = Linear::new(inf, out, &mut StdRng::seed_from_u64(7));
            let x = Tensor::from_fn(&[inf, n], |i| ((i as f32) * 0.61).sin());
            let g = Tensor::from_fn(&[out, n], |i| ((i as f32) * 0.37).cos() - 0.25);
            let start = Tensor::from_fn(&[out, inf], |i| ((i as f32) * 0.23).sin() * 4.0);
            let mut grads = Grads::for_model(&mut l);
            grads.params_mut()[0] = start.clone();
            let (mut tape, mut ws) = (Tape::new(), Workspace::new());
            let _ = l.forward(&x, Pass::Train(&mut tape), &mut ws);
            let _ = l.grad(&g, &mut tape, &mut ws, Some(&mut grads));
            let mut want = start.into_vec();
            for o in 0..out {
                for i in 0..inf {
                    let mut s = 0.0f32;
                    for k in 0..n {
                        s += g.data()[o * n + k] * x.data()[i * n + k];
                    }
                    want[o * inf + i] += s;
                }
            }
            let got: Vec<u32> = grads.params()[0]
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "in {inf}, out {out}, n {n}");
        }
    }

    #[test]
    fn flatten_roundtrip() {
        let f = Flatten::new();
        let x = Tensor::from_fn(&[3, 2, 2, 2], |i| i as f32);
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let y = f.forward(&x, Pass::Train(&mut tape), &mut ws);
        assert_eq!(y.shape(), &[12, 2]);
        let g = f.grad(&Tensor::ones(&[12, 2]), &mut tape, &mut ws, None);
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    #[should_panic(expected = "input features")]
    fn linear_rejects_wrong_width() {
        let mut rng = StdRng::seed_from_u64(2);
        let l = Linear::new(3, 2, &mut rng);
        let _ = l.forward(&Tensor::zeros(&[4, 1]), Pass::Infer, &mut Workspace::new());
    }

    /// Small integers are exact in f16, so the quantized inference and
    /// tape-gradient paths must be bit-identical to the dense ones.
    #[test]
    fn quantized_linear_matches_dense_on_f16_exact_weights() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Linear::new(4, 3, &mut rng);
        visit_params(&mut l, |value, _| {
            *value = Tensor::from_fn(value.shape(), |i| (i as f32) - 5.0);
        });
        let x = Tensor::from_fn(&[4, 2], |i| (i as f32) * 0.25 - 1.0);
        let mut ws = Workspace::default();
        let dense_y = l.forward(&x, Pass::Infer, &mut ws);

        let mut q = l.clone();
        quantize_weights(&mut q, Dtype::F16);
        assert_eq!(q.out_features(), 3);
        assert_eq!(q.in_features(), 4);
        let qy = q.forward(&x, Pass::Infer, &mut ws);
        assert_eq!(qy.data(), dense_y.data());

        let mut tape = Tape::default();
        let _ = l.forward(&x, Pass::Eval(&mut tape), &mut ws);
        let g = Tensor::from_fn(&[3, 2], |i| 1.0 + i as f32);
        let dense_gi = l.grad(&g, &mut tape, &mut ws, None);
        let _ = q.forward(&x, Pass::Eval(&mut tape), &mut ws);
        let qgi = q.grad(&g, &mut tape, &mut ws, None);
        assert_eq!(qgi.data(), dense_gi.data());
    }

    #[test]
    fn quantized_linear_hides_weight_from_optimizers() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut l = Linear::new(3, 2, &mut rng);
        quantize_weights(&mut l, Dtype::Q8);
        let mut slots = 0usize;
        visit_params(&mut l, |value, _| {
            assert_eq!(value.shape(), [2usize], "only the bias is left");
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
        let x = Tensor::from_fn(&[24, 3], |i| ((i as f32) * 0.7).sin());
        crate::layers::panel_checks::q8_panels_are_built_once(l, |l| &l.weight, &x);
    }

    #[test]
    fn every_mut_route_drops_the_panels() {
        let build =
            || -> Box<dyn Layer> { Box::new(Linear::new(24, 10, &mut StdRng::seed_from_u64(6))) };
        let x = Tensor::from_fn(&[24, 3], |i| ((i as f32) * 0.7).sin());
        crate::layers::panel_checks::mutation_drops_panels(&build, &x);
    }

    #[test]
    #[should_panic(expected = "quantized")]
    fn quantized_linear_rejects_training() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut l = Linear::new(3, 2, &mut rng);
        quantize_weights(&mut l, Dtype::F16);
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let y = l.forward(&Tensor::zeros(&[3, 1]), Pass::Train(&mut tape), &mut ws);
        let _ = l.grad(&y, &mut tape, &mut ws, Some(&mut Grads::default()));
    }
}
