//! Dense and depthwise convolution layers.

use super::{record_input, with_recorded_input};
use crate::layer::{Grads, Layer, Mode, Param, ParamSlot, StateSlot};
use rand::Rng;
use usb_tensor::conv::{
    conv2d_backward_ws, conv2d_forward_panel_ws, conv2d_input_backward_panel_ws,
    depthwise_backward_ws, depthwise_forward_ws, depthwise_input_backward_ws, ConvSpec,
};
use usb_tensor::panel::GemmWeight;
use usb_tensor::{init, Dtype, Tape, Tensor, Workspace};

/// Adds a layer's `(weight, bias)` gradients into its accumulators at the
/// back of `grads`.
fn accumulate(grads: &mut Grads, gw: &Tensor, gb: &Tensor, has_bias: bool) {
    let slots = grads.take_last(1 + usize::from(has_bias));
    slots[0].add_assign(gw);
    if let Some(acc) = slots.get_mut(1) {
        acc.add_assign(gb);
    }
}

/// A 2-D convolution `[N, IC, H, W] -> [N, OC, OH, OW]`.
///
/// Weights are Kaiming-uniform initialised with fan-in `IC·KH·KW`. Like
/// [`super::Linear`], the layer holds its weight as a [`GemmWeight`] and
/// hands the kernels its shared panels; the weight can be swapped for a
/// quantized payload, after which the layer is inference-only.
#[derive(Clone)]
pub struct Conv2d {
    weight: GemmWeight, // [OC, IC, KH, KW]
    bias: Option<Param>,
    spec: ConvSpec,
}

impl Conv2d {
    /// Creates a convolution with square kernel `k`, the given stride and
    /// padding, and an optional bias.
    ///
    /// # Panics
    ///
    /// Panics if `in_ch`, `out_ch` or `k` is zero, or `stride` is zero.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
        bias: bool,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(in_ch > 0 && out_ch > 0 && k > 0, "Conv2d: zero dimension");
        let fan_in = in_ch * k * k;
        let weight = GemmWeight::new(init::kaiming_uniform(&[out_ch, in_ch, k, k], fan_in, rng));
        let bias = bias.then(|| Param::new(Tensor::zeros(&[out_ch]), false));
        Conv2d {
            weight,
            bias,
            spec: ConvSpec::new(stride, pad),
        }
    }

    /// The convolution geometry (stride / padding).
    pub fn spec(&self) -> ConvSpec {
        self.spec
    }

    /// Immutable access to the dense weight tensor (e.g. for inspection in
    /// tests). Empty while the layer is quantized.
    pub fn weight(&self) -> &Tensor {
        self.weight.dense()
    }
}

impl Layer for Conv2d {
    fn infer(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        conv2d_forward_panel_ws(
            x,
            self.weight.kmajor(),
            self.weight.shape(),
            self.bias.as_ref().map(|b| &b.value),
            self.spec,
            ws,
        )
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
            "Conv2d: grad_out batch dim mismatch"
        );
        let gi = match grads {
            // dL/dx depends only on the weight: no im2col of the input, no
            // weight GEMM.
            None => {
                let (h, w) = (frame.aux[2], frame.aux[3]);
                let (wd, wshape) = (self.weight.natural(), self.weight.shape());
                conv2d_input_backward_panel_ws(wd, wshape, grad_out, h, w, self.spec, ws)
            }
            Some(grads) => {
                assert!(
                    self.weight.quant().is_none(),
                    "Conv2d: training pass on a quantized (inference-only) layer"
                );
                let (gi, gw, gb) = with_recorded_input(&mut frame, "Conv2d", |x| {
                    conv2d_backward_ws(x, self.weight.dense(), grad_out, self.spec, ws)
                });
                accumulate(grads, &gw, &gb, self.bias.is_some());
                gi
            }
        };
        tape.recycle(frame);
        gi
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamSlot<'_>)) {
        // A quantized weight is invisible to optimisers and weight decay.
        if let Some(value) = self.weight.dense_mut() {
            f(ParamSlot { value, decay: true });
        }
        if let Some(b) = self.bias.as_mut() {
            f(b.slot());
        }
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&'static str, StateSlot<'_>)) {
        let (dense, quant) = self.weight.state_mut();
        f("conv2d", StateSlot::Weight { dense, quant });
        if let Some(b) = self.bias.as_mut() {
            f("conv2d", StateSlot::Dense(&mut b.value));
        }
    }

    fn quantize_weights(&mut self, dtype: Dtype) {
        self.weight.quantize(dtype);
    }

    fn param_count(&self) -> usize {
        // Logical counts: a quantized weight still holds OC·IC·KH·KW params.
        let w: usize = self.weight.shape().iter().product();
        w + self.bias.as_ref().map_or(0, |b| b.value.len())
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// A depthwise 2-D convolution: each channel convolved with its own kernel.
///
/// Used by the EfficientNet-B0 MBConv blocks.
#[derive(Clone)]
pub struct DepthwiseConv2d {
    weight: Param,
    bias: Option<Param>,
    spec: ConvSpec,
}

impl DepthwiseConv2d {
    /// Creates a depthwise convolution over `ch` channels with square kernel
    /// `k`.
    ///
    /// # Panics
    ///
    /// Panics if `ch` or `k` is zero, or `stride` is zero.
    pub fn new(
        ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
        bias: bool,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(ch > 0 && k > 0, "DepthwiseConv2d: zero dimension");
        let weight = Param::new(init::kaiming_uniform(&[ch, 1, k, k], k * k, rng), true);
        let bias = bias.then(|| Param::new(Tensor::zeros(&[ch]), false));
        DepthwiseConv2d {
            weight,
            bias,
            spec: ConvSpec::new(stride, pad),
        }
    }
}

impl Layer for DepthwiseConv2d {
    fn infer(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        depthwise_forward_ws(
            x,
            &self.weight.value,
            self.bias.as_ref().map(|b| &b.value),
            self.spec,
            ws,
        )
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
            "DepthwiseConv2d: grad_out batch dim mismatch"
        );
        let gi = match grads {
            None => {
                let (h, w) = (frame.aux[2], frame.aux[3]);
                depthwise_input_backward_ws(&self.weight.value, grad_out, h, w, self.spec, ws)
            }
            Some(grads) => {
                let (gi, gw, gb) = with_recorded_input(&mut frame, "DepthwiseConv2d", |x| {
                    depthwise_backward_ws(x, &self.weight.value, grad_out, self.spec, ws)
                });
                accumulate(grads, &gw, &gb, self.bias.is_some());
                gi
            }
        };
        tape.recycle(frame);
        gi
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamSlot<'_>)) {
        f(self.weight.slot());
        if let Some(b) = self.bias.as_mut() {
            f(b.slot());
        }
    }

    fn param_count(&self) -> usize {
        self.weight.value.len() + self.bias.as_ref().map_or(0, |b| b.value.len())
    }

    fn name(&self) -> &'static str {
        "depthwise_conv2d"
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

    /// One train-mode record→grad step into `grads`; returns `dL/dx`.
    fn train_step(layer: &dyn Layer, x: &Tensor, grads: &mut Grads) -> Tensor {
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let y = layer.infer_recording(x, Mode::Train, &mut tape, &mut ws);
        layer.grad(&Tensor::ones(y.shape()), &mut tape, &mut ws, Some(grads))
    }

    #[test]
    fn conv_shapes_and_param_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv2d::new(3, 8, 3, 1, 1, true, &mut rng);
        assert_eq!(c.param_count(), 8 * 3 * 3 * 3 + 8);
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let y = c.infer(&x, &mut Workspace::new());
        assert_eq!(y.shape(), &[2, 8, 8, 8]);
        let mut grads = Grads::for_model(&mut c);
        assert_eq!(train_step(&c, &x, &mut grads).shape(), x.shape());
    }

    #[test]
    fn zero_restarts_accumulation() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut c = Conv2d::new(1, 1, 1, 1, 0, false, &mut rng);
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let mut grads = Grads::for_model(&mut c);
        let _ = train_step(&c, &x, &mut grads);
        let first = grads.params()[0].clone();
        assert_ne!(first.data()[0], 0.0);
        grads.zero();
        assert_eq!(grads.params()[0].data()[0], 0.0);
        let _ = train_step(&c, &x, &mut grads);
        assert_eq!(grads.params()[0].data(), first.data());
    }

    #[test]
    #[should_panic(expected = "Mode::Train recording")]
    fn param_gradients_after_an_eval_recording_panic() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut c = Conv2d::new(1, 1, 1, 1, 0, false, &mut rng);
        let mut grads = Grads::for_model(&mut c);
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let y = c.infer_recording(&Tensor::ones(&[1, 1, 2, 2]), Mode::Eval, &mut tape, &mut ws);
        let _ = c.grad(&y, &mut tape, &mut ws, Some(&mut grads));
    }

    /// Small integers are exact in f16, so quantized inference and the
    /// tape-gradient path must be bit-identical to the dense ones.
    #[test]
    fn quantized_conv_matches_dense_on_f16_exact_weights() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut c = Conv2d::new(2, 3, 3, 1, 1, true, &mut rng);
        c.visit_params(&mut |slot| {
            *slot.value = Tensor::from_fn(slot.value.shape(), |i| ((i % 11) as f32) - 5.0);
        });
        let x = Tensor::from_fn(&[2, 2, 6, 6], |i| ((i % 7) as f32) * 0.5 - 1.5);
        let mut ws = Workspace::default();
        let dense_y = c.infer(&x, &mut ws);

        let mut q = c.clone();
        q.quantize_weights(Dtype::F16);
        assert_eq!(q.param_count(), c.param_count());
        let qy = q.infer(&x, &mut ws);
        assert_eq!(qy.data(), dense_y.data());

        let mut tape = Tape::default();
        let _ = c.infer_recording(&x, Mode::Eval, &mut tape, &mut ws);
        let g = Tensor::from_fn(dense_y.shape(), |i| ((i % 5) as f32) - 2.0);
        let dense_gi = c.grad(&g, &mut tape, &mut ws, None);
        let _ = q.infer_recording(&x, Mode::Eval, &mut tape, &mut ws);
        let qgi = q.grad(&g, &mut tape, &mut ws, None);
        assert_eq!(qgi.data(), dense_gi.data());
    }

    #[test]
    fn q8_panels_are_built_once_and_shared() {
        let c = Conv2d::new(3, 8, 3, 1, 1, true, &mut StdRng::seed_from_u64(9));
        let x = Tensor::from_fn(&[2, 3, 6, 6], |i| ((i as f32) * 0.3).cos());
        crate::layers::panel_checks::q8_panels_are_built_once(c, |c| &c.weight, &x);
    }

    #[test]
    fn every_mut_route_drops_the_panels() {
        let build = || -> Box<dyn Layer> {
            let mut rng = StdRng::seed_from_u64(9);
            Box::new(Conv2d::new(3, 8, 3, 1, 1, true, &mut rng))
        };
        let x = Tensor::from_fn(&[2, 3, 6, 6], |i| ((i as f32) * 0.3).cos());
        crate::layers::panel_checks::mutation_drops_panels(&build, &x);
    }

    #[test]
    #[should_panic(expected = "quantized")]
    fn quantized_conv_rejects_training() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut c = Conv2d::new(1, 1, 3, 1, 1, false, &mut rng);
        c.quantize_weights(Dtype::Q8);
        let _ = train_step(&c, &Tensor::zeros(&[1, 1, 4, 4]), &mut Grads::default());
    }

    #[test]
    fn depthwise_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = DepthwiseConv2d::new(4, 3, 2, 1, true, &mut rng);
        let x = Tensor::zeros(&[1, 4, 8, 8]);
        let y = d.infer(&x, &mut Workspace::new());
        assert_eq!(y.shape(), &[1, 4, 4, 4]);
        let mut grads = Grads::for_model(&mut d);
        assert_eq!(train_step(&d, &x, &mut grads).shape(), x.shape());
        assert_eq!(d.param_count(), 4 * 9 + 4);
    }
}
