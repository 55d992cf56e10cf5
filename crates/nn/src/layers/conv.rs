//! Dense and depthwise convolution layers.

use super::{record_input, with_recorded_input};
use crate::layer::{Grads, Layer, Pass, StateSlot};
use rand::Rng;
use usb_tensor::conv::{
    conv2d_backward_ws, conv2d_forward_panel_ws, conv2d_input_backward_panel_ws,
    depthwise_backward_ws, depthwise_forward_lanes_ws, depthwise_input_backward_ws, ConvSpec,
};
use usb_tensor::panel::GemmWeight;
use usb_tensor::{init, Tape, Tensor, Workspace};

/// A 2-D convolution `[IC, H, W, N] -> [OC, OH, OW, N]` (batch-last, see
/// [`Layer`]), one wide GEMM over the batch.
///
/// Weights are Kaiming-uniform initialised with fan-in `IC·KH·KW`. Like
/// [`super::Linear`], the layer holds its weight as a [`GemmWeight`] and
/// hands the kernels its natural-order values; the weight can be swapped
/// for a quantized payload, whose shared decode the kernels then read,
/// after which the layer is inference-only.
#[derive(Clone)]
pub struct Conv2d {
    weight: GemmWeight, // [OC, IC, KH, KW]
    bias: Option<Tensor>,
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
        let bias = bias.then(|| Tensor::zeros(&[out_ch]));
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
    fn forward(&self, x: &Tensor, mut pass: Pass<'_>, ws: &mut Workspace) -> Tensor {
        record_input(&mut pass, x);
        conv2d_forward_panel_ws(
            x,
            self.weight.natural(),
            self.weight.shape(),
            self.bias.as_ref(),
            self.spec,
            ws,
        )
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
            grad_out.shape()[3],
            frame.aux[3],
            "Conv2d: grad_out batch dim mismatch"
        );
        let (h, w) = (frame.aux[1], frame.aux[2]);
        let (natural, wshape) = (self.weight.natural(), self.weight.shape());
        let gi = conv2d_input_backward_panel_ws(natural, wshape, grad_out, h, w, self.spec, ws);
        if let Some(grads) = grads {
            assert!(
                self.weight.quant().is_none(),
                "Conv2d: training pass on a quantized (inference-only) layer"
            );
            let slots = grads.take_last(1 + usize::from(self.bias.is_some()));
            let (gw, gb) = slots.split_first_mut().expect("a weight accumulator");
            let gb = gb.first_mut().map(Tensor::data_mut);
            with_recorded_input(&mut frame, "Conv2d", |x| {
                conv2d_backward_ws(x, grad_out, wshape, self.spec, gw.data_mut(), gb, ws)
            });
        }
        tape.recycle(frame);
        gi
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&'static str, StateSlot<'_>)) {
        let (dense, quant) = self.weight.state_mut();
        f("conv2d", StateSlot::Weight { dense, quant });
        if let Some(value) = self.bias.as_mut() {
            f("conv2d", StateSlot::Param(value, false));
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// A depthwise 2-D convolution: each channel convolved with its own kernel,
/// `[C, H, W, N] -> [C, OH, OW, N]`.
///
/// Used by the EfficientNet-B0 MBConv blocks.
#[derive(Clone)]
pub struct DepthwiseConv2d {
    weight: Tensor, // [C, 1, KH, KW]
    spec: ConvSpec,
}

impl DepthwiseConv2d {
    /// Creates a bias-free depthwise convolution over `ch` channels with
    /// square kernel `k` (the batch norm that follows it in an MBConv
    /// block supplies the shift).
    ///
    /// # Panics
    ///
    /// Panics if `ch` or `k` is zero, or `stride` is zero.
    pub fn new(ch: usize, k: usize, stride: usize, pad: usize, rng: &mut impl Rng) -> Self {
        assert!(ch > 0 && k > 0, "DepthwiseConv2d: zero dimension");
        DepthwiseConv2d {
            weight: init::kaiming_uniform(&[ch, 1, k, k], k * k, rng),
            spec: ConvSpec::new(stride, pad),
        }
    }
}

impl Layer for DepthwiseConv2d {
    fn forward(&self, x: &Tensor, mut pass: Pass<'_>, ws: &mut Workspace) -> Tensor {
        record_input(&mut pass, x);
        depthwise_forward_lanes_ws(x, &self.weight, None, self.spec, ws)
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
            grad_out.shape()[3],
            frame.aux[3],
            "DepthwiseConv2d: grad_out batch dim mismatch"
        );
        let (h, w) = (frame.aux[1], frame.aux[2]);
        let gi = depthwise_input_backward_ws(&self.weight, grad_out, h, w, self.spec, ws);
        if let Some(grads) = grads {
            let gw = grads.take_last(1)[0].data_mut();
            with_recorded_input(&mut frame, "DepthwiseConv2d", |x| {
                depthwise_backward_ws(x, grad_out, self.weight.shape(), self.spec, gw)
            });
        }
        tape.recycle(frame);
        gi
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&'static str, StateSlot<'_>)) {
        f("depthwise_conv2d", StateSlot::Param(&mut self.weight, true));
    }

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

    /// The element count of each parameter, in [`Grads`] order.
    fn param_lens(layer: &mut dyn Layer) -> Vec<usize> {
        Grads::for_model(layer)
            .params()
            .iter()
            .map(Tensor::len)
            .collect()
    }

    /// One train-mode record→grad step into `grads`; returns `dL/dx`.
    fn train_step(layer: &dyn Layer, x: &Tensor, grads: &mut Grads) -> Tensor {
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let y = layer.forward(x, Pass::Train(&mut tape), &mut ws);
        layer.grad(&Tensor::ones(y.shape()), &mut tape, &mut ws, Some(grads))
    }

    #[test]
    fn conv_shapes_and_param_layout() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv2d::new(3, 8, 3, 1, 1, true, &mut rng);
        assert_eq!(param_lens(&mut c), [8 * 3 * 3 * 3, 8]);
        let x = Tensor::zeros(&[3, 8, 8, 2]);
        let y = c.forward(&x, Pass::Infer, &mut Workspace::new());
        assert_eq!(y.shape(), &[8, 8, 8, 2]);
        let mut grads = Grads::for_model(&mut c);
        assert_eq!(train_step(&c, &x, &mut grads).shape(), x.shape());
    }

    #[test]
    fn zero_restarts_accumulation() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut c = Conv2d::new(1, 1, 1, 1, 0, false, &mut rng);
        let x = Tensor::ones(&[1, 2, 2, 1]);
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
    #[should_panic(expected = "Pass::Train recording")]
    fn param_gradients_after_an_eval_recording_panic() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut c = Conv2d::new(1, 1, 1, 1, 0, false, &mut rng);
        let mut grads = Grads::for_model(&mut c);
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let y = c.forward(&Tensor::ones(&[1, 2, 2, 1]), Pass::Eval(&mut tape), &mut ws);
        let _ = c.grad(&y, &mut tape, &mut ws, Some(&mut grads));
    }

    /// Small integers are exact in f16, so quantized inference and the
    /// tape-gradient path must be bit-identical to the dense ones.
    #[test]
    fn quantized_conv_matches_dense_on_f16_exact_weights() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut c = Conv2d::new(2, 3, 3, 1, 1, true, &mut rng);
        visit_params(&mut c, |value, _| {
            *value = Tensor::from_fn(value.shape(), |i| ((i % 11) as f32) - 5.0);
        });
        let x = Tensor::from_fn(&[2, 6, 6, 2], |i| ((i % 7) as f32) * 0.5 - 1.5);
        let mut ws = Workspace::default();
        let dense_y = c.forward(&x, Pass::Infer, &mut ws);

        let mut q = c.clone();
        quantize_weights(&mut q, Dtype::F16);
        let qy = q.forward(&x, Pass::Infer, &mut ws);
        assert_eq!(qy.data(), dense_y.data());

        let mut tape = Tape::default();
        let _ = c.forward(&x, Pass::Eval(&mut tape), &mut ws);
        let g = Tensor::from_fn(dense_y.shape(), |i| ((i % 5) as f32) - 2.0);
        let dense_gi = c.grad(&g, &mut tape, &mut ws, None);
        let _ = q.forward(&x, Pass::Eval(&mut tape), &mut ws);
        let qgi = q.grad(&g, &mut tape, &mut ws, None);
        assert_eq!(qgi.data(), dense_gi.data());
    }

    #[test]
    fn q8_panels_are_built_once_and_shared() {
        let c = Conv2d::new(3, 8, 3, 1, 1, true, &mut StdRng::seed_from_u64(9));
        let x = Tensor::from_fn(&[3, 6, 6, 2], |i| ((i as f32) * 0.3).cos());
        crate::layers::panel_checks::q8_panels_are_built_once(c, |c| &c.weight, &x);
    }

    #[test]
    fn every_mut_route_drops_the_panels() {
        let build = || -> Box<dyn Layer> {
            let mut rng = StdRng::seed_from_u64(9);
            Box::new(Conv2d::new(3, 8, 3, 1, 1, true, &mut rng))
        };
        let x = Tensor::from_fn(&[3, 6, 6, 2], |i| ((i as f32) * 0.3).cos());
        crate::layers::panel_checks::mutation_drops_panels(&build, &x);
    }

    #[test]
    #[should_panic(expected = "quantized")]
    fn quantized_conv_rejects_training() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut c = Conv2d::new(1, 1, 3, 1, 1, false, &mut rng);
        quantize_weights(&mut c, Dtype::Q8);
        let _ = train_step(&c, &Tensor::zeros(&[1, 4, 4, 1]), &mut Grads::default());
    }

    #[test]
    fn depthwise_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = DepthwiseConv2d::new(4, 3, 2, 1, &mut rng);
        let x = Tensor::zeros(&[4, 8, 8, 1]);
        let y = d.forward(&x, Pass::Infer, &mut Workspace::new());
        assert_eq!(y.shape(), &[4, 4, 4, 1]);
        let mut grads = Grads::for_model(&mut d);
        assert_eq!(train_step(&d, &x, &mut grads).shape(), x.shape());
        assert_eq!(param_lens(&mut d), [4 * 9]);
    }
}
