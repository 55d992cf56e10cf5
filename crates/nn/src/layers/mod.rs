//! Concrete layers: convolutions, linear, activations, normalisation,
//! pooling.

mod act;
mod conv;
mod linear;
mod norm;
mod pool;

pub use act::{ReLU, SiLU, Sigmoid};
pub use conv::{Conv2d, DepthwiseConv2d};
pub use linear::{Flatten, Linear};
pub use norm::BatchNorm2d;
pub use pool::{AvgPool2d, GlobalAvgPool, MaxPool2d};

use crate::layer::Pass;
use usb_tensor::tape::Frame;
use usb_tensor::Tensor;

/// Records the frame of a convolution or linear layer, if `pass` records:
/// `x`'s shape (all the input gradient needs) and, in [`Pass::Train`],
/// `x` itself (what the weight gradient needs).
fn record_input(pass: &mut Pass<'_>, x: &Tensor) {
    let train = matches!(pass, Pass::Train(_));
    if let Some(frame) = pass.push() {
        frame.aux.extend_from_slice(x.shape());
        if train {
            frame.vals.extend_from_slice(x.data());
        }
    }
}

/// Runs `f` on the input a train-mode [`record_input`] frame holds. The
/// buffer moves out of the frame and back, so it stays with the tape.
///
/// # Panics
///
/// Panics if the frame came from an eval-mode recording.
fn with_recorded_input<R>(frame: &mut Frame, layer: &str, f: impl FnOnce(&Tensor) -> R) -> R {
    assert!(
        !frame.vals.is_empty(),
        "{layer}: parameter gradients need a Pass::Train recording"
    );
    let x = Tensor::from_vec(std::mem::take(&mut frame.vals), &frame.aux);
    let out = f(&x);
    frame.vals = x.into_vec();
    out
}

/// Panel checks shared by the two GEMM layers, [`Linear`] and [`Conv2d`].
#[cfg(test)]
mod panel_checks {
    use crate::layer::{quantize_weights, visit_params, Layer, Pass, StateSlot};
    use usb_tensor::panel::GemmWeight;
    use usb_tensor::{Dtype, QTensor, Tape, Tensor, Workspace};

    /// One forward-only pass plus one input-gradient step: the outputs of
    /// both.
    fn step(layer: &dyn Layer, x: &Tensor) -> (Tensor, Tensor) {
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let y = layer.forward(x, Pass::Infer, &mut ws);
        let _ = layer.forward(x, Pass::Eval(&mut tape), &mut ws);
        let g = y.map(|v| 1.0 + v * v);
        let gi = layer.grad(&g, &mut tape, &mut ws, None);
        (y, gi)
    }

    /// Address of a weight's natural-order panel: for a quantized weight,
    /// its decode.
    fn address(w: &GemmWeight) -> usize {
        w.natural().as_ptr() as usize
    }

    /// After warm steps, a q8 layer's decode keeps its address across
    /// later steps and on a second thread: it is built once, and every
    /// thread reads the same copy.
    pub(super) fn q8_panels_are_built_once<L: Layer>(
        mut layer: L,
        weight: fn(&L) -> &GemmWeight,
        x: &Tensor,
    ) {
        quantize_weights(&mut layer, Dtype::Q8);
        let layer = &layer;
        let warm = step(layer, x);
        let w = weight(layer);
        assert_eq!(
            w.natural().len(),
            w.shape().iter().product::<usize>(),
            "q8 layers decode the whole weight"
        );
        let built = address(w);
        for _ in 0..3 {
            assert_eq!(step(layer, x), warm);
            assert_eq!(
                address(weight(layer)),
                built,
                "decode rebuilt on a later step"
            );
        }
        let other = std::thread::scope(|s| {
            s.spawn(|| (step(layer, x), address(weight(layer))))
                .join()
                .expect("second thread")
        });
        assert_eq!(
            other,
            (warm, built),
            "a second thread must share the decode"
        );
    }

    /// Changes a layer's state before (`setup`) or after a warm pass.
    type Mutation = fn(&mut dyn Layer);

    fn keep(_: &mut dyn Layer) {}

    fn to_f16(l: &mut dyn Layer) {
        quantize_weights(l, Dtype::F16);
    }

    fn to_q8(l: &mut dyn Layer) {
        quantize_weights(l, Dtype::Q8);
    }

    fn reweight(l: &mut dyn Layer) {
        visit_params(l, |value, _| value.map_assign(|v| 0.5 - v));
    }

    fn restate(l: &mut dyn Layer) {
        l.visit_state(&mut |_, slot| match slot {
            StateSlot::Weight { quant: Some(q), .. } => {
                *q = QTensor::quantize(&q.dequantize().map(|v| -v), q.dtype())
            }
            slot => slot.dense().map_assign(|v| v * 0.75 + 0.125),
        });
    }

    /// Each `&mut` route to the weight — the state walk itself and the
    /// `visit_params` and `quantize_weights` functions over it — after a
    /// warm pass must drop a quantized weight's decode: the next passes
    /// equal, bitwise, those of a freshly built layer given the same state
    /// before it ever ran.
    pub(super) fn mutation_drops_panels(build: &dyn Fn() -> Box<dyn Layer>, x: &Tensor) {
        let routes: [(&str, Mutation, Mutation); 4] = [
            ("visit_params", keep, reweight),
            ("visit_state", keep, restate),
            ("quantize_weights", keep, to_q8),
            ("visit_state on an f16 layer", to_f16, restate),
        ];
        for (route, setup, mutate) in routes {
            let mut warm = build();
            setup(warm.as_mut());
            let before = step(warm.as_ref(), x);
            mutate(warm.as_mut());
            let mut fresh = build();
            setup(fresh.as_mut());
            mutate(fresh.as_mut());
            let want = step(fresh.as_ref(), x);
            assert_ne!(
                before.0, want.0,
                "{route}: the mutation must change the output"
            );
            assert_eq!(step(warm.as_ref(), x), want, "{route}: stale panel");
        }
    }
}
