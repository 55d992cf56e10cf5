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

use crate::layer::Mode;
use usb_tensor::tape::Frame;
use usb_tensor::{Tape, Tensor};

/// Pushes the frame of a convolution or linear layer: `x`'s shape (all the
/// input gradient needs) and, in [`Mode::Train`], `x` itself (what the
/// weight gradient needs).
fn record_input(tape: &mut Tape, x: &Tensor, mode: Mode) {
    let frame = tape.push();
    frame.aux.extend_from_slice(x.shape());
    if mode == Mode::Train {
        frame.vals.extend_from_slice(x.data());
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
        "{layer}: parameter gradients need a Mode::Train recording"
    );
    let x = Tensor::from_vec(std::mem::take(&mut frame.vals), &frame.aux);
    let out = f(&x);
    frame.vals = x.into_vec();
    out
}
