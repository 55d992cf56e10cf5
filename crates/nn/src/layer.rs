//! The [`Layer`] trait: one forward, [`Layer::forward`], run as a
//! [`Pass`] that says whether and how it records; the tape-backed
//! gradient [`Layer::grad`] that serves both input-space optimisation and
//! training; the one state walk [`Layer::visit_state`] with the functions
//! derived from it; and the caller-owned parameter-gradient sink
//! [`Grads`].

use usb_tensor::tape::Frame;
use usb_tensor::{ops, Dtype, QTensor, Tape, Tensor, Workspace};

/// How a [`Layer::forward`] runs: forward only, or recording onto a
/// caller-owned [`Tape`] in evaluation or training mode.
///
/// Only batch norm computes differently: [`Pass::Train`] normalises with
/// batch statistics, the other two with the running ones. A recording
/// pass pushes each layer's backward state as frames. An `Eval` frame
/// holds what the *input* gradient needs; a `Train` frame also holds
/// what parameter gradients need (layer inputs, batch-norm `x̂`), so a
/// [`Grads`] sink may only follow a `Train` pass. Defenses differentiate
/// frozen models in `Eval`; predictions and scoring run `Infer`.
#[derive(Debug)]
pub enum Pass<'t> {
    /// Forward only, on running statistics; records nothing.
    Infer,
    /// Running statistics; frames for the input gradient.
    Eval(&'t mut Tape),
    /// Batch statistics; frames for input and parameter gradients.
    Train(&'t mut Tape),
}

impl Pass<'_> {
    /// The same pass on a shorter borrow of the tape, so a composite can
    /// hand it to each of its children in turn.
    pub fn reborrow(&mut self) -> Pass<'_> {
        match self {
            Pass::Infer => Pass::Infer,
            Pass::Eval(tape) => Pass::Eval(tape),
            Pass::Train(tape) => Pass::Train(tape),
        }
    }

    /// Pushes an empty frame onto the tape of a recording pass; `None`
    /// for [`Pass::Infer`].
    pub fn push(&mut self) -> Option<&mut Frame> {
        match self {
            Pass::Infer => None,
            Pass::Eval(tape) | Pass::Train(tape) => Some(tape.push()),
        }
    }
}

/// A mutable view of one persistent-state tensor, as [`Layer::visit_state`]
/// hands it out. The variant says what the tensor is, so each consumer of
/// model state is a small function over the one walk.
///
/// Only the GEMM operands of [`crate::layers::Linear`] and
/// [`crate::layers::Conv2d`] are `Weight` slots and may be stored in low
/// precision. Everything else — biases, batch-norm parameters and running
/// statistics, depthwise kernels (tiny `[C, 1, KH, KW]` tensors whose
/// kernels read them scalar-wise) — always persists in exact f32.
pub enum StateSlot<'a> {
    /// A trainable tensor, always dense — a bias, batch-norm γ or β, a
    /// depthwise kernel — and whether weight decay applies to it (not to
    /// biases and batch-norm affine parameters, following common
    /// practice).
    Param(&'a mut Tensor, bool),
    /// A running statistic (batch-norm mean or variance): state that
    /// eval-mode passes read, but no optimizer updates. [`Grads::commit`]
    /// installs new values.
    Stat(&'a mut Tensor),
    /// A quantizable GEMM weight. When `quant` is `Some`, the layer is in
    /// low-precision inference mode: `dense` is empty (its buffer freed)
    /// and the kernels read the f32 panel the layer decodes from `quant`.
    /// Taking this slot drops that decode.
    Weight {
        /// The dense f32 value (empty while `quant` is populated).
        dense: &'a mut Tensor,
        /// The quantized payload, if the layer holds one.
        quant: &'a mut Option<QTensor>,
    },
}

impl<'a> StateSlot<'a> {
    /// The slot's dense f32 tensor (empty for a quantized weight).
    pub fn dense(self) -> &'a mut Tensor {
        match self {
            StateSlot::Param(t, _) | StateSlot::Stat(t) | StateSlot::Weight { dense: t, .. } => t,
        }
    }

    /// The slot as an optimizer parameter `(value, decay)`: a trainable
    /// tensor, or a GEMM weight while it is dense (decayed). `None` for
    /// running statistics and quantized weights.
    pub fn param(self) -> Option<(&'a mut Tensor, bool)> {
        match self {
            StateSlot::Param(value, decay) => Some((value, decay)),
            StateSlot::Weight { dense, quant: None } => Some((dense, true)),
            _ => None,
        }
    }
}

/// A differentiable module.
///
/// # Contract
///
/// * Activations are **batch-last**, images across lanes: `[C, H, W, N]`
///   between spatial layers and `[F, N]` after [`crate::layers::Flatten`],
///   [`crate::layers::GlobalAvgPool`] and [`crate::layers::Linear`], so
///   each channel (or feature) is one contiguous run of `H·W·N` (or `N`)
///   floats and no layer moves data between layouts. Gradients share the
///   layout of what they differentiate. The layout changes only at the
///   boundary, in one pair of helpers, [`ops::lanes_from_images`] and
///   [`ops::images_from_lanes`]: [`crate::Network`] takes images
///   `[N, C, H, W]` and returns logits `[N, K]` and input gradients as
///   images, and [`forward_images`]/[`grad_images`] do the same for any
///   stack driven from images. Every per-image sum a layer computes runs
///   in the order a per-image loop would, so results do not depend on
///   the batch size or the layout.
/// * Every method takes `&self` except [`Layer::visit_state`]: a pass only
///   *reads* the model, so one model is shared by reference across
///   threads, each thread bringing its own [`Tape`] (backward state) and
///   [`Workspace`] (scratch).
/// * A recording [`Layer::forward`] pushes exactly the frames the matching
///   [`Layer::grad`] pops — strict stack discipline, so composites nest
///   with no bookkeeping beyond "pop what you pushed, backwards".
/// * Parameter gradients go to a caller-owned [`Grads`] sink laid out in
///   [`visit_params`] order; backward walks layers in reverse, so each
///   layer takes its accumulators from the back of the sink and **adds**
///   into them. Nothing about a pass is stored in the layer.
/// * Layers are plain data (`Send + Sync`, `Clone` through
///   [`Layer::clone_box`]), so trained models move across threads, are
///   shared by reference, and sit in `OnceLock` fixtures.
pub trait Layer: Send + Sync {
    /// The forward pass, recording this layer's backward state as frames
    /// on the pass's tape when it has one.
    ///
    /// # Contract
    ///
    /// * One body and the same kernels for every pass, so [`Pass::Infer`]
    ///   and [`Pass::Eval`] outputs are **bit-identical**: recording is a
    ///   pure side channel. [`Pass::Train`] differs only in batch norm.
    /// * An `Eval` frame holds what the *input* gradient needs (often just
    ///   a shape); a `Train` frame also holds what parameter gradients
    ///   need. Running statistics are not touched here: `&self` cannot
    ///   write them. See [`Grads::commit`].
    /// * All scratch (im2col columns, matmul outputs, intermediate
    ///   activations) is drawn from `ws` and frames reuse tape buffers:
    ///   after one warm-up pass (or record→grad cycle) at a given
    ///   geometry, repeat passes allocate nothing. Callers that no longer
    ///   need the returned tensor can hand it back via
    ///   [`Workspace::recycle`].
    fn forward(&self, x: &Tensor, pass: Pass<'_>, ws: &mut Workspace) -> Tensor;

    /// Propagates `grad_out = dL/d output` backwards through the state
    /// recorded by the **most recent** recording [`Layer::forward`] on
    /// `tape`, returning `dL/d input`.
    ///
    /// With `grads` set, the layer's parameter-gradient kernels **add**
    /// straight into the accumulators it takes from the sink (see
    /// [`Grads`]), building no gradient tensor of their own, and
    /// batch-norm running statistics land in the sink's slots for
    /// [`Grads::commit`]; this needs a [`Pass::Train`] recording. With
    /// `None` no parameter-gradient kernel runs at all — the input-space
    /// optimisation hot path. The input gradient is computed the same way
    /// in both cases.
    ///
    /// Pops exactly the frames the forward pass pushed and recycles them,
    /// leaving the tape ready for the next recording.
    ///
    /// # Panics
    ///
    /// Panics if called without a matching recording (empty tape), with a
    /// gradient whose shape does not match the recorded output, or with a
    /// sink after an `Eval` recording of a layer with parameters.
    fn grad(
        &self,
        grad_out: &Tensor,
        tape: &mut Tape,
        ws: &mut Workspace,
        grads: Option<&mut Grads>,
    ) -> Tensor;

    /// Visits every tensor of this layer's persistent state, recursing
    /// into sub-layers in recording order, and tags each with the owning
    /// leaf layer's kind string (`"conv2d"`, `"batchnorm2d"`, ...) and a
    /// [`StateSlot`] saying what it is.
    ///
    /// This is the model's only traversal; everything that walks a model
    /// is a function over it: the parameter view of optimizers and
    /// [`Grads`] ([`visit_params`]), [`quantize_weights`],
    /// [`Grads::commit`], the [`crate::serde`] state dict, and
    /// [`crate::Network`]'s dtype and resident-size queries. Two
    /// structurally identical models visit the same `(kind, slot, shape)`
    /// sequence, so state saved from one loads into the other.
    ///
    /// There is deliberately no default: a layer without state writes an
    /// empty body, so a forgotten implementation is a compile error
    /// rather than a silently missing tensor.
    fn visit_state(&mut self, f: &mut dyn FnMut(&'static str, StateSlot<'_>));

    /// Clones this layer behind a fresh box. Layers hold only persistent
    /// state (parameters, running statistics, geometry), so
    /// implementations are one line on a `#[derive(Clone)]` type:
    /// `Box::new(self.clone())`.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// [`Layer::forward`] of a batch-last `layer` on an image-layout batch
/// `[N, …]`: the batch moves across lanes on the way in and back on the
/// way out ([`ops::lanes_from_images`], [`ops::images_from_lanes`]). For
/// callers that hold images and drive a stack directly — the
/// latent-backdoor attack's feature/classifier split, the IAD generator.
pub fn forward_images(layer: &dyn Layer, x: &Tensor, pass: Pass<'_>, ws: &mut Workspace) -> Tensor {
    let lanes = ops::lanes_from_images(x, ws);
    let y = layer.forward(&lanes, pass, ws);
    ws.recycle(lanes);
    let out = ops::images_from_lanes(&y, ws);
    ws.recycle(y);
    out
}

/// [`Layer::grad`] after a [`forward_images`] recording: `grad_out` and the
/// returned input gradient are image-layout.
pub fn grad_images(
    layer: &dyn Layer,
    grad_out: &Tensor,
    tape: &mut Tape,
    ws: &mut Workspace,
    grads: Option<&mut Grads>,
) -> Tensor {
    let g = ops::lanes_from_images(grad_out, ws);
    let gi = layer.grad(&g, tape, ws, grads);
    ws.recycle(g);
    let out = ops::images_from_lanes(&gi, ws);
    ws.recycle(gi);
    out
}

/// Calls `f(value, decay)` on every [`StateSlot::param`] of `model`, in
/// walk order — the layout of a [`Grads`] sink and of optimizer state.
pub fn visit_params(model: &mut dyn Layer, mut f: impl FnMut(&mut Tensor, bool)) {
    model.visit_state(&mut |_, slot| {
        if let Some((value, decay)) = slot.param() {
            f(value, decay);
        }
    });
}

/// Converts `model`'s dense GEMM weights to `dtype` in place, freeing their
/// dense buffers; [`Dtype::F32`] is a no-op. Afterwards the model is
/// **inference-only**: passes keep working on decoded weights, while a
/// [`Grads`] sink panics and optimizers see no weight.
pub fn quantize_weights(model: &mut dyn Layer, dtype: Dtype) {
    if dtype == Dtype::F32 {
        return;
    }
    model.visit_state(&mut |_, slot| {
        if let StateSlot::Weight { dense, quant } = slot {
            if quant.is_none() {
                *quant = Some(QTensor::quantize(dense, dtype));
                *dense = Tensor::zeros(&[0]);
            }
        }
    });
}

/// The caller-owned output of a training backward pass: one gradient
/// accumulator per parameter in [`visit_params`] order, plus one slot per
/// [`StateSlot::Stat`] for the batch-norm running statistics awaiting
/// [`Grads::commit`].
///
/// Resident models carry no gradient buffers; only a training loop holds
/// one of these. A step is [`Grads::zero`], a [`Pass::Train`]
/// [`Layer::forward`], [`Layer::grad`] with `Some(&mut grads)`,
/// [`Grads::commit`], then an optimizer step reading [`Grads::params`].
///
/// Layers add their per-image sums directly into the accumulators. Since
/// `zero` leaves each at `+0.0` and a walk takes every slot once, an
/// accumulator ends as the `+0.0 + a₁ + … + aₙ` chain a zeroed temporary
/// would have held, so where the sums land moves no bit.
#[derive(Debug, Default)]
pub struct Grads {
    params: Vec<Tensor>,
    /// Accumulators handed out, from the back, since the last `zero`.
    taken: usize,
    /// Running-statistics slots in walk order, filled by `grad`,
    /// installed by `commit`.
    stats: Vec<Tensor>,
    /// Statistics slots handed out, from the back, since the last `zero`
    /// or `commit`.
    stats_taken: usize,
}

/// The last `n` of `slots` not yet handed out, counted in `taken`.
fn take_back<'a>(slots: &'a mut [Tensor], taken: &mut usize, n: usize) -> &'a mut [Tensor] {
    let end = slots.len() - *taken;
    assert!(n <= end, "Grads: sink was built for a different model");
    *taken += n;
    &mut slots[end - n..end]
}

impl Grads {
    /// Zeroed accumulators shaped like `model`'s parameters, and a slot
    /// shaped like each of its running statistics.
    pub fn for_model(model: &mut dyn Layer) -> Self {
        let (mut params, mut stats) = (Vec::new(), Vec::new());
        visit_params(model, |value, _| params.push(Tensor::zeros(value.shape())));
        model.visit_state(&mut |_, slot| {
            if let StateSlot::Stat(running) = slot {
                stats.push(Tensor::zeros(running.shape()));
            }
        });
        Grads {
            params,
            stats,
            ..Grads::default()
        }
    }

    /// Zeroes every accumulator and readies the sink for the next
    /// backward walk.
    pub fn zero(&mut self) {
        for g in &mut self.params {
            g.fill(0.0);
        }
        self.taken = 0;
        self.stats_taken = 0;
    }

    /// The accumulators, in [`visit_params`] order.
    pub fn params(&self) -> &[Tensor] {
        &self.params
    }

    /// The accumulators of the last `n` parameters not yet handed out in
    /// this walk — a layer's own, since backward visits layers in reverse
    /// [`visit_params`] order.
    ///
    /// # Panics
    ///
    /// Panics if the walk asks for more parameters than the sink holds.
    pub(crate) fn take_last(&mut self, n: usize) -> &mut [Tensor] {
        take_back(&mut self.params, &mut self.taken, n)
    }

    /// The slots of the last `n` running statistics not yet handed out
    /// since the last `zero` or `commit`, in walk order — a layer's own,
    /// as for [`Grads::take_last`]. The layer fills them for `commit`.
    ///
    /// # Panics
    ///
    /// Panics if the walk asks for more statistics than the sink holds.
    pub(crate) fn take_last_stats(&mut self, n: usize) -> &mut [Tensor] {
        take_back(&mut self.stats, &mut self.stats_taken, n)
    }

    /// Installs the running statistics a train-mode [`Layer::grad`]
    /// wrote into this sink: batch norm's `(1 − m)·running + m·batch`,
    /// computed at recording time from the statistics this call replaces.
    /// Train-mode backward never reads running statistics, so deferring
    /// the write to here changes no bit.
    ///
    /// Copies the sink's slots into `model`'s [`StateSlot::Stat`] slots in
    /// walk order, then readies the slots for the next walk.
    ///
    /// # Panics
    ///
    /// Panics if a slot is unfilled (a commit without a preceding
    /// train-mode `grad` into this sink), or the sink was built for a
    /// model with other statistics.
    pub fn commit(&mut self, model: &mut dyn Layer) {
        assert_eq!(
            self.stats_taken,
            self.stats.len(),
            "Grads: no running statistics pending (commit before grad?)"
        );
        self.stats_taken = 0;
        let mut stats = self.stats.iter();
        model.visit_state(&mut |_, slot| {
            if let StateSlot::Stat(running) = slot {
                let stat = stats
                    .next()
                    .expect("Grads: sink was built for a different model");
                running.data_mut().copy_from_slice(stat.data());
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct Dummy {
        w: Tensor,
        b: Tensor,
    }

    impl Layer for Dummy {
        fn forward(&self, x: &Tensor, mut pass: Pass<'_>, _ws: &mut Workspace) -> Tensor {
            let _ = pass.push();
            x.scale(self.w.data()[0])
        }
        fn grad(
            &self,
            grad_out: &Tensor,
            tape: &mut Tape,
            _ws: &mut Workspace,
            grads: Option<&mut Grads>,
        ) -> Tensor {
            let frame = tape.pop();
            tape.recycle(frame);
            if let Some(grads) = grads {
                for g in grads.take_last(2) {
                    g.data_mut()[0] += 1.0;
                }
            }
            grad_out.scale(self.w.data()[0])
        }
        fn visit_state(&mut self, f: &mut dyn FnMut(&'static str, StateSlot<'_>)) {
            f("dummy", StateSlot::Param(&mut self.w, true));
            f("dummy", StateSlot::Param(&mut self.b, false));
        }
        fn clone_box(&self) -> Box<dyn Layer> {
            Box::new(self.clone())
        }
    }

    impl Grads {
        /// The accumulators, writable, so a test can start a backward walk
        /// from non-zero values.
        pub(crate) fn params_mut(&mut self) -> &mut [Tensor] {
            &mut self.params
        }
    }

    fn dummy() -> Dummy {
        Dummy {
            w: Tensor::from_vec(vec![2.0, 3.0], &[2]),
            b: Tensor::zeros(&[1]),
        }
    }

    #[test]
    fn grads_mirror_visit_params_and_zero_resets_the_walk() {
        let mut d = dummy();
        let mut grads = Grads::for_model(&mut d);
        let shapes: Vec<&[usize]> = grads.params().iter().map(Tensor::shape).collect();
        assert_eq!(shapes, [&[2usize][..], &[1]]);
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let y = d.forward(&Tensor::ones(&[1]), Pass::Train(&mut tape), &mut ws);
        let _ = d.grad(&y, &mut tape, &mut ws, Some(&mut grads));
        assert_eq!(grads.params()[0].data(), &[1.0, 0.0]);
        assert_eq!(grads.params()[1].data(), &[1.0]);
        grads.zero();
        assert_eq!(grads.params()[0].data(), &[0.0, 0.0]);
        assert_eq!(grads.params()[1].data(), &[0.0]);
        assert_eq!(
            grads.take_last(1)[0].shape(),
            &[1],
            "walk starts at the back"
        );
    }

    #[test]
    #[should_panic(expected = "different model")]
    fn grads_reject_a_walk_longer_than_the_sink() {
        let mut grads = Grads::for_model(&mut dummy());
        let _ = grads.take_last(3);
    }
}
