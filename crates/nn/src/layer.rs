//! The [`Layer`] trait: the cache-free [`Layer::infer`] path, the
//! tape-backed gradient route ([`Layer::infer_recording`] /
//! [`Layer::grad`]) that serves both input-space optimisation and
//! training, parameter visitation, and the caller-owned parameter-gradient
//! sink [`Grads`].

use usb_tensor::{Dtype, QTensor, Tape, Tensor, Workspace};

/// Whether a recorded pass runs in training mode or evaluation mode.
///
/// Only batch norm computes differently: [`Mode::Train`] normalises with
/// batch statistics, [`Mode::Eval`] with the running ones. Beyond that,
/// a `Train` recording also stores what *parameter* gradients need (layer
/// inputs, batch-norm `x̂`), so a [`Grads`] sink may only follow a `Train`
/// recording. Defenses differentiate frozen models in `Eval`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: batch statistics, parameter-gradient state recorded.
    Train,
    /// Inference: running statistics; input gradients only.
    Eval,
}

/// A mutable view of one persistent-state tensor as visited by
/// [`Layer::visit_state`], distinguishing the slots that support
/// low-precision storage from those that are always dense.
///
/// Only the *quantizable weights* — the GEMM operands of [`crate::layers::Linear`]
/// and [`crate::layers::Conv2d`] — are `Weight` slots; biases, batch-norm
/// parameters and running statistics, and depthwise kernels (tiny
/// `[C, 1, KH, KW]` tensors whose kernels read them scalar-wise) stay
/// `Dense` and therefore always persist in exact f32.
pub enum StateSlot<'a> {
    /// A state tensor that is always stored dense (exact f32).
    Dense(&'a mut Tensor),
    /// A quantizable GEMM weight. When `quant` is `Some`, the layer is in
    /// low-precision inference mode: `dense` is empty (its buffer freed)
    /// and the kernels read `quant` through the workspace dequant-panel
    /// cache.
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
            StateSlot::Dense(t) | StateSlot::Weight { dense: t, .. } => t,
        }
    }
}

/// A mutable view of one parameter tensor, as optimizers see it.
pub struct ParamSlot<'a> {
    /// The parameter values, updated by optimizers.
    pub value: &'a mut Tensor,
    /// Whether weight decay should apply (false for biases and batch-norm
    /// affine parameters, following common practice).
    pub decay: bool,
}

/// A differentiable module.
///
/// # Contract
///
/// * Every method takes `&self` except the state visitors and
///   [`Layer::commit_running_stats`]: a pass only *reads* the model, so one
///   model is shared by reference across threads, each thread bringing its
///   own [`Tape`] (backward state) and [`Workspace`] (scratch).
/// * [`Layer::infer_recording`] pushes exactly the frames the matching
///   [`Layer::grad`] pops — strict stack discipline, so composites nest
///   with no bookkeeping beyond "pop what you pushed, backwards".
/// * Parameter gradients go to a caller-owned [`Grads`] sink laid out in
///   [`Layer::visit_params`] order; backward walks layers in reverse, so
///   each layer takes its accumulators from the back of the sink and
///   **adds** into them. Nothing about a pass is stored in the layer.
/// * Layers are plain data (`Send + Sync`, `Clone` through
///   [`Layer::clone_box`]), so trained models move across threads, are
///   shared by reference, and sit in `OnceLock` fixtures.
pub trait Layer: Send + Sync {
    /// Inference-only forward pass in [`Mode::Eval`].
    ///
    /// # Contract
    ///
    /// * Same values as [`Layer::infer_recording`] in `Eval`, bit for bit;
    ///   recording is a pure side channel.
    /// * All scratch (im2col columns, matmul outputs, intermediate
    ///   activations) is drawn from `ws`; after a first warming call at a
    ///   given input geometry, repeat calls allocate nothing. Callers that
    ///   no longer need the returned tensor can hand it back via
    ///   [`Workspace::recycle`].
    fn infer(&self, x: &Tensor, ws: &mut Workspace) -> Tensor;

    /// Forward pass in `mode` that records this layer's backward state as
    /// frames on the caller-owned `tape`.
    ///
    /// # Contract
    ///
    /// * In [`Mode::Eval`] the output is **bit-identical** to
    ///   [`Layer::infer`] (same kernels), and frames hold only what the
    ///   *input* gradient needs (often just a shape).
    /// * In [`Mode::Train`] batch norm normalises with batch statistics,
    ///   and frames also hold what parameter gradients need (layer inputs,
    ///   `x̂`). Running statistics are not touched here: `&self` cannot
    ///   write them. See [`Layer::commit_running_stats`].
    /// * Frames reuse tape buffers: after one warm-up record→grad cycle at
    ///   a given geometry, repeat cycles allocate nothing in the tape.
    fn infer_recording(
        &self,
        x: &Tensor,
        mode: Mode,
        tape: &mut Tape,
        ws: &mut Workspace,
    ) -> Tensor;

    /// Propagates `grad_out = dL/d output` backwards through the state
    /// recorded by the **most recent** [`Layer::infer_recording`] on
    /// `tape`, returning `dL/d input`.
    ///
    /// With `grads` set, parameter gradients are **added** into the sink's
    /// accumulators (see [`Grads`]) and batch-norm running statistics are
    /// handed over for [`Layer::commit_running_stats`]; this needs a
    /// [`Mode::Train`] recording. With `None` no parameter-gradient kernel
    /// runs at all — the input-space optimisation hot path.
    ///
    /// Pops exactly the frames `infer_recording` pushed and recycles them,
    /// leaving the tape ready for the next recording.
    ///
    /// # Panics
    ///
    /// Panics if called without a matching `infer_recording` (empty tape),
    /// with a gradient whose shape does not match the recorded output, or
    /// with a sink after an `Eval` recording of a layer with parameters.
    fn grad(
        &self,
        grad_out: &Tensor,
        tape: &mut Tape,
        ws: &mut Workspace,
        grads: Option<&mut Grads>,
    ) -> Tensor;

    /// Visits every parameter owned by this layer (and recursively by
    /// sub-layers), in a deterministic order — the order of a [`Grads`]
    /// sink and of optimizer state.
    fn visit_params(&mut self, f: &mut dyn FnMut(ParamSlot<'_>));

    /// Installs the running statistics a [`Mode::Train`] step handed to
    /// `grads` during [`Layer::grad`]: batch norm's
    /// `(1 − m)·running + m·batch`, computed at recording time from the
    /// statistics this call replaces. Train-mode backward never reads
    /// running statistics, so deferring the write to here changes no bit.
    ///
    /// Walks layers in recording order, which pops the sink's statistics
    /// stack in the reverse of the order `grad` pushed them. The default is
    /// a no-op, right for every layer without batch norm below it;
    /// composites that can hold batch norm recurse.
    fn commit_running_stats(&mut self, grads: &mut Grads) {
        let _ = grads;
    }

    /// Human-readable layer name for debugging.
    fn name(&self) -> &'static str;

    /// Total number of scalar parameters (for reporting). Takes `&self` —
    /// it only reads shapes.
    ///
    /// Deliberately has **no default**: parameter visitation is `&mut`,
    /// so a correct shared-reference count must be written per layer —
    /// parameter-free layers return `0`, composites sum their children —
    /// and a forgotten implementation is a compile error rather than a
    /// silent zero. The gradcheck suite cross-checks the implementations
    /// against a [`Layer::visit_params`] sweep for the whole model zoo.
    fn param_count(&self) -> usize;

    /// Clones this layer behind a fresh box. Layers hold only persistent
    /// state (parameters, running statistics, geometry), so
    /// implementations are one line on a `#[derive(Clone)]` type:
    /// `Box::new(self.clone())`.
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Visits every tensor that defines this layer's *persistent state* —
    /// parameter values plus any non-parameter buffers (e.g. batch-norm
    /// running statistics) — in a deterministic order, tagging each with
    /// the owning layer's [`Layer::name`] and exposing quantizable GEMM
    /// weights as [`StateSlot::Weight`].
    ///
    /// This is the traversal the [`crate::serde`] state-dict format is
    /// built on: two structurally identical models visit the same
    /// `(kind, shape)` sequence, so state saved from one can be loaded
    /// into the other.
    ///
    /// The default visits the parameter values from
    /// [`Layer::visit_params`] as `Dense` slots; layers with extra buffers
    /// or a quantizable weight, and composites (which must recurse so
    /// sub-layer kinds are reported, not their own), override it.
    fn visit_state(&mut self, f: &mut dyn FnMut(&'static str, StateSlot<'_>)) {
        let kind = self.name();
        self.visit_params(&mut |slot| f(kind, StateSlot::Dense(slot.value)));
    }

    /// Converts this layer's quantizable weights to `dtype` in place,
    /// freeing their dense buffers. After this the layer is
    /// **inference-only**: `infer`/`infer_recording`/`grad` keep working
    /// (dequantizing on the fly), while a [`Grads`] sink panics and
    /// optimizers see no weight slot.
    ///
    /// The default is a no-op (layers without quantizable weights);
    /// [`Dtype::F32`] is always a no-op. Composites recurse.
    fn quantize_weights(&mut self, dtype: Dtype) {
        let _ = dtype;
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A parameter tensor and whether weight decay applies to it.
///
/// Most layers own a few of these; [`Param::slot`] adapts them to the
/// visitation API.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current values.
    pub value: Tensor,
    /// Whether weight decay applies.
    pub decay: bool,
}

impl Param {
    /// Wraps an initial value.
    pub fn new(value: Tensor, decay: bool) -> Self {
        Param { value, decay }
    }

    /// Borrows this parameter as a [`ParamSlot`].
    pub fn slot(&mut self) -> ParamSlot<'_> {
        ParamSlot {
            value: &mut self.value,
            decay: self.decay,
        }
    }
}

/// The caller-owned output of a training backward pass: one gradient
/// accumulator per parameter in [`Layer::visit_params`] order, plus the
/// batch-norm running statistics awaiting [`Layer::commit_running_stats`].
///
/// Resident models carry no gradient buffers; only a training loop holds
/// one of these. A step is [`Grads::zero`], a [`Mode::Train`]
/// [`Layer::infer_recording`], [`Layer::grad`] with `Some(&mut grads)`,
/// `commit_running_stats`, then an optimizer step reading
/// [`Grads::params`].
#[derive(Debug, Default)]
pub struct Grads {
    params: Vec<Tensor>,
    /// Accumulators handed out, from the back, since the last `zero`.
    taken: usize,
    /// Pending running statistics, pushed by `grad`, popped by
    /// `commit_running_stats`.
    stats: Vec<Tensor>,
}

impl Grads {
    /// Zeroed accumulators shaped like `model`'s parameters.
    pub fn for_model(model: &mut dyn Layer) -> Self {
        let mut params = Vec::new();
        model.visit_params(&mut |slot| params.push(Tensor::zeros(slot.value.shape())));
        Grads {
            params,
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
        self.stats.clear();
    }

    /// The accumulators, in [`Layer::visit_params`] order.
    pub fn params(&self) -> &[Tensor] {
        &self.params
    }

    /// The accumulators of the last `n` parameters not yet handed out in
    /// this walk — a layer's own, since backward visits layers in reverse
    /// [`Layer::visit_params`] order.
    ///
    /// # Panics
    ///
    /// Panics if the walk asks for more parameters than the sink holds.
    pub(crate) fn take_last(&mut self, n: usize) -> &mut [Tensor] {
        let end = self.params.len() - self.taken;
        assert!(n <= end, "Grads: sink was built for a different model");
        self.taken += n;
        &mut self.params[end - n..end]
    }

    /// Queues a running-statistics tensor for
    /// [`Layer::commit_running_stats`].
    pub(crate) fn push_stat(&mut self, stat: Tensor) {
        self.stats.push(stat);
    }

    /// Takes the most recently queued running-statistics tensor.
    ///
    /// # Panics
    ///
    /// Panics if none is queued: `commit_running_stats` without a
    /// preceding train-mode `grad` into this sink.
    pub(crate) fn pop_stat(&mut self) -> Tensor {
        self.stats
            .pop()
            .expect("Grads: no running statistics pending (commit before grad?)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct Dummy {
        w: Param,
        b: Param,
    }

    impl Layer for Dummy {
        fn infer(&self, x: &Tensor, _ws: &mut Workspace) -> Tensor {
            x.scale(self.w.value.data()[0])
        }
        fn infer_recording(
            &self,
            x: &Tensor,
            _mode: Mode,
            tape: &mut Tape,
            ws: &mut Workspace,
        ) -> Tensor {
            let _ = tape.push();
            self.infer(x, ws)
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
            grad_out.scale(self.w.value.data()[0])
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(ParamSlot<'_>)) {
            f(self.w.slot());
            f(self.b.slot());
        }
        fn param_count(&self) -> usize {
            self.w.value.len() + self.b.value.len()
        }
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn clone_box(&self) -> Box<dyn Layer> {
            Box::new(self.clone())
        }
    }

    fn dummy() -> Dummy {
        Dummy {
            w: Param::new(Tensor::from_vec(vec![2.0, 3.0], &[2]), true),
            b: Param::new(Tensor::zeros(&[1]), false),
        }
    }

    #[test]
    fn grads_mirror_visit_params_and_zero_resets_the_walk() {
        let mut d = dummy();
        assert_eq!(d.param_count(), 3);
        let mut grads = Grads::for_model(&mut d);
        let shapes: Vec<&[usize]> = grads.params().iter().map(Tensor::shape).collect();
        assert_eq!(shapes, [&[2usize][..], &[1]]);
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let y = d.infer_recording(&Tensor::ones(&[1]), Mode::Train, &mut tape, &mut ws);
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

    #[test]
    fn stats_pop_in_reverse_push_order() {
        let mut grads = Grads::default();
        grads.push_stat(Tensor::ones(&[1]));
        grads.push_stat(Tensor::zeros(&[2]));
        assert_eq!(grads.pop_stat().shape(), &[2]);
        assert_eq!(grads.pop_stat().shape(), &[1]);
    }

    #[test]
    fn mode_is_copy_and_comparable() {
        let m = Mode::Train;
        let n = m;
        assert_eq!(m, n);
        assert_ne!(Mode::Train, Mode::Eval);
    }
}
