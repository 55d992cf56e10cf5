//! Composite layers: sequential stacks, residual blocks, squeeze-excite.

use crate::layer::{Grads, Layer, Pass, StateSlot};
use crate::layers::{Linear, ReLU, Sigmoid};
use rand::Rng;
use usb_tensor::{pool, Tape, Tensor, Workspace};

/// An ordered stack of layers applied one after another.
///
/// `Sequential` is itself a [`Layer`], so stacks nest arbitrarily (residual
/// branches, MBConv blocks, whole networks).
#[derive(Default, Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer, returning `self` for chaining.
    ///
    /// The stack grows by exactly one slot per layer: a model is built
    /// once and then stays resident, so it keeps no spare capacity.
    #[must_use]
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.reserve_exact(1);
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of direct sub-layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack is empty (acts as the identity).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

/// Threads `x` through `layers` with `step`, handing each intermediate
/// back to `ws` as soon as the next layer has consumed it, so a warm
/// workspace runs the whole walk without touching the allocator. An empty
/// walk is the identity.
fn chain<'a>(
    layers: impl Iterator<Item = &'a Box<dyn Layer>>,
    x: &Tensor,
    ws: &mut Workspace,
    mut step: impl FnMut(&dyn Layer, &Tensor, &mut Workspace) -> Tensor,
) -> Tensor {
    let mut cur: Option<Tensor> = None;
    for layer in layers {
        let next = step(layer.as_ref(), cur.as_ref().unwrap_or(x), ws);
        if let Some(prev) = cur.replace(next) {
            ws.recycle(prev);
        }
    }
    cur.unwrap_or_else(|| {
        let mut out = ws.take_dirty(x.len());
        out.copy_from_slice(x.data());
        Tensor::from_vec(out, x.shape())
    })
}

impl Layer for Sequential {
    fn forward(&self, x: &Tensor, mut pass: Pass<'_>, ws: &mut Workspace) -> Tensor {
        // Each sub-layer pushes its own frames in stack order.
        chain(self.layers.iter(), x, ws, |layer, x, ws| {
            layer.forward(x, pass.reborrow(), ws)
        })
    }

    fn grad(
        &self,
        grad_out: &Tensor,
        tape: &mut Tape,
        ws: &mut Workspace,
        mut grads: Option<&mut Grads>,
    ) -> Tensor {
        // The reverse walk pops each sub-layer's frames in exactly the
        // reverse of the recording order — strict stack discipline.
        chain(self.layers.iter().rev(), grad_out, ws, |layer, g, ws| {
            layer.grad(g, tape, ws, grads.as_deref_mut())
        })
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&'static str, StateSlot<'_>)) {
        for layer in &mut self.layers {
            layer.visit_state(f);
        }
    }
}

/// A residual block `y = main(x) + shortcut(x)`.
///
/// When `shortcut` is empty it acts as the identity skip connection; a
/// non-empty shortcut (1x1 strided conv + batch-norm) handles dimension
/// changes, exactly as in ResNet.
#[derive(Clone)]
pub struct Residual {
    main: Sequential,
    shortcut: Sequential,
}

impl Residual {
    /// Creates a residual block with an identity skip.
    pub fn new(main: Sequential) -> Self {
        Residual {
            main,
            shortcut: Sequential::new(),
        }
    }

    /// Creates a residual block with a projection shortcut.
    pub fn with_shortcut(main: Sequential, shortcut: Sequential) -> Self {
        Residual { main, shortcut }
    }
}

/// `main += skip`: the residual sum, in place.
fn add_branch(main: &mut Tensor, skip: &Tensor) {
    assert_eq!(
        main.shape(),
        skip.shape(),
        "Residual: branch shapes {:?} vs {:?} — use a projection shortcut",
        main.shape(),
        skip.shape()
    );
    main.add_assign(skip);
}

impl Layer for Residual {
    fn forward(&self, x: &Tensor, mut pass: Pass<'_>, ws: &mut Workspace) -> Tensor {
        // Record main first, then shortcut, so `grad` pops shortcut frames
        // first.
        let mut main = self.main.forward(x, pass.reborrow(), ws);
        if self.shortcut.is_empty() {
            add_branch(&mut main, x);
        } else {
            let skip = self.shortcut.forward(x, pass, ws);
            add_branch(&mut main, &skip);
            ws.recycle(skip);
        }
        main
    }

    fn grad(
        &self,
        grad_out: &Tensor,
        tape: &mut Tape,
        ws: &mut Workspace,
        mut grads: Option<&mut Grads>,
    ) -> Tensor {
        // The shortcut recorded last, so its frames pop first. The two
        // branch gradients are independent functions of `grad_out`; the sum
        // is `main + skip`.
        if self.shortcut.is_empty() {
            let mut g_main = self.main.grad(grad_out, tape, ws, grads);
            g_main.add_assign(grad_out);
            g_main
        } else {
            let g_skip = self.shortcut.grad(grad_out, tape, ws, grads.as_deref_mut());
            let mut g_main = self.main.grad(grad_out, tape, ws, grads);
            g_main.add_assign(&g_skip);
            ws.recycle(g_skip);
            g_main
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&'static str, StateSlot<'_>)) {
        self.main.visit_state(f);
        self.shortcut.visit_state(f);
    }
}

/// Squeeze-and-excitation block: per-channel gating
/// `y = x · sigmoid(W₂ relu(W₁ GAP(x)))`, broadcast over the spatial dims.
///
/// Used inside EfficientNet's MBConv blocks.
#[derive(Clone)]
pub struct SqueezeExcite {
    fc1: Linear,
    relu: ReLU,
    fc2: Linear,
    sigmoid: Sigmoid,
}

impl SqueezeExcite {
    /// Creates a squeeze-excite block over `ch` channels with the given
    /// bottleneck reduction (e.g. 4 → hidden = ch/4, at least 1).
    ///
    /// # Panics
    ///
    /// Panics if `ch` or `reduction` is zero.
    pub fn new(ch: usize, reduction: usize, rng: &mut impl Rng) -> Self {
        assert!(ch > 0 && reduction > 0, "SqueezeExcite: zero dimension");
        let hidden = (ch / reduction).max(1);
        SqueezeExcite {
            fc1: Linear::new(ch, hidden, rng),
            relu: ReLU::new(),
            fc2: Linear::new(hidden, ch, rng),
            sigmoid: Sigmoid::new(),
        }
    }
}

/// `x · gate` on batch-last `x` (`[C, H, W, N]`): each pixel's `N`-float
/// run of channel `c` scaled lane by lane by the gate's run `[c, ..]`
/// (`[C, N]`).
fn gated(x: &Tensor, gate: &Tensor, ws: &mut Workspace) -> Tensor {
    let mut y = ws.take_dirty(x.len());
    let (c, n) = (gate.shape()[0], gate.shape()[1]);
    let run = x.len() / c;
    for ((ys, xs), g) in y
        .chunks_exact_mut(run)
        .zip(x.data().chunks_exact(run))
        .zip(gate.data().chunks_exact(n))
    {
        for (yp, xp) in ys.chunks_exact_mut(n).zip(xs.chunks_exact(n)) {
            for ((o, &v), &gv) in yp.iter_mut().zip(xp).zip(g) {
                *o = v * gv;
            }
        }
    }
    Tensor::from_vec(y, x.shape())
}

impl Layer for SqueezeExcite {
    fn forward(&self, x: &Tensor, mut pass: Pass<'_>, ws: &mut Workspace) -> Tensor {
        assert_eq!(x.ndim(), 4, "SqueezeExcite: input must be [C,H,W,N]");
        let squeezed = pool::global_avg_pool_forward_ws(x, ws); // [C, N]
        let z1 = self.fc1.forward(&squeezed, pass.reborrow(), ws);
        ws.recycle(squeezed);
        let z2 = self.relu.forward(&z1, pass.reborrow(), ws);
        ws.recycle(z1);
        let z3 = self.fc2.forward(&z2, pass.reborrow(), ws);
        ws.recycle(z2);
        let gate = self.sigmoid.forward(&z3, pass.reborrow(), ws); // [C, N]
        ws.recycle(z3);
        // The block's own frame — input in `vals`, gate in `extra`, shape
        // in `aux` — pushes *after* the sub-layers so it pops first in
        // `grad`.
        if let Some(frame) = pass.push() {
            frame.vals.extend_from_slice(x.data());
            frame.extra.extend_from_slice(gate.data());
            frame.aux.extend_from_slice(x.shape());
        }
        let y = gated(x, &gate, ws);
        ws.recycle(gate);
        y
    }

    fn grad(
        &self,
        grad_out: &Tensor,
        tape: &mut Tape,
        ws: &mut Workspace,
        mut grads: Option<&mut Grads>,
    ) -> Tensor {
        // dL/dx = dy · gate + GAP'(dL/dsqueeze), where the gate path
        // dL/dgate = Σ_hw dy · x (per image, ascending pixels, across the
        // lanes) runs back through sigmoid → fc2 → relu → fc1, and GAP's
        // backward spreads `dL/dsqueeze / (H·W)` over the plane.
        let frame = tape.pop();
        let (c, h, w, n) = (frame.aux[0], frame.aux[1], frame.aux[2], frame.aux[3]);
        let run = h * w * n;
        assert_eq!(
            grad_out.len(),
            c * run,
            "SqueezeExcite: grad length does not match the recorded frame"
        );
        let god = grad_out.data();
        let mut d_gate = ws.take_dirty(c * n);
        for ((acc, go), xs) in d_gate
            .chunks_exact_mut(n)
            .zip(god.chunks_exact(run))
            .zip(frame.vals.chunks_exact(run))
        {
            acc.fill(0.0);
            for (gp, xp) in go.chunks_exact(n).zip(xs.chunks_exact(n)) {
                for ((a, &g), &v) in acc.iter_mut().zip(gp).zip(xp) {
                    *a += g * v;
                }
            }
        }
        let mut gate = ws.take_dirty(c * n);
        gate.copy_from_slice(&frame.extra);
        // The frame's last read was the copy above; recycle it *before*
        // descending so frames return to the spare pool in pop order —
        // the invariant that rebinds each buffer to the same traversal
        // position on the next recording.
        tape.recycle(frame);
        let d_gate = Tensor::from_vec(d_gate, &[c, n]);
        // Descend the gate path; sub-layer frames pop in reverse recording
        // order: sigmoid, fc2, relu, fc1.
        let d = self.sigmoid.grad(&d_gate, tape, ws, None);
        ws.recycle(d_gate);
        let d2 = self.fc2.grad(&d, tape, ws, grads.as_deref_mut());
        ws.recycle(d);
        let d3 = self.relu.grad(&d2, tape, ws, None);
        ws.recycle(d2);
        let d_squeeze = self.fc1.grad(&d3, tape, ws, grads); // [C, N]
        ws.recycle(d3);
        // One pass for both terms: `dy·gate + dsqueeze·(1/(H·W))`, the
        // sum of the direct gradient and GAP's backward, rounded as the
        // two separate passes round them.
        let inv = 1.0 / (h * w) as f32;
        let mut gi = ws.take_dirty(grad_out.len());
        for (((d, go), g), sq) in gi
            .chunks_exact_mut(run)
            .zip(god.chunks_exact(run))
            .zip(gate.chunks_exact(n))
            .zip(d_squeeze.data().chunks_exact(n))
        {
            for (dp, gp) in d.chunks_exact_mut(n).zip(go.chunks_exact(n)) {
                for (((d, &go), &g), &sq) in dp.iter_mut().zip(gp).zip(g).zip(sq) {
                    *d = go * g + sq * inv;
                }
            }
        }
        ws.put(gate);
        ws.recycle(d_squeeze);
        Tensor::from_vec(gi, &[c, h, w, n])
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&'static str, StateSlot<'_>)) {
        self.fc1.visit_state(f);
        self.fc2.visit_state(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Conv2d;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Output and input gradient of `Σ layer(x)` through a train-mode tape.
    fn tape_grad(layer: &dyn Layer, x: &Tensor) -> (Tensor, Tensor) {
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let y = layer.forward(x, Pass::Train(&mut tape), &mut ws);
        let gi = layer.grad(&Tensor::ones(y.shape()), &mut tape, &mut ws, None);
        assert_eq!(tape.recorded(), 0, "grad must pop every frame it pushed");
        (y, gi)
    }

    /// Central-difference check of `tape_grad` at a few coordinates.
    fn check_fd(layer: &dyn Layer, x: &Tensor, coords: &[usize]) {
        let (_, gi) = tape_grad(layer, x);
        let mut ws = Workspace::new();
        let eps = 1e-3;
        for &flat in coords {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let loss = |x: &Tensor, ws: &mut Workspace| layer.forward(x, Pass::Infer, ws).sum();
            let num = (loss(&xp, &mut ws) - loss(&xm, &mut ws)) / (2.0 * eps);
            assert!(
                (num - gi.data()[flat]).abs() < 2e-2,
                "flat {flat}: num={num} ana={}",
                gi.data()[flat]
            );
        }
    }

    #[test]
    fn sequential_composes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = Sequential::new()
            .push(Conv2d::new(1, 2, 3, 1, 1, true, &mut rng))
            .push(ReLU::new());
        let x = Tensor::from_fn(&[1, 4, 4, 1], |i| (i as f32) - 8.0);
        let (y, gi) = tape_grad(&s, &x);
        assert_eq!(y.shape(), &[2, 4, 4, 1]);
        assert!(y.min() >= 0.0, "relu output must be non-negative");
        assert_eq!(gi.shape(), x.shape());
        assert!(!Grads::for_model(&mut s).params().is_empty());
    }

    #[test]
    fn empty_sequential_is_identity() {
        let s = Sequential::new();
        let x = Tensor::from_fn(&[2, 3], |i| i as f32);
        let (y, gi) = tape_grad(&s, &x);
        assert_eq!(y.data(), x.data());
        assert_eq!(gi.data(), &[1.0; 6]);
    }

    #[test]
    fn residual_identity_adds_input() {
        // main = zero conv -> residual output equals input.
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(2, 2, 1, 1, 0, false, &mut rng);
        crate::layer::visit_params(&mut conv, |value, _| value.fill(0.0));
        let r = Residual::new(Sequential::new().push(conv));
        let x = Tensor::from_fn(&[2, 3, 3, 1], |i| (i as f32) * 0.1);
        let (y, gi) = tape_grad(&r, &x);
        for (a, b) in y.data().iter().zip(x.data()) {
            assert!((a - b).abs() < 1e-6);
        }
        // Only the skip path carries gradient through a zero main branch.
        assert_eq!(gi.data(), &[1.0; 18]);
    }

    #[test]
    fn residual_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let r = Residual::new(
            Sequential::new()
                .push(Conv2d::new(2, 2, 3, 1, 1, true, &mut rng))
                .push(ReLU::new()),
        );
        let x = Tensor::from_fn(&[2, 4, 4, 1], |i| ((i as f32) * 0.17).sin());
        check_fd(&r, &x, &[0, 9, 20, 31]);
    }

    #[test]
    fn squeeze_excite_shapes_and_gradient() {
        let mut rng = StdRng::seed_from_u64(3);
        let se = SqueezeExcite::new(4, 2, &mut rng);
        let x = Tensor::from_fn(&[4, 3, 3, 2], |i| ((i as f32) * 0.23).cos());
        let (y, gi) = tape_grad(&se, &x);
        assert_eq!(y.shape(), x.shape());
        assert_eq!(gi.shape(), x.shape());
        check_fd(&se, &x, &[0, 17, 40, 71]);
    }

    #[test]
    fn squeeze_excite_gates_are_bounded() {
        let mut rng = StdRng::seed_from_u64(4);
        let se = SqueezeExcite::new(2, 2, &mut rng);
        let x = Tensor::ones(&[2, 2, 2, 1]);
        let y = se.forward(&x, Pass::Infer, &mut Workspace::new());
        // Gate in (0,1) -> |y| < |x|.
        for (a, b) in y.data().iter().zip(x.data()) {
            assert!(a.abs() < b.abs() + 1e-6);
        }
    }
}
