//! The victim-model zoo: the paper's four architectures, width-scaled for
//! CPU training.
//!
//! * [`ModelKind::BasicCnn`] — the paper's §A.7 two-conv / two-fc network.
//! * [`ModelKind::ResNet18`] — 4 stages × 2 basic residual blocks.
//! * [`ModelKind::Vgg16`] — 13 conv layers in the familiar 2-2-3-3-3 groups.
//! * [`ModelKind::EfficientNetB0`] — MBConv blocks with depthwise
//!   convolutions and squeeze-excite gating.
//!
//! Every builder takes a `width` multiplier so the topology of the paper's
//! models is preserved while parameter counts stay CPU-trainable (see
//! DESIGN.md for the substitution argument).

use crate::compose::{Residual, Sequential, SqueezeExcite};
use crate::layer::{self, Grads, Layer, Pass, StateSlot};
use crate::layers::{
    AvgPool2d, BatchNorm2d, Conv2d, DepthwiseConv2d, Flatten, GlobalAvgPool, Linear, MaxPool2d,
    ReLU, SiLU,
};
use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use usb_tensor::{ops, Dtype, Tape, Tensor, Workspace};

/// Most images [`Network::count_hits`] scores in one batch.
pub(crate) const SCORE_BATCH: usize = 64;

/// Which of the paper's architectures to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Two conv + two fc layers (paper §A.7); MNIST-scale experiments.
    BasicCnn,
    /// ResNet-18 topology (CIFAR-10 experiments, Table 1).
    ResNet18,
    /// VGG-16 topology (Tables 3 and 4).
    Vgg16,
    /// EfficientNet-B0 topology (ImageNet-subset experiments, Table 2).
    EfficientNetB0,
}

impl ModelKind {
    /// Default width multiplier giving a CPU-trainable model.
    pub fn default_width(self) -> usize {
        match self {
            ModelKind::BasicCnn => 16,
            ModelKind::ResNet18 => 8,
            ModelKind::Vgg16 => 8,
            ModelKind::EfficientNetB0 => 8,
        }
    }

    /// Name as used in the paper's tables.
    pub fn paper_name(self) -> &'static str {
        match self {
            ModelKind::BasicCnn => "Basic CNN",
            ModelKind::ResNet18 => "ResNet-18",
            ModelKind::Vgg16 => "VGG-16",
            ModelKind::EfficientNetB0 => "EfficientNet-B0",
        }
    }
}

/// A fully specified architecture: kind, input shape, classes, width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Architecture {
    /// Topology family.
    pub kind: ModelKind,
    /// Input `(channels, height, width)`.
    pub input: (usize, usize, usize),
    /// Number of output classes.
    pub num_classes: usize,
    /// Width multiplier (base channel count).
    pub width: usize,
}

impl Architecture {
    /// Describes an architecture with the kind's default width.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the class count is zero.
    pub fn new(kind: ModelKind, input: (usize, usize, usize), num_classes: usize) -> Self {
        assert!(
            input.0 > 0 && input.1 > 0 && input.2 > 0,
            "Architecture: zero input dimension"
        );
        assert!(num_classes > 0, "Architecture: zero classes");
        Architecture {
            kind,
            input,
            num_classes,
            width: kind.default_width(),
        }
    }

    /// Overrides the width multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn with_width(mut self, width: usize) -> Self {
        assert!(width > 0, "Architecture: zero width");
        self.width = width;
        self
    }

    /// Instantiates the network with fresh random weights.
    pub fn build(&self, rng: &mut impl Rng) -> Network {
        let (features, feat_dim) = match self.kind {
            ModelKind::BasicCnn => build_basic_cnn(self, rng),
            ModelKind::ResNet18 => build_resnet18(self, rng),
            ModelKind::Vgg16 => build_vgg16(self, rng),
            ModelKind::EfficientNetB0 => build_efficientnet_b0(self, rng),
        };
        let classifier = Sequential::new().push(Linear::new(feat_dim, self.num_classes, rng));
        Network {
            features,
            classifier,
            arch: *self,
        }
    }
}

/// A trained (or trainable) victim network: a feature extractor followed by
/// a linear classifier head.
///
/// The split lets the latent-backdoor attack inject a gradient term on the
/// penultimate activations between the two halves of a backward pass. The
/// halves are batch-last stacks like every layer; callers holding images
/// drive them through [`layer::forward_images`] and
/// [`layer::grad_images`].
///
/// Every pass takes `&self` and runs the one [`Layer::forward`]:
/// forward-only work as [`Pass::Infer`] ([`Network::infer`] and the
/// `predict` family), and gradients as a recording pass plus
/// [`Layer::grad`] (or [`Network::input_grad_in`]), whose backward state
/// lives in a caller-owned [`Tape`]. One victim is therefore shared by
/// reference across every worker thread, each worker bringing its own
/// tape and [`Workspace`]. Training goes through the same route with
/// [`Pass::Train`] and a [`Grads`] sink; only the optimizer step and
/// [`Grads::commit`] need `&mut`.
pub struct Network {
    /// Everything up to (and including) the penultimate representation.
    pub features: Sequential,
    /// The final linear head mapping features to logits.
    pub classifier: Sequential,
    arch: Architecture,
}

/// Process-wide count of [`Network`] clones, incremented by every
/// `Network::clone`.
static NETWORK_CLONES: AtomicUsize = AtomicUsize::new(0);

/// Process-wide number of [`Network`] clones made so far.
///
/// A diagnostic counter for the shared-nothing scaling contract: the
/// parallel inspection engine fans per-class workers out over one
/// `&Network`, and the determinism suite pins "inspect spawns **zero**
/// model clones" by sampling this counter around an inspection. (Relaxed
/// ordering — the counter is a test probe, not a synchronisation point.)
pub fn network_clone_count() -> usize {
    NETWORK_CLONES.load(Ordering::Relaxed)
}

impl Clone for Network {
    /// Clones parameters and topology and bumps [`network_clone_count`].
    fn clone(&self) -> Self {
        NETWORK_CLONES.fetch_add(1, Ordering::Relaxed);
        Network {
            features: self.features.clone(),
            classifier: self.classifier.clone(),
            arch: self.arch,
        }
    }
}

impl Network {
    fn check_input(&self, x: &Tensor) {
        let (c, h, w) = self.arch.input;
        assert_eq!(
            &x.shape()[1..],
            &[c, h, w],
            "Network: expected input [N,{c},{h},{w}], got {:?}",
            x.shape()
        );
    }

    /// The architecture this network was built from.
    pub fn arch(&self) -> Architecture {
        self.arch
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.arch.num_classes
    }

    /// Expected input shape `(C, H, W)`.
    pub fn input_shape(&self) -> (usize, usize, usize) {
        self.arch.input
    }

    /// Inference-only logits for a batch `[N, C, H, W]`: [`Layer::forward`]
    /// as a [`Pass::Infer`] (no allocation once `ws` is warm).
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the architecture.
    pub fn infer(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        self.forward(x, Pass::Infer, ws)
    }

    /// Predicted class per batch row (eval mode, cache-free), with a
    /// throwaway [`Workspace`]. Loops that count predictions go through
    /// [`Network::count_hits`] instead.
    pub fn predict(&self, x: &Tensor) -> Vec<usize> {
        ops::argmax_rows(&self.infer(x, &mut Workspace::new()))
    }

    /// How many of the rows of `images` (`[N, C, H, W]`) that `keep`
    /// selects the network sends to `want(row)` once stamped: the one
    /// hit count behind clean accuracy, attack success rates, Alg. 1's
    /// `Err(X + v)` and the reversed triggers' success. Returns
    /// `(hits, rows seen)`.
    ///
    /// The kept rows are gathered, in order, into workspace batches of at
    /// most 64 images. Each batch is handed to `stamp`, which
    /// returns the batch to score (`|batch, _| batch` scores the images
    /// unstamped); a stamp that builds a new tensor recycles the one it
    /// was given. Every buffer comes from `ws` and is recycled into it,
    /// so a warm call allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `images` is not `[N, C, H, W]` for this network.
    pub fn count_hits(
        &self,
        images: &Tensor,
        keep: impl Fn(usize) -> bool,
        want: impl Fn(usize) -> usize,
        mut stamp: impl FnMut(Tensor, &mut Workspace) -> Tensor,
        ws: &mut Workspace,
    ) -> (usize, usize) {
        let [n, c, h, w]: [usize; 4] = images
            .shape()
            .try_into()
            .expect("count_hits: images must be [N,C,H,W]");
        let item = c * h * w;
        let mut kept = (0..n).filter(|&r| keep(r));
        let mut rows = [0usize; SCORE_BATCH];
        let (mut hits, mut seen) = (0, 0);
        loop {
            let mut len = 0;
            for (slot, r) in rows.iter_mut().zip(kept.by_ref()) {
                *slot = r;
                len += 1;
            }
            if len == 0 {
                return (hits, seen);
            }
            let mut batch = ws.take_dirty(len * item);
            for (dst, &r) in batch.chunks_exact_mut(item).zip(&rows[..len]) {
                dst.copy_from_slice(&images.data()[r * item..(r + 1) * item]);
            }
            let batch = stamp(Tensor::from_vec(batch, &[len, c, h, w]), ws);
            let logits = self.infer(&batch, ws);
            hits += logits
                .data()
                .chunks_exact(self.num_classes())
                .zip(&rows[..len])
                .filter(|&(row, &r)| ops::argmax_row(row) == want(r))
                .count();
            seen += len;
            ws.recycle(logits);
            ws.recycle(batch);
        }
    }

    /// `dL/dx` and the logits of a frozen network for an arbitrary
    /// logit-space loss: one eval-mode recorded inference plus one tape
    /// backward, drawing all scratch from `tape`/`ws` (both fully reused
    /// across calls — a warm trigger-optimisation step allocates nothing
    /// here).
    ///
    /// Takes `&self`: **one network serves concurrent gradient
    /// computations on every worker thread**, each worker holding its own
    /// tape and workspace; no parameter-gradient kernel runs. The
    /// loss-gradient closure receives the workspace so it can draw its
    /// `dL/dlogits` tensor from the pool; that tensor is recycled here once
    /// the backward pass has consumed it.
    pub fn input_grad_in(
        &self,
        x: &Tensor,
        grad_of: impl FnOnce(&Tensor, &mut Workspace) -> Tensor,
        tape: &mut Tape,
        ws: &mut Workspace,
    ) -> (Tensor, Tensor) {
        tape.begin();
        let logits = self.forward(x, Pass::Eval(tape), ws);
        let g = grad_of(&logits, ws);
        let gi = self.grad(&g, tape, ws, None);
        ws.recycle(g);
        (logits, gi)
    }

    /// Converts every GEMM weight (Linear / Conv2d) to the given storage
    /// dtype, freeing the dense copies. `Dtype::F32` is a no-op. The network
    /// becomes inference-only: training entry points panic afterwards.
    pub fn quantize_weights(&mut self, dtype: Dtype) {
        layer::quantize_weights(self, dtype);
    }

    /// The storage dtype of the GEMM weights: `Some(F16)`/`Some(Q8)` when
    /// every quantizable weight carries that payload, `Some(F32)` for a
    /// dense network, `None` for a mixed state (which only a bug or a
    /// hand-edited bundle can produce).
    pub fn weight_dtype(&mut self) -> Option<Dtype> {
        let mut dtype: Option<Dtype> = Some(Dtype::F32);
        let mut first = true;
        self.visit_state(&mut |_, slot| {
            if let StateSlot::Weight { quant, .. } = slot {
                let d = quant.as_ref().map_or(Dtype::F32, |q| q.dtype());
                if first {
                    dtype = Some(d);
                    first = false;
                } else if dtype != Some(d) {
                    dtype = None;
                }
            }
        });
        dtype
    }

    /// Bytes of tensor payload this network keeps resident: dense state
    /// (incl. batch-norm running statistics) plus quantized payloads. This
    /// is the model component of a serve-cache entry's footprint.
    pub fn resident_bytes(&mut self) -> usize {
        let mut bytes = 0usize;
        self.visit_state(&mut |_, slot| {
            if let StateSlot::Weight { quant: Some(q), .. } = &slot {
                bytes += q.byte_len();
            }
            bytes += 4 * slot.dense().len();
        });
        bytes
    }
}

/// A network takes and returns the image layout — images `[N, C, H, W]`
/// in, logits `[N, K]` out, and the input gradient as images — while its
/// layers run batch-last between the two boundary transposes
/// ([`ops::lanes_from_images`], [`ops::images_from_lanes`]).
impl Layer for Network {
    fn forward(&self, x: &Tensor, mut pass: Pass<'_>, ws: &mut Workspace) -> Tensor {
        self.check_input(x);
        let lanes = ops::lanes_from_images(x, ws);
        let feats = self.features.forward(&lanes, pass.reborrow(), ws);
        ws.recycle(lanes);
        let logits = self.classifier.forward(&feats, pass, ws);
        ws.recycle(feats);
        let out = ops::images_from_lanes(&logits, ws);
        ws.recycle(logits);
        out
    }
    fn grad(
        &self,
        grad_out: &Tensor,
        tape: &mut Tape,
        ws: &mut Workspace,
        mut grads: Option<&mut Grads>,
    ) -> Tensor {
        let g = ops::lanes_from_images(grad_out, ws);
        let g_feat = self.classifier.grad(&g, tape, ws, grads.as_deref_mut());
        ws.recycle(g);
        let g_in = self.features.grad(&g_feat, tape, ws, grads);
        ws.recycle(g_feat);
        let gi = ops::images_from_lanes(&g_in, ws);
        ws.recycle(g_in);
        gi
    }
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&'static str, StateSlot<'_>)) {
        self.features.visit_state(f);
        self.classifier.visit_state(f);
    }
}

// ---------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------

/// Paper §A.7: two conv layers (ReLU + 2x2 average pooling) and two fully
/// connected layers. Kernel size adapts to small inputs so the second
/// convolution always fits.
fn build_basic_cnn(arch: &Architecture, rng: &mut impl Rng) -> (Sequential, usize) {
    let (c, h, w) = arch.input;
    let wdt = arch.width;
    let k = if h.min(w) >= 20 { 5 } else { 3 };
    let mut cur_h = h;
    let mut cur_w = w;
    let mut seq = Sequential::new();
    seq = seq.push(Conv2d::new(c, wdt, k, 1, 0, true, rng));
    cur_h -= k - 1;
    cur_w -= k - 1;
    seq = seq.push(ReLU::new());
    if cur_h >= 2 && cur_w >= 2 {
        seq = seq.push(AvgPool2d::new(2, 2));
        cur_h = (cur_h - 2) / 2 + 1;
        cur_w = (cur_w - 2) / 2 + 1;
    }
    seq = seq.push(Conv2d::new(wdt, 2 * wdt, k, 1, 0, true, rng));
    cur_h -= k - 1;
    cur_w -= k - 1;
    seq = seq.push(ReLU::new());
    if cur_h >= 2 && cur_w >= 2 {
        seq = seq.push(AvgPool2d::new(2, 2));
        cur_h = (cur_h - 2) / 2 + 1;
        cur_w = (cur_w - 2) / 2 + 1;
    }
    let flat = 2 * wdt * cur_h * cur_w;
    let hidden = flat.clamp(32, 512);
    let seq = seq
        .push(Flatten::new())
        .push(Linear::new(flat, hidden, rng))
        .push(ReLU::new());
    (seq, hidden)
}

fn conv_bn_act(
    in_ch: usize,
    out_ch: usize,
    k: usize,
    stride: usize,
    pad: usize,
    rng: &mut impl Rng,
) -> Sequential {
    Sequential::new()
        .push(Conv2d::new(in_ch, out_ch, k, stride, pad, false, rng))
        .push(BatchNorm2d::new(out_ch))
        .push(ReLU::new())
}

/// One ResNet basic block (two 3x3 convs) with optional downsampling.
fn basic_block(in_ch: usize, out_ch: usize, stride: usize, rng: &mut impl Rng) -> Sequential {
    let main = Sequential::new()
        .push(Conv2d::new(in_ch, out_ch, 3, stride, 1, false, rng))
        .push(BatchNorm2d::new(out_ch))
        .push(ReLU::new())
        .push(Conv2d::new(out_ch, out_ch, 3, 1, 1, false, rng))
        .push(BatchNorm2d::new(out_ch));
    let block = if stride != 1 || in_ch != out_ch {
        let shortcut = Sequential::new()
            .push(Conv2d::new(in_ch, out_ch, 1, stride, 0, false, rng))
            .push(BatchNorm2d::new(out_ch));
        Residual::with_shortcut(main, shortcut)
    } else {
        Residual::new(main)
    };
    Sequential::new().push(block).push(ReLU::new())
}

/// ResNet-18 topology: stem + 4 stages × 2 basic blocks + GAP.
fn build_resnet18(arch: &Architecture, rng: &mut impl Rng) -> (Sequential, usize) {
    let (c, _, _) = arch.input;
    let w = arch.width;
    let widths = [w, 2 * w, 4 * w, 8 * w];
    let mut seq = conv_bn_act(c, w, 3, 1, 1, rng);
    let mut in_ch = w;
    for (stage, &out_ch) in widths.iter().enumerate() {
        let stride = if stage == 0 { 1 } else { 2 };
        seq = seq.push(basic_block(in_ch, out_ch, stride, rng));
        seq = seq.push(basic_block(out_ch, out_ch, 1, rng));
        in_ch = out_ch;
    }
    let seq = seq.push(GlobalAvgPool::new());
    (seq, in_ch)
}

/// VGG-16 topology: conv groups 2-2-3-3-3 with max pooling between groups.
/// Pools are skipped once the spatial size reaches 1 so small inputs work.
fn build_vgg16(arch: &Architecture, rng: &mut impl Rng) -> (Sequential, usize) {
    let (c, h, _) = arch.input;
    let w = arch.width;
    let groups: [(usize, usize); 5] = [(2, w), (2, 2 * w), (3, 4 * w), (3, 8 * w), (3, 8 * w)];
    let mut seq = Sequential::new();
    let mut in_ch = c;
    let mut cur = h;
    for &(convs, out_ch) in &groups {
        for _ in 0..convs {
            seq = seq
                .push(Conv2d::new(in_ch, out_ch, 3, 1, 1, false, rng))
                .push(BatchNorm2d::new(out_ch))
                .push(ReLU::new());
            in_ch = out_ch;
        }
        if cur >= 2 {
            seq = seq.push(MaxPool2d::new(2, 2));
            cur /= 2;
        }
    }
    let flat = in_ch * cur * cur;
    let hidden = (4 * w).max(16);
    let seq = seq
        .push(Flatten::new())
        .push(Linear::new(flat, hidden, rng))
        .push(ReLU::new());
    (seq, hidden)
}

/// One MBConv block: 1x1 expand → depthwise k×k → squeeze-excite → 1x1
/// project, residual when the shape is preserved.
fn mbconv(
    in_ch: usize,
    out_ch: usize,
    expand: usize,
    k: usize,
    stride: usize,
    rng: &mut impl Rng,
) -> Sequential {
    let mid = in_ch * expand;
    let mut main = Sequential::new();
    if expand != 1 {
        main = main
            .push(Conv2d::new(in_ch, mid, 1, 1, 0, false, rng))
            .push(BatchNorm2d::new(mid))
            .push(SiLU::new());
    }
    main = main
        .push(DepthwiseConv2d::new(mid, k, stride, k / 2, rng))
        .push(BatchNorm2d::new(mid))
        .push(SiLU::new())
        .push(SqueezeExcite::new(mid, 4, rng))
        .push(Conv2d::new(mid, out_ch, 1, 1, 0, false, rng))
        .push(BatchNorm2d::new(out_ch));
    if stride == 1 && in_ch == out_ch {
        Sequential::new().push(Residual::new(main))
    } else {
        main
    }
}

/// EfficientNet-B0 topology (width-scaled): stem, four MBConv stages, 1x1
/// head, GAP.
fn build_efficientnet_b0(arch: &Architecture, rng: &mut impl Rng) -> (Sequential, usize) {
    let (c, _, _) = arch.input;
    let w = arch.width;
    // (expand, out_ch, kernel, stride) per stage, mirroring B0's progression.
    let stages: [(usize, usize, usize, usize); 4] = [
        (1, w, 3, 1),
        (4, 2 * w, 3, 2),
        (4, 3 * w, 5, 2),
        (4, 4 * w, 3, 2),
    ];
    let mut seq = Sequential::new()
        .push(Conv2d::new(c, w, 3, 1, 1, false, rng))
        .push(BatchNorm2d::new(w))
        .push(SiLU::new());
    let mut in_ch = w;
    for &(expand, out_ch, k, stride) in &stages {
        seq = seq.push(mbconv(in_ch, out_ch, expand, k, stride, rng));
        in_ch = out_ch;
    }
    let head = 8 * w;
    let seq = seq
        .push(Conv2d::new(in_ch, head, 1, 1, 0, false, rng))
        .push(BatchNorm2d::new(head))
        .push(SiLU::new())
        .push(GlobalAvgPool::new());
    (seq, head)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check(kind: ModelKind, input: (usize, usize, usize), classes: usize, width: usize) {
        let mut rng = StdRng::seed_from_u64(42);
        let arch = Architecture::new(kind, input, classes).with_width(width);
        let mut net = arch.build(&mut rng);
        let x = Tensor::from_fn(&[2, input.0, input.1, input.2], |i| {
            ((i as f32) * 0.1).sin()
        });
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let mut grads = Grads::for_model(&mut net);
        let logits = net.forward(&x, Pass::Train(&mut tape), &mut ws);
        assert_eq!(logits.shape(), &[2, classes], "{kind:?} logits shape");
        assert!(logits.all_finite(), "{kind:?} produced non-finite logits");
        // Input and parameter gradients flow end to end.
        let gi = net.grad(
            &Tensor::ones(logits.shape()),
            &mut tape,
            &mut ws,
            Some(&mut grads),
        );
        assert_eq!(gi.shape(), x.shape(), "{kind:?} input grad shape");
        assert!(gi.all_finite(), "{kind:?} produced non-finite input grads");
        assert_eq!(tape.recorded(), 0, "{kind:?}: frames left on the tape");
        assert!(grads.params().iter().all(Tensor::all_finite));
        grads.commit(&mut net);
        assert!(!grads.params().is_empty());
        // Eval mode also works and supports input gradients.
        let (logits_eval, gi) =
            net.input_grad_in(&x, |l, _| Tensor::ones(l.shape()), &mut tape, &mut ws);
        assert!(logits_eval.all_finite());
        assert!(gi.all_finite());
    }

    #[test]
    fn basic_cnn_on_mnist_shape() {
        check(ModelKind::BasicCnn, (1, 28, 28), 10, 8);
    }

    #[test]
    fn basic_cnn_on_small_input() {
        check(ModelKind::BasicCnn, (1, 12, 12), 4, 4);
    }

    #[test]
    fn resnet18_on_cifar_shape() {
        check(ModelKind::ResNet18, (3, 16, 16), 10, 4);
    }

    #[test]
    fn vgg16_on_cifar_shape() {
        check(ModelKind::Vgg16, (3, 16, 16), 10, 4);
    }

    #[test]
    fn efficientnet_on_imagenet_shape() {
        check(ModelKind::EfficientNetB0, (3, 24, 24), 10, 4);
    }

    #[test]
    fn basic_cnn_matches_paper_dimensions() {
        // Paper §A.7: 28x28x1 input, conv(1,16,5) + pool + conv(16,32,5) +
        // pool gives 32·4·4 = 512 flat features.
        let mut rng = StdRng::seed_from_u64(0);
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 28, 28), 10).with_width(16);
        let net = arch.build(&mut rng);
        let x = Tensor::zeros(&[1, 1, 28, 28]);
        let feats = layer::forward_images(&net.features, &x, Pass::Infer, &mut Workspace::new());
        assert_eq!(feats.shape(), &[1, 512]);
    }

    #[test]
    fn features_feed_classifier() {
        let mut rng = StdRng::seed_from_u64(1);
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 3).with_width(4);
        let net = arch.build(&mut rng);
        let x = Tensor::from_fn(&[2, 1, 12, 12], |i| (i as f32 * 0.05).cos());
        let mut ws = Workspace::new();
        let feats = layer::forward_images(&net.features, &x, Pass::Infer, &mut ws);
        let via_head = layer::forward_images(&net.classifier, &feats, Pass::Infer, &mut ws);
        let direct = net.infer(&x, &mut ws);
        assert_eq!(via_head.data(), direct.data());
    }

    #[test]
    #[should_panic(expected = "expected input")]
    fn network_rejects_wrong_input_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 3).with_width(4);
        let net = arch.build(&mut rng);
        let _ = net.infer(&Tensor::zeros(&[1, 3, 12, 12]), &mut Workspace::new());
    }

    #[test]
    fn quantized_network_reports_dtype_and_shrinks() {
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 3).with_width(4);
        let mut net = arch.build(&mut StdRng::seed_from_u64(5));
        assert_eq!(net.weight_dtype(), Some(Dtype::F32));
        let params: usize = Grads::for_model(&mut net)
            .params()
            .iter()
            .map(Tensor::len)
            .sum();
        let dense_bytes = net.resident_bytes();
        assert_eq!(dense_bytes, 4 * params, "a dense BasicCnn holds its params");
        let x = Tensor::from_fn(&[2, 1, 12, 12], |i| (i as f32 * 0.03).sin());
        let mut ws = Workspace::new();
        let dense_logits = net.infer(&x, &mut ws);

        net.quantize_weights(Dtype::Q8);
        assert_eq!(net.weight_dtype(), Some(Dtype::Q8));
        let q_bytes = net.resident_bytes();
        assert!(
            q_bytes * 2 < dense_bytes,
            "Q8 resident bytes {q_bytes} should be well under half of {dense_bytes}"
        );
        let q_logits = net.infer(&x, &mut ws);
        assert!(q_logits.all_finite());
        for (a, b) in q_logits.data().iter().zip(dense_logits.data()) {
            assert!((a - b).abs() < 0.25, "Q8 logit drifted too far: {a} vs {b}");
        }
    }

    #[test]
    fn deterministic_build_given_seed() {
        let arch = Architecture::new(ModelKind::ResNet18, (3, 8, 8), 4).with_width(2);
        let a = arch.build(&mut StdRng::seed_from_u64(9));
        let b = arch.build(&mut StdRng::seed_from_u64(9));
        let x = Tensor::from_fn(&[1, 3, 8, 8], |i| (i as f32 * 0.11).sin());
        let mut ws = Workspace::new();
        assert_eq!(a.infer(&x, &mut ws).data(), b.infer(&x, &mut ws).data());
    }

    #[test]
    fn count_hits_matches_a_per_image_predict_loop() {
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 8, 8), 3).with_width(4);
        let net = arch.build(&mut StdRng::seed_from_u64(11));
        let keep = |r: usize| r % 5 != 2;
        let want = |r: usize| r % 3;
        let mut ws = Workspace::new();
        for n in [63, 64, 65, 129] {
            let images = Tensor::from_fn(&[n, 1, 8, 8], |i| ((i as f32) * 0.37).sin().abs());
            for shift in [0.0f32, 0.25] {
                let mut batches = Vec::new();
                let stamp = |mut batch: Tensor, _: &mut Workspace| {
                    batches.push(batch.shape()[0]);
                    batch.map_assign(|x| x + shift);
                    batch
                };
                let (hits, seen) = net.count_hits(&images, keep, want, stamp, &mut ws);
                let kept: Vec<usize> = (0..n).filter(|&r| keep(r)).collect();
                let naive = kept
                    .iter()
                    .filter(|&&r| {
                        let img = images.index_axis0(r).map(|x| x + shift);
                        net.predict(&img.reshape(&[1, 1, 8, 8]))[0] == want(r)
                    })
                    .count();
                assert_eq!((hits, seen), (naive, kept.len()), "{n} rows, shift {shift}");
                assert!(0 < hits && hits < seen, "{n} rows: a vacuous count");
                // Full batches, then the remainder.
                let (last, full) = batches.split_last().unwrap();
                assert!(full.iter().all(|&b| b == SCORE_BATCH) && *last <= SCORE_BATCH);
                assert_eq!(batches.iter().sum::<usize>(), kept.len());
            }
        }
    }
}
