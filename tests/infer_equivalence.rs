//! The contract of the one forward across its passes: `Network::infer`
//! (a `Pass::Infer` forward, and everything built on it — `predict`,
//! `evaluate`) returns **bit-identical** results to the
//! `Pass::Eval` forward the gradient route records, for every victim
//! architecture, with any workspace history; and on a model without batch
//! norm a `Pass::Train` forward computes the same values too.
//!
//! Bit-exactness is what lets the detection pipeline mix forward-only
//! passes and gradient passes over one model: the logits a gradient is
//! taken at are the logits a prediction sees. The references here are
//! fresh-workspace runs of the same route; gradients themselves are
//! checked against central differences in `gradcheck.rs`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use universal_soldier::attacks::IadGenerator;
use universal_soldier::nn::layer::{forward_images, Layer, Pass};
use universal_soldier::nn::models::{Architecture, ModelKind, Network};
use universal_soldier::nn::train::{evaluate, evaluate_with_workers};
use universal_soldier::tensor::{Tape, Tensor, Workspace};

/// One small instance of each of the paper's four architectures, hitting
/// every layer kind: conv, depthwise conv, linear, flatten, batch-norm,
/// ReLU/SiLU/sigmoid, avg/max/global pooling, residual blocks with and
/// without projection shortcuts, and squeeze-excite gating.
fn zoo() -> Vec<(ModelKind, Network)> {
    let kinds = [
        (ModelKind::BasicCnn, (1, 12, 12), 4, 4),
        (ModelKind::ResNet18, (3, 8, 8), 4, 2),
        (ModelKind::Vgg16, (3, 8, 8), 4, 2),
        (ModelKind::EfficientNetB0, (3, 8, 8), 4, 2),
    ];
    kinds
        .iter()
        .map(|&(kind, input, classes, width)| {
            let mut rng = StdRng::seed_from_u64(0xB17_E8AC7 ^ kind as u64);
            (
                kind,
                Architecture::new(kind, input, classes)
                    .with_width(width)
                    .build(&mut rng),
            )
        })
        .collect()
}

fn batch_for(net: &Network, n: usize, vals: &[f32]) -> Tensor {
    let (c, h, w) = net.input_shape();
    Tensor::from_fn(&[n, c, h, w], |i| vals[i % vals.len()])
}

/// The layers hold a batch images across lanes (`[C, H, W, N]`), which
/// changes where its values sit, never what they are: for every
/// architecture, at batch sizes on and off the kernels' 8-lane blocks,
/// `infer` logits and `Pass::Eval` input gradients of a batch equal, bit
/// for bit, those of each image run alone (`N = 1`, where the layouts are
/// the same memory).
#[test]
fn batched_passes_equal_per_image_runs_bitwise() {
    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    for (kind, net) in zoo() {
        let (c, h, w) = net.input_shape();
        let (item, k) = (c * h * w, net.num_classes());
        // A gradient that depends on the class only, so each image's row
        // is the same whether it runs alone or in the batch.
        let seed = |logits: &Tensor, _: &mut Workspace| {
            Tensor::from_fn(logits.shape(), |i| ((i % k) as f32) - 1.5)
        };
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        for n in [1, 2, 7, 8, 9, 17, 48] {
            let x = Tensor::from_fn(&[n, c, h, w], |i| ((i * 37 + n) % 101) as f32 / 100.0);
            let logits = net.infer(&x, &mut ws);
            let (_, grad) = net.input_grad_in(&x, seed, &mut tape, &mut ws);
            for i in 0..n {
                let xi =
                    Tensor::from_vec(x.data()[i * item..(i + 1) * item].to_vec(), &[1, c, h, w]);
                let li = net.infer(&xi, &mut ws);
                let (_, gi) = net.input_grad_in(&xi, seed, &mut tape, &mut ws);
                assert_eq!(
                    bits(&logits.data()[i * k..(i + 1) * k]),
                    bits(li.data()),
                    "{kind:?}: logits of image {i} in a batch of {n}"
                );
                assert_eq!(
                    bits(&grad.data()[i * item..(i + 1) * item]),
                    bits(gi.data()),
                    "{kind:?}: input gradient of image {i} in a batch of {n}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `infer` == the `Pass::Eval` forward bit for bit, on all four
    /// victim architectures, for cold and warm workspaces alike — and a
    /// second warm-workspace call reproduces the first exactly (no state
    /// bleeds from one inference into the next).
    #[test]
    fn infer_matches_eval_forward_bitwise(
        vals in proptest::collection::vec(0.0f32..1.0, 32),
        n in 1usize..3,
    ) {
        for (kind, net) in zoo() {
            let x = batch_for(&net, n, &vals);
            let reference = net.forward(&x, Pass::Eval(&mut Tape::new()), &mut Workspace::new());
            let mut ws = Workspace::new();
            let cold = net.infer(&x, &mut ws);
            prop_assert!(
                cold.data() == reference.data(),
                "{:?}: cold infer deviates from the eval-mode recording", kind
            );
            prop_assert_eq!(cold.shape(), reference.shape());
            let warm = net.infer(&x, &mut ws);
            prop_assert!(
                warm.data() == reference.data(),
                "{:?}: warm-workspace infer deviates", kind
            );
        }
    }

    /// The workspace handed to `infer` may carry buffers of arbitrary
    /// earlier shapes filled with arbitrary garbage — results must not
    /// change (the zero-fill contract of `Workspace::take`).
    #[test]
    fn dirty_foreign_workspace_never_leaks_into_results(
        vals in proptest::collection::vec(0.0f32..1.0, 32),
        junk_shapes in proptest::collection::vec(1usize..2000, 0..6),
        junk_fill in -1.0e6f32..1.0e6,
    ) {
        for (kind, net) in zoo() {
            let x = batch_for(&net, 1, &vals);
            let reference = net.infer(&x, &mut Workspace::new());
            let mut ws = Workspace::new();
            for &len in &junk_shapes {
                let mut t = ws.take_tensor(&[len]);
                t.fill(junk_fill);
                ws.recycle(t);
            }
            let got = net.infer(&x, &mut ws);
            prop_assert!(
                got.data() == reference.data(),
                "{:?}: dirty workspace changed the logits", kind
            );
        }
    }

    /// A `Workspace` reused across differently-shaped checkouts always
    /// hands out fully zero-filled buffers, regardless of request order,
    /// sizes, or what callers wrote into previous checkouts.
    #[test]
    fn workspace_reuse_across_shapes_is_always_zeroed(
        lens in proptest::collection::vec(0usize..512, 1..20),
        fill in -1.0e9f32..1.0e9,
    ) {
        let mut ws = Workspace::new();
        for &len in &lens {
            let buf = ws.take(len);
            prop_assert_eq!(buf.len(), len);
            prop_assert!(
                buf.iter().all(|&v| v == 0.0),
                "stale data survived a checkout of {} elements", len
            );
            let mut t = Tensor::from_vec(buf, &[len]);
            t.fill(fill); // dirty it before returning
            ws.recycle(t);
        }
    }
}

/// `evaluate` shares one network across worker threads through the infer
/// path; its accuracy must be a pure function of the model and data — the
/// same at any thread count, and equal to a manual sequential count.
#[test]
fn shared_model_evaluate_is_thread_count_invariant() {
    for (kind, net) in zoo() {
        let x = batch_for(&net, 150, &[0.2, 0.7, 0.4, 0.95, 0.05, 0.5]);
        let labels: Vec<usize> = (0..150).map(|i| i % net.num_classes()).collect();
        let manual = {
            let logits = net.infer(&x, &mut Workspace::new());
            let preds = universal_soldier::tensor::ops::argmax_rows(&logits);
            preds.iter().zip(&labels).filter(|(p, l)| p == l).count() as f64 / 150.0
        };
        let ambient = evaluate(&net, &x, &labels);
        assert_eq!(
            ambient, manual,
            "{kind:?}: evaluate at the ambient worker count deviates from the sequential count"
        );
        for workers in [1, 2, 4] {
            let acc = evaluate_with_workers(&net, &x, &labels, workers);
            assert_eq!(
                acc, manual,
                "{kind:?}: evaluate at {workers} workers deviates from the sequential count"
            );
        }
    }
}

/// A cloned network computes the same function, bit for bit.
#[test]
fn clones_preserve_the_function() {
    for (kind, net) in zoo() {
        let x = batch_for(&net, 2, &[0.25, 0.5, 0.75]);
        let mut ws = Workspace::new();
        let reference = net.infer(&x, &mut ws);
        let clone = net.clone();
        assert_eq!(
            clone.infer(&x, &mut ws).data(),
            reference.data(),
            "{kind:?}: clone computes a different function"
        );
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Only batch norm depends on the pass: a `Pass::Train` forward of a net
/// without it computes exactly the `Pass::Infer` values. This is what lets
/// `IadGenerator::generate_in` (forward only) stand in for the patterns
/// the generator's training step records, and BasicCnn victims score the
/// logits they were trained on. A batch-norm model shows the check can
/// fail.
#[test]
fn train_pass_matches_infer_on_nets_without_batch_norm() {
    let mut generator = IadGenerator::new(3, 4, 0.4, &mut StdRng::seed_from_u64(21));
    let x = Tensor::from_fn(&[2, 3, 8, 8], |i| ((i as f32) * 0.19).sin().abs());
    let patterns = generator.generate(&x);
    let net = &*generator.net_mut();
    let recorded = forward_images(
        net,
        &x,
        Pass::Train(&mut Tape::new()),
        &mut Workspace::new(),
    );
    assert_eq!(
        bits(&recorded),
        bits(&patterns),
        "IAD generator: the train pass deviates from generate"
    );

    for (kind, net) in zoo() {
        let x = batch_for(&net, 2, &[0.15, 0.6, 0.35, 0.9]);
        let infer = net.infer(&x, &mut Workspace::new());
        let train = net.forward(&x, Pass::Train(&mut Tape::new()), &mut Workspace::new());
        if kind == ModelKind::BasicCnn {
            assert_eq!(bits(&train), bits(&infer), "BasicCnn: train pass deviates");
        } else {
            assert_ne!(
                bits(&train),
                bits(&infer),
                "{kind:?}: batch norm must see the pass"
            );
        }
    }
}
