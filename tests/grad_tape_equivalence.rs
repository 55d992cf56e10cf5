//! The contract of the read-only gradient engine: `Network::input_grad_in`
//! and training steps (recorded inference + tape backward, `&self`) return
//! **bit-identical** results with any tape/workspace/sink history and from
//! any number of threads sharing one `&Network`, and never write the model.
//! The reference is always a fresh tape and workspace on the same route;
//! that the gradients are *right* is `gradcheck.rs`'s job.
//!
//! Bit-exactness is what lets the whole detection pipeline — DeepFool,
//! UAP refinement, NC, TABOR — share one model across threads without
//! retuning a single seed.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use universal_soldier::nn::layer::{Grads, Layer, Pass, StateSlot};
use universal_soldier::nn::models::{Architecture, ModelKind, Network};
use universal_soldier::nn::serde::write_network;
use universal_soldier::tensor::io::fnv1a64;
use universal_soldier::tensor::{Dtype, Tape, Tensor, Workspace};

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
            let mut rng = StdRng::seed_from_u64(0x7A9E_5EED ^ kind as u64);
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

/// The logit-space seed used everywhere below: deterministic, dense, and
/// sign-varying so every backward path is exercised.
fn grad_seed(logits: &Tensor) -> Tensor {
    Tensor::from_fn(logits.shape(), |i| ((i as f32) * 0.37).sin())
}

/// [`grad_seed`] in the workspace-aware shape `input_grad_in` takes.
fn grad_seed_ws(logits: &Tensor, _ws: &mut Workspace) -> Tensor {
    grad_seed(logits)
}

/// One training step's `dL/dx` and parameter gradients (as bits).
fn train_step(
    net: &Network,
    x: &Tensor,
    tape: &mut Tape,
    ws: &mut Workspace,
    grads: &mut Grads,
) -> (Tensor, Vec<Vec<u32>>) {
    grads.zero();
    tape.begin();
    let logits = net.forward(x, Pass::Train(tape), ws);
    let dx = net.grad(&grad_seed(&logits), tape, ws, Some(grads));
    ws.recycle(logits);
    let bits = grads
        .params()
        .iter()
        .map(|g| g.data().iter().map(|v| v.to_bits()).collect())
        .collect();
    (dx, bits)
}

fn model_hash(net: &mut Network) -> u64 {
    let mut bytes = Vec::new();
    write_network(&mut bytes, net).expect("in-memory write");
    fnv1a64(&bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A training step — train-mode recording, backward into a `Grads`
    /// sink — on a tape, workspace and sink that just served *another*
    /// model and batch size returns the same parameter gradients and
    /// `dL/dx`, bit for bit, as on fresh ones.
    #[test]
    fn train_steps_on_reused_tapes_and_sinks_match_fresh_ones_bitwise(
        vals in proptest::collection::vec(0.0f32..1.0, 32),
        order in proptest::collection::vec(0usize..4, 2..6),
    ) {
        let mut zoo = zoo();
        let mut sinks: Vec<Grads> = zoo.iter_mut().map(|(_, net)| Grads::for_model(net)).collect();
        let mut tape = Tape::new();
        let mut ws = Workspace::new();
        for (step, &zi) in order.iter().enumerate() {
            let (kind, net) = &zoo[zi];
            let x = batch_for(net, 2 + step % 2, &vals);
            let (dx_ref, grads_ref) = train_step(net, &x, &mut Tape::new(), &mut Workspace::new(), &mut Grads::for_model(&mut net.clone()));
            let (dx, grads) = train_step(net, &x, &mut tape, &mut ws, &mut sinks[zi]);
            prop_assert!(dx.data() == dx_ref.data(), "{:?} (step {}): dL/dx changed", kind, step);
            prop_assert!(grads == grads_ref, "{:?} (step {}): parameter gradients changed", kind, step);
        }
    }

    /// A tape (and workspace) reused across *mismatched* recordings — a
    /// different architecture, a different batch size, frames of entirely
    /// different shapes — must never leak one model's state into another's
    /// gradient.
    #[test]
    fn dirty_tape_reuse_across_mismatched_shapes_leaks_nothing(
        vals in proptest::collection::vec(0.0f32..1.0, 32),
        order in proptest::collection::vec(0usize..4, 2..8),
    ) {
        let zoo = zoo();
        let mut tape = Tape::new();
        let mut ws = Workspace::new();
        for (step, &zi) in order.iter().enumerate() {
            let (kind, net) = &zoo[zi];
            // Vary the batch size too, so even same-model revisits record
            // differently-shaped frames.
            let n = 1 + (step % 2);
            let x = batch_for(net, n, &vals);
            // Reference from a pristine tape/workspace.
            let (_, grad_ref) =
                net.input_grad_in(&x, grad_seed_ws, &mut Tape::new(), &mut Workspace::new());
            let (logits, grad) = net.input_grad_in(&x, grad_seed_ws, &mut tape, &mut ws);
            prop_assert!(
                grad.data() == grad_ref.data(),
                "{:?} (step {}): dirty tape changed the gradient", kind, step
            );
            ws.recycle(logits);
            ws.recycle(grad);
        }
    }
}

/// Concurrent gradient computations sharing one `&Network` must each be
/// bit-identical to the sequential result — 1, 2, and 4 threads, one tape
/// and workspace per thread, zero model clones.
#[test]
fn shared_network_gradients_are_thread_count_invariant() {
    for (kind, net) in zoo() {
        let x = batch_for(&net, 2, &[0.15, 0.45, 0.85, 0.35]);
        let (logits_ref, grad_ref) =
            net.input_grad_in(&x, grad_seed_ws, &mut Tape::new(), &mut Workspace::new());
        for threads in [1usize, 2, 4] {
            let shared: &Network = &net;
            let results: Vec<(Tensor, Tensor)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let x = &x;
                        scope.spawn(move || {
                            let mut tape = Tape::new();
                            let mut ws = Workspace::new();
                            // Two rounds per thread so each also hits its
                            // own warm-tape path under contention.
                            let first = shared.input_grad_in(x, grad_seed_ws, &mut tape, &mut ws);
                            drop(first);
                            shared.input_grad_in(x, grad_seed_ws, &mut tape, &mut ws)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for (logits, grad) in results {
                assert_eq!(
                    logits.data(),
                    logits_ref.data(),
                    "{kind:?}: logits deviated at {threads} threads"
                );
                assert_eq!(
                    grad.data(),
                    grad_ref.data(),
                    "{kind:?}: dL/dx deviated at {threads} threads"
                );
            }
        }
    }
}

/// Gradient passes only read the model: an input gradient, and even a
/// full training backward into a sink, leave every weight and running
/// statistic bit for bit as it was. Batch-norm running statistics move
/// only when the step commits them.
#[test]
fn tape_passes_leave_the_model_bitwise_unchanged() {
    for (kind, mut net) in zoo() {
        let x = batch_for(&net, 2, &[0.3, 0.6, 0.9]);
        let before = model_hash(&mut net);
        let _ = net.input_grad_in(&x, grad_seed_ws, &mut Tape::new(), &mut Workspace::new());
        let mut grads = Grads::for_model(&mut net);
        let _ = train_step(
            &net,
            &x,
            &mut Tape::new(),
            &mut Workspace::new(),
            &mut grads,
        );
        assert_eq!(
            model_hash(&mut net),
            before,
            "{kind:?}: a tape pass wrote the model"
        );
        grads.commit(&mut net);
        let has_batch_norm = kind != ModelKind::BasicCnn;
        assert_eq!(
            model_hash(&mut net) != before,
            has_batch_norm,
            "{kind:?}: the commit must move exactly the running statistics"
        );
    }
}

/// Training steps reuse their scratch: once warm, the workspace pool and
/// the tape hold the same buffers step after step, so a training loop's
/// memory does not grow with its length.
#[test]
fn train_steps_reach_a_steady_workspace_and_tape() {
    for (kind, mut net) in zoo() {
        let x = batch_for(&net, 2, &[0.2, 0.5, 0.8]);
        let mut grads = Grads::for_model(&mut net);
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let mut step = |tape: &mut Tape, ws: &mut Workspace| {
            let (dx, _) = train_step(&net, &x, tape, ws, &mut grads);
            ws.recycle(dx);
            (ws.pooled(), ws.pooled_capacity(), tape.pooled_capacity())
        };
        // Two warm-up steps: the first sizes the buffers, the second settles
        // which buffer serves which size.
        let _ = step(&mut tape, &mut ws);
        let warm = step(&mut tape, &mut ws);
        for i in 0..5 {
            assert_eq!(
                step(&mut tape, &mut ws),
                warm,
                "{kind:?}: step {i} changed the (buffers, capacity, tape) footprint"
            );
        }
    }
}

/// What a [`StateSlot`] is: trainable (`P`), a running statistic (`S`)
/// or a GEMM weight (`W`).
fn class(slot: &StateSlot<'_>) -> char {
    match slot {
        StateSlot::Param(..) => 'P',
        StateSlot::Stat(_) => 'S',
        StateSlot::Weight { .. } => 'W',
    }
}

/// The state walk says what each tensor is, and the consumers read it
/// from there: a `Grads` sink is shaped like the trainable slots (GEMM
/// weights included), each batch norm yields two trainable and two
/// statistics slots (and nothing else has statistics), a q8 network's
/// parameter view holds no GEMM weight, and a commit with no train-mode
/// `grad` before it panics.
#[test]
fn state_walk_classifies_every_tensor() {
    for (kind, mut net) in zoo() {
        // (layer kind, slot class, shape) of every slot, in walk order.
        let mut walk = Vec::new();
        net.visit_state(&mut |layer, slot| {
            let class = class(&slot);
            walk.push((layer, class, slot.dense().shape().to_vec()));
        });
        let count = |class: char| walk.iter().filter(|s| s.1 == class).count();
        let trainable: Vec<&[usize]> = walk
            .iter()
            .filter(|s| s.1 != 'S')
            .map(|s| &s.2[..])
            .collect();
        let sink = Grads::for_model(&mut net);
        let sink: Vec<&[usize]> = sink.params().iter().map(Tensor::shape).collect();
        assert_eq!(sink, trainable, "{kind:?}: the sink must mirror the walk");

        let bn: String = walk
            .iter()
            .filter(|s| s.0 == "batchnorm2d")
            .map(|s| s.1)
            .collect();
        let has_batch_norm = kind != ModelKind::BasicCnn;
        assert_eq!(!bn.is_empty(), has_batch_norm, "{kind:?}");
        assert_eq!(
            bn,
            "PPSS".repeat(bn.len() / 4),
            "{kind:?}: batch-norm slots"
        );
        assert_eq!(
            count('S'),
            bn.matches('S').count(),
            "{kind:?}: stray statistics"
        );

        let committed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Grads::for_model(&mut net).commit(&mut net)
        }));
        assert_eq!(
            committed.is_err(),
            has_batch_norm,
            "{kind:?}: commit before grad"
        );

        net.quantize_weights(Dtype::Q8);
        assert!(count('W') > 0, "{kind:?}: no GEMM weight");
        assert_eq!(
            Grads::for_model(&mut net).params().len(),
            count('P'),
            "{kind:?}: a q8 GEMM weight in the parameter view"
        );
    }
}
