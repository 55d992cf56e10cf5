//! Mini-batch training loop over raw `(images, labels)` tensors, and
//! clean accuracy.
//!
//! Dataset handling (synthetic generation, poisoning) lives in higher
//! crates; this module only needs a `[N, C, H, W]` tensor and class labels.
//! [`evaluate`] counts correct predictions with [`Network::count_hits`]
//! (unstamped, `want` = the label), the same hit count that scores attack
//! success and the reversed triggers.

use crate::layer::{Grads, Layer, Pass};
use crate::loss::softmax_cross_entropy;
use crate::models::{Network, SCORE_BATCH};
use crate::optim::Sgd;
use rand::seq::SliceRandom;
use rand::Rng;
use usb_tensor::{ops, par, Tape, Tensor, Workspace};

/// Hyperparameters for supervised training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
}

impl TrainConfig {
    /// The paper's TrojanZoo-default-inspired configuration, scaled to CPU:
    /// batch 96 → 32, lr 0.01 → 0.05 (smaller nets tolerate higher rates),
    /// epochs 50 → caller-chosen.
    pub fn new(epochs: usize) -> Self {
        TrainConfig {
            epochs,
            batch_size: 32,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 5e-4,
        }
    }

    /// A configuration fast enough for unit tests (5 epochs, small batches).
    pub fn fast() -> Self {
        TrainConfig {
            epochs: 5,
            batch_size: 16,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 5e-4,
        }
    }

    /// Overrides the batch size.
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0, "TrainConfig: zero batch size");
        self.batch_size = batch_size;
        self
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig::new(3)
    }
}

/// Per-epoch training metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Mean cross-entropy over the epoch.
    pub loss: f64,
    /// Training accuracy over the epoch.
    pub accuracy: f64,
}

/// Trains `net` in place on `(images, labels)` and returns per-epoch stats.
///
/// Batches are reshuffled each epoch with `rng`, so runs are deterministic
/// given the seed. Each step is one [`Pass::Train`] forward on a tape,
/// one backward pass into a [`Grads`] sink, the batch-norm running-stat
/// commit, and an SGD step.
///
/// # Panics
///
/// Panics if `images` is not rank-4 or label count mismatches.
pub fn fit(
    net: &mut Network,
    images: &Tensor,
    labels: &[usize],
    config: TrainConfig,
    rng: &mut impl Rng,
) -> Vec<EpochStats> {
    assert_eq!(images.ndim(), 4, "fit: images must be [N,C,H,W]");
    let n = images.shape()[0];
    assert_eq!(labels.len(), n, "fit: label count mismatch");
    assert!(n > 0, "fit: empty dataset");
    let mut sgd = Sgd::new(config.lr, config.momentum, config.weight_decay);
    let mut grads = Grads::for_model(net);
    let (mut tape, mut ws) = (Tape::new(), Workspace::new());
    let mut order: Vec<usize> = (0..n).collect();
    let mut history = Vec::with_capacity(config.epochs);
    for epoch in 0..config.epochs {
        // Step decay: ×0.3 at 60% and 85% of the schedule, stabilising the
        // end of training (mirrors the common TrojanZoo recipe).
        let decay = if epoch * 100 >= config.epochs * 85 {
            0.09
        } else if epoch * 100 >= config.epochs * 60 {
            0.3
        } else {
            1.0
        };
        sgd.lr = config.lr * decay;
        order.shuffle(rng);
        let mut epoch_loss = 0.0f64;
        let mut hits = 0usize;
        for chunk in order.chunks(config.batch_size) {
            let (bx, by) = gather_batch(images, labels, chunk);
            tape.begin();
            grads.zero();
            let logits = net.forward(&bx, Pass::Train(&mut tape), &mut ws);
            let (loss, dlogits) = softmax_cross_entropy(&logits, &by);
            epoch_loss += loss as f64 * chunk.len() as f64;
            hits += ops::argmax_rows(&logits)
                .iter()
                .zip(&by)
                .filter(|(p, l)| p == l)
                .count();
            let gi = net.grad(&dlogits, &mut tape, &mut ws, Some(&mut grads));
            ws.recycle(gi);
            ws.recycle(logits);
            grads.commit(net);
            sgd.step(net, &grads);
        }
        history.push(EpochStats {
            loss: epoch_loss / n as f64,
            accuracy: hits as f64 / n as f64,
        });
    }
    history
}

/// Collects the rows of `images`/`labels` selected by `indices` into a
/// batch.
///
/// # Panics
///
/// Panics if an index is out of bounds.
pub fn gather_batch(images: &Tensor, labels: &[usize], indices: &[usize]) -> (Tensor, Vec<usize>) {
    let items: Vec<Tensor> = indices.iter().map(|&i| images.index_axis0(i)).collect();
    let by: Vec<usize> = indices.iter().map(|&i| labels[i]).collect();
    (Tensor::stack(&items), by)
}

/// Classification accuracy of `net` on `(images, labels)`.
///
/// Rows are scored by [`Network::count_hits`] in contiguous stripes of
/// whole 64-image batches, one stripe per worker of the
/// [`usb_tensor::par`] pool (thread count from `USB_THREADS` / available
/// parallelism). Evaluation is pure inference, so every worker reads the
/// **same shared network** — no model clones at all — and brings only its
/// own [`Workspace`], the worker state [`par::par_map`] hands it. The
/// integer hit counts are summed, so the result is identical at any
/// thread count.
pub fn evaluate(net: &Network, images: &Tensor, labels: &[usize]) -> f64 {
    evaluate_with_workers(net, images, labels, par::resolve_workers(0))
}

/// [`evaluate`] at an explicit worker count instead of the ambient
/// `USB_THREADS` / available-parallelism resolution — the entry point for
/// anything that pins its own thread budget (and for asserting the
/// thread-count invariance without mutating process environment).
pub fn evaluate_with_workers(
    net: &Network,
    images: &Tensor,
    labels: &[usize],
    workers: usize,
) -> f64 {
    let n = images.shape()[0];
    assert_eq!(labels.len(), n, "evaluate: label count mismatch");
    let batches = n.div_ceil(SCORE_BATCH).max(1);
    let workers = workers.max(1).min(batches);
    let stripe = batches.div_ceil(workers) * SCORE_BATCH;
    let starts: Vec<usize> = (0..n).step_by(stripe).collect();
    let hits: usize = par::par_map(workers, &starts, |ws: &mut Workspace, _, &lo| {
        let in_stripe = |r: usize| (lo..lo + stripe).contains(&r);
        let unstamped = |batch, _: &mut Workspace| batch;
        net.count_hits(images, in_stripe, |r| labels[r], unstamped, ws)
            .0
    })
    .into_iter()
    .sum();
    hits as f64 / n.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{Architecture, ModelKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use usb_tensor::init;

    /// Tiny two-class dataset: class 0 bright top half, class 1 bright
    /// bottom half, plus noise.
    fn toy_dataset(n: usize, rng: &mut impl Rng) -> (Tensor, Vec<usize>) {
        let mut images = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 2;
            let mut img = init::uniform(&[1, 8, 8], 0.0, 0.15, rng);
            for y in 0..8 {
                for x in 0..8 {
                    let bright = if class == 0 { y < 4 } else { y >= 4 };
                    if bright {
                        *img.at_mut(&[0, y, x]) += 0.7;
                    }
                }
            }
            images.push(img);
            labels.push(class);
        }
        (Tensor::stack(&images), labels)
    }

    #[test]
    fn training_learns_separable_toy_task() {
        let mut rng = StdRng::seed_from_u64(0);
        let (images, labels) = toy_dataset(64, &mut rng);
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 8, 8), 2).with_width(4);
        let mut net = arch.build(&mut rng);
        let before = evaluate(&net, &images, &labels);
        let stats = fit(&mut net, &images, &labels, TrainConfig::fast(), &mut rng);
        let after = evaluate(&net, &images, &labels);
        assert!(after > 0.9, "accuracy {before} -> {after}, stats {stats:?}");
        assert!(
            stats.last().unwrap().loss < stats.first().unwrap().loss + 1e-6,
            "loss should not increase: {stats:?}"
        );
    }

    #[test]
    fn gather_batch_selects_rows() {
        let images = Tensor::from_fn(&[3, 1, 2, 2], |i| i as f32);
        let labels = vec![7, 8, 9];
        let (bx, by) = gather_batch(&images, &labels, &[2, 0]);
        assert_eq!(bx.shape(), &[2, 1, 2, 2]);
        assert_eq!(by, vec![9, 7]);
        assert_eq!(bx.index_axis0(0).data()[0], 8.0);
    }

    #[test]
    fn evaluate_on_untrained_model_is_near_chance() {
        let mut rng = StdRng::seed_from_u64(5);
        let (images, labels) = toy_dataset(32, &mut rng);
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 8, 8), 2).with_width(4);
        let net = arch.build(&mut rng);
        let acc = evaluate(&net, &images, &labels);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn fit_rejects_empty_dataset() {
        let mut rng = StdRng::seed_from_u64(6);
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 8, 8), 2).with_width(4);
        let mut net = arch.build(&mut rng);
        let _ = fit(
            &mut net,
            &Tensor::zeros(&[0, 1, 8, 8]),
            &[],
            TrainConfig::fast(),
            &mut rng,
        );
    }
}
