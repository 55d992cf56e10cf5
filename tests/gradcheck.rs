//! Gradients checked against mathematics, not against a sibling code
//! path: every analytic gradient the tape route produces — input
//! gradients in both modes, parameter gradients in training mode,
//! batch-norm's batch-statistics backward included — must agree with an
//! f64 central difference of the same pass.
//!
//! The scalar differentiated is `L = Σ w·y` (f64 accumulation) for a
//! fixed dense, sign-varying `w`, so `dL/dy = w` is what the backward pass
//! is seeded with. Recording is read-only (a train-mode pass does not move
//! running statistics), so a train-mode `L` is as pure a function of its
//! inputs and parameters as an eval-mode one.
//!
//! Central differences cannot see through kinks (ReLU at zero, max-pool
//! ties): a coordinate whose difference quotient moves with the step size,
//! or whose one-sided quotients disagree, straddles one and is skipped.
//! Every check still requires at least half its probes to be smooth, so a
//! bug cannot hide behind the skip. Single layers must match on every
//! smooth probe. Whole models in training mode — thousands of ReLUs,
//! normalised by tiny batches — have kinks too dense for any step size to
//! clear them all, so there at most 2% of smooth probes may mismatch;
//! a wrong gradient formula or a misaligned sink fails far more.

use rand::rngs::StdRng;
use rand::SeedableRng;
use universal_soldier::nn::compose::{Residual, Sequential, SqueezeExcite};
use universal_soldier::nn::layer::{visit_params, Grads, Layer, Pass};
use universal_soldier::nn::layers::{
    AvgPool2d, BatchNorm2d, Conv2d, DepthwiseConv2d, Flatten, GlobalAvgPool, Linear, MaxPool2d,
    ReLU, SiLU, Sigmoid,
};
use universal_soldier::nn::models::{Architecture, ModelKind};
use universal_soldier::tensor::{Tape, Tensor, Workspace};

/// Central-difference step for inputs and parameters.
const EPS: f32 = 2e-3;
/// Relative tolerance, against the larger of the gradient tensor's
/// largest entry and the entry itself.
const TOL: f64 = 2e-2;
/// Absolute tolerance: the f32 rounding noise of a difference quotient
/// over `EPS/4` is a few 1e-4 on these shapes.
const ATOL: f64 = 2e-3;

/// Which recording pass a check runs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Recording {
    Eval,
    Train,
}

impl Recording {
    fn pass(self, tape: &mut Tape) -> Pass<'_> {
        match self {
            Recording::Eval => Pass::Eval(tape),
            Recording::Train => Pass::Train(tape),
        }
    }
}

/// `L = Σ w·layer(x)` in f64, from a pass recorded in `mode` on a fresh
/// tape.
fn loss(layer: &dyn Layer, x: &Tensor, w: &Tensor, mode: Recording) -> f64 {
    let y = layer.forward(x, mode.pass(&mut Tape::new()), &mut Workspace::new());
    y.data()
        .iter()
        .zip(w.data())
        .map(|(&a, &b)| f64::from(a) * f64::from(b))
        .sum()
}

/// The f64 central difference quotient of `f` around `at`, and how far
/// that estimate can be trusted: the spread of the central quotients at
/// steps `EPS`, `EPS/2` and `EPS/4` together with the gap between the
/// one-sided quotients at `EPS`. All are near zero where `f` is smooth
/// around `at`; a kink inside the stencil shows up in at least one.
fn central(at: f32, mut f: impl FnMut(f32) -> f64) -> (f64, f64) {
    let f_at = f(at);
    let mut sides = |h: f32| {
        let (hi, lo) = (at + h, at - h);
        let (f_hi, f_lo) = (f(hi), f(lo));
        let forward = (f_hi - f_at) / (f64::from(hi) - f64::from(at));
        let backward = (f_at - f_lo) / (f64::from(at) - f64::from(lo));
        let central = (f_hi - f_lo) / (f64::from(hi) - f64::from(lo));
        (central, (forward - backward).abs())
    };
    let (c1, gap) = sides(EPS);
    let (c2, _) = sides(EPS / 2.0);
    let (c4, _) = sides(EPS / 4.0);
    let spread = (c1 - c2).abs().max((c2 - c4).abs());
    (c2, gap.max(spread))
}

/// What the probes of one gradient check found.
#[derive(Default)]
struct Tally {
    probed: usize,
    smooth: usize,
    mismatches: Vec<String>,
}

impl Tally {
    /// Compares up to `probes` evenly spaced entries of `analytic` with
    /// the central differences `fd_at` returns for them. A coordinate
    /// whose estimate spreads by more than half the tolerance straddles a
    /// kink and is skipped.
    fn check(
        &mut self,
        what: &str,
        analytic: &Tensor,
        probes: usize,
        mut fd_at: impl FnMut(usize) -> (f64, f64),
    ) {
        let len = analytic.len();
        let probes = probes.min(len);
        let mut coords: Vec<usize> = (0..probes).map(|i| i * len / probes).collect();
        coords.dedup();
        let scale = f64::from(analytic.linf_norm());
        for &k in &coords {
            self.probed += 1;
            let (fd, spread) = fd_at(k);
            let an = f64::from(analytic.data()[k]);
            let tol = ATOL + TOL * scale.max(an.abs());
            if spread > tol / 2.0 {
                continue;
            }
            self.smooth += 1;
            if (fd - an).abs() > tol {
                self.mismatches.push(format!(
                    "{what}[{k}]: analytic {an} vs central difference {fd} (scale {scale})"
                ));
            }
        }
    }

    /// Asserts that at least half the probes were smooth and that at most
    /// `allowed` of every 100 smooth probes mismatched.
    fn assert_ok(&self, what: &str, allowed: usize) {
        assert!(
            2 * self.smooth >= self.probed,
            "{what}: only {} of {} probed coordinates are away from kinks",
            self.smooth,
            self.probed
        );
        assert!(
            100 * self.mismatches.len() <= allowed * self.smooth,
            "{what}: {} of {} smooth probes mismatch: {:#?}",
            self.mismatches.len(),
            self.smooth,
            self.mismatches
        );
    }
}

/// Overwrites entry `k` of parameter `p` (in `visit_params` order).
fn set_param(layer: &mut dyn Layer, p: usize, k: usize, v: f32) {
    let mut idx = 0;
    visit_params(layer, |value, _| {
        if idx == p {
            value.data_mut()[k] = v;
        }
        idx += 1;
    });
}

/// Checks `layer`'s input gradient in `mode` and, in [`Recording::Train`], its
/// parameter gradients, against central differences of [`loss`].
fn gradcheck(name: &str, layer: &mut dyn Layer, x: &Tensor, mode: Recording) -> Tally {
    let mut tally = Tally::default();
    let (mut tape, mut ws) = (Tape::new(), Workspace::new());
    let y = layer.forward(x, mode.pass(&mut tape), &mut ws);
    let w = Tensor::from_fn(y.shape(), |i| ((i as f32) * 0.73 + 0.3).sin());
    let dx = layer.grad(&w, &mut tape, &mut ws, None);
    assert_eq!(dx.shape(), x.shape(), "{name}: dL/dx shape");
    tally.check(&format!("{name} ({mode:?}) dL/dx"), &dx, 16, |k| {
        let mut xv = x.clone();
        central(x.data()[k], |v| {
            xv.data_mut()[k] = v;
            loss(layer, &xv, &w, mode)
        })
    });
    if mode == Recording::Eval {
        return tally;
    }
    let mut grads = Grads::for_model(layer);
    let _ = layer.forward(x, mode.pass(&mut tape), &mut ws);
    let dx_sink = layer.grad(&w, &mut tape, &mut ws, Some(&mut grads));
    assert_eq!(
        dx_sink.data(),
        dx.data(),
        "{name}: a parameter-gradient sink changed dL/dx"
    );
    for (p, g) in grads.params().iter().enumerate() {
        tally.check(&format!("{name} (Train) dL/dθ{p}"), g, 6, |k| {
            let mut at = 0.0;
            let mut idx = 0;
            visit_params(layer, |value, _| {
                if idx == p {
                    at = value.data()[k];
                }
                idx += 1;
            });
            let fd = central(at, |v| {
                set_param(layer, p, k, v);
                loss(layer, x, &w, mode)
            });
            set_param(layer, p, k, at);
            fd
        });
    }
    tally
}

fn input(shape: &[usize], phase: f32) -> Tensor {
    Tensor::from_fn(shape, |i| ((i as f32) * 0.61 + phase).sin() * 1.5)
}

/// One small instance of every layer kind, with an input it accepts:
/// batch-last, two images (`[C, H, W, N]`, `[F, N]` for `Linear`).
fn layer_zoo() -> Vec<(&'static str, Box<dyn Layer>, Tensor)> {
    let mut rng = StdRng::seed_from_u64(0x6AD_C4EC);
    let conv = |rng: &mut StdRng| Conv2d::new(2, 2, 3, 1, 1, true, rng);
    vec![
        (
            "conv2d",
            Box::new(Conv2d::new(2, 3, 3, 1, 1, true, &mut rng)) as Box<dyn Layer>,
            input(&[2, 5, 5, 2], 0.1),
        ),
        (
            "conv2d/stride2",
            Box::new(Conv2d::new(2, 3, 3, 2, 1, false, &mut rng)),
            input(&[2, 6, 6, 2], 0.2),
        ),
        (
            "depthwise_conv2d",
            Box::new(DepthwiseConv2d::new(3, 3, 2, 1, &mut rng)),
            input(&[3, 6, 6, 2], 0.3),
        ),
        (
            "linear",
            Box::new(Linear::new(5, 4, &mut rng)),
            input(&[5, 3], 0.4),
        ),
        (
            "flatten",
            Box::new(Flatten::new()),
            input(&[2, 2, 3, 2], 0.5),
        ),
        (
            "batchnorm2d",
            Box::new(BatchNorm2d::new(3)),
            input(&[3, 3, 3, 2], 0.6),
        ),
        ("relu", Box::new(ReLU::new()), input(&[3, 4, 4, 2], 0.7)),
        (
            "sigmoid",
            Box::new(Sigmoid::new()),
            input(&[3, 4, 4, 2], 0.8),
        ),
        ("silu", Box::new(SiLU::new()), input(&[3, 4, 4, 2], 0.9)),
        (
            "avg_pool2d",
            Box::new(AvgPool2d::new(2, 2)),
            input(&[2, 4, 4, 2], 1.0),
        ),
        (
            "max_pool2d",
            Box::new(MaxPool2d::new(2, 2)),
            input(&[2, 4, 4, 2], 1.1),
        ),
        (
            "global_avg_pool",
            Box::new(GlobalAvgPool::new()),
            input(&[2, 3, 3, 2], 1.2),
        ),
        (
            "sequential",
            Box::new(
                Sequential::new()
                    .push(conv(&mut rng))
                    .push(BatchNorm2d::new(2))
                    .push(SiLU::new()),
            ),
            input(&[2, 4, 4, 2], 1.3),
        ),
        (
            "residual/identity",
            Box::new(Residual::new(
                Sequential::new().push(conv(&mut rng)).push(Sigmoid::new()),
            )),
            input(&[2, 4, 4, 2], 1.4),
        ),
        (
            "residual/projection",
            Box::new(Residual::with_shortcut(
                Sequential::new().push(Conv2d::new(2, 3, 3, 2, 1, false, &mut rng)),
                Sequential::new()
                    .push(Conv2d::new(2, 3, 1, 2, 0, false, &mut rng))
                    .push(BatchNorm2d::new(3)),
            )),
            input(&[2, 4, 4, 2], 1.5),
        ),
        (
            "squeeze_excite",
            Box::new(SqueezeExcite::new(4, 2, &mut rng)),
            input(&[4, 3, 3, 2], 1.6),
        ),
    ]
}

#[test]
fn every_layer_kind_matches_central_differences() {
    for (name, mut layer, x) in layer_zoo() {
        for mode in [Recording::Eval, Recording::Train] {
            gradcheck(name, layer.as_mut(), &x, mode).assert_ok(name, 0);
        }
    }
}

/// One small instance of each of the paper's four architectures.
fn model_zoo() -> Vec<(ModelKind, Box<dyn Layer>, Tensor)> {
    // ResNet-18 and VGG-16 get 16×16 inputs and every model a batch of 4,
    // so no train-mode batch norm normalises fewer than 4 values: over two
    // values it maps every channel to ±1 and the gradient is mostly kinks.
    [
        (ModelKind::BasicCnn, (1, 12, 12), 4),
        (ModelKind::ResNet18, (3, 16, 16), 2),
        (ModelKind::Vgg16, (3, 16, 16), 2),
        (ModelKind::EfficientNetB0, (3, 8, 8), 2),
    ]
    .into_iter()
    .map(|(kind, (c, h, w), width)| {
        let mut rng = StdRng::seed_from_u64(0x6AD_C4EC ^ kind as u64);
        let net = Architecture::new(kind, (c, h, w), 3)
            .with_width(width)
            .build(&mut rng);
        let x = Tensor::from_fn(&[4, c, h, w], |i| ((i as f32) * 0.37).sin() * 0.5 + 0.5);
        (kind, Box::new(net) as Box<dyn Layer>, x)
    })
    .collect()
}

#[test]
fn every_model_input_gradient_matches_central_differences_in_eval_mode() {
    for (kind, mut net, x) in model_zoo() {
        let name = format!("{kind:?}");
        let t = gradcheck(&name, net.as_mut(), &x, Recording::Eval);
        t.assert_ok(&name, 2);
    }
}

#[test]
fn every_model_parameter_and_input_gradient_matches_central_differences_in_train_mode() {
    for (kind, mut net, x) in model_zoo() {
        let name = format!("{kind:?}");
        let t = gradcheck(&name, net.as_mut(), &x, Recording::Train);
        t.assert_ok(&name, 2);
    }
}
