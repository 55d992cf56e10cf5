//! Optimizers: SGD with momentum and Adam.
//!
//! Two APIs are provided:
//!
//! * [`Sgd`] / [`Adam`] step a whole [`Layer`] through its parameter view
//!   ([`visit_params`]) — used by the model-training loops.
//! * [`TensorAdam`] steps a flat list of free tensors — used by the
//!   defenses, whose optimisation variables (mask, pattern, UAP) are not
//!   layer parameters.

use crate::layer::{visit_params, Grads, Layer};
use usb_tensor::kernels;
use usb_tensor::Tensor;

/// Stochastic gradient descent with classical momentum and decoupled weight
/// decay (applied only to parameters whose slot has `decay = true`).
#[derive(Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// L2 weight-decay coefficient.
    pub weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "Sgd: non-positive learning rate");
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }

    /// Applies one update step to `model` from `grads`, a sink filled by
    /// a training backward pass over the same model.
    pub fn step(&mut self, model: &mut dyn Layer, grads: &Grads) {
        let grads = grads.params();
        let mut idx = 0;
        let lr = self.lr;
        let momentum = self.momentum;
        let wd = self.weight_decay;
        let velocity = &mut self.velocity;
        visit_params(model, |value, decay| {
            if velocity.len() <= idx {
                velocity.push(Tensor::zeros(value.shape()));
            }
            let v = &mut velocity[idx];
            let vd = v.data_mut();
            let pd = value.data_mut();
            let gd = grads[idx].data();
            let decay = if decay { wd } else { 0.0 };
            for i in 0..pd.len() {
                let g = gd[i] + decay * pd[i];
                vd[i] = momentum * vd[i] + g;
                pd[i] -= lr * vd[i];
            }
            idx += 1;
        });
    }
}

/// Adam state for one tensor.
#[derive(Debug, Clone)]
struct AdamSlotState {
    m: Tensor,
    v: Tensor,
}

/// Adam over a model's parameters (walk order defines state pairing,
/// which is stable because layer structure never changes during training).
#[derive(Debug)]
pub struct Adam {
    inner: TensorAdam,
}

impl Adam {
    /// Creates an Adam optimizer with the paper's detection betas
    /// `(0.5, 0.9)` available through [`Adam::with_betas`].
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive.
    pub fn new(lr: f32) -> Self {
        Adam {
            inner: TensorAdam::new(lr),
        }
    }

    /// Overrides the `(β₁, β₂)` pair.
    #[must_use]
    pub fn with_betas(mut self, beta1: f32, beta2: f32) -> Self {
        self.inner = self.inner.with_betas(beta1, beta2);
        self
    }

    /// Applies one Adam step to every parameter of `model` from `grads`, a
    /// sink filled by a training backward pass over the same model.
    pub fn step(&mut self, model: &mut dyn Layer, grads: &Grads) {
        let grads = grads.params();
        self.inner.t += 1;
        let mut idx = 0;
        let inner = &mut self.inner;
        visit_params(model, |value, _| {
            if inner.state.len() <= idx {
                inner.state.push(AdamSlotState {
                    m: Tensor::zeros(value.shape()),
                    v: Tensor::zeros(value.shape()),
                });
            }
            inner.apply(idx, value, &grads[idx]);
            idx += 1;
        });
    }
}

/// Adam over a flat list of free tensors (defense optimisation variables).
///
/// Call [`TensorAdam::step`] with matching `(params, grads)` slices; state
/// is keyed by position, so always pass the tensors in the same order.
#[derive(Debug)]
pub struct TensorAdam {
    /// Learning rate.
    pub lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    state: Vec<AdamSlotState>,
}

impl TensorAdam {
    /// Creates an optimizer with betas `(0.9, 0.999)`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "TensorAdam: non-positive learning rate");
        TensorAdam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            state: Vec::new(),
        }
    }

    /// Overrides the `(β₁, β₂)` pair — the paper uses `(0.5, 0.9)` for
    /// detection.
    #[must_use]
    pub fn with_betas(mut self, beta1: f32, beta2: f32) -> Self {
        assert!((0.0..1.0).contains(&beta1), "beta1 out of range");
        assert!((0.0..1.0).contains(&beta2), "beta2 out of range");
        self.beta1 = beta1;
        self.beta2 = beta2;
        self
    }

    /// One Adam update over position-paired `(params, grads)`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or a pair's shapes
    /// disagree.
    pub fn step(&mut self, params: &mut [&mut Tensor], grads: &[&Tensor]) {
        assert_eq!(params.len(), grads.len(), "TensorAdam: slice mismatch");
        self.t += 1;
        for (i, (p, g)) in params.iter_mut().zip(grads).enumerate() {
            if self.state.len() <= i {
                self.state.push(AdamSlotState {
                    m: Tensor::zeros(p.shape()),
                    v: Tensor::zeros(p.shape()),
                });
            }
            self.apply(i, p, g);
        }
    }

    /// The update only reads the gradient, so it borrows it shared — no
    /// per-step clone of `dL/dθ` (the refine loop calls this 40–80 times
    /// per class).
    fn apply(&mut self, idx: usize, value: &mut Tensor, grad: &Tensor) {
        let st = &mut self.state[idx];
        assert_eq!(st.m.shape(), value.shape(), "TensorAdam: state shape drift");
        let params = kernels::AdamParams {
            b1: self.beta1,
            b2: self.beta2,
            bc1: 1.0 - self.beta1.powi(self.t as i32),
            bc2: 1.0 - self.beta2.powi(self.t as i32),
            lr: self.lr,
            eps: self.eps,
        };
        let (md, vd) = (st.m.data_mut(), st.v.data_mut());
        kernels::adam_step(value.data_mut(), grad.data(), md, vd, &params);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Pass, StateSlot};
    use usb_tensor::{Tape, Workspace};

    /// y = w·x ; single scalar parameter.
    #[derive(Clone)]
    struct Scalar {
        w: Tensor,
        x: f32,
    }

    impl Layer for Scalar {
        fn forward(&self, _x: &Tensor, mut pass: Pass<'_>, _ws: &mut Workspace) -> Tensor {
            let _ = pass.push();
            Tensor::from_vec(vec![self.w.data()[0] * self.x], &[1])
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
                grads.take_last(1)[0].data_mut()[0] += grad_out.data()[0] * self.x;
            }
            grad_out.clone()
        }
        fn visit_state(&mut self, f: &mut dyn FnMut(&'static str, StateSlot<'_>)) {
            f("scalar", StateSlot::Param(&mut self.w, true));
        }
        fn clone_box(&self) -> Box<dyn Layer> {
            Box::new(self.clone())
        }
    }

    /// Runs `steps` optimizer steps on `model` for the loss `(w·x − 1)²`.
    fn optimize(model: &mut Scalar, opt: &mut dyn FnMut(&mut Scalar, &Grads), steps: usize) -> f32 {
        let mut grads = Grads::for_model(model);
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        for _ in 0..steps {
            grads.zero();
            let y = model.forward(&Tensor::zeros(&[1]), Pass::Train(&mut tape), &mut ws);
            let dl = 2.0 * (y.data()[0] - 1.0);
            let _ = model.grad(
                &Tensor::from_vec(vec![dl], &[1]),
                &mut tape,
                &mut ws,
                Some(&mut grads),
            );
            opt(model, &grads);
        }
        model.w.data()[0]
    }

    fn scalar(w: f32, x: f32) -> Scalar {
        Scalar {
            w: Tensor::from_vec(vec![w], &[1]),
            x,
        }
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut sgd = Sgd::new(0.05, 0.9, 0.0);
        let w = optimize(&mut scalar(0.0, 2.0), &mut |m, g| sgd.step(m, g), 200);
        assert!((w - 0.5).abs() < 1e-2, "w={w}, expected 0.5");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(0.05);
        let w = optimize(&mut scalar(0.0, 2.0), &mut |m, g| adam.step(m, g), 300);
        assert!((w - 0.5).abs() < 1e-2, "w={w}, expected 0.5");
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        // x = 0: no data gradient, only decay.
        let mut sgd = Sgd::new(0.1, 0.0, 0.5);
        let w = optimize(&mut scalar(4.0, 0.0), &mut |m, g| sgd.step(m, g), 10);
        assert!(w < 4.0);
    }

    #[test]
    fn tensor_adam_minimises_free_tensor() {
        // minimise ||p − target||².
        let target = Tensor::from_vec(vec![1.0, -2.0, 0.5], &[3]);
        let mut p = Tensor::zeros(&[3]);
        let mut adam = TensorAdam::new(0.1).with_betas(0.5, 0.9);
        for _ in 0..200 {
            let grad = p.sub(&target).scale(2.0);
            adam.step(&mut [&mut p], &[&grad]);
        }
        for (a, b) in p.data().iter().zip(target.data()) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn rejects_bad_learning_rate() {
        let _ = Sgd::new(0.0, 0.9, 0.0);
    }
}
