//! Batch normalisation over batch-last `[C, H, W, N]` activations: each
//! channel is one contiguous `H·W·N` run.

use crate::layer::{Grads, Layer, Pass, StateSlot};
use usb_tensor::{Tape, Tensor, Workspace};

/// 2-D batch normalisation with learned affine parameters and running
/// statistics.
///
/// In a [`Pass::Train`] the layer normalises with batch statistics; the
/// exponential running averages move when the step's
/// [`Grads::commit`] runs. Every other pass applies the
/// frozen affine transform built from the running statistics. Gradients
/// work in both modes — defenses differentiate through eval-mode models,
/// where the layer is an elementwise affine map.
#[derive(Clone)]
pub struct BatchNorm2d {
    gamma: Tensor,
    beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer over `ch` channels with the conventional
    /// momentum 0.1 and epsilon 1e-5.
    ///
    /// # Panics
    ///
    /// Panics if `ch` is zero.
    pub fn new(ch: usize) -> Self {
        assert!(ch > 0, "BatchNorm2d: zero channels");
        BatchNorm2d {
            gamma: Tensor::ones(&[ch]),
            beta: Tensor::zeros(&[ch]),
            running_mean: Tensor::zeros(&[ch]),
            running_var: Tensor::ones(&[ch]),
            momentum: 0.1,
            eps: 1e-5,
        }
    }

    /// Running mean per channel (for inspection).
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// Running variance per channel (for inspection).
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }

    /// Channels, the length of one channel's `H·W·N` run, and `N`.
    fn check_input(&self, x: &Tensor) -> (usize, usize, usize) {
        assert_eq!(x.ndim(), 4, "BatchNorm2d: input must be [C,H,W,N]");
        let c = x.shape()[0];
        assert_eq!(c, self.gamma.len(), "BatchNorm2d: channel mismatch");
        (c, x.len() / c, x.shape()[3])
    }

    /// The train-mode forward pass. The frame holds `x̂` in `vals` and, in
    /// `extra`, per channel `1/σ`, then the updated running mean, then the
    /// updated running variance — `(1 − m)·running + m·batch`, evaluated
    /// now because `&self` cannot store it. The batch statistics sum image
    /// by image (a stride-`N` walk through each channel's run), in the
    /// order of a per-image loop.
    fn record_train(&self, x: &Tensor, tape: &mut Tape, ws: &mut Workspace) -> Tensor {
        let (c, run, n) = self.check_input(x);
        let plane = run / n;
        let m = run as f32;
        let frame = tape.push();
        frame.aux.extend_from_slice(x.shape());
        frame.vals.resize(x.len(), 0.0);
        frame.extra.resize(3 * c, 0.0);
        let mut out = ws.take_dirty(x.len());
        for (ch, xs) in x.data().chunks_exact(run).enumerate() {
            let mut s = 0.0f32;
            for i in 0..n {
                s += (0..plane).map(|j| xs[j * n + i]).sum::<f32>();
            }
            let mean = s / m;
            let mut v = 0.0f32;
            for i in 0..n {
                for j in 0..plane {
                    let d = xs[j * n + i] - mean;
                    v += d * d;
                }
            }
            let var = v / m;
            let istd = 1.0 / (var + self.eps).sqrt();
            let mom = self.momentum;
            frame.extra[ch] = istd;
            frame.extra[c + ch] = (1.0 - mom) * self.running_mean.data()[ch] + mom * mean;
            frame.extra[2 * c + ch] = (1.0 - mom) * self.running_var.data()[ch] + mom * var;
            let g = self.gamma.data()[ch];
            let b = self.beta.data()[ch];
            let span = ch * run..(ch + 1) * run;
            for ((xh, o), &xv) in frame.vals[span.clone()]
                .iter_mut()
                .zip(&mut out[span])
                .zip(xs)
            {
                *xh = (xv - mean) * istd;
                *o = g * *xh + b;
            }
        }
        Tensor::from_vec(out, x.shape())
    }
}

impl Layer for BatchNorm2d {
    fn forward(&self, x: &Tensor, mut pass: Pass<'_>, ws: &mut Workspace) -> Tensor {
        if let Pass::Train(tape) = pass {
            return self.record_train(x, tape, ws);
        }
        let (_, run, _) = self.check_input(x);
        // A frozen affine map: the input gradient needs only the running
        // statistics (read from `&self`) and the shape.
        if let Some(frame) = pass.push() {
            frame.aux.extend_from_slice(x.shape());
        }
        let mut out = ws.take_dirty(x.len());
        for (ch, (o, xs)) in out
            .chunks_exact_mut(run)
            .zip(x.data().chunks_exact(run))
            .enumerate()
        {
            let mean = self.running_mean.data()[ch];
            let var = self.running_var.data()[ch];
            let istd = 1.0 / (var + self.eps).sqrt();
            let g = self.gamma.data()[ch];
            let b = self.beta.data()[ch];
            for (o, &xv) in o.iter_mut().zip(xs) {
                *o = g * ((xv - mean) * istd) + b;
            }
        }
        Tensor::from_vec(out, x.shape())
    }

    fn grad(
        &self,
        grad_out: &Tensor,
        tape: &mut Tape,
        ws: &mut Workspace,
        grads: Option<&mut Grads>,
    ) -> Tensor {
        let frame = tape.pop();
        assert_eq!(
            grad_out.shape(),
            &frame.aux[..],
            "BatchNorm2d: grad shape mismatch"
        );
        let (c, n) = (frame.aux[0], frame.aux[3]);
        let run = grad_out.len() / c;
        let mut gi = ws.take_dirty(grad_out.len());
        let god = grad_out.data();
        if frame.extra.is_empty() {
            assert!(
                grads.is_none(),
                "BatchNorm2d: parameter gradients need a Pass::Train recording"
            );
            for (ch, (gi, go)) in gi
                .chunks_exact_mut(run)
                .zip(god.chunks_exact(run))
                .enumerate()
            {
                // `istd` recomputed from the running statistics with the
                // arithmetic the eval forward used.
                let var = self.running_var.data()[ch];
                let istd = 1.0 / (var + self.eps).sqrt();
                let k = self.gamma.data()[ch] * istd;
                for (d, &g) in gi.iter_mut().zip(go) {
                    *d = k * g;
                }
            }
        } else {
            let m = run as f32;
            let plane = run / n;
            // The updated running statistics copied into their slots for
            // `commit`; the γ and β accumulators, each channel's sums added
            // straight in.
            let mut sinks = grads.map(|grads| {
                let [mean, var] = grads.take_last_stats(2) else {
                    unreachable!("take_last_stats(2) yields two slots")
                };
                mean.data_mut().copy_from_slice(&frame.extra[c..2 * c]);
                var.data_mut().copy_from_slice(&frame.extra[2 * c..]);
                let [acc_gamma, acc_beta] = grads.take_last(2) else {
                    unreachable!("take_last(2) yields two accumulators")
                };
                (acc_gamma.data_mut(), acc_beta.data_mut())
            });
            for ch in 0..c {
                let span = ch * run..(ch + 1) * run;
                let (go, xhat) = (&god[span.clone()], &frame.vals[span.clone()]);
                // Σdy·x̂ (= dL/dγ) and Σdy (= dL/dβ), image by image.
                let (mut dgamma, mut dbeta) = (0.0f32, 0.0f32);
                for i in 0..n {
                    for j in 0..plane {
                        let g = go[j * n + i];
                        dgamma += g * xhat[j * n + i];
                        dbeta += g;
                    }
                }
                if let Some((acc_gamma, acc_beta)) = sinks.as_mut() {
                    acc_gamma[ch] += dgamma;
                    acc_beta[ch] += dbeta;
                }
                // dx = (γ·istd/m) · (m·dy − Σdy − x̂·Σ(dy·x̂))
                let k = self.gamma.data()[ch] * frame.extra[ch] / m;
                for ((d, &g), &xh) in gi[span].iter_mut().zip(go).zip(xhat) {
                    *d = k * (m * g - dbeta - xh * dgamma);
                }
            }
        }
        let gi = Tensor::from_vec(gi, &frame.aux);
        tape.recycle(frame);
        gi
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&'static str, StateSlot<'_>)) {
        for value in [&mut self.gamma, &mut self.beta] {
            f("batchnorm2d", StateSlot::Param(value, false));
        }
        // Running statistics are state but not parameters: eval-mode
        // passes are a function of them, so persistence must carry them.
        f("batchnorm2d", StateSlot::Stat(&mut self.running_mean));
        f("batchnorm2d", StateSlot::Stat(&mut self.running_var));
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tensor {
        Tensor::from_fn(&[3, 2, 2, 2], |i| ((i * 7 % 11) as f32) * 0.3 - 1.0)
    }

    /// One train-mode step: record, backprop `go` into a fresh sink, commit
    /// the running statistics. Returns the output and `dL/dx`.
    fn train_step(bn: &mut BatchNorm2d, x: &Tensor, go: &Tensor) -> (Tensor, Tensor) {
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let mut grads = Grads::for_model(bn);
        let y = bn.forward(x, Pass::Train(&mut tape), &mut ws);
        let gi = bn.grad(go, &mut tape, &mut ws, Some(&mut grads));
        grads.commit(bn);
        (y, gi)
    }

    #[test]
    fn train_forward_normalises_batch() {
        let mut bn = BatchNorm2d::new(3);
        let x = sample();
        let (y, _) = train_step(&mut bn, &x, &Tensor::ones(x.shape()));
        // Per channel, output should have ~zero mean and ~unit variance.
        for ch in 0..3 {
            let vals = &y.data()[ch * 8..(ch + 1) * 8];
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "ch {ch} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "ch {ch} var {var}");
        }
    }

    #[test]
    fn running_stats_move_only_on_commit() {
        let mut bn = BatchNorm2d::new(3);
        let x = sample().add_scalar(5.0);
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let _ = bn.forward(&x, Pass::Train(&mut tape), &mut ws);
        assert_eq!(
            bn.running_mean().data(),
            &[0.0; 3],
            "recording is read-only"
        );
        for _ in 0..60 {
            let _ = train_step(&mut bn, &x, &Tensor::ones(x.shape()));
        }
        // After many updates the running mean approaches the batch mean ≈ 5ish.
        assert!(bn.running_mean().mean() > 4.0);
    }

    /// Training steps that reuse one sink install the statistics that a
    /// fresh sink per step installs, bit for bit.
    #[test]
    fn a_reused_sink_commits_what_fresh_sinks_commit() {
        let x = sample().add_scalar(2.0);
        let go = Tensor::ones(x.shape());
        let (mut reused, mut fresh) = (BatchNorm2d::new(3), BatchNorm2d::new(3));
        let mut grads = Grads::for_model(&mut reused);
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        for _ in 0..3 {
            grads.zero();
            let _ = reused.forward(&x, Pass::Train(&mut tape), &mut ws);
            let _ = reused.grad(&go, &mut tape, &mut ws, Some(&mut grads));
            grads.commit(&mut reused);
            let _ = train_step(&mut fresh, &x, &go);
        }
        assert_eq!(reused.running_mean().data(), fresh.running_mean().data());
        assert_eq!(reused.running_var().data(), fresh.running_var().data());
    }

    #[test]
    #[should_panic(expected = "commit before grad")]
    fn a_commit_needs_its_own_grad() {
        let mut bn = BatchNorm2d::new(3);
        let x = sample();
        let mut grads = Grads::for_model(&mut bn);
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let _ = bn.forward(&x, Pass::Train(&mut tape), &mut ws);
        let _ = bn.grad(
            &Tensor::ones(x.shape()),
            &mut tape,
            &mut ws,
            Some(&mut grads),
        );
        grads.commit(&mut bn);
        grads.commit(&mut bn);
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let bn = BatchNorm2d::new(1);
        let x = Tensor::from_vec(vec![2.0, 2.0, 2.0, 2.0], &[1, 2, 2, 1]);
        // Untouched running stats: mean 0, var 1 -> y = x (gamma=1, beta=0).
        let y = bn.forward(&x, Pass::Infer, &mut Workspace::new());
        for (a, b) in y.data().iter().zip(x.data()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn train_parameter_gradients_are_the_batch_sums() {
        // dL/dγ = Σ dy·x̂ and dL/dβ = Σ dy per channel; with dy = 1 the
        // first is Σ x̂ = 0 and the second the channel's element count.
        let mut bn = BatchNorm2d::new(3);
        let x = sample();
        let mut grads = Grads::for_model(&mut bn);
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let _ = bn.forward(&x, Pass::Train(&mut tape), &mut ws);
        let _ = bn.grad(
            &Tensor::ones(x.shape()),
            &mut tape,
            &mut ws,
            Some(&mut grads),
        );
        assert!(grads.params()[0].linf_norm() < 1e-5);
        assert_eq!(grads.params()[1].data(), &[8.0; 3]);
    }

    #[test]
    fn eval_gradient_is_affine_scale() {
        let mut bn = BatchNorm2d::new(2);
        // Set distinctive running stats.
        bn.running_var = Tensor::from_vec(vec![4.0, 0.25], &[2]);
        let x = Tensor::zeros(&[2, 2, 2, 1]);
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let _ = bn.forward(&x, Pass::Eval(&mut tape), &mut ws);
        let gi = bn.grad(&Tensor::ones(&[2, 2, 2, 1]), &mut tape, &mut ws, None);
        // dx = gamma / sqrt(var+eps): 1/2 for ch0, 1/0.5=2 for ch1.
        assert!((gi.data()[0] - 0.5).abs() < 1e-3);
        assert!((gi.data()[4] - 2.0).abs() < 1e-2);
    }
}
