//! Loss functions returning both the scalar loss and the gradient with
//! respect to the logits (ready to feed into `Layer::grad`).

use usb_tensor::{kernels, ops, Tensor, Workspace};

/// Mean softmax cross-entropy over a batch.
///
/// `logits` is `[N, K]`, `labels` has one class index per row. Returns
/// `(loss, dL/dlogits)` where the gradient is already divided by `N`.
///
/// # Panics
///
/// Panics if shapes disagree or a label is out of range.
///
/// ```rust
/// # use usb_nn::loss::softmax_cross_entropy;
/// # use usb_tensor::Tensor;
/// let logits = Tensor::from_vec(vec![5.0, -5.0], &[1, 2]);
/// let (loss, _grad) = softmax_cross_entropy(&logits, &[0]);
/// assert!(loss < 0.01, "confident correct prediction has near-zero loss");
/// ```
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    assert_eq!(
        logits.ndim(),
        2,
        "softmax_cross_entropy: logits must be [N,K]"
    );
    let (n, k) = (logits.shape()[0], logits.shape()[1]);
    assert_eq!(
        labels.len(),
        n,
        "softmax_cross_entropy: label count mismatch"
    );
    let probs = ops::softmax_rows(logits);
    let mut loss = 0.0f64;
    let mut grad = probs.clone();
    let inv_n = 1.0 / n as f32;
    for (i, &y) in labels.iter().enumerate() {
        assert!(y < k, "label {y} out of range for {k} classes");
        let p = probs.data()[i * k + y].max(1e-12);
        loss -= (p as f64).ln();
        grad.data_mut()[i * k + y] -= 1.0;
    }
    grad.scale_assign(inv_n);
    ((loss / n as f64) as f32, grad)
}

/// Softmax cross-entropy where every row shares one target class — the form
/// used by all trigger reverse-engineering losses (`CE(f(x'), t)`) — with
/// the gradient drawn from `ws` instead of freshly allocated, the per-step
/// form the refine hot loop uses.
///
/// The float-op sequence is that of [`softmax_cross_entropy`] with every
/// label `target` — [`kernels::softmax_row`] per row, subtract one at the
/// target, scale everything by `1/N` — so loss and gradient are
/// bit-identical (see `ws_variant_is_bitwise_identical`).
///
/// # Panics
///
/// Panics if `logits` is not `[N, K]` or `target >= K`.
pub fn softmax_cross_entropy_uniform_target_ws(
    logits: &Tensor,
    target: usize,
    ws: &mut Workspace,
) -> (f32, Tensor) {
    assert_eq!(
        logits.ndim(),
        2,
        "softmax_cross_entropy: logits must be [N,K]"
    );
    let (n, k) = (logits.shape()[0], logits.shape()[1]);
    assert!(target < k, "label {target} out of range for {k} classes");
    let mut grad = ws.take_dirty(n * k);
    let mut loss = 0.0f64;
    for i in 0..n {
        let row = i * k..(i + 1) * k;
        kernels::softmax_row(&logits.data()[row.clone()], &mut grad[row]);
        let p = grad[i * k + target].max(1e-12);
        loss -= (p as f64).ln();
        grad[i * k + target] -= 1.0;
    }
    kernels::scale(&mut grad, 1.0 / n as f32);
    ((loss / n as f64) as f32, Tensor::from_vec(grad, &[n, k]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_of_uniform_logits_is_log_k() {
        let logits = Tensor::zeros(&[4, 10]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 3, 5, 9]);
        assert!((loss - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_differences() {
        let logits = Tensor::from_vec(vec![0.2, -0.7, 1.1, 0.4, 0.0, -0.3], &[2, 3]);
        let labels = [2usize, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3;
        for flat in 0..logits.len() {
            let mut lp = logits.clone();
            lp.data_mut()[flat] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[flat] -= eps;
            let (fp, _) = softmax_cross_entropy(&lp, &labels);
            let (fm, _) = softmax_cross_entropy(&lm, &labels);
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - grad.data()[flat]).abs() < 1e-3);
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        // softmax CE gradient per row is (p - onehot), which sums to 0.
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.5, 0.0], &[2, 3]);
        let (_, grad) = softmax_cross_entropy(&logits, &[1, 2]);
        for i in 0..2 {
            let s: f32 = grad.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn ws_variant_is_bitwise_identical() {
        let mut ws = Workspace::new();
        let logits = Tensor::from_vec(
            vec![
                0.2, -0.7, 1.1, 0.4, 0.0, -0.3, 9.5, -9.5, 0.01, 3.3, 3.3, 3.3,
            ],
            &[4, 3],
        );
        for target in 0..3 {
            let (l0, g0) = softmax_cross_entropy(&logits, &[target; 4]);
            let (l1, g1) = softmax_cross_entropy_uniform_target_ws(&logits, target, &mut ws);
            assert_eq!(l0.to_bits(), l1.to_bits());
            assert_eq!(g0.shape(), g1.shape());
            for (a, b) in g0.data().iter().zip(g1.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            ws.recycle(g1);
        }
    }
}
