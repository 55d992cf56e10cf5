//! Property-based integration tests (proptest) on cross-crate invariants:
//! trigger application, detection statistics, SSIM bounds, and the
//! mask/pattern parameterisation.

use proptest::prelude::*;
use universal_soldier::defenses::TriggerVar;
use universal_soldier::tensor::ssim::ssim_with_grad_ws;
use universal_soldier::tensor::stats::{anomaly_indices, flag_small_outliers, median};
use universal_soldier::tensor::{Tensor, Workspace};

fn unit_image(seed_vals: &[f32], c: usize, h: usize, w: usize) -> Tensor {
    Tensor::from_fn(&[c, h, w], |i| {
        seed_vals[i % seed_vals.len()].clamp(0.0, 1.0)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn trigger_var_apply_stays_in_unit_range(
        mask_vals in proptest::collection::vec(0.0f32..1.0, 16),
        pat_vals in proptest::collection::vec(0.0f32..1.0, 16),
        img_vals in proptest::collection::vec(0.0f32..1.0, 16),
    ) {
        let mask = Tensor::from_vec(mask_vals, &[4, 4]);
        let pattern = Tensor::from_vec(pat_vals, &[1, 4, 4]);
        let var = TriggerVar::from_values(&mask, &pattern);
        let batch = Tensor::from_vec(img_vals, &[1, 1, 4, 4]);
        let out = var.apply(&batch, &mut Workspace::new());
        prop_assert!(out.min() >= -1e-4, "below 0: {}", out.min());
        prop_assert!(out.max() <= 1.0 + 1e-4, "above 1: {}", out.max());
    }

    #[test]
    fn trigger_var_zero_mask_is_identity(
        pat_vals in proptest::collection::vec(0.0f32..1.0, 16),
        img_vals in proptest::collection::vec(0.0f32..1.0, 16),
    ) {
        let mask = Tensor::zeros(&[4, 4]);
        let pattern = Tensor::from_vec(pat_vals, &[1, 4, 4]);
        let var = TriggerVar::from_values(&mask, &pattern);
        let batch = Tensor::from_vec(img_vals.clone(), &[1, 1, 4, 4]);
        let out = var.apply(&batch, &mut Workspace::new());
        for (a, b) in out.data().iter().zip(&img_vals) {
            prop_assert!((a - b).abs() < 2e-3, "zero mask changed pixel {a} vs {b}");
        }
    }

    #[test]
    fn trigger_var_full_mask_replaces_with_pattern(
        pat_vals in proptest::collection::vec(0.05f32..0.95, 16),
        img_vals in proptest::collection::vec(0.0f32..1.0, 16),
    ) {
        let mask = Tensor::ones(&[4, 4]);
        let pattern = Tensor::from_vec(pat_vals.clone(), &[1, 4, 4]);
        let var = TriggerVar::from_values(&mask, &pattern);
        let batch = Tensor::from_vec(img_vals, &[1, 1, 4, 4]);
        let out = var.apply(&batch, &mut Workspace::new());
        for (a, p) in out.data().iter().zip(&pat_vals) {
            // atanh clamping costs a little precision near 0/1.
            prop_assert!((a - p).abs() < 2e-2, "full mask should yield pattern: {a} vs {p}");
        }
    }

    #[test]
    fn ssim_is_bounded_and_reflexive(
        vals in proptest::collection::vec(0.0f32..1.0, 64),
    ) {
        let x = unit_image(&vals, 1, 10, 10);
        let mut ws = Workspace::new();
        let (s, _) = ssim_with_grad_ws(&x, &x, &mut ws);
        prop_assert!((s - 1.0).abs() < 1e-3, "ssim(x,x) = {s}");
        // Against a constant grey image SSIM stays in [-1, 1].
        let grey = Tensor::full(&[1, 10, 10], 0.5);
        let (s, _) = ssim_with_grad_ws(&x, &grey, &mut ws);
        prop_assert!((-1.0..=1.0).contains(&s), "ssim out of range: {s}");
    }

    #[test]
    fn anomaly_indices_are_translation_invariant(
        base in proptest::collection::vec(1.0f64..100.0, 6..12),
        shift in 0.0f64..50.0,
    ) {
        let shifted: Vec<f64> = base.iter().map(|v| v + shift).collect();
        let a = anomaly_indices(&base);
        let b = anomaly_indices(&shifted);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-6, "translation changed index: {x} vs {y}");
        }
    }

    #[test]
    fn flagging_is_scale_invariant(
        base in proptest::collection::vec(1.0f64..100.0, 6..12),
        scale in 0.1f64..10.0,
    ) {
        let scaled: Vec<f64> = base.iter().map(|v| v * scale).collect();
        let a = flag_small_outliers(&base, 2.0);
        let b = flag_small_outliers(&scaled, 2.0);
        prop_assert_eq!(a.flagged, b.flagged);
    }

    #[test]
    fn median_is_within_range(vals in proptest::collection::vec(-100.0f64..100.0, 1..20)) {
        let m = median(&vals);
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo && m <= hi);
    }

    #[test]
    fn mask_l1_matches_mask_sum(
        mask_vals in proptest::collection::vec(0.0f32..1.0, 16),
    ) {
        let mask = Tensor::from_vec(mask_vals, &[4, 4]);
        let pattern = Tensor::full(&[1, 4, 4], 0.5);
        let var = TriggerVar::from_values(&mask, &pattern);
        let diff = (var.mask_l1() - var.mask().sum() as f64).abs();
        prop_assert!(diff < 1e-5);
    }
}
