//! Static triggers: a pattern image and a blending mask.
//!
//! [`Trigger::stamp`] is the one way a static trigger is applied — to
//! poison training images, to draw figures and to measure attack success
//! — and it blends through [`ops::stamp_images`], as the defenses'
//! trigger variable does.

use rand::Rng;
use usb_tensor::{ops, Tensor, Workspace};

/// Geometry of a static patch trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriggerSpec {
    /// Side length of the square patch in pixels.
    pub size: usize,
}

impl TriggerSpec {
    /// A square `size × size` patch (the paper's 2×2 / 3×3 / 20×20 / ...).
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn patch(size: usize) -> Self {
        assert!(size > 0, "TriggerSpec: zero patch size");
        TriggerSpec { size }
    }
}

/// A concrete trigger: `pattern` `[C, H, W]` and `mask` `[H, W]` with
/// values in `[0, 1]`. Stamping computes `x·(1−m) + pattern·m` per channel —
/// the same parameterisation the defenses reverse-engineer.
#[derive(Debug, Clone, PartialEq)]
pub struct Trigger {
    pattern: Tensor,
    mask: Tensor,
}

impl Trigger {
    /// Builds a trigger from explicit pattern and mask.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is not rank-3, `mask` is not rank-2, or their
    /// spatial dims disagree.
    pub fn new(pattern: Tensor, mask: Tensor) -> Self {
        assert_eq!(pattern.ndim(), 3, "Trigger: pattern must be [C,H,W]");
        assert_eq!(mask.ndim(), 2, "Trigger: mask must be [H,W]");
        assert_eq!(
            &pattern.shape()[1..],
            mask.shape(),
            "Trigger: pattern/mask spatial mismatch"
        );
        Trigger { pattern, mask }
    }

    /// A high-contrast checkerboard patch at a random interior position with
    /// a random per-channel phase — "triggers are generated in different
    /// positions and random colors" (paper §4.1). The checkerboard mimics
    /// the classic BadNet stamp and guarantees strong local contrast against
    /// any background; the interior inset keeps the whole patch inside every
    /// convolution's receptive field.
    ///
    /// # Panics
    ///
    /// Panics if the patch does not fit in `h × w`.
    pub fn random_patch(
        spec: TriggerSpec,
        channels: usize,
        h: usize,
        w: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let k = spec.size.min(h).min(w);
        assert!(k > 0 && k <= h && k <= w, "Trigger: patch does not fit");
        let inset = usize::from(h > k + 2 && w > k + 2);
        let y0 = rng.gen_range(inset..=h - k - inset);
        let x0 = rng.gen_range(inset..=w - k - inset);
        let mut pattern = Tensor::zeros(&[channels, h, w]);
        let mut mask = Tensor::zeros(&[h, w]);
        for c in 0..channels {
            let phase = usize::from(rng.gen_bool(0.5));
            for y in y0..y0 + k {
                for x in x0..x0 + k {
                    *pattern.at_mut(&[c, y, x]) = ((y + x + phase) % 2) as f32;
                }
            }
        }
        for y in y0..y0 + k {
            for x in x0..x0 + k {
                *mask.at_mut(&[y, x]) = 1.0;
            }
        }
        Trigger { pattern, mask }
    }

    /// A full-image blended trigger with a low `L∞` budget: a random
    /// pattern in `[0, 1]` alpha-blended into *every* pixel at constant
    /// strength `alpha`. The per-pixel perturbation is bounded by `alpha`
    /// (`|x·(1−α) + p·α − x| ≤ α`), so the stamp is visually faint — the
    /// "blended injection" end of the trigger spectrum, as opposed to the
    /// high-contrast local patch of [`Trigger::random_patch`].
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1)` or any dimension is zero.
    pub fn random_blended(
        channels: usize,
        h: usize,
        w: usize,
        alpha: f32,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "Trigger: blend alpha must be in (0, 1)"
        );
        assert!(channels > 0 && h > 0 && w > 0, "Trigger: empty image");
        let mut pattern = Tensor::zeros(&[channels, h, w]);
        for v in pattern.data_mut() {
            *v = rng.gen_range(0.0..1.0);
        }
        let mask = Tensor::full(&[h, w], alpha);
        Trigger { pattern, mask }
    }

    /// The trigger pattern `[C, H, W]`.
    pub fn pattern(&self) -> &Tensor {
        &self.pattern
    }

    /// The blending mask `[H, W]`.
    pub fn mask(&self) -> &Tensor {
        &self.mask
    }

    /// L1 norm of the mask — the size statistic every defense thresholds.
    pub fn mask_l1(&self) -> f64 {
        self.mask.l1_norm() as f64
    }

    /// Stamps the trigger onto one `[C, H, W]` image or every image of an
    /// `[N, C, H, W]` batch, drawing the result from `ws`: per channel
    /// plane `x·(1−m) + p·m` ([`ops::stamp_images`]). A pixel with
    /// `m = 0` keeps its value, since `x·1 + p·0 = x` for finite `p` (a
    /// `−0.0` pixel may come out `+0.0`; the synthetic data holds none).
    ///
    /// # Panics
    ///
    /// Panics if the per-image shape does not match the trigger.
    pub fn stamp(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        assert!(
            x.ndim() <= 4 && x.shape().ends_with(self.pattern.shape()),
            "Trigger: image shape mismatch"
        );
        let mut out = ws.take_dirty(x.len());
        ops::stamp_images(&mut out, x.data(), self.mask.data(), self.pattern.data());
        Tensor::from_vec(out, x.shape())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_patch_has_expected_mask_norm() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = Trigger::random_patch(TriggerSpec::patch(3), 3, 16, 16, &mut rng);
        assert_eq!(t.mask_l1(), 9.0);
        assert_eq!(t.pattern().shape(), &[3, 16, 16]);
    }

    #[test]
    fn stamp_changes_only_masked_pixels() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Trigger::random_patch(TriggerSpec::patch(2), 1, 8, 8, &mut rng);
        // Background 0.3 differs from both checkerboard extremes (0 and 1),
        // so every masked pixel must change.
        let img = Tensor::full(&[1, 8, 8], 0.3);
        let stamped = t.stamp(&img, &mut Workspace::new());
        let changed = stamped
            .data()
            .iter()
            .zip(img.data())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(changed, 4, "exactly the 2x2 patch must change");
    }

    #[test]
    fn stamp_is_idempotent_for_binary_mask() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = Trigger::random_patch(TriggerSpec::patch(2), 1, 8, 8, &mut rng);
        let img = Tensor::full(&[1, 8, 8], 0.3);
        let mut ws = Workspace::new();
        let once = t.stamp(&img, &mut ws);
        let twice = t.stamp(&once, &mut ws);
        assert_eq!(once.data(), twice.data());
    }

    #[test]
    fn stamp_batch_matches_per_image() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Trigger::random_patch(TriggerSpec::patch(2), 1, 8, 8, &mut rng);
        let batch = Tensor::from_fn(&[3, 1, 8, 8], |i| ((i % 9) as f32) / 9.0);
        let mut ws = Workspace::new();
        let stamped = t.stamp(&batch, &mut ws);
        for i in 0..3 {
            let single = t.stamp(&batch.index_axis0(i), &mut ws);
            assert_eq!(stamped.index_axis0(i).data(), single.data());
        }
    }

    #[test]
    fn positions_vary_across_rng_draws() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Trigger::random_patch(TriggerSpec::patch(2), 1, 16, 16, &mut rng);
        let b = Trigger::random_patch(TriggerSpec::patch(2), 1, 16, 16, &mut rng);
        assert_ne!(a.mask().data(), b.mask().data(), "positions should differ");
    }

    #[test]
    fn blended_trigger_respects_the_linf_budget() {
        let mut rng = StdRng::seed_from_u64(5);
        let alpha = 0.15f32;
        let t = Trigger::random_blended(3, 12, 12, alpha, &mut rng);
        assert_eq!(t.pattern().shape(), &[3, 12, 12]);
        assert!((t.mask_l1() - f64::from(alpha) * 144.0).abs() < 1e-4);
        // Stamping moves every pixel by at most alpha, regardless of the
        // background value.
        for bg in [0.0f32, 0.4, 1.0] {
            let img = Tensor::full(&[3, 12, 12], bg);
            let stamped = t.stamp(&img, &mut Workspace::new());
            let max_dev = stamped
                .data()
                .iter()
                .zip(img.data())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(
                max_dev <= alpha + 1e-6,
                "stamp exceeded the L-inf budget: {max_dev}"
            );
        }
    }

    #[test]
    fn blended_trigger_is_deterministic_per_seed() {
        let a = Trigger::random_blended(1, 8, 8, 0.2, &mut StdRng::seed_from_u64(6));
        let b = Trigger::random_blended(1, 8, 8, 0.2, &mut StdRng::seed_from_u64(6));
        let c = Trigger::random_blended(1, 8, 8, 0.2, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        assert_ne!(a.pattern().data(), c.pattern().data());
    }

    #[test]
    fn partial_mask_blends() {
        let pattern = Tensor::ones(&[1, 2, 2]);
        let mut mask = Tensor::zeros(&[2, 2]);
        *mask.at_mut(&[0, 0]) = 0.5;
        let t = Trigger::new(pattern, mask);
        let img = Tensor::zeros(&[1, 2, 2]);
        let s = t.stamp(&img, &mut Workspace::new());
        assert_eq!(s.at(&[0, 0, 0]), 0.5);
        assert_eq!(s.at(&[0, 1, 1]), 0.0);
    }

    /// `x·(1−m) + p·m` per pixel, the formula every stamp must reproduce.
    fn naive_stamp(t: &Trigger, img: &Tensor) -> Vec<f32> {
        let (c, h, w) = (img.shape()[0], img.shape()[1], img.shape()[2]);
        let mut out = Vec::with_capacity(img.len());
        for ch in 0..c {
            for y in 0..h {
                for x in 0..w {
                    let m = t.mask().at(&[y, x]);
                    out.push(img.at(&[ch, y, x]) * (1.0 - m) + t.pattern().at(&[ch, y, x]) * m);
                }
            }
        }
        out
    }

    #[test]
    fn stamp_matches_the_naive_blend_bitwise() {
        let mut rng = StdRng::seed_from_u64(8);
        // A fractional mask with zeros, halves and odd fractions.
        let fractional = Trigger::new(
            Tensor::from_fn(&[3, 5, 7], |i| ((i * 7 % 11) as f32) / 10.0),
            Tensor::from_fn(&[5, 7], |i| [0.0, 0.5, 0.3, 1.0, 0.0, 0.77][i % 6]),
        );
        let triggers = [
            Trigger::random_patch(TriggerSpec::patch(3), 3, 5, 7, &mut rng),
            Trigger::random_blended(3, 5, 7, 0.15, &mut rng),
            fractional,
        ];
        // Pixel values in [0, 1], +0.0 and 1.0 included.
        let batch = Tensor::from_fn(&[4, 3, 5, 7], |i| ((i * 13 % 17) as f32) / 16.0);
        let mut ws = Workspace::new();
        for t in &triggers {
            let stamped = t.stamp(&batch, &mut ws);
            for i in 0..4 {
                let img = batch.index_axis0(i);
                let want = naive_stamp(t, &img);
                let got = stamped.index_axis0(i);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got.data()), bits(&want), "image {i}");
                // Where m = 0 the pixel keeps its bits.
                for (j, (&g, &x)) in got.data().iter().zip(img.data()).enumerate() {
                    if t.mask().data()[j % 35] == 0.0 {
                        assert_eq!(g.to_bits(), x.to_bits(), "m = 0 pixel {j} moved");
                    }
                }
            }
            ws.recycle(stamped);
        }
    }
}
