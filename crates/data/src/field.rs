//! Class prototypes as smooth random fields.
//!
//! A class prototype is a sum of gaussian bumps (random centre, width,
//! amplitude, per channel). A pool of *shared* bumps is mixed into
//! neighbouring classes so that class features overlap — the property that
//! makes clean-model reverse engineering hard (paper §4.2 and §A.6).

use crate::SyntheticSpec;
use rand::Rng;
use usb_tensor::{kernels, Tensor};

/// One gaussian bump in image space.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Bump {
    cy: f32,
    cx: f32,
    sigma: f32,
    amp: f32,
    channel: usize,
}

impl Bump {
    fn random(spec: &SyntheticSpec, rng: &mut impl Rng) -> Self {
        let margin = 0.1;
        Bump {
            cy: rng.gen_range(margin..1.0 - margin) * spec.height as f32,
            cx: rng.gen_range(margin..1.0 - margin) * spec.width as f32,
            sigma: rng.gen_range(0.08..0.25) * spec.height.max(spec.width) as f32,
            amp: rng.gen_range(0.5..1.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 },
            channel: rng.gen_range(0..spec.channels),
        }
    }

    /// Adds this bump (shifted by `(dy, dx)`) onto `img`. `plane` is
    /// scratch for one `[H, W]` plane of exponentials.
    fn splat(&self, img: &mut Tensor, dy: f32, dx: f32, plane: &mut [f32]) {
        let (c, h, w) = (img.shape()[0], img.shape()[1], img.shape()[2]);
        debug_assert!(self.channel < c);
        let inv = 1.0 / (2.0 * self.sigma * self.sigma);
        for (y, row) in plane.chunks_exact_mut(w).enumerate() {
            let ddy = y as f32 - (self.cy + dy);
            for (x, e) in row.iter_mut().enumerate() {
                let ddx = x as f32 - (self.cx + dx);
                *e = -(ddy * ddy + ddx * ddx) * inv;
            }
        }
        kernels::exp_in_place(plane);
        let base = self.channel * h * w;
        for (d, &e) in img.data_mut()[base..base + h * w].iter_mut().zip(&*plane) {
            *d += self.amp * e;
        }
    }
}

/// The per-class feature bumps plus the shared pool.
pub struct ClassPrototypes {
    spec: SyntheticSpec,
    class_bumps: Vec<Vec<Bump>>,
    shared_bumps: Vec<Bump>,
    /// Which shared bumps each class uses (adjacent classes overlap).
    shared_assignment: Vec<Vec<usize>>,
}

impl ClassPrototypes {
    /// Builds prototypes for every class of `spec` from `rng`.
    pub fn new(spec: &SyntheticSpec, rng: &mut impl Rng) -> Self {
        let bumps_per_class = 5 + spec.channels;
        let shared_pool = spec.num_classes.max(4);
        let class_bumps = (0..spec.num_classes)
            .map(|_| {
                (0..bumps_per_class)
                    .map(|_| Bump::random(spec, rng))
                    .collect()
            })
            .collect();
        let shared_bumps: Vec<Bump> = (0..shared_pool).map(|_| Bump::random(spec, rng)).collect();
        // Class c shares bumps c and c+1 (mod pool) with its neighbours, so
        // adjacent classes literally share features.
        let shared_assignment = (0..spec.num_classes)
            .map(|c| vec![c % shared_pool, (c + 1) % shared_pool])
            .collect();
        ClassPrototypes {
            spec: spec.clone(),
            class_bumps,
            shared_bumps,
            shared_assignment,
        }
    }

    /// The noiseless prototype image of `class` (useful for visualisation).
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn prototype(&self, class: usize) -> Tensor {
        self.render(class, 0.0, 0.0)
    }

    fn render(&self, class: usize, dy: f32, dx: f32) -> Tensor {
        assert!(
            class < self.spec.num_classes,
            "class {class} out of range ({} classes)",
            self.spec.num_classes
        );
        let shape = [self.spec.channels, self.spec.height, self.spec.width];
        let mut img = Tensor::zeros(&shape);
        let mut plane = vec![0.0; self.spec.height * self.spec.width];
        for b in &self.class_bumps[class] {
            b.splat(&mut img, dy, dx, &mut plane);
        }
        let sw = self.spec.shared_weight;
        if sw > 0.0 {
            for &si in &self.shared_assignment[class] {
                let mut scaled = self.shared_bumps[si];
                scaled.amp *= sw / (1.0 - sw).max(0.2);
                scaled.splat(&mut img, dy, dx, &mut plane);
            }
        }
        // Squash into [0, 1] around a 0.5 baseline.
        img.map(|v| (0.5 + 0.35 * v).clamp(0.0, 1.0))
    }

    /// Draws one sample of `class`: prototype + translation jitter +
    /// pixel noise, clamped to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn sample(&self, class: usize, rng: &mut impl Rng) -> Tensor {
        let j = self.spec.jitter as f32;
        let dy = rng.gen_range(-j..=j);
        let dx = rng.gen_range(-j..=j);
        let mut img = self.render(class, dy, dx);
        let noise = self.spec.noise;
        for v in img.data_mut() {
            *v = (*v + rng.gen_range(-noise..=noise)).clamp(0.0, 1.0);
        }
        img
    }

    /// Draws `n` fresh samples from the generating distribution — the
    /// "small amount of clean data" every inference-time defense assumes
    /// (the paper uses 300 entries). Because samples are drawn fresh, `n`
    /// may exceed any stored train/test split size.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero (a defense cannot run on an empty subset).
    pub fn clean_subset(&self, n: usize, rng: &mut impl Rng) -> (Tensor, Vec<usize>) {
        assert!(n > 0, "clean_subset: requested 0 samples");
        let mut images = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let class = rng.gen_range(0..self.spec.num_classes);
            images.push(self.sample(class, rng));
            labels.push(class);
        }
        (Tensor::stack(&images), labels)
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.spec.num_classes
    }

    /// Heap bytes these prototypes keep resident: the bump lists, the
    /// shared-bump assignment and the spec's name. This is the data
    /// component of a serve-cache entry's footprint.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let bumps = self.class_bumps.iter().map(Vec::len).sum::<usize>() + self.shared_bumps.len();
        let assigned = self.shared_assignment.iter().map(Vec::len).sum::<usize>();
        let lists = self.class_bumps.len() + self.shared_assignment.len();
        bumps * size_of::<Bump>()
            + assigned * size_of::<usize>()
            + lists * size_of::<Vec<usize>>()
            + self.spec.name.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec() -> SyntheticSpec {
        SyntheticSpec::cifar10().with_size(16)
    }

    #[test]
    fn prototypes_are_stable_and_bounded() {
        let mut rng = StdRng::seed_from_u64(0);
        let p = ClassPrototypes::new(&spec(), &mut rng);
        let a = p.prototype(3);
        let b = p.prototype(3);
        assert_eq!(a.data(), b.data(), "prototype must be deterministic");
        assert!(a.min() >= 0.0 && a.max() <= 1.0);
    }

    #[test]
    fn different_classes_differ() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = ClassPrototypes::new(&spec(), &mut rng);
        let a = p.prototype(0);
        let b = p.prototype(5);
        assert!(a.sub(&b).l2_norm() > 0.5, "prototypes too similar");
    }

    #[test]
    fn adjacent_classes_share_features() {
        // With shared bumps, class c and c+1 are closer on average than
        // class c and c+5 — the cat/dog effect.
        let mut rng = StdRng::seed_from_u64(2);
        let s = SyntheticSpec::gtsrb().with_size(16);
        let p = ClassPrototypes::new(&s, &mut rng);
        let mut near = 0.0f64;
        let mut far = 0.0f64;
        let mut count = 0;
        for c in 0..20 {
            near += p.prototype(c).sub(&p.prototype(c + 1)).l2_norm() as f64;
            far += p.prototype(c).sub(&p.prototype(c + 21)).l2_norm() as f64;
            count += 1;
        }
        // Not a strict per-pair property, only on average.
        assert!(
            near / count as f64 <= far / count as f64 * 1.3,
            "shared features missing: near={near} far={far}"
        );
    }

    #[test]
    fn samples_are_noisy_variants_of_prototype() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = ClassPrototypes::new(&spec(), &mut rng);
        let proto = p.prototype(2);
        let sample = p.sample(2, &mut rng);
        let d_same = sample.sub(&proto).l2_norm();
        let d_other = sample.sub(&p.prototype(7)).l2_norm();
        assert!(d_same < d_other, "sample must stay near its class");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_class() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = ClassPrototypes::new(&spec(), &mut rng);
        let _ = p.prototype(99);
    }
}
