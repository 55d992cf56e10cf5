//! Request schedules: which bundle and inspection seed the k-th request
//! of a run carries. Both are pure functions of the workload seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded shuffle of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// Bundle of the k-th request under a rotation through `order`, a
/// permutation of the bundle indices. With at least two bundles,
/// consecutive requests never carry the same bundle, so a cache that
/// holds one entry misses on every request.
pub fn rotation(order: &[usize], k: u64) -> usize {
    order[(k % order.len() as u64) as usize]
}

/// `serve-churn`'s bundle order: the f32 bundle (index 0) first, so every
/// run's first request is the same, then f16 and q8 in a seeded order.
pub fn churn_order(seed: u64) -> Vec<usize> {
    std::iter::once(0)
        .chain(permutation(2, seed).into_iter().map(|i| i + 1))
        .collect()
}
