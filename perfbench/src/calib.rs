//! Host-speed calibration of the end-to-end timings.
//!
//! The benchmark shares a machine whose floating-point throughput swings
//! by up to 1.8× within a minute (neighbours compete for the same cores).
//! Raw wall times therefore spread more between runs of the same code
//! than the bounds a regression check needs. Each timed operation is
//! bracketed by a fixed calibration kernel — a naive f32 matrix product
//! that belongs to the benchmark, so no change to the workspace can move
//! it — and its duration is rescaled to a host on which the kernel takes
//! [`REFERENCE_S`]:
//!
//! ```text
//! reference seconds = wall seconds × REFERENCE_S / mean(kernel before, kernel after)
//! ```
//!
//! On a 2-core avx2 host, over 300 s of back-to-back EfficientNet class
//! reversals, the medians of windows of 10 to 30 reversals spread
//! (q3 − q1) / median 0.14 to 0.22 raw and 0.03 to 0.04 rescaled. The
//! kernel is float arithmetic, like the workloads.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Seconds the kernel takes on one core of the 2-core avx2 reference host
/// in its fast periods (it takes up to twice as long in slow ones), so
/// reference seconds read close to wall seconds there.
pub const REFERENCE_S: f64 = 0.030;
/// Side of the square matrices the kernel multiplies.
const N: usize = 128;
/// Products per kernel call.
const REPS: usize = 120;
/// A calibration this recent still describes the host before the next
/// operation.
const FRESH: Duration = Duration::from_millis(50);

/// Wall seconds of one calibration kernel on the calling thread.
pub fn kernel_s() -> f64 {
    let a = vec![1.0001f32; N * N];
    let b = vec![0.9999f32; N * N];
    let mut c = vec![0.0f32; N * N];
    let t0 = Instant::now();
    for _ in 0..REPS {
        let (a, b) = (black_box(&a), black_box(&b));
        for i in 0..N {
            for k in 0..N {
                let av = a[i * N + k];
                for (cj, bj) in c[i * N..(i + 1) * N].iter_mut().zip(&b[k * N..(k + 1) * N]) {
                    *cj += av * bj;
                }
            }
        }
        black_box(&mut c);
    }
    t0.elapsed().as_secs_f64()
}

/// Mean wall seconds of `threads` kernels run at once, one per thread, so
/// an operation that keeps `threads` cores busy is compared with the
/// speed of as many cores.
pub fn sample(threads: usize) -> f64 {
    if threads <= 1 {
        return kernel_s();
    }
    let total: f64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(kernel_s)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration kernel panicked"))
            .sum()
    });
    total / threads as f64
}

/// Times operations in reference seconds.
#[derive(Debug)]
pub struct Clock {
    threads: usize,
    /// The latest calibration and when it ended.
    last: Option<(Instant, f64)>,
    /// Every calibration taken, in wall seconds.
    samples: Vec<f64>,
}

impl Clock {
    /// A clock for operations that keep `threads` cores busy.
    pub fn new(threads: usize) -> Clock {
        Clock {
            threads: threads.max(1),
            last: None,
            samples: Vec::new(),
        }
    }

    /// Runs `op` between two calibrations; returns its output and its
    /// duration in reference seconds. A calibration that ended less than
    /// [`FRESH`] ago serves as the one before, so back-to-back operations
    /// share the kernel run between them.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> (T, f64) {
        let before = match self.last {
            Some((at, s)) if at.elapsed() < FRESH => s,
            _ => self.calibrate(),
        };
        let t0 = Instant::now();
        let out = op();
        let wall = t0.elapsed().as_secs_f64();
        let after = self.calibrate();
        (out, rescale(wall, before, after))
    }

    /// Calibration samples taken so far, in wall seconds.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    fn calibrate(&mut self) -> f64 {
        let s = sample(self.threads);
        self.samples.push(s);
        self.last = Some((Instant::now(), s));
        s
    }
}

/// `wall` seconds measured between calibrations `before` and `after`, in
/// reference seconds.
pub fn rescale(wall: f64, before: f64, after: f64) -> f64 {
    wall * REFERENCE_S * 2.0 / (before + after)
}
