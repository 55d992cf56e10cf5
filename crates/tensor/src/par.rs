//! Deterministic fan-out/fan-in parallelism on scoped `std::thread`s.
//!
//! The detection pipeline is embarrassingly parallel at several levels —
//! per candidate class inside one inspection, per victim model inside an
//! experiment grid, per batch inside an evaluation pass — but the build
//! environment is offline, so no `rayon`. This module provides the small
//! std-only execution substrate those loops share:
//!
//! * [`par_map`] — apply a function to every item of a slice across a
//!   worker pool, returning results **in input order**. Work is handed out
//!   through an atomic cursor, so long and short items load-balance, yet
//!   each item's result depends only on the item (never on scheduling):
//!   the output is bit-identical at any thread count. Each worker owns one
//!   state, such as its scratch, for all the items it runs.
//! * [`worker_threads`] / [`resolve_workers`] — the thread-count knob.
//!   Callers pass an explicit count from their config, `0` meaning "use
//!   the environment": the `USB_THREADS` variable when set, otherwise
//!   [`std::thread::available_parallelism`].
//!
//! Panics in a worker are propagated to the caller (the scope re-raises
//! them after joining). Once any worker panics, the others stop claiming
//! new items — in-flight items finish, then the panic surfaces, so a
//! failing item costs at most one extra item per worker rather than the
//! whole remaining queue.
//!
//! # Example
//!
//! ```rust
//! use usb_tensor::par;
//!
//! let squares = par::par_map(4, &[1u64, 2, 3, 4, 5], |_: &mut (), _idx, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "USB_THREADS";

thread_local! {
    /// Set while this thread is a `par_map` worker, so nested auto-sized
    /// fan-outs (a grid worker's inspection spawning per-class workers,
    /// which would spawn per-batch workers...) collapse to inline instead
    /// of multiplying threads past the core count.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The default worker count: `USB_THREADS` when set to a positive integer,
/// otherwise the machine's available parallelism (at least 1).
pub fn worker_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a config-supplied worker count: positive values are used as-is,
/// `0` defers to [`worker_threads`] (env var, then hardware) — except on a
/// thread that is itself a [`par_map`] worker, where auto resolves to 1 so
/// nested parallel loops run inline rather than oversubscribing the cores
/// the outer pool already owns. (Results never depend on the count, so the
/// collapse is invisible except in thread accounting.)
pub fn resolve_workers(configured: usize) -> usize {
    if configured > 0 {
        configured
    } else if IN_WORKER.with(Cell::get) {
        1
    } else {
        worker_threads()
    }
}

/// Maps `f` over `items` on up to `workers` scoped threads, preserving
/// input order in the returned vector.
///
/// `f` receives `(&mut state, index, &item)`: each worker builds one
/// `S::default()` (a `Workspace`, say; `()` for none) and passes it to
/// every item it claims, so no item's result may depend on it. Callers
/// derive per-item state (e.g. an RNG stream) from the *position*, which
/// is what makes results independent of how items land on threads. With
/// `workers <= 1` or a single item the map runs inline on the caller's
/// thread — no pool, no overhead — and produces the same output.
///
/// # Panics
///
/// Re-raises a panic observed in a worker; once one worker panics, the
/// others stop claiming new items (in-flight items still complete).
pub fn par_map<T, U, S, F>(workers: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    S: Default,
    F: Fn(&mut S, usize, &T) -> U + Sync,
{
    let workers = resolve_workers(workers).min(items.len());
    if workers <= 1 {
        let mut s = S::default();
        return (0..items.len()).map(|i| f(&mut s, i, &items[i])).collect();
    }
    /// Raises the shared flag if its worker unwinds, so siblings stop
    /// claiming items instead of draining the queue before the caller
    /// sees the panic.
    struct PanicFlag<'a>(&'a std::sync::atomic::AtomicBool);
    impl Drop for PanicFlag<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.store(true, Ordering::Relaxed);
            }
        }
    }
    // One slot per item; workers claim items through the cursor and write
    // results straight into their slots, so fan-in is a plain unwrap sweep
    // in input order.
    let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let panicked = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                IN_WORKER.with(|w| w.set(true));
                let _guard = PanicFlag(&panicked);
                let mut state = S::default();
                loop {
                    if panicked.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let result = f(&mut state, i, &items[i]);
                    *slots[i].lock().expect("par_map: poisoned result slot") = Some(result);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("par_map: poisoned result slot")
                .expect("par_map: missing result (worker died)")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = par_map(4, &[] as &[u32], |_: &mut (), _, &x| x + 1);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        let out = par_map(8, &[41u32], |_: &mut (), i, &x| (i, x + 1));
        assert_eq!(out, vec![(0, 42)]);
    }

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        // Skew the per-item cost so a racy fan-in would scramble results.
        let out = par_map(4, &items, |_: &mut (), idx, &x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            assert_eq!(idx, x, "index must match the item's position");
            x * 10
        });
        let expected: Vec<usize> = (0..100).map(|x| x * 10).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn matches_sequential_at_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(2654435761)).collect();
        for workers in [1, 2, 3, 4, 8] {
            let par = par_map(workers, &items, |_: &mut (), _, &x| {
                x.wrapping_mul(2654435761)
            });
            assert_eq!(par, seq, "workers={workers}");
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            par_map(2, &[1u32, 2, 3, 4], |_: &mut (), _, &x| {
                if x == 3 {
                    panic!("boom at {x}");
                }
                x
            })
        });
        assert!(result.is_err(), "a worker panic must reach the caller");
    }

    #[test]
    fn resolve_workers_prefers_explicit_count() {
        assert_eq!(resolve_workers(3), 3);
        assert!(resolve_workers(0) >= 1);
    }

    #[test]
    fn nested_auto_fanout_collapses_to_inline() {
        // Inside a worker, auto-sized (0) resolution must come back 1 so a
        // nested par_map runs inline; an explicit count is still honored.
        let resolved = par_map(2, &[(); 4], |_: &mut (), _, _| {
            (resolve_workers(0), resolve_workers(3))
        });
        for &(auto, explicit) in &resolved {
            assert_eq!(auto, 1, "auto must collapse inside a worker");
            assert_eq!(explicit, 3, "explicit counts are honored");
        }
        // Back on the caller's thread, auto resolution is restored.
        assert!(resolve_workers(0) >= 1);
    }

    #[test]
    fn each_worker_keeps_one_state_for_all_its_items() {
        // The state counts the items its worker ran, so a state built per
        // item would read 1 every time; each worker reads 1 exactly once.
        let inline = par_map(1, &[(); 40], |seen: &mut usize, _, _| {
            *seen += 1;
            *seen
        });
        assert_eq!(inline, (1..=40).collect::<Vec<_>>());
        let pooled = par_map(2, &[(); 40], |seen: &mut usize, _, _| {
            *seen += 1;
            *seen
        });
        let states = pooled.iter().filter(|&&n| n == 1).count();
        assert!((1..=2).contains(&states), "{states} states for 2 workers");
    }

    #[test]
    fn worker_threads_is_positive() {
        assert!(worker_threads() >= 1);
    }
}
