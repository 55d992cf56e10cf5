//! Pins the zero-allocation contract of the shared trigger optimiser: once
//! the workspace pool and the Adam state are warm, an optimisation step —
//! under USB's Alg. 2 objective (`refine_uap`), Neural Cleanse's and
//! TABOR's — performs **no heap allocations at all**: every per-step
//! tensor is drawn from, and recycled back into, the reused `Workspace`.
//! The refine cases run on f32, f16 and q8 weights alike: a quantized
//! layer decodes its GEMM panels once and reads them on every later step.
//!
//! The proof is a counting global allocator: two optimisation runs that
//! differ only in their step count must allocate exactly the same number
//! of times, because the extra steps are all steady-state.
//!
//! An Alg. 1 pass is held to the same contract: a `targeted_uap` run with
//! one more sweep allocates exactly as often, on every weight dtype. And
//! forward-only passes are held to it call by call: once the workspace is
//! warm, `Network::infer` allocates nothing, on every architecture and
//! weight dtype.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::SeedableRng;
use usb_core::{refine_uap, targeted_uap, RefineConfig, UapConfig};
use usb_defenses::{Defense, NcConfig, NeuralCleanse, Tabor, TaborConfig};
use usb_nn::models::{Architecture, ModelKind, Network};
use usb_tensor::{Dtype, Tensor, Workspace};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting every allocation made on
/// this thread (`try_with`: TLS may already be torn down during thread
/// exit, and those allocations are not ours to count).
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations made on this thread while `f` runs.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(|c| c.get());
    let out = f();
    (ALLOCS.with(|c| c.get()) - before, out)
}

fn allocs_for(steps: usize, model: &Network, images: &Tensor, v: &Tensor) -> u64 {
    let config = RefineConfig {
        steps,
        ..RefineConfig::fast()
    };
    // The result outlives the measurement, so its drops don't shift
    // between runs; sanity-check it did real work.
    let (n, refined) = allocs_in(|| refine_uap(model, images, 0, v, config));
    assert!(refined.final_ssim.is_finite());
    n
}

/// Allocations of one `defense.reverse_class` run (random start, shared
/// loop, final scoring), counted like [`allocs_for`].
fn reverse_allocs(defense: &dyn Defense, model: &Network, images: &Tensor) -> u64 {
    let mut rng = StdRng::seed_from_u64(5);
    let (n, result) = allocs_in(|| defense.reverse_class(model, images, 0, &mut rng));
    assert!(result.l1_norm.is_finite());
    n
}

/// The Neural Cleanse schedule at `steps`, with λ moving every 2 steps so
/// the adaptive schedule runs inside the measured steps.
fn nc_config(steps: usize) -> NcConfig {
    NcConfig {
        steps,
        patience: 2,
        ..NcConfig::fast()
    }
}

fn nc_allocs_for(steps: usize, model: &Network, images: &Tensor, _v: &Tensor) -> u64 {
    reverse_allocs(&NeuralCleanse::new(nc_config(steps)), model, images)
}

fn tabor_allocs_for(steps: usize, model: &Network, images: &Tensor, _v: &Tensor) -> u64 {
    let config = TaborConfig {
        base: nc_config(steps),
        ..TaborConfig::fast()
    };
    reverse_allocs(&Tabor::new(config), model, images)
}

/// Builds `kind` at `input` with its GEMM weights stored as each of f32,
/// f16 and q8, then checks that 6 extra refine steps allocate nothing.
/// A quantized model builds its decoded panels in the warm-up run.
fn assert_steady_state_allocation_free(kind: ModelKind, input: (usize, usize, usize)) {
    for dtype in [Dtype::F32, Dtype::F16, Dtype::Q8] {
        assert_objective_allocation_free(kind, input, dtype, allocs_for);
    }
}

/// Builds `kind` at `input` with `dtype` GEMM weights, then checks that 6
/// extra optimisation steps of `allocs_for`'s objective allocate nothing.
fn assert_objective_allocation_free(
    kind: ModelKind,
    input: (usize, usize, usize),
    dtype: Dtype,
    allocs_for: fn(usize, &Network, &Tensor, &Tensor) -> u64,
) {
    let mut rng = StdRng::seed_from_u64(11);
    let mut model = Architecture::new(kind, input, 6)
        .with_width(4)
        .build(&mut rng);
    model.quantize_weights(dtype);
    let (c, h, w) = input;
    let images = Tensor::from_fn(&[24, c, h, w], |i| 0.5 + 0.4 * ((i as f32) * 0.13).sin());
    let v = Tensor::from_fn(&[c, h, w], |i| 0.3 * ((i as f32) * 0.37).cos());

    // Absorb process-wide one-time initialisation (the thread-local SSIM
    // window cache, lazy formatting machinery) so the two measured runs
    // see identical global state.
    let _ = allocs_for(2, &model, &images, &v);

    // Per-run warm-up (workspace pool growth, Adam state) is confined to
    // the first few steps and identical across runs; any steady-state
    // per-step allocation shows up as a nonzero difference.
    let base = allocs_for(6, &model, &images, &v);
    let longer = allocs_for(12, &model, &images, &v);
    assert_eq!(
        longer,
        base,
        "{kind:?} ({dtype}): 6 extra optimisation steps allocated {} times \
         (steady-state step must draw everything from the workspace)",
        longer.saturating_sub(base)
    );
}

#[test]
fn steady_state_refine_step_allocates_nothing() {
    assert_steady_state_allocation_free(ModelKind::ResNet18, (3, 12, 12));
}

/// The EfficientNet-B0 path adds what ResNet-18 lacks: SiLU's recorded
/// sigmoid frames, depthwise convolutions through the stencil kernels'
/// scratch, and squeeze-excite gating.
#[test]
fn steady_state_efficientnet_refine_step_allocates_nothing() {
    assert_steady_state_allocation_free(ModelKind::EfficientNetB0, (3, 16, 16));
}

/// Neural Cleanse through the shared loop: the random start, the adaptive
/// λ schedule and the per-step success count add nothing per step.
#[test]
fn steady_state_nc_step_allocates_nothing() {
    assert_objective_allocation_free(ModelKind::ResNet18, (3, 12, 12), Dtype::F32, nc_allocs_for);
}

/// TABOR adds its elastic-net and total-variation gradients on top of
/// Neural Cleanse's, all from the same workspace.
#[test]
fn steady_state_tabor_step_allocates_nothing() {
    assert_objective_allocation_free(
        ModelKind::ResNet18,
        (3, 12, 12),
        Dtype::F32,
        tabor_allocs_for,
    );
}

/// Allocations of one `targeted_uap` run of `max_passes` sweeps under an
/// unreachable θ, so every sweep runs, and a tight L∞ budget δ, so samples
/// stay off target and every sweep takes DeepFool steps; also returns the
/// run's DeepFool call count.
fn uap_allocs_for(
    max_passes: usize,
    model: &Network,
    images: &Tensor,
    target: usize,
) -> (u64, usize) {
    let config = UapConfig {
        error_rate: 1.01,
        max_passes,
        linf_budget: 0.02,
        ..UapConfig::fast()
    };
    let (n, result) = allocs_in(|| targeted_uap(model, images, target, config));
    (n, result.deepfool_calls)
}

/// An Alg. 1 pass — per sample the prediction, and per off-target sample
/// the DeepFool steps and the projection of `v` — draws everything from
/// the sweep's workspace and tape: a third pass adds no allocation to a
/// two-pass run, on every architecture and weight dtype.
#[test]
fn warm_uap_pass_allocates_nothing() {
    let kinds = [
        (ModelKind::BasicCnn, (1, 12, 12)),
        (ModelKind::ResNet18, (3, 12, 12)),
        (ModelKind::EfficientNetB0, (3, 16, 16)),
    ];
    for (kind, (c, h, w)) in kinds {
        for dtype in [Dtype::F32, Dtype::F16, Dtype::Q8] {
            let mut model = Architecture::new(kind, (c, h, w), 6)
                .with_width(4)
                .build(&mut StdRng::seed_from_u64(17));
            model.quantize_weights(dtype);
            let images = Tensor::from_fn(&[8, c, h, w], |i| 0.5 + 0.4 * ((i as f32) * 0.29).sin());
            // A class no sample starts in, so every sample takes steps.
            let preds = model.predict(&images);
            let target = (0..6).find(|t| !preds.contains(t)).unwrap();
            // Absorb one-time initialisation (GEMM panels, lazy statics).
            let _ = uap_allocs_for(2, &model, &images, target);
            let (base, base_calls) = uap_allocs_for(2, &model, &images, target);
            let (longer, longer_calls) = uap_allocs_for(3, &model, &images, target);
            assert!(
                longer_calls > base_calls,
                "{kind:?} ({dtype}): the third pass ran no DeepFool ({base_calls} calls)"
            );
            assert_eq!(
                longer,
                base,
                "{kind:?} ({dtype}): a third Alg. 1 pass allocated {} times",
                longer.saturating_sub(base)
            );
        }
    }
}

/// The forward-only passes — every layer's `Pass::Infer` branch, VGG's
/// max pool without its routing table included — draw everything from a
/// warm workspace: each further `infer` call allocates nothing, whatever
/// the architecture and weight dtype.
#[test]
fn warm_forward_only_passes_allocate_nothing() {
    let kinds = [
        (ModelKind::BasicCnn, (1, 12, 12)),
        (ModelKind::ResNet18, (3, 12, 12)),
        (ModelKind::Vgg16, (3, 12, 12)),
        (ModelKind::EfficientNetB0, (3, 16, 16)),
    ];
    for (kind, (c, h, w)) in kinds {
        for dtype in [Dtype::F32, Dtype::F16, Dtype::Q8] {
            let mut model = Architecture::new(kind, (c, h, w), 6)
                .with_width(4)
                .build(&mut StdRng::seed_from_u64(13));
            model.quantize_weights(dtype);
            let images = Tensor::from_fn(&[8, c, h, w], |i| 0.5 + 0.4 * ((i as f32) * 0.29).sin());
            let mut ws = Workspace::new();
            // Warm-up: the layers build their GEMM panels, the pool grows.
            for _ in 0..2 {
                let logits = model.infer(&images, &mut ws);
                ws.recycle(logits);
            }
            for call in 0..5 {
                let (n, logits) = allocs_in(|| model.infer(&images, &mut ws));
                assert_eq!(
                    n, 0,
                    "{kind:?} ({dtype}): warm infer call {call} allocated {n} times"
                );
                ws.recycle(logits);
            }
        }
    }
}
