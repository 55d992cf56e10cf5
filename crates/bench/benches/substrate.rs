//! Micro-benchmarks of the numerical substrate: the kernels every defense
//! iterates over (convolution, matmul, SSIM, DeepFool step), plus the
//! thread-scaling of the parallel per-class detector
//! (`substrate/usb_inspect_workers{1,4}` — compare the two to see the
//! speedup the worker pool buys on your hardware).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;
use usb_core::{deepfool, DeepfoolConfig, UsbDetector};
use usb_defenses::Defense;
use usb_nn::optim::TensorAdam;
use usb_tensor::conv::{
    conv2d_backward_ws, conv2d_forward_ws, depthwise_forward_ws, depthwise_input_backward_ws,
    ConvSpec,
};
use usb_tensor::panel::GemmWeight;
use usb_tensor::ssim::{ssim, ssim_with_grad, ssim_with_grad_ws};
use usb_tensor::{init, ops, par, Dtype, QTensor, Tensor, Workspace};

fn configure(c: &mut Criterion) -> &mut Criterion {
    c
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let a = init::uniform(&[64, 128], -1.0, 1.0, &mut rng);
    let b = init::uniform(&[128, 64], -1.0, 1.0, &mut rng);
    c.bench_function("substrate/matmul_64x128x64", |bench| {
        bench.iter(|| black_box(ops::matmul(&a, &b)))
    });
    // The packed-panel route against the strided B^T kernel on the same
    // x·Wᵀ product a `Linear::infer` performs: the layer's weight builds
    // its k-major panel once, so the steady state is a pure unit-stride
    // GEMM.
    let w = init::uniform(&[64, 128], -0.2, 0.2, &mut rng);
    let mut y = vec![0.0f32; 64 * 64];
    c.bench_function("substrate/gemm_xwt_unpacked_64x128x64", |bench| {
        bench.iter(|| {
            ops::matmul_transb_into(a.data(), w.data(), 64, 128, 64, &mut y);
            black_box(y[0]);
        })
    });
    let gw = GemmWeight::new(w.clone());
    c.bench_function("substrate/gemm_xwt_packed_64x128x64", |bench| {
        bench.iter(|| {
            ops::matmul_into(a.data(), gw.kmajor(), 64, 128, 64, &mut y);
            black_box(y[0]);
        })
    });
    // What a quantized layer pays once per weight version: decode the Q8
    // blocks and transpose them into the k-major panel (`state_mut` drops
    // the previous panel, so every iteration rebuilds it).
    let mut gq = GemmWeight::new(w);
    gq.quantize(Dtype::Q8);
    c.bench_function("substrate/panel_build_q8_64x128", |bench| {
        bench.iter(|| {
            let _ = gq.state_mut();
            black_box(gq.kmajor()[0]);
        })
    });
}

/// The refine-loop elementwise ops the SIMD tier covers beyond the GEMMs:
/// the UAP-update axpy, one Adam step, and the Q8 block decoder feeding
/// the quantized layers' panels — measured so the non-GEMM wins are numbers,
/// not assertions.
fn bench_elementwise(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let n = 16 * 1024;
    let x = init::uniform(&[n], -1.0, 1.0, &mut rng);
    let mut y = init::uniform(&[n], -1.0, 1.0, &mut rng);
    c.bench_function("substrate/axpy_16k", |bench| {
        bench.iter(|| {
            y.axpy(black_box(0.25), &x);
            black_box(y.data()[0]);
        })
    });
    let grad = init::uniform(&[n], -0.5, 0.5, &mut rng);
    let mut param = init::uniform(&[n], -1.0, 1.0, &mut rng);
    let mut adam = TensorAdam::new(0.05).with_betas(0.5, 0.9);
    c.bench_function("substrate/adam_step_16k", |bench| {
        bench.iter(|| {
            adam.step(&mut [&mut param], &[&grad]);
            black_box(param.data()[0]);
        })
    });
    let q = QTensor::quantize(&x, Dtype::Q8);
    let mut out = vec![0.0f32; n];
    c.bench_function("substrate/q8_decode_16k", |bench| {
        bench.iter(|| {
            q.dequantize_into(&mut out);
            black_box(out[0]);
        })
    });
}

fn bench_conv(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let x = init::uniform(&[8, 16, 12, 12], 0.0, 1.0, &mut rng);
    let w = init::uniform(&[16, 16, 3, 3], -0.2, 0.2, &mut rng);
    let spec = ConvSpec::new(1, 1);
    // Cold workspaces: every call allocates its scratch, as a one-off
    // caller's would (`conv2d_forward_warm_ws` below is the warm twin).
    c.bench_function("substrate/conv2d_forward_b8c16", |bench| {
        bench.iter(|| black_box(conv2d_forward_ws(&x, &w, None, spec, &mut Workspace::new())))
    });
    let out = conv2d_forward_ws(&x, &w, None, spec, &mut Workspace::new());
    let go = Tensor::ones(out.shape());
    c.bench_function("substrate/conv2d_backward_b8c16", |bench| {
        bench.iter(|| black_box(conv2d_backward_ws(&x, &w, &go, spec, &mut Workspace::new())))
    });
}

/// Depthwise forward and input-backward at EfficientNet-B0's three
/// depthwise geometries (stage 1 k3s1, stage 2 k3s2, stage 3 k5s2) with a
/// warm workspace, as the refine and DeepFool loops call them.
fn bench_depthwise(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    for &(ch, hw, k, stride, name) in &[
        (6, 20, 3, 1, "b16c6_20x20_k3s1"),
        (24, 20, 3, 2, "b16c24_20x20_k3s2"),
        (48, 10, 5, 2, "b16c48_10x10_k5s2"),
    ] {
        let x = init::uniform(&[16, ch, hw, hw], -1.0, 1.0, &mut rng);
        let w = init::uniform(&[ch, 1, k, k], -0.5, 0.5, &mut rng);
        let spec = ConvSpec::new(stride, k / 2);
        let mut ws = Workspace::new();
        c.bench_function(&format!("substrate/depthwise_fwd_{name}"), |bench| {
            bench.iter(|| {
                let out = depthwise_forward_ws(&x, &w, None, spec, &mut ws);
                black_box(out.data()[0]);
                ws.recycle(out);
            })
        });
        let out = depthwise_forward_ws(&x, &w, None, spec, &mut ws);
        let go = out.map(|v| 0.1 * v);
        c.bench_function(&format!("substrate/depthwise_bwd_{name}"), |bench| {
            bench.iter(|| {
                let gi = depthwise_input_backward_ws(&w, &go, hw, hw, spec, &mut ws);
                black_box(gi.data()[0]);
                ws.recycle(gi);
            })
        });
    }
}

fn bench_ssim(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let x = init::uniform(&[16, 3, 12, 12], 0.0, 1.0, &mut rng);
    let y = init::uniform(&[16, 3, 12, 12], 0.0, 1.0, &mut rng);
    c.bench_function("substrate/ssim_b16", |bench| {
        bench.iter(|| black_box(ssim(&x, &y)))
    });
    c.bench_function("substrate/ssim_with_grad_b16", |bench| {
        bench.iter(|| black_box(ssim_with_grad(&x, &y)))
    });
    c.bench_function("substrate/ssim_with_grad_warm_ws_b16", |bench| {
        let mut ws = Workspace::new();
        bench.iter(|| {
            let (val, grad) = ssim_with_grad_ws(&x, &y, &mut ws);
            black_box(val);
            ws.recycle(grad);
        })
    });
    // The Table 7 EfficientNet refine shape: 48 planes of 20×20, 10×10
    // valid outputs per 11×11 window.
    let x = init::uniform(&[16, 3, 20, 20], 0.0, 1.0, &mut rng);
    let y = init::uniform(&[16, 3, 20, 20], 0.0, 1.0, &mut rng);
    c.bench_function("substrate/ssim_b16c3_20x20", |bench| {
        bench.iter(|| black_box(ssim(&x, &y)))
    });
    c.bench_function("substrate/ssim_with_grad_warm_ws_b16c3_20x20", |bench| {
        let mut ws = Workspace::new();
        bench.iter(|| {
            let (val, grad) = ssim_with_grad_ws(&x, &y, &mut ws);
            black_box(val);
            ws.recycle(grad);
        })
    });
}

/// The allocation win of the inference path, measured instead of
/// asserted: `infer` on a trained victim with a workspace kept warm across
/// calls against one recreated cold every call, plus the Q8 twin of the
/// warm case.
fn bench_infer(c: &mut Criterion) {
    let fixture = usb_bench::cifar_resnet_badnet();
    let batch: Vec<Tensor> = (0..16).map(|i| fixture.clean_x.index_axis0(i)).collect();
    let batch = Tensor::stack(&batch);
    c.bench_function("substrate/infer_warm_ws_b16", |bench| {
        let mut ws = Workspace::new();
        bench.iter(|| {
            let victim = &fixture.victim;
            let logits = victim.model.infer(&batch, &mut ws);
            let class = black_box(ops::argmax_rows(&logits));
            ws.recycle(logits); // keep the steady state allocation-free
            class
        })
    });
    // The quantized twin of the warm case: weights stored as Q8 blocks,
    // decoded into the layers' panels on the first batch — compare with
    // `infer_warm_ws_b16` to see the steady-state cost of low-precision
    // storage (it should be within noise of the f32 route).
    c.bench_function("substrate/infer_warm_q8_b16", |bench| {
        let mut qmodel = fixture.victim.model.clone();
        qmodel.quantize_weights(Dtype::Q8);
        let mut ws = Workspace::new();
        bench.iter(|| {
            let logits = qmodel.infer(&batch, &mut ws);
            let class = black_box(ops::argmax_rows(&logits));
            ws.recycle(logits);
            class
        })
    });
    c.bench_function("substrate/infer_cold_ws_b16", |bench| {
        bench.iter(|| {
            let victim = &fixture.victim;
            let mut ws = Workspace::new();
            black_box(victim.model.infer(&batch, &mut ws))
        })
    });
    // The same warm/cold comparison on the raw conv kernel, without the
    // network plumbing on top.
    let mut rng = StdRng::seed_from_u64(3);
    let x = init::uniform(&[8, 16, 12, 12], 0.0, 1.0, &mut rng);
    let w = init::uniform(&[16, 16, 3, 3], -0.2, 0.2, &mut rng);
    let spec = ConvSpec::new(1, 1);
    c.bench_function("substrate/conv2d_forward_warm_ws", |bench| {
        let mut ws = Workspace::new();
        bench.iter(|| {
            let out = conv2d_forward_ws(&x, &w, None, spec, &mut ws);
            black_box(out.data()[0]);
            ws.recycle(out);
        })
    });
}

fn bench_deepfool(c: &mut Criterion) {
    let fixture = usb_bench::cifar_resnet_badnet();
    let x = fixture.clean_x.index_axis0(0);
    c.bench_function("substrate/deepfool_single_image", |bench| {
        bench.iter(|| {
            let victim = &fixture.victim;
            black_box(deepfool(&victim.model, &x, 1, DeepfoolConfig::default()))
        })
    });
}

fn bench_par_map(c: &mut Criterion) {
    // Fan-out overhead of the worker pool on a CPU-bound item, relative to
    // the inline (1-worker) path.
    let items: Vec<u64> = (0..64).collect();
    let work = |_: usize, &x: &u64| -> u64 {
        let mut acc = x;
        for i in 0..20_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        acc
    };
    c.bench_function("substrate/par_map_64items_1worker", |bench| {
        bench.iter(|| black_box(par::par_map(1, &items, work)))
    });
    let n = par::worker_threads();
    c.bench_function("substrate/par_map_64items_nworkers", |bench| {
        bench.iter(|| black_box(par::par_map(n, &items, work)))
    });
}

/// Whole-detector throughput at a pinned worker count: the per-class scan
/// (10 classes, Alg. 1 + Alg. 2 each) on the Table 1 fixture. The
/// acceptance number for the parallel engine is the ratio of the `workers1`
/// and `workers4` runs — on a ≥ 4-core machine the 4-worker case should be
/// at least 2× faster, while verdicts stay bit-identical (enforced by
/// `tests/determinism.rs`).
fn bench_detector_scaling(c: &mut Criterion) {
    let fixture = usb_bench::cifar_resnet_badnet();
    for workers in [1usize, 4] {
        c.bench_function(
            &format!("substrate/usb_inspect_workers{workers}"),
            |bench| {
                bench.iter(|| {
                    let victim = &fixture.victim;
                    let mut rng = StdRng::seed_from_u64(7);
                    black_box(UsbDetector::fast_with_workers(workers).inspect(
                        &victim.model,
                        &fixture.clean_x,
                        &mut rng,
                    ))
                })
            },
        );
    }
}

fn benches(c: &mut Criterion) {
    let c = configure(c);
    bench_matmul(c);
    bench_elementwise(c);
    bench_conv(c);
    bench_depthwise(c);
    bench_ssim(c);
    bench_par_map(c);
    bench_infer(c);
    bench_deepfool(c);
}

fn detector_benches(c: &mut Criterion) {
    bench_detector_scaling(c);
}

criterion_group! {
    name = substrate;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = benches
}
// One inspection is seconds of work: keep the sample count low so the
// scaling comparison stays runnable as part of a normal bench sweep.
criterion_group! {
    name = detector;
    config = Criterion::default()
        .sample_size(3)
        .warm_up_time(Duration::from_millis(1))
        .measurement_time(Duration::from_secs(3));
    targets = detector_benches
}
criterion_main!(substrate, detector);
