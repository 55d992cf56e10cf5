//! Layer probes of the traced run: each layer's public functions called
//! on the workload's own victim and shapes, every call inside a span.
//! Per-layer metrics are the median span durations.

use crate::run::{push_span_metric, Run};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};
use usb_attacks::persist::read_victim_bytes;
use usb_core::UsbDetector;
use usb_data::Dataset;
use usb_defenses::{ClassResult, Defense, DetectionOutcome, NeuralCleanse, Tabor};
use usb_nn::loss::softmax_cross_entropy_uniform_target_ws;
use usb_nn::models::Network;
use usb_tensor::conv::{conv2d_forward_ws, depthwise_forward_ws, ConvSpec};
use usb_tensor::ssim::ssim_with_grad_ws;
use usb_tensor::{Tape, Tensor, Workspace};

/// Request id the probe spans carry (workload operations use 1 and up).
const PROBE: u64 = 0;
/// Rows of the probe batch: Alg. 2's per-step batch size.
const BATCH: usize = 16;

/// The first `n` rows of a batch.
pub fn head_rows(batch: &Tensor, n: usize) -> Tensor {
    let rows: Vec<Tensor> = (0..n.min(batch.shape()[0]))
        .map(|i| batch.index_axis0(i))
        .collect();
    Tensor::stack(&rows)
}

/// Alg. 1 then Alg. 2 for each of `classes` through
/// `UsbDetector::reverse_class_timed`, whose stage split becomes the
/// `core.uap` and `core.refine` child spans. Uses the per-class rng
/// streams of the reference inspection, so each probed class must
/// reproduce the reference L1 norm bit for bit; a mismatch fails the run.
pub fn core(
    run: &mut Run,
    model: &Network,
    clean: &Tensor,
    class_seeds: &[u64],
    reference: &[ClassResult],
    classes: &[usize],
) {
    let usb = UsbDetector::fast();
    for &t in classes {
        let tracer = &run.tracer;
        let l1 = tracer.span("core.reverse_class", None, PROBE, |parent| {
            let mut rng = StdRng::seed_from_u64(class_seeds[t]);
            let t0 = Instant::now();
            let (result, stages) = usb.reverse_class_timed(model, clean, t, &mut rng);
            let t1 = t0 + Duration::from_secs_f64(stages.uap);
            tracer.record("core.uap", parent, PROBE, t0, t1);
            let t2 = t1 + Duration::from_secs_f64(stages.refine);
            tracer.record("core.refine", parent, PROBE, t1, t2);
            result.l1_norm
        });
        run.outcome
            .check(l1.to_bits() == reference[t].l1_norm.to_bits());
    }
}

/// `UsbDetector::inspect` at the inspection seed `seed`, in a
/// `core.inspect` span. Its outcome must equal `expected`, the same
/// inspection run class by class, bit for bit.
pub fn inspect(
    run: &mut Run,
    model: &Network,
    data: &Dataset,
    seed: u64,
    expected: &DetectionOutcome,
) {
    let outcome = run.tracer.span("core.inspect", None, PROBE, |_| {
        let mut rng = StdRng::seed_from_u64(seed);
        let (clean, _) = data.clean_subset(crate::victims::SUBSET, &mut rng);
        UsbDetector::fast().inspect(model, &clean, &mut rng)
    });
    let same = outcome.flagged == expected.flagged
        && outcome
            .per_class
            .iter()
            .zip(&expected.per_class)
            .all(|(a, b)| a.l1_norm.to_bits() == b.l1_norm.to_bits());
    run.outcome.check(same);
}

/// Forward and input-gradient passes on a batch of Alg. 2's shape: cold
/// (fresh workspace, so weight panels are packed or dequantized) and warm.
pub fn nn(run: &Run, models: &[&Network], batch: &Tensor, target: usize) {
    let tracer = &run.tracer;
    for &model in models {
        for _ in 0..3 {
            let mut ws = Workspace::new();
            black_box(tracer.span("nn.infer_first", None, PROBE, |_| {
                model.infer(batch, &mut ws)
            }));
        }
        let mut ws = Workspace::new();
        let mut tape = Tape::new();
        let ce = |logits: &Tensor, ws: &mut Workspace| {
            softmax_cross_entropy_uniform_target_ws(logits, target, ws).1
        };
        for rep in 0..11 {
            // The first call of each kind warms the workspace and tape.
            let name = if rep == 0 { "nn.warmup" } else { "nn.infer" };
            let logits = tracer.span(name, None, PROBE, |_| model.infer(batch, &mut ws));
            ws.recycle(black_box(logits));
            let name = if rep == 0 {
                "nn.warmup"
            } else {
                "nn.input_grad"
            };
            let (logits, grad) = tracer.span(name, None, PROBE, |_| {
                model.input_grad_in(batch, ce, &mut tape, &mut ws)
            });
            ws.recycle(logits);
            ws.recycle(black_box(grad));
        }
    }
}

/// Kernel calls: SSIM with gradient on the probe batch, the depthwise
/// convolution at EfficientNet-B0's largest depthwise input (stage 2:
/// 24 channels, 20×20, 3×3, stride 2) and the dense convolution at
/// ResNet-18's widest layer (32→32 channels, 2×2, 3×3).
pub fn tensor(run: &Run, batch: &Tensor) {
    let tracer = &run.tracer;
    let mut ws = Workspace::new();
    let other = batch.map(|v| 0.9 * v + 0.05);
    for _ in 0..20 {
        let (_, grad) = tracer.span("tensor.ssim_grad", None, PROBE, |_| {
            ssim_with_grad_ws(batch, &other, &mut ws)
        });
        ws.recycle(black_box(grad));
    }
    let signal = |i: usize| ((i as f32) * 0.37).sin();
    let dw_in = Tensor::from_fn(&[BATCH, 24, 20, 20], signal);
    let dw_w = Tensor::from_fn(&[24, 1, 3, 3], signal);
    for _ in 0..20 {
        let out = tracer.span("tensor.depthwise_fwd", None, PROBE, |_| {
            depthwise_forward_ws(&dw_in, &dw_w, None, ConvSpec::new(2, 1), &mut ws)
        });
        ws.recycle(black_box(out));
    }
    let cv_in = Tensor::from_fn(&[BATCH, 32, 2, 2], signal);
    let cv_w = Tensor::from_fn(&[32, 32, 3, 3], signal);
    for _ in 0..50 {
        let out = tracer.span("tensor.conv2d_fwd", None, PROBE, |_| {
            conv2d_forward_ws(&cv_in, &cv_w, None, ConvSpec::new(1, 1), &mut ws)
        });
        ws.recycle(black_box(out));
    }
}

/// Clean-subset draws from the workload's dataset.
pub fn clean_subset(run: &Run, data: &Dataset, seed: u64) {
    for i in 0..10 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i));
        black_box(run.tracer.span("data.clean_subset", None, PROBE, |_| {
            data.clean_subset(crate::victims::SUBSET, &mut rng)
        }));
    }
}

/// Bundle decoding at each storage precision (`bundles` in
/// [`crate::victims::DTYPES`] order). A bundle that fails to decode fails
/// the run.
pub fn read_victim(run: &mut Run, bundles: &[Vec<u8>]) {
    const NAMES: [&str; 3] = [
        "attacks.read_victim_f32",
        "attacks.read_victim_f16",
        "attacks.read_victim_q8",
    ];
    for (name, bytes) in NAMES.into_iter().zip(bundles) {
        for _ in 0..5 {
            let parsed = run
                .tracer
                .span(name, None, PROBE, |_| read_victim_bytes(bytes));
            run.outcome.check(parsed.is_ok());
        }
    }
}

/// The Table 7 baselines, one class at a time as the paper measures them.
pub fn defenses(run: &Run, model: &Network, clean: &Tensor, classes: &[usize], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (nc, tabor) = (NeuralCleanse::fast(), Tabor::fast());
    for &t in classes {
        black_box(run.tracer.span("defenses.nc", None, PROBE, |_| {
            nc.reverse_class(model, clean, t, &mut rng)
        }));
        black_box(run.tracer.span("defenses.tabor", None, PROBE, |_| {
            tabor.reverse_class(model, clean, t, &mut rng)
        }));
    }
}

/// Pushes every span-derived per-layer metric except the serve layer's.
///
/// # Errors
///
/// Fails when a probe recorded no span.
pub fn push_metrics(run: &mut Run) -> Result<(), String> {
    const TABLE: [(&str, &str, f64, &str); 16] = [
        ("core.uap_s", "core.uap", 1e-3, "s"),
        ("core.refine_s", "core.refine", 1e-3, "s"),
        ("core.inspect_ms", "core.inspect", 1.0, "ms"),
        ("nn.infer_ms", "nn.infer", 1.0, "ms"),
        ("nn.input_grad_ms", "nn.input_grad", 1.0, "ms"),
        ("nn.infer_first_ms", "nn.infer_first", 1.0, "ms"),
        ("tensor.ssim_grad_us", "tensor.ssim_grad", 1e3, "us"),
        ("tensor.depthwise_fwd_us", "tensor.depthwise_fwd", 1e3, "us"),
        ("tensor.conv2d_fwd_us", "tensor.conv2d_fwd", 1e3, "us"),
        ("data.generate_ms", "data.generate", 1.0, "ms"),
        ("data.clean_subset_ms", "data.clean_subset", 1.0, "ms"),
        (
            "attacks.read_victim_f32_ms",
            "attacks.read_victim_f32",
            1.0,
            "ms",
        ),
        (
            "attacks.read_victim_f16_ms",
            "attacks.read_victim_f16",
            1.0,
            "ms",
        ),
        (
            "attacks.read_victim_q8_ms",
            "attacks.read_victim_q8",
            1.0,
            "ms",
        ),
        ("defenses.nc_s_per_class", "defenses.nc", 1e-3, "s"),
        ("defenses.tabor_s_per_class", "defenses.tabor", 1e-3, "s"),
    ];
    for (metric, span, scale, unit) in TABLE {
        push_span_metric(run, metric, span, scale, unit)?;
    }
    Ok(())
}

/// `host.calib_ms`: the median wall time of the run's calibration kernels
/// (see [`crate::calib`]), the host speed the end-to-end timings were
/// rescaled from.
///
/// # Errors
///
/// Fails when no calibration was taken.
pub fn push_calibration(run: &mut Run, samples: &[f64]) -> Result<(), String> {
    let ms = crate::run::median_of("host.calib_ms", samples)? * 1e3;
    run.outcome.push("host.calib_ms", ms, "ms");
    Ok(())
}
