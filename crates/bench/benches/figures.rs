//! One benchmark per paper figure: the computational kernel behind each
//! visualisation, plus the §4.2 headline statistic and the §4.4 UAP
//! transfer.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use usb_core::{refine_uap, targeted_uap, transfer_uap, RefineConfig, UapConfig};

/// Fig. 1: targeted-UAP generation on backdoored vs clean models (the
/// backdoored one should be markedly cheaper — fewer DeepFool calls).
fn fig1(c: &mut Criterion) {
    let backdoored = usb_bench::cifar_resnet_badnet();
    let clean = usb_bench::cifar_resnet_clean();
    c.bench_function("fig1/uap_backdoored_target", |bench| {
        bench.iter(|| {
            let victim = &backdoored.victim;
            black_box(targeted_uap(
                &victim.model,
                &backdoored.clean_x,
                0,
                UapConfig::fast(),
            ))
        })
    });
    c.bench_function("fig1/uap_clean_model", |bench| {
        bench.iter(|| {
            let victim = &clean.victim;
            black_box(targeted_uap(
                &victim.model,
                &clean.clean_x,
                0,
                UapConfig::fast(),
            ))
        })
    });
}

/// Figs. 2–4 and 6: Alg. 2 refinement (the reconstruction the figures
/// visualise).
fn fig_reconstruction(c: &mut Criterion) {
    let fixture = usb_bench::cifar_resnet_badnet();
    let uap = {
        let victim = &fixture.victim;
        targeted_uap(&victim.model, &fixture.clean_x, 0, UapConfig::fast())
    };
    c.bench_function("fig2_3_4_6/refine_uap", |bench| {
        bench.iter(|| {
            let victim = &fixture.victim;
            black_box(refine_uap(
                &victim.model,
                &fixture.clean_x,
                0,
                &uap.perturbation,
                RefineConfig::fast(),
            ))
        })
    });
}

/// Fig. 5: refinement without the mask constraint (`L = CE − SSIM`).
fn fig5(c: &mut Criterion) {
    let fixture = usb_bench::mnist_resnet_badnet();
    let uap = {
        let victim = &fixture.victim;
        targeted_uap(&victim.model, &fixture.clean_x, 0, UapConfig::fast())
    };
    c.bench_function("fig5/refine_unconstrained", |bench| {
        bench.iter(|| {
            let victim = &fixture.victim;
            black_box(refine_uap(
                &victim.model,
                &fixture.clean_x,
                0,
                &uap.perturbation,
                RefineConfig::fast().without_mask_constraint(),
            ))
        })
    });
}

/// §4.2 headline: backdoored-class UAP vs clean-class UAP on the same
/// victim (size difference is the detection signal).
fn headline(c: &mut Criterion) {
    let fixture = usb_bench::cifar_resnet_badnet();
    c.bench_function("headline/uap_nontarget_class", |bench| {
        bench.iter(|| {
            let victim = &fixture.victim;
            black_box(targeted_uap(
                &victim.model,
                &fixture.clean_x,
                5,
                UapConfig::fast(),
            ))
        })
    });
}

/// §4.4: Alg. 2 on a transferred UAP (skipping Alg. 1 on the new model).
fn transfer(c: &mut Criterion) {
    let source = usb_bench::cifar_resnet_badnet();
    let dest = usb_bench::cifar_resnet_clean();
    let uap = {
        let victim = &source.victim;
        targeted_uap(&victim.model, &source.clean_x, 0, UapConfig::fast())
    };
    c.bench_function("transfer/refine_on_other_model", |bench| {
        bench.iter(|| {
            let victim = &dest.victim;
            black_box(transfer_uap(
                &victim.model,
                &dest.clean_x,
                0,
                &uap.perturbation,
                RefineConfig::fast(),
            ))
        })
    });
}

criterion_group! {
    name = figures;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    targets = fig1, fig_reconstruction, fig5, headline, transfer
}
criterion_main!(figures);
