//! One benchmark group per paper table: the per-class detection cost of
//! NC, TABOR, and USB in each table's (dataset, architecture, attack)
//! setting. These regenerate the *computational* content of Tables 1–6 and
//! directly measure Table 7 (per-class wall-clock, where the paper reports
//! NC ≈ 23 min, TABOR ≈ 35–48 min, USB ≈ 4.5 min per class on GPU — the
//! ordering and ~5–8× gap are the reproduced claims).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;
use usb_bench::Fixture;
use usb_core::UsbDetector;
use usb_defenses::{Defense, NeuralCleanse, Tabor};

/// Benches all three defenses reverse-engineering class 0 on `fixture`.
fn bench_suite(c: &mut Criterion, group: &str, fixture: &'static Fixture) {
    let nc = NeuralCleanse::fast();
    let tabor = Tabor::fast();
    let usb = UsbDetector::fast();
    let defenses: Vec<(&str, Box<dyn Defense>)> = vec![
        ("nc", Box::new(nc)),
        ("tabor", Box::new(tabor)),
        ("usb", Box::new(usb)),
    ];
    for (name, defense) in defenses {
        c.bench_function(&format!("{group}/reverse_class_{name}"), |bench| {
            bench.iter(|| {
                let mut rng = StdRng::seed_from_u64(0);
                let victim = &fixture.victim;
                black_box(defense.reverse_class(&victim.model, &fixture.clean_x, 0, &mut rng))
            })
        });
    }
}

fn table1(c: &mut Criterion) {
    bench_suite(c, "table1_cifar_resnet", usb_bench::cifar_resnet_badnet());
}

fn table2(c: &mut Criterion) {
    bench_suite(
        c,
        "table2_imagenet_efficientnet",
        usb_bench::imagenet_efficientnet_badnet(),
    );
}

fn table3(c: &mut Criterion) {
    bench_suite(c, "table3_vgg_iad", usb_bench::cifar_vgg_iad());
}

fn table4(c: &mut Criterion) {
    bench_suite(c, "table4_vgg_badnet", usb_bench::cifar_vgg_badnet());
}

fn table5(c: &mut Criterion) {
    bench_suite(c, "table5_mnist_resnet", usb_bench::mnist_resnet_badnet());
}

fn table6(c: &mut Criterion) {
    bench_suite(c, "table6_gtsrb_resnet", usb_bench::gtsrb_resnet_badnet());
}

/// Table 7 is exactly the per-class timing of the table 2 setting; bench
/// the USB pipeline separately from its two phases for the breakdown.
fn table7(c: &mut Criterion) {
    let fixture = usb_bench::imagenet_efficientnet_badnet();
    c.bench_function("table7_timing/usb_full_class", |bench| {
        bench.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            let usb = UsbDetector::fast();
            let victim = &fixture.victim;
            black_box(usb.reverse_class(&victim.model, &fixture.clean_x, 1, &mut rng))
        })
    });
}

criterion_group! {
    name = tables;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    targets = table1, table2, table3, table4, table5, table6, table7
}
criterion_main!(tables);
