//! # usb-bench
//!
//! Shared fixtures for the Criterion benchmarks in `benches/`: pre-trained
//! victims for each table's (dataset, architecture, attack) setting, built
//! once per process so each benchmark measures the *detection* algorithm
//! rather than victim training. Victims come through the
//! [`usb_attacks::fixtures`] disk cache (`target/fixtures/`), so across
//! bench invocations each setting trains exactly once and loads bit-exact
//! thereafter.
//!
//! Benchmarks (one group per paper table/figure):
//!
//! * `benches/substrate.rs` — conv / matmul / SSIM / DeepFool kernels.
//! * `benches/tables.rs` — per-class detection cost for every table
//!   setting (Tables 1–7).
//! * `benches/figures.rs` — UAP generation, refinement, and transfer
//!   (Figs. 1–6, headline, §4.4 transfer).

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;
use usb_attacks::fixtures::{cached_victim, FixtureSpec};
use usb_attacks::{Attack, BadNet, IadAttack, Victim};
use usb_data::{Dataset, SyntheticSpec};
use usb_nn::models::{Architecture, ModelKind};
use usb_nn::train::TrainConfig;
use usb_tensor::Tensor;

/// A victim plus the clean data handed to defenses — everything a
/// detection benchmark needs.
pub struct Fixture {
    /// The trained victim.
    pub victim: Victim,
    /// Clean defense data `[N, C, H, W]`.
    pub clean_x: Tensor,
    /// The generating dataset (for extra sampling).
    pub dataset: Dataset,
}

impl Fixture {
    fn build(
        key: &str,
        spec: SyntheticSpec,
        kind: ModelKind,
        width: usize,
        attack: Option<(&dyn Attack, String)>,
        seed: u64,
    ) -> Self {
        let arch = Architecture::new(
            kind,
            (spec.channels, spec.height, spec.width),
            spec.num_classes,
        )
        .with_width(width);
        let tc = TrainConfig::new(20);
        let fingerprint = attack
            .as_ref()
            .map(|(_, fp)| fp.clone())
            .unwrap_or_else(|| "clean".to_owned());
        let fixture = FixtureSpec::new(key, spec, seed, seed).with_config(&[
            &format!("{arch:?}"),
            &fingerprint,
            &format!("{tc:?}"),
        ]);
        let (data, victim) = cached_victim(&fixture, |data| match &attack {
            Some((a, _)) => a.execute(data, arch, tc, seed),
            None => usb_attacks::train_clean_victim(data, arch, tc, seed),
        });
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbe9c);
        let (clean_x, _) = data.clean_subset(48, &mut rng);
        Fixture {
            victim,
            clean_x,
            dataset: data,
        }
    }
}

fn cifar_spec() -> SyntheticSpec {
    SyntheticSpec::cifar10()
        .with_size(12)
        .with_train_size(300)
        .with_test_size(60)
}

/// Table 1 / Figs. 1, 3, 4, 6 setting: ResNet-18 on CIFAR-10-like data with
/// a 2×2 BadNet backdoor (target class 0).
pub fn cifar_resnet_badnet() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let attack = BadNet::new(2, 0, 0.15);
        Fixture::build(
            "bench-cifar-resnet-badnet",
            cifar_spec(),
            ModelKind::ResNet18,
            4,
            Some((&attack, format!("{attack:?}"))),
            301,
        )
    })
}

/// Clean counterpart of [`cifar_resnet_badnet`] (headline comparison).
pub fn cifar_resnet_clean() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        Fixture::build(
            "bench-cifar-resnet-clean",
            cifar_spec(),
            ModelKind::ResNet18,
            4,
            None,
            302,
        )
    })
}

/// Table 2 / Table 7 setting: EfficientNet-B0 on ImageNet-subset-like data.
pub fn imagenet_efficientnet_badnet() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let attack = BadNet::new(3, 0, 0.15);
        Fixture::build(
            "bench-imagenet-effnet-badnet",
            SyntheticSpec::imagenet_subset()
                .with_size(20)
                .with_train_size(300)
                .with_test_size(60),
            ModelKind::EfficientNetB0,
            6,
            Some((&attack, format!("{attack:?}"))),
            303,
        )
    })
}

/// Table 3 setting: VGG-16 with an input-aware dynamic backdoor.
pub fn cifar_vgg_iad() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let attack = IadAttack::new(0);
        Fixture::build(
            "bench-cifar-vgg-iad",
            cifar_spec(),
            ModelKind::Vgg16,
            6,
            Some((&attack, format!("{attack:?}"))),
            304,
        )
    })
}

/// Table 4 setting: VGG-16 with a BadNet backdoor.
pub fn cifar_vgg_badnet() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let attack = BadNet::new(2, 0, 0.15);
        Fixture::build(
            "bench-cifar-vgg-badnet",
            cifar_spec(),
            ModelKind::Vgg16,
            6,
            Some((&attack, format!("{attack:?}"))),
            305,
        )
    })
}

/// Table 5 / Fig. 5 setting: MNIST-like data (ResNet-18 victim).
pub fn mnist_resnet_badnet() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let attack = BadNet::new(2, 0, 0.15);
        Fixture::build(
            "bench-mnist-resnet-badnet",
            SyntheticSpec::mnist()
                .with_size(12)
                .with_train_size(300)
                .with_test_size(60),
            ModelKind::ResNet18,
            4,
            Some((&attack, format!("{attack:?}"))),
            306,
        )
    })
}

/// Table 6 setting: GTSRB-like (16-class reduction) ResNet-18.
pub fn gtsrb_resnet_badnet() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let attack = BadNet::new(2, 0, 0.15);
        Fixture::build(
            "bench-gtsrb-resnet-badnet",
            SyntheticSpec::gtsrb()
                .with_size(12)
                .with_classes(16)
                .with_train_size(320)
                .with_test_size(64),
            ModelKind::ResNet18,
            4,
            Some((&attack, format!("{attack:?}"))),
            307,
        )
    })
}
