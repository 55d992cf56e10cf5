//! Reverse-engineering golden test: per-class results of USB's Alg. 2,
//! Neural Cleanse and TABOR are pinned **bit for bit** — the L1 norm,
//! attack success and final SSIM as raw bits, the mask and pattern as
//! FNV-1a hashes of their little-endian bytes. USB's Alg. 1 is pinned the
//! same way on its own: the UAP's hash, pass and DeepFool-call counts and
//! success rate, on four victims.
//!
//! The three methods share one trigger optimiser (batch drawing, stamping,
//! CE input gradient, SSIM / mask-L1 / TABOR terms, Adam, final scoring).
//! A change to any of those steps that moves a single bit of a single
//! class result fails here before it can move a norm ranking or a verdict.
//! The victim is the small `determinism-badnet` fixture (trained once,
//! loaded from the fixture cache afterwards), so nothing retrains. Every
//! Neural Cleanse and TABOR case moves the adaptive λ both ways: it relaxes
//! at the first check (the random start does not reach the target yet) and
//! tightens at every later one.
//!
//! When a change *intends* to alter optimisation numerics, print the new
//! values (the failure message carries them) and update the constants in
//! the same commit, saying why.

use rand::rngs::StdRng;
use rand::SeedableRng;
use universal_soldier::defenses::ClassResult;
use universal_soldier::prelude::*;
use universal_soldier::tensor::io::fnv1a64;
use universal_soldier::tensor::Dtype;
use universal_soldier::usb::UapResult;

/// The `determinism-badnet` fixture (same recipe as `tests/determinism.rs`,
/// so both suites share one cached bundle): BasicCnn, 4 classes, BadNet
/// target 1.
fn victim() -> (Dataset, Victim) {
    let spec = SyntheticSpec::mnist()
        .with_size(12)
        .with_train_size(160)
        .with_test_size(40)
        .with_classes(4);
    let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(6);
    let (attack, tc) = (BadNet::new(2, 1, 0.15), TrainConfig::fast());
    let fixture = FixtureSpec::new("determinism-badnet", spec, 55, 9).with_config(&[
        &format!("{arch:?}"),
        &format!("{attack:?}"),
        &format!("{tc:?}"),
    ]);
    cached_victim(&fixture, |data| attack.execute(data, arch, tc, 9))
}

fn tensor_hash(t: &Tensor) -> u64 {
    let bytes: Vec<u8> = t.data().iter().flat_map(|v| v.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

/// Bit patterns of one per-class result: `l1_norm`, `attack_success`,
/// mask hash, pattern hash.
type Pinned = [u64; 4];

fn pinned(r: &ClassResult) -> Pinned {
    [
        r.l1_norm.to_bits(),
        r.attack_success.to_bits(),
        tensor_hash(&r.mask),
        tensor_hash(&r.pattern),
    ]
}

fn hex(bits: &Pinned) -> String {
    let parts: Vec<String> = bits.iter().map(|b| format!("{b:#018x}")).collect();
    format!("[{}]", parts.join(", "))
}

fn check(label: &str, got: Pinned, want: Pinned) -> Option<String> {
    (got != want).then(|| format!("{label}: got {}, want {}", hex(&got), hex(&want)))
}

/// Clean inspection data and a fresh rng, identical for every case.
fn clean_data(data: &Dataset) -> (Tensor, StdRng) {
    let mut rng = StdRng::seed_from_u64(23);
    let (x, _) = data.clean_subset(32, &mut rng);
    (x, rng)
}

/// `refine_uap` on the fixed perturbation below, target 1.
const REFINE_UAP: Pinned = [
    0x4028_fdbe_c000_0000,
    0x3fec_0000_0000_0000,
    0xfea8_350d_9f22_6bea,
    0xe845_f6da_7158_faf4,
];
const REFINE_UAP_SSIM: u32 = 0x3f13_c90e;

#[test]
fn refine_uap_is_bit_identical_to_the_golden_hashes() {
    let (data, victim) = victim();
    let (x, _) = clean_data(&data);
    // A fixed perturbation, so the case pins Alg. 2 alone.
    let v = Tensor::from_fn(&[1, 12, 12], |i| 0.3 * ((i as f32) * 0.37).cos());
    let (mut tape, mut ws) = (Tape::new(), Workspace::new());
    let fit = refine_uap(
        &victim.model,
        &x,
        1,
        &v,
        RefineConfig::fast(),
        &mut tape,
        &mut ws,
    );
    let got = pinned(&fit.class_result(1));
    let mut failures: Vec<String> = check("refine_uap", got, REFINE_UAP).into_iter().collect();
    let ssim_bits = fit.final_ssim.to_bits();
    if ssim_bits != REFINE_UAP_SSIM {
        failures.push(format!(
            "refine_uap final_ssim: got {ssim_bits:#010x}, want {REFINE_UAP_SSIM:#010x}"
        ));
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

#[test]
fn reverse_class_results_are_bit_identical_to_the_golden_hashes() {
    let (data, victim) = victim();
    let usb = UsbDetector::fast();
    let nc = NeuralCleanse::fast();
    let tabor = Tabor::fast();
    let cases: [(&str, &dyn Defense, usize, Pinned); 6] = [
        (
            "usb/1",
            &usb,
            1,
            [
                0x4027_cb8d_c000_0000,
                0x3fed_0000_0000_0000,
                0x7edc_5c13_d7cd_7607,
                0x98a2_8661_55fd_ebfb,
            ],
        ),
        (
            "usb/0",
            &usb,
            0,
            [
                0x4024_31d0_6000_0000,
                0x3fec_0000_0000_0000,
                0x5309_7e19_83bc_a8a6,
                0x3450_02d6_4b31_7973,
            ],
        ),
        (
            "nc/1",
            &nc,
            1,
            [
                0x4029_0070_c000_0000,
                0x3ff0_0000_0000_0000,
                0xd53f_4f7e_34f4_486b,
                0x7450_7114_312c_8513,
            ],
        ),
        (
            "nc/0",
            &nc,
            0,
            [
                0x4029_842b_c000_0000,
                0x3ff0_0000_0000_0000,
                0xe939_de84_a445_5321,
                0xd9d0_8ead_2d48_552f,
            ],
        ),
        (
            "tabor/1",
            &tabor,
            1,
            [
                0x4028_dd98_4000_0000,
                0x3ff0_0000_0000_0000,
                0x232b_9859_c567_11e6,
                0x073b_bcbf_8c82_4fb6,
            ],
        ),
        (
            "tabor/0",
            &tabor,
            0,
            [
                0x4028_4c6b_2000_0000,
                0x3ff0_0000_0000_0000,
                0x38f4_e25b_4305_2aeb,
                0x693e_0004_9d13_be8a,
            ],
        ),
    ];
    let failures: Vec<String> = cases
        .iter()
        .filter_map(|&(label, defense, target, want)| {
            let (x, mut rng) = clean_data(&data);
            let result = defense.reverse_class(&victim.model, &x, target, &mut rng);
            check(label, pinned(&result), want)
        })
        .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}

/// The `e2e-badnet` fixture (same recipe as `tests/end_to_end_detection.rs`,
/// so both suites share one cached bundle): ResNet-18, 10 classes, BadNet
/// target 3.
fn resnet_victim() -> (Dataset, Victim) {
    let spec = SyntheticSpec::cifar10()
        .with_size(12)
        .with_train_size(400)
        .with_test_size(80);
    let arch = Architecture::new(ModelKind::ResNet18, (3, 12, 12), 10).with_width(4);
    let (attack, tc) = (BadNet::new(2, 3, 0.15), TrainConfig::new(20));
    let fixture = FixtureSpec::new("e2e-badnet", spec, 201, 13).with_config(&[
        &format!("{arch:?}"),
        &format!("{attack:?}"),
        &format!("{tc:?}"),
    ]);
    cached_victim(&fixture, |data| attack.execute(data, arch, tc, 13))
}

/// Bit patterns of one Alg. 1 result: perturbation hash, `passes`,
/// `deepfool_calls`, `success_rate`.
fn uap_pinned(r: &UapResult) -> Pinned {
    [
        tensor_hash(&r.perturbation),
        r.passes as u64,
        r.deepfool_calls as u64,
        r.success_rate.to_bits(),
    ]
}

/// Alg. 1 with an unreachable θ, so every pass runs, and a 3-step DeepFool
/// budget, so calls end both at the target and with the budget spent.
fn strained() -> UapConfig {
    UapConfig {
        error_rate: 1.01,
        max_passes: 2,
        deepfool: DeepfoolConfig { max_iters: 3 },
        ..UapConfig::fast()
    }
}

/// `targeted_uap` under `UapConfig::fast()` and [`strained`], toward the
/// backdoor target and one clean target of each victim: the BasicCnn
/// fixture at f32 and q8, the ResNet-18 fixture, and a seeded untrained
/// EfficientNet-B0.
#[test]
fn targeted_uap_is_bit_identical_to_the_golden_hashes() {
    let (data, victim) = victim();
    let (x, _) = clean_data(&data);
    let mut q8 = victim.model.clone();
    q8.quantize_weights(Dtype::Q8);
    let (rdata, resnet) = resnet_victim();
    let (rx, _) = clean_data(&rdata);
    let edata = SyntheticSpec::cifar10()
        .with_size(16)
        .with_train_size(16)
        .with_test_size(32)
        .with_classes(6)
        .generate(29);
    let (ex, _) = clean_data(&edata);
    let effnet = Architecture::new(ModelKind::EfficientNetB0, (3, 16, 16), 6)
        .with_width(4)
        .build(&mut StdRng::seed_from_u64(31));
    let models: [(&str, &Network, &Tensor, [usize; 2]); 4] = [
        ("basic-f32", &victim.model, &x, [1, 0]),
        ("basic-q8", &q8, &x, [1, 0]),
        ("resnet18", &resnet.model, &rx, [3, 0]),
        ("effnet-b0", &effnet, &ex, [0, 2]),
    ];
    let configs = [("fast", UapConfig::fast()), ("strained", strained())];
    let mut got = Vec::new();
    // One tape and workspace for every case, across models and dtypes.
    let (mut tape, mut ws) = (Tape::new(), Workspace::new());
    for (name, model, x, targets) in models {
        for (cname, config) in configs {
            for target in targets {
                let result = targeted_uap(model, x, target, config, &mut tape, &mut ws);
                got.push((format!("{name}/{cname}/{target}"), uap_pinned(&result)));
            }
        }
    }
    assert_eq!(got.len(), TARGETED_UAP.len());
    let failures: Vec<String> = got
        .iter()
        .zip(TARGETED_UAP)
        .filter_map(|((label, got), want)| check(label, *got, want))
        .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}

/// [`targeted_uap_is_bit_identical_to_the_golden_hashes`]'s cases, in loop
/// order: model, then config, then target.
const TARGETED_UAP: [Pinned; 16] = [
    [
        0xbced_74eb_a13d_e041,
        0x0000_0000_0000_0001,
        0x0000_0000_0000_0004,
        0x3ff0_0000_0000_0000,
    ],
    [
        0x04ad_ece9_9b45_c42c,
        0x0000_0000_0000_0001,
        0x0000_0000_0000_0006,
        0x3fee_0000_0000_0000,
    ],
    [
        0xbced_74eb_a13d_e041,
        0x0000_0000_0000_0002,
        0x0000_0000_0000_0004,
        0x3ff0_0000_0000_0000,
    ],
    [
        0x0f88_cb4f_afba_66fd,
        0x0000_0000_0000_0002,
        0x0000_0000_0000_0008,
        0x3fef_0000_0000_0000,
    ],
    [
        0x882a_1a18_93f4_34bc,
        0x0000_0000_0000_0001,
        0x0000_0000_0000_0004,
        0x3ff0_0000_0000_0000,
    ],
    [
        0x358e_8d57_5d34_f853,
        0x0000_0000_0000_0001,
        0x0000_0000_0000_0006,
        0x3fee_0000_0000_0000,
    ],
    [
        0x882a_1a18_93f4_34bc,
        0x0000_0000_0000_0002,
        0x0000_0000_0000_0004,
        0x3ff0_0000_0000_0000,
    ],
    [
        0x11b9_4113_1f3a_c527,
        0x0000_0000_0000_0002,
        0x0000_0000_0000_0008,
        0x3fef_0000_0000_0000,
    ],
    [
        0x7e78_cb9e_9b82_daec,
        0x0000_0000_0000_0001,
        0x0000_0000_0000_0004,
        0x3ff0_0000_0000_0000,
    ],
    [
        0x5d0a_3b9a_5fdf_0278,
        0x0000_0000_0000_0001,
        0x0000_0000_0000_0009,
        0x3fed_0000_0000_0000,
    ],
    [
        0x842c_aa4a_1f06_9b8d,
        0x0000_0000_0000_0002,
        0x0000_0000_0000_0005,
        0x3ff0_0000_0000_0000,
    ],
    [
        0x21d3_cd88_2e38_17c1,
        0x0000_0000_0000_0002,
        0x0000_0000_0000_000d,
        0x3ff0_0000_0000_0000,
    ],
    [
        0xe34e_92a6_ab45_6340,
        0x0000_0000_0000_0001,
        0x0000_0000_0000_0006,
        0x3ff0_0000_0000_0000,
    ],
    [
        0x945a_b31b_680a_a059,
        0x0000_0000_0000_0001,
        0x0000_0000_0000_0008,
        0x3fee_0000_0000_0000,
    ],
    [
        0xe34e_92a6_ab45_6340,
        0x0000_0000_0000_0002,
        0x0000_0000_0000_0006,
        0x3ff0_0000_0000_0000,
    ],
    [
        0xcd99_93cd_33e1_1dcd,
        0x0000_0000_0000_0002,
        0x0000_0000_0000_0009,
        0x3ff0_0000_0000_0000,
    ],
];
