//! Deterministic-seeding regression: the whole pipeline — dataset
//! generation, victim training, and USB inspection — must be a pure
//! function of its seeds. Two runs with the same `StdRng` seed on the same
//! victim must produce bit-identical per-class L1 norms, or experiment
//! tables and CI both stop being reproducible.

mod serve_util;

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;
use universal_soldier::defenses::ClassResult;
use universal_soldier::eval::serve::proto::verdict_from_outcome;
use universal_soldier::eval::serve::{Client, ServeConfig, Server, SubmitOptions};
use universal_soldier::nn::models::network_clone_count;
use universal_soldier::prelude::*;
use universal_soldier::usb::UapResult;

fn small_arch() -> Architecture {
    Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(6)
}

fn small_attack() -> BadNet {
    BadNet::new(2, 1, 0.15)
}

/// The shared victim comes through the `target/fixtures/` disk cache:
/// trained on the first-ever run, loaded bit-exactly afterwards (and
/// `victim_training_is_deterministic_for_equal_seeds` below proves the
/// two are indistinguishable).
fn small_victim() -> (Dataset, Victim) {
    let spec = SyntheticSpec::mnist()
        .with_size(12)
        .with_train_size(160)
        .with_test_size(40)
        .with_classes(4);
    let (arch, attack, tc) = (small_arch(), small_attack(), TrainConfig::fast());
    let fixture = FixtureSpec::new("determinism-badnet", spec, 55, 9).with_config(&[
        &format!("{arch:?}"),
        &format!("{attack:?}"),
        &format!("{tc:?}"),
    ]);
    cached_victim(&fixture, |data| attack.execute(data, arch, tc, 9))
}

#[test]
fn usb_inspect_is_deterministic_for_equal_seeds() {
    let (data, victim) = small_victim();

    let run = || {
        let mut rng = StdRng::seed_from_u64(17);
        let (clean_x, _) = data.clean_subset(32, &mut rng);
        let outcome = UsbDetector::fast().inspect(&victim.model, &clean_x, &mut rng);
        outcome
            .per_class
            .iter()
            .map(|c| c.l1_norm)
            .collect::<Vec<f64>>()
    };
    let first = run();
    let second = run();
    assert_eq!(
        first, second,
        "same seed must reproduce identical per-class norms"
    );

    // A different seed draws different clean data, so norms should move —
    // guarding against the opposite failure (rng silently unused).
    let mut rng = StdRng::seed_from_u64(18);
    let (clean_x, _) = data.clean_subset(32, &mut rng);
    let outcome = UsbDetector::fast().inspect(&victim.model, &clean_x, &mut rng);
    let third: Vec<f64> = outcome.per_class.iter().map(|c| c.l1_norm).collect();
    assert_ne!(first, third, "a different seed should perturb the norms");
}

#[test]
fn victim_training_is_deterministic_for_equal_seeds() {
    // `small_victim` may come from the fixture cache, so train the same
    // configuration from scratch and require the two to be bit-identical —
    // this simultaneously checks training determinism and that a cached
    // (saved + loaded) victim is indistinguishable from a fresh one.
    let (data, a) = small_victim();
    let b = small_attack().execute(&data, small_arch(), TrainConfig::fast(), 9);
    assert_eq!(a.clean_accuracy, b.clean_accuracy);
    assert_eq!(a.asr(), b.asr());
    let mut ws = Workspace::new();
    assert_eq!(
        a.model.infer(&data.test_images, &mut ws).data(),
        b.model.infer(&data.test_images, &mut ws).data(),
        "cached and freshly trained victims must score identically"
    );
}

#[test]
fn multi_target_and_blended_fixtures_match_fresh_retraining() {
    // The new recipe shapes — multi-target and blended-trigger — must be
    // just as cache-transparent as BadNet: a victim loaded from its USBV
    // fixture file is bit-indistinguishable from one trained from scratch
    // with the same seeds.
    let spec = SyntheticSpec::mnist()
        .with_size(12)
        .with_train_size(160)
        .with_test_size(40)
        .with_classes(4);
    let arch = small_arch();
    let tc = TrainConfig::fast();
    let recipes: [(&str, MultiBadNet); 2] = [
        ("determinism-multi", MultiBadNet::new(2, vec![0, 2], 0.2)),
        (
            "determinism-blended",
            MultiBadNet::new(2, vec![1], 0.2).with_blend(0.2),
        ),
    ];
    for (key, attack) in recipes {
        let fixture = FixtureSpec::new(key, spec.clone(), 55, 9).with_config(&[
            &format!("{arch:?}"),
            &format!("{attack:?}"),
            &format!("{tc:?}"),
        ]);
        let (data, cached) =
            cached_victim(&fixture, |data| attack.clone().execute(data, arch, tc, 9));
        let fresh = attack.execute(&data, arch, tc, 9);
        assert_eq!(cached.targets(), fresh.targets(), "{key}: targets");
        assert_eq!(cached.asr(), fresh.asr(), "{key}: asr");
        let mut ws = Workspace::new();
        assert_eq!(
            cached.model.infer(&data.test_images, &mut ws).data(),
            fresh.model.infer(&data.test_images, &mut ws).data(),
            "{key}: cached and freshly trained victims must score identically"
        );
    }
}

#[test]
fn usb_inspect_is_invariant_to_worker_thread_count() {
    // The parallel per-class engine derives one rng stream per class from
    // the inspection seed *before* fanning out, so the verdict must be a
    // pure function of the seed — never of how classes land on threads.
    // Every field of every ClassResult has to match bit-for-bit at 1, 2,
    // and 4 workers.
    let (data, victim) = small_victim();

    let run = |workers: usize| {
        let mut rng = StdRng::seed_from_u64(17);
        let (clean_x, _) = data.clean_subset(32, &mut rng);
        UsbDetector::fast_with_workers(workers).inspect(&victim.model, &clean_x, &mut rng)
    };
    let base = run(1);
    for workers in [2usize, 4] {
        let outcome = run(workers);
        assert_eq!(
            outcome.flagged, base.flagged,
            "flagged classes changed at {workers} workers"
        );
        assert_eq!(
            outcome.anomaly_indices, base.anomaly_indices,
            "anomaly indices changed at {workers} workers"
        );
        for (a, b) in outcome.per_class.iter().zip(&base.per_class) {
            assert_eq!(a.class, b.class);
            assert_eq!(
                a.l1_norm, b.l1_norm,
                "class {} norm changed at {workers} workers",
                a.class
            );
            assert_eq!(
                a.attack_success, b.attack_success,
                "class {} success changed at {workers} workers",
                a.class
            );
            assert_eq!(
                a.pattern.data(),
                b.pattern.data(),
                "class {} pattern changed at {workers} workers",
                a.class
            );
            assert_eq!(
                a.mask.data(),
                b.mask.data(),
                "class {} mask changed at {workers} workers",
                a.class
            );
        }
    }
}

#[test]
fn usb_inspect_spawns_zero_network_clones() {
    // The shared-nothing scaling contract: the per-class fan-out shares
    // one `&Network` (forward passes through the cache-free inference
    // path, gradients through the per-worker tape), so a full parallel
    // inspection must not clone the victim even once.
    //
    // The counter is process-wide and this binary's tests run
    // concurrently, so the assertion depends on NO other test in
    // tests/determinism.rs exercising `Network::clone` — keep
    // clone-semantics tests in tests/infer_equivalence.rs (a separate
    // process), or this test turns flaky.
    let (data, victim) = small_victim();
    let mut rng = StdRng::seed_from_u64(17);
    let (clean_x, _) = data.clean_subset(32, &mut rng);
    // Warm-up run so any lazy one-time setup is out of the measured span.
    let _ = UsbDetector::fast_with_workers(2).inspect(&victim.model, &clean_x, &mut rng);
    let before = network_clone_count();
    let outcome = UsbDetector::fast_with_workers(4).inspect(&victim.model, &clean_x, &mut rng);
    let after = network_clone_count();
    assert!(!outcome.per_class.is_empty());
    assert_eq!(
        after - before,
        0,
        "inspect cloned the victim {} times; the fan-out must share one &Network",
        after - before
    );
}

#[test]
fn daemon_verdicts_are_bit_identical_to_offline_inspection() {
    // The serve layer's reproducibility contract: submitting a bundle to
    // a warm daemon — any number of times, at any worker count — must
    // yield the exact verdict `usb-repro inspect` computes offline. The
    // daemon replays the offline pipeline (seeded rng → clean subset →
    // per-class rng streams) against its resident copy of the model, so
    // every float and every trigger CRC has to match bit-for-bit.
    let (data, victim) = small_victim();
    let bundle = serve_util::bundle_bytes(serve_util::FIXTURE_DATA_SEED);
    let truth: Vec<u32> = victim.targets().into_iter().map(|t| t as u32).collect();

    let config = ServeConfig {
        workers: 1,
        max_pending: 8,
        cache_bytes: 64 << 20,
    };
    let server = Server::start(("127.0.0.1", 0), config).expect("binding a loopback daemon");
    let mut client = Client::connect(server.local_addr()).expect("connecting to the daemon");
    client
        .set_read_timeout(Some(Duration::from_secs(600)))
        .expect("setting a read timeout");

    for (i, workers) in [1usize, 2, 4].into_iter().enumerate() {
        // The offline reference: exactly what `usb-repro inspect` runs.
        let mut rng = StdRng::seed_from_u64(17);
        let (clean_x, _) = data.clean_subset(32, &mut rng);
        let outcome =
            UsbDetector::fast_with_workers(workers).inspect(&victim.model, &clean_x, &mut rng);
        let offline = verdict_from_outcome(0, &outcome, &truth, false, 0.0);

        // The same request twice: the first of the whole test misses the
        // resident cache, everything after hits it — and neither state is
        // allowed to perturb a single bit of the verdict.
        for round in 0..2u64 {
            let opts = SubmitOptions {
                tag: i as u64 * 10 + round + 1,
                seed: 17,
                subset: 32,
                workers: workers as u32,
                fast: true,
            };
            let wire = client
                .inspect(&bundle, &opts, |_| {})
                .expect("daemon inspection");
            assert_eq!(
                wire.per_class, offline.per_class,
                "per-class results diverged from offline at {workers} workers (round {round})"
            );
            assert_eq!(
                wire.flagged, offline.flagged,
                "flagged classes diverged at {workers} workers (round {round})"
            );
            assert_eq!(
                wire.median_l1.to_bits(),
                offline.median_l1.to_bits(),
                "median L1 diverged at {workers} workers (round {round})"
            );
            assert_eq!(wire.truth_targets, truth);
            assert_eq!(
                wire.confidences, offline.confidences,
                "per-class confidences diverged at {workers} workers (round {round})"
            );
            assert_eq!(wire.agrees, offline.agrees);
        }
    }
    let stats = server.stop();
    assert_eq!(
        stats.cache_misses, 1,
        "only the very first request may parse the bundle"
    );
    assert_eq!(stats.cache_hits, 5, "every later request must stay warm");
}

/// The `e2e-badnet` fixture (same recipe as `tests/end_to_end_detection.rs`
/// and `tests/reverse_golden.rs`, so the suites share one cached bundle):
/// ResNet-18, 10 classes, BadNet target 3.
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

fn tensor_bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A worker's tape and workspace carry nothing from one class into the
/// next. Every class is reversed in turn — USB, NC and TABOR, on the
/// trained ResNet-18 victim and on a seeded EfficientNet-B0 — on one
/// context that every earlier run has left dirty, and each result must
/// equal the fresh-context one bit for bit: the L1 norm, the success rate,
/// the pattern and the mask. Alg. 1 alone is held to the same, its
/// perturbation, success, passes and DeepFool calls included. A stale
/// `take_dirty` read would show here.
#[test]
fn reused_context_gives_fresh_context_bits_for_every_class() {
    let (rdata, resnet) = resnet_victim();
    let mut rng = StdRng::seed_from_u64(23);
    let (rx, _) = rdata.clean_subset(32, &mut rng);
    let edata = SyntheticSpec::cifar10()
        .with_size(16)
        .with_train_size(16)
        .with_test_size(32)
        .with_classes(6)
        .generate(29);
    let (ex, _) = edata.clean_subset(32, &mut rng);
    let effnet = Architecture::new(ModelKind::EfficientNetB0, (3, 16, 16), 6)
        .with_width(4)
        .build(&mut StdRng::seed_from_u64(31));
    // Short schedules: the contract is about bits, not convergence.
    let schedule = NcConfig {
        steps: 8,
        patience: 2,
        ..NcConfig::fast()
    };
    let usb = UsbDetector::new(UsbConfig {
        refine: RefineConfig {
            steps: 8,
            ..RefineConfig::fast()
        },
        ..UsbConfig::fast()
    });
    let nc = NeuralCleanse::new(schedule);
    let tabor = Tabor::new(TaborConfig {
        base: schedule,
        ..TaborConfig::fast()
    });
    let defenses: [&dyn Defense; 3] = [&usb, &nc, &tabor];
    let result_bits = |r: &ClassResult| {
        (
            r.l1_norm.to_bits(),
            r.attack_success.to_bits(),
            tensor_bits(&r.pattern),
            tensor_bits(&r.mask),
        )
    };
    let (mut tape, mut ws) = (Tape::new(), Workspace::new());
    for (name, model, x) in [
        ("resnet18", &resnet.model, &rx),
        ("effnet-b0", &effnet, &ex),
    ] {
        for defense in defenses {
            for t in 0..model.num_classes() {
                let seed = 100 + t as u64;
                let mut rng = StdRng::seed_from_u64(seed);
                let warm = defense.reverse_class_in(model, x, t, &mut rng, &mut tape, &mut ws);
                let fresh = defense.reverse_class(model, x, t, &mut StdRng::seed_from_u64(seed));
                assert!(
                    result_bits(&warm) == result_bits(&fresh),
                    "{name} {}: class {t} moved on a reused context",
                    defense.name()
                );
            }
        }
        for t in 0..model.num_classes() {
            let config = UapConfig::fast();
            let warm = targeted_uap(model, x, t, config, &mut tape, &mut ws);
            let (mut cold_tape, mut cold_ws) = (Tape::new(), Workspace::new());
            let fresh = targeted_uap(model, x, t, config, &mut cold_tape, &mut cold_ws);
            let uap_bits = |u: &UapResult| {
                let counts = (u.passes, u.deepfool_calls, u.success_rate.to_bits());
                (tensor_bits(&u.perturbation), counts)
            };
            assert!(
                uap_bits(&warm) == uap_bits(&fresh),
                "{name}: Alg. 1 toward class {t} moved on a reused context"
            );
        }
    }
}
