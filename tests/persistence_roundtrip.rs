//! Persistence round-trip guarantees, end to end across the workspace:
//!
//! * tensors and networks survive save → load **bit-exactly** (property
//!   tests over random payloads, including non-finite values);
//! * corrupted or truncated files fail with a clean [`IoError`], never a
//!   panic;
//! * a victim saved to disk, reloaded, and inspected produces verdicts and
//!   USB norms **bit-identical** to the in-memory victim — the contract
//!   that makes the `target/fixtures/` cache transparent to every test
//!   that uses it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use universal_soldier::nn::layer::{Grads, Layer, Pass};
use universal_soldier::nn::serde::{read_network, write_network};
use universal_soldier::prelude::*;
use universal_soldier::tensor::io::{self, IoError};
use universal_soldier::tensor::{Tape, Workspace};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tensor_roundtrip_is_bit_exact(
        vals in proptest::collection::vec(-1e6f32..1e6, 1..97),
        rows in 1usize..5,
    ) {
        // Reshape into [rows, rest] when divisible, else stay rank-1.
        let t = if vals.len() % rows == 0 {
            let cols = vals.len() / rows;
            Tensor::from_vec(vals, &[rows, cols])
        } else {
            let n = vals.len();
            Tensor::from_vec(vals, &[n])
        };
        let mut buf = Vec::new();
        io::write_tensor(&mut buf, &t).unwrap();
        let back = io::read_tensor(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(back.shape(), t.shape());
        for (a, b) in back.data().iter().zip(t.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn corrupted_tensor_bytes_never_panic(
        vals in proptest::collection::vec(-10.0f32..10.0, 8..33),
        flip in 0usize..1000,
        cut in 0usize..1000,
    ) {
        let n = vals.len();
        let t = Tensor::from_vec(vals, &[n]);
        let mut buf = Vec::new();
        io::write_tensor(&mut buf, &t).unwrap();
        // Bit flip somewhere: read must either error cleanly or (for the
        // few uncovered preamble bytes) still return *some* tensor.
        let mut bad = buf.clone();
        let pos = flip % bad.len();
        bad[pos] ^= 0x20;
        let _ = io::read_tensor(&mut bad.as_slice());
        // Truncation must always be a clean Format error.
        let len = cut % buf.len();
        match io::read_tensor(&mut &buf[..len]) {
            Err(IoError::Format(_)) => {}
            Err(e) => {
                prop_assert!(false, "unexpected error kind: {}", e);
            }
            Ok(_) => {
                prop_assert!(false, "truncated at {} decoded", len);
            }
        }
    }
}

fn forward_probe(net: &Network) -> Vec<u32> {
    let (c, h, w) = net.input_shape();
    let x = Tensor::from_fn(&[2, c, h, w], |i| ((i as f32) * 0.17).sin() * 0.5 + 0.5);
    net.infer(&x, &mut Workspace::new())
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn network_roundtrip_forward_pass_is_bitwise_equal() {
    for kind in [ModelKind::BasicCnn, ModelKind::ResNet18] {
        let arch = Architecture::new(kind, (1, 12, 12), 4).with_width(4);
        let mut net = arch.build(&mut StdRng::seed_from_u64(31));
        // A few train-mode steps give batch-norm layers non-trivial
        // running statistics — the state a parameters-only format would lose.
        let x = Tensor::from_fn(&[4, 1, 12, 12], |i| ((i as f32) * 0.09).cos() * 0.5 + 0.5);
        let mut grads = Grads::for_model(&mut net);
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        for _ in 0..3 {
            grads.zero();
            tape.begin();
            let y = net.forward(&x, Pass::Train(&mut tape), &mut ws);
            let _ = net.grad(
                &Tensor::ones(y.shape()),
                &mut tape,
                &mut ws,
                Some(&mut grads),
            );
            grads.commit(&mut net);
        }
        let mut buf = Vec::new();
        write_network(&mut buf, &mut net).unwrap();
        let back = read_network(&mut buf.as_slice()).unwrap();
        assert_eq!(
            forward_probe(&net),
            forward_probe(&back),
            "{kind:?}: loaded forward pass must be bit-identical"
        );
    }
}

#[test]
fn truncated_network_blob_is_a_clean_error() {
    let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(4);
    let mut net = arch.build(&mut StdRng::seed_from_u64(1));
    let mut buf = Vec::new();
    write_network(&mut buf, &mut net).unwrap();
    for len in (0..buf.len()).step_by((buf.len() / 41).max(1)) {
        match read_network(&mut &buf[..len]) {
            Err(IoError::Format(_)) => {}
            Err(e) => panic!("unexpected error kind at {len}: {e}"),
            Ok(_) => panic!("truncated network blob of {len} bytes decoded"),
        }
    }
}

/// The persistence layer's headline contract: a victim saved to disk,
/// reloaded, and inspected produces bit-identical verdicts and USB norms
/// to the in-memory victim.
#[test]
fn loaded_victim_inspection_is_bit_identical_to_in_memory() {
    let spec = SyntheticSpec::mnist()
        .with_size(12)
        .with_train_size(160)
        .with_test_size(40)
        .with_classes(4);
    let data = spec.generate(77);
    let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(6);
    let attack = BadNet::new(2, 1, 0.15);
    let victim = attack.execute(&data, arch, TrainConfig::fast(), 19);

    let dir = std::env::temp_dir().join(format!("usb_roundtrip_{}", std::process::id()));
    let path = dir.join("victim.usbv");
    let mut bundle = VictimBundle {
        victim: victim.clone(),
        train_seed: 19,
        config_hash: 0,
        data_spec: spec,
        data_seed: 77,
    };
    save_victim(&path, &mut bundle).unwrap();
    let loaded = load_victim(&path).unwrap();

    let inspect = |model: &Network| {
        let mut rng = StdRng::seed_from_u64(17);
        let (clean_x, _) = data.clean_subset(32, &mut rng);
        UsbDetector::fast().inspect(model, &clean_x, &mut rng)
    };
    let mem = inspect(&victim.model);
    let disk = inspect(&loaded.victim.model);

    assert_eq!(mem.flagged, disk.flagged, "flagged classes diverged");
    assert_eq!(mem.anomaly_indices, disk.anomaly_indices);
    assert_eq!(mem.is_backdoored(), disk.is_backdoored());
    for (a, b) in mem.per_class.iter().zip(&disk.per_class) {
        assert_eq!(a.class, b.class);
        assert_eq!(a.l1_norm, b.l1_norm, "class {} norm diverged", a.class);
        assert_eq!(a.attack_success, b.attack_success);
        assert_eq!(a.pattern.data(), b.pattern.data());
        assert_eq!(a.mask.data(), b.mask.data());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The multi-target extension of the contract above: a 2-target
/// `MultiBadNet` victim survives USBV v2 save → load with its full
/// implant set, and inspecting the loaded model is bit-identical.
#[test]
fn loaded_multi_target_victim_inspection_is_bit_identical() {
    let spec = SyntheticSpec::mnist()
        .with_size(12)
        .with_train_size(160)
        .with_test_size(40)
        .with_classes(4);
    let data = spec.generate(78);
    let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(6);
    let attack = MultiBadNet::new(2, vec![0, 2], 0.2);
    let victim = attack.execute(&data, arch, TrainConfig::fast(), 21);
    assert_eq!(victim.targets(), vec![0, 2]);

    let dir = std::env::temp_dir().join(format!("usb_multi_roundtrip_{}", std::process::id()));
    let path = dir.join("victim.usbv");
    let mut bundle = VictimBundle {
        victim: victim.clone(),
        train_seed: 21,
        config_hash: 0,
        data_spec: spec,
        data_seed: 78,
    };
    save_victim(&path, &mut bundle).unwrap();
    let loaded = load_victim(&path).unwrap();
    assert_eq!(loaded.victim.targets(), vec![0, 2]);
    assert_eq!(loaded.victim.asr(), victim.asr());

    let inspect = |model: &Network| {
        let mut rng = StdRng::seed_from_u64(17);
        let (clean_x, _) = data.clean_subset(32, &mut rng);
        UsbDetector::fast().inspect(model, &clean_x, &mut rng)
    };
    let mem = inspect(&victim.model);
    let disk = inspect(&loaded.victim.model);
    assert_eq!(mem.flagged, disk.flagged, "flagged classes diverged");
    assert_eq!(mem.anomaly_indices, disk.anomaly_indices);
    assert_eq!(mem.confidences, disk.confidences);
    for (a, b) in mem.per_class.iter().zip(&disk.per_class) {
        assert_eq!(a.l1_norm, b.l1_norm, "class {} norm diverged", a.class);
        assert_eq!(a.pattern.data(), b.pattern.data());
        assert_eq!(a.mask.data(), b.mask.data());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Blended-trigger recipe: the fractional alpha mask survives save → load
/// and the loaded model inspects bit-identically.
#[test]
fn loaded_blended_victim_inspection_is_bit_identical() {
    let spec = SyntheticSpec::mnist()
        .with_size(12)
        .with_train_size(160)
        .with_test_size(40)
        .with_classes(4);
    let data = spec.generate(79);
    let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(6);
    let attack = MultiBadNet::new(2, vec![1], 0.2).with_blend(0.2);
    let victim = attack.execute(&data, arch, TrainConfig::fast(), 22);
    assert_eq!(victim.targets(), vec![1]);

    let dir = std::env::temp_dir().join(format!("usb_blend_roundtrip_{}", std::process::id()));
    let path = dir.join("victim.usbv");
    let mut bundle = VictimBundle {
        victim: victim.clone(),
        train_seed: 22,
        config_hash: 0,
        data_spec: spec,
        data_seed: 79,
    };
    save_victim(&path, &mut bundle).unwrap();
    let loaded = load_victim(&path).unwrap();
    // The full-image alpha mask is fractional everywhere — exactly the
    // payload a binary-mask assumption would corrupt.
    if let [BackdoorImplant {
        trigger: InjectedTrigger::Static(t),
        ..
    }] = loaded.victim.implants()
    {
        assert!(t.mask().data().iter().all(|&m| m == 0.2));
    } else {
        panic!("blended single-target victim lost its static ground truth");
    }

    let inspect = |model: &Network| {
        let mut rng = StdRng::seed_from_u64(17);
        let (clean_x, _) = data.clean_subset(32, &mut rng);
        UsbDetector::fast().inspect(model, &clean_x, &mut rng)
    };
    let mem = inspect(&victim.model);
    let disk = inspect(&loaded.victim.model);
    assert_eq!(mem.flagged, disk.flagged);
    assert_eq!(mem.anomaly_indices, disk.anomaly_indices);
    std::fs::remove_dir_all(&dir).ok();
}

/// Warm-cache contract: the second request for the same fixture must not
/// invoke the trainer, and must hand back a bit-identical victim.
#[test]
fn fixture_cache_is_warm_on_second_request() {
    let dir = std::env::temp_dir().join(format!("usb_warm_cache_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let spec = SyntheticSpec::mnist()
        .with_size(12)
        .with_train_size(60)
        .with_test_size(20)
        .with_classes(4);
    let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(4);
    let fixture = FixtureSpec::new("warm-cache", spec, 5, 6).with_config(&[&format!("{arch:?}")]);
    let train = |data: &Dataset| train_clean_victim(data, arch, TrainConfig::fast(), 6);
    let (_, first) = universal_soldier::attacks::fixtures::cached_victim_in(&dir, &fixture, train);
    let (_, second) =
        universal_soldier::attacks::fixtures::cached_victim_in(&dir, &fixture, |_| {
            panic!("fixture cache was warm — the trainer must not run")
        });
    assert_eq!(forward_probe(&first.model), forward_probe(&second.model));
    std::fs::remove_dir_all(&dir).ok();
}
