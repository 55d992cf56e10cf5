//! Training golden test: trained weights, batch-norm running statistics
//! and IAD generators are pinned **bit for bit** to hashes of their
//! serialized bytes.
//!
//! `determinism.rs` only compares predictions, which a one-ulp drift in a
//! weight rarely moves. These hashes move on any bit: a change to the
//! training route that alters a single weight, running statistic or
//! generator parameter fails here before it can shift a fixture, a seed
//! or a verdict. The workloads are tiny and cover every training
//! ingredient: train-mode batch norm (ResNet/VGG/EfficientNet), momentum,
//! weight decay, the learning-rate step decay, a ragged last batch, the
//! latent attack's feature-space gradient term, and IAD's joint
//! generator/classifier optimisation.
//!
//! When a change *intends* to alter training numerics, print the new
//! hashes (the failure message carries them) and update the constants in
//! the same commit, saying why.

use universal_soldier::attacks::persist::{write_victim, VictimBundle};
use universal_soldier::nn::serde::write_network;
use universal_soldier::nn::train::fit;
use universal_soldier::prelude::*;
use universal_soldier::tensor::io::fnv1a64;

use rand::rngs::StdRng;
use rand::SeedableRng;

fn network_hash(net: &mut Network) -> u64 {
    let mut bytes = Vec::new();
    write_network(&mut bytes, net).expect("in-memory write");
    fnv1a64(&bytes)
}

fn tiny_data(channels: usize) -> Dataset {
    let spec = if channels == 1 {
        SyntheticSpec::mnist()
    } else {
        SyntheticSpec::cifar10()
    };
    spec.with_size(8)
        .with_train_size(20)
        .with_test_size(8)
        .with_classes(3)
        .generate(7)
}

fn fit_hash(kind: ModelKind, channels: usize, width: usize, epochs: usize) -> u64 {
    let data = tiny_data(channels);
    let arch = Architecture::new(kind, (channels, 8, 8), 3).with_width(width);
    let mut rng = StdRng::seed_from_u64(11);
    let mut net = arch.build(&mut rng);
    // Batch 8 over 20 images: the last batch of every epoch is ragged.
    let tc = TrainConfig::fast().with_batch_size(8);
    let tc = TrainConfig { epochs, ..tc };
    let _ = fit(
        &mut net,
        &data.train_images,
        &data.train_labels,
        tc,
        &mut rng,
    );
    network_hash(&mut net)
}

fn check(label: &str, got: u64, want: u64) -> Option<String> {
    (got != want).then(|| format!("{label}: got {got:#018x}, want {want:#018x}"))
}

#[test]
fn fit_weights_are_bit_identical_to_the_golden_hashes() {
    let cases: [(&str, ModelKind, usize, usize, usize, u64); 5] = [
        (
            "basic_cnn/2",
            ModelKind::BasicCnn,
            1,
            4,
            2,
            0xffdd_d680_8a18_e797,
        ),
        // Seven epochs cross both step-decay boundaries (60% and 85%).
        (
            "basic_cnn/7",
            ModelKind::BasicCnn,
            1,
            4,
            7,
            0x2e65_abef_1226_8755,
        ),
        (
            "resnet18/2",
            ModelKind::ResNet18,
            3,
            2,
            2,
            0x798b_09ce_2f6b_6a24,
        ),
        ("vgg16/2", ModelKind::Vgg16, 3, 2, 2, 0x535e_7708_74b8_2fa1),
        (
            "efficientnet_b0/2",
            ModelKind::EfficientNetB0,
            3,
            2,
            2,
            0xcaea_a41e_0c43_5081,
        ),
    ];
    let failures: Vec<String> = cases
        .iter()
        .filter_map(|&(label, kind, ch, width, epochs, want)| {
            check(label, fit_hash(kind, ch, width, epochs), want)
        })
        .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}

fn bundle_hash(victim: Victim, data: &Dataset) -> (u64, u64) {
    let mut bundle = VictimBundle {
        victim,
        train_seed: 3,
        config_hash: 0,
        data_spec: data.spec.clone(),
        data_seed: 7,
    };
    let model = network_hash(&mut bundle.victim.model);
    let mut bytes = Vec::new();
    write_victim(&mut bytes, &mut bundle).expect("in-memory write");
    (model, fnv1a64(&bytes))
}

#[test]
fn latent_and_iad_victims_are_bit_identical_to_the_golden_hashes() {
    let data = tiny_data(1);
    let arch = Architecture::new(ModelKind::BasicCnn, (1, 8, 8), 3).with_width(4);
    let tc = TrainConfig::fast().with_batch_size(8);
    let tc = TrainConfig { epochs: 2, ..tc };
    let latent = LatentBackdoor::new(2, 1, 0.25).execute(&data, arch, tc, 3);
    // The IAD bundle serializes the generator's state alongside the model.
    let iad = IadAttack::new(2).execute(&data, arch, tc, 3);
    let (latent_model, latent_bundle) = bundle_hash(latent, &data);
    let (iad_model, iad_bundle) = bundle_hash(iad, &data);
    let failures: Vec<String> = [
        check("latent model", latent_model, 0x1e5c_e89f_340e_d54f),
        check("latent bundle", latent_bundle, 0x2f6a_9929_13ab_a0d0),
        check("iad model", iad_model, 0x30be_e900_9fd6_ac6c),
        check(
            "iad bundle (model + generator)",
            iad_bundle,
            0xf2e1_8981_bbab_01c4,
        ),
    ]
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}
