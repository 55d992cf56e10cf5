//! Shared fixtures for the serve-layer integration suites. Every suite
//! drives a real daemon over a real loopback socket, and they all need
//! the same thing to feed it: a victim bundle as raw USBV bytes.
//!
//! The victim is the `determinism-badnet` fixture (4-class BasicCnn,
//! `TrainConfig::fast`) shared with `tests/determinism.rs` — trained once
//! into the `target/fixtures/` disk cache, loaded bit-exactly by every
//! suite afterwards.

#![allow(dead_code)] // each test binary uses a different subset of this

use universal_soldier::attacks::persist::{write_victim, write_victim_dtype};
use universal_soldier::prelude::*;
use universal_soldier::tensor::Dtype;

/// The training data seed baked into the fixture (and therefore the
/// data-regeneration seed a faithful bundle should carry).
pub const FIXTURE_DATA_SEED: u64 = 55;

/// The fixture's training seed.
pub const FIXTURE_TRAIN_SEED: u64 = 9;

fn fixture_spec() -> FixtureSpec {
    let spec = SyntheticSpec::mnist()
        .with_size(12)
        .with_train_size(160)
        .with_test_size(40)
        .with_classes(4);
    let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(6);
    let attack = BadNet::new(2, 1, 0.15);
    let tc = TrainConfig::fast();
    FixtureSpec::new(
        "determinism-badnet",
        spec,
        FIXTURE_DATA_SEED,
        FIXTURE_TRAIN_SEED,
    )
    .with_config(&[
        &format!("{arch:?}"),
        &format!("{attack:?}"),
        &format!("{tc:?}"),
    ])
}

/// The fixture victim and the dataset it was trained on, through the disk
/// cache (trained on the first-ever run, loaded bit-exactly afterwards).
pub fn small_victim() -> (Dataset, Victim) {
    let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(6);
    let attack = BadNet::new(2, 1, 0.15);
    let tc = TrainConfig::fast();
    cached_victim(&fixture_spec(), |data| attack.execute(data, arch, tc, 9))
}

/// The fixture victim as a bundle carrying the given data-regeneration
/// seed and its training recipe edited by `edit`.
fn fixture_bundle(data_seed: u64, edit: impl FnOnce(&mut SyntheticSpec)) -> VictimBundle {
    let fixture = fixture_spec();
    let (_, victim) = small_victim();
    let mut data_spec = fixture.data_spec;
    edit(&mut data_spec);
    VictimBundle {
        victim,
        train_seed: FIXTURE_TRAIN_SEED,
        config_hash: fixture.config_hash,
        data_spec,
        data_seed,
    }
}

/// Serialises the fixture victim as USBV bundle bytes carrying the given
/// data-regeneration seed. `FIXTURE_DATA_SEED` reproduces the training
/// dataset (what the determinism suite wants); any other value still
/// parses and inspects fine but yields distinct bundle bytes — the memory
/// suite uses that to stream "different" models at the resident cache
/// without training more than one victim.
pub fn bundle_bytes(data_seed: u64) -> Vec<u8> {
    bundle_bytes_with_recipe(data_seed, |_| {})
}

/// Like [`bundle_bytes`], but with the stored dataset recipe edited by
/// `edit` — a CRC-valid bundle declaring whatever recipe a test needs,
/// plausible or not.
pub fn bundle_bytes_with_recipe(data_seed: u64, edit: impl FnOnce(&mut SyntheticSpec)) -> Vec<u8> {
    let mut out = Vec::new();
    write_victim(&mut out, &mut fixture_bundle(data_seed, edit))
        .expect("serialising the fixture bundle cannot fail");
    out
}

/// Like [`bundle_bytes`], but stores the weight bank at `dtype` — the
/// low-precision twin of the f32 fixture bundle.
pub fn bundle_bytes_dtype(data_seed: u64, dtype: Dtype) -> Vec<u8> {
    let mut out = Vec::new();
    write_victim_dtype(&mut out, &mut fixture_bundle(data_seed, |_| {}), dtype)
        .expect("serialising the quantized fixture bundle cannot fail");
    out
}
