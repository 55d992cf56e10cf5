//! Disk-backed victim fixtures: train once, reuse everywhere.
//!
//! Training victims is by far the dominant cost of the test and example
//! suites and the experiment grid — and it is deterministic given the
//! dataset recipe and seeds, so there is no reason to pay it more than
//! once. This module memoizes trained victims under a cache directory
//! (default `target/fixtures/`, override with the `USB_FIXTURE_DIR`
//! environment variable) as [`crate::persist`] bundles keyed by a
//! fingerprint of everything that determines the training run.
//!
//! A cache *hit* loads the bundle and — because bundles are bit-exact —
//! yields a victim whose forwards, ASR, and defense verdicts are
//! bit-identical to retraining (`tests/persistence_roundtrip.rs` and
//! `tests/determinism.rs` both enforce this). A *miss* (no file, stale
//! fingerprint, corrupt or truncated bundle, incompatible format version)
//! silently retrains and overwrites. Writers go through a temp file +
//! rename, so concurrently running test binaries can share one cache
//! directory safely.

use crate::persist::{load_victim, save_victim, VictimBundle};
use crate::victim::Victim;
use std::path::{Path, PathBuf};
use usb_data::{Dataset, SyntheticSpec};
use usb_tensor::io::fnv1a64;

/// Everything that determines a fixture victim: the dataset recipe and
/// seed, the training seed, and a fingerprint of the attack/architecture/
/// training configuration.
#[derive(Debug, Clone)]
pub struct FixtureSpec {
    /// Human-readable file-name stem (e.g. `"e2e-badnet-resnet"`). Keep it
    /// unique per call site; the config hash guards against collisions but
    /// distinct keys keep the cache directory legible.
    pub key: String,
    /// Dataset recipe the victim trains on.
    pub data_spec: SyntheticSpec,
    /// Seed for [`SyntheticSpec::generate`].
    pub data_seed: u64,
    /// Seed handed to the attack / clean-training run.
    pub train_seed: u64,
    /// Fingerprint of the remaining configuration (attack parameters,
    /// architecture, train config), folded in via [`FixtureSpec::with_config`].
    pub config_hash: u64,
}

impl FixtureSpec {
    /// Describes a fixture. The initial `config_hash` covers the dataset
    /// recipe and both seeds; fold in the attack/architecture/training
    /// configuration with [`FixtureSpec::with_config`].
    pub fn new(key: &str, data_spec: SyntheticSpec, data_seed: u64, train_seed: u64) -> Self {
        let base = fnv1a64(format!("{data_spec:?}|{data_seed}|{train_seed}").as_bytes());
        FixtureSpec {
            key: key.to_owned(),
            data_spec,
            data_seed,
            train_seed,
            config_hash: base,
        }
    }

    /// Folds configuration fingerprints (typically `format!("{:?}", ..)` of
    /// the attack, architecture, and train config) into the hash. Any
    /// change to any part invalidates the cached bundle.
    #[must_use]
    pub fn with_config(mut self, parts: &[&str]) -> Self {
        for p in parts {
            let mut bytes = self.config_hash.to_le_bytes().to_vec();
            bytes.push(0x1f);
            bytes.extend_from_slice(p.as_bytes());
            self.config_hash = fnv1a64(&bytes);
        }
        self
    }

    /// The bundle file name: `<key>-<config_hash as 16 hex digits>.usbv`.
    pub fn file_name(&self) -> String {
        format!("{}-{:016x}.usbv", self.key, self.config_hash)
    }
}

/// The fixture cache directory: `$USB_FIXTURE_DIR` when set, otherwise
/// `<workspace root>/target/fixtures`.
///
/// The workspace root is the nearest `Cargo.lock`-holding ancestor of, in
/// order: `$CARGO_MANIFEST_DIR` (cargo points it at the *package* being
/// run — a member crate for its unit tests, the root for workspace tests),
/// the running executable (covers `target/release/usb_repro` invoked from
/// an arbitrary directory), or the current directory. This keeps every
/// test binary, example, and `usb_repro` run sharing one cache regardless
/// of the working directory cargo gave it; with no workspace in sight the
/// cache degrades to `./target/fixtures`.
pub fn fixture_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("USB_FIXTURE_DIR") {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    let anchors = [
        std::env::var_os("CARGO_MANIFEST_DIR").map(PathBuf::from),
        std::env::current_exe().ok(),
        std::env::current_dir().ok(),
    ];
    for anchor in anchors.into_iter().flatten() {
        if let Some(root) = anchor.ancestors().find(|p| p.join("Cargo.lock").is_file()) {
            return root.join("target").join("fixtures");
        }
    }
    PathBuf::from("target").join("fixtures")
}

/// Returns the fixture dataset and victim, training only on a cache miss.
///
/// Generates the dataset from the spec (callers need it for clean
/// inspection data anyway), then either loads the memoized bundle from
/// [`fixture_dir`] or invokes `train` and persists the result. See the
/// module docs for hit/miss semantics.
pub fn cached_victim(
    spec: &FixtureSpec,
    train: impl FnOnce(&Dataset) -> Victim,
) -> (Dataset, Victim) {
    cached_victim_in(&fixture_dir(), spec, train)
}

/// [`cached_victim`] with an explicit cache directory (tests use this to
/// isolate themselves from the shared cache).
pub fn cached_victim_in(
    dir: &Path,
    spec: &FixtureSpec,
    train: impl FnOnce(&Dataset) -> Victim,
) -> (Dataset, Victim) {
    let data = spec.data_spec.generate(spec.data_seed);
    let path = dir.join(spec.file_name());
    if let Ok(bundle) = load_victim(&path) {
        let fresh = bundle.config_hash == spec.config_hash
            && bundle.train_seed == spec.train_seed
            && bundle.data_seed == spec.data_seed
            && bundle.data_spec == spec.data_spec;
        if fresh {
            return (data, bundle.victim);
        }
    }
    eprintln!(
        "[fixtures] miss for {} — training victim (subsequent runs will load it)",
        path.display()
    );
    let victim = train(&data);
    let mut bundle = VictimBundle {
        victim,
        train_seed: spec.train_seed,
        config_hash: spec.config_hash,
        data_spec: spec.data_spec.clone(),
        data_seed: spec.data_seed,
    };
    if let Err(e) = save_victim(&path, &mut bundle) {
        // A read-only cache dir must not fail the caller; it just means
        // the next run retrains.
        eprintln!("[fixtures] could not persist {}: {e}", path.display());
    }
    (data, bundle.victim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::victim::train_clean_victim;
    use usb_nn::models::{Architecture, ModelKind};
    use usb_nn::train::TrainConfig;
    use usb_tensor::{Tensor, Workspace};

    fn tiny_fixture(key: &str) -> FixtureSpec {
        let spec = SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(40)
            .with_test_size(16)
            .with_classes(4);
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(4);
        FixtureSpec::new(key, spec, 11, 5).with_config(&[
            &format!("{arch:?}"),
            &format!("{:?}", TrainConfig::fast()),
            "clean",
        ])
    }

    fn train(data: &Dataset) -> Victim {
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(4);
        train_clean_victim(data, arch, TrainConfig::fast(), 5)
    }

    #[test]
    fn second_request_hits_the_cache_and_matches_bitwise() {
        let dir = std::env::temp_dir().join(format!("usb_fixtures_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let spec = tiny_fixture("hit-test");
        let (_, first) = cached_victim_in(&dir, &spec, train);
        // Warm cache: the trainer must not run again.
        let (_, second) = cached_victim_in(&dir, &spec, |_| {
            panic!("trainer invoked despite a warm fixture cache")
        });
        assert_eq!(first.clean_accuracy, second.clean_accuracy);
        let x = Tensor::from_fn(&[2, 1, 12, 12], |i| ((i as f32) * 0.13).sin());
        assert_eq!(
            first.model.infer(&x, &mut Workspace::new()).data(),
            second.model.infer(&x, &mut Workspace::new()).data(),
            "cached victim must be bit-identical to the trained one"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_change_invalidates_the_cache() {
        let dir = std::env::temp_dir().join(format!("usb_fixtures_inval_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let spec = tiny_fixture("inval-test");
        let (_, _) = cached_victim_in(&dir, &spec, train);
        let changed = tiny_fixture("inval-test").with_config(&["epochs changed"]);
        let mut retrained = false;
        let (_, _) = cached_victim_in(&dir, &changed, |d| {
            retrained = true;
            train(d)
        });
        assert!(retrained, "a changed config hash must retrain");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_bundle_retrains_instead_of_failing() {
        let dir = std::env::temp_dir().join(format!("usb_fixtures_corrupt_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let spec = tiny_fixture("corrupt-test");
        let (_, _) = cached_victim_in(&dir, &spec, train);
        let path = dir.join(spec.file_name());
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let mut retrained = false;
        let (_, victim) = cached_victim_in(&dir, &spec, |d| {
            retrained = true;
            train(d)
        });
        assert!(retrained, "a corrupt bundle must retrain");
        assert!(victim.clean_accuracy >= 0.0);
        // And the overwrite healed the cache.
        let (_, _) = cached_victim_in(&dir, &spec, |_| panic!("cache not healed"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn distinct_hashes_for_distinct_configs() {
        let a = tiny_fixture("x");
        let b = tiny_fixture("x").with_config(&["extra"]);
        assert_ne!(a.config_hash, b.config_hash);
    }
}
