//! Victim preparation. Training happens here, through the fixture cache,
//! and is never timed: users bring a trained model.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use usb_attacks::fixtures::{cached_victim_in, FixtureSpec};
use usb_attacks::persist::{write_victim, write_victim_dtype, VictimBundle};
use usb_attacks::{Attack, BadNet, Victim};
use usb_data::{Dataset, SyntheticSpec};
use usb_eval::grid::{table2, TableSpec};
use usb_nn::models::{Architecture, ModelKind};
use usb_nn::train::TrainConfig;
use usb_tensor::{Dtype, Tensor};

/// Fixture cache, relative to the checkout root the benchmark runs from.
pub const FIXTURE_DIR: &str = "target/fixtures";
/// Bundles and traces the benchmark writes.
pub const OUT_DIR: &str = "target/perfbench";
/// Clean images per inspection, as `usb-repro inspect` and `loadgen` use.
pub const SUBSET: usize = 48;
/// The storage precisions a bundle is written in.
pub const DTYPES: [Dtype; 3] = [Dtype::F32, Dtype::F16, Dtype::Q8];

/// The Table 2/7 EfficientNet-B0 victim: `usb-repro timing`'s first model
/// (BadNet 3×3, poison rate 0.15, seed 9000, so target class 0).
pub struct Table7 {
    spec: TableSpec,
    attack: BadNet,
    fixture: FixtureSpec,
}

/// Seed of `usb-repro timing`'s first victim.
const TABLE7_SEED: u64 = 9000;

impl Default for Table7 {
    fn default() -> Table7 {
        let spec = table2();
        let target = TABLE7_SEED as usize % spec.dataset.num_classes;
        let attack = BadNet::new(3, target, 0.15);
        let fixture = FixtureSpec::new(
            "perfbench-table7",
            spec.dataset.clone(),
            TABLE7_SEED,
            TABLE7_SEED,
        )
        .with_config(&[
            &format!("{:?}", spec.arch()),
            &format!("{attack:?}"),
            &format!("{:?}", spec.train),
        ]);
        Table7 {
            spec,
            attack,
            fixture,
        }
    }
}

impl Table7 {
    /// Trains the victim into the fixture cache unless it is there.
    pub fn prepare(&self) {
        let (arch, train) = (self.spec.arch(), self.spec.train);
        cached_victim_in(Path::new(FIXTURE_DIR), &self.fixture, |data| {
            self.attack.execute(data, arch, train, TABLE7_SEED)
        });
    }

    /// Loads the prepared victim and regenerates its dataset — the
    /// workload's set-up.
    ///
    /// # Panics
    ///
    /// Panics when the fixture is missing, i.e. [`Table7::prepare`] has
    /// not run or could not write the cache.
    pub fn load(&self) -> (Dataset, Victim) {
        cached_victim_in(Path::new(FIXTURE_DIR), &self.fixture, |_| {
            panic!("the Table 7 victim must be prepared before set-up")
        })
    }

    /// The victim as a bundle carrying its own dataset recipe.
    pub fn bundle(&self, victim: Victim) -> VictimBundle {
        VictimBundle {
            victim,
            train_seed: TABLE7_SEED,
            config_hash: self.fixture.config_hash,
            data_spec: self.fixture.data_spec.clone(),
            data_seed: self.fixture.data_seed,
        }
    }
}

/// Writes `serve-churn`'s bundles, one file per precision, and
/// returns their paths in [`DTYPES`] order.
///
/// The victim is `usb-repro loadgen`'s: the fast `save` recipe (BadNet
/// 2×2 on a ResNet-18, target class 4, sharing its fixture with the
/// CLI), with the dataset recipe inflated to model-zoo scale so every
/// cache miss regenerates 70k images.
///
/// # Errors
///
/// Returns a description of a bundle that could not be written.
pub fn serve_bundles() -> Result<Vec<PathBuf>, String> {
    let spec = SyntheticSpec::mnist()
        .with_size(12)
        .with_train_size(400)
        .with_test_size(80);
    let arch = Architecture::new(ModelKind::ResNet18, (1, 12, 12), 10).with_width(4);
    let (attack, train) = (BadNet::new(2, 4, 0.15), TrainConfig::new(20));
    let fixture = FixtureSpec::new("repro-save-fast", spec, 111, 7).with_config(&[
        &format!("{arch:?}"),
        &format!("{attack:?}"),
        &format!("{train:?}"),
    ]);
    let (_, victim) = cached_victim_in(Path::new(FIXTURE_DIR), &fixture, |data| {
        attack.execute(data, arch, train, 7)
    });
    let mut bundle = VictimBundle {
        victim,
        train_seed: 7,
        config_hash: fixture.config_hash,
        data_spec: fixture
            .data_spec
            .clone()
            .with_train_size(60_000)
            .with_test_size(10_000),
        data_seed: fixture.data_seed,
    };
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let mut paths = Vec::new();
    for (dtype, bytes) in DTYPES.iter().zip(bundle_bytes(&mut bundle)?) {
        let path = Path::new(OUT_DIR).join(format!("serve-{dtype}.usbv"));
        std::fs::write(&path, bytes).map_err(|e| format!("writing {}: {e}", path.display()))?;
        paths.push(path);
    }
    Ok(paths)
}

/// `bundle` serialized at each of [`DTYPES`].
///
/// # Errors
///
/// Returns the serializer's error.
pub fn bundle_bytes(bundle: &mut VictimBundle) -> Result<Vec<Vec<u8>>, String> {
    DTYPES
        .iter()
        .map(|&dtype| {
            let mut bytes = Vec::new();
            let written = if dtype == Dtype::F32 {
                write_victim(&mut bytes, bundle)
            } else {
                write_victim_dtype(&mut bytes, bundle, dtype)
            };
            written.map_err(|e| format!("serializing the {dtype} bundle: {e}"))?;
            Ok(bytes)
        })
        .collect()
}

/// The clean images and per-class rng seeds of one inspection at `seed`,
/// derived exactly as `UsbDetector::inspect` derives them: the subset
/// first, then one seed per class in class order.
pub fn inspection_inputs(data: &Dataset, seed: u64, classes: usize) -> (Tensor, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (clean, _) = data.clean_subset(SUBSET, &mut rng);
    let class_seeds = (0..classes).map(|_| rng.gen()).collect();
    (clean, class_seeds)
}
