//! The experiment grid: dataset × architecture × attack × defense, scored
//! with the paper's Model Detection / Target Class Detection metrics.

use rand::rngs::StdRng;
use rand::SeedableRng;
use usb_attacks::fixtures::{cached_victim, FixtureSpec};
use usb_attacks::{
    train_clean_victim, Attack, BadNet, IadAttack, LatentBackdoor, MultiBadNet, Victim,
};
use usb_core::{UsbConfig, UsbDetector};
use usb_data::{Dataset, SyntheticSpec};
use usb_defenses::{
    score_outcome, Defense, NcConfig, NeuralCleanse, Tabor, TaborConfig, TargetClassCall, Ulp,
    UlpConfig,
};
use usb_nn::models::{Architecture, ModelKind};
use usb_nn::train::TrainConfig;
use usb_tensor::par;

/// Which attack (if any) a case trains its victims with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackChoice {
    /// Un-backdoored control models.
    Clean,
    /// BadNet with the given square trigger size.
    BadNet {
        /// Patch side length in pixels.
        trigger: usize,
    },
    /// Latent backdoor with the given square trigger size.
    Latent {
        /// Patch side length in pixels.
        trigger: usize,
    },
    /// Input-aware dynamic backdoor (full-image trigger).
    Iad,
    /// Several simultaneous all-to-one backdoors, one patch trigger per
    /// target class, implanted in a single poisoned training run.
    MultiBadNet {
        /// Patch side length in pixels.
        trigger: usize,
        /// Number of simultaneous target classes (clamped to the dataset's
        /// class count at training time).
        targets: usize,
    },
    /// Single-target blended trigger: a full-image random pattern alpha-mixed
    /// into the input under a low `L∞` budget.
    Blended {
        /// Blend ratio in `(0, 1)`; also the per-pixel `L∞` budget.
        alpha: f32,
    },
}

impl AttackChoice {
    fn label(&self) -> String {
        match self {
            AttackChoice::Clean => "Clean".to_owned(),
            AttackChoice::BadNet { trigger } => {
                format!("Backdoored ({trigger}x{trigger} trigger)")
            }
            AttackChoice::Latent { trigger } => {
                format!("Latent Backdoor ({trigger}x{trigger} trigger)")
            }
            AttackChoice::Iad => "Input Aware Dynamic (full-image trigger)".to_owned(),
            AttackChoice::MultiBadNet { trigger, targets } => {
                format!("Multi-target Backdoored ({targets} targets, {trigger}x{trigger} trigger)")
            }
            AttackChoice::Blended { alpha } => {
                format!("Blended Backdoored (alpha {alpha})")
            }
        }
    }
}

/// One row group of a paper table: an attack setting evaluated over several
/// independently trained models.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseSpec {
    /// The attack to train victims with.
    pub attack: AttackChoice,
    /// Poison rate for poisoning attacks.
    pub poison_rate: f64,
}

/// A full table specification.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Identifier ("table1" ...).
    pub id: &'static str,
    /// Human-readable description printed above the table.
    pub title: String,
    /// Dataset family (already scaled for CPU).
    pub dataset: SyntheticSpec,
    /// Victim architecture family.
    pub model: ModelKind,
    /// Width multiplier for the victims.
    pub width: usize,
    /// Victim training schedule.
    pub train: TrainConfig,
    /// The attack cases (rows).
    pub cases: Vec<CaseSpec>,
    /// Clean samples handed to every defense.
    pub defense_samples: usize,
}

impl TableSpec {
    /// The victim architecture for this table.
    pub fn arch(&self) -> Architecture {
        let input = (
            self.dataset.channels,
            self.dataset.height,
            self.dataset.width,
        );
        Architecture::new(self.model, input, self.dataset.num_classes).with_width(self.width)
    }
}

/// Aggregated detection counts for one (case, defense) cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MethodCell {
    /// Defense name.
    pub method: &'static str,
    /// Mean reported reversed-trigger L1 norm.
    pub mean_l1: f64,
    /// Models called clean.
    pub called_clean: usize,
    /// Models called backdoored.
    pub called_backdoored: usize,
    /// Backdoored models with exactly the true target flagged.
    pub correct: usize,
    /// Backdoored models with a flagged set containing the true target.
    pub correct_set: usize,
    /// Backdoored models flagged with wrong classes only.
    pub wrong: usize,
    /// Total wall-clock seconds spent in this defense. Unlike every other
    /// field, this is *elapsed* time: when the grid runs victims in
    /// parallel it includes contention from sibling models, so it varies
    /// with the thread count (use `usb_eval::timing` for contention-free
    /// per-class numbers).
    pub seconds: f64,
}

/// Results for one case (row group).
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Row label as in the paper ("Clean", "Backdoored (2x2 trigger)", ...).
    pub label: String,
    /// Mean clean accuracy over the trained victims.
    pub mean_accuracy: f64,
    /// Mean attack success rate (0 for clean cases).
    pub mean_asr: f64,
    /// Number of victims trained.
    pub models: usize,
    /// One cell per defense, in the order the defenses were passed.
    pub cells: Vec<MethodCell>,
}

/// A completed table.
#[derive(Debug, Clone)]
pub struct TableReport {
    /// Table id.
    pub id: &'static str,
    /// Table title.
    pub title: String,
    /// One report per case.
    pub cases: Vec<CaseReport>,
}

/// The set of defenses a table runs, with their full configurations.
pub struct DefenseSuite {
    /// Neural Cleanse.
    pub nc: NeuralCleanse,
    /// TABOR.
    pub tabor: Tabor,
    /// Universal Soldier.
    pub usb: UsbDetector,
    /// Universal Litmus Patterns.
    pub ulp: Ulp,
}

impl DefenseSuite {
    /// Full-strength configurations (the experiment default).
    pub fn standard() -> Self {
        DefenseSuite {
            nc: NeuralCleanse::new(NcConfig::standard()),
            tabor: Tabor::new(TaborConfig::standard()),
            usb: UsbDetector::new(UsbConfig::standard()),
            ulp: Ulp::new(UlpConfig::standard()),
        }
    }

    /// Reduced configurations (CI / smoke runs).
    pub fn fast() -> Self {
        DefenseSuite {
            nc: NeuralCleanse::fast(),
            tabor: Tabor::fast(),
            usb: UsbDetector::fast(),
            ulp: Ulp::fast(),
        }
    }
}

/// The fixture-cache entry of one grid victim: keyed by table id, seeded
/// with `seed` for both data and training, and fingerprinted by the
/// architecture, train config and case. The fingerprint covers settings,
/// not code: after a change to an attack or to training, clear
/// `target/fixtures` (or point `USB_FIXTURE_DIR` elsewhere) so tables and
/// timing runs retrain instead of reusing stale victims.
pub fn victim_fixture(spec: &TableSpec, case: &CaseSpec, seed: u64) -> FixtureSpec {
    FixtureSpec::new(
        &format!("grid-{}", spec.id),
        spec.dataset.clone(),
        seed,
        seed,
    )
    .with_config(&[
        &format!("{:?}", spec.arch()),
        &format!("{:?}", spec.train),
        &format!("{case:?}"),
    ])
}

/// Trains one victim for `case` on `data` with the table's settings,
/// bypassing the fixture cache.
pub fn train_case(data: &Dataset, spec: &TableSpec, case: &CaseSpec, seed: u64) -> Victim {
    let arch = spec.arch();
    let target = (seed as usize) % spec.dataset.num_classes;
    match case.attack {
        AttackChoice::Clean => train_clean_victim(data, arch, spec.train, seed),
        AttackChoice::BadNet { trigger } => {
            BadNet::new(trigger, target, case.poison_rate).execute(data, arch, spec.train, seed)
        }
        AttackChoice::Latent { trigger } => LatentBackdoor::new(trigger, target, case.poison_rate)
            .execute(data, arch, spec.train, seed),
        AttackChoice::Iad => IadAttack::new(target).execute(data, arch, spec.train, seed),
        AttackChoice::MultiBadNet { trigger, targets } => {
            let k = spec.dataset.num_classes;
            let count = targets.min(k);
            let classes: Vec<usize> = (0..count).map(|i| (target + i) % k).collect();
            MultiBadNet::new(trigger, classes, case.poison_rate)
                .execute(data, arch, spec.train, seed)
        }
        AttackChoice::Blended { alpha } => MultiBadNet::new(2, vec![target], case.poison_rate)
            .with_blend(alpha)
            .execute(data, arch, spec.train, seed),
    }
}

/// [`train_case`] through the [`usb_attacks::fixtures`] disk cache under
/// [`victim_fixture`]'s key: each (table, case, seed) trains once and loads
/// bit-exact thereafter. Returns the generated dataset the victim was
/// trained on alongside it.
pub fn train_victim(spec: &TableSpec, case: &CaseSpec, seed: u64) -> (Dataset, Victim) {
    cached_victim(&victim_fixture(spec, case, seed), |data| {
        train_case(data, spec, case, seed)
    })
}

/// Everything one victim contributes to its case's aggregates: accuracy,
/// ASR, and per-defense `(seconds, reported L1, verdict)` in suite order.
struct ModelRun {
    accuracy: f64,
    asr: f64,
    per_defense: Vec<(f64, f64, usb_defenses::ModelVerdict)>,
}

/// Trains and inspects one victim of a case (the per-model unit of work the
/// grid fans out over worker threads).
fn run_model(
    spec: &TableSpec,
    case: &CaseSpec,
    seed: u64,
    m: usize,
    models_per_case: usize,
    suite: &DefenseSuite,
    progress: &(impl Fn(&str) + Sync),
) -> ModelRun {
    let (data, victim) = train_victim(spec, case, seed);
    progress(&format!(
        "[{}] case '{}' model {}/{}: acc {:.2} asr {:.2}",
        spec.id,
        case.attack.label(),
        m + 1,
        models_per_case,
        victim.clean_accuracy,
        victim.asr()
    ));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdefe_15e5);
    let (clean_x, _) = data.clean_subset(spec.defense_samples, &mut rng);
    let truth = victim.targets();
    // ULP must come LAST: it never consumes the shared rng, so appending it
    // keeps the NC/TABOR/USB random streams (and thus all seed-tuned
    // results) byte-identical to the three-defense grid.
    let defenses: [&dyn Defense; 4] = [&suite.nc, &suite.tabor, &suite.usb, &suite.ulp];
    let mut per_defense = Vec::with_capacity(defenses.len());
    for defense in defenses {
        let t0 = std::time::Instant::now();
        let outcome = defense.inspect(&victim.model, &clean_x, &mut rng);
        let dt = t0.elapsed().as_secs_f64();
        let verdict = score_outcome(&outcome, &truth);
        per_defense.push((dt, outcome.reported_l1(), verdict));
        progress(&format!(
            "[{}]   {} -> {} (flagged {:?}, L1 {:.2}, {:.1}s)",
            spec.id,
            defense.name(),
            if verdict.called_backdoored {
                "backdoored"
            } else {
                "clean"
            },
            outcome.flagged,
            outcome.reported_l1(),
            dt
        ));
    }
    ModelRun {
        accuracy: victim.clean_accuracy,
        asr: victim.asr(),
        per_defense,
    }
}

/// Runs a full table: `models_per_case` victims per case, all four
/// defenses on each, scored and aggregated.
///
/// The victims of a case run **in parallel** on the [`usb_tensor::par`]
/// worker pool (`USB_THREADS` / available parallelism): every model's
/// training and inspection seeds are fixed functions of its case and model
/// index, so the per-model work is fully independent and the aggregated
/// report is identical at any thread count — results are folded in model
/// order after the fan-in. The one exception is the wall-clock
/// [`MethodCell::seconds`] cells, which measure real elapsed time and
/// therefore include cross-model contention when victims run concurrently.
///
/// `progress` receives human-readable status lines (pass `|_| {}` to
/// silence); it may be called from worker threads, so lines from different
/// models can interleave.
pub fn run_table(
    spec: &TableSpec,
    models_per_case: usize,
    suite: &DefenseSuite,
    progress: impl Fn(&str) + Sync,
) -> TableReport {
    let mut cases = Vec::with_capacity(spec.cases.len());
    for (ci, case) in spec.cases.iter().enumerate() {
        let mut report = CaseReport {
            label: case.attack.label(),
            mean_accuracy: 0.0,
            mean_asr: 0.0,
            models: models_per_case,
            cells: vec![
                MethodCell {
                    method: "NC",
                    ..MethodCell::default()
                },
                MethodCell {
                    method: "TABOR",
                    ..MethodCell::default()
                },
                MethodCell {
                    method: "USB",
                    ..MethodCell::default()
                },
                MethodCell {
                    method: "ULP",
                    ..MethodCell::default()
                },
            ],
        };
        let model_ids: Vec<usize> = (0..models_per_case).collect();
        let runs = par::par_map(0, &model_ids, |_, &m| {
            let seed = (ci as u64) * 1000 + m as u64;
            run_model(spec, case, seed, m, models_per_case, suite, &progress)
        });
        // Fold in model order so float accumulation matches a sequential
        // run exactly.
        for run in &runs {
            report.mean_accuracy += run.accuracy / models_per_case as f64;
            report.mean_asr += run.asr / models_per_case as f64;
            for (di, &(dt, l1, verdict)) in run.per_defense.iter().enumerate() {
                let cell = &mut report.cells[di];
                cell.seconds += dt;
                cell.mean_l1 += l1 / models_per_case as f64;
                if verdict.called_backdoored {
                    cell.called_backdoored += 1;
                } else {
                    cell.called_clean += 1;
                }
                match verdict.target_call {
                    TargetClassCall::Correct => cell.correct += 1,
                    TargetClassCall::CorrectSet => cell.correct_set += 1,
                    TargetClassCall::Wrong => cell.wrong += 1,
                    TargetClassCall::NotApplicable => {}
                }
            }
        }
        cases.push(report);
    }
    TableReport {
        id: spec.id,
        title: spec.title.clone(),
        cases,
    }
}

// ---------------------------------------------------------------------
// The paper's tables, scaled per EXPERIMENTS.md.
// ---------------------------------------------------------------------

fn badnet_cases() -> Vec<CaseSpec> {
    vec![
        CaseSpec {
            attack: AttackChoice::Clean,
            poison_rate: 0.15,
        },
        CaseSpec {
            attack: AttackChoice::BadNet { trigger: 2 },
            poison_rate: 0.15,
        },
        CaseSpec {
            attack: AttackChoice::BadNet { trigger: 3 },
            poison_rate: 0.15,
        },
    ]
}

/// Table 1: CIFAR-10-like + ResNet-18; clean / BadNet 2×2 / BadNet 3×3.
pub fn table1() -> TableSpec {
    TableSpec {
        id: "table1",
        title: "Detection evaluation on CIFAR-10 (ResNet-18)".to_owned(),
        dataset: SyntheticSpec::cifar10()
            .with_size(12)
            .with_train_size(400)
            .with_test_size(100),
        model: ModelKind::ResNet18,
        width: 4,
        train: TrainConfig::new(20),
        cases: badnet_cases(),
        defense_samples: 48,
    }
}

/// Table 2: ImageNet-subset-like + EfficientNet-B0; BadNet triggers scaled
/// proportionally to the paper's 20×20 / 25×25 / 30×30 on 224×224.
pub fn table2() -> TableSpec {
    TableSpec {
        id: "table2",
        title: "Detection evaluation on ImageNet subset (EfficientNet-B0)".to_owned(),
        dataset: SyntheticSpec::imagenet_subset()
            .with_size(20)
            .with_train_size(400)
            .with_test_size(100),
        model: ModelKind::EfficientNetB0,
        width: 6,
        train: TrainConfig::new(20),
        cases: vec![
            CaseSpec {
                attack: AttackChoice::BadNet { trigger: 2 },
                poison_rate: 0.15,
            },
            CaseSpec {
                attack: AttackChoice::BadNet { trigger: 3 },
                poison_rate: 0.15,
            },
            CaseSpec {
                attack: AttackChoice::BadNet { trigger: 4 },
                poison_rate: 0.15,
            },
        ],
        defense_samples: 48,
    }
}

/// Table 3: VGG-16 + CIFAR-10-like; clean / latent backdoor / IAD.
pub fn table3() -> TableSpec {
    TableSpec {
        id: "table3",
        title: "Stronger backdoor attacks on VGG-16 (CIFAR-10)".to_owned(),
        dataset: SyntheticSpec::cifar10()
            .with_size(12)
            .with_train_size(400)
            .with_test_size(100),
        model: ModelKind::Vgg16,
        width: 6,
        train: TrainConfig::new(20),
        cases: vec![
            CaseSpec {
                attack: AttackChoice::Clean,
                poison_rate: 0.15,
            },
            CaseSpec {
                attack: AttackChoice::Latent { trigger: 2 },
                poison_rate: 0.15,
            },
            CaseSpec {
                attack: AttackChoice::Iad,
                poison_rate: 0.2,
            },
        ],
        defense_samples: 48,
    }
}

/// Table 4: VGG-16 + CIFAR-10-like; clean / BadNet 2×2 / 3×3 (appendix).
pub fn table4() -> TableSpec {
    TableSpec {
        id: "table4",
        title: "Detection evaluation on VGG-16 (CIFAR-10)".to_owned(),
        dataset: SyntheticSpec::cifar10()
            .with_size(12)
            .with_train_size(400)
            .with_test_size(100),
        model: ModelKind::Vgg16,
        width: 6,
        train: TrainConfig::new(20),
        cases: badnet_cases(),
        defense_samples: 48,
    }
}

/// Table 5: MNIST-like + ResNet-18; clean / BadNet 2×2 / 3×3 (appendix).
pub fn table5() -> TableSpec {
    TableSpec {
        id: "table5",
        title: "Detection evaluation on MNIST (ResNet-18)".to_owned(),
        dataset: SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(400)
            .with_test_size(100),
        model: ModelKind::ResNet18,
        width: 4,
        train: TrainConfig::new(20),
        cases: badnet_cases(),
        defense_samples: 48,
    }
}

/// Table 6: GTSRB-like (many classes, shared features) + ResNet-18.
pub fn table6() -> TableSpec {
    TableSpec {
        id: "table6",
        title: "Detection evaluation on GTSRB (ResNet-18)".to_owned(),
        dataset: SyntheticSpec::gtsrb()
            .with_size(12)
            .with_classes(16) // scaled from 43; still ≫ the 10-class tables
            .with_train_size(480)
            .with_test_size(120),
        model: ModelKind::ResNet18,
        width: 4,
        train: TrainConfig::new(20),
        cases: badnet_cases(),
        defense_samples: 64,
    }
}

/// Table 8: the attack-scenario matrix — single-target, multi-target, and
/// blended-trigger backdoors on MNIST-like + ResNet-18, all four defenses.
pub fn table8() -> TableSpec {
    TableSpec {
        id: "table8",
        title: "Attack scenario matrix on MNIST (ResNet-18)".to_owned(),
        dataset: SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(400)
            .with_test_size(100),
        model: ModelKind::ResNet18,
        width: 4,
        train: TrainConfig::new(20),
        cases: vec![
            CaseSpec {
                attack: AttackChoice::Clean,
                poison_rate: 0.15,
            },
            CaseSpec {
                attack: AttackChoice::BadNet { trigger: 2 },
                poison_rate: 0.15,
            },
            CaseSpec {
                attack: AttackChoice::MultiBadNet {
                    trigger: 2,
                    targets: 2,
                },
                poison_rate: 0.15,
            },
            CaseSpec {
                attack: AttackChoice::Blended { alpha: 0.15 },
                poison_rate: 0.15,
            },
        ],
        defense_samples: 48,
    }
}

/// All tables in paper order, plus the scenario matrix.
pub fn all_tables() -> Vec<TableSpec> {
    vec![
        table1(),
        table2(),
        table3(),
        table4(),
        table5(),
        table6(),
        table8(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_well_formed() {
        for spec in all_tables() {
            assert!(!spec.cases.is_empty(), "{}: no cases", spec.id);
            assert!(spec.defense_samples > 0);
            // Architecture must build for the dataset shape.
            let arch = spec.arch();
            assert_eq!(arch.num_classes, spec.dataset.num_classes);
        }
    }

    #[test]
    fn case_labels_follow_paper_wording() {
        assert_eq!(
            AttackChoice::BadNet { trigger: 2 }.label(),
            "Backdoored (2x2 trigger)"
        );
        assert_eq!(AttackChoice::Clean.label(), "Clean");
        assert!(AttackChoice::Iad.label().contains("Input Aware"));
        assert_eq!(
            AttackChoice::MultiBadNet {
                trigger: 2,
                targets: 2
            }
            .label(),
            "Multi-target Backdoored (2 targets, 2x2 trigger)"
        );
        assert!(AttackChoice::Blended { alpha: 0.15 }
            .label()
            .contains("Blended"));
    }

    #[test]
    fn train_victim_matches_case() {
        let spec = TableSpec {
            dataset: SyntheticSpec::mnist()
                .with_size(12)
                .with_train_size(80)
                .with_test_size(20)
                .with_classes(4),
            ..table5()
        };
        let case = CaseSpec {
            attack: AttackChoice::BadNet { trigger: 2 },
            poison_rate: 0.15,
        };
        let victim = train_case(&spec.dataset.generate(3), &spec, &case, 3);
        assert!(victim.is_backdoored());
        assert_eq!(victim.targets(), vec![3]); // seed % classes
    }

    #[test]
    fn multi_target_victim_implants_consecutive_classes() {
        let spec = TableSpec {
            dataset: SyntheticSpec::mnist()
                .with_size(12)
                .with_train_size(80)
                .with_test_size(20)
                .with_classes(4),
            train: TrainConfig::fast(),
            ..table5()
        };
        let case = CaseSpec {
            attack: AttackChoice::MultiBadNet {
                trigger: 2,
                targets: 2,
            },
            poison_rate: 0.15,
        };
        let victim = train_case(&spec.dataset.generate(3), &spec, &case, 3);
        assert!(victim.is_backdoored());
        // base = seed % classes = 3, so targets {3, (3+1)%4} = {0, 3}.
        assert_eq!(victim.targets(), vec![0, 3]);
    }

    #[test]
    fn blended_victim_is_single_target() {
        let spec = TableSpec {
            dataset: SyntheticSpec::mnist()
                .with_size(12)
                .with_train_size(80)
                .with_test_size(20)
                .with_classes(4),
            train: TrainConfig::fast(),
            ..table5()
        };
        let case = CaseSpec {
            attack: AttackChoice::Blended { alpha: 0.15 },
            poison_rate: 0.15,
        };
        let victim = train_case(&spec.dataset.generate(3), &spec, &case, 3);
        assert!(victim.is_backdoored());
        assert_eq!(victim.targets(), vec![3]);
    }

    #[test]
    fn scenario_matrix_covers_all_three_backdoor_shapes() {
        let spec = table8();
        assert!(spec
            .cases
            .iter()
            .any(|c| matches!(c.attack, AttackChoice::BadNet { .. })));
        assert!(spec
            .cases
            .iter()
            .any(|c| matches!(c.attack, AttackChoice::MultiBadNet { .. })));
        assert!(spec
            .cases
            .iter()
            .any(|c| matches!(c.attack, AttackChoice::Blended { .. })));
    }
}
