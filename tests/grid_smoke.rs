//! Smoke test of the `usb-eval` grid: a miniature table runs end to end and
//! produces a structurally correct report plus CSV.

use universal_soldier::attacks::fixtures::fixture_dir;
use universal_soldier::data::SyntheticSpec;
use universal_soldier::eval::grid::{
    run_table, table5, victim_fixture, AttackChoice, CaseSpec, DefenseSuite, TableSpec,
};
use universal_soldier::eval::{format_table, write_csv};
use universal_soldier::nn::models::ModelKind;
use universal_soldier::nn::train::TrainConfig;

fn tiny_spec() -> TableSpec {
    TableSpec {
        dataset: SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(240)
            .with_test_size(60)
            .with_classes(6),
        model: ModelKind::ResNet18,
        width: 4,
        train: TrainConfig::new(20),
        cases: vec![CaseSpec {
            attack: AttackChoice::BadNet { trigger: 2 },
            poison_rate: 0.15,
        }],
        defense_samples: 40,
        ..table5()
    }
}

/// Deletes the cached bundle of the one victim `run_table(spec, 1, ..)`
/// trains (case 0, seed 0), so the run below trains it afresh and the
/// accuracy/ASR checks measure today's attack and training code rather
/// than a stored bundle.
fn force_retrain(spec: &TableSpec) {
    let bundle = fixture_dir().join(victim_fixture(spec, &spec.cases[0], 0).file_name());
    std::fs::remove_file(bundle).ok();
}

#[test]
fn mini_table_runs_and_reports() {
    let spec = tiny_spec();
    force_retrain(&spec);
    let suite = DefenseSuite::fast();
    // The grid may call `progress` from worker threads.
    let lines = std::sync::atomic::AtomicUsize::new(0);
    let report = run_table(&spec, 1, &suite, |_| {
        lines.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    });
    assert!(
        lines.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "progress callback never fired"
    );
    assert_eq!(report.cases.len(), 1);
    let case = &report.cases[0];
    assert_eq!(case.cells.len(), 4, "NC, TABOR, USB, ULP");
    assert!(case.mean_accuracy > 0.7, "victim under-trained");
    assert!(case.mean_asr > 0.7, "attack failed");
    for cell in &case.cells {
        assert_eq!(cell.called_clean + cell.called_backdoored, 1);
        assert!(cell.mean_l1.is_finite() && cell.mean_l1 >= 0.0);
        assert!(cell.seconds > 0.0);
    }
    // USB must beat the reverse-engineering baselines (Table 7's
    // ordering). ULP is excluded from the race: its first inspection of a
    // new input signature pays one-off litmus-bank training.
    let seconds: Vec<f64> = case.cells.iter().map(|c| c.seconds).collect();
    assert!(
        seconds[2] < seconds[0] && seconds[2] < seconds[1],
        "USB should beat NC and TABOR: NC {:.1}s TABOR {:.1}s USB {:.1}s",
        seconds[0],
        seconds[1],
        seconds[2]
    );

    // Formatting and CSV round-trip.
    let text = format_table(&report);
    assert!(text.contains("Backdoored (2x2 trigger)"));
    assert!(text.contains("USB"));
    assert!(text.contains("ULP"));
    let path = std::env::temp_dir().join("usb_grid_smoke").join("t.csv");
    write_csv(&report, &path).unwrap();
    let csv = std::fs::read_to_string(&path).unwrap();
    assert_eq!(csv.lines().count(), 5, "header + 4 method rows");
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn mini_multi_target_row_runs_and_reports() {
    // One multi-target row through the full grid harness: two implanted
    // classes, all four defenses, aggregates structurally sound.
    let spec = TableSpec {
        cases: vec![CaseSpec {
            attack: AttackChoice::MultiBadNet {
                trigger: 2,
                targets: 2,
            },
            poison_rate: 0.15,
        }],
        ..tiny_spec()
    };
    force_retrain(&spec);
    let suite = DefenseSuite::fast();
    let report = run_table(&spec, 1, &suite, |_| {});
    assert_eq!(report.cases.len(), 1);
    let case = &report.cases[0];
    assert_eq!(case.cells.len(), 4, "NC, TABOR, USB, ULP");
    assert!(case.mean_accuracy > 0.6, "victim under-trained");
    assert!(case.mean_asr > 0.6, "mean ASR over both implants too low");
    for cell in &case.cells {
        assert_eq!(cell.called_clean + cell.called_backdoored, 1);
        assert!(cell.mean_l1.is_finite() && cell.mean_l1 >= 0.0);
        // Set semantics: the verdict tallies land in exactly one bucket
        // (or none, when the defense calls the model clean).
        assert!(cell.correct + cell.correct_set + cell.wrong <= 1);
    }
    let text = format_table(&report);
    assert!(text.contains("Multi-target Backdoored (2 targets, 2x2 trigger)"));
}
