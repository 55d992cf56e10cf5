//! Head-to-head: Neural Cleanse vs TABOR vs USB vs ULP on one backdoored
//! and one clean victim — a one-model slice of the paper's Table 1.
//!
//! ```text
//! cargo run --release --example compare_defenses
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use universal_soldier::prelude::*;

fn report(name: &str, outcome: &DetectionOutcome, truth: &[usize], seconds: f64) {
    let verdict = score_outcome(outcome, truth);
    println!(
        "  {name:<6} called {:<10} flagged {:?} (reported L1 {:.2}, {:.1}s) -> {}",
        if verdict.called_backdoored {
            "BACKDOORED"
        } else {
            "clean"
        },
        outcome.flagged,
        outcome.reported_l1(),
        seconds,
        match verdict.target_call {
            TargetClassCall::Correct => "correct target",
            TargetClassCall::CorrectSet => "correct set",
            TargetClassCall::Wrong => "WRONG target",
            TargetClassCall::NotApplicable =>
                if verdict.model_detection_correct {
                    "correct"
                } else {
                    "INCORRECT"
                },
        }
    );
}

fn main() {
    let spec = SyntheticSpec::cifar10()
        .with_size(12)
        .with_train_size(400)
        .with_test_size(100);
    let arch = Architecture::new(ModelKind::ResNet18, (3, 12, 12), 10).with_width(4);
    let attack = BadNet::new(2, 4, 0.15);
    let tc = TrainConfig::new(20);

    // Victims memoize under target/fixtures/ — the first run trains them,
    // later runs load bit-exact bundles (see PERSISTENCE.md).
    println!("fetching one backdoored and one clean victim (cached after the first run)...");
    let bd_fixture =
        FixtureSpec::new("example-compare-badnet", spec.clone(), 11, 1).with_config(&[
            &format!("{arch:?}"),
            &format!("{attack:?}"),
            &format!("{tc:?}"),
        ]);
    let (data, backdoored) = cached_victim(&bd_fixture, |data| attack.execute(data, arch, tc, 1));
    let clean_fixture = FixtureSpec::new("example-compare-clean", spec, 11, 2).with_config(&[
        &format!("{arch:?}"),
        "clean",
        &format!("{tc:?}"),
    ]);
    let (_, clean) = cached_victim(&clean_fixture, |data| train_clean_victim(data, arch, tc, 2));
    println!(
        "backdoored: acc {:.2} asr {:.2} | clean: acc {:.2}",
        backdoored.clean_accuracy,
        backdoored.asr(),
        clean.clean_accuracy
    );

    let mut rng = StdRng::seed_from_u64(3);
    let (clean_x, _) = data.clean_subset(48, &mut rng);
    let nc = NeuralCleanse::new(NcConfig::standard());
    let tabor = Tabor::new(TaborConfig::standard());
    let usb = UsbDetector::new(UsbConfig::standard());
    let ulp = Ulp::new(UlpConfig::standard());
    // ULP last: it never draws from the shared rng, so the NC/TABOR/USB
    // streams stay identical to the three-defense comparison.
    let suite: [(&str, &dyn Defense); 4] =
        [("NC", &nc), ("TABOR", &tabor), ("USB", &usb), ("ULP", &ulp)];

    println!(
        "\n--- backdoored victim (true targets: {:?}) ---",
        backdoored.targets()
    );
    for (name, defense) in suite {
        let t0 = Instant::now();
        let outcome = defense.inspect(&backdoored.model, &clean_x, &mut rng);
        report(
            name,
            &outcome,
            &backdoored.targets(),
            t0.elapsed().as_secs_f64(),
        );
    }

    println!("\n--- clean victim ---");
    for (name, defense) in suite {
        let t0 = Instant::now();
        let outcome = defense.inspect(&clean.model, &clean_x, &mut rng);
        report(name, &outcome, &[], t0.elapsed().as_secs_f64());
    }
}
