//! Quickstart: train a BadNet-backdoored victim on a synthetic CIFAR-10-like
//! task, then let USB reverse-engineer the trigger and identify the target
//! class.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use universal_soldier::prelude::*;
use universal_soldier::usb::viz::ascii_art;

fn main() {
    // 1. A synthetic stand-in for CIFAR-10 (see usb-data docs for why this
    //    preserves the detection problem), shrunk for CPU speed.
    let data = SyntheticSpec::cifar10()
        .with_size(12)
        .with_train_size(400)
        .with_test_size(100)
        .generate(7);

    // 2. The adversary: BadNet with a 2x2 checkerboard trigger at a random
    //    position, all-to-one toward class 0.
    let arch = Architecture::new(ModelKind::ResNet18, (3, 12, 12), 10).with_width(4);
    let attack = BadNet::new(2, 0, 0.15);
    println!("training backdoored victim (ResNet-18, ~20 epochs on CPU)...");
    let victim = attack.execute(&data, arch, TrainConfig::new(20), 7);
    println!(
        "victim ready: clean accuracy {:.1}%, attack success rate {:.1}%",
        victim.clean_accuracy * 100.0,
        victim.asr() * 100.0
    );

    // 3. The defender: USB sees only the model and 48 clean samples.
    let mut rng = StdRng::seed_from_u64(0);
    let (clean_x, _) = data.clean_subset(48, &mut rng);
    println!("running USB (targeted UAP per class + Alg. 2 refinement)...");
    let usb = UsbDetector::new(UsbConfig::standard());
    let outcome = usb.inspect(&victim.model, &clean_x, &mut rng);

    // 4. The verdict.
    println!("\nper-class reversed-trigger L1 norms:");
    for c in &outcome.per_class {
        println!(
            "  class {}: L1 {:>7.2}  (anomaly index {:.2}, trigger works on {:.0}% of data){}",
            c.class,
            c.l1_norm,
            outcome.anomaly_indices[c.class],
            c.attack_success * 100.0,
            if outcome.flagged.contains(&c.class) {
                "  <-- FLAGGED"
            } else {
                ""
            }
        );
    }
    println!(
        "\nmodel is {}",
        if outcome.is_backdoored() {
            "BACKDOORED"
        } else {
            "clean"
        }
    );
    if let Some(&t) = outcome.flagged.first() {
        println!(
            "suspected target class: {t} (ground truth: {:?})",
            victim.targets()
        );
        println!("reversed mask:\n{}", ascii_art(&outcome.per_class[t].mask));
    }
}
