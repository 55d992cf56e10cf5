//! The paper's Table 3 story: NC-style defenses cannot reverse an
//! Input-Aware Dynamic (IAD) trigger — it is input-specific and spans the
//! whole image — while USB's UAP-seeded search still finds the shortcut.
//!
//! ```text
//! cargo run --release --example dynamic_trigger_iad
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use universal_soldier::prelude::*;

fn main() {
    let data = SyntheticSpec::cifar10()
        .with_size(12)
        .with_train_size(400)
        .with_test_size(100)
        .generate(23);
    let arch = Architecture::new(ModelKind::Vgg16, (3, 12, 12), 10).with_width(6);

    println!("training IAD victim (generator + classifier jointly)...");
    let attack = IadAttack::new(6);
    let victim = attack.execute(&data, arch, TrainConfig::new(20), 5);
    println!(
        "victim: clean acc {:.2}, asr {:.2} (full-image input-specific trigger)",
        victim.clean_accuracy,
        victim.asr()
    );

    // Demonstrate input-awareness: patterns for two inputs differ.
    if let [BackdoorImplant {
        trigger: InjectedTrigger::Dynamic(generator),
        ..
    }] = victim.implants()
    {
        let pair = Tensor::stack(&[
            data.test_images.index_axis0(0),
            data.test_images.index_axis0(1),
        ]);
        let patterns = generator.generate(&pair, &mut Workspace::new());
        let diff = patterns
            .index_axis0(0)
            .sub(&patterns.index_axis0(1))
            .l1_norm();
        println!("pattern L1 difference across two inputs: {diff:.2} (input-aware)");
    }

    let mut rng = StdRng::seed_from_u64(9);
    let (clean_x, _) = data.clean_subset(48, &mut rng);
    let nc = NeuralCleanse::new(NcConfig::standard());
    let usb = UsbDetector::new(UsbConfig::standard());

    println!("\nNC inspecting...");
    let nc_out = nc.inspect(&victim.model, &clean_x, &mut rng);
    println!(
        "NC   : called {:<10} flagged {:?}",
        if nc_out.is_backdoored() {
            "BACKDOORED"
        } else {
            "clean"
        },
        nc_out.flagged
    );

    println!("USB inspecting...");
    let usb_out = usb.inspect(&victim.model, &clean_x, &mut rng);
    println!(
        "USB  : called {:<10} flagged {:?} (true targets {:?})",
        if usb_out.is_backdoored() {
            "BACKDOORED"
        } else {
            "clean"
        },
        usb_out.flagged,
        victim.targets()
    );

    println!("\nper-class norms (NC vs USB):");
    for t in 0..10 {
        println!(
            "  class {t}: NC {:>8.2}   USB {:>8.2}",
            nc_out.per_class[t].l1_norm, usb_out.per_class[t].l1_norm
        );
    }
}
