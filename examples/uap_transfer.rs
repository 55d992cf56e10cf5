//! Paper §4.4: "the UAP can be used for different models with similar
//! architecture — we only need to generate it once."
//!
//! Generates the targeted UAP on model A, then runs only Alg. 2 refinement
//! on model B, comparing wall-clock and detection quality against the full
//! per-model pipeline.
//!
//! ```text
//! cargo run --release --example uap_transfer
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use universal_soldier::prelude::*;

fn main() {
    let data = SyntheticSpec::cifar10()
        .with_size(12)
        .with_train_size(400)
        .with_test_size(100)
        .generate(31);
    let arch = Architecture::new(ModelKind::ResNet18, (3, 12, 12), 10).with_width(4);
    let attack = BadNet::new(2, 2, 0.15);

    println!("training two victims with the same backdoor, different seeds...");
    let a = attack.execute(&data, arch, TrainConfig::new(20), 41);
    let b = attack.execute(&data, arch, TrainConfig::new(20), 42);
    println!("A: asr {:.2} | B: asr {:.2}", a.asr(), b.asr());

    let mut rng = StdRng::seed_from_u64(1);
    let (x, _) = data.clean_subset(48, &mut rng);
    let target = 2;

    let (uap, refine) = (UapConfig::default(), RefineConfig::standard());

    // Full pipeline on B (Alg. 1 + Alg. 2), on one tape and workspace.
    let t0 = Instant::now();
    let (mut tape, mut ws) = (Tape::new(), Workspace::new());
    let uap_b = targeted_uap(&b.model, &x, target, uap, &mut tape, &mut ws);
    let v = &uap_b.perturbation;
    let full_refined = refine_uap(&b.model, &x, target, v, refine, &mut tape, &mut ws);
    let t_full = t0.elapsed();

    // Transfer: UAP generated once on A, refinement only on B, timed from
    // a cold tape and workspace as the full pipeline was.
    let uap_a = targeted_uap(&a.model, &x, target, uap, &mut tape, &mut ws);
    let t0 = Instant::now();
    let (mut tape, mut ws) = (Tape::new(), Workspace::new());
    let v = &uap_a.perturbation;
    let transferred = transfer_uap(&b.model, &x, target, v, refine, &mut tape, &mut ws);
    let t_transfer = t0.elapsed();

    println!(
        "\nfull pipeline on B : {t_full:?}, refined success {:.2}, mask L1 {:.2}",
        full_refined.success_rate,
        full_refined.var.mask_l1()
    );
    println!(
        "transfer (A -> B)  : {t_transfer:?}, raw UAP success {:.2}, refined success {:.2}, mask L1 {:.2}",
        transferred.raw_transfer_success,
        transferred.refined.success_rate,
        transferred.refined.var.mask_l1()
    );
    println!(
        "\nspeedup from skipping Alg. 1: {:.1}x",
        t_full.as_secs_f64() / t_transfer.as_secs_f64().max(1e-9)
    );
}
