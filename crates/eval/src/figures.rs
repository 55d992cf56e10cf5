//! The paper's figures, regenerated as PGM/PPM dumps plus printed
//! statistics.
//!
//! | figure | content |
//! |---|---|
//! | Fig. 1 | random NC start vs UAP(backdoored) vs UAP(clean) vs NC-optimised pattern |
//! | Fig. 2–4 | original trigger vs NC / TABOR / USB reconstructions |
//! | Fig. 5 | USB per-class reversed triggers, basic CNN, no mask constraint |
//! | Fig. 6 | reversed triggers for classes 0–9 by every method |
//! | headline | §4.2's "backdoored-class L1 ≪ others" statistic |
//! | transfer | §4.4's UAP reuse across models |

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;
use std::path::{Path, PathBuf};
use usb_attacks::{train_clean_victim, Attack, BackdoorImplant, BadNet, InjectedTrigger};
use usb_core::viz::{ascii_art, save_image, save_pgm};
use usb_core::{
    refine_uap, targeted_uap, transfer_uap, RefineConfig, UapConfig, UsbConfig, UsbDetector,
};
use usb_data::SyntheticSpec;
use usb_defenses::{masked_pattern, Defense, NeuralCleanse, Tabor, TriggerVar};
use usb_nn::models::{Architecture, ModelKind};
use usb_nn::train::TrainConfig;
use usb_tensor::Workspace;

fn cifar_resnet_setup() -> (usb_data::Dataset, Architecture) {
    let dataset = SyntheticSpec::cifar10()
        .with_size(12)
        .with_train_size(400)
        .with_test_size(100);
    let arch = Architecture::new(ModelKind::ResNet18, (3, 12, 12), 10).with_width(4);
    (dataset.generate(777), arch)
}

/// Fig. 1: "The random point is barely updated by NC." Compares the L1
/// mass of (a) NC's random starting pattern, (b) the targeted UAP of a
/// backdoored model, (c) the targeted UAP of a clean model, and (d) NC's
/// optimised pattern; dumps all four as images.
///
/// # Errors
///
/// Returns the first I/O error from writing an image dump — a figure run
/// that silently produces no figures is a failed run.
pub fn fig1(out_dir: &Path, mut progress: impl FnMut(&str)) -> io::Result<Vec<(String, f64)>> {
    let (data, arch) = cifar_resnet_setup();
    let backdoored = BadNet::new(2, 0, 0.15).execute(&data, arch, TrainConfig::new(20), 1);
    let clean = train_clean_victim(&data, arch, TrainConfig::new(20), 2);
    progress(&format!(
        "[fig1] victims: backdoored asr {:.2}, clean acc {:.2}",
        backdoored.asr(),
        clean.clean_accuracy
    ));
    let mut rng = StdRng::seed_from_u64(0);
    let (x, _) = data.clean_subset(32, &mut rng);
    // (a) NC's random start.
    let random_var = TriggerVar::random(3, 12, 12, &mut rng);
    let random_pattern = random_var.pattern();
    // (b) / (c) targeted UAPs.
    let uap_bd = targeted_uap(&backdoored.model, &x, 0, UapConfig::default());
    let uap_clean = targeted_uap(&clean.model, &x, 0, UapConfig::default());
    // (d) NC-optimised pattern on the backdoored model.
    let nc = NeuralCleanse::fast();
    let nc_result = nc.reverse_class(&backdoored.model, &x, 0, &mut rng);
    let rows = vec![
        ("random_start".to_owned(), random_pattern.l1_norm() as f64),
        ("uap_backdoored".to_owned(), uap_bd.l1_norm()),
        ("uap_clean".to_owned(), uap_clean.l1_norm()),
        (
            "nc_optimized".to_owned(),
            nc_result.pattern.l1_norm() as f64,
        ),
    ];
    save_image(
        &out_dir.join("fig1_random_start.ppm"),
        &random_pattern,
        0.0,
        1.0,
    )?;
    save_image(
        &out_dir.join("fig1_uap_backdoored.ppm"),
        &uap_bd.perturbation,
        -0.5,
        0.5,
    )?;
    save_image(
        &out_dir.join("fig1_uap_clean.ppm"),
        &uap_clean.perturbation,
        -0.5,
        0.5,
    )?;
    save_image(
        &out_dir.join("fig1_nc_optimized.ppm"),
        &nc_result.pattern,
        0.0,
        1.0,
    )?;
    for (name, l1) in &rows {
        progress(&format!("[fig1] {name}: L1 = {l1:.2}"));
    }
    Ok(rows)
}

/// Figs. 2–4: original trigger vs the three reconstructions, dumped as
/// images (CIFAR-10-like setting; Fig. 2's ImageNet rows use the Table 2
/// setting when `imagenet` is true).
///
/// # Errors
///
/// Returns the first I/O error from writing an image dump.
pub fn fig_reconstructions(
    out_dir: &Path,
    imagenet: bool,
    mut progress: impl FnMut(&str),
) -> io::Result<Vec<(String, f64)>> {
    let (data, arch) = if imagenet {
        let dataset = SyntheticSpec::imagenet_subset()
            .with_size(20)
            .with_train_size(400)
            .with_test_size(100);
        (
            dataset.generate(778),
            Architecture::new(ModelKind::EfficientNetB0, (3, 20, 20), 10).with_width(6),
        )
    } else {
        cifar_resnet_setup()
    };
    let victim = BadNet::new(2, 0, 0.15).execute(&data, arch, TrainConfig::new(20), 3);
    progress(&format!("[fig2-4] victim asr {:.2}", victim.asr()));
    let mut rng = StdRng::seed_from_u64(1);
    let (x, _) = data.clean_subset(32, &mut rng);
    // Save the original trigger.
    let mut rows = Vec::new();
    if let [BackdoorImplant {
        trigger: InjectedTrigger::Static(trigger),
        ..
    }] = victim.implants()
    {
        save_image(
            &out_dir.join("orig_trigger.ppm"),
            trigger.pattern(),
            0.0,
            1.0,
        )?;
        save_pgm(&out_dir.join("orig_mask.pgm"), trigger.mask(), 0.0, 1.0)?;
        rows.push(("original".to_owned(), trigger.mask_l1()));
    }
    let nc = NeuralCleanse::fast();
    let tabor = Tabor::fast();
    let usb = UsbDetector::fast();
    let defenses: [(&str, &dyn Defense); 3] = [("nc", &nc), ("tabor", &tabor), ("usb", &usb)];
    for (name, defense) in defenses {
        let r = defense.reverse_class(&victim.model, &x, 0, &mut rng);
        save_image(
            &out_dir.join(format!("reversed_{name}_pattern.ppm")),
            &r.pattern,
            0.0,
            1.0,
        )?;
        save_pgm(
            &out_dir.join(format!("reversed_{name}_mask.pgm")),
            &r.mask,
            0.0,
            1.0,
        )?;
        progress(&format!(
            "[fig2-4] {name}: mask L1 {:.2}, success {:.2}",
            r.l1_norm, r.attack_success
        ));
        rows.push((name.to_owned(), r.l1_norm));
    }
    Ok(rows)
}

/// Fig. 5: USB reverse engineering for all classes of an MNIST-like basic
/// CNN with the mask-size constraint removed (`L = CE − SSIM`, paper §A.6).
/// The backdoored class learns the trigger; clean classes learn their own
/// class features.
///
/// # Errors
///
/// Returns the first I/O error from writing an image dump.
pub fn fig5(out_dir: &Path, mut progress: impl FnMut(&str)) -> io::Result<Vec<f64>> {
    let data = SyntheticSpec::mnist()
        .with_size(12)
        .with_train_size(400)
        .with_test_size(100)
        .generate(779);
    let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 10).with_width(16);
    let target = 1; // the paper's Fig. 5 uses class 1
    let victim = BadNet::new(3, target, 0.15).execute(&data, arch, TrainConfig::new(30), 4);
    progress(&format!("[fig5] victim asr {:.2}", victim.asr()));
    let mut rng = StdRng::seed_from_u64(2);
    let (x, _) = data.clean_subset(48, &mut rng);
    // Save a triggered sample first (the figure's leftmost panel).
    if let [BackdoorImplant {
        trigger: InjectedTrigger::Static(trigger),
        ..
    }] = victim.implants()
    {
        let carried = trigger.stamp(&data.test_images.index_axis0(0), &mut Workspace::new());
        save_image(
            &out_dir.join("fig5_triggered_input.ppm"),
            &carried,
            0.0,
            1.0,
        )?;
    }
    let refine = RefineConfig::standard().without_mask_constraint();
    let mut norms = Vec::new();
    for t in 0..10 {
        let uap = targeted_uap(&victim.model, &x, t, UapConfig::default());
        let fit = refine_uap(&victim.model, &x, t, &uap.perturbation, refine);
        let v = masked_pattern(&fit.var.pattern(), &fit.var.mask(), &mut Workspace::new());
        save_image(&out_dir.join(format!("fig5_class{t}.ppm")), &v, 0.0, 1.0)?;
        norms.push(v.l1_norm() as f64);
        progress(&format!(
            "[fig5] class {t}: v' L1 {:.2}{}",
            v.l1_norm(),
            if t == target { "  <- true target" } else { "" }
        ));
    }
    Ok(norms)
}

/// Fig. 6: reversed triggers for every class by NC, TABOR, and USB, dumped
/// as a grid of images. Returns (method, class, mask L1) triples.
///
/// # Errors
///
/// Returns the first I/O error from writing an image dump.
pub fn fig6(
    out_dir: &Path,
    mut progress: impl FnMut(&str),
) -> io::Result<Vec<(String, usize, f64)>> {
    let (data, arch) = cifar_resnet_setup();
    let victim = BadNet::new(2, 0, 0.15).execute(&data, arch, TrainConfig::new(20), 5);
    progress(&format!("[fig6] victim asr {:.2}", victim.asr()));
    let mut rng = StdRng::seed_from_u64(3);
    let (x, _) = data.clean_subset(32, &mut rng);
    let nc = NeuralCleanse::fast();
    let tabor = Tabor::fast();
    let usb = UsbDetector::fast();
    let defenses: [(&str, &dyn Defense); 3] = [("nc", &nc), ("tabor", &tabor), ("usb", &usb)];
    let mut rows = Vec::new();
    for (name, defense) in defenses {
        for t in 0..data.spec.num_classes {
            let r = defense.reverse_class(&victim.model, &x, t, &mut rng);
            save_image(
                &out_dir.join(format!("fig6_{name}_class{t}.ppm")),
                &r.pattern,
                0.0,
                1.0,
            )?;
            rows.push((name.to_owned(), t, r.l1_norm));
        }
        progress(&format!("[fig6] {name}: all classes reversed"));
    }
    Ok(rows)
}

/// §4.2 headline: USB per-class norms on one backdoored ResNet-18; the
/// backdoored class's norm must be far below the others' average (the
/// paper reports 4.49 vs 53.76). Returns `(target_norm, others_mean)`.
pub fn headline(mut progress: impl FnMut(&str)) -> (f64, f64) {
    let (data, arch) = cifar_resnet_setup();
    let victim = BadNet::new(2, 0, 0.15).execute(&data, arch, TrainConfig::new(20), 6);
    progress(&format!("[headline] victim asr {:.2}", victim.asr()));
    let mut rng = StdRng::seed_from_u64(4);
    let (x, _) = data.clean_subset(48, &mut rng);
    let usb = UsbDetector::new(UsbConfig::standard());
    let outcome = usb.inspect(&victim.model, &x, &mut rng);
    let target_norm = outcome.per_class[0].l1_norm;
    let others: Vec<f64> = outcome.per_class[1..].iter().map(|c| c.l1_norm).collect();
    let others_mean = others.iter().sum::<f64>() / others.len() as f64;
    progress(&format!(
        "[headline] USB L1(target 0) = {target_norm:.2}, mean others = {others_mean:.2}"
    ));
    progress(&format!("[headline] flagged: {:?}", outcome.flagged));
    // Show the reversed mask in the terminal, as the paper shows Fig. 3.
    progress(&format!(
        "[headline] reversed mask for class 0:\n{}",
        ascii_art(&outcome.per_class[0].mask)
    ));
    (target_norm, others_mean)
}

/// §4.4: generate the UAP once on model A, reuse it on model B (same
/// architecture, same data distribution). Returns
/// `(full_seconds, transfer_seconds, transfer_success)`.
pub fn transfer(mut progress: impl FnMut(&str)) -> (f64, f64, f64) {
    let (data, arch) = cifar_resnet_setup();
    let attack = BadNet::new(2, 0, 0.15);
    let a = attack.execute(&data, arch, TrainConfig::new(20), 7);
    let b = attack.execute(&data, arch, TrainConfig::new(20), 8);
    progress(&format!(
        "[transfer] victims: A asr {:.2}, B asr {:.2}",
        a.asr(),
        b.asr()
    ));
    let mut rng = StdRng::seed_from_u64(5);
    let (x, _) = data.clean_subset(32, &mut rng);
    // Full pipeline on B.
    let t0 = std::time::Instant::now();
    let uap_b = targeted_uap(&b.model, &x, 0, UapConfig::default());
    let _ = refine_uap(
        &b.model,
        &x,
        0,
        &uap_b.perturbation,
        RefineConfig::standard(),
    );
    let full = t0.elapsed().as_secs_f64();
    // Transfer: UAP from A, refinement only on B.
    let uap_a = targeted_uap(&a.model, &x, 0, UapConfig::default());
    let t0 = std::time::Instant::now();
    let out = transfer_uap(
        &b.model,
        &x,
        0,
        &uap_a.perturbation,
        RefineConfig::standard(),
    );
    let transfer_time = t0.elapsed().as_secs_f64();
    progress(&format!(
        "[transfer] full pipeline {:.2}s vs transfer {:.2}s; raw transfer success {:.2}, refined {:.2}",
        full, transfer_time, out.raw_transfer_success, out.refined.success_rate
    ));
    (full, transfer_time, out.refined.success_rate)
}

/// Default output directory for figure dumps.
pub fn default_out_dir() -> PathBuf {
    PathBuf::from("target/repro")
}
