//! `usb-repro` — regenerate every table and figure of the USB paper, and
//! save / re-inspect victim models without retraining.
//!
//! ```text
//! usb-repro <experiment> [--models N] [--fast] [--out DIR]
//! usb-repro save    [--out PATH] [--fast] [--seed N] [--dtype f32|f16|q8]
//! usb-repro inspect <PATH>       [--fast] [--seed N]
//! usb-repro serve   [--addr A] [--workers N] [--cache-mb N]
//! usb-repro submit  <PATH> [--addr A] [--fast] [--seed N] [--subset N] [--workers N]
//! usb-repro submit  --shutdown [--addr A]
//!
//! experiments: table1 table2 table3 table4 table5 table6 table7 table8
//!              fig1 fig2 fig3 fig4 fig5 fig6 headline transfer all
//! ```
//!
//! `save` trains a BadNet victim (through the `target/fixtures/` cache, so
//! repeated saves don't retrain) and writes a self-contained bundle —
//! model, trigger, ground truth, dataset recipe — in the `PERSISTENCE.md`
//! format; `--dtype f16|q8` stores the weight bank at reduced precision
//! (see PERSISTENCE.md for the trade-offs). `inspect` loads any such
//! bundle, auto-detecting its weight dtype, draws clean data from the
//! stored recipe's class prototypes, and runs the USB detector on the
//! loaded model; for f32 bundles the verdict is bit-identical to
//! inspecting the in-memory victim.
//!
//! `serve` keeps that engine resident: a long-running daemon accepting
//! bundles over TCP (the USBP protocol, see ARCHITECTURE.md), with fair
//! queueing across client connections and a bounded resident-model cache.
//! `submit` sends one bundle to a running daemon and streams per-class
//! progress + the verdict back — same exit-code contract as `inspect`.

use rand::SeedableRng;
use std::path::PathBuf;
use std::process::ExitCode;
use usb_attacks::fixtures::{cached_victim, FixtureSpec};
use usb_attacks::persist::{peek_weight_dtype, read_victim_bytes, save_victim_dtype, VictimBundle};
use usb_attacks::{Attack, BadNet};
use usb_core::{UsbConfig, UsbDetector};
use usb_data::SyntheticSpec;
use usb_defenses::Defense;
use usb_eval::figures;
use usb_eval::grid::{self, DefenseSuite};
use usb_eval::serve::{Client, ServeConfig, Server, SubmitOptions};
use usb_eval::timing::{
    compare_bench_totals, format_timing, parse_bench_totals, report_totals, run_timing, timing_json,
};
use usb_eval::{format_table, write_csv};
use usb_nn::models::{Architecture, ModelKind};
use usb_nn::train::TrainConfig;
use usb_tensor::Dtype;

struct Options {
    experiment: String,
    models: usize,
    fast: bool,
    json: bool,
    out: PathBuf,
    path: Option<PathBuf>,
    seed: u64,
    compare: Option<PathBuf>,
    addr: String,
    workers: usize,
    subset: u32,
    shutdown: bool,
    dtype: Dtype,
    cache_mb: usize,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1).peekable();
    let experiment = args.next().ok_or_else(usage)?;
    let mut options = Options {
        experiment,
        models: 5,
        fast: false,
        json: false,
        out: figures::default_out_dir(),
        path: None,
        seed: 7,
        compare: None,
        addr: "127.0.0.1:7878".to_owned(),
        workers: 0,
        subset: 48,
        shutdown: false,
        dtype: Dtype::F32,
        cache_mb: 64,
    };
    match options.experiment.as_str() {
        "inspect" => {
            let p = args.next().ok_or("inspect needs a bundle path")?;
            options.path = Some(PathBuf::from(p));
            // The inspection seed the detector test suite validates
            // against the default save recipes; --seed below overrides.
            options.seed = 3;
        }
        "save" => options.out = figures::default_out_dir().join("victim.usbv"),
        // The bundle path is positional but optional: `submit --shutdown`
        // sends no bundle.
        "submit" => {
            if let Some(p) = args.peek() {
                if !p.starts_with("--") {
                    options.path = Some(PathBuf::from(args.next().expect("peeked")));
                }
            }
            options.seed = 3;
        }
        _ => {}
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--models" => {
                let v = args.next().ok_or("--models needs a value")?;
                options.models = v.parse().map_err(|_| format!("bad --models value {v}"))?;
            }
            "--fast" => options.fast = true,
            "--json" => options.json = true,
            "--out" => {
                let v = args.next().ok_or("--out needs a value")?;
                options.out = PathBuf::from(v);
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                options.seed = v.parse().map_err(|_| format!("bad --seed value {v}"))?;
            }
            "--compare" => {
                let v = args.next().ok_or("--compare needs a baseline path")?;
                options.compare = Some(PathBuf::from(v));
            }
            "--addr" => {
                let v = args.next().ok_or("--addr needs a value")?;
                options.addr = v;
            }
            "--workers" => {
                let v = args.next().ok_or("--workers needs a value")?;
                options.workers = v.parse().map_err(|_| format!("bad --workers value {v}"))?;
            }
            "--subset" => {
                let v = args.next().ok_or("--subset needs a value")?;
                options.subset = v.parse().map_err(|_| format!("bad --subset value {v}"))?;
            }
            "--shutdown" => options.shutdown = true,
            "--dtype" => {
                let v = args.next().ok_or("--dtype needs a value (f32|f16|q8)")?;
                options.dtype = Dtype::parse(&v)
                    .ok_or_else(|| format!("bad --dtype value {v} (expected f32, f16, or q8)"))?;
            }
            "--cache-mb" => {
                let v = args.next().ok_or("--cache-mb needs a value")?;
                options.cache_mb = v.parse().map_err(|_| format!("bad --cache-mb value {v}"))?;
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(options)
}

fn usage() -> String {
    "usage: usb-repro <table1..table8|fig1..fig6|headline|transfer|all> \
     [--models N] [--fast] [--out DIR]\n       \
     usb-repro timing [--json] [--compare BASELINE.json] [--models N] [--fast] [--out DIR]\n       \
     usb-repro save [--out PATH] [--fast] [--seed N] [--dtype f32|f16|q8]\n       \
     usb-repro inspect <PATH> [--fast] [--seed N]\n       \
     usb-repro serve [--addr A] [--workers N] [--cache-mb N]\n       \
     usb-repro submit <PATH> [--addr A] [--fast] [--seed N] [--subset N] [--workers N]\n       \
     usb-repro submit --shutdown [--addr A]"
        .to_owned()
}

fn progress(line: &str) {
    println!("{line}");
}

/// The `save` training setting: the quickstart BadNet/ResNet-18 victim, or
/// a miniature BasicCnn victim when `--fast` (CI smoke scale).
fn save_setting(fast: bool) -> (SyntheticSpec, Architecture, BadNet, TrainConfig) {
    if fast {
        // The usb-core detector test's setting: ResNet-18 implants small
        // triggers reliably at this scale, and the 10-class MAD statistic
        // flags the target with `UsbDetector::fast` at the default seeds.
        let spec = SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(400)
            .with_test_size(80);
        let arch = Architecture::new(ModelKind::ResNet18, (1, 12, 12), 10).with_width(4);
        (spec, arch, BadNet::new(2, 4, 0.15), TrainConfig::new(20))
    } else {
        let spec = SyntheticSpec::cifar10()
            .with_size(12)
            .with_train_size(400)
            .with_test_size(100);
        let arch = Architecture::new(ModelKind::ResNet18, (3, 12, 12), 10).with_width(4);
        (spec, arch, BadNet::new(2, 0, 0.15), TrainConfig::new(20))
    }
}

fn run_save(options: &Options) -> Result<(), String> {
    let (spec, arch, attack, tc) = save_setting(options.fast);
    // Data seeds are part of the tuned recipe (they set class separability),
    // while --seed varies the training run.
    let (key, data_seed) = if options.fast {
        ("repro-save-fast", 111)
    } else {
        ("repro-save", 7)
    };
    let fixture = FixtureSpec::new(key, spec, data_seed, options.seed).with_config(&[
        &format!("{arch:?}"),
        &format!("{attack:?}"),
        &format!("{tc:?}"),
    ]);
    let config_hash = fixture.config_hash;
    let (_, victim) = cached_victim(&fixture, |data| {
        attack.execute(data, arch, tc, options.seed)
    });
    println!(
        "victim trained: clean accuracy {:.2}, asr {:.2}, targets {:?}",
        victim.clean_accuracy,
        victim.asr(),
        victim.targets()
    );
    let mut bundle = VictimBundle {
        victim,
        train_seed: options.seed,
        config_hash,
        data_spec: fixture.data_spec,
        data_seed: fixture.data_seed,
    };
    // At f32 this writes the bytes `save_victim` would: the model is dense.
    save_victim_dtype(&options.out, &mut bundle, options.dtype)
        .map_err(|e| format!("saving {}: {e}", options.out.display()))?;
    println!(
        "wrote {} ({} weights)",
        options.out.display(),
        options.dtype
    );
    println!(
        "re-inspect any time with: usb-repro inspect {}{}",
        options.out.display(),
        if options.fast { " --fast" } else { "" }
    );
    Ok(())
}

fn run_inspect(options: &Options) -> Result<(), String> {
    let path = options.path.as_ref().expect("inspect always sets a path");
    let bytes = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    // The bundle's weight dtype is auto-detected from its header — no
    // flag needed; quantized bundles dequantize on the fly at inference.
    let dtype =
        peek_weight_dtype(&bytes).map_err(|e| format!("loading {}: {e}", path.display()))?;
    let bundle =
        read_victim_bytes(&bytes).map_err(|e| format!("loading {}: {e}", path.display()))?;
    println!(
        "loaded victim: {} / {:?} / {} classes, {dtype} weights, \
         clean accuracy {:.2}, asr {:.2}",
        bundle.data_spec.name,
        bundle.victim.model.arch().kind,
        bundle.victim.model.num_classes(),
        bundle.victim.clean_accuracy,
        bundle.victim.asr()
    );
    // Clean inspection data comes from the stored recipe — no images ship
    // in the bundle, yet inspection needs no retraining. Only the class
    // prototypes are built: the recipe's train/test split is never read.
    let protos = bundle.data_spec.prototypes(bundle.data_seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(options.seed);
    let (clean_x, _) = protos.clean_subset(48, &mut rng);
    let usb = if options.fast {
        UsbDetector::fast()
    } else {
        UsbDetector::new(UsbConfig::standard())
    };
    let outcome = usb.inspect(&bundle.victim.model, &clean_x, &mut rng);
    println!("per-class reversed-trigger L1 norms:");
    for c in &outcome.per_class {
        println!(
            "  class {}: L1 {:>8.2}  (anomaly {:.2}, success {:.2}){}",
            c.class,
            c.l1_norm,
            outcome.anomaly_indices[c.class],
            c.attack_success,
            if outcome.flagged.contains(&c.class) {
                "  <-- FLAGGED"
            } else {
                ""
            }
        );
    }
    let verdict = if outcome.is_backdoored() {
        "BACKDOORED"
    } else {
        "clean"
    };
    let truth = bundle.victim.targets();
    println!(
        "verdict: {verdict} (flagged {:?}, {dtype} weights); ground truth targets: {truth:?}",
        outcome.flagged
    );
    let missed: Vec<usize> = truth
        .iter()
        .copied()
        .filter(|t| !outcome.flagged.contains(t))
        .collect();
    if !missed.is_empty() {
        Err(format!(
            "inspection missed implanted target classes {missed:?} (flagged {:?})",
            outcome.flagged
        ))
    } else if truth.is_empty() && outcome.is_backdoored() {
        Err(format!(
            "inspection flagged {:?} on a clean victim",
            outcome.flagged
        ))
    } else {
        Ok(())
    }
}

fn run_serve(options: &Options) -> Result<(), String> {
    let config = ServeConfig {
        workers: options.workers,
        cache_bytes: options.cache_mb << 20,
        ..ServeConfig::default()
    };
    let server = Server::start(options.addr.as_str(), config)
        .map_err(|e| format!("binding {}: {e}", options.addr))?;
    let addr = server.local_addr();
    println!("usb-repro daemon listening on {addr}");
    println!("submit bundles with:  usb-repro submit <PATH> --addr {addr} [--fast]");
    println!("stop the daemon with: usb-repro submit --shutdown --addr {addr}");
    server.wait();
    let stats = server.stop();
    println!(
        "daemon stopped: {} connections, {} jobs accepted, {} completed, \
         cache {}/{} hit, {} rejected, {} protocol errors",
        stats.connections,
        stats.accepted,
        stats.completed,
        stats.cache_hits,
        stats.cache_hits + stats.cache_misses,
        stats.rejected,
        stats.protocol_errors,
    );
    Ok(())
}

fn run_submit(options: &Options) -> Result<(), String> {
    let mut client = Client::connect(options.addr.as_str())
        .map_err(|e| format!("connecting to {}: {e}", options.addr))?;
    if options.shutdown {
        client
            .shutdown_server()
            .map_err(|e| format!("shutting down {}: {e}", options.addr))?;
        println!("daemon at {} acknowledged shutdown", options.addr);
        return Ok(());
    }
    let path = options
        .path
        .as_ref()
        .ok_or("submit needs a bundle path (or --shutdown)")?;
    let bundle = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    // Sniffed client-side from the bundle header, purely informational:
    // the daemon auto-detects the dtype when it parses the bundle.
    let dtype = peek_weight_dtype(&bundle)
        .map(|d| d.name())
        .unwrap_or("unknown");
    let opts = SubmitOptions {
        tag: 1,
        seed: options.seed,
        subset: options.subset,
        workers: options.workers as u32,
        fast: options.fast,
    };
    let verdict = client
        .inspect(&bundle, &opts, |p| {
            println!(
                "  [{}/{}] class {}: L1 {:>8.2}  (success {:.2})",
                p.classes_done, p.classes_total, p.class, p.l1_norm, p.attack_success
            );
        })
        .map_err(|e| format!("inspecting {} via {}: {e}", path.display(), options.addr))?;
    let verdict_word = if verdict.is_backdoored() {
        "BACKDOORED"
    } else {
        "clean"
    };
    println!(
        "verdict: {verdict_word} (flagged {:?}, median L1 {:.2}, {dtype} weights); \
         ground truth targets: {:?}",
        verdict.flagged, verdict.median_l1, verdict.truth_targets
    );
    println!(
        "served by {} in {:.2}s ({})",
        options.addr,
        verdict.seconds,
        if verdict.cache_hit {
            "resident model, cache hit"
        } else {
            "cache miss: parsed bundle + built prototypes"
        }
    );
    // Same exit-code contract as offline `inspect`: disagreeing with the
    // bundle's ground truth is a failure.
    if verdict.agrees {
        Ok(())
    } else {
        Err(format!(
            "daemon verdict disagrees with ground truth (flagged {:?}, truth {:?})",
            verdict.flagged, verdict.truth_targets
        ))
    }
}

fn run_one(id: &str, options: &Options, suite: &DefenseSuite) -> Result<(), String> {
    match id {
        "save" => run_save(options)?,
        "inspect" => run_inspect(options)?,
        "serve" => run_serve(options)?,
        "submit" => run_submit(options)?,
        "table1" | "table2" | "table3" | "table4" | "table5" | "table6" | "table8" => {
            let spec = match id {
                "table1" => grid::table1(),
                "table2" => grid::table2(),
                "table3" => grid::table3(),
                "table4" => grid::table4(),
                "table5" => grid::table5(),
                "table8" => grid::table8(),
                _ => grid::table6(),
            };
            let report = grid::run_table(&spec, options.models, suite, progress);
            print!("{}", format_table(&report));
            let csv = options.out.join(format!("{id}.csv"));
            write_csv(&report, &csv).map_err(|e| format!("writing {}: {e}", csv.display()))?;
            println!("wrote {}", csv.display());
        }
        // `timing` is the machine-facing alias of table7: same harness,
        // plus `--json` writes the BENCH.json perf-trajectory document and
        // `--compare <baseline>` gates per-stage regressions against a
        // committed baseline (exits non-zero past 25%).
        "table7" | "timing" => {
            let models = options.models.min(3);
            let report = run_timing(models, suite, progress);
            print!("{}", format_timing(&report));
            if options.json {
                let config = if options.fast { "fast" } else { "standard" };
                let json = timing_json(&report, config, models);
                std::fs::create_dir_all(&options.out)
                    .map_err(|e| format!("creating {}: {e}", options.out.display()))?;
                let path = options.out.join("BENCH.json");
                std::fs::write(&path, json)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                println!("wrote {}", path.display());
            }
            if let Some(baseline_path) = &options.compare {
                /// Regressions beyond this fraction of the baseline fail
                /// the run (generous: CI machines vary, and the gate is
                /// after real slowdowns, not scheduler noise).
                const TOLERANCE: f64 = 0.25;
                let baseline_json = std::fs::read_to_string(baseline_path)
                    .map_err(|e| format!("reading baseline {}: {e}", baseline_path.display()))?;
                let baseline = parse_bench_totals(&baseline_json)
                    .map_err(|e| format!("parsing baseline {}: {e}", baseline_path.display()))?;
                let regressions =
                    compare_bench_totals(&report_totals(&report), &baseline, TOLERANCE);
                if regressions.is_empty() {
                    println!(
                        "timing within {:.0}% of baseline {}",
                        TOLERANCE * 100.0,
                        baseline_path.display()
                    );
                } else {
                    return Err(format!(
                        "per-stage timing regressed past {:.0}% of baseline {}:\n  {}",
                        TOLERANCE * 100.0,
                        baseline_path.display(),
                        regressions.join("\n  ")
                    ));
                }
            }
        }
        "fig1" => {
            let rows = figures::fig1(&options.out, progress).map_err(|e| format!("fig1: {e}"))?;
            println!("fig1 L1 norms:");
            for (name, l1) in rows {
                println!("  {name:<18} {l1:>8.2}");
            }
        }
        "fig2" => {
            figures::fig_reconstructions(&options.out.join("fig2_imagenet"), true, progress)
                .map_err(|e| format!("fig2 (imagenet): {e}"))?;
            figures::fig_reconstructions(&options.out.join("fig2_cifar"), false, progress)
                .map_err(|e| format!("fig2 (cifar): {e}"))?;
        }
        "fig3" | "fig4" => {
            let rows = figures::fig_reconstructions(&options.out.join(id), false, progress)
                .map_err(|e| format!("{id}: {e}"))?;
            println!("{id} reversed-mask L1 norms:");
            for (name, l1) in rows {
                println!("  {name:<10} {l1:>8.2}");
            }
        }
        "fig5" => {
            let norms = figures::fig5(&options.out, progress).map_err(|e| format!("fig5: {e}"))?;
            println!("fig5 per-class v' L1 norms: {norms:?}");
        }
        "fig6" => {
            let rows = figures::fig6(&options.out, progress).map_err(|e| format!("fig6: {e}"))?;
            println!("fig6 per-method per-class mask L1 norms:");
            for (name, class, l1) in rows {
                println!("  {name:<8} class {class}: {l1:>8.2}");
            }
        }
        "headline" => {
            let (target, others) = figures::headline(progress);
            println!(
                "headline: L1(backdoored class) = {target:.2} vs mean(others) = {others:.2} \
                 (paper example: 4.49 vs 53.76)"
            );
        }
        "transfer" => {
            let (full, transfer, success) = figures::transfer(progress);
            println!(
                "transfer: full {full:.2}s vs transfer {transfer:.2}s, refined success {success:.2}"
            );
        }
        other => return Err(format!("unknown experiment {other}\n{}", usage())),
    }
    Ok(())
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let suite = if options.fast {
        DefenseSuite::fast()
    } else {
        DefenseSuite::standard()
    };
    let ids: Vec<&str> = if options.experiment == "all" {
        vec![
            "table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8", "fig1",
            "fig2", "fig3", "fig4", "fig5", "fig6", "headline", "transfer",
        ]
    } else {
        vec![options.experiment.as_str()]
    };
    for id in ids {
        if let Err(e) = run_one(id, &options, &suite) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
