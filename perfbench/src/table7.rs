//! `effnet-table7`: the paper's Table 7 unit — wall seconds to reverse
//! one class — on the Table 2 EfficientNet-B0 BadNet victim, one class
//! at a time on one thread, as the paper measures it. The daemon, the
//! bundle formats and data regeneration are not on this path.
//!
//! Classes are reversed in passes; a pass is one full inspection (the
//! inspection seed's clean subset and per-class rng streams, derived as
//! `UsbDetector::inspect` derives them), and its outcome must flag the
//! implanted target. A phase always ends on a round boundary.
//!
//! Every end-to-end timing is in reference seconds (see [`crate::calib`]):
//! each class reversal, set-up and first verdict is bracketed by the
//! calibration kernel on this one thread.

use crate::calib::Clock;
use crate::churn::permutation;
use crate::run::{median_of, Run, Window, MIN_OPS};
use crate::victims::{bundle_bytes, inspection_inputs, Table7};
use crate::{probes, serve};
use rand::rngs::StdRng;
use rand::SeedableRng;
use usb_attacks::Victim;
use usb_core::UsbDetector;
use usb_data::Dataset;
use usb_defenses::{ClassResult, Defense, DetectionOutcome};
use usb_nn::models::Network;

/// Inspection seed of every run's first pass, so `first_verdict_ms` and
/// `detect_margin` measure the same inputs in every run.
const CANARY: u64 = 1;
/// Inspection seeds of one round of passes, the canary first. Every run
/// reverses whole rounds, so runs with different workload seeds do the
/// same work; the workload seed only orders the later passes and the
/// classes within each pass. Each seed flags the target with the fast
/// detector. One round holds [`MIN_OPS`] class reversals.
const ROUND: [u64; 2] = [CANARY, 2];
/// First verdicts before each pass, each on a freshly loaded victim.
const FIRSTS_PER_PASS: usize = 3;
/// Set-ups before each first verdict, the last one's victim answering it.
/// Loading this victim takes milliseconds, so repetitions are cheap.
const SETUPS_PER_FIRST: usize = 2;

/// Fresh set-ups and the first verdict after each, taken between passes.
struct Fresh<'a> {
    table7: &'a Table7,
    usb: UsbDetector,
    /// Reference seconds of each set-up.
    setup_s: Vec<f64>,
    /// Reference seconds and L1 norm of each first verdict.
    firsts: Vec<(f64, f64)>,
}

impl Fresh<'_> {
    /// Loads the victim and regenerates its data: the workload's set-up.
    fn setup(&mut self, run: &Run, clock: &mut Clock) -> (Dataset, Victim) {
        let (loaded, s) = clock.time(|| {
            run.tracer
                .span("setup.load", None, 0, |_| self.table7.load())
        });
        self.setup_s.push(s);
        loaded
    }

    /// [`FIRSTS_PER_PASS`] times: [`SETUPS_PER_FIRST`] set-ups, then the
    /// first verdict on the last one's victim: class 0 at the canary seed,
    /// cold workspace.
    fn round(&mut self, run: &Run, clock: &mut Clock) {
        for _ in 0..FIRSTS_PER_PASS {
            for _ in 1..SETUPS_PER_FIRST {
                drop(self.setup(run, clock));
            }
            let (data, victim) = self.setup(run, clock);
            let k = victim.model.num_classes();
            let (clean, class_seeds) = inspection_inputs(&data, CANARY, k);
            let mut rng = StdRng::seed_from_u64(class_seeds[0]);
            let ((result, _), s) = clock.time(|| {
                self.usb
                    .reverse_class_timed(&victim.model, &clean, 0, &mut rng)
            });
            self.firsts.push((s, result.l1_norm));
        }
    }
}

/// The victim and the passes run so far.
struct Passes<'a> {
    model: &'a Network,
    data: &'a Dataset,
    truth: Vec<usize>,
    workload_seed: u64,
    fresh: Fresh<'a>,
    /// One-thread clock of every timed operation.
    clock: Clock,
    done: usize,
    first: Option<DetectionOutcome>,
}

impl Passes<'_> {
    /// Runs whole rounds of passes at `seeds` (in an order the workload
    /// seed picks after the first), each pass after a [`Fresh::round`],
    /// until `window` closes. Returns per-class reference seconds in
    /// completion order.
    fn phase(&mut self, run: &mut Run, seeds: &[u64], window: Window) -> Vec<f64> {
        let mut latencies = Vec::new();
        while !window.done(latencies.len()) {
            let later = permutation(seeds.len() - 1, self.workload_seed ^ self.done as u64);
            let round = std::iter::once(0).chain(later.into_iter().map(|i| i + 1));
            for i in round {
                self.fresh.round(run, &mut self.clock);
                let outcome = self.pass(run, seeds[i], &mut latencies);
                self.first.get_or_insert(outcome);
                self.done += 1;
            }
        }
        latencies
    }

    /// One inspection at `seed`, class by class; checks its outcome.
    fn pass(&mut self, run: &mut Run, seed: u64, latencies: &mut Vec<f64>) -> DetectionOutcome {
        let k = self.model.num_classes();
        let p = self.done;
        let order = permutation(k, self.workload_seed ^ (p as u64) << 32);
        let request = (p * k + 1) as u64;
        let (outcome, seconds) = reverse_classes(
            run,
            self.model,
            self.data,
            seed,
            &order,
            request,
            &mut self.clock,
        );
        latencies.extend(seconds);
        let ok = outcome.flagged == self.truth;
        if !ok {
            eprintln!(
                "pass {p} (inspection seed {seed}) flagged {:?}, truth {:?}",
                outcome.flagged, self.truth
            );
        }
        for _ in 0..k {
            run.outcome.check(ok);
        }
        outcome
    }
}

/// One inspection of `model` at the inspection seed `seed`, class by
/// class in `order` on this thread. The clean subset and per-class rng
/// streams are derived as `UsbDetector::inspect` derives them, so the
/// outcome equals its outcome bit for bit. Each class runs in a
/// `usb.class` span with request id `request + class`, timed by `clock`.
/// Returns the outcome and each class's reference seconds in completion
/// order.
pub fn reverse_classes(
    run: &Run,
    model: &Network,
    data: &Dataset,
    seed: u64,
    order: &[usize],
    request: u64,
    clock: &mut Clock,
) -> (DetectionOutcome, Vec<f64>) {
    let usb = UsbDetector::fast();
    let k = model.num_classes();
    let (clean, class_seeds) = inspection_inputs(data, seed, k);
    let mut results: Vec<Option<ClassResult>> = vec![None; k];
    let mut seconds = Vec::with_capacity(k);
    for &t in order {
        let mut rng = StdRng::seed_from_u64(class_seeds[t]);
        let ((result, _), s) = clock.time(|| {
            run.tracer.span("usb.class", None, request + t as u64, |_| {
                usb.reverse_class_timed(model, &clean, t, &mut rng)
            })
        });
        seconds.push(s);
        results[t] = Some(result);
    }
    let per_class = results
        .into_iter()
        .map(|r| r.expect("the order covers every class"))
        .collect();
    let outcome = DetectionOutcome::from_class_results("USB", per_class, usb.min_success());
    (outcome, seconds)
}

/// Runs the workload.
///
/// # Errors
///
/// Describes a failure that prevented measuring.
pub fn run(run: &mut Run) -> Result<(), String> {
    let table7 = Table7::default();
    table7.prepare();
    let mut fresh = Fresh {
        table7: &table7,
        usb: UsbDetector::fast(),
        setup_s: Vec::new(),
        firsts: Vec::new(),
    };
    let mut clock = Clock::new(1);
    let (data, victim) = fresh.setup(run, &mut clock);
    // Set-up is traced in a traced run; the first measured phase is not.
    run.tracer.set_enabled(false);
    let mut passes = Passes {
        model: &victim.model,
        data: &data,
        truth: victim.targets(),
        workload_seed: run.args.seed,
        fresh,
        clock,
        done: 0,
        first: None,
    };
    let k = victim.model.num_classes();
    let target = *passes
        .truth
        .first()
        .ok_or("the Table 7 victim has no target")?;
    let seconds = run.args.seconds;
    if !run.args.trace {
        let window = Window::open(seconds, MIN_OPS);
        let latencies = passes.phase(run, &ROUND, window);
        let busy: f64 = latencies.iter().sum();
        let first = passes
            .first
            .as_ref()
            .expect("a phase runs at least one pass");
        let margin = first.median_l1 / first.per_class[target].l1_norm;
        let fresh = &passes.fresh;
        check_firsts(run, &fresh.firsts, first);
        let first_s: Vec<f64> = fresh.firsts.iter().map(|&(s, _)| s).collect();
        let out = &mut run.outcome;
        out.push("setup_s", median_of("setup_s", &fresh.setup_s)?, "s");
        out.push("usb_s_per_class", median_of("class", &latencies)?, "s");
        out.push(
            "verdict_ms_p50",
            median_of("verdict", &latencies)? * 1e3,
            "ms",
        );
        out.push("verdicts_per_s", latencies.len() as f64 / busy, "1/s");
        out.push(
            "first_verdict_ms",
            median_of("first verdict", &first_s)? * 1e3,
            "ms",
        );
        out.push("detect_margin", margin, "x");
        eprintln!(
            "{} class verdicts in {busy:.1} reference s; calibration median {:.2} ms",
            latencies.len(),
            median_of("calibration", passes.clock.samples())? * 1e3
        );
        return Ok(());
    }
    // Traced run: an untraced half, then a traced half (canary passes
    // both, so they time the same work), then the probes.
    let untraced = passes.phase(run, &[CANARY], Window::open(seconds / 2.0, k));
    run.tracer.set_enabled(true);
    let traced = passes.phase(run, &[CANARY], Window::open(seconds / 2.0, k));
    let (clean, class_seeds) = inspection_inputs(&data, CANARY, k);
    let others = permutation(k, run.args.seed);
    let mut classes = vec![target];
    classes.extend(others.into_iter().filter(|&c| c != target).take(2));
    let first = passes
        .first
        .clone()
        .expect("a phase runs at least one pass");
    check_firsts(run, &passes.fresh.firsts, &first);
    probes::push_calibration(run, passes.clock.samples())?;
    probes::core(
        run,
        &victim.model,
        &clean,
        &class_seeds,
        &first.per_class,
        &classes,
    );
    probes::inspect(run, &victim.model, &data, CANARY, &first);
    let reference = serve::reference_verdict(&first, &passes.truth);
    let batch = probes::head_rows(&clean, 16);
    probes::nn(run, &[&victim.model], &batch, target);
    probes::tensor(run, &batch);
    probes::clean_subset(run, &data, run.args.seed);
    probes::defenses(run, &victim.model, &clean, &classes[..2], run.args.seed);
    let mut bundle = table7.bundle(victim);
    for _ in 0..3 {
        let spec = &bundle.data_spec;
        let regenerated = run.tracer.span("data.generate", None, 0, |_| {
            spec.generate(bundle.data_seed)
        });
        drop(std::hint::black_box(regenerated));
    }
    let bytes = bundle_bytes(&mut bundle)?;
    probes::read_victim(run, &bytes);
    serve::probe(run, &bytes[0], CANARY, &reference)?;
    probes::push_metrics(run)?;
    let ratio = median_of("traced", &traced)? / median_of("untraced", &untraced)?;
    run.outcome.push("trace.overhead_ratio", ratio, "x");
    Ok(())
}

/// Each first verdict must reproduce class 0 of the canary pass.
fn check_firsts(run: &mut Run, firsts: &[(f64, f64)], first_pass: &DetectionOutcome) {
    let reference = first_pass.per_class[0].l1_norm.to_bits();
    for &(_, l1) in firsts {
        run.outcome.check(l1.to_bits() == reference);
    }
}
