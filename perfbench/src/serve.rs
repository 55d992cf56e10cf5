//! `serve-churn`: an in-process daemon with the default `ServeConfig`,
//! driven over loopback by one closed-loop client.
//!
//! The client submits `usb-repro loadgen`'s victim, rotating its f32, f16
//! and q8 bundles. At the default 64 MiB budget only one model-zoo-scale
//! entry stays resident, so every request parses, dequantizes, regenerates
//! 70k images and evicts.
//!
//! The daemon runs one job at a time, its inspection spread over every
//! worker, so a second client would add only queueing. One client also
//! leaves the daemon idle between requests, where the calibration kernel
//! (see [`crate::calib`]) runs on as many threads as the daemon has
//! workers. Every end-to-end timing is in reference seconds.
//!
//! The reference verdicts the daemon's must equal come from inspecting
//! each bundle class by class on one thread, as `effnet-table7` does;
//! those class reversals give `usb_s_per_class`, so it counts inspection
//! only, never the daemon's cache misses.

use crate::calib::Clock;
use crate::churn::{churn_order, permutation, rotation};
use crate::probes;
use crate::run::{median_of, Run, Window, MIN_OPS};
use crate::table7::reverse_classes;
use crate::trace::Tracer;
use crate::victims::{inspection_inputs, serve_bundles, SUBSET};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use usb_attacks::persist::{read_victim_bytes, VictimBundle};
use usb_data::Dataset;
use usb_defenses::DetectionOutcome;
use usb_eval::serve::proto::verdict_from_outcome;
use usb_eval::serve::{Client, ServeConfig, ServeStats, Server, SubmitOptions, WireVerdict};

/// Inspection seed of every request, so `first_verdict_ms` and
/// `detect_margin` measure the same inputs in every run. It flags exactly
/// the target at each precision with the fast detector.
const CANARY: u64 = 3;
/// Set-ups before the measured phase, each with a fresh daemon; the last
/// one's daemon serves the phase. `setup_s` is their median.
const SETUPS: usize = 5;
/// Guards a request against a wedged daemon.
const READ_TIMEOUT: Duration = Duration::from_secs(120);

/// One request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Submit → verdict, client-measured.
    pub latency_ms: f64,
    /// The same in reference milliseconds; 0 where the request was not
    /// calibrated.
    pub reference_ms: f64,
    /// Server-side job time (`WireVerdict.seconds`): cache lookup plus
    /// inspection.
    pub job_ms: f64,
    /// Submit → first progress frame.
    pub first_progress_ms: Option<f64>,
    /// Verdict arrived and matched the reference.
    pub ok: bool,
}

/// The verdict a correct daemon must send: the in-process inspection in
/// wire form, with the bundle's ground truth.
pub fn reference_verdict(outcome: &DetectionOutcome, truth: &[usize]) -> WireVerdict {
    let truth: Vec<u32> = truth.iter().map(|&t| t as u32).collect();
    verdict_from_outcome(0, outcome, &truth, false, 0.0)
}

/// Whether `got` flags exactly the ground truth and matches `want`'s
/// per-class L1 norms and trigger digests bit for bit.
fn matches(got: &WireVerdict, want: &WireVerdict) -> bool {
    got.flagged == want.truth_targets
        && got.flagged == want.flagged
        && got.per_class.len() == want.per_class.len()
        && got.per_class.iter().zip(&want.per_class).all(|(a, b)| {
            a.class == b.class
                && a.l1_norm.to_bits() == b.l1_norm.to_bits()
                && a.pattern_crc == b.pattern_crc
                && a.mask_crc == b.mask_crc
        })
}

/// Submits one bundle and waits for its verdict; failures become failed
/// samples. In the traced phase the request gets a `serve.request` span
/// with `serve.first_progress` and (server-reported) `serve.job` children.
fn request(
    tracer: &Tracer,
    client: &mut Client,
    bundle: &[u8],
    opts: SubmitOptions,
    reference: &WireVerdict,
) -> Sample {
    let t0 = Instant::now();
    let mut first: Option<Instant> = None;
    let result = client.inspect(bundle, &opts, |_| {
        first.get_or_insert_with(Instant::now);
    });
    let t1 = Instant::now();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let first_progress_ms = first.map(|f| ms(f - t0));
    match result {
        Ok(verdict) => {
            let job = Duration::from_secs_f64(verdict.seconds.max(0.0)).min(t1 - t0);
            let id = tracer.record("serve.request", None, opts.tag, t0, t1);
            if let Some(f) = first {
                tracer.record("serve.first_progress", id, opts.tag, t0, f);
            }
            tracer.record("serve.job", id, opts.tag, t1 - job, t1);
            let ok = matches(&verdict, reference);
            if !ok {
                eprintln!("request {}: verdict differs from the reference", opts.tag);
            }
            Sample {
                latency_ms: ms(t1 - t0),
                reference_ms: 0.0,
                job_ms: verdict.seconds * 1e3,
                first_progress_ms,
                ok,
            }
        }
        Err(e) => {
            eprintln!("request {}: {e}", opts.tag);
            Sample {
                latency_ms: ms(t1 - t0),
                reference_ms: 0.0,
                job_ms: 0.0,
                first_progress_ms,
                ok: false,
            }
        }
    }
}

/// [`request`] between two calibrations of `clock`.
fn timed_request(
    clock: &mut Clock,
    tracer: &Tracer,
    client: &mut Client,
    bundle: &[u8],
    opts: SubmitOptions,
    reference: &WireVerdict,
) -> Sample {
    let (sample, s) = clock.time(|| request(tracer, client, bundle, opts, reference));
    Sample {
        reference_ms: s * 1e3,
        ..sample
    }
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    let client = Client::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    client
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| format!("setting a read timeout: {e}"))?;
    Ok(client)
}

/// Options of the request tagged `tag`.
fn options(tag: u64) -> SubmitOptions {
    SubmitOptions {
        tag,
        seed: CANARY,
        subset: SUBSET as u32,
        workers: 0,
        fast: true,
    }
}

/// What set-up produces: the bundles as a client holds them, parsed
/// copies for the reference inspections, the regenerated dataset, and a
/// started daemon.
struct Setup {
    bytes: Vec<Vec<u8>>,
    bundles: Vec<VictimBundle>,
    data: Dataset,
    server: Server,
}

impl Setup {
    fn open(tracer: &Tracer, paths: &[PathBuf]) -> Result<Setup, String> {
        let mut bytes = Vec::new();
        let mut bundles = Vec::new();
        for path in paths {
            let raw = tracer.span("setup.read_file", None, 0, |_| std::fs::read(path));
            let raw = raw.map_err(|e| format!("reading {}: {e}", path.display()))?;
            let parsed = tracer.span("setup.parse", None, 0, |_| read_victim_bytes(&raw));
            bundles.push(parsed.map_err(|e| format!("parsing {}: {e}", path.display()))?);
            bytes.push(raw);
        }
        // Every bundle carries the same recipe: one regeneration serves all.
        let spec = &bundles[0].data_spec;
        let data = tracer.span("data.generate", None, 0, |_| {
            spec.generate(bundles[0].data_seed)
        });
        let server = tracer
            .span("serve.start", None, 0, |_| start_daemon())
            .map_err(|e| format!("starting the daemon: {e}"))?;
        Ok(Setup {
            bytes,
            bundles,
            data,
            server,
        })
    }

    /// Reference verdicts, one per bundle: each bundle's victim inspected
    /// at the canary seed class by class on this thread, classes in
    /// `order`, each class timed by `clock`. Also returns the f32 bundle's
    /// outcome and every class's reference seconds.
    fn references(
        &self,
        run: &Run,
        order: &[usize],
        clock: &mut Clock,
    ) -> (Vec<WireVerdict>, DetectionOutcome, Vec<f64>) {
        let truth = self.bundles[0].victim.targets();
        let mut canary = None;
        let mut references = Vec::new();
        let mut seconds = Vec::new();
        for bundle in &self.bundles {
            let model = &bundle.victim.model;
            let (outcome, s) = reverse_classes(run, model, &self.data, CANARY, order, 0, clock);
            seconds.extend(s);
            references.push(reference_verdict(&outcome, &truth));
            canary.get_or_insert(outcome);
        }
        (references, canary.expect("at least one bundle"), seconds)
    }
}

fn start_daemon() -> std::io::Result<Server> {
    Server::start(("127.0.0.1", 0), ServeConfig::default())
}

/// The closed-loop client of the measured phases.
struct Load<'a> {
    tracer: &'a Tracer,
    order: &'a [usize],
    bytes: &'a [Vec<u8>],
    references: &'a [WireVerdict],
    client: Client,
    /// Rotation index of the next request to the set-up's daemon; the
    /// rotation continues across phases.
    next: u64,
    /// Tag of the next request, first requests included.
    tag: u64,
    /// First requests, each to a freshly started daemon.
    firsts: Vec<Sample>,
}

impl Load<'_> {
    /// Whole rotations of one request per bundle to the set-up's daemon,
    /// each rotation after a first request to a fresh daemon, until
    /// `window` closes; every request runs between two calibrations of
    /// `clock`. Interleaving the first requests samples them over the
    /// whole phase rather than in one stretch. Returns the phase's
    /// samples; the first requests go to `firsts`.
    fn phase(&mut self, clock: &mut Clock, window: Window) -> Result<Vec<Sample>, String> {
        let mut samples = Vec::new();
        while !window.done(samples.len()) {
            let server = start_daemon().map_err(|e| format!("starting the daemon: {e}"))?;
            let mut client = connect(server.local_addr())?;
            let b = rotation(self.order, 0);
            self.tag += 1;
            self.firsts.push(timed_request(
                clock,
                self.tracer,
                &mut client,
                &self.bytes[b],
                options(self.tag),
                &self.references[b],
            ));
            drop(client);
            server.stop();
            for _ in 0..self.order.len() {
                let b = rotation(self.order, self.next);
                self.next += 1;
                self.tag += 1;
                samples.push(timed_request(
                    clock,
                    self.tracer,
                    &mut self.client,
                    &self.bytes[b],
                    options(self.tag),
                    &self.references[b],
                ));
            }
        }
        Ok(samples)
    }
}

/// Runs `serve-churn`.
///
/// # Errors
///
/// Describes a failure that prevented measuring.
pub fn run(run: &mut Run) -> Result<(), String> {
    let paths = serve_bundles()?;
    let order = churn_order(run.args.seed);
    // Set-ups and requests are timed against as many cores as an
    // inspection keeps busy; the one-thread class reversals against one.
    let mut wide = Clock::new(usb_tensor::par::worker_threads());
    let mut narrow = Clock::new(1);
    let mut setup_s = Vec::new();
    let mut opened: Option<Setup> = None;
    for _ in 0..SETUPS {
        if let Some(old) = opened.take() {
            old.server.stop();
        }
        let (next, s) = wide.time(|| Setup::open(&run.tracer, &paths));
        setup_s.push(s);
        opened = Some(next?);
    }
    let setup = opened.expect("SETUPS is positive");
    let truth = setup.bundles[0].victim.targets();
    let target = *truth.first().ok_or("the serve victim has no target")?;
    let k = setup.bundles[0].victim.model.num_classes();
    let (references, canary, class_s) =
        setup.references(run, &permutation(k, run.args.seed), &mut narrow);
    run.tracer.set_enabled(false);

    let mut load = Load {
        tracer: &run.tracer,
        order: &order,
        bytes: &setup.bytes,
        references: &references,
        client: connect(setup.server.local_addr())?,
        next: 0,
        tag: 0,
        firsts: Vec::new(),
    };
    let seconds = run.args.seconds;
    let (untraced, traced) = if run.args.trace {
        let a = load.phase(&mut wide, Window::open(seconds / 2.0, 10))?;
        run.tracer.set_enabled(true);
        let b = load.phase(&mut wide, Window::open(seconds / 2.0, 10))?;
        (a, b)
    } else {
        let window = Window::open(seconds, MIN_OPS);
        (load.phase(&mut wide, window)?, Vec::new())
    };
    let firsts = load.firsts;
    let Setup {
        bytes,
        bundles,
        data,
        server,
    } = setup;
    let stats = server.stop();
    for s in firsts.iter().chain(&untraced).chain(&traced) {
        run.outcome.check(s.ok);
    }
    let ok_latency = |samples: &[Sample]| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.reference_ms)
            .collect()
    };

    if !run.args.trace {
        let latencies = ok_latency(&untraced);
        let busy_s: f64 = untraced.iter().map(|s| s.reference_ms).sum::<f64>() / 1e3;
        let margin = canary.median_l1 / canary.per_class[target].l1_norm;
        let out = &mut run.outcome;
        out.push("setup_s", median_of("setup_s", &setup_s)?, "s");
        out.push("usb_s_per_class", median_of("class", &class_s)?, "s");
        out.push("verdict_ms_p50", median_of("verdict", &latencies)?, "ms");
        out.push("verdicts_per_s", latencies.len() as f64 / busy_s, "1/s");
        out.push(
            "first_verdict_ms",
            median_of("first verdict", &ok_latency(&firsts))?,
            "ms",
        );
        out.push("detect_margin", margin, "x");
        eprintln!(
            "{} verdicts in {busy_s:.1} reference s; calibration median {:.2} ms; cache {}/{} hit",
            untraced.len(),
            median_of("calibration", wide.samples())? * 1e3,
            stats.cache_hits,
            stats.cache_hits + stats.cache_misses
        );
        return Ok(());
    }

    // Traced run: the probes, on the workload's own victims.
    run.tracer.set_enabled(true);
    let (clean, class_seeds) = inspection_inputs(&data, CANARY, k);
    let others = permutation(k, run.args.seed);
    let mut classes = vec![target];
    classes.extend(others.into_iter().filter(|&c| c != target).take(2));
    let model = &bundles[0].victim.model;
    probes::inspect(run, model, &data, CANARY, &canary);
    probes::core(
        run,
        model,
        &clean,
        &class_seeds,
        &canary.per_class,
        &classes,
    );
    let batch = probes::head_rows(&clean, 16);
    let models: Vec<_> = bundles.iter().map(|b| &b.victim.model).collect();
    probes::nn(run, &models, &batch, target);
    probes::tensor(run, &batch);
    probes::clean_subset(run, &data, run.args.seed);
    probes::defenses(run, model, &clean, &classes[..2], run.args.seed);
    probes::read_victim(run, &bytes);
    probes::push_metrics(run)?;
    probes::push_calibration(run, wide.samples())?;
    push_serve_metrics(run, &traced, &stats)?;
    let ratio =
        median_of("traced", &ok_latency(&traced))? / median_of("untraced", &ok_latency(&untraced))?;
    run.outcome.push("trace.overhead_ratio", ratio, "x");
    Ok(())
}

/// The serve layer on a workload that does not use it: a fresh daemon
/// answers `bundle` twice from one client, cold then warm. Both verdicts
/// must match `reference`.
///
/// # Errors
///
/// Fails when the daemon cannot start or be reached.
pub fn probe(
    run: &mut Run,
    bundle: &[u8],
    seed: u64,
    reference: &WireVerdict,
) -> Result<(), String> {
    let server = start_daemon().map_err(|e| format!("starting the daemon: {e}"))?;
    let mut client = connect(server.local_addr())?;
    let samples: Vec<Sample> = (1..=2)
        .map(|tag| {
            let opts = SubmitOptions {
                seed,
                ..options(tag)
            };
            request(&run.tracer, &mut client, bundle, opts, reference)
        })
        .collect();
    drop(client);
    let stats = server.stop();
    for s in &samples {
        run.outcome.check(s.ok);
    }
    push_serve_metrics(run, &samples, &stats)
}

/// The serve layer's per-layer metrics from the traced requests and the
/// daemon's final counters.
fn push_serve_metrics(run: &mut Run, samples: &[Sample], stats: &ServeStats) -> Result<(), String> {
    let ok: Vec<&Sample> = samples.iter().filter(|s| s.ok).collect();
    let job: Vec<f64> = ok.iter().map(|s| s.job_ms).collect();
    let wait: Vec<f64> = ok.iter().map(|s| s.latency_ms - s.job_ms).collect();
    let progress: Vec<f64> = ok.iter().filter_map(|s| s.first_progress_ms).collect();
    let lookups = stats.cache_hits + stats.cache_misses;
    let out = &mut run.outcome;
    out.push("serve.job_ms", median_of("serve.job_ms", &job)?, "ms");
    out.push("serve.wait_ms", median_of("serve.wait_ms", &wait)?, "ms");
    out.push(
        "serve.first_progress_ms",
        median_of("serve.first_progress_ms", &progress)?,
        "ms",
    );
    out.push(
        "serve.cache_hit_ratio",
        stats.cache_hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    out.push("serve.cache_lookups", lookups as f64, "count");
    out.push("serve.failed", stats.failed as f64, "count");
    out.push("serve.rejected", stats.rejected as f64, "count");
    out.push(
        "serve.protocol_errors",
        stats.protocol_errors as f64,
        "count",
    );
    Ok(())
}
