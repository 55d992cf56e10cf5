//! Command-line arguments, the measurement window, and dispatch to the
//! workloads.

use crate::context::RunContext;
use crate::report::Outcome;
use crate::stats;
use crate::trace::Tracer;
use std::time::Instant;

/// Operations a measured phase carries at least: enough for ten samples
/// beyond the median, so the median is the highest percentile a run
/// reports (see [`stats::min_samples_for`]).
pub const MIN_OPS: usize = 20;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 7 on the EfficientNet-B0 victim, one class at a time.
    EffnetTable7,
    /// Cache churn: rotating bundles miss the resident cache every time.
    ServeChurn,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::EffnetTable7, Workload::ServeChurn];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EffnetTable7 => "effnet-table7",
            Workload::ServeChurn => "serve-churn",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed: picks inspection seeds and request order, never the
    /// victims.
    pub seed: u64,
    /// Measured seconds (a floor: a run also waits for its minimum
    /// operation count).
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// Describes the first missing or malformed argument.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad {flag} value {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad())?;
                    seconds = Some(s).filter(|s| *s > 0.0 && s.is_finite());
                    seconds.ok_or_else(bad)?;
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// A measured phase: it lasts at least `seconds` and at least `min_ops`
/// operations.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    start: Instant,
    seconds: f64,
    min_ops: usize,
}

impl Window {
    /// A window opening now.
    pub fn open(seconds: f64, min_ops: usize) -> Window {
        Window {
            start: Instant::now(),
            seconds,
            min_ops,
        }
    }

    /// Whether the phase may end after `ops` operations.
    pub fn done(&self, ops: usize) -> bool {
        ops >= self.min_ops && self.elapsed() >= self.seconds
    }

    /// Seconds since the window opened.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Everything a workload needs while it runs.
pub struct Run {
    /// The command line.
    pub args: Args,
    /// Spans; enabled only during the traced phase of a traced run.
    pub tracer: Tracer,
    /// Output checks and metrics.
    pub outcome: Outcome,
}

/// Runs the workload and returns its outcome, writing the trace of a
/// traced run under [`crate::victims::OUT_DIR`].
///
/// # Errors
///
/// Describes a failure that prevented measuring at all.
pub fn run(args: Args, context: &RunContext) -> Result<Outcome, String> {
    let mut run = Run {
        args,
        tracer: Tracer::new(args.trace),
        outcome: Outcome::default(),
    };
    match args.workload {
        Workload::EffnetTable7 => crate::table7::run(&mut run)?,
        Workload::ServeChurn => crate::serve::run(&mut run)?,
    }
    if args.trace {
        let path = std::path::Path::new(crate::victims::OUT_DIR).join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        std::fs::create_dir_all(crate::victims::OUT_DIR)
            .and_then(|()| {
                std::fs::write(
                    &path,
                    crate::trace::trace_json(&context.to_json(), &run.tracer.spans()),
                )
            })
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("trace written to {}", path.display());
    } else {
        run.outcome.push("peak_rss_mb", peak_rss_mb()?, "MB");
    }
    Ok(run.outcome)
}

/// Peak resident set of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// Fails where `/proc/self/status` is unreadable.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Median of `samples`, or an error naming the empty metric.
///
/// # Errors
///
/// Fails when no sample was taken.
pub fn median_of(name: &str, samples: &[f64]) -> Result<f64, String> {
    stats::median(samples).ok_or_else(|| format!("{name}: no samples"))
}

/// Pushes the per-layer metric `metric` as the median duration of the
/// spans named `span`, scaled from milliseconds by `scale`.
///
/// # Errors
///
/// Fails when no span of that name was recorded.
pub fn push_span_metric(
    run: &mut Run,
    metric: &'static str,
    span: &str,
    scale: f64,
    unit: &'static str,
) -> Result<(), String> {
    let spans = run.tracer.spans();
    let durations: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == span)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    let value = median_of(span, &durations)? * scale;
    run.outcome.push(metric, value, unit);
    Ok(())
}
