//! The serve-layer load generator: drives a daemon through the real
//! socket path with N concurrent closed-loop clients and reports verdict
//! latency percentiles plus saturation throughput — the numbers committed
//! to `BENCH_serve.json` next to the existing perf trajectory.

use super::client::{Client, ClientError, SubmitOptions};
use super::server::{ServeConfig, ServeStats, Server};
use crate::timing::LatencyStats;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Load-generator configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadgenConfig {
    /// Concurrent client connections.
    pub clients: usize,
    /// Closed-loop requests per client in the measured phase.
    pub requests_per_client: usize,
    /// Use the reduced detector configuration per request.
    pub fast: bool,
    /// Inspection seed shared by every request (cache-friendly and
    /// deterministic — the workload is "many tenants re-screening the
    /// same model").
    pub seed: u64,
    /// Clean-subset size per request.
    pub subset: u32,
    /// Daemon worker threads per inspection (0 = auto).
    pub workers: usize,
    /// When set, also measure a cold-process baseline by timing
    /// `<binary> inspect <bundle> [--fast] --seed <seed>` end to end
    /// (process startup + bundle load + prototype construction +
    /// inspection).
    /// The CLI passes its own executable; library callers may skip it.
    pub cold_baseline: Option<PathBuf>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            clients: 2,
            requests_per_client: 4,
            fast: true,
            seed: 3,
            subset: 48,
            workers: 0,
            cold_baseline: None,
        }
    }
}

/// What one load-generator run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenReport {
    /// Wall milliseconds of the cold `usb-repro inspect` subprocess
    /// baseline ([`COLD_PROCESS_RUNS`] run(s)), when a baseline binary was
    /// configured and the run succeeded.
    pub cold_process_ms: Option<f64>,
    /// First daemon request (cold resident cache: parse + prototypes).
    pub first_request_ms: f64,
    /// Warm-phase verdict latency across all clients.
    pub warm: LatencyStats,
    /// Verdicts per second over the measured phase (closed loop at
    /// `clients` concurrency — the saturation throughput of a serial
    /// scheduler whose jobs each own the whole worker pool).
    pub verdicts_per_sec: f64,
    /// Wall seconds of the measured phase.
    pub wall_seconds: f64,
    /// Daemon counters at the end of the run.
    pub stats: ServeStats,
    /// Echo of the configuration.
    pub clients: usize,
    /// Echo of the configuration.
    pub requests_per_client: usize,
}

/// Runs the full measurement against an in-process daemon bound to an
/// OS-assigned loopback port: cold-process baseline (optional), one
/// cold-cache request, then `clients × requests_per_client` warm
/// requests, each client a closed loop on its own connection.
///
/// # Errors
///
/// Any daemon/socket/verdict failure is reported as a string — the load
/// generator refuses to summarise a run whose requests did not all
/// succeed (and whose verdicts did not all agree with ground truth).
pub fn run_loadgen(
    bundle: &[u8],
    bundle_path: Option<&Path>,
    config: &LoadgenConfig,
    progress: impl Fn(&str),
) -> Result<LoadgenReport, String> {
    assert!(config.clients > 0, "loadgen needs at least one client");
    assert!(
        config.requests_per_client > 0,
        "loadgen needs at least one request per client"
    );
    let cold_process_ms = match (&config.cold_baseline, bundle_path) {
        (Some(binary), Some(path)) => {
            progress("timing cold `inspect` subprocess baseline...");
            Some(cold_inspect_ms(binary, path, config)?)
        }
        _ => None,
    };
    let serve_config = ServeConfig {
        workers: config.workers,
        max_pending: config.requests_per_client.max(16),
        ..ServeConfig::default()
    };
    let server = Server::start(("127.0.0.1", 0), serve_config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let opts = SubmitOptions {
        tag: 1,
        seed: config.seed,
        subset: config.subset,
        workers: 0,
        fast: config.fast,
    };

    // Cold resident cache: the first request pays parse + prototypes.
    let first_request_ms = {
        let mut client = client_for(addr)?;
        let t0 = Instant::now();
        let verdict = client
            .inspect(bundle, &opts, |_| {})
            .map_err(|e| format!("cold daemon request: {e}"))?;
        if !verdict.agrees {
            return Err(format!(
                "verdict disagrees with ground truth (flagged {:?}, truth {:?})",
                verdict.flagged, verdict.truth_targets
            ));
        }
        t0.elapsed().as_secs_f64() * 1e3
    };
    progress(&format!(
        "cold daemon request: {first_request_ms:.0} ms; starting {} clients x {} requests...",
        config.clients, config.requests_per_client
    ));

    // Warm phase: closed-loop clients, each on its own connection.
    let wall = Instant::now();
    let per_client: Vec<Result<Vec<f64>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.clients)
            .map(|c| {
                let opts = SubmitOptions {
                    tag: (c as u64 + 1) << 32,
                    ..opts
                };
                scope.spawn(move || client_loop(addr, bundle, opts, config.requests_per_client))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let wall_seconds = wall.elapsed().as_secs_f64();
    let mut latencies = Vec::new();
    for r in per_client {
        latencies.extend(r?);
    }
    let stats = server.stop();
    let warm = LatencyStats::from_millis(&latencies);
    Ok(LoadgenReport {
        cold_process_ms,
        first_request_ms,
        warm,
        verdicts_per_sec: latencies.len() as f64 / wall_seconds,
        wall_seconds,
        stats,
        clients: config.clients,
        requests_per_client: config.requests_per_client,
    })
}

fn client_for(addr: std::net::SocketAddr) -> Result<Client, String> {
    let client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = client.set_read_timeout(Some(Duration::from_secs(600)));
    Ok(client)
}

fn client_loop(
    addr: std::net::SocketAddr,
    bundle: &[u8],
    base: SubmitOptions,
    requests: usize,
) -> Result<Vec<f64>, String> {
    let mut client = client_for(addr)?;
    let mut out = Vec::with_capacity(requests);
    for i in 0..requests {
        let opts = SubmitOptions {
            tag: base.tag + i as u64,
            ..base
        };
        let t0 = Instant::now();
        let verdict = client
            .inspect(bundle, &opts, |_| {})
            .map_err(|e: ClientError| format!("request {i}: {e}"))?;
        if !verdict.agrees {
            return Err(format!("request {i}: verdict disagrees with ground truth"));
        }
        if !verdict.cache_hit {
            return Err(format!(
                "request {i}: warm-phase request missed the resident cache"
            ));
        }
        out.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(out)
}

/// Cold `inspect` subprocess runs folded into the baseline. Exactly one:
/// the number is an order-of-magnitude contrast against the warm daemon
/// path (seconds vs milliseconds), so repeat runs buy noise reduction the
/// comparison does not need at 2–3 subprocess-seconds apiece. The run
/// count is recorded in the json (`cold_process_runs`) so the label and
/// the measurement can never drift apart again.
pub const COLD_PROCESS_RUNS: usize = 1;

/// Wall time of [`COLD_PROCESS_RUNS`] cold `inspect` subprocess run(s) —
/// the per-run value (their median, trivially the value itself at one
/// run). This is the baseline the warm path is compared against.
fn cold_inspect_ms(
    binary: &Path,
    bundle_path: &Path,
    config: &LoadgenConfig,
) -> Result<f64, String> {
    let mut runs = Vec::with_capacity(COLD_PROCESS_RUNS);
    for _ in 0..COLD_PROCESS_RUNS {
        let mut cmd = std::process::Command::new(binary);
        cmd.arg("inspect")
            .arg(bundle_path)
            .arg("--seed")
            .arg(config.seed.to_string())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null());
        if config.fast {
            cmd.arg("--fast");
        }
        let t0 = Instant::now();
        let status = cmd
            .status()
            .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if !status.success() {
            return Err(format!(
                "cold `inspect` baseline exited with {status} — the bundle must inspect cleanly"
            ));
        }
        runs.push(ms);
    }
    runs.sort_by(|a, b| a.total_cmp(b));
    Ok(runs[runs.len() / 2])
}

/// Serialises a [`LoadgenReport`] as the `BENCH_serve.json` document
/// (schema `usb-serve/1`), hand-rolled like `usb_eval::timing`'s
/// `BENCH.json` — no serde in this workspace.
pub fn loadgen_json(report: &LoadgenReport) -> String {
    let cold = match report.cold_process_ms {
        Some(ms) => format!("{ms:.3}"),
        None => "null".to_owned(),
    };
    let w = &report.warm;
    let s = &report.stats;
    format!(
        "{{\"schema\":\"usb-serve/1\",\"experiment\":\"loadgen\",\
         \"clients\":{},\"requests_per_client\":{},\"workers\":{},\
         \"kernel\":\"{}\",\
         \"cold_process_ms\":{cold},\"cold_process_runs\":{},\
         \"first_request_ms\":{:.3},\
         \"warm_ms\":{{\"n\":{},\"mean\":{:.3},\"min\":{:.3},\"p50\":{:.3},\
         \"p90\":{:.3},\"p99\":{:.3},\"max\":{:.3}}},\
         \"verdicts_per_sec\":{:.4},\"wall_seconds\":{:.3},\
         \"server\":{{\"connections\":{},\"accepted\":{},\"completed\":{},\
         \"cache_hits\":{},\"cache_misses\":{},\"resident_models\":{}}}}}\n",
        report.clients,
        report.requests_per_client,
        usb_tensor::par::worker_threads(),
        usb_tensor::kernels::tier_name(),
        COLD_PROCESS_RUNS,
        report.first_request_ms,
        w.n,
        w.mean_ms,
        w.min_ms,
        w.p50_ms,
        w.p90_ms,
        w.p99_ms,
        w.max_ms,
        report.verdicts_per_sec,
        report.wall_seconds,
        s.connections,
        s.accepted,
        s.completed,
        s.cache_hits,
        s.cache_misses,
        s.resident_models,
    )
}

/// Renders the human-facing summary `usb-repro loadgen` prints.
pub fn format_loadgen(report: &LoadgenReport) -> String {
    let mut out = String::new();
    out.push_str("=== serve loadgen ===\n");
    if let Some(cold) = report.cold_process_ms {
        out.push_str(&format!(
            "cold `inspect` process     {cold:>9.0} ms  (single run: startup + load + prototypes + inspect)\n"
        ));
    }
    out.push_str(&format!(
        "cold daemon request        {:>9.0} ms  (resident cache miss)\n",
        report.first_request_ms
    ));
    let w = &report.warm;
    out.push_str(&format!(
        "warm daemon requests       p50 {:.0} ms / p90 {:.0} ms / p99 {:.0} ms (n={}, mean {:.0} ms)\n",
        w.p50_ms, w.p90_ms, w.p99_ms, w.n, w.mean_ms
    ));
    out.push_str(&format!(
        "throughput                 {:.2} verdicts/s over {:.1} s ({} clients x {} requests)\n",
        report.verdicts_per_sec, report.wall_seconds, report.clients, report.requests_per_client
    ));
    let s = &report.stats;
    out.push_str(&format!(
        "server                     {} conns, {} accepted, {} completed, cache {}/{} hit, {} resident\n",
        s.connections,
        s.accepted,
        s.completed,
        s.cache_hits,
        s.cache_hits + s.cache_misses,
        s.resident_models
    ));
    if let Some(cold) = report.cold_process_ms {
        if w.p50_ms > 0.0 {
            out.push_str(&format!(
                "warm speedup vs cold       {:.2}x at p50\n",
                cold / w.p50_ms
            ));
        }
    }
    out
}
