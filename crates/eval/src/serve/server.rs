//! The resident inspection daemon: accepts USBV bundles over TCP,
//! schedules inspections fairly across client connections, keeps hot
//! models resident, and streams progress + verdicts back.
//!
//! # Thread model
//!
//! * one **accept** thread handing connections off to per-connection
//!   reader threads;
//! * one **reader** thread per connection parsing frames, answering pings
//!   inline, and enqueueing submissions (admission control happens here,
//!   before a job exists);
//! * one **scheduler** thread draining the queues in round-robin order
//!   across connections and running one inspection at a time — the
//!   inspection itself fans its classes out over the
//!   [`usb_tensor::par`] worker pool, so the machine is saturated by
//!   parallelism *inside* a job, and verdict latency stays predictable
//!   under load instead of every tenant's job thrashing every other's.
//!
//! Responses are written through a per-connection `Mutex<TcpStream>`
//! shared by the reader (acks, errors) and the scheduler's progress
//! callbacks (which run on inspection worker threads). Writes to a dead
//! client are dropped silently; the inspection still completes and the
//! resident cache still warms.
//!
//! # Scheduler states
//!
//! A submission moves through: **admitted** (reader thread, passed the
//! per-connection pending cap) → **queued** (in its connection's FIFO) →
//! **running** (popped by the round-robin scan) → **answered** (verdict
//! or error frame written). A connection that disconnects drops its
//! queued jobs; the running job, if any, finishes and its write fails
//! silently.
//!
//! # Resident-model cache
//!
//! The scheduler owns a bounded LRU keyed by the bundle's content
//! fingerprint ([`usb_attacks::persist::bundle_fingerprint`]). A hit
//! skips bundle parsing and prototype construction — the non-inspection
//! costs — and is what makes a warm daemon answer faster than a cold
//! `usb-repro inspect` process. A miss never renders the recipe's
//! train/test split: inspection draws fresh clean samples, so an entry
//! holds only the recipe's class prototypes
//! ([`usb_data::SyntheticSpec::prototypes`]). The cache is
//! **byte**-budgeted ([`ServeConfig::cache_bytes`], CLI `--cache-mb`):
//! each entry is charged its actual resident footprint (model tensors +
//! quantized payloads + prototypes, the model dominating), and admitting
//! a new entry evicts least-recently-used entries until the total fits.
//! Quantized bundles therefore pack proportionally more residents into
//! the same budget with no flag change. One entry is always admitted even
//! if it alone exceeds the budget — a daemon that cannot hold its working
//! model would answer nothing. Memory stays bounded no matter how many distinct bundles a
//! tenant streams in (pinned by the counting-allocator soak test). The
//! weight decodes a job's quantized layers build live only as long as the
//! job: the scheduler drops them when it ends, so the charge stays model
//! plus prototypes.

use super::proto::{
    read_frame_or_eof, verdict_from_outcome, write_frame, Frame, ProgressEvent, SubmitRequest,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use usb_attacks::persist::{bundle_fingerprint, read_victim_bytes, VictimBundle};
use usb_core::{UsbConfig, UsbDetector};
use usb_data::ClassPrototypes;
use usb_nn::layer::Layer;
use usb_tensor::io::IoError;

/// Hard cap on the per-request clean-subset size (fresh samples are drawn
/// per request, so this bounds per-job memory, not verdict quality).
pub const MAX_SUBSET: u32 = 4096;

/// Daemon configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Default worker threads per inspection (0 = auto, like
    /// `UsbConfig::workers`); a submission's non-zero `workers` field
    /// overrides it for that job.
    pub workers: usize,
    /// Admission cap: queued + running jobs allowed per connection.
    pub max_pending: usize,
    /// Resident-model cache budget in bytes (model + prototype footprint
    /// of every warm bundle). At least one entry is always kept.
    pub cache_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            max_pending: 16,
            cache_bytes: 64 << 20,
        }
    }
}

/// A point-in-time snapshot of the daemon's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Connections accepted since start.
    pub connections: u64,
    /// Submissions that passed admission control.
    pub accepted: u64,
    /// Submissions rejected by admission control.
    pub rejected: u64,
    /// Jobs answered with a verdict.
    pub completed: u64,
    /// Jobs answered with an error (unparseable bundle, shutdown, ...).
    pub failed: u64,
    /// Malformed frames / protocol violations observed.
    pub protocol_errors: u64,
    /// Jobs served from the resident-model cache.
    pub cache_hits: u64,
    /// Jobs that had to parse the bundle and rebuild its prototypes.
    pub cache_misses: u64,
    /// Models currently resident in the cache.
    pub resident_models: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    protocol_errors: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    resident_models: AtomicU64,
}

type SharedWriter = Arc<Mutex<TcpStream>>;

/// Best-effort frame write: a dead client must never take the daemon or
/// another tenant's job down with it.
fn send(writer: &SharedWriter, frame: &Frame) -> bool {
    let mut guard = match writer.lock() {
        Ok(g) => g,
        Err(_) => return false,
    };
    write_frame(&mut *guard, frame).is_ok()
}

struct Job {
    conn: u64,
    job: u64,
    req: SubmitRequest,
    writer: SharedWriter,
}

struct ConnQueue {
    conn: u64,
    queued: VecDeque<Job>,
    running: usize,
}

#[derive(Default)]
struct SchedState {
    queues: Vec<ConnQueue>,
    /// Round-robin cursor into `queues`; the next scan starts here so no
    /// connection is drained ahead of its peers.
    cursor: usize,
}

impl SchedState {
    fn entry(&mut self, conn: u64) -> Option<&mut ConnQueue> {
        self.queues.iter_mut().find(|q| q.conn == conn)
    }

    fn total_queued(&self) -> usize {
        self.queues.iter().map(|q| q.queued.len()).sum()
    }

    /// Pops the next job in round-robin order across connections.
    fn pop_fair(&mut self) -> Option<Job> {
        if self.queues.is_empty() {
            return None;
        }
        let n = self.queues.len();
        for step in 0..n {
            let i = (self.cursor + step) % n;
            if let Some(job) = self.queues[i].queued.pop_front() {
                self.queues[i].running += 1;
                self.cursor = (i + 1) % n;
                return Some(job);
            }
        }
        None
    }
}

struct Shared {
    config: ServeConfig,
    state: Mutex<SchedState>,
    work_ready: Condvar,
    stopping: AtomicBool,
    stop_flag: Mutex<bool>,
    stop_cv: Condvar,
    counters: Counters,
    next_job: AtomicU64,
    next_conn: AtomicU64,
    /// Read-half clones of every live connection, shut down on stop so
    /// blocked reader threads unblock.
    conn_streams: Mutex<Vec<(u64, TcpStream)>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    addr: SocketAddr,
}

impl Shared {
    fn begin_stop(&self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        self.work_ready.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        // Unblock every reader parked in a frame read.
        if let Ok(conns) = self.conn_streams.lock() {
            for (_, s) in conns.iter() {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
        if let Ok(mut flag) = self.stop_flag.lock() {
            *flag = true;
            self.stop_cv.notify_all();
        }
    }

    fn stats(&self) -> ServeStats {
        let c = &self.counters;
        ServeStats {
            connections: c.connections.load(Ordering::Relaxed),
            accepted: c.accepted.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            protocol_errors: c.protocol_errors.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            cache_misses: c.cache_misses.load(Ordering::Relaxed),
            resident_models: c.resident_models.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------
// Resident-model cache (owned by the scheduler thread)
// ---------------------------------------------------------------------

struct Resident {
    key: u64,
    bundle: VictimBundle,
    /// The bundle recipe's class prototypes, the source of every job's
    /// fresh clean subset.
    protos: ClassPrototypes,
    /// This entry's charge against the byte budget, computed once at
    /// admission (bundles are immutable while resident).
    bytes: usize,
    last_used: u64,
}

struct ResidentCache {
    budget_bytes: usize,
    entries: Vec<Resident>,
    resident_bytes: usize,
    tick: u64,
}

impl ResidentCache {
    fn new(budget_bytes: usize) -> Self {
        ResidentCache {
            budget_bytes: budget_bytes.max(1),
            entries: Vec::new(),
            resident_bytes: 0,
            tick: 0,
        }
    }

    /// Looks the bundle up by content fingerprint, parsing it and building
    /// its prototypes on a miss. Returns the resident entry index and
    /// whether it was a hit. Admission evicts least-recently-used entries
    /// until the new entry's footprint fits the byte budget; the new entry
    /// itself is always admitted (a budget smaller than one model still
    /// keeps that model, just nothing else).
    fn get(&mut self, bytes: &[u8]) -> Result<(usize, bool), IoError> {
        self.tick += 1;
        let key = bundle_fingerprint(bytes);
        if let Some(i) = self.entries.iter().position(|e| e.key == key) {
            self.entries[i].last_used = self.tick;
            return Ok((i, true));
        }
        let mut bundle = read_victim_bytes(bytes)?;
        let protos = bundle.data_spec.prototypes(bundle.data_seed);
        let footprint = bundle.victim.model.resident_bytes() + protos.resident_bytes();
        while !self.entries.is_empty() && self.resident_bytes + footprint > self.budget_bytes {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("cache is non-empty");
            self.remove(lru);
        }
        self.resident_bytes += footprint;
        self.entries.push(Resident {
            key,
            bundle,
            protos,
            bytes: footprint,
            last_used: self.tick,
        });
        Ok((self.entries.len() - 1, false))
    }

    /// Drops the entry for this bundle, if it is resident.
    fn evict(&mut self, bytes: &[u8]) {
        let key = bundle_fingerprint(bytes);
        if let Some(i) = self.entries.iter().position(|e| e.key == key) {
            self.remove(i);
        }
    }

    fn remove(&mut self, i: usize) {
        self.resident_bytes -= self.entries[i].bytes;
        self.entries.swap_remove(i);
    }
}

// ---------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------

/// A running daemon instance.
///
/// Bind with [`Server::start`] (use port 0 to let the OS pick — tests
/// do), retrieve the bound address via [`Server::local_addr`], and stop
/// with [`Server::stop`], which joins every thread. Dropping without
/// `stop` leaks the threads until process exit; the CLI path instead
/// parks in [`Server::wait`] until a client sends a `Shutdown` frame.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    sched: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` and spawns the accept + scheduler threads.
    pub fn start(addr: impl ToSocketAddrs, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            config,
            state: Mutex::new(SchedState::default()),
            work_ready: Condvar::new(),
            stopping: AtomicBool::new(false),
            stop_flag: Mutex::new(false),
            stop_cv: Condvar::new(),
            counters: Counters::default(),
            next_job: AtomicU64::new(1),
            next_conn: AtomicU64::new(1),
            conn_streams: Mutex::new(Vec::new()),
            readers: Mutex::new(Vec::new()),
            addr: local,
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        let sched = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || scheduler_loop(&shared))
        };
        Ok(Server {
            shared,
            accept: Some(accept),
            sched: Some(sched),
        })
    }

    /// The address the daemon is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// Blocks until a client requests shutdown (or [`Server::stop`] is
    /// called from another thread).
    pub fn wait(&self) {
        let mut flag = self
            .shared
            .stop_flag
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        while !*flag {
            flag = self
                .shared
                .stop_cv
                .wait(flag)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Stops the daemon and joins every thread. Queued jobs receive an
    /// error frame; the running job (if any) completes first.
    pub fn stop(mut self) -> ServeStats {
        self.shutdown_and_join();
        self.shared.stats()
    }

    fn shutdown_and_join(&mut self) {
        self.shared.begin_stop();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.sched.take() {
            let _ = h.join();
        }
        let readers: Vec<JoinHandle<()>> = {
            let mut guard = self
                .shared
                .readers
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            guard.drain(..).collect()
        };
        for h in readers {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let conn = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        shared.counters.connections.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_nodelay(true);
        let read_half = match stream.try_clone() {
            Ok(c) => c,
            Err(_) => continue,
        };
        if let Ok(mut conns) = shared.conn_streams.lock() {
            conns.push((conn, read_half));
        }
        {
            let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            state.queues.push(ConnQueue {
                conn,
                queued: VecDeque::new(),
                running: 0,
            });
        }
        let spawned = {
            let shared = Arc::clone(shared);
            std::thread::Builder::new().spawn(move || connection_loop(conn, stream, &shared))
        };
        match spawned {
            Ok(handle) => {
                if let Ok(mut readers) = shared.readers.lock() {
                    // A finished reader's handle still holds its stack
                    // mapping; drop those so a long-lived daemon's handle
                    // list tracks live connections, not every one it saw.
                    readers.retain(|h| !h.is_finished());
                    readers.push(handle);
                }
            }
            // Out of threads or mappings: drop this connection (the failed
            // spawn closed its stream) and keep accepting.
            Err(_) => disconnect(conn, shared),
        }
    }
}

fn connection_loop(conn: u64, stream: TcpStream, shared: &Arc<Shared>) {
    let writer: SharedWriter = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut reader = stream;
    loop {
        match read_frame_or_eof(&mut reader) {
            Ok(None) => break,
            Ok(Some(Frame::Ping)) => {
                send(&writer, &Frame::Pong);
            }
            Ok(Some(Frame::Submit(req))) => handle_submit(conn, req, &writer, shared),
            Ok(Some(Frame::Shutdown)) => {
                send(&writer, &Frame::ShutdownAck);
                shared.begin_stop();
                break;
            }
            Ok(Some(other)) => {
                // A client sending server-to-client frames is a protocol
                // violation: answer once, then hang up on it.
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                send(
                    &writer,
                    &Frame::Error {
                        tag: 0,
                        job: 0,
                        message: format!("unexpected client frame {other:?}"),
                    },
                );
                break;
            }
            Err(IoError::Format(msg)) => {
                // Malformed frame: report on the connection if the socket
                // still accepts writes, then close *this* connection only.
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                send(
                    &writer,
                    &Frame::Error {
                        tag: 0,
                        job: 0,
                        message: format!("malformed frame: {msg}"),
                    },
                );
                break;
            }
            Err(IoError::Io(_)) => break,
        }
    }
    disconnect(conn, shared);
}

/// Removes a connection's queue (dropping its not-yet-running jobs) and
/// its stream registration.
fn disconnect(conn: u64, shared: &Arc<Shared>) {
    let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(i) = state.queues.iter().position(|q| q.conn == conn) {
        state.queues.swap_remove(i);
        if state.cursor >= state.queues.len() {
            state.cursor = 0;
        }
    }
    drop(state);
    if let Ok(mut conns) = shared.conn_streams.lock() {
        conns.retain(|(c, _)| *c != conn);
    }
}

/// Admission control + enqueue, on the reader thread: a request is
/// rejected with an error frame (echoing its tag) when the connection
/// already has `max_pending` jobs in flight, when the whole daemon's
/// queue is saturated, or when the request is structurally implausible.
/// Otherwise it gets a job id, an `Accepted` frame, and a queue slot.
///
/// The connection's writer stays locked from before the enqueue until
/// the reply is written: the scheduler may pop a queued job and fail it at
/// once, and its `Error` frame must not overtake the `Accepted` frame.
fn handle_submit(conn: u64, req: SubmitRequest, writer: &SharedWriter, shared: &Arc<Shared>) {
    let Ok(mut out) = writer.lock() else { return };
    let tag = req.tag;
    let reply = enqueue(conn, req, writer, shared).unwrap_or_else(|message| {
        shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
        Frame::Error {
            tag,
            job: 0,
            message,
        }
    });
    let _ = write_frame(&mut *out, &reply);
}

/// The checks and queue insertion of [`handle_submit`]: the `Accepted`
/// frame to send, or why the request is refused.
fn enqueue(
    conn: u64,
    req: SubmitRequest,
    writer: &SharedWriter,
    shared: &Arc<Shared>,
) -> Result<Frame, String> {
    if shared.stopping.load(Ordering::SeqCst) {
        return Err("server is shutting down".to_owned());
    }
    if req.subset > MAX_SUBSET {
        return Err(format!(
            "subset {} exceeds the per-request cap {MAX_SUBSET}",
            req.subset
        ));
    }
    if req.bundle.is_empty() {
        return Err("submission carries an empty bundle".to_owned());
    }
    let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
    // Global backpressure: bound total queued work across all tenants.
    let global_cap = shared.config.max_pending.saturating_mul(16).max(64);
    if state.total_queued() >= global_cap {
        return Err(format!("server queue is full ({global_cap} jobs)"));
    }
    let queue_depth = state.total_queued() as u32;
    let Some(entry) = state.entry(conn) else {
        return Err("connection is no longer registered".to_owned());
    };
    if entry.queued.len() + entry.running >= shared.config.max_pending {
        let cap = shared.config.max_pending;
        return Err(format!("connection already has {cap} jobs pending"));
    }
    let job = shared.next_job.fetch_add(1, Ordering::Relaxed);
    let tag = req.tag;
    entry.queued.push_back(Job {
        conn,
        job,
        req,
        writer: Arc::clone(writer),
    });
    drop(state);
    shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
    shared.work_ready.notify_all();
    Ok(Frame::Accepted {
        tag,
        job,
        queue_depth,
    })
}

fn scheduler_loop(shared: &Arc<Shared>) {
    let mut cache = ResidentCache::new(shared.config.cache_bytes);
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = state.pop_fair() {
                    break Some(job);
                }
                if shared.stopping.load(Ordering::SeqCst) {
                    break None;
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(job) = job else { break };
        let answer = contain(|| run_job(&job, &mut cache, shared)).unwrap_or_else(|message| {
            // The model may hold half-built decodes: the bundle's next job
            // parses it afresh.
            cache.evict(&job.req.bundle);
            shared
                .counters
                .resident_models
                .store(cache.entries.len() as u64, Ordering::Relaxed);
            shared.counters.failed.fetch_add(1, Ordering::Relaxed);
            Frame::Error {
                tag: job.req.tag,
                job: job.job,
                message: format!("inspection panicked: {message}"),
            }
        });
        // Release the job's admission slot *before* answering: a client
        // that resubmits the moment it sees the verdict must not bounce
        // off its own still-occupied `running` count.
        {
            let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(entry) = state.entry(job.conn) {
                entry.running = entry.running.saturating_sub(1);
            }
        }
        send(&job.writer, &answer);
    }
    // Drain: everything still queued gets a clean refusal, not silence.
    let leftovers: Vec<Job> = {
        let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state
            .queues
            .iter_mut()
            .flat_map(|q| q.queued.drain(..))
            .collect()
    };
    for job in leftovers {
        shared.counters.failed.fetch_add(1, Ordering::Relaxed);
        send(
            &job.writer,
            &Frame::Error {
                tag: job.req.tag,
                job: job.job,
                message: "server shut down before the job ran".to_owned(),
            },
        );
    }
}

/// Runs `run`, returning its panic message instead of unwinding, so a
/// panicking job cannot take the scheduler thread down with it.
fn contain<T>(run: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned())
    })
}

/// Runs one inspection end to end, streaming progress on the job's
/// connection, and returns the final answer frame (verdict or error) for
/// the scheduler to deliver once the admission slot is released.
///
/// The verdict path is byte-for-byte the offline `usb-repro inspect`
/// pipeline: seed the rng, draw the clean subset, run the detector with
/// per-class rng streams. Cache hits skip bundle parsing and prototype
/// construction but change none of those inputs, so warm and cold
/// verdicts are bit-identical — the cross-socket determinism suite pins
/// this.
fn run_job(job: &Job, cache: &mut ResidentCache, shared: &Arc<Shared>) -> Frame {
    let t0 = Instant::now();
    let (slot, hit) = match cache.get(&job.req.bundle) {
        Ok(pair) => pair,
        Err(e) => {
            shared.counters.failed.fetch_add(1, Ordering::Relaxed);
            return Frame::Error {
                tag: job.req.tag,
                job: job.job,
                message: format!("bundle rejected: {e}"),
            };
        }
    };
    let counter = if hit {
        &shared.counters.cache_hits
    } else {
        &shared.counters.cache_misses
    };
    counter.fetch_add(1, Ordering::Relaxed);
    shared
        .counters
        .resident_models
        .store(cache.entries.len() as u64, Ordering::Relaxed);
    let resident = &cache.entries[slot];
    let model = &resident.bundle.victim.model;
    let workers = if job.req.workers > 0 {
        job.req.workers as usize
    } else {
        shared.config.workers
    };
    let config = if job.req.fast {
        UsbConfig::fast()
    } else {
        UsbConfig::standard()
    };
    let detector = UsbDetector::new(config.with_workers(workers));
    let mut rng = StdRng::seed_from_u64(job.req.seed);
    let (clean_x, _) = resident
        .protos
        .clean_subset(job.req.subset as usize, &mut rng);
    let total = model.num_classes() as u32;
    let done = AtomicU32::new(0);
    let outcome = detector.inspect_with_progress(model, &clean_x, &mut rng, |class_result| {
        let classes_done = done.fetch_add(1, Ordering::SeqCst) + 1;
        send(
            &job.writer,
            &Frame::Progress(ProgressEvent {
                job: job.job,
                class: class_result.class as u32,
                classes_done,
                classes_total: total,
                l1_norm: class_result.l1_norm,
                attack_success: class_result.attack_success,
            }),
        );
    });
    let truth: Vec<u32> = resident
        .bundle
        .victim
        .targets()
        .into_iter()
        .map(|t| t as u32)
        .collect();
    // Drop the weight decodes the job built: each `&mut` state slot
    // releases its layer's decode, so the entry is back to its charge.
    cache.entries[slot]
        .bundle
        .victim
        .model
        .visit_state(&mut |_, _| {});
    let verdict = verdict_from_outcome(job.job, &outcome, &truth, hit, t0.elapsed().as_secs_f64());
    shared.counters.completed.fetch_add(1, Ordering::Relaxed);
    Frame::Verdict(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contain_turns_a_panic_into_its_message() {
        let formatted = contain(|| -> Frame { panic!("half-built {}", "panel") });
        assert_eq!(formatted, Err("half-built panel".to_owned()));
        let literal = contain(|| -> Frame { panic!("static message") });
        assert_eq!(literal, Err("static message".to_owned()));
        assert_eq!(contain(|| Frame::Pong), Ok(Frame::Pong));
    }

    /// Polls `done` until it holds, panicking after ten seconds.
    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }

    #[test]
    fn finished_reader_handles_are_pruned() {
        let server = Server::start("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let shared = Arc::clone(&server.shared);
        for n in 1..=16 {
            drop(TcpStream::connect(server.local_addr()).expect("connect"));
            wait_until("connection deregistered", || {
                server.stats().connections == n
                    && shared.conn_streams.lock().expect("conns").is_empty()
            });
        }
        // Every earlier reader had left its loop before the next accept,
        // so at most the latest one or two are still held (16 unpruned).
        let held = shared.readers.lock().expect("readers").len();
        assert!(
            held <= 2,
            "{held} reader handles held after 16 closed connections"
        );
        server.stop();
    }
}
