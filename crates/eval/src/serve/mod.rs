//! Inspection-as-a-service: the resident daemon behind `usb-repro
//! serve`, its wire protocol, and client library.
//!
//! Every `usb-repro inspect` pays process startup, bundle load, and
//! prototype construction before a single class is scanned. The serve
//! layer keeps one warm engine resident — hot models in a bounded LRU,
//! the clone-free shared-`&Network` inspection pool already built in
//! PRs 4–6 — and lets many tenants stream USBV bundles at it over TCP:
//!
//! * [`proto`] — the USBP frame format (versioned, CRC'd, fuzz-hardened
//!   like every `PERSISTENCE.md` record);
//! * [`server`] — accept/reader/scheduler threads, fair round-robin
//!   queueing across connections, admission control, the resident-model
//!   cache;
//! * [`client`] — the blocking client used by `usb-repro submit`, the
//!   tests and perfbench.
//!
//! Verdict latency and throughput are measured by perfbench's
//! `serve-churn` workload, not here.
//!
//! Verdicts over the socket are **bit-identical** to offline `usb-repro
//! inspect` with the same seed: the daemon replays the exact offline
//! pipeline (seeded rng → clean subset → per-class rng streams) against
//! the cached model, and `tests/determinism.rs` pins warm, cold, and
//! offline against each other at 1/2/4 workers.

pub mod client;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError, SubmitOptions};
pub use proto::{Frame, ProgressEvent, SubmitRequest, WireVerdict};
pub use server::{ServeConfig, ServeStats, Server};
