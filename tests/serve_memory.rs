//! Pins the daemon's bounded-memory contract with a counting global
//! allocator: live heap bytes are tracked process-wide (the daemon
//! allocates on reader, scheduler, and inspection-worker threads, so the
//! thread-local counter of `crates/core/tests/refine_alloc.rs` would miss
//! almost everything), and the suite asserts that
//!
//! * repeated submissions of the **same** bundle re-use the resident
//!   model — live bytes stop growing once the cache is warm, and the
//!   hit/miss ledger shows one parse total;
//! * a cache miss never renders the bundle recipe's train/test split: a
//!   bundle declaring 60k/10k images grows live bytes by its entry's
//!   charged footprint (model + class prototypes) plus small slack, and
//!   its peak stays far below the 70k images' bytes;
//! * a stream of **distinct** bundles cannot grow the cache past its
//!   configured **byte budget** — the LRU evicts by actual resident
//!   footprint (model + class prototypes), `resident_models` stays at
//!   what the budget affords, and live bytes stay bounded;
//! * a quantized (Q8) twin of the fixture bundle is accepted by the
//!   daemon, and is ≥ 1.8× smaller than its f32 twin both on disk and in
//!   resident memory (measured with the counting allocator);
//! * a finished job leaves no GEMM panels behind: after a job, an f32 and
//!   a Q8 resident entry each hold what parsing built plus the recipe's
//!   prototypes, and nothing more;
//! * a truncated tensor record claiming 2²⁸ elements is rejected without
//!   allocating its claimed gigabyte;
//! * a network blob whose first state record is complete and CRC-valid
//!   but 2²² elements large, where the topology expects a small kernel, is
//!   rejected before its 16 MiB payload is read or allocated;
//! * so is a bundle whose trigger pattern is such a record, where the
//!   model's input shape fixes a small one.
//!
//! Everything runs in ONE `#[test]` so no concurrent test traffic
//! pollutes the live-byte readings; this file is its own test binary for
//! the same reason.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Duration;
use universal_soldier::attacks::persist::read_victim_bytes;
use universal_soldier::eval::serve::{Client, ServeConfig, Server, SubmitOptions};
use universal_soldier::nn::models::{Architecture, ModelKind};
use universal_soldier::nn::serde::{read_network, write_network};
use universal_soldier::tensor::io::{
    read_tensor_record, write_tensor, IoError, TENSOR_MAGIC, TENSOR_VERSION,
};
use universal_soldier::tensor::{Dtype, Tensor};

mod serve_util;

/// Live heap bytes across every thread (allocations minus deallocations).
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
/// The highest `LIVE_BYTES` reading since the last [`reset_peak`].
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

fn grow(bytes: i64) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size() as i64);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grow(new_size as i64 - layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Restarts the peak reading from the current live bytes, which it returns.
fn reset_peak() -> i64 {
    let live = live_bytes();
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

/// Live bytes once the daemon has gone idle: the scheduler drops a job's
/// request only after its verdict is on the wire, so a reading right after
/// the verdict may race that drop. Waits for two equal readings in a row.
fn settled_live_bytes() -> i64 {
    let mut last = live_bytes();
    for _ in 0..200 {
        std::thread::sleep(Duration::from_millis(10));
        let now = live_bytes();
        if now == last {
            break;
        }
        last = now;
    }
    last
}

fn peak_bytes() -> i64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Live-heap delta held by one parsed-and-resident `VictimBundle` —
/// allocate it, read the counter, drop it. Transient parse buffers are
/// freed before `read_victim_bytes` returns, so the delta is the bundle's
/// actual resident footprint.
fn resident_footprint(bytes: &[u8]) -> i64 {
    let before = live_bytes();
    let parsed = read_victim_bytes(bytes).expect("parsing a fixture bundle");
    let delta = live_bytes() - before;
    drop(parsed);
    delta
}

/// Live-heap delta held by the class prototypes of a bundle's recipe,
/// measured like [`resident_footprint`].
fn prototype_footprint(bytes: &[u8]) -> i64 {
    let parsed = read_victim_bytes(bytes).expect("parsing a fixture bundle");
    let before = live_bytes();
    let protos = parsed.data_spec.prototypes(parsed.data_seed);
    let delta = live_bytes() - before;
    drop(protos);
    delta
}

/// What the daemon charges a bundle against its cache budget: the parsed
/// model plus the class prototypes of its recipe.
fn charged_footprint(bytes: &[u8]) -> usize {
    let mut parsed = read_victim_bytes(bytes).expect("parsing a fixture bundle");
    let protos = parsed.data_spec.prototypes(parsed.data_seed);
    parsed.victim.model.resident_bytes() + protos.resident_bytes()
}

/// Heap a cache miss may keep beyond its entry's charged footprint: the
/// bookkeeping the charge leaves out (tensor shape vectors, layer
/// structs, the resident entry's own slot).
const ZOO_SLACK: usize = 32 << 10;

/// Bookkeeping a finished job may leave beyond its entry's post-parse
/// footprint. Far below the fixture's GEMM panels: a few KiB for the f32
/// twin, more for the Q8 one.
const PANEL_SLACK: i64 = 256;

#[test]
fn resident_cache_keeps_daemon_memory_bounded() {
    // Size the byte budget from the fixture's true footprint (model +
    // the recipe's class prototypes): room for two resident entries, not
    // three.
    const ENTRIES: usize = 2;
    let bundle = serve_util::bundle_bytes(serve_util::FIXTURE_DATA_SEED);
    let entry_footprint = charged_footprint(&bundle);
    let config = ServeConfig {
        workers: 2,
        max_pending: 8,
        cache_bytes: ENTRIES * entry_footprint + entry_footprint / 2,
    };
    let server = Server::start(("127.0.0.1", 0), config).expect("binding a loopback daemon");
    let mut client = Client::connect(server.local_addr()).expect("connecting to the daemon");
    client
        .set_read_timeout(Some(Duration::from_secs(600)))
        .expect("setting a read timeout");
    let submit = |client: &mut Client, tag: u64, bundle: &[u8]| {
        let opts = SubmitOptions {
            tag,
            seed: 17,
            subset: 32,
            workers: 2,
            fast: true,
        };
        client
            .inspect(bundle, &opts, |_| {})
            .expect("daemon inspection")
    };

    // --- Phase 1: the same bundle over and over -------------------------
    // Two warm-up requests: the first parses the bundle and builds its
    // prototypes into the resident cache, the second covers lazy one-time
    // setup on the warm path (workspace pools, formatting machinery).
    let first = submit(&mut client, 1, &bundle);
    assert!(!first.cache_hit, "the very first request must miss");
    let second = submit(&mut client, 2, &bundle);
    assert!(second.cache_hit, "the repeat request must stay resident");

    const REPEATS: u64 = 8;
    let warm_baseline = live_bytes();
    for i in 0..REPEATS {
        let v = submit(&mut client, 10 + i, &bundle);
        assert!(v.cache_hit, "repeat {i} fell out of the resident cache");
    }
    let growth = live_bytes() - warm_baseline;
    // A hit allocates nothing resident, and transient inspection buffers
    // are freed before `inspect` returns, so the steady state is
    // near-zero growth.
    assert!(
        growth < (1 << 20),
        "8 warm same-bundle requests grew live heap by {growth} bytes — \
         the warm path must not accumulate per-request state"
    );
    let stats = server.stats();
    assert_eq!(stats.cache_misses, 1, "one parse for the repeated bundle");
    assert_eq!(stats.cache_hits, 1 + REPEATS);

    // --- Phase 1b: a model-zoo recipe misses without rendering it ---------
    // The same victim declaring a 60k/10k-image recipe: distinct bytes, so
    // a miss, and the cache still has room for it, so nothing is evicted.
    // Rendering that split would hold 4·70k·C·H·W bytes; the daemon only
    // builds the recipe's prototypes, whose size does not depend on it.
    let zoo = serve_util::bundle_bytes_with_recipe(serve_util::FIXTURE_DATA_SEED, |spec| {
        spec.train_size = 60_000;
        spec.test_size = 10_000;
    });
    let split_bytes = {
        let spec = read_victim_bytes(&zoo)
            .expect("parsing the zoo bundle")
            .data_spec;
        4 * (spec.train_size + spec.test_size) * spec.channels * spec.height * spec.width
    };
    let zoo_baseline = reset_peak();
    let v = submit(&mut client, 50, &zoo);
    assert!(!v.cache_hit, "the zoo recipe has fresh bytes: must miss");
    let growth = live_bytes() - zoo_baseline;
    let peak = peak_bytes() - zoo_baseline;
    assert!(
        growth <= (entry_footprint + ZOO_SLACK) as i64,
        "a zoo-recipe miss grew live heap by {growth} bytes; its charged \
         footprint is {entry_footprint} (+{ZOO_SLACK} slack)"
    );
    assert!(
        peak < (split_bytes / 8) as i64,
        "a zoo-recipe miss peaked {peak} bytes above its baseline — its \
         {split_bytes}-byte split must never be rendered"
    );
    assert_eq!(server.stats().resident_models, 2);

    // --- Phase 2: distinct bundles past the byte budget -----------------
    // Each variant carries a different data-regeneration seed, so each has
    // distinct bytes (a distinct fingerprint) and forces a cache miss.
    // Every variant has the same footprint as the original (same spec,
    // same sizes), so the budget affords exactly `ENTRIES` of them.
    const DISTINCT: u64 = 4;
    let bounded_baseline = live_bytes();
    for k in 0..DISTINCT {
        let variant = serve_util::bundle_bytes(1000 + k);
        let v = submit(&mut client, 100 + k, &variant);
        assert!(!v.cache_hit, "variant {k} has fresh bytes: must miss");
    }
    let stats = server.stats();
    assert_eq!(stats.cache_misses, 2 + DISTINCT);
    assert!(
        stats.resident_models <= ENTRIES as u64,
        "{} models resident with a budget sized for {ENTRIES}: the LRU \
         failed to evict by footprint",
        stats.resident_models
    );
    // Streaming more distinct bundles than the budget holds must not grow
    // memory linearly with the stream: everything past the budget is
    // evicted. Allow the budget's worth of slack (generously sized) on
    // top of the warm baseline.
    let growth = live_bytes() - bounded_baseline;
    assert!(
        growth < (ENTRIES as i64) * (4 << 20),
        "{DISTINCT} distinct bundles grew live heap by {growth} bytes with \
         a {ENTRIES}-entry byte budget — eviction is not releasing memory"
    );

    // The evicted-and-resubmitted original bundle misses again (it was
    // pushed out by the variants), which is exactly the bounded-memory
    // trade: re-parse cost, not unbounded growth.
    let v = submit(&mut client, 200, &bundle);
    assert!(!v.cache_hit, "the original bundle should have been evicted");

    // --- Phase 3: the quantized twin ------------------------------------
    // A Q8 bundle of the same victim is accepted by the daemon like any
    // other bundle: one miss to parse, then resident.
    let q8 = serve_util::bundle_bytes_dtype(serve_util::FIXTURE_DATA_SEED, Dtype::Q8);
    let v = submit(&mut client, 300, &q8);
    assert!(!v.cache_hit, "the Q8 twin has fresh bytes: must miss");
    let v = submit(&mut client, 301, &q8);
    assert!(v.cache_hit, "the Q8 twin must stay resident once parsed");

    let stats = server.stop();
    // The budget was sized for `ENTRIES` f32 entries, but the Q8 twin is
    // charged its own, smaller model (2553 bytes against 6005 for f32):
    // it fits beside the two f32 entries the cache last held, so the
    // cache keeps all three.
    let q8_footprint = charged_footprint(&q8);
    assert!(
        ENTRIES * entry_footprint + q8_footprint <= config.cache_bytes,
        "the Q8 twin's charge ({q8_footprint} bytes) should fit beside \
         {ENTRIES} f32 entries ({entry_footprint} bytes each)"
    );
    assert_eq!(stats.resident_models, ENTRIES as u64 + 1);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.protocol_errors, 0);

    // With the daemon gone (no concurrent allocation traffic), measure
    // the low-precision storage win: the Q8 twin must be ≥ 1.8× smaller
    // than its f32 twin on disk AND in resident memory. Models carry no
    // gradient buffers, so in memory the win is the weights' alone,
    // diluted by per-layer bookkeeping both twins share: on this small
    // fixture 7477 vs 4121 live bytes (1.81×), against 6751 vs 3299 bytes
    // on disk (2.05×).
    assert!(
        bundle.len() as f64 >= 1.8 * q8.len() as f64,
        "Q8 bundle is only {:.2}x smaller on disk ({} vs {} bytes)",
        bundle.len() as f64 / q8.len() as f64,
        bundle.len(),
        q8.len()
    );
    let f32_resident = resident_footprint(&bundle);
    let q8_resident = resident_footprint(&q8);
    assert!(
        f32_resident as f64 >= 1.8 * q8_resident as f64,
        "Q8 bundle is only {:.2}x smaller resident ({} vs {} live bytes)",
        f32_resident as f64 / q8_resident as f64,
        f32_resident,
        q8_resident
    );

    // --- Phase 4: a finished job leaves no GEMM panels behind -----------
    // A job's layers build their panels (for the Q8 twin, a decode plus a
    // transpose per weight: more than twice its resident payload), and the
    // scheduler drops them when the job ends. So after a miss, the daemon
    // holds what parsing built plus the recipe's prototypes, and nothing
    // more. A fresh daemon runs one warm-up job on an unrelated bundle
    // first, so one-time setup (cache slots, thread bookkeeping) is not
    // charged to the bundles under test.
    let server = Server::start(
        ("127.0.0.1", 0),
        ServeConfig {
            cache_bytes: 1 << 30,
            ..config
        },
    )
    .expect("binding a second loopback daemon");
    let mut client = Client::connect(server.local_addr()).expect("connecting to the daemon");
    client
        .set_read_timeout(Some(Duration::from_secs(600)))
        .expect("setting a read timeout");
    let warm_up = serve_util::bundle_bytes(2000);
    assert!(!submit(&mut client, 400, &warm_up).cache_hit);
    assert!(submit(&mut client, 401, &warm_up).cache_hit);
    for (tag, twin, name) in [(410, &bundle, "f32"), (420, &q8, "Q8")] {
        let before = settled_live_bytes();
        let entry = resident_footprint(twin) + prototype_footprint(twin);
        assert!(!submit(&mut client, tag, twin).cache_hit);
        let after_miss = settled_live_bytes() - before;
        assert!(submit(&mut client, tag + 1, twin).cache_hit);
        let after_hit = settled_live_bytes() - before;
        for (job, held) in [("miss", after_miss), ("hit", after_hit)] {
            assert!(
                held <= entry + PANEL_SLACK,
                "after a {name} {job} job the daemon holds {held} bytes for the \
                 bundle; parsing it and building its prototypes holds {entry} \
                 (+{PANEL_SLACK} slack): the job left its GEMM panels resident"
            );
        }
    }
    let stats = server.stop();
    assert_eq!(stats.failed, 0);

    // --- Phase 5: a truncated record cannot make the reader allocate its claim
    // A ~60-byte f32 record header claiming 2²⁸ elements (1 GiB of payload)
    // followed by 32 payload bytes. The reader must reject it as truncated
    // having allocated no more than the bytes actually present.
    let mut record = Vec::new();
    record.extend_from_slice(&TENSOR_MAGIC);
    record.extend_from_slice(&TENSOR_VERSION.to_le_bytes());
    record.extend_from_slice(&(Dtype::F32.tag() as u16).to_le_bytes());
    record.extend_from_slice(&1u32.to_le_bytes());
    record.extend_from_slice(&(1u64 << 28).to_le_bytes());
    record.extend_from_slice(&[0x5a; 32]);
    let baseline = reset_peak();
    let result = read_tensor_record(&mut record.as_slice());
    let peak = peak_bytes() - baseline;
    assert!(
        matches!(result, Err(IoError::Format(_))),
        "a truncated 2^28-element record must be a format error"
    );
    assert!(
        peak < 1 << 20,
        "rejecting a {}-byte truncated record peaked {peak} bytes above baseline",
        record.len()
    );

    // --- Phase 6: a complete record of the wrong shape costs only its header
    // A valid f32 network blob whose first state record (a 4×1×3×3 conv
    // kernel) is swapped for a complete, CRC-valid f32 record of shape
    // 1024×1×64×64: 2²² elements, a 16 MiB payload. The loader must
    // compare the stored shape with the slot before reading the payload.
    let mut net = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4)
        .with_width(4)
        .build(&mut StdRng::seed_from_u64(0));
    let mut blob = Vec::new();
    write_network(&mut blob, &mut net).expect("in-memory write");
    let first = blob
        .windows(TENSOR_MAGIC.len())
        .position(|w| w == TENSOR_MAGIC)
        .expect("a state record");
    let mut rest = &blob[first..];
    read_tensor_record(&mut rest).expect("the original first record");
    let mut hostile = blob[..first].to_vec();
    write_tensor(&mut hostile, &Tensor::zeros(&[1024, 1, 64, 64])).expect("in-memory write");
    hostile.extend_from_slice(rest);
    let baseline = reset_peak();
    let result = read_network(&mut hostile.as_slice());
    let peak = peak_bytes() - baseline;
    assert!(
        matches!(result, Err(IoError::Format(_))),
        "a state record of the wrong shape must be a format error"
    );
    assert!(
        peak < 1 << 20,
        "rejecting a 2^22-element state record peaked {peak} bytes above baseline"
    );

    // --- Phase 7: so does a trigger pattern of the wrong shape ------------
    // The fixture bundle ends with its BadNet trigger: a [1, 12, 12]
    // pattern record, then a [12, 12] mask record. Swap the pattern for a
    // complete, CRC-valid f32 record of 2²² elements; the reader must hold
    // it to the model's input shape before reading its payload.
    let record_len = |shape: &[usize]| {
        let mut buf = Vec::new();
        write_tensor(&mut buf, &Tensor::zeros(shape)).expect("in-memory write");
        buf.len()
    };
    let mask_at = bundle.len() - record_len(&[12, 12]);
    let pattern_at = mask_at - record_len(&[1, 12, 12]);
    assert!(
        bundle[pattern_at..].starts_with(&TENSOR_MAGIC)
            && bundle[mask_at..].starts_with(&TENSOR_MAGIC),
        "the fixture bundle must end with its pattern and mask records"
    );
    let mut hostile = bundle[..pattern_at].to_vec();
    write_tensor(&mut hostile, &Tensor::zeros(&[1024, 1, 64, 64])).expect("in-memory write");
    hostile.extend_from_slice(&bundle[mask_at..]);
    let baseline = reset_peak();
    let result = read_victim_bytes(&hostile);
    let peak = peak_bytes() - baseline;
    assert!(
        matches!(result, Err(IoError::Format(_))),
        "a trigger pattern of the wrong shape must be a format error"
    );
    assert!(
        peak < 1 << 20,
        "rejecting a 2^22-element trigger pattern peaked {peak} bytes above baseline"
    );
}
