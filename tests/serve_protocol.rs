//! Protocol fault injection against a live daemon: every malformed input
//! the wire can carry — bit flips, truncation at every prefix length,
//! oversized length headers, mid-message disconnects — must produce a
//! clean per-connection error (an error frame when the socket is still
//! writable, a plain close otherwise) and must never panic a worker or
//! wedge the daemon. After every barrage the daemon still answers a
//! well-formed submission on a fresh connection.
//!
//! The codec-level versions of these properties live in
//! `usb_eval::serve::proto`'s unit tests; this suite drives the real
//! accept/reader/scheduler threads through real sockets.

mod serve_util;

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;
use universal_soldier::data::SyntheticSpec;
use universal_soldier::eval::serve::proto::{
    frame_to_bytes, read_frame, Frame, SubmitRequest, WireClass, WireVerdict, MAX_PAYLOAD,
};
use universal_soldier::eval::serve::{Client, ClientError, ServeConfig, Server, SubmitOptions};
use universal_soldier::tensor::io::Crc32;

/// Generous bound on how long the daemon may take to drop a poisoned
/// connection; hitting it means the daemon wedged, which is the failure
/// this suite exists to catch.
const DEADLINE: Duration = Duration::from_secs(30);

fn start_server() -> Server {
    let config = ServeConfig {
        workers: 2,
        max_pending: 8,
        cache_bytes: 64 << 20,
    };
    Server::start(("127.0.0.1", 0), config).expect("binding a loopback daemon")
}

/// A submit frame whose *framing* is valid but whose bundle payload is
/// junk — the right raw material for corruption tests (small, and even
/// delivered intact it only ever produces a polite error frame).
fn junk_submit_frame() -> Vec<u8> {
    frame_to_bytes(&Frame::Submit(SubmitRequest {
        tag: 7,
        seed: 3,
        subset: 8,
        workers: 1,
        fast: true,
        bundle: b"not a victim bundle".to_vec(),
    }))
    .expect("encoding a submit frame")
}

/// Reads until the server closes the connection, panicking if it takes
/// longer than [`DEADLINE`] — a wedged daemon turns into a test failure,
/// not a hang.
fn drain_until_close(stream: &mut TcpStream) -> Vec<u8> {
    stream
        .set_read_timeout(Some(DEADLINE))
        .expect("setting a read timeout");
    let mut drained = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return drained,
            Ok(n) => drained.extend_from_slice(&buf[..n]),
            // A reset is a close too: the server tore the connection down
            // with bytes of ours still unread (it rejected the frame
            // before consuming all of it), so the kernel answers RST
            // instead of FIN. What this helper guards against is a
            // *wedge*, which surfaces as the read timing out.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::ConnectionAborted
                ) =>
            {
                return drained;
            }
            Err(e) => panic!("daemon neither answered nor closed the connection: {e}"),
        }
    }
}

/// A full, well-formed request must still round-trip — the daemon
/// survived whatever the test threw at it.
fn assert_daemon_still_serves(addr: SocketAddr, bundle: &[u8]) {
    let mut client = Client::connect(addr).expect("connecting after the fault barrage");
    client
        .set_read_timeout(Some(Duration::from_secs(600)))
        .expect("setting a read timeout");
    client.ping().expect("daemon must still answer pings");
    let opts = SubmitOptions {
        tag: 99,
        seed: 17,
        subset: 32,
        workers: 2,
        fast: true,
    };
    let verdict = client
        .inspect(bundle, &opts, |_| {})
        .expect("daemon must still inspect after surviving malformed input");
    assert_eq!(
        verdict.per_class.len(),
        4,
        "the fixture victim has 4 classes"
    );
}

#[test]
fn single_byte_corruption_at_every_position_is_survived() {
    let server = start_server();
    let addr = server.local_addr();
    let frame = junk_submit_frame();

    for i in 0..frame.len() {
        let mut corrupt = frame.clone();
        corrupt[i] ^= 0x40;
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&corrupt).expect("write corrupted frame");
        let _ = stream.shutdown(Shutdown::Write);
        // Clean outcome: maybe an error frame, then a close. Never a hang.
        drain_until_close(&mut stream);
    }

    let bundle = serve_util::bundle_bytes(serve_util::FIXTURE_DATA_SEED);
    assert_daemon_still_serves(addr, &bundle);
    let stats = server.stop();
    assert!(
        stats.protocol_errors >= frame.len() as u64,
        "every corrupted frame must be counted as a protocol error \
         (got {} for {} frames)",
        stats.protocol_errors,
        frame.len()
    );
}

#[test]
fn truncation_at_every_prefix_length_is_survived() {
    let server = start_server();
    let addr = server.local_addr();
    let frame = junk_submit_frame();

    for len in 0..frame.len() {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&frame[..len]).expect("write prefix");
        let _ = stream.shutdown(Shutdown::Write);
        drain_until_close(&mut stream);
    }

    let bundle = serve_util::bundle_bytes(serve_util::FIXTURE_DATA_SEED);
    assert_daemon_still_serves(addr, &bundle);
    drop(server);
}

#[test]
fn oversized_length_header_is_rejected() {
    let server = start_server();
    let addr = server.local_addr();

    // A header promising MAX_PAYLOAD + 1 bytes: must be rejected from the
    // 12-byte header alone (no 64 MiB allocation, no waiting for a
    // payload that will never come).
    let mut header = Vec::new();
    header.extend_from_slice(b"USBP");
    header.extend_from_slice(&1u16.to_le_bytes());
    header.push(0x02);
    header.push(0);
    header.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&header).expect("write oversized header");
    // Note: the write half stays open — rejection must come from the
    // header itself, not from our EOF.
    drain_until_close(&mut stream);

    let bundle = serve_util::bundle_bytes(serve_util::FIXTURE_DATA_SEED);
    assert_daemon_still_serves(addr, &bundle);
    drop(server);
}

#[test]
fn mid_message_disconnects_do_not_disturb_other_clients() {
    let server = start_server();
    let addr = server.local_addr();
    let frame = junk_submit_frame();

    // Several clients vanish mid-frame without so much as a FIN handshake
    // courtesy; each costs the daemon one reader thread, nothing more.
    for cut in [3usize, 11, 13, frame.len() / 2, frame.len() - 1] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(&frame[..cut])
            .expect("write partial frame");
        drop(stream);
    }

    let bundle = serve_util::bundle_bytes(serve_util::FIXTURE_DATA_SEED);
    assert_daemon_still_serves(addr, &bundle);
    drop(server);
}

/// A v2 verdict carrying the full multi-target extension: two flagged
/// classes, a two-element truth set, and per-class confidences.
fn extended_verdict() -> WireVerdict {
    let class = |c: u32, l1: f64, anomaly: f64| WireClass {
        class: c,
        l1_norm: l1,
        anomaly,
        attack_success: 0.95,
        pattern_crc: 0x1000 + c,
        mask_crc: 0x2000 + c,
    };
    WireVerdict {
        job: 7,
        method: "USB".to_owned(),
        per_class: vec![
            class(0, 3.5, 3.4),
            class(1, 13.0, 0.1),
            class(2, 3.7, 3.3),
            class(3, 14.2, 0.4),
        ],
        flagged: vec![0, 2],
        median_l1: 13.6,
        truth_targets: vec![0, 2],
        confidences: vec![3.4, 0.1, 3.3, 0.0],
        agrees: true,
        cache_hit: true,
        seconds: 0.25,
    }
}

/// Recomputes a frame's trailing CRC after an in-place mutation, so the
/// payload bytes — not the checksum — are what the parser judges.
fn fix_crc(bytes: &mut [u8]) {
    let end = bytes.len() - 4;
    let mut crc = Crc32::new();
    crc.update(&bytes[6..end]);
    let digest = crc.finish().to_le_bytes();
    bytes[end..].copy_from_slice(&digest);
}

#[test]
fn extended_verdict_frame_roundtrips_bit_exactly() {
    let frame = Frame::Verdict(extended_verdict());
    let bytes = frame_to_bytes(&frame).expect("encoding the extended verdict");
    let back = read_frame(&mut bytes.as_slice()).expect("decoding the extended verdict");
    assert_eq!(back, frame);
    assert_eq!(
        frame_to_bytes(&back).expect("re-encoding"),
        bytes,
        "the v2 encoding must be canonical"
    );
}

#[test]
fn corruption_over_the_v2_extension_fields_never_panics() {
    // The appended truth set + confidences are the last bytes of the
    // payload. Flip each one — with the CRC patched up so the corruption
    // reaches the parser — and require a clean decode or a clean error,
    // never a panic or a hang.
    let bytes = frame_to_bytes(&Frame::Verdict(extended_verdict())).unwrap();
    // extension = u32 count + 2×u32 targets + u32 count + 4×f64 = 48 bytes,
    // immediately before the 4-byte CRC.
    let ext_start = bytes.len() - 4 - 48;
    for pos in ext_start..bytes.len() - 4 {
        for bit in [0x01u8, 0x40, 0x80] {
            let mut bad = bytes.clone();
            bad[pos] ^= bit;
            fix_crc(&mut bad);
            match read_frame(&mut bad.as_slice()) {
                // Flips in the float payload may still decode (different
                // confidences); structural flips must error cleanly.
                Ok(Frame::Verdict(_)) | Err(_) => {}
                Ok(other) => panic!("flip at {pos} changed the frame kind: {other:?}"),
            }
        }
    }
    // Without the CRC fix-up every flip must die at the checksum.
    let mut bad = bytes.clone();
    bad[ext_start] ^= 0x40;
    assert!(read_frame(&mut bad.as_slice()).is_err());
}

#[test]
fn live_daemon_accepts_v1_frames() {
    // A client speaking protocol v1 (no extension fields) pings the
    // daemon: the hand-built v1 frame must be accepted and answered.
    let server = start_server();
    let addr = server.local_addr();

    let mut v1_ping = Vec::new();
    v1_ping.extend_from_slice(b"USBP");
    v1_ping.extend_from_slice(&1u16.to_le_bytes());
    v1_ping.push(0x01); // Ping
    v1_ping.push(0);
    v1_ping.extend_from_slice(&0u32.to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&v1_ping[6..]);
    v1_ping.extend_from_slice(&crc.finish().to_le_bytes());

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(DEADLINE))
        .expect("setting a read timeout");
    stream.write_all(&v1_ping).expect("write v1 ping");
    let reply = read_frame(&mut stream).expect("daemon must answer a v1 ping");
    assert_eq!(reply, Frame::Pong);
    drop(stream);
    drop(server);
}

#[test]
fn garbage_bundle_payload_gets_an_error_frame_and_the_connection_survives() {
    let server = start_server();
    let addr = server.local_addr();
    let bundle = serve_util::bundle_bytes(serve_util::FIXTURE_DATA_SEED);

    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(600)))
        .expect("setting a read timeout");

    // A perfectly framed submission carrying garbage where the USBV
    // bundle should be: admission accepts it (framing is fine), the
    // scheduler rejects it with an error frame, and — crucially — the
    // connection stays usable.
    let opts = SubmitOptions {
        tag: 1,
        seed: 17,
        subset: 32,
        workers: 1,
        fast: true,
    };
    match client.inspect(b"USBV but not really", &opts, |_| {}) {
        Err(ClientError::Server { tag, message, .. }) => {
            assert_eq!(tag, 1, "the error frame must echo the request tag");
            assert!(
                message.contains("bundle rejected"),
                "unexpected error message: {message}"
            );
        }
        Err(other) => panic!("expected a server error frame, got {other}"),
        Ok(_) => panic!("a garbage bundle cannot produce a verdict"),
    }

    // Same connection, real bundle: the worker did not wedge.
    let opts = SubmitOptions { tag: 2, ..opts };
    let verdict = client
        .inspect(&bundle, &opts, |_| {})
        .expect("the connection must survive a rejected bundle");
    assert_eq!(verdict.per_class.len(), 4);
    let stats = server.stop();
    assert_eq!(stats.failed, 1, "exactly one job failed (the garbage one)");
    assert_eq!(stats.completed, 1, "the real job completed");
}

#[test]
fn implausible_recipe_gets_an_error_frame_and_the_daemon_keeps_serving() {
    let server = start_server();
    let addr = server.local_addr();
    let bundle = serve_util::bundle_bytes(serve_util::FIXTURE_DATA_SEED);
    // CRC-valid bundles whose recipes would empty a sampling range when
    // the scheduler builds their prototypes or draws a clean subset.
    let recipes: [fn(&mut SyntheticSpec); 5] = [
        |s| s.channels = 0,
        |s| s.num_classes = 0,
        |s| s.noise = -0.5,
        |s| s.noise = f32::NAN,
        |s| s.shared_weight = 1.0,
    ];
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(DEADLINE))
        .expect("setting a read timeout");
    for (i, edit) in recipes.into_iter().enumerate() {
        let hostile = serve_util::bundle_bytes_with_recipe(serve_util::FIXTURE_DATA_SEED, edit);
        let opts = SubmitOptions {
            tag: i as u64,
            seed: 17,
            subset: 32,
            workers: 1,
            fast: true,
        };
        match client.inspect(&hostile, &opts, |_| {}) {
            Err(ClientError::Server { tag, message, .. }) => {
                assert_eq!(tag, i as u64, "the error frame must echo the request tag");
                assert!(
                    message.contains("bundle rejected") && message.contains("recipe"),
                    "recipe {i}: unexpected error message: {message}"
                );
            }
            Err(other) => panic!("recipe {i}: expected a server error frame, got {other}"),
            Ok(_) => panic!("recipe {i}: an implausible recipe cannot produce a verdict"),
        }
    }
    assert_daemon_still_serves(addr, &bundle);
    let stats = server.stop();
    assert_eq!(stats.failed, recipes.len() as u64);
    assert_eq!(stats.completed, 1, "the valid request completed");
}

#[test]
fn unbounded_model_header_gets_an_error_frame_and_the_daemon_keeps_serving() {
    let server = start_server();
    let addr = server.local_addr();
    let bundle = serve_util::bundle_bytes(serve_util::FIXTURE_DATA_SEED);
    // The network blob's architecture header: magic, u16 version, u8 kind
    // tag, then five u32 size fields. No checksum covers it, so each edit
    // below is a well-formed bundle declaring a model no loader should
    // try to build.
    let blob = bundle
        .windows(4)
        .position(|w| w == b"USBN")
        .expect("the bundle embeds a network blob");
    let fields = [
        "input channels",
        "input height",
        "input width",
        "class count",
        "width multiplier",
    ];
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(DEADLINE))
        .expect("setting a read timeout");
    for (i, field) in fields.iter().enumerate() {
        let at = blob + 7 + 4 * i;
        let mut hostile = bundle.clone();
        hostile[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let opts = SubmitOptions {
            tag: i as u64,
            seed: 17,
            subset: 32,
            workers: 1,
            fast: true,
        };
        match client.inspect(&hostile, &opts, |_| {}) {
            Err(ClientError::Server { tag, message, .. }) => {
                assert_eq!(tag, i as u64, "the error frame must echo the request tag");
                assert!(
                    message.contains("bundle rejected") && message.contains(field),
                    "{field}: unexpected error message: {message}"
                );
            }
            Err(other) => panic!("{field}: expected a server error frame, got {other}"),
            Ok(_) => panic!("{field}: an unbounded header cannot produce a verdict"),
        }
    }
    assert_daemon_still_serves(addr, &bundle);
    let stats = server.stop();
    assert_eq!(stats.failed, fields.len() as u64);
    assert_eq!(stats.completed, 1, "the valid request completed");
}
