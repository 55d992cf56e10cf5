//! Versioned binary serialization for [`Tensor`] plus the shared little-
//! endian read/write primitives the higher persistence layers
//! (`usb_nn::serde`, `usb_attacks::persist`) are built from.
//!
//! # On-disk tensor record (format version 2)
//!
//! All multi-byte values are **little-endian**; the payload encoding is
//! selected by the dtype tag — `f32` payloads are the tensor's row-major
//! buffer, bit-exact (no quantisation, no compression); `f16`/`q8`
//! payloads are the [`crate::quant`] codecs' byte streams:
//!
//! ```text
//! offset  size        field
//! 0       4           magic b"USBT"
//! 4       2           u16 format version (currently 2)
//! 6       2           u16 dtype tag: 0 f32, 1 f16, 2 q8
//! 8       4           u32 ndim
//! 12      8 * ndim    u64 dims, outermost first
//! ...     varies      payload (f32: 4·numel bytes row-major;
//!                              f16: 2·numel; q8: 36·⌈numel/32⌉)
//! end     4           u32 CRC-32 (IEEE) over bytes [8, end-4)
//! ```
//!
//! Version 1 had a reserved always-zero `u16 flags` field where the dtype
//! tag now lives; an f32 v2 record is therefore byte-identical to its v1
//! twin except for the version field itself. Readers are exact (v1 is
//! rejected), per the PERSISTENCE.md policy.
//!
//! The checksum covers the shape and payload but not the preamble, so a
//! version bump never changes how the checksum is computed. Readers must
//! reject unknown magic, unknown versions, unknown dtype tags, truncated
//! records, and checksum mismatches with a clean [`IoError`] — never a
//! panic. See the repository's `PERSISTENCE.md` for the full format and
//! compatibility policy.
//!
//! # Example
//!
//! ```rust
//! use usb_tensor::{io, Tensor};
//!
//! let t = Tensor::from_vec(vec![1.0, -2.5, 3.25, 0.0], &[2, 2]);
//! let mut buf = Vec::new();
//! io::write_tensor(&mut buf, &t).unwrap();
//! let back = io::read_tensor(&mut buf.as_slice()).unwrap();
//! assert_eq!(back.shape(), t.shape());
//! assert_eq!(back.data(), t.data());
//! ```

use crate::quant::{Dtype, QTensor};
use crate::Tensor;
use std::fmt;
use std::fs;
use std::io::{Read, Write};
use std::path::Path;

/// Magic bytes opening every tensor record.
pub const TENSOR_MAGIC: [u8; 4] = *b"USBT";

/// Current tensor-record format version.
///
/// Version 2 repurposed the reserved v1 flags field as the dtype tag
/// (f32 / f16 / q8); see the module docs for the layout.
pub const TENSOR_VERSION: u16 = 2;

/// Error produced by the persistence layer: either an underlying I/O
/// failure or a malformed/incompatible byte stream.
#[derive(Debug)]
pub enum IoError {
    /// The underlying reader/writer failed.
    Io(std::io::Error),
    /// The bytes do not form a valid record of the expected format/version
    /// (bad magic, unknown version, truncation, checksum mismatch, ...).
    Format(String),
}

impl IoError {
    /// Convenience constructor for format violations.
    pub fn format(msg: impl Into<String>) -> Self {
        IoError::Format(msg.into())
    }
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Format(msg) => write!(f, "format error: {msg}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Format(_) => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        // Unexpected EOF while decoding is a truncation, i.e. a format
        // violation of the record, not an environment failure.
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            IoError::Format("unexpected end of data (truncated record)".to_owned())
        } else {
            IoError::Io(e)
        }
    }
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320)
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// Incremental CRC-32 (IEEE) accumulator used to checksum records as they
/// stream through a writer or reader.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            let idx = ((self.state ^ b as u32) & 0xFF) as usize;
            self.state = CRC32_TABLE[idx] ^ (self.state >> 8);
        }
    }

    /// Finalises and returns the checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 (IEEE) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// FNV-1a 64-bit hash — the workspace's cheap content hash for fixture
/// cache keys (config + seed fingerprints). Not cryptographic.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Little-endian scalar + string primitives
// ---------------------------------------------------------------------

/// Writes a `u16` little-endian.
pub fn write_u16(w: &mut impl Write, v: u16) -> Result<(), IoError> {
    w.write_all(&v.to_le_bytes()).map_err(IoError::from)
}

/// Writes a `u32` little-endian.
pub fn write_u32(w: &mut impl Write, v: u32) -> Result<(), IoError> {
    w.write_all(&v.to_le_bytes()).map_err(IoError::from)
}

/// Writes a `u64` little-endian.
pub fn write_u64(w: &mut impl Write, v: u64) -> Result<(), IoError> {
    w.write_all(&v.to_le_bytes()).map_err(IoError::from)
}

/// Writes an `f32` as its little-endian IEEE-754 bits (bit-exact).
pub fn write_f32(w: &mut impl Write, v: f32) -> Result<(), IoError> {
    w.write_all(&v.to_le_bytes()).map_err(IoError::from)
}

/// Writes an `f64` as its little-endian IEEE-754 bits (bit-exact).
pub fn write_f64(w: &mut impl Write, v: f64) -> Result<(), IoError> {
    w.write_all(&v.to_le_bytes()).map_err(IoError::from)
}

/// Writes a UTF-8 string as `u16` byte length + bytes.
///
/// # Errors
///
/// Returns [`IoError::Format`] if the string exceeds 65535 bytes.
pub fn write_str(w: &mut impl Write, s: &str) -> Result<(), IoError> {
    let len: u16 = s
        .len()
        .try_into()
        .map_err(|_| IoError::format(format!("string too long to serialize: {} bytes", s.len())))?;
    write_u16(w, len)?;
    w.write_all(s.as_bytes()).map_err(IoError::from)
}

/// Reads a `u16` little-endian.
pub fn read_u16(r: &mut impl Read) -> Result<u16, IoError> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

/// Reads a `u32` little-endian.
pub fn read_u32(r: &mut impl Read) -> Result<u32, IoError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Reads a `u64` little-endian.
pub fn read_u64(r: &mut impl Read) -> Result<u64, IoError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Reads an `f32` from little-endian IEEE-754 bits.
pub fn read_f32(r: &mut impl Read) -> Result<f32, IoError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(f32::from_le_bytes(b))
}

/// Reads an `f64` from little-endian IEEE-754 bits.
pub fn read_f64(r: &mut impl Read) -> Result<f64, IoError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

/// Reads a `u16`-length-prefixed UTF-8 string.
///
/// # Errors
///
/// Returns [`IoError::Format`] on truncation or invalid UTF-8.
pub fn read_str(r: &mut impl Read) -> Result<String, IoError> {
    let len = read_u16(r)? as usize;
    let mut bytes = vec![0u8; len];
    r.read_exact(&mut bytes)?;
    String::from_utf8(bytes).map_err(|_| IoError::format("string is not valid UTF-8"))
}

/// Reads and checks a 4-byte magic; `what` names the record kind in the
/// error message.
pub fn expect_magic(r: &mut impl Read, magic: &[u8; 4], what: &str) -> Result<(), IoError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    if &b != magic {
        return Err(IoError::format(format!(
            "bad magic for {what}: expected {:?}, found {:?}",
            String::from_utf8_lossy(magic),
            String::from_utf8_lossy(&b)
        )));
    }
    Ok(())
}

/// Reads and checks a version field; `what` names the record kind.
pub fn expect_version(r: &mut impl Read, supported: u16, what: &str) -> Result<(), IoError> {
    let v = read_u16(r)?;
    if v != supported {
        return Err(IoError::format(format!(
            "unsupported {what} format version {v} (this build reads version {supported})"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Tensor records
// ---------------------------------------------------------------------

/// One decoded tensor record: dense f32 or quantized, by the dtype tag.
#[derive(Debug, Clone)]
pub enum TensorRecord {
    /// A bit-exact f32 record (dtype tag 0).
    Dense(Tensor),
    /// A quantized record (dtype tag 1 or 2), payload kept encoded.
    Quant(QTensor),
}

/// Writes `t` as one self-delimiting dense (f32) tensor record (see
/// module docs for the byte layout).
pub fn write_tensor(w: &mut impl Write, t: &Tensor) -> Result<(), IoError> {
    w.write_all(&TENSOR_MAGIC)?;
    write_u16(w, TENSOR_VERSION)?;
    write_u16(w, Dtype::F32.tag() as u16)?;
    let mut crc = Crc32::new();
    let mut emit = |w: &mut dyn Write, bytes: &[u8]| -> Result<(), IoError> {
        crc.update(bytes);
        w.write_all(bytes).map_err(IoError::from)
    };
    emit(w, &(t.ndim() as u32).to_le_bytes())?;
    for &d in t.shape() {
        emit(w, &(d as u64).to_le_bytes())?;
    }
    // Stream the payload through a bounded buffer: one write per 64 KiB
    // chunk rather than a second full copy of the tensor in memory.
    const CHUNK_ELEMS: usize = 16 * 1024;
    let mut buf = Vec::with_capacity(4 * CHUNK_ELEMS.min(t.len()));
    for chunk in t.data().chunks(CHUNK_ELEMS) {
        buf.clear();
        for &v in chunk {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        emit(w, &buf)?;
    }
    write_u32(w, crc.finish())
}

/// Writes a quantized tensor as one self-delimiting record (dtype tag
/// f16 or q8; the payload is the codec's byte stream, verbatim).
pub fn write_qtensor(w: &mut impl Write, q: &QTensor) -> Result<(), IoError> {
    w.write_all(&TENSOR_MAGIC)?;
    write_u16(w, TENSOR_VERSION)?;
    write_u16(w, q.dtype().tag() as u16)?;
    let mut crc = Crc32::new();
    let mut emit = |w: &mut dyn Write, bytes: &[u8]| -> Result<(), IoError> {
        crc.update(bytes);
        w.write_all(bytes).map_err(IoError::from)
    };
    emit(w, &(q.shape().len() as u32).to_le_bytes())?;
    for &d in q.shape() {
        emit(w, &(d as u64).to_le_bytes())?;
    }
    emit(w, q.bytes())?;
    write_u32(w, crc.finish())
}

/// Reads one tensor record of any dtype (dense or quantized).
///
/// # Errors
///
/// Returns [`IoError::Format`] on bad magic, unknown version, unknown
/// dtype tag, truncation, an implausible shape, or checksum mismatch; the
/// reader never panics on malformed input.
pub fn read_tensor_record(r: &mut impl Read) -> Result<TensorRecord, IoError> {
    expect_magic(r, &TENSOR_MAGIC, "tensor record")?;
    expect_version(r, TENSOR_VERSION, "tensor record")?;
    let tag = read_u16(r)?;
    let dtype = u8::try_from(tag)
        .ok()
        .and_then(Dtype::from_tag)
        .ok_or_else(|| IoError::format(format!("tensor record has unknown dtype tag {tag}")))?;
    let mut crc = Crc32::new();
    let ndim_bytes = {
        let mut b = [0u8; 4];
        r.read_exact(&mut b)?;
        b
    };
    crc.update(&ndim_bytes);
    let ndim = u32::from_le_bytes(ndim_bytes) as usize;
    if ndim > 8 {
        return Err(IoError::format(format!(
            "tensor rank {ndim} exceeds the supported maximum of 8"
        )));
    }
    let mut shape = Vec::with_capacity(ndim);
    let mut numel: u64 = 1;
    for _ in 0..ndim {
        let mut b = [0u8; 8];
        r.read_exact(&mut b)?;
        crc.update(&b);
        let d = u64::from_le_bytes(b);
        numel = numel.saturating_mul(d);
        shape.push(d as usize);
    }
    // 1 GiB of f32s is far beyond any model in this workspace; treat larger
    // claims as corruption rather than attempting the allocation.
    if numel > (1 << 28) {
        return Err(IoError::format(format!(
            "tensor claims {numel} elements — rejecting as corrupt"
        )));
    }
    // Grow the buffer with the bytes actually read, doubling from 64 KiB,
    // so a record claiming more payload than the stream holds fails on a
    // short read having allocated about what was there, never its claim.
    // Records of up to 64 KiB still get one zeroed allocation of their
    // exact size: reading them into `Vec::with_capacity` instead measured
    // 14 MB more peak RSS on the `serve-churn` benchmark (glibc).
    let len = dtype.encoded_len(numel as usize);
    let mut payload = vec![0u8; len.min(64 << 10)];
    r.read_exact(&mut payload)?;
    while payload.len() < len {
        let start = payload.len();
        payload.resize(len.min(2 * start), 0);
        r.read_exact(&mut payload[start..])?;
    }
    crc.update(&payload);
    let stored = read_u32(r)?;
    let computed = crc.finish();
    if stored != computed {
        return Err(IoError::format(format!(
            "tensor checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
        )));
    }
    match dtype {
        Dtype::F32 => {
            let data: Vec<f32> = payload
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            Tensor::try_from_vec(data, &shape)
                .map(TensorRecord::Dense)
                .map_err(|e| IoError::format(format!("tensor record inconsistent: {e}")))
        }
        _ => {
            payload.shrink_to_fit(); // a resident weight keeps this buffer
            QTensor::from_bytes(dtype, &shape, payload)
                .map(TensorRecord::Quant)
                .map_err(|e| IoError::format(format!("tensor record inconsistent: {e}")))
        }
    }
}

/// Reads one **dense f32** tensor record written by [`write_tensor`].
///
/// Records whose payload the caller expects to be exact — triggers, IAD
/// generator state, batch-norm buffers — go through this; a quantized
/// record where an f32 one is required is a format error, not a silent
/// dequantization.
///
/// # Errors
///
/// Same contract as [`read_tensor_record`], plus [`IoError::Format`] when
/// the record is quantized.
pub fn read_tensor(r: &mut impl Read) -> Result<Tensor, IoError> {
    match read_tensor_record(r)? {
        TensorRecord::Dense(t) => Ok(t),
        TensorRecord::Quant(q) => Err(IoError::format(format!(
            "expected an f32 tensor record, found {}",
            q.dtype()
        ))),
    }
}

/// Saves one tensor to `path` (creating parent directories).
pub fn save_tensor(path: &Path, t: &Tensor) -> Result<(), IoError> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut f = fs::File::create(path)?;
    write_tensor(&mut f, t)
}

/// Loads one tensor from `path`.
pub fn load_tensor(path: &Path) -> Result<Tensor, IoError> {
    let mut f = fs::File::open(path)?;
    let t = read_tensor(&mut f)?;
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tensor {
        Tensor::from_fn(&[2, 3, 4], |i| ((i as f32) * 0.37 - 2.0).sin() * 7.5)
    }

    /// A tensor whose payload spans several of the reader's growth steps.
    fn large_sample() -> Tensor {
        Tensor::from_fn(&[3, 40_000], |i| ((i as f32) * 0.011).cos())
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        for t in [sample(), large_sample()] {
            let mut buf = Vec::new();
            write_tensor(&mut buf, &t).unwrap();
            let back = read_tensor(&mut buf.as_slice()).unwrap();
            assert_eq!(back.shape(), t.shape());
            for (a, b) in back.data().iter().zip(t.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn roundtrip_preserves_special_values() {
        let t = Tensor::from_vec(
            vec![
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                -0.0,
                f32::MIN_POSITIVE,
            ],
            &[5],
        );
        let mut buf = Vec::new();
        write_tensor(&mut buf, &t).unwrap();
        let back = read_tensor(&mut buf.as_slice()).unwrap();
        for (a, b) in back.data().iter().zip(t.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn bad_magic_is_a_clean_error() {
        let mut buf = Vec::new();
        write_tensor(&mut buf, &sample()).unwrap();
        buf[0] = b'X';
        let err = read_tensor(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, IoError::Format(_)), "{err}");
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn unknown_version_is_a_clean_error() {
        let mut buf = Vec::new();
        write_tensor(&mut buf, &sample()).unwrap();
        buf[4] = 0xFF;
        buf[5] = 0xFF;
        let err = read_tensor(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn truncation_is_a_clean_error_at_every_length() {
        let mut buf = Vec::new();
        write_tensor(&mut buf, &sample()).unwrap();
        for len in 0..buf.len() {
            let err = read_tensor(&mut &buf[..len]).unwrap_err();
            assert!(matches!(err, IoError::Format(_)), "len {len}: {err}");
        }
        // Cuts inside the second and the last growth step of a large record.
        let mut buf = Vec::new();
        write_tensor(&mut buf, &large_sample()).unwrap();
        for len in [100_000, buf.len() - 5] {
            let err = read_tensor(&mut &buf[..len]).unwrap_err();
            assert!(matches!(err, IoError::Format(_)), "len {len}: {err}");
        }
    }

    #[test]
    fn payload_corruption_fails_the_checksum() {
        let mut buf = Vec::new();
        write_tensor(&mut buf, &sample()).unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        let err = read_tensor(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn implausible_shape_is_rejected_without_allocation() {
        // magic + version + flags + ndim=1 + dim=u64::MAX.
        let mut buf = Vec::new();
        buf.extend_from_slice(&TENSOR_MAGIC);
        buf.extend_from_slice(&TENSOR_VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = read_tensor(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("rejecting"), "{err}");
    }

    #[test]
    fn quantized_records_roundtrip_their_encoded_bytes() {
        use crate::quant::Dtype;
        let t = sample();
        for dtype in [Dtype::F16, Dtype::Q8] {
            let q = QTensor::quantize(&t, dtype);
            let mut buf = Vec::new();
            write_qtensor(&mut buf, &q).unwrap();
            let TensorRecord::Quant(back) = read_tensor_record(&mut buf.as_slice()).unwrap() else {
                panic!("{dtype} record decoded as dense");
            };
            assert_eq!(back.dtype(), dtype);
            assert_eq!(back.shape(), q.shape());
            assert_eq!(back.bytes(), q.bytes(), "payload must survive verbatim");
        }
    }

    #[test]
    fn dense_records_decode_through_the_record_reader_too() {
        let t = sample();
        let mut buf = Vec::new();
        write_tensor(&mut buf, &t).unwrap();
        let TensorRecord::Dense(back) = read_tensor_record(&mut buf.as_slice()).unwrap() else {
            panic!("f32 record decoded as quantized");
        };
        assert_eq!(back.data(), t.data());
    }

    #[test]
    fn unknown_dtype_tag_is_a_clean_error() {
        let mut buf = Vec::new();
        write_tensor(&mut buf, &sample()).unwrap();
        buf[6] = 9; // dtype tag bytes live where the v1 flags did
        let err = read_tensor_record(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("dtype"), "{err}");
    }

    #[test]
    fn f32_strict_reader_rejects_quantized_records() {
        use crate::quant::Dtype;
        let q = QTensor::quantize(&sample(), Dtype::F16);
        let mut buf = Vec::new();
        write_qtensor(&mut buf, &q).unwrap();
        let err = read_tensor(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("expected an f32"), "{err}");
    }

    #[test]
    fn quantized_payload_corruption_fails_the_checksum() {
        use crate::quant::Dtype;
        let q = QTensor::quantize(&sample(), Dtype::Q8);
        let mut buf = Vec::new();
        write_qtensor(&mut buf, &q).unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        let err = read_tensor_record(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn quantized_truncation_is_a_clean_error_at_every_length() {
        use crate::quant::Dtype;
        let q = QTensor::quantize(&sample(), Dtype::Q8);
        let mut buf = Vec::new();
        write_qtensor(&mut buf, &q).unwrap();
        for len in 0..buf.len() {
            let err = read_tensor_record(&mut &buf[..len]).unwrap_err();
            assert!(matches!(err, IoError::Format(_)), "len {len}: {err}");
        }
    }

    #[test]
    fn file_helpers_roundtrip() {
        let dir = std::env::temp_dir().join("usb_io_test");
        let path = dir.join("t.usbt");
        let t = sample();
        save_tensor(&path, &t).unwrap();
        let back = load_tensor(&path).unwrap();
        assert_eq!(back.data(), t.data());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn scalar_primitives_roundtrip() {
        let mut buf = Vec::new();
        write_u16(&mut buf, 0xBEEF).unwrap();
        write_u32(&mut buf, 0xDEAD_BEEF).unwrap();
        write_u64(&mut buf, u64::MAX - 7).unwrap();
        write_f32(&mut buf, -0.0).unwrap();
        write_f64(&mut buf, std::f64::consts::PI).unwrap();
        write_str(&mut buf, "conv2d").unwrap();
        let r = &mut buf.as_slice();
        assert_eq!(read_u16(r).unwrap(), 0xBEEF);
        assert_eq!(read_u32(r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(read_u64(r).unwrap(), u64::MAX - 7);
        assert_eq!(read_f32(r).unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(read_f64(r).unwrap(), std::f64::consts::PI);
        assert_eq!(read_str(r).unwrap(), "conv2d");
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }
}
