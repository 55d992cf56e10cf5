//! Versioned binary persistence for whole networks: a per-layer state
//! dict keyed by layer kind, riding on [`usb_tensor::io`] tensor records.
//!
//! # Design
//!
//! A [`Network`] is fully reconstructible from its [`Architecture`] (kind,
//! input shape, classes, width — the topology) plus the flat sequence of
//! state tensors visited by [`Layer::visit_state`] (parameters and
//! buffers — the weights). The format therefore stores the architecture
//! header followed by a state dict ([`write_state`]): one record per state
//! tensor, each tagged with the kind name of the layer that owns it.
//! Loading checks the header against explicit limits
//! ([`MAX_INPUT_CHANNELS`] and friends), rebuilds the topology via
//! [`Architecture::build`], then walks its state ([`read_state`]),
//! checking each record's kind and shape against the slot before reading
//! the record's payload.
//!
//! Because the payload is the bit-exact `f32` image of every parameter and
//! buffer, a loaded f32 network's forward passes — and therefore any
//! defense verdict computed on it — are **bit-identical** to the
//! original's (`tests/persistence_roundtrip.rs` enforces this). Optimizer
//! state, gradients and tapes live outside the model and are not
//! persisted.
//!
//! Version 2 adds low-precision weight storage: a `u8` weight dtype in the
//! header (a cheap sniff — the per-record dtype tags are authoritative and
//! must agree with it), and GEMM weights may be stored as `f16` or `Q8`
//! records ([`usb_tensor::QTensor`]). Loading such a blob reconstructs a
//! *quantized* network: the payload is installed verbatim on the weight
//! slots and dequantized on the fly at inference; training entry points
//! panic. Non-GEMM state (biases, batch-norm) always stays f32.
//!
//! # Network blob layout (format version 2, little-endian)
//!
//! ```text
//! 4   magic b"USBN"
//! 2   u16 format version (currently 2)
//! 1   u8 model kind (0 BasicCnn, 1 ResNet18, 2 Vgg16, 3 EfficientNetB0)
//! 4   u32 input channels     ┐
//! 4   u32 input height       │ the Architecture the topology is
//! 4   u32 input width        │ rebuilt from
//! 4   u32 num_classes        │
//! 4   u32 width multiplier   ┘
//! 1   u8 weight dtype (0 f32, 1 f16, 2 q8)
//! 4   u32 state-tensor count
//!     per state tensor: kind string (u16 len + UTF-8) + tensor record
//!     (see usb_tensor::io for the tensor record bytes)
//! ```

use crate::layer::{Layer, StateSlot};
use crate::models::{Architecture, ModelKind, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use usb_tensor::io::{
    expect_magic, expect_version, read_str, read_tensor_record_shaped, read_u32, write_qtensor,
    write_str, write_tensor, write_u16, write_u32, IoError, TensorRecord,
};
use usb_tensor::{Dtype, QTensor, Tensor};

/// Magic bytes opening a serialized network.
pub const NETWORK_MAGIC: [u8; 4] = *b"USBN";

/// Current network-blob format version.
pub const NETWORK_VERSION: u16 = 2;

fn model_kind_tag(kind: ModelKind) -> u8 {
    match kind {
        ModelKind::BasicCnn => 0,
        ModelKind::ResNet18 => 1,
        ModelKind::Vgg16 => 2,
        ModelKind::EfficientNetB0 => 3,
    }
}

fn model_kind_from_tag(tag: u8) -> Result<ModelKind, IoError> {
    Ok(match tag {
        0 => ModelKind::BasicCnn,
        1 => ModelKind::ResNet18,
        2 => ModelKind::Vgg16,
        3 => ModelKind::EfficientNetB0,
        other => {
            return Err(IoError::format(format!(
                "unknown model kind tag {other} (this build knows 0..=3)"
            )))
        }
    })
}

/// Largest input channel count a model header may declare.
pub const MAX_INPUT_CHANNELS: usize = 4;
/// Largest input height or width a model header may declare.
pub const MAX_INPUT_SIDE: usize = 128;
/// Largest class count a model header may declare.
pub const MAX_CLASSES: usize = 256;
/// Largest width multiplier (base channel count) a model or IAD-generator
/// header may declare.
pub const MAX_WIDTH: usize = 32;

/// Reads one `u32` size field of a model header and checks it against
/// `1..=max` **before** the caller builds anything from it.
///
/// Every reader of a model header (this module's network blobs, the IAD
/// generator in `usb-attacks` bundles) goes through here, so the limits
/// above bound what a CRC-valid but hostile bundle can make a loader
/// allocate. They cover every architecture this repository builds —
/// inputs up to 3×64×64, widths up to 16, up to 43 classes — with
/// headroom; the largest model they admit (a BasicCnn on 4×128×128 at
/// width 32) has about 28M parameters.
///
/// # Errors
///
/// [`IoError::Format`] naming the field when it is zero or above `max`.
pub fn read_header_field(r: &mut impl Read, field: &str, max: usize) -> Result<usize, IoError> {
    let value = read_u32(r)? as usize;
    if !(1..=max).contains(&value) {
        return Err(IoError::format(format!(
            "model header declares {field} {value}, outside 1..={max}"
        )));
    }
    Ok(value)
}

/// Writes the architecture header fields (everything after magic+version).
fn write_architecture(w: &mut impl Write, arch: Architecture) -> Result<(), IoError> {
    w.write_all(&[model_kind_tag(arch.kind)])?;
    let (c, h, wd) = arch.input;
    write_u32(w, c as u32)?;
    write_u32(w, h as u32)?;
    write_u32(w, wd as u32)?;
    write_u32(w, arch.num_classes as u32)?;
    write_u32(w, arch.width as u32)
}

fn read_architecture(r: &mut impl Read) -> Result<Architecture, IoError> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    let kind = model_kind_from_tag(tag[0])?;
    let c = read_header_field(r, "input channels", MAX_INPUT_CHANNELS)?;
    let h = read_header_field(r, "input height", MAX_INPUT_SIDE)?;
    let w = read_header_field(r, "input width", MAX_INPUT_SIDE)?;
    let classes = read_header_field(r, "class count", MAX_CLASSES)?;
    let width = read_header_field(r, "width multiplier", MAX_WIDTH)?;
    Ok(Architecture::new(kind, (c, h, w), classes).with_width(width))
}

/// Serializes `net` as a self-delimiting network blob, preserving its
/// current weight storage (dense networks write f32 records, quantized
/// networks write their quantized payloads verbatim).
///
/// Takes `&mut` because state visitation hands out mutable slots; the
/// network is not modified.
pub fn write_network(w: &mut impl Write, net: &mut Network) -> Result<(), IoError> {
    let dtype = net.weight_dtype().ok_or_else(|| {
        IoError::format("network has mixed weight dtypes and cannot be serialized")
    })?;
    write_network_dtype(w, net, dtype)
}

/// Serializes `net` with its GEMM weights stored as `dtype`, quantizing
/// dense weights on the fly (the in-memory network is not modified). A
/// network that is *already* quantized can only be written at its own
/// dtype — cross-dtype re-quantization would silently compound rounding
/// error, so it is an error instead.
pub fn write_network_dtype(
    w: &mut impl Write,
    net: &mut Network,
    dtype: Dtype,
) -> Result<(), IoError> {
    let current = net.weight_dtype().ok_or_else(|| {
        IoError::format("network has mixed weight dtypes and cannot be serialized")
    })?;
    if current != Dtype::F32 && current != dtype {
        return Err(IoError::format(format!(
            "network weights are already {current} and cannot be re-quantized to {dtype}"
        )));
    }
    w.write_all(&NETWORK_MAGIC)?;
    write_u16(w, NETWORK_VERSION)?;
    write_architecture(w, net.arch())?;
    w.write_all(&[dtype.tag()])?;
    write_state(w, net, dtype)
}

/// The number of slots [`Layer::visit_state`] visits.
fn state_len(layer: &mut dyn Layer) -> usize {
    let mut count = 0;
    layer.visit_state(&mut |_, _| count += 1);
    count
}

/// Writes `layer`'s state dict: a `u32` slot count, then per
/// [`Layer::visit_state`] slot its layer kind and one tensor record. GEMM
/// weights are stored as `dtype` — a dense one quantized on the fly, a
/// quantized one verbatim — and every other slot as exact f32. `layer` is
/// not modified.
///
/// Network blobs and the IAD generators of `usb-attacks` victim bundles
/// both store their state this way.
pub fn write_state(w: &mut impl Write, layer: &mut dyn Layer, dtype: Dtype) -> Result<(), IoError> {
    write_u32(w, state_len(layer) as u32)?;
    let mut result = Ok(());
    layer.visit_state(&mut |kind, slot| {
        if result.is_ok() {
            result = write_str(w, kind).and_then(|()| match slot {
                StateSlot::Weight { quant: Some(q), .. } => write_qtensor(w, q),
                StateSlot::Weight { dense, .. } if dtype != Dtype::F32 => {
                    write_qtensor(w, &QTensor::quantize(dense, dtype))
                }
                slot => write_tensor(w, slot.dense()),
            });
        }
    });
    result
}

/// Reads a state dict written by [`write_state`] into `layer`, whose
/// topology must match it: the same slot count and, slot by slot, the
/// same layer kind and shape. Each record's kind and shape are checked
/// against its slot **before** the record's payload is read, so a record
/// that does not fit costs no more than its header. GEMM weights must be
/// stored as `dtype` (a quantized payload is installed verbatim and the
/// slot's dense buffer freed); every other slot must be f32.
///
/// # Errors
///
/// [`IoError::Format`] on a count, kind, shape or dtype mismatch, or a
/// corrupt record. `layer` may then be partly overwritten.
pub fn read_state(r: &mut impl Read, layer: &mut dyn Layer, dtype: Dtype) -> Result<(), IoError> {
    let count = read_u32(r)? as usize;
    let expected = state_len(layer);
    if count != expected {
        return Err(IoError::format(format!(
            "{count} state tensors stored but the topology has {expected}"
        )));
    }
    let mut idx = 0usize;
    let mut result = Ok(());
    layer.visit_state(&mut |kind, slot| {
        if result.is_ok() {
            result = read_slot(r, kind, slot, dtype)
                .map_err(|e| IoError::format(format!("state tensor {idx} ({kind}): {e}")));
        }
        idx += 1;
    });
    result
}

/// Reads one state-dict entry into `slot`; see [`read_state`].
fn read_slot(
    r: &mut impl Read,
    kind: &str,
    slot: StateSlot<'_>,
    dtype: Dtype,
) -> Result<(), IoError> {
    let stored = read_str(r)?;
    if stored != kind {
        return Err(IoError::format(format!(
            "stored layer kind {stored:?} but the topology expects {kind:?}"
        )));
    }
    let shape = match &slot {
        StateSlot::Param(t, _) | StateSlot::Stat(t) | StateSlot::Weight { dense: t, .. } => {
            t.shape()
        }
    };
    match (read_tensor_record_shaped(r, shape)?, slot) {
        (TensorRecord::Dense(t), StateSlot::Weight { dense, .. }) if dtype == Dtype::F32 => {
            dense.data_mut().copy_from_slice(t.data())
        }
        (TensorRecord::Quant(q), StateSlot::Weight { dense, quant }) if q.dtype() == dtype => {
            // Free the dense buffer the topology build allocated: the
            // resident saving is the point of a low-precision bundle.
            *dense = Tensor::zeros(&[0]);
            *quant = Some(q);
        }
        (TensorRecord::Dense(t), StateSlot::Param(value, _) | StateSlot::Stat(value)) => {
            value.data_mut().copy_from_slice(t.data())
        }
        (TensorRecord::Quant(_), StateSlot::Param(..) | StateSlot::Stat(_)) => {
            return Err(IoError::format("quantized record on a non-weight slot"))
        }
        (record, StateSlot::Weight { .. }) => {
            let stored = match record {
                TensorRecord::Dense(_) => Dtype::F32,
                TensorRecord::Quant(q) => q.dtype(),
            };
            return Err(IoError::format(format!(
                "{stored} weight record in a {dtype} blob"
            )));
        }
    }
    Ok(())
}

/// Reads a network blob written by [`write_network`], rebuilding the
/// topology from the stored [`Architecture`] and loading every state
/// tensor bit-exactly.
///
/// # Errors
///
/// Returns [`IoError::Format`] on bad magic/version, an unknown model
/// kind, a layer-kind or shape mismatch against the rebuilt topology, or
/// a corrupt tensor record. Never panics on malformed input.
pub fn read_network(r: &mut impl Read) -> Result<Network, IoError> {
    expect_magic(r, &NETWORK_MAGIC, "network blob")?;
    expect_version(r, NETWORK_VERSION, "network blob")?;
    let arch = read_architecture(r)?;
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    let header_dtype = Dtype::from_tag(tag[0]).ok_or_else(|| {
        IoError::format(format!(
            "unknown weight dtype tag {} (this build knows f32/f16/q8)",
            tag[0]
        ))
    })?;
    // The build rng only sets initial weights, which are overwritten below;
    // any seed yields the same topology.
    let mut net = arch.build(&mut StdRng::seed_from_u64(0));
    read_state(r, &mut net, header_dtype)?;
    Ok(net)
}

/// Reads just the weight-dtype byte from a network blob header (magic,
/// version, architecture, dtype) without decoding any tensor records — the
/// cheap sniff `usb_repro inspect`/`serve` use to report bundle precision.
pub fn peek_weight_dtype(r: &mut impl Read) -> Result<Dtype, IoError> {
    expect_magic(r, &NETWORK_MAGIC, "network blob")?;
    expect_version(r, NETWORK_VERSION, "network blob")?;
    let _ = read_architecture(r)?;
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    Dtype::from_tag(tag[0]).ok_or_else(|| {
        IoError::format(format!(
            "unknown weight dtype tag {} (this build knows f32/f16/q8)",
            tag[0]
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Grads, Pass};
    use usb_tensor::{Tape, Tensor, Workspace};

    fn trained_ish(kind: ModelKind, input: (usize, usize, usize)) -> Network {
        let arch = Architecture::new(kind, input, 4).with_width(4);
        let mut net = arch.build(&mut StdRng::seed_from_u64(42));
        // Touch batch-norm running stats so buffers are non-default.
        let x = Tensor::from_fn(&[2, input.0, input.1, input.2], |i| {
            ((i as f32) * 0.1).sin()
        });
        let mut grads = Grads::for_model(&mut net);
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        for _ in 0..3 {
            grads.zero();
            tape.begin();
            let y = net.forward(&x, Pass::Train(&mut tape), &mut ws);
            let _ = net.grad(
                &Tensor::ones(y.shape()),
                &mut tape,
                &mut ws,
                Some(&mut grads),
            );
            grads.commit(&mut net);
        }
        net
    }

    fn roundtrip(kind: ModelKind, input: (usize, usize, usize)) {
        let mut net = trained_ish(kind, input);
        let mut buf = Vec::new();
        write_network(&mut buf, &mut net).unwrap();
        let back = read_network(&mut buf.as_slice()).unwrap();
        assert_eq!(back.arch(), net.arch());
        let x = Tensor::from_fn(&[2, input.0, input.1, input.2], |i| {
            ((i as f32) * 0.2).cos()
        });
        let mut ws = Workspace::new();
        let ya = net.infer(&x, &mut ws);
        let yb = back.infer(&x, &mut ws);
        assert_eq!(
            ya.data(),
            yb.data(),
            "{kind:?}: eval forward must be bit-identical"
        );
    }

    #[test]
    fn basic_cnn_roundtrips() {
        roundtrip(ModelKind::BasicCnn, (1, 12, 12));
    }

    #[test]
    fn resnet18_roundtrips_with_running_stats() {
        roundtrip(ModelKind::ResNet18, (3, 8, 8));
    }

    #[test]
    fn efficientnet_roundtrips() {
        roundtrip(ModelKind::EfficientNetB0, (3, 8, 8));
    }

    #[test]
    fn quantized_blob_roundtrips_bit_exactly_and_is_smaller() {
        let mut net = trained_ish(ModelKind::BasicCnn, (1, 12, 12));
        let mut f32_buf = Vec::new();
        write_network(&mut f32_buf, &mut net).unwrap();

        let mut q8_buf = Vec::new();
        write_network_dtype(&mut q8_buf, &mut net, Dtype::Q8).unwrap();
        assert!(
            q8_buf.len() * 2 < f32_buf.len(),
            "q8 blob {} should be well under half of f32 {}",
            q8_buf.len(),
            f32_buf.len()
        );
        assert_eq!(
            peek_weight_dtype(&mut q8_buf.as_slice()).unwrap(),
            Dtype::Q8
        );
        assert_eq!(
            peek_weight_dtype(&mut f32_buf.as_slice()).unwrap(),
            Dtype::F32
        );

        // A load of the quantized blob must agree bit-exactly with the
        // in-memory quantization of the same network: both run the same
        // dequantized payload through the same kernels.
        let mut back = read_network(&mut q8_buf.as_slice()).unwrap();
        assert_eq!(back.weight_dtype(), Some(Dtype::Q8));
        net.quantize_weights(Dtype::Q8);
        let x = Tensor::from_fn(&[2, 1, 12, 12], |i| ((i as f32) * 0.2).cos());
        let mut ws = Workspace::new();
        let ya = net.infer(&x, &mut ws);
        let yb = back.infer(&x, &mut ws);
        assert_eq!(ya.data(), yb.data());

        // An already-quantized network re-serializes its payload verbatim.
        let mut again = Vec::new();
        write_network(&mut again, &mut back).unwrap();
        assert_eq!(again, q8_buf);
    }

    #[test]
    fn requantizing_across_dtypes_is_an_error() {
        let mut net = trained_ish(ModelKind::BasicCnn, (1, 12, 12));
        net.quantize_weights(Dtype::F16);
        let mut buf = Vec::new();
        let err = write_network_dtype(&mut buf, &mut net, Dtype::Q8).unwrap_err();
        assert!(err.to_string().contains("re-quantized"), "{err}");
    }

    #[test]
    fn header_and_record_dtype_must_agree() {
        let mut net = trained_ish(ModelKind::BasicCnn, (1, 12, 12));
        let mut buf = Vec::new();
        write_network_dtype(&mut buf, &mut net, Dtype::F16).unwrap();
        // Header dtype byte sits right after magic+version+architecture.
        let dtype_at = 4 + 2 + 21;
        assert_eq!(buf[dtype_at], Dtype::F16.tag());
        buf[dtype_at] = Dtype::Q8.tag();
        let err = match read_network(&mut buf.as_slice()) {
            Err(err) => err,
            Ok(_) => panic!("mismatched header dtype decoded successfully"),
        };
        assert!(err.to_string().contains("blob"), "{err}");
        buf[dtype_at] = 9;
        let err = match read_network(&mut buf.as_slice()) {
            Err(err) => err,
            Ok(_) => panic!("unknown dtype tag decoded successfully"),
        };
        assert!(err.to_string().contains("dtype tag"), "{err}");
    }

    #[test]
    fn truncated_blob_is_a_clean_error() {
        let mut net = trained_ish(ModelKind::BasicCnn, (1, 12, 12));
        let mut buf = Vec::new();
        write_network(&mut buf, &mut net).unwrap();
        for len in [0, 3, 6, 10, 24, buf.len() / 2, buf.len() - 1] {
            match read_network(&mut &buf[..len]) {
                Err(err) => assert!(matches!(err, IoError::Format(_)), "len {len}: {err}"),
                Ok(_) => panic!("truncated blob of {len} bytes decoded successfully"),
            }
        }
    }

    #[test]
    fn kind_tag_corruption_is_a_clean_error() {
        let mut net = trained_ish(ModelKind::BasicCnn, (1, 12, 12));
        let mut buf = Vec::new();
        write_network(&mut buf, &mut net).unwrap();
        buf[6] = 200; // model kind tag
        match read_network(&mut buf.as_slice()) {
            Err(err) => assert!(err.to_string().contains("model kind"), "{err}"),
            Ok(_) => panic!("corrupt kind tag decoded successfully"),
        }
    }

    /// Offset of each `u32` architecture field in a network blob, after
    /// magic (4), version (2) and the kind tag (1).
    const FIELDS: [(&str, usize); 5] = [
        ("input channels", 7),
        ("input height", 11),
        ("input width", 15),
        ("class count", 19),
        ("width multiplier", 23),
    ];

    #[test]
    fn oversized_header_fields_are_rejected_before_building() {
        let mut net = trained_ish(ModelKind::BasicCnn, (1, 12, 12));
        let mut buf = Vec::new();
        write_network(&mut buf, &mut net).unwrap();
        for (field, at) in FIELDS {
            for value in [u32::MAX, 0] {
                let mut bad = buf.clone();
                bad[at..at + 4].copy_from_slice(&value.to_le_bytes());
                match read_network(&mut bad.as_slice()) {
                    Err(IoError::Format(msg)) => {
                        assert!(msg.contains(field), "{field} = {value}: {msg}")
                    }
                    Err(err) => panic!("{field} = {value}: not a format error: {err}"),
                    Ok(_) => panic!("{field} = {value} decoded successfully"),
                }
                assert!(peek_weight_dtype(&mut bad.as_slice()).is_err());
            }
        }
    }

    #[test]
    fn header_limits_admit_the_repository_architectures() {
        // The largest shapes the repository builds: ImageNet-subset inputs
        // (3×64×64), GTSRB's 43 classes, width 16.
        for kind in [
            ModelKind::BasicCnn,
            ModelKind::ResNet18,
            ModelKind::Vgg16,
            ModelKind::EfficientNetB0,
        ] {
            let arch = Architecture::new(kind, (3, 64, 64), 43).with_width(16);
            let mut header = Vec::new();
            write_architecture(&mut header, arch).unwrap();
            assert_eq!(read_architecture(&mut header.as_slice()).unwrap(), arch);
        }
        let edge = Architecture::new(
            ModelKind::ResNet18,
            (MAX_INPUT_CHANNELS, MAX_INPUT_SIDE, MAX_INPUT_SIDE),
            MAX_CLASSES,
        )
        .with_width(MAX_WIDTH);
        let mut header = Vec::new();
        write_architecture(&mut header, edge).unwrap();
        assert_eq!(read_architecture(&mut header.as_slice()).unwrap(), edge);
    }
}
