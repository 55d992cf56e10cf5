//! Victim bundles: one self-contained file per trained victim — model,
//! ground truth (each implant's target / trigger / measured ASR), the
//! dataset recipe it was trained on, and the training provenance (seed +
//! config hash).
//!
//! A bundle is everything an inspection needs: `usb-repro inspect <path>`
//! regenerates clean data from the stored [`SyntheticSpec`] + data seed
//! and runs a defense on the loaded model without retraining anything.
//! Because the model payload is bit-exact (see [`usb_nn::serde`]), the
//! verdict on a loaded victim is bit-identical to the verdict on the
//! in-memory one.
//!
//! # Bundle layout (format version 3, little-endian)
//!
//! ```text
//! 4   magic b"USBV"
//! 2   u16 format version (currently 3)
//! 8   u64 training seed
//! 8   u64 config hash (caller-defined fingerprint, see usb_attacks::fixtures)
//!     dataset spec: name str, u32 channels/height/width/classes/train/test,
//!                   f32 noise, f32 shared_weight, u32 jitter
//! 8   u64 dataset generation seed
//!     network blob (usb_nn::serde layout)
//! 8   f64 clean accuracy
//! 1   u8 ground-truth tag (0 clean, 1 one implant, 2 two or more)
//!   if one implant (tag 1):
//!     4   u32 target class
//!     8   f64 measured ASR
//!         attack name str ("badnet" | "latent" | "iad" | "multi-badnet")
//!     1   u8 trigger tag (0 static, 1 dynamic)
//!       static:  pattern tensor record + mask tensor record
//!       dynamic: u32 channels, u32 gen width, f32 epsilon,
//!                u32 state count, per tensor: kind str + tensor record
//!   if two or more implants (tag 2):
//!         attack name str ("multi-badnet")
//!     4   u32 implant count (2 ..= the model's class count)
//!       per implant, in strictly ascending target order:
//!         4   u32 target class
//!         8   f64 measured ASR
//!         1   u8 trigger tag + payload (as above)
//! ```
//!
//! Tags 1 and 2 are two encodings of one in-memory shape,
//! [`GroundTruth::Backdoored`]'s implant list: the writer picks tag 1 for
//! exactly one implant and tag 2 for more, and the reader accepts either
//! only with every implant target below the model's class count (tag 2
//! also in strictly ascending order).
//!
//! Version 2 added ground-truth tag 2; version 3 carries the USBN-v2
//! network blob, whose header gained a weight-dtype byte and whose GEMM
//! weights may be stored as f16 or Q8 records ([`write_victim_dtype`]).
//! Readers are exact (a v2 reader rejects every v3 bundle and vice versa),
//! so the embedded-format change bumped the bundle version per the
//! PERSISTENCE.md policy. Stale fixture files simply miss the cache and
//! retrain.
//!
//! The model payload of an f32 bundle remains bit-exact. A low-precision
//! bundle is smaller on disk and resident (the loaded network keeps the
//! quantized payload and dequantizes on the fly) at the cost of bounded
//! rounding error in the weights; the trigger/ground-truth records always
//! stay f32.
//!
//! Strings and tensor records use the [`usb_tensor::io`] encodings; every
//! tensor carries its own CRC-32, so payload corruption anywhere in the
//! bundle surfaces as a clean [`IoError`].

use crate::iad::IadGenerator;
use crate::trigger::Trigger;
use crate::victim::{BackdoorImplant, GroundTruth, InjectedTrigger, Victim};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::io::{Read, Write};
use std::path::Path;
use usb_data::SyntheticSpec;
use usb_nn::models::Network;
use usb_nn::serde::{
    read_header_field, read_network, read_state, write_network, write_network_dtype, write_state,
    MAX_INPUT_CHANNELS, MAX_WIDTH,
};
use usb_tensor::io::{
    expect_magic, expect_version, read_f32, read_f64, read_str, read_tensor_record_shaped,
    read_u32, read_u64, write_f32, write_f64, write_str, write_tensor, write_u16, write_u32,
    write_u64, IoError,
};
use usb_tensor::Dtype;

/// Magic bytes opening a victim bundle.
pub const VICTIM_MAGIC: [u8; 4] = *b"USBV";

/// Current victim-bundle format version.
pub const VICTIM_VERSION: u16 = 3;

/// A victim plus the provenance needed to reproduce or re-inspect it.
pub struct VictimBundle {
    /// The trained victim (model + ground truth).
    pub victim: Victim,
    /// Seed the training run was derived from.
    pub train_seed: u64,
    /// Caller-defined fingerprint of the full training configuration
    /// (attack, architecture, train config); fixture caching uses it to
    /// detect stale files. See [`crate::fixtures::FixtureSpec::with_config`].
    pub config_hash: u64,
    /// Recipe of the dataset the victim was trained on.
    pub data_spec: SyntheticSpec,
    /// Seed the dataset was generated from — together with `data_spec`
    /// this regenerates clean inspection data without shipping images.
    pub data_seed: u64,
}

fn write_spec(w: &mut impl Write, spec: &SyntheticSpec) -> Result<(), IoError> {
    write_str(w, &spec.name)?;
    write_u32(w, spec.channels as u32)?;
    write_u32(w, spec.height as u32)?;
    write_u32(w, spec.width as u32)?;
    write_u32(w, spec.num_classes as u32)?;
    write_u32(w, spec.train_size as u32)?;
    write_u32(w, spec.test_size as u32)?;
    write_f32(w, spec.noise)?;
    write_f32(w, spec.shared_weight)?;
    write_u32(w, spec.jitter as u32)
}

fn read_spec(r: &mut impl Read) -> Result<SyntheticSpec, IoError> {
    Ok(SyntheticSpec {
        name: read_str(r)?,
        channels: read_u32(r)? as usize,
        height: read_u32(r)? as usize,
        width: read_u32(r)? as usize,
        num_classes: read_u32(r)? as usize,
        train_size: read_u32(r)? as usize,
        test_size: read_u32(r)? as usize,
        noise: read_f32(r)?,
        shared_weight: read_f32(r)?,
        jitter: read_u32(r)? as usize,
    })
}

/// The recipe checks that need no model: every later draw from the recipe
/// ([`SyntheticSpec::prototypes`], `clean_subset`) samples uniform ranges
/// over the class count and the noise level, which must not be empty.
fn check_recipe(spec: &SyntheticSpec) -> Result<(), IoError> {
    if spec.num_classes < 2 {
        return Err(IoError::format(format!(
            "dataset recipe declares {} classes (want at least 2)",
            spec.num_classes
        )));
    }
    if !(spec.noise.is_finite() && spec.noise >= 0.0) {
        return Err(IoError::format(format!(
            "dataset recipe noise {} is not a finite level >= 0",
            spec.noise
        )));
    }
    if !(spec.shared_weight.is_finite() && (0.0..1.0).contains(&spec.shared_weight)) {
        return Err(IoError::format(format!(
            "dataset recipe shared weight {} is outside [0, 1)",
            spec.shared_weight
        )));
    }
    Ok(())
}

/// The recipe must describe the model's own inputs and classes: inspection
/// feeds the model images drawn from it.
fn check_recipe_fits(spec: &SyntheticSpec, model: &Network) -> Result<(), IoError> {
    let declared = (spec.channels, spec.height, spec.width);
    if declared != model.input_shape() {
        return Err(IoError::format(format!(
            "dataset recipe images {declared:?} do not match the model input {:?}",
            model.input_shape()
        )));
    }
    if spec.num_classes != model.num_classes() {
        return Err(IoError::format(format!(
            "dataset recipe declares {} classes, the model has {}",
            spec.num_classes,
            model.num_classes()
        )));
    }
    Ok(())
}

fn attack_static_name(name: &str) -> Result<&'static str, IoError> {
    Ok(match name {
        "badnet" => "badnet",
        "latent" => "latent",
        "iad" => "iad",
        "multi-badnet" => "multi-badnet",
        other => {
            return Err(IoError::format(format!(
                "unknown attack family {other:?} in victim bundle"
            )))
        }
    })
}

fn write_generator(w: &mut impl Write, gen: &mut IadGenerator) -> Result<(), IoError> {
    write_u32(w, gen.channels() as u32)?;
    write_u32(w, gen.width() as u32)?;
    write_f32(w, gen.epsilon())?;
    write_state(w, gen.net_mut(), Dtype::F32)
}

/// Reads an IAD generator that must stamp `channels`-channel images.
fn read_generator(r: &mut impl Read, channels: usize) -> Result<IadGenerator, IoError> {
    let stored = read_header_field(r, "IAD generator channels", MAX_INPUT_CHANNELS)?;
    if stored != channels {
        return Err(IoError::format(format!(
            "IAD generator channels {stored} do not match the model input's {channels}"
        )));
    }
    let width = read_header_field(r, "IAD generator width", MAX_WIDTH)?;
    let epsilon = read_f32(r)?;
    if !(epsilon > 0.0 && epsilon <= 1.0) {
        return Err(IoError::format(format!(
            "IAD generator header is implausible: epsilon {epsilon}"
        )));
    }
    let mut gen = IadGenerator::new(channels, width, epsilon, &mut StdRng::seed_from_u64(0));
    read_state(r, gen.net_mut(), Dtype::F32)?;
    Ok(gen)
}

fn write_trigger(w: &mut impl Write, trigger: &mut InjectedTrigger) -> Result<(), IoError> {
    match trigger {
        InjectedTrigger::Static(t) => {
            w.write_all(&[0u8])?;
            write_tensor(w, t.pattern())?;
            write_tensor(w, t.mask())
        }
        InjectedTrigger::Dynamic(g) => {
            w.write_all(&[1u8])?;
            write_generator(w, g)
        }
    }
}

/// Reads a trigger for a model with input `(c, h, w)`. Stamping needs a
/// `[c, h, w]` pattern and an `[h, w]` mask, so each record is held to its
/// shape before its payload is read (PERSISTENCE.md, "Model header
/// limits").
fn read_trigger(
    r: &mut impl Read,
    (c, h, w): (usize, usize, usize),
) -> Result<InjectedTrigger, IoError> {
    let mut ttag = [0u8; 1];
    r.read_exact(&mut ttag)?;
    match ttag[0] {
        0 => {
            let pattern = read_tensor_record_shaped(r, &[c, h, w])?.into_dense()?;
            let mask = read_tensor_record_shaped(r, &[h, w])?.into_dense()?;
            Ok(InjectedTrigger::Static(Trigger::new(pattern, mask)))
        }
        1 => Ok(InjectedTrigger::Dynamic(read_generator(r, c)?)),
        other => Err(IoError::format(format!("unknown trigger tag {other}"))),
    }
}

/// Serializes a victim bundle, preserving the model's current weight
/// storage (an f32 model writes f32 records, a quantized model writes its
/// payload verbatim).
///
/// Takes `&mut` because network state visitation shares the mutable
/// parameter plumbing; nothing is modified.
pub fn write_victim(w: &mut impl Write, bundle: &mut VictimBundle) -> Result<(), IoError> {
    write_victim_inner(w, bundle, None)
}

/// Serializes a victim bundle with the model's GEMM weights stored as
/// `dtype`, quantizing on the fly (the in-memory model is unchanged). See
/// [`usb_nn::serde::write_network_dtype`] for the re-quantization rules.
pub fn write_victim_dtype(
    w: &mut impl Write,
    bundle: &mut VictimBundle,
    dtype: Dtype,
) -> Result<(), IoError> {
    write_victim_inner(w, bundle, Some(dtype))
}

fn write_victim_inner(
    w: &mut impl Write,
    bundle: &mut VictimBundle,
    dtype: Option<Dtype>,
) -> Result<(), IoError> {
    w.write_all(&VICTIM_MAGIC)?;
    write_u16(w, VICTIM_VERSION)?;
    write_u64(w, bundle.train_seed)?;
    write_u64(w, bundle.config_hash)?;
    write_spec(w, &bundle.data_spec)?;
    write_u64(w, bundle.data_seed)?;
    match dtype {
        None => write_network(w, &mut bundle.victim.model)?,
        Some(d) => write_network_dtype(w, &mut bundle.victim.model, d)?,
    }
    write_f64(w, bundle.victim.clean_accuracy)?;
    match &mut bundle.victim.ground_truth {
        GroundTruth::Clean => w.write_all(&[0u8]).map_err(IoError::from),
        // One implant is written in tag 1's layout, which has no count and
        // puts the attack name after the implant's target and ASR.
        GroundTruth::Backdoored { attack, implants } => {
            if let [implant] = implants.as_mut_slice() {
                w.write_all(&[1u8])?;
                write_u32(w, implant.target as u32)?;
                write_f64(w, implant.asr)?;
                write_str(w, attack)?;
                return write_trigger(w, &mut implant.trigger);
            }
            w.write_all(&[2u8])?;
            write_str(w, attack)?;
            write_u32(w, implants.len() as u32)?;
            for implant in implants {
                write_u32(w, implant.target as u32)?;
                write_f64(w, implant.asr)?;
                write_trigger(w, &mut implant.trigger)?;
            }
            Ok(())
        }
    }
}

/// The ground truth of a backdoored model with `classes` outputs, once its
/// implant list is known to be what [`GroundTruth::Backdoored`] promises:
/// non-empty, in strictly ascending target order, every target a class of
/// the model.
fn backdoored(
    attack: &'static str,
    implants: Vec<BackdoorImplant>,
    classes: usize,
) -> Result<GroundTruth, IoError> {
    if implants.is_empty() {
        return Err(IoError::format("backdoored victim has no implants"));
    }
    if implants.windows(2).any(|w| w[0].target >= w[1].target) {
        return Err(IoError::format(
            "backdoor implants are not in strictly ascending target order",
        ));
    }
    if let Some(i) = implants.iter().find(|i| i.target >= classes) {
        return Err(IoError::format(format!(
            "backdoor target {} is out of range for a {classes}-class model",
            i.target
        )));
    }
    Ok(GroundTruth::Backdoored { attack, implants })
}

/// Reads a victim bundle written by [`write_victim`].
///
/// # Errors
///
/// Returns [`IoError::Format`] on bad magic/version, corruption
/// (checksums), truncation, any record inconsistent with the topology
/// it describes, a dataset recipe that cannot serve the model (see
/// PERSISTENCE.md's recipe rules), or a ground truth naming a class the
/// model does not have. Never panics on malformed input.
pub fn read_victim(r: &mut impl Read) -> Result<VictimBundle, IoError> {
    expect_magic(r, &VICTIM_MAGIC, "victim bundle")?;
    expect_version(r, VICTIM_VERSION, "victim bundle")?;
    let train_seed = read_u64(r)?;
    let config_hash = read_u64(r)?;
    let data_spec = read_spec(r)?;
    check_recipe(&data_spec)?;
    let data_seed = read_u64(r)?;
    let model = read_network(r)?;
    check_recipe_fits(&data_spec, &model)?;
    let clean_accuracy = read_f64(r)?;
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    let shape = model.input_shape();
    let ground_truth = match tag[0] {
        0 => GroundTruth::Clean,
        1 => {
            let target = read_u32(r)? as usize;
            let asr = read_f64(r)?;
            let attack = attack_static_name(&read_str(r)?)?;
            let trigger = read_trigger(r, shape)?;
            let implant = BackdoorImplant {
                target,
                asr,
                trigger,
            };
            backdoored(attack, vec![implant], model.num_classes())?
        }
        2 => {
            let attack = attack_static_name(&read_str(r)?)?;
            // Distinct targets below the class count bound the count.
            let count = read_u32(r)? as usize;
            if !(2..=model.num_classes()).contains(&count) {
                return Err(IoError::format(format!(
                    "multi-backdoor implant count {count} is implausible (want 2..={})",
                    model.num_classes()
                )));
            }
            let mut implants = Vec::with_capacity(count);
            for _ in 0..count {
                let target = read_u32(r)? as usize;
                let asr = read_f64(r)?;
                let trigger = read_trigger(r, shape)?;
                implants.push(BackdoorImplant {
                    target,
                    asr,
                    trigger,
                });
            }
            backdoored(attack, implants, model.num_classes())?
        }
        other => {
            return Err(IoError::format(format!("unknown ground-truth tag {other}")));
        }
    };
    Ok(VictimBundle {
        victim: Victim {
            model,
            clean_accuracy,
            ground_truth,
        },
        train_seed,
        config_hash,
        data_spec,
        data_seed,
    })
}

/// Saves a bundle to `path` (creating parent directories), writing through
/// a temporary sibling file and renaming so concurrent readers never see a
/// half-written bundle.
pub fn save_victim(path: &Path, bundle: &mut VictimBundle) -> Result<(), IoError> {
    save_victim_inner(path, bundle, None)
}

/// [`save_victim`] with the model's GEMM weights stored as `dtype`
/// (`usb_repro save --dtype` lands here).
pub fn save_victim_dtype(
    path: &Path,
    bundle: &mut VictimBundle,
    dtype: Dtype,
) -> Result<(), IoError> {
    save_victim_inner(path, bundle, Some(dtype))
}

fn save_victim_inner(
    path: &Path,
    bundle: &mut VictimBundle,
    dtype: Option<Dtype>,
) -> Result<(), IoError> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    // Unique per process *and* per call: parallel test threads can miss the
    // same fixture simultaneously, and a pid-only name would let their
    // writes interleave in one temp file before the rename.
    static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        write_victim_inner(&mut f, bundle, dtype)?;
        f.sync_all()?;
        fs::rename(&tmp, path).map_err(IoError::from)
    })();
    if result.is_err() {
        fs::remove_file(&tmp).ok();
    }
    result
}

/// Reads the weight-storage dtype out of a serialized bundle without
/// decoding the model: the USBV header fields are parsed up to the
/// embedded network blob, then its header dtype byte is returned. The
/// cheap sniff `usb_repro inspect`/`submit` use for the verdict line.
pub fn peek_weight_dtype(bytes: &[u8]) -> Result<Dtype, IoError> {
    let mut r = bytes;
    expect_magic(&mut r, &VICTIM_MAGIC, "victim bundle")?;
    expect_version(&mut r, VICTIM_VERSION, "victim bundle")?;
    let _train_seed = read_u64(&mut r)?;
    let _config_hash = read_u64(&mut r)?;
    let _spec = read_spec(&mut r)?;
    let _data_seed = read_u64(&mut r)?;
    usb_nn::serde::peek_weight_dtype(&mut r)
}

/// Loads a bundle from `path`.
pub fn load_victim(path: &Path) -> Result<VictimBundle, IoError> {
    let mut f = fs::File::open(path)?;
    read_victim(&mut f)
}

/// Decodes a bundle from an in-memory byte slice (the daemon's socket
/// ingest path: the wire framing delivers the bundle as one payload).
///
/// Trailing bytes after the bundle are rejected — a network payload must
/// be *exactly* one bundle, or the submission was corrupted in a way the
/// per-record checksums cannot see.
///
/// # Errors
///
/// Same contract as [`read_victim`], plus [`IoError::Format`] on trailing
/// garbage. Never panics on malformed input.
pub fn read_victim_bytes(bytes: &[u8]) -> Result<VictimBundle, IoError> {
    let mut cursor = bytes;
    let bundle = read_victim(&mut cursor)?;
    if !cursor.is_empty() {
        return Err(IoError::format(format!(
            "victim bundle payload has {} trailing bytes",
            cursor.len()
        )));
    }
    Ok(bundle)
}

/// Content fingerprint of a serialized bundle (FNV-1a over the raw bytes).
///
/// The serve-layer model cache keys resident victims by this value:
/// bit-identical submissions share one resident model, and any byte
/// difference — different weights, recipe, or provenance — yields a new
/// cache entry.
pub fn bundle_fingerprint(bytes: &[u8]) -> u64 {
    usb_tensor::io::fnv1a64(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::badnet::BadNet;
    use crate::victim::{train_clean_victim, Attack};
    use usb_nn::models::{Architecture, ModelKind};
    use usb_nn::train::TrainConfig;
    use usb_tensor::{Tensor, Workspace};

    fn tiny_spec() -> SyntheticSpec {
        SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(60)
            .with_test_size(20)
            .with_classes(4)
    }

    fn roundtrip(bundle: &mut VictimBundle) -> VictimBundle {
        let mut buf = Vec::new();
        write_victim(&mut buf, bundle).unwrap();
        read_victim(&mut buf.as_slice()).unwrap()
    }

    #[test]
    fn clean_victim_bundle_roundtrips_bit_exactly() {
        let spec = tiny_spec();
        let data = spec.generate(3);
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(4);
        let victim = train_clean_victim(&data, arch, TrainConfig::fast(), 7);
        let mut bundle = VictimBundle {
            victim,
            train_seed: 7,
            config_hash: 0xABCD,
            data_spec: spec,
            data_seed: 3,
        };
        let back = roundtrip(&mut bundle);
        assert_eq!(back.train_seed, 7);
        assert_eq!(back.config_hash, 0xABCD);
        assert_eq!(back.data_spec, bundle.data_spec);
        assert_eq!(back.data_seed, 3);
        assert_eq!(back.victim.clean_accuracy, bundle.victim.clean_accuracy);
        assert!(!back.victim.is_backdoored());
        let x = Tensor::from_fn(&[2, 1, 12, 12], |i| ((i as f32) * 0.11).sin());
        let ya = bundle.victim.model.infer(&x, &mut Workspace::new());
        let yb = back.victim.model.infer(&x, &mut Workspace::new());
        assert_eq!(ya.data(), yb.data(), "loaded forward must be bit-identical");
    }

    #[test]
    fn badnet_bundle_preserves_trigger_and_asr() {
        let spec = tiny_spec();
        let data = spec.generate(4);
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(4);
        let victim = BadNet::new(2, 1, 0.2).execute(&data, arch, TrainConfig::fast(), 8);
        let asr = victim.asr();
        let mut bundle = VictimBundle {
            victim,
            train_seed: 8,
            config_hash: 1,
            data_spec: spec,
            data_seed: 4,
        };
        let back = roundtrip(&mut bundle);
        assert_eq!(back.victim.targets(), vec![1]);
        assert_eq!(back.victim.asr(), asr);
        let (a, b) = match (&bundle.victim.ground_truth, &back.victim.ground_truth) {
            (
                GroundTruth::Backdoored {
                    attack: na,
                    implants: ia,
                },
                GroundTruth::Backdoored {
                    attack: nb,
                    implants: ib,
                },
            ) => {
                assert_eq!(na, nb);
                match (ia.as_slice(), ib.as_slice()) {
                    (
                        [BackdoorImplant {
                            trigger: InjectedTrigger::Static(a),
                            ..
                        }],
                        [BackdoorImplant {
                            trigger: InjectedTrigger::Static(b),
                            ..
                        }],
                    ) => (a.clone(), b.clone()),
                    _ => panic!("expected one static trigger on both sides"),
                }
            }
            _ => panic!("expected backdoored ground truth on both sides"),
        };
        assert_eq!(a.pattern().data(), b.pattern().data());
        assert_eq!(a.mask().data(), b.mask().data());
    }

    #[test]
    fn multi_backdoor_bundle_roundtrips_every_implant() {
        let spec = tiny_spec();
        let data = spec.generate(9);
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(4);
        let victim = crate::multi::MultiBadNet::new(2, vec![0, 3], 0.15).execute(
            &data,
            arch,
            TrainConfig::fast(),
            12,
        );
        let asr = victim.asr();
        let mut bundle = VictimBundle {
            victim,
            train_seed: 12,
            config_hash: 4,
            data_spec: spec,
            data_seed: 9,
        };
        let back = roundtrip(&mut bundle);
        assert_eq!(back.victim.targets(), vec![0, 3]);
        assert_eq!(back.victim.asr(), asr);
        let (ours, theirs) = match (&bundle.victim.ground_truth, &back.victim.ground_truth) {
            (
                GroundTruth::Backdoored {
                    attack: na,
                    implants: a,
                },
                GroundTruth::Backdoored {
                    attack: nb,
                    implants: b,
                },
            ) => {
                assert_eq!(na, nb);
                (a, b)
            }
            _ => panic!("expected backdoored ground truth on both sides"),
        };
        for (x, y) in ours.iter().zip(theirs) {
            assert_eq!(x.target, y.target);
            assert_eq!(x.asr, y.asr);
            let (InjectedTrigger::Static(tx), InjectedTrigger::Static(ty)) =
                (&x.trigger, &y.trigger)
            else {
                panic!("expected static triggers");
            };
            assert_eq!(tx.pattern().data(), ty.pattern().data());
            assert_eq!(tx.mask().data(), ty.mask().data());
        }
        let x = Tensor::from_fn(&[2, 1, 12, 12], |i| ((i as f32) * 0.19).sin());
        let ya = bundle.victim.model.infer(&x, &mut Workspace::new());
        let yb = back.victim.model.infer(&x, &mut Workspace::new());
        assert_eq!(ya.data(), yb.data());
    }

    #[test]
    fn multi_backdoor_bundle_corruption_is_a_clean_error() {
        let spec = tiny_spec();
        let data = spec.generate(10);
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(4);
        let victim = crate::multi::MultiBadNet::new(2, vec![1, 2], 0.15).execute(
            &data,
            arch,
            TrainConfig::fast(),
            13,
        );
        let mut bundle = VictimBundle {
            victim,
            train_seed: 13,
            config_hash: 5,
            data_spec: spec,
            data_seed: 10,
        };
        let mut buf = Vec::new();
        write_victim(&mut buf, &mut bundle).unwrap();
        for pos in (0..buf.len()).step_by(buf.len() / 23) {
            let mut bad = buf.clone();
            bad[pos] ^= 0x55;
            let _ = read_victim(&mut bad.as_slice()); // must not panic
        }
        for len in (0..buf.len()).step_by(buf.len() / 17) {
            match read_victim(&mut &buf[..len]) {
                Err(IoError::Format(_)) => {}
                Err(e) => panic!("unexpected error kind at {len}: {e}"),
                Ok(_) => panic!("truncated bundle of {len} bytes decoded"),
            }
        }
    }

    #[test]
    fn blended_trigger_bundle_roundtrips_fractional_mask() {
        let spec = tiny_spec();
        let data = spec.generate(11);
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(4);
        let victim = crate::multi::MultiBadNet::new(2, vec![2], 0.2)
            .with_blend(0.15)
            .execute(&data, arch, TrainConfig::fast(), 14);
        let mut bundle = VictimBundle {
            victim,
            train_seed: 14,
            config_hash: 6,
            data_spec: spec,
            data_seed: 11,
        };
        let back = roundtrip(&mut bundle);
        assert_eq!(back.victim.targets(), vec![2]);
        let GroundTruth::Backdoored { attack, implants } = &back.victim.ground_truth else {
            panic!("expected a backdoored ground truth");
        };
        let [BackdoorImplant {
            trigger: InjectedTrigger::Static(t),
            ..
        }] = implants.as_slice()
        else {
            panic!("expected one static implant");
        };
        assert_eq!(*attack, "multi-badnet");
        assert_eq!(t.mask().data(), vec![0.15f32; 144], "fractional mask");
    }

    #[test]
    fn quantized_bundle_is_smaller_and_loads_quantized() {
        let spec = tiny_spec();
        let data = spec.generate(21);
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(4);
        let victim = BadNet::new(2, 1, 0.2).execute(&data, arch, TrainConfig::fast(), 22);
        let mut bundle = VictimBundle {
            victim,
            train_seed: 22,
            config_hash: 9,
            data_spec: spec,
            data_seed: 21,
        };
        let mut f32_buf = Vec::new();
        write_victim(&mut f32_buf, &mut bundle).unwrap();
        assert_eq!(peek_weight_dtype(&f32_buf).unwrap(), Dtype::F32);

        for dtype in [Dtype::F16, Dtype::Q8] {
            let mut buf = Vec::new();
            write_victim_dtype(&mut buf, &mut bundle, dtype).unwrap();
            assert!(
                buf.len() < f32_buf.len(),
                "{dtype} bundle {} not smaller than f32 {}",
                buf.len(),
                f32_buf.len()
            );
            assert_eq!(peek_weight_dtype(&buf).unwrap(), dtype);
            let mut back = read_victim_bytes(&buf).unwrap();
            assert_eq!(back.victim.model.weight_dtype(), Some(dtype));
            assert_eq!(back.victim.targets(), vec![1]);
            let x = Tensor::from_fn(&[2, 1, 12, 12], |i| ((i as f32) * 0.31).sin());
            let mut ws = usb_tensor::Workspace::new();
            assert!(back.victim.model.infer(&x, &mut ws).all_finite());
            // Re-serializing a loaded quantized bundle is byte-identical:
            // the payload survives the roundtrip untouched.
            let mut again = Vec::new();
            write_victim(&mut again, &mut back).unwrap();
            assert_eq!(again, buf, "{dtype} bundle must re-serialize verbatim");
        }
    }

    #[test]
    fn dynamic_generator_roundtrips_bit_exactly() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut gen = IadGenerator::new(3, 4, 0.4, &mut rng);
        let mut buf = Vec::new();
        write_generator(&mut buf, &mut gen).unwrap();
        let back = read_generator(&mut buf.as_slice(), 3).unwrap();
        assert_eq!(back.epsilon(), 0.4);
        let x = Tensor::from_fn(&[2, 3, 8, 8], |i| ((i as f32) * 0.07).cos().abs());
        let mut ws = Workspace::new();
        assert_eq!(
            gen.generate(&x, &mut ws).data(),
            back.generate(&x, &mut ws).data()
        );
    }

    #[test]
    fn oversized_generator_header_is_rejected_before_building() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut gen = IadGenerator::new(3, 4, 0.4, &mut rng);
        let mut buf = Vec::new();
        write_generator(&mut buf, &mut gen).unwrap();
        // Channels at offset 0, width at 4.
        for (field, at) in [("channels", 0), ("width", 4)] {
            for value in [u32::MAX, 0] {
                let mut bad = buf.clone();
                bad[at..at + 4].copy_from_slice(&value.to_le_bytes());
                match read_generator(&mut bad.as_slice(), 3) {
                    Err(IoError::Format(msg)) => {
                        assert!(msg.contains(field), "{field} = {value}: {msg}")
                    }
                    Err(err) => panic!("{field} = {value}: not a format error: {err}"),
                    Ok(_) => panic!("{field} = {value} decoded successfully"),
                }
            }
        }
    }

    #[test]
    fn byte_slice_ingest_matches_reader_and_rejects_trailing_garbage() {
        let spec = tiny_spec();
        let data = spec.generate(5);
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(4);
        let victim = train_clean_victim(&data, arch, TrainConfig::fast(), 6);
        let mut bundle = VictimBundle {
            victim,
            train_seed: 6,
            config_hash: 3,
            data_spec: spec,
            data_seed: 5,
        };
        let mut buf = Vec::new();
        write_victim(&mut buf, &mut bundle).unwrap();
        let back = read_victim_bytes(&buf).unwrap();
        assert_eq!(back.train_seed, 6);
        let x = Tensor::from_fn(&[2, 1, 12, 12], |i| ((i as f32) * 0.13).cos());
        let mut ws = Workspace::new();
        assert_eq!(
            bundle.victim.model.infer(&x, &mut ws).data(),
            back.victim.model.infer(&x, &mut ws).data()
        );
        // Same bytes, same fingerprint; any byte change moves it.
        assert_eq!(bundle_fingerprint(&buf), bundle_fingerprint(&buf));
        let mut other = buf.clone();
        other[buf.len() / 2] ^= 1;
        assert_ne!(bundle_fingerprint(&buf), bundle_fingerprint(&other));
        // Exactly-one-bundle contract: trailing bytes are corruption.
        let mut padded = buf.clone();
        padded.push(0);
        match read_victim_bytes(&padded) {
            Err(IoError::Format(msg)) => assert!(msg.contains("trailing")),
            Err(e) => panic!("wrong error kind for trailing garbage: {e}"),
            Ok(_) => panic!("trailing garbage accepted"),
        }
    }

    /// `write_victim`'s bytes for an untrained `(1, 12, 12)` BasicCnn with
    /// `classes` outputs, whose recipe is [`tiny_spec`] with that class
    /// count, then edited by `edit`.
    fn bundle_with_recipe(classes: usize, edit: impl FnOnce(&mut SyntheticSpec)) -> Vec<u8> {
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), classes).with_width(2);
        let mut data_spec = tiny_spec();
        data_spec.num_classes = classes;
        edit(&mut data_spec);
        let mut bundle = VictimBundle {
            victim: Victim {
                model: arch.build(&mut StdRng::seed_from_u64(1)),
                clean_accuracy: 0.0,
                ground_truth: GroundTruth::Clean,
            },
            train_seed: 1,
            config_hash: 0,
            data_spec,
            data_seed: 2,
        };
        let mut buf = Vec::new();
        write_victim(&mut buf, &mut bundle).unwrap();
        buf
    }

    /// `write_victim`'s bytes for an untrained `(1, 12, 12)` 4-class
    /// BasicCnn with `ground_truth`.
    fn bundle_with_truth(ground_truth: GroundTruth) -> Vec<u8> {
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(2);
        let mut bundle = VictimBundle {
            victim: Victim {
                model: arch.build(&mut StdRng::seed_from_u64(1)),
                clean_accuracy: 0.0,
                ground_truth,
            },
            train_seed: 1,
            config_hash: 0,
            data_spec: tiny_spec(),
            data_seed: 2,
        };
        let mut buf = Vec::new();
        write_victim(&mut buf, &mut bundle).unwrap();
        buf
    }

    /// [`bundle_with_truth`] backdoored at class 1 with `trigger`.
    fn bundle_with_trigger(trigger: InjectedTrigger) -> Vec<u8> {
        bundle_with_truth(GroundTruth::Backdoored {
            attack: "badnet",
            implants: vec![BackdoorImplant {
                target: 1,
                asr: 1.0,
                trigger,
            }],
        })
    }

    /// A ground truth with one full-image static implant per target, in
    /// the given order.
    fn static_implants(targets: &[usize]) -> GroundTruth {
        let implant = |&target: &usize| BackdoorImplant {
            target,
            asr: 0.5,
            trigger: InjectedTrigger::Static(Trigger::new(
                Tensor::ones(&[1, 12, 12]),
                Tensor::ones(&[12, 12]),
            )),
        };
        GroundTruth::Backdoored {
            attack: "multi-badnet",
            implants: targets.iter().map(implant).collect(),
        }
    }

    /// One implant is encoded as ground-truth tag 1 and two as tag 2; both
    /// load as the same implant list and re-serialize verbatim.
    #[test]
    fn implant_count_picks_the_ground_truth_tag() {
        // A clean bundle ends in its ground-truth tag.
        let tag_at = bundle_with_truth(GroundTruth::Clean).len() - 1;
        for (targets, tag) in [(&[2][..], 1u8), (&[0, 3][..], 2)] {
            let bytes = bundle_with_truth(static_implants(targets));
            assert_eq!(bytes[tag_at], tag, "targets {targets:?}");
            let mut back = read_victim_bytes(&bytes).unwrap();
            assert_eq!(back.victim.targets(), targets);
            assert_eq!(back.victim.asr(), 0.5);
            let GroundTruth::Backdoored { attack, implants } = &back.victim.ground_truth else {
                panic!("targets {targets:?} loaded clean");
            };
            assert_eq!(*attack, "multi-badnet");
            for implant in implants {
                let InjectedTrigger::Static(t) = &implant.trigger else {
                    panic!("targets {targets:?}: trigger loaded dynamic");
                };
                assert_eq!(t.mask().data(), vec![1.0f32; 144]);
            }
            let mut again = Vec::new();
            write_victim(&mut again, &mut back).unwrap();
            assert_eq!(
                again, bytes,
                "targets {targets:?} must re-serialize verbatim"
            );
        }
    }

    fn assert_truth_rejected(targets: &[usize], needle: &str) {
        match read_victim_bytes(&bundle_with_truth(static_implants(targets))) {
            Err(IoError::Format(msg)) => assert!(msg.contains(needle), "{needle:?} not in {msg:?}"),
            Err(e) => panic!("targets {targets:?}: wrong error kind: {e}"),
            Ok(_) => panic!("targets {targets:?} of a 4-class model accepted"),
        }
    }

    #[test]
    fn single_implant_target_must_be_a_model_class() {
        assert_truth_rejected(&[4], "target 4 is out of range for a 4-class model");
        assert!(read_victim_bytes(&bundle_with_truth(static_implants(&[3]))).is_ok());
    }

    #[test]
    fn every_implant_target_must_be_a_model_class() {
        assert_truth_rejected(&[1, 4], "target 4 is out of range for a 4-class model");
        assert_truth_rejected(&[3, 1], "strictly ascending");
        assert_truth_rejected(&[0, 1, 2, 3, 4], "implant count 5 is implausible");
        assert!(read_victim_bytes(&bundle_with_truth(static_implants(&[1, 3]))).is_ok());
    }

    /// A trigger must stamp the model's own inputs: a static pattern and
    /// mask that agree with each other but not with the `(1, 12, 12)`
    /// input, or a generator for 3-channel images, is a format error.
    #[test]
    fn triggers_must_match_the_model_input() {
        let fits = Trigger::new(Tensor::ones(&[1, 12, 12]), Tensor::ones(&[12, 12]));
        assert!(read_victim_bytes(&bundle_with_trigger(InjectedTrigger::Static(fits))).is_ok());
        let wide = Trigger::new(Tensor::ones(&[1, 16, 16]), Tensor::ones(&[16, 16]));
        let generator = IadGenerator::new(3, 2, 0.4, &mut StdRng::seed_from_u64(3));
        for (trigger, needle) in [
            (InjectedTrigger::Static(wide), "stored shape [1, 16, 16]"),
            (
                InjectedTrigger::Dynamic(generator),
                "IAD generator channels 3",
            ),
        ] {
            match read_victim_bytes(&bundle_with_trigger(trigger)) {
                Err(IoError::Format(msg)) => {
                    assert!(msg.contains(needle), "{needle:?} not in {msg:?}")
                }
                Err(e) => panic!("wrong error kind for a misfit trigger: {e}"),
                Ok(_) => panic!("a trigger that cannot stamp the model's inputs was accepted"),
            }
        }
    }

    fn assert_recipe_rejected(bytes: &[u8], needle: &str) {
        match read_victim_bytes(bytes) {
            Err(IoError::Format(msg)) => assert!(msg.contains(needle), "{needle:?} not in {msg:?}"),
            Err(e) => panic!("wrong error kind for a bad recipe: {e}"),
            Ok(b) => panic!("recipe {:?} accepted", b.data_spec),
        }
    }

    /// An accepted recipe must also serve an inspection subset.
    fn assert_recipe_serves(bytes: &[u8]) {
        let back = read_victim_bytes(bytes).expect("a valid recipe must load");
        let protos = back.data_spec.prototypes(back.data_seed);
        let (x, _) = protos.clean_subset(4, &mut StdRng::seed_from_u64(3));
        assert!(x.min() >= 0.0 && x.max() <= 1.0);
    }

    #[test]
    fn recipe_images_must_match_the_model_input() {
        assert_recipe_serves(&bundle_with_recipe(4, |_| {}));
        let edits: [fn(&mut SyntheticSpec); 5] = [
            |s| s.channels = 0,
            |s| s.channels = 3,
            |s| s.height = 11,
            |s| s.width = 0,
            |s| s.width = 13,
        ];
        for edit in edits {
            assert_recipe_rejected(&bundle_with_recipe(4, edit), "do not match the model input");
        }
    }

    #[test]
    fn recipe_classes_must_match_the_model() {
        for classes in [3, 5, 43] {
            let bytes = bundle_with_recipe(4, |s| s.num_classes = classes);
            assert_recipe_rejected(&bytes, "the model has 4");
        }
    }

    #[test]
    fn recipe_needs_at_least_two_classes() {
        assert_recipe_rejected(&bundle_with_recipe(1, |_| {}), "want at least 2");
        assert_recipe_rejected(
            &bundle_with_recipe(4, |s| s.num_classes = 0),
            "want at least 2",
        );
        assert_recipe_serves(&bundle_with_recipe(2, |_| {}));
    }

    #[test]
    fn recipe_noise_must_be_finite_and_non_negative() {
        for noise in [-0.01, -1.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let bytes = bundle_with_recipe(4, |s| s.noise = noise);
            assert_recipe_rejected(&bytes, "not a finite level >= 0");
        }
        for noise in [0.0, -0.0, 0.5] {
            assert_recipe_serves(&bundle_with_recipe(4, |s| s.noise = noise));
        }
    }

    #[test]
    fn recipe_shared_weight_must_lie_in_the_unit_interval() {
        for weight in [-0.1, 1.0, 1.5, f32::NAN, f32::INFINITY] {
            let bytes = bundle_with_recipe(4, |s| s.shared_weight = weight);
            assert_recipe_rejected(&bytes, "outside [0, 1)");
        }
        for weight in [0.0, 0.45, 0.99] {
            assert_recipe_serves(&bundle_with_recipe(4, |s| s.shared_weight = weight));
        }
    }

    #[test]
    fn corruption_anywhere_is_a_clean_error() {
        let spec = tiny_spec();
        let data = spec.generate(6);
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(4);
        let victim = train_clean_victim(&data, arch, TrainConfig::fast(), 9);
        let mut bundle = VictimBundle {
            victim,
            train_seed: 9,
            config_hash: 2,
            data_spec: spec,
            data_seed: 6,
        };
        let mut buf = Vec::new();
        write_victim(&mut buf, &mut bundle).unwrap();
        // Flip one byte at a spread of positions; every read must fail
        // cleanly or — only where the byte is outside any checksummed or
        // structural region — still parse.
        for pos in (0..buf.len()).step_by(buf.len() / 23) {
            let mut bad = buf.clone();
            bad[pos] ^= 0x55;
            let _ = read_victim(&mut bad.as_slice()); // must not panic
        }
        // Truncations must all fail cleanly.
        for len in (0..buf.len()).step_by(buf.len() / 17) {
            match read_victim(&mut &buf[..len]) {
                Err(IoError::Format(_)) => {}
                Err(e) => panic!("unexpected error kind at {len}: {e}"),
                Ok(_) => panic!("truncated bundle of {len} bytes decoded"),
            }
        }
    }
}
