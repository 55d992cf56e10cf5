//! Universal Litmus Patterns (Kolouri et al., CVPR 2020) — the
//! meta-classification baseline.
//!
//! ULP sidesteps trigger reverse engineering entirely: feed the suspect
//! model a small bank of *learned* probe images ("litmus patterns") and
//! classify the model itself from how it responds. The bank and a logistic
//! meta-classifier are trained offline on surrogate model pairs — here,
//! tiny clean/BadNet victims produced through the fixture cache, so the
//! surrogates are trained once per input signature and loaded bit-exactly
//! ever after.
//!
//! The patterns are optimised to *excite* backdoored models (drive some
//! class's softmax toward 1) while leaving clean models indifferent; the
//! pooled max-softmax response is the single feature the logistic head
//! consumes. At inspection time one forward pass of the bank yields both
//! the model-level call (meta-classifier) and a per-class response profile
//! that feeds the shared MAD verdict: a backdoored class absorbs the
//! patterns' probability mass, so its "norm" statistic `−ln(response)` is
//! a small-side outlier exactly like a reversed-trigger L1 norm.

use crate::verdict::{ClassResult, Defense, DetectionOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};
use usb_attacks::fixtures::{cached_victim, FixtureSpec};
use usb_attacks::{train_clean_victim, Attack, BadNet};
use usb_data::SyntheticSpec;
use usb_nn::models::{Architecture, ModelKind, Network};
use usb_nn::train::TrainConfig;
use usb_tensor::{Tape, Tensor, Workspace};

/// Floor avoiding `ln(0)` when a class receives no probability mass.
const RESPONSE_FLOOR: f64 = 1e-6;

/// Hyperparameters for the ULP baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UlpConfig {
    /// Number of litmus patterns in the bank.
    pub patterns: usize,
    /// Gradient steps optimising the bank against the surrogate pairs.
    pub opt_steps: usize,
    /// Learning rate for the pattern updates.
    pub lr: f32,
    /// Clean/backdoored surrogate pairs trained per input signature.
    pub surrogate_pairs: usize,
    /// Gradient steps fitting the logistic meta-classifier.
    pub meta_steps: usize,
    /// Learning rate for the logistic fit.
    pub meta_lr: f64,
    /// Base seed for pattern initialisation and surrogate training.
    pub seed: u64,
}

impl UlpConfig {
    /// Full-strength configuration (used by the experiment grid).
    pub fn standard() -> Self {
        UlpConfig {
            patterns: 4,
            opt_steps: 150,
            lr: 0.3,
            surrogate_pairs: 2,
            meta_steps: 300,
            meta_lr: 1.0,
            seed: 0x0117,
        }
    }

    /// Reduced configuration for unit tests.
    pub fn fast() -> Self {
        UlpConfig {
            opt_steps: 80,
            ..Self::standard()
        }
    }
}

impl Default for UlpConfig {
    fn default() -> Self {
        Self::standard()
    }
}

/// Input signature a litmus bank is specific to: a bank probes models of
/// one (channels, height, width, classes) shape.
type Signature = (usize, usize, usize, usize);

/// A trained bank: the patterns plus the 1-D logistic head over the
/// pooled max-softmax feature.
struct LitmusBank {
    /// `[m, C, H, W]` probe images in `[0, 1]`.
    patterns: Tensor,
    /// Logistic weight on the pooled response feature.
    weight: f64,
    /// Logistic bias.
    bias: f64,
}

/// The ULP defense. Banks are trained lazily per input signature and
/// memoised for the lifetime of the defense object; the surrogate victims
/// behind them live in the shared fixture cache.
pub struct Ulp {
    /// Hyperparameters.
    pub config: UlpConfig,
    banks: Mutex<Vec<(Signature, Arc<LitmusBank>)>>,
}

impl Ulp {
    /// ULP with the given configuration.
    pub fn new(config: UlpConfig) -> Self {
        Ulp {
            config,
            banks: Mutex::new(Vec::new()),
        }
    }

    /// ULP with the standard configuration.
    pub fn standard() -> Self {
        Self::new(UlpConfig::standard())
    }

    /// ULP with the reduced test configuration.
    pub fn fast() -> Self {
        Self::new(UlpConfig::fast())
    }

    /// The bank for `sig`, training it on first use.
    fn bank(&self, sig: Signature) -> Arc<LitmusBank> {
        let mut banks = self.banks.lock().expect("ULP bank lock poisoned");
        if let Some((_, bank)) = banks.iter().find(|(s, _)| *s == sig) {
            return Arc::clone(bank);
        }
        let bank = Arc::new(train_bank(&self.config, sig));
        banks.push((sig, Arc::clone(&bank)));
        bank
    }

    /// The bank for `model`'s signature and the softmax of `model` on
    /// each of its patterns: one forward pass of the bank.
    fn probe(&self, model: &Network) -> (Arc<LitmusBank>, Vec<Vec<f64>>) {
        let (c, h, w) = model.input_shape();
        let bank = self.bank((c, h, w, model.num_classes()));
        let probs = softmax_rows(&model.infer(&bank.patterns, &mut Workspace::new()));
        (bank, probs)
    }

    /// The meta-classifier's P(backdoored) for `model` — the model-level
    /// litmus score (`≥ 0.5` reads as backdoored).
    pub fn meta_score(&self, model: &Network) -> f64 {
        let (bank, probs) = self.probe(model);
        sigmoid(bank.weight * pooled_response(&probs) + bank.bias)
    }
}

impl Defense for Ulp {
    fn name(&self) -> &'static str {
        "ULP"
    }

    /// Litmus responses are probabilities, not reverse-engineered masks:
    /// the convergence filter does not apply.
    fn min_success(&self) -> f64 {
        0.0
    }

    fn reverse_class(
        &self,
        model: &Network,
        _images: &Tensor,
        target: usize,
        _rng: &mut StdRng,
    ) -> ClassResult {
        let (_, h, w) = model.input_shape();
        let (bank, probs) = self.probe(model);
        class_result_from_probs(&bank.patterns, &probs, target, (h, w))
    }

    /// One forward pass of the bank yields every class's response; the
    /// logistic meta-classifier then gates the model-level call — when it
    /// reads the response profile as clean, no class stays flagged.
    fn inspect(&self, model: &Network, _images: &Tensor, _rng: &mut StdRng) -> DetectionOutcome {
        let (_, h, w) = model.input_shape();
        let (bank, probs) = self.probe(model);
        let per_class: Vec<ClassResult> = (0..model.num_classes())
            .map(|t| class_result_from_probs(&bank.patterns, &probs, t, (h, w)))
            .collect();
        let mut outcome =
            DetectionOutcome::from_class_results(self.name(), per_class, self.min_success());
        let score = sigmoid(bank.weight * pooled_response(&probs) + bank.bias);
        if score < 0.5 {
            outcome.flagged.clear();
        }
        outcome
    }
}

/// Row-wise softmax of `[m, k]` logits.
fn softmax_rows(logits: &Tensor) -> Vec<Vec<f64>> {
    let (m, k) = (logits.shape()[0], logits.shape()[1]);
    let data = logits.data();
    (0..m)
        .map(|i| {
            let row = &data[i * k..(i + 1) * k];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exp: Vec<f64> = row.iter().map(|&v| f64::from(v - max).exp()).collect();
            let sum: f64 = exp.iter().sum();
            exp.into_iter().map(|e| e / sum).collect()
        })
        .collect()
}

/// The pooled feature the logistic head consumes: mean over patterns of
/// the max softmax probability.
fn pooled_response(probs: &[Vec<f64>]) -> f64 {
    let m = probs.len();
    probs
        .iter()
        .map(|row| row.iter().copied().fold(0.0, f64::max))
        .sum::<f64>()
        / m as f64
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Builds one class's [`ClassResult`] from the bank's response profile.
/// The "norm" statistic is `−ln(mean response)`: a class that absorbs the
/// patterns' probability mass gets a small value, exactly the small-side
/// outlier shape the shared MAD verdict flags.
fn class_result_from_probs(
    patterns: &Tensor,
    probs: &[Vec<f64>],
    target: usize,
    (h, w): (usize, usize),
) -> ClassResult {
    let m = probs.len();
    let response = probs.iter().map(|row| row[target]).sum::<f64>() / m as f64;
    let hits = probs
        .iter()
        .filter(|row| {
            let best = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i);
            best == Some(target)
        })
        .count();
    // The pattern that responds to this class the strongest, as the
    // reported "reversed trigger" visualisation.
    let best_pattern = (0..m)
        .max_by(|&a, &b| probs[a][target].total_cmp(&probs[b][target]))
        .unwrap_or(0);
    ClassResult {
        class: target,
        l1_norm: -response.max(RESPONSE_FLOOR).ln(),
        attack_success: hits as f64 / m as f64,
        pattern: patterns.index_axis0(best_pattern),
        mask: Tensor::zeros(&[h, w]),
    }
}

/// Trains the surrogate victims for one signature through the fixture
/// cache, returning `(model, is_backdoored)` pairs.
fn surrogates(config: &UlpConfig, sig: Signature) -> Vec<(Network, bool)> {
    let (c, h, w, k) = sig;
    assert!(
        c == 1 || c == 3,
        "ULP surrogates: unsupported channel count {c}"
    );
    let mut spec = if c == 1 {
        SyntheticSpec::mnist()
    } else {
        SyntheticSpec::cifar10()
    };
    spec = spec.with_train_size(128).with_test_size(32).with_classes(k);
    spec.height = h;
    spec.width = w;
    // ResNet-18 absorbs small triggers far more reliably than the
    // pooling-heavy BasicCnn (see EXPERIMENTS.md): at this budget the
    // surrogate backdoors reach ~1.0 ASR without collapsing accuracy.
    let arch = Architecture::new(ModelKind::ResNet18, (c, h, w), k).with_width(4);
    let tc = TrainConfig::new(10);
    let trigger = 2.min(h).min(w);
    let mut out = Vec::with_capacity(config.surrogate_pairs * 2);
    for pair in 0..config.surrogate_pairs {
        let data_seed = config.seed ^ (9000 + pair as u64);
        let train_seed = config.seed ^ (100 + pair as u64);
        let key_dims = format!("{c}x{h}x{w}x{k}");
        let clean_key = format!("ulp-clean-{pair}-{key_dims}");
        let clean_spec = FixtureSpec::new(&clean_key, spec.clone(), data_seed, train_seed)
            .with_config(&[&format!("{arch:?}"), &format!("{tc:?}"), "clean"]);
        let (_, clean) = cached_victim(&clean_spec, |data| {
            train_clean_victim(data, arch, tc, train_seed)
        });
        out.push((clean.model, false));
        let attack = BadNet::new(trigger, pair % k, 0.25);
        let bad_key = format!("ulp-badnet-{pair}-{key_dims}");
        let bad_spec =
            FixtureSpec::new(&bad_key, spec.clone(), data_seed, train_seed).with_config(&[
                &format!("{arch:?}"),
                &format!("{tc:?}"),
                &format!("{attack:?}"),
            ]);
        let (_, bad) = cached_victim(&bad_spec, |data| attack.execute(data, arch, tc, train_seed));
        out.push((bad.model, true));
    }
    out
}

/// Trains the litmus bank for one signature jointly with its logistic
/// head (the ULP paper's scheme): each step descends the BCE loss of
/// `sigmoid(w·x_j + b)` against the clean/backdoored label, where `x_j`
/// is the pooled max-softmax response of surrogate `j` to the bank —
/// gradients flow through the heads *and* through the models into the
/// patterns. A final longer logistic refit calibrates the head on the
/// frozen bank.
fn train_bank(config: &UlpConfig, sig: Signature) -> LitmusBank {
    let (c, h, w, k) = sig;
    let models = surrogates(config, sig);
    let n = models.len() as f64;
    let mut rng = StdRng::seed_from_u64(
        config
            .seed
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add((c * 31 + h * 37 + w * 41 + k * 43) as u64),
    );
    let m = config.patterns;
    let mut patterns = Tensor::zeros(&[m, c, h, w]);
    for v in patterns.data_mut() {
        *v = rng.gen_range(0.0..1.0);
    }
    // A positive-slope head centred at x = 0.5 bootstraps the joint
    // descent (a zero weight would zero the pattern gradients too).
    let (mut weight, mut bias) = (6.0f64, -3.0f64);
    let mut tape = Tape::new();
    let mut ws = Workspace::new();
    for _ in 0..config.opt_steps {
        let mut total_grad = Tensor::zeros(&[m, c, h, w]);
        let (mut dw, mut db) = (0.0f64, 0.0f64);
        for (model, backdoored) in &models {
            let y = f64::from(u8::from(*backdoored));
            let mut feature = 0.0f64;
            let (_, d_input) = model.input_grad_in(
                &patterns,
                |logits, _| {
                    let probs = softmax_rows(logits);
                    let x = pooled_response(&probs);
                    feature = x;
                    // d BCE / d x = (σ(wx+b) − y)·w; d x / d logits goes
                    // through the max-softmax of each pattern's row.
                    let dx = (sigmoid(weight * x + bias) - y) * weight / m as f64;
                    let mut d = Tensor::zeros(&[m, k]);
                    let dd = d.data_mut();
                    for (i, row) in probs.iter().enumerate() {
                        let (star, s_star) = row
                            .iter()
                            .enumerate()
                            .max_by(|a, b| a.1.total_cmp(b.1))
                            .map(|(j, &p)| (j, p))
                            .expect("non-empty softmax row");
                        for (j, &s_j) in row.iter().enumerate() {
                            let indicator = f64::from(j == star);
                            dd[i * k + j] = (dx * s_star * (indicator - s_j)) as f32;
                        }
                    }
                    d
                },
                &mut tape,
                &mut ws,
            );
            let err = sigmoid(weight * feature + bias) - y;
            dw += err * feature;
            db += err;
            for (g, dg) in total_grad.data_mut().iter_mut().zip(d_input.data()) {
                *g += dg;
            }
            ws.recycle(d_input);
        }
        for (p, g) in patterns.data_mut().iter_mut().zip(total_grad.data()) {
            *p = (*p - config.lr * g).clamp(0.0, 1.0);
        }
        weight -= config.meta_lr * dw / n;
        bias -= config.meta_lr * db / n;
    }
    // Longer logistic refit on the frozen bank calibrates the head.
    let features: Vec<(f64, f64)> = models
        .iter()
        .map(|(model, backdoored)| {
            let probs = softmax_rows(&model.infer(&patterns, &mut ws));
            (pooled_response(&probs), f64::from(u8::from(*backdoored)))
        })
        .collect();
    for _ in 0..config.meta_steps {
        let (mut dw, mut db) = (0.0f64, 0.0f64);
        for &(x, y) in &features {
            let err = sigmoid(weight * x + bias) - y;
            dw += err * x;
            db += err;
        }
        weight -= config.meta_lr * dw / n;
        bias -= config.meta_lr * db / n;
    }
    LitmusBank {
        patterns,
        weight,
        bias,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn surrogate_setting() -> (SyntheticSpec, Architecture) {
        let spec = SyntheticSpec::mnist()
            .with_size(12)
            .with_train_size(96)
            .with_test_size(32)
            .with_classes(4);
        let arch = Architecture::new(ModelKind::BasicCnn, (1, 12, 12), 4).with_width(4);
        (spec, arch)
    }

    /// The bank's logistic head must separate the very surrogates it was
    /// fitted on — the minimum bar for a meta-classifier.
    #[test]
    fn bank_separates_its_surrogates_in_sample() {
        let config = UlpConfig::fast();
        let sig = (1usize, 12usize, 12usize, 4usize);
        let bank = train_bank(&config, sig);
        assert_eq!(bank.patterns.shape(), &[config.patterns, 1, 12, 12]);
        let mut ws = Workspace::new();
        let mut clean_scores = Vec::new();
        let mut bad_scores = Vec::new();
        for (model, backdoored) in surrogates(&config, sig) {
            let probs = softmax_rows(&model.infer(&bank.patterns, &mut ws));
            let score = sigmoid(bank.weight * pooled_response(&probs) + bank.bias);
            if backdoored {
                bad_scores.push(score);
            } else {
                clean_scores.push(score);
            }
        }
        let worst_bad = bad_scores.iter().copied().fold(f64::INFINITY, f64::min);
        let worst_clean = clean_scores.iter().copied().fold(0.0, f64::max);
        assert!(
            worst_bad > worst_clean,
            "backdoored surrogates must outscore clean ones: {bad_scores:?} vs {clean_scores:?}"
        );
    }

    /// Two independently constructed defenses produce bit-identical
    /// outcomes: banks derive from the config seed alone.
    #[test]
    fn inspection_is_deterministic_across_instances() {
        let (spec, arch) = surrogate_setting();
        let data = spec.generate(77);
        let victim = BadNet::new(2, 1, 0.25).execute(&data, arch, TrainConfig::fast(), 31);
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        let (x, _) = data.clean_subset(16, &mut StdRng::seed_from_u64(4));
        let a = Ulp::fast().inspect(&victim.model, &x, &mut rng_a);
        let b = Ulp::fast().inspect(&victim.model, &x, &mut rng_b);
        assert_eq!(a.flagged, b.flagged);
        assert_eq!(a.confidences, b.confidences);
        for (ra, rb) in a.per_class.iter().zip(&b.per_class) {
            assert_eq!(ra.l1_norm, rb.l1_norm);
            assert_eq!(ra.attack_success, rb.attack_success);
        }
        // ULP never consumes the caller's rng — sequential defense suites
        // keep their seed streams even with ULP appended.
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    /// The outcome is structurally complete: one result and one confidence
    /// per class, probabilities in range.
    #[test]
    fn outcome_is_well_formed() {
        let (spec, arch) = surrogate_setting();
        let data = spec.generate(78);
        let victim = train_clean_victim(&data, arch, TrainConfig::fast(), 32);
        let defense = Ulp::fast();
        let mut rng = StdRng::seed_from_u64(6);
        let (x, _) = data.clean_subset(16, &mut rng);
        let outcome = defense.inspect(&victim.model, &x, &mut rng);
        assert_eq!(outcome.method, "ULP");
        assert_eq!(outcome.per_class.len(), 4);
        assert_eq!(outcome.confidences.len(), 4);
        for r in &outcome.per_class {
            assert!(r.l1_norm >= 0.0);
            assert!((0.0..=1.0).contains(&r.attack_success));
        }
        let score = defense.meta_score(&victim.model);
        assert!((0.0..=1.0).contains(&score));
    }
}
