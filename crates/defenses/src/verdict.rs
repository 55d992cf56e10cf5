//! Detection outcomes and the paper's scoring scheme.
//!
//! The paper reports two metric families per (dataset, attack, method) cell:
//!
//! * **Model Detection** — is the model called clean or backdoored?
//! * **Target Class Detection** — for backdoored models: `Correct` (single
//!   flagged class, the true target), `Correct Set` (several flagged
//!   classes including the true target), `Wrong` (flagged, but the true
//!   target is not among them).

use rand::rngs::StdRng;
use usb_nn::models::Network;
use usb_tensor::stats::{flag_small_outliers, median, DEFAULT_ANOMALY_THRESHOLD};
use usb_tensor::{Tape, Tensor, Workspace};

/// The reversed trigger and statistics for one candidate target class.
#[derive(Debug, Clone)]
pub struct ClassResult {
    /// The candidate class the trigger was reverse-engineered for.
    pub class: usize,
    /// L1 norm of the reversed mask — the outlier statistic.
    pub l1_norm: f64,
    /// Fraction of the defense's clean data that the reversed trigger sends
    /// to `class` (how well reverse engineering converged).
    pub attack_success: f64,
    /// Reversed pattern `[C, H, W]`.
    pub pattern: Tensor,
    /// Reversed mask `[H, W]`.
    pub mask: Tensor,
}

/// Everything a defense reports about one model.
#[derive(Debug, Clone)]
pub struct DetectionOutcome {
    /// Defense name as [`Defense::name`] returns it: `"NC"`, `"TABOR"`,
    /// `"USB"` or `"ULP"`.
    pub method: &'static str,
    /// One entry per class, in class order.
    pub per_class: Vec<ClassResult>,
    /// Per-class anomaly indices (MAD-based).
    pub anomaly_indices: Vec<f64>,
    /// Per-class backdoor confidence: the MAD distance of the class's log
    /// L1 norm *below* the median (`0.0` for classes at or above it). A
    /// flagged class always scores above the anomaly threshold; the score
    /// grows monotonically as the class's norm separates further from the
    /// clean cluster, so multi-target victims get one comparable number
    /// per implanted class.
    pub confidences: Vec<f64>,
    /// Classes flagged as backdoor targets (ascending class order).
    pub flagged: Vec<usize>,
    /// Median of the per-class L1 norms.
    pub median_l1: f64,
}

impl DetectionOutcome {
    /// Builds the outcome from per-class results by running the MAD outlier
    /// test on the **log** L1 norms (small outliers only), keeping only
    /// flagged classes whose reversed trigger actually works
    /// (`attack_success ≥ min_success`) **and** whose norm is substantially
    /// below the median (`< RELATIVE_NORM_BAR × median`).
    ///
    /// The log transform makes the test robust to the multiplicative spread
    /// of reversed-trigger norms: clean classes differ from each other by
    /// *factors* (hard vs easy classes), which inflates a linear MAD until
    /// a genuinely tiny backdoor norm no longer clears the threshold. In
    /// log space that spread is additive and the backdoor outlier stands
    /// out. The relative bar then suppresses borderline flags on clean
    /// models, where the smallest class can sit near half the median by
    /// chance alone.
    ///
    /// # Panics
    ///
    /// Panics if `per_class` is empty.
    pub fn from_class_results(
        method: &'static str,
        per_class: Vec<ClassResult>,
        min_success: f64,
    ) -> Self {
        /// A flagged norm must be below this fraction of the median.
        const RELATIVE_NORM_BAR: f64 = 0.5;
        /// Floor avoiding `ln(0)` for fully degenerate (all-zero) masks.
        const LOG_FLOOR: f64 = 1e-6;
        assert!(!per_class.is_empty(), "DetectionOutcome: no classes");
        let norms: Vec<f64> = per_class.iter().map(|c| c.l1_norm).collect();
        let log_norms: Vec<f64> = norms.iter().map(|&n| n.max(LOG_FLOOR).ln()).collect();
        let report = flag_small_outliers(&log_norms, DEFAULT_ANOMALY_THRESHOLD);
        let median = median(&norms);
        let confidences: Vec<f64> = log_norms
            .iter()
            .zip(&report.indices)
            .map(|(&log_n, &idx)| if log_n < report.median { idx } else { 0.0 })
            .collect();
        let flagged: Vec<usize> = report
            .flagged
            .into_iter()
            .filter(|&c| per_class[c].attack_success >= min_success)
            .filter(|&c| per_class[c].l1_norm < RELATIVE_NORM_BAR * median)
            .collect();
        DetectionOutcome {
            method,
            per_class,
            anomaly_indices: report.indices,
            confidences,
            flagged,
            median_l1: median,
        }
    }

    /// `true` when at least one class is flagged.
    pub fn is_backdoored(&self) -> bool {
        !self.flagged.is_empty()
    }

    /// The reversed-trigger L1 norm of the most anomalous flagged class, or
    /// the minimum across classes when nothing is flagged (what the paper's
    /// "Reversed Trigger L1 norm" column reports for backdoored models).
    pub fn reported_l1(&self) -> f64 {
        if let Some(&c) = self.flagged.first() {
            self.per_class[c].l1_norm
        } else {
            self.per_class
                .iter()
                .map(|c| c.l1_norm)
                .fold(f64::INFINITY, f64::min)
        }
    }
}

/// Target-class call for a backdoored model (paper Table 1 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetClassCall {
    /// Exactly the true target class was flagged.
    Correct,
    /// Several classes flagged, including the true target.
    CorrectSet,
    /// Flagged classes do not include the true target.
    Wrong,
    /// Not applicable (clean ground truth or nothing flagged).
    NotApplicable,
}

/// A scored verdict for one model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelVerdict {
    /// Whether the defense called the model backdoored.
    pub called_backdoored: bool,
    /// Whether that call matches the ground truth.
    pub model_detection_correct: bool,
    /// The target-class call (backdoored ground truth only).
    pub target_call: TargetClassCall,
}

/// Scores an outcome against a ground-truth *set* of implanted target
/// classes: empty = clean model, one entry = the paper's single-target
/// setting, several = a multi-backdoor victim.
///
/// For a backdoored ground truth the target-class call generalises the
/// paper's Table 1 wording to sets: `Correct` when the flagged set equals
/// the implanted set exactly, `CorrectSet` when every implanted class is
/// flagged but clean classes ride along, `Wrong` when any implanted class
/// is missed while something else is flagged.
pub fn score_outcome(outcome: &DetectionOutcome, truth: &[usize]) -> ModelVerdict {
    let called = outcome.is_backdoored();
    if truth.is_empty() {
        return ModelVerdict {
            called_backdoored: called,
            model_detection_correct: !called,
            target_call: TargetClassCall::NotApplicable,
        };
    }
    let mut want = truth.to_vec();
    want.sort_unstable();
    want.dedup();
    let target_call = if !called {
        TargetClassCall::NotApplicable
    } else if outcome.flagged == want {
        TargetClassCall::Correct
    } else if want.iter().all(|t| outcome.flagged.contains(t)) {
        TargetClassCall::CorrectSet
    } else {
        TargetClassCall::Wrong
    };
    ModelVerdict {
        called_backdoored: called,
        model_detection_correct: called,
        target_call,
    }
}

/// A trigger reverse-engineering defense.
///
/// `inspect` must reverse-engineer a candidate trigger *per class* and run
/// the shared outlier test; implementations provide
/// [`Defense::reverse_class_in`], which borrows the caller's [`Tape`] and
/// [`Workspace`], and inherit the rest.
///
/// The model is passed by shared reference everywhere: defenses *read*
/// the victim (forward passes through the cache-free inference path,
/// gradients through the tape-backed `Network::input_grad_in` route) and
/// never mutate it, which is what lets parallel engines fan one model out
/// across worker threads without cloning.
pub trait Defense {
    /// Name as used in the paper's tables: `"NC"`, `"TABOR"`, `"USB"` or
    /// `"ULP"` (`'static`, so verdicts can outlive the defense object).
    fn name(&self) -> &'static str;

    /// Reverse-engineers a trigger that sends `images` to `target` on the
    /// caller's `tape` and `ws`; nothing they hold on entry may reach the
    /// result.
    fn reverse_class_in(
        &self,
        model: &Network,
        images: &Tensor,
        target: usize,
        rng: &mut StdRng,
        tape: &mut Tape,
        ws: &mut Workspace,
    ) -> ClassResult;

    /// [`Defense::reverse_class_in`] on a tape and workspace of its own:
    /// the entry point for reversing a single class.
    fn reverse_class(
        &self,
        model: &Network,
        images: &Tensor,
        target: usize,
        rng: &mut StdRng,
    ) -> ClassResult {
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        self.reverse_class_in(model, images, target, rng, &mut tape, &mut ws)
    }

    /// Minimum reversed-trigger success rate for a flagged class to count
    /// (filters unconverged optimisations).
    fn min_success(&self) -> f64 {
        0.5
    }

    /// Runs [`Defense::reverse_class_in`] for every class, all on one tape
    /// and workspace, and applies the MAD outlier test.
    fn inspect(&self, model: &Network, images: &Tensor, rng: &mut StdRng) -> DetectionOutcome {
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let per_class: Vec<ClassResult> = (0..model.num_classes())
            .map(|t| self.reverse_class_in(model, images, t, rng, &mut tape, &mut ws))
            .collect();
        DetectionOutcome::from_class_results(self.name(), per_class, self.min_success())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class_result(class: usize, l1: f64, success: f64) -> ClassResult {
        ClassResult {
            class,
            l1_norm: l1,
            attack_success: success,
            pattern: Tensor::zeros(&[1, 4, 4]),
            mask: Tensor::zeros(&[4, 4]),
        }
    }

    fn outcome_with_norms(norms: &[f64]) -> DetectionOutcome {
        let per_class = norms
            .iter()
            .enumerate()
            .map(|(c, &n)| class_result(c, n, 1.0))
            .collect();
        DetectionOutcome::from_class_results("nc", per_class, 0.5)
    }

    #[test]
    fn small_outlier_is_flagged() {
        let o = outcome_with_norms(&[50.0, 52.0, 4.0, 49.0, 51.0, 48.0, 50.0, 53.0, 49.0, 51.0]);
        assert!(o.is_backdoored());
        assert_eq!(o.flagged, vec![2]);
        assert_eq!(o.reported_l1(), 4.0);
    }

    #[test]
    fn uniform_profile_is_clean() {
        let o = outcome_with_norms(&[50.0, 54.0, 46.0, 49.0, 52.0, 47.0, 50.0, 55.0, 48.0, 51.0]);
        assert!(!o.is_backdoored());
        // reported L1 falls back to the minimum.
        assert_eq!(o.reported_l1(), 46.0);
    }

    #[test]
    fn unconverged_triggers_are_not_flagged() {
        let mut per_class: Vec<ClassResult> = (0..10)
            .map(|c| class_result(c, 50.0 + c as f64, 1.0))
            .collect();
        per_class[3] = class_result(3, 2.0, 0.1); // tiny norm but never works
        let o = DetectionOutcome::from_class_results("nc", per_class, 0.5);
        assert!(!o.is_backdoored());
    }

    #[test]
    fn scoring_clean_truth() {
        let o = outcome_with_norms(&[50.0, 54.0, 46.0, 49.0, 52.0, 47.0, 50.0, 55.0, 48.0, 51.0]);
        let v = score_outcome(&o, &[]);
        assert!(v.model_detection_correct);
        assert_eq!(v.target_call, TargetClassCall::NotApplicable);
        let bad = outcome_with_norms(&[50.0, 52.0, 4.0, 49.0, 51.0, 48.0, 50.0, 53.0, 49.0, 51.0]);
        let v = score_outcome(&bad, &[]);
        assert!(!v.model_detection_correct, "false positive must be scored");
    }

    #[test]
    fn scoring_backdoored_truth() {
        let o = outcome_with_norms(&[50.0, 52.0, 4.0, 49.0, 51.0, 48.0, 50.0, 53.0, 49.0, 51.0]);
        assert_eq!(
            score_outcome(&o, &[2]).target_call,
            TargetClassCall::Correct
        );
        assert_eq!(score_outcome(&o, &[5]).target_call, TargetClassCall::Wrong);
        assert!(score_outcome(&o, &[2]).model_detection_correct);
    }

    #[test]
    fn scoring_correct_set() {
        let o = outcome_with_norms(&[50.0, 3.0, 4.0, 49.0, 51.0, 48.0, 50.0, 53.0, 49.0, 51.0]);
        assert_eq!(o.flagged, vec![1, 2]);
        assert_eq!(
            score_outcome(&o, &[2]).target_call,
            TargetClassCall::CorrectSet
        );
    }

    #[test]
    fn scoring_multi_target_truth() {
        // Two genuinely small norms: a 2-target victim's profile.
        let o = outcome_with_norms(&[50.0, 3.0, 4.0, 49.0, 51.0, 48.0, 50.0, 53.0, 49.0, 51.0]);
        assert_eq!(o.flagged, vec![1, 2]);
        // Exact set match (order and duplicates in the truth don't matter).
        assert_eq!(
            score_outcome(&o, &[2, 1]).target_call,
            TargetClassCall::Correct
        );
        assert_eq!(
            score_outcome(&o, &[1, 2, 1]).target_call,
            TargetClassCall::Correct
        );
        // One implanted class missed entirely → Wrong, not CorrectSet.
        assert_eq!(
            score_outcome(&o, &[1, 5]).target_call,
            TargetClassCall::Wrong
        );
    }

    #[test]
    fn missed_backdoor_is_not_applicable() {
        let o = outcome_with_norms(&[50.0, 54.0, 46.0, 49.0, 52.0, 47.0, 50.0, 55.0, 48.0, 51.0]);
        let v = score_outcome(&o, &[3]);
        assert!(!v.model_detection_correct);
        assert_eq!(v.target_call, TargetClassCall::NotApplicable);
    }

    #[test]
    fn confidences_mark_flagged_classes_only() {
        let o = outcome_with_norms(&[50.0, 3.0, 4.0, 49.0, 51.0, 48.0, 50.0, 53.0, 49.0, 51.0]);
        assert_eq!(o.confidences.len(), 10);
        for &c in &o.flagged {
            assert!(
                o.confidences[c] > DEFAULT_ANOMALY_THRESHOLD,
                "flagged class {c} must score above the anomaly threshold"
            );
        }
        for (c, &conf) in o.confidences.iter().enumerate() {
            if !o.flagged.contains(&c) {
                assert!(
                    conf <= DEFAULT_ANOMALY_THRESHOLD,
                    "clean class {c} scored {conf}"
                );
            }
        }
        // The deeper outlier is the more confident call.
        assert!(o.confidences[1] > o.confidences[2]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Builds an outcome from raw L1 norms with perfect attack success, so
    /// only the MAD statistics decide what gets flagged.
    fn outcome_from(norms: &[f64]) -> DetectionOutcome {
        let per_class = norms
            .iter()
            .enumerate()
            .map(|(c, &n)| ClassResult {
                class: c,
                l1_norm: n,
                attack_success: 1.0,
                pattern: Tensor::zeros(&[1, 2, 2]),
                mask: Tensor::zeros(&[2, 2]),
            })
            .collect();
        DetectionOutcome::from_class_results("usb", per_class, 0.5)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// 0, 1, 2, or 3 planted small outliers among 12 classes are
        /// recovered exactly, over randomised log-norm cluster spreads.
        #[test]
        fn planted_outliers_are_recovered(
            base in 3.5f64..4.5,
            spread in 0.01f64..0.08,
            jitter in proptest::collection::vec(-1.0f64..1.0, 12),
            k in 0usize..4,
        ) {
            let norms: Vec<f64> = jitter
                .iter()
                .enumerate()
                .map(|(c, &j)| {
                    if c < k {
                        // An implanted class: a factor e^3.5 below the cluster.
                        (base - 3.5 + j * spread).exp()
                    } else {
                        (base + j * spread).exp()
                    }
                })
                .collect();
            let o = outcome_from(&norms);
            prop_assert_eq!(&o.flagged, &(0..k).collect::<Vec<_>>());
            for (c, &norm) in norms.iter().enumerate() {
                if c < k {
                    prop_assert!(o.confidences[c] > DEFAULT_ANOMALY_THRESHOLD);
                } else {
                    prop_assert!(
                        norm >= 0.5 * o.median_l1,
                        "clean class {} fell below the relative bar", c
                    );
                }
            }
        }

        /// Confidence grows strictly with the outlier's separation from the
        /// clean cluster (same cluster, deeper implant → larger score).
        #[test]
        fn confidence_is_monotone_in_separation(
            base in 3.5f64..4.5,
            spread in 0.01f64..0.08,
            jitter in proptest::collection::vec(-1.0f64..1.0, 11),
            depth in 1.0f64..3.0,
            gap in 0.5f64..2.0,
        ) {
            let cluster: Vec<f64> = jitter.iter().map(|&j| (base + j * spread).exp()).collect();
            let with_outlier = |d: f64| {
                let mut norms = cluster.clone();
                norms.push((base - d).exp());
                outcome_from(&norms)
            };
            let shallow = with_outlier(depth);
            let deep = with_outlier(depth + gap);
            prop_assert!(deep.confidences[11] > shallow.confidences[11]);
        }

        /// Flags and confidences are equivariant under class permutation:
        /// rotating the norm profile rotates the verdict with it.
        #[test]
        fn verdict_is_permutation_invariant(
            base in 3.5f64..4.5,
            spread in 0.01f64..0.08,
            jitter in proptest::collection::vec(-1.0f64..1.0, 12),
            k in 1usize..4,
            rot in 0usize..12,
        ) {
            let norms: Vec<f64> = jitter
                .iter()
                .enumerate()
                .map(|(c, &j)| {
                    let shift = if c < k { -3.5 } else { 0.0 };
                    (base + shift + j * spread).exp()
                })
                .collect();
            let n = norms.len();
            let rotated: Vec<f64> = (0..n).map(|c| norms[(c + rot) % n]).collect();
            let o = outcome_from(&norms);
            let r = outcome_from(&rotated);
            let mut expect: Vec<usize> = o
                .flagged
                .iter()
                .map(|&c| (c + n - rot) % n)
                .collect();
            expect.sort_unstable();
            prop_assert_eq!(&r.flagged, &expect);
            for c in 0..n {
                let back = (c + rot) % n;
                prop_assert!((r.confidences[c] - o.confidences[back]).abs() < 1e-12);
            }
        }
    }
}
