//! Table 7: per-class detection wall-clock for NC, TABOR, and USB.
//!
//! The paper measures GPU minutes per class on EfficientNet-B0/ImageNet;
//! here it is CPU seconds per class on the scaled substrate. The claim
//! being reproduced is the *ordering and ratio*: TABOR > NC ≫ USB, because
//! USB's optimisation starts from an informative UAP and needs far fewer
//! iterations.
//!
//! Beyond the paper's table, the harness also splits USB's per-class time
//! into its two stages — Alg. 1 (targeted UAP) vs Alg. 2 (refinement) —
//! which is the number that tells you where an optimisation PR should aim.
//! Measurements run the classes **sequentially on one thread** regardless
//! of `USB_THREADS`: concurrent classes would contend for cores and
//! distort exactly the per-class numbers this module exists to report.

use crate::grid::{table2, DefenseSuite};
use crate::grid::{train_victim, CaseSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use usb_defenses::Defense;

/// Wall time per class for one named pipeline stage of a defense.
#[derive(Debug, Clone)]
pub struct StageRow {
    /// Stage name ("uap" = Alg. 1, "refine" = Alg. 2).
    pub stage: &'static str,
    /// Seconds this stage spent on each class.
    pub per_class_seconds: Vec<f64>,
}

impl StageRow {
    /// Total seconds across classes.
    pub fn total(&self) -> f64 {
        self.per_class_seconds.iter().sum()
    }
}

/// Per-class timing for one defense.
#[derive(Debug, Clone)]
pub struct TimingRow {
    /// Defense name.
    pub method: &'static str,
    /// Seconds spent reverse-engineering each class.
    pub per_class_seconds: Vec<f64>,
    /// Per-stage breakdown when the defense exposes stages (USB: Alg. 1
    /// vs Alg. 2); empty for monolithic defenses (NC, TABOR).
    pub stages: Vec<StageRow>,
}

impl TimingRow {
    /// Total seconds across classes.
    pub fn total(&self) -> f64 {
        self.per_class_seconds.iter().sum()
    }
}

/// A Table 7 style report: per-class timing per defense, averaged over
/// `models` victims.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// Case description.
    pub label: String,
    /// One row per defense.
    pub rows: Vec<TimingRow>,
}

/// Measures per-class detection time on the Table 2 setting (EfficientNet).
pub fn run_timing(
    models: usize,
    suite: &DefenseSuite,
    mut progress: impl FnMut(&str),
) -> TimingReport {
    let spec = table2();
    let case = CaseSpec {
        attack: crate::grid::AttackChoice::BadNet { trigger: 3 },
        poison_rate: 0.15,
    };
    let k = spec.dataset.num_classes;
    let mut rows = vec![
        TimingRow {
            method: "NC",
            per_class_seconds: vec![0.0; k],
            stages: Vec::new(),
        },
        TimingRow {
            method: "TABOR",
            per_class_seconds: vec![0.0; k],
            stages: Vec::new(),
        },
        TimingRow {
            method: "USB",
            per_class_seconds: vec![0.0; k],
            stages: vec![
                StageRow {
                    stage: "uap",
                    per_class_seconds: vec![0.0; k],
                },
                StageRow {
                    stage: "refine",
                    per_class_seconds: vec![0.0; k],
                },
            ],
        },
    ];
    for m in 0..models {
        let seed = 9000 + m as u64;
        let (data, victim) = train_victim(&spec, &case, seed);
        progress(&format!(
            "[table7] model {}/{}: acc {:.2} asr {:.2}",
            m + 1,
            models,
            victim.clean_accuracy,
            victim.asr()
        ));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7131);
        let (clean_x, _) = data.clean_subset(spec.defense_samples, &mut rng);
        let baselines: [&dyn Defense; 2] = [&suite.nc, &suite.tabor];
        for (di, defense) in baselines.iter().enumerate() {
            for t in 0..k {
                let t0 = std::time::Instant::now();
                let _ = defense.reverse_class(&victim.model, &clean_x, t, &mut rng);
                rows[di].per_class_seconds[t] += t0.elapsed().as_secs_f64() / models as f64;
            }
            progress(&format!(
                "[table7]   {}: {:.1}s total",
                defense.name(),
                rows[di].total() * models as f64 / (m + 1) as f64
            ));
        }
        // USB goes through the timed entry point so the report can split
        // Alg. 1 (UAP) from Alg. 2 (refinement).
        for t in 0..k {
            let t0 = std::time::Instant::now();
            let (_, stages) = suite
                .usb
                .reverse_class_timed(&victim.model, &clean_x, t, &mut rng);
            rows[2].per_class_seconds[t] += t0.elapsed().as_secs_f64() / models as f64;
            rows[2].stages[0].per_class_seconds[t] += stages.uap / models as f64;
            rows[2].stages[1].per_class_seconds[t] += stages.refine / models as f64;
        }
        progress(&format!(
            "[table7]   USB: {:.1}s total (uap {:.1}s, refine {:.1}s)",
            rows[2].total() * models as f64 / (m + 1) as f64,
            rows[2].stages[0].total() * models as f64 / (m + 1) as f64,
            rows[2].stages[1].total() * models as f64 / (m + 1) as f64,
        ));
    }
    TimingReport {
        label: format!("{} ({} models)", spec.title, models),
        rows,
    }
}

/// Serialises a [`TimingReport`] as the machine-readable `BENCH.json`
/// document that tracks the perf trajectory across PRs (CI archives one
/// per run).
///
/// The format is hand-rolled JSON (no serde in this workspace): a flat
/// object with the run metadata — config label, model count, the worker
/// count an inspection would resolve to on this machine — and one entry
/// per defense with per-class seconds, totals, and USB's Alg. 1 / Alg. 2
/// stage split. Numbers are seconds with microsecond precision.
pub fn timing_json(report: &TimingReport, config: &str, models: usize) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    fn secs(v: &[f64]) -> String {
        let items: Vec<String> = v.iter().map(|s| format!("{s:.6}")).collect();
        format!("[{}]", items.join(","))
    }
    let mut rows = Vec::new();
    for row in &report.rows {
        let stages: Vec<String> = row
            .stages
            .iter()
            .map(|st| {
                format!(
                    r#"{{"stage":"{}","per_class_seconds":{},"total":{:.6}}}"#,
                    esc(st.stage),
                    secs(&st.per_class_seconds),
                    st.total()
                )
            })
            .collect();
        rows.push(format!(
            r#"{{"method":"{}","per_class_seconds":{},"total":{:.6},"stages":[{}]}}"#,
            esc(row.method),
            secs(&row.per_class_seconds),
            row.total(),
            stages.join(",")
        ));
    }
    format!(
        "{{\"schema\":\"usb-bench/1\",\"experiment\":\"timing\",\"label\":\"{}\",\
         \"config\":\"{}\",\"models\":{},\"workers\":{},\"kernel\":\"{}\",\
         \"exp_read\":\"{}\",\"rows\":[{}]}}\n",
        esc(&report.label),
        esc(config),
        models,
        usb_tensor::par::worker_threads(),
        usb_tensor::kernels::tier_name(),
        usb_tensor::kernels::exp_read().name(),
        rows.join(",")
    )
}

/// Per-method totals extracted from a `BENCH.json` document: the unit the
/// regression gate compares — one total per defense plus one per named
/// stage (USB's Alg. 1 / Alg. 2 split).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchTotals {
    /// Defense name ("NC", "TABOR", "USB").
    pub method: String,
    /// Total seconds across classes.
    pub total: f64,
    /// `(stage name, total seconds)` per exposed stage.
    pub stages: Vec<(String, f64)>,
}

/// Extracts [`BenchTotals`] from a [`TimingReport`] (the in-memory side of
/// the comparison — what the current run produced).
pub fn report_totals(report: &TimingReport) -> Vec<BenchTotals> {
    report
        .rows
        .iter()
        .map(|row| BenchTotals {
            method: row.method.to_owned(),
            total: row.total(),
            stages: row
                .stages
                .iter()
                .map(|st| (st.stage.to_owned(), st.total()))
                .collect(),
        })
        .collect()
}

/// Parses the per-method / per-stage totals back out of a `BENCH.json`
/// document produced by [`timing_json`] (the baseline side of the
/// comparison).
///
/// This is a scanner for the fixed field order `timing_json` emits — not a
/// general JSON parser (the workspace has none); it rejects documents
/// whose schema line is missing so a foreign file fails loudly instead of
/// comparing garbage.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn parse_bench_totals(json: &str) -> Result<Vec<BenchTotals>, String> {
    if !json.contains(r#""schema":"usb-bench/1""#) {
        return Err("not a usb-bench/1 document (schema field missing)".to_owned());
    }
    /// The number following the first occurrence of `key` in `s`.
    fn number_after(s: &str, key: &str) -> Option<f64> {
        let start = s.find(key)? + key.len();
        let rest = &s[start..];
        let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
        rest[..end].trim().parse().ok()
    }
    // Split the document into per-method segments.
    const METHOD: &str = r#"{"method":""#;
    const STAGE: &str = r#"{"stage":""#;
    let mut starts = Vec::new();
    let mut from = 0usize;
    while let Some(p) = json[from..].find(METHOD) {
        starts.push(from + p);
        from += p + METHOD.len();
    }
    if starts.is_empty() {
        return Err("no method rows found".to_owned());
    }
    let mut out = Vec::new();
    for (i, &start) in starts.iter().enumerate() {
        let end = starts.get(i + 1).copied().unwrap_or(json.len());
        let seg = &json[start + METHOD.len()..end];
        let name_end = seg.find('"').ok_or("unterminated method name")?;
        let method = seg[..name_end].to_owned();
        // The row's own total precedes the "stages" array; searching only
        // up to it keeps stage totals from shadowing the row total.
        let stages_pos = seg
            .find(r#""stages":"#)
            .ok_or_else(|| format!("row {method}: stages field missing"))?;
        let total = number_after(&seg[..stages_pos], r#""total":"#)
            .ok_or_else(|| format!("row {method}: bad or missing total"))?;
        let mut stages = Vec::new();
        let mut sc = &seg[stages_pos..];
        while let Some(spos) = sc.find(STAGE) {
            let s = &sc[spos + STAGE.len()..];
            let send = s.find('"').ok_or("unterminated stage name")?;
            let stage = s[..send].to_owned();
            // The first "total" after the stage name belongs to it (the
            // per_class_seconds array between them holds no keys).
            let total_pos = s
                .find(r#""total":"#)
                .ok_or_else(|| format!("stage {stage}: total field missing"))?;
            let stotal = number_after(&s[total_pos..], r#""total":"#)
                .ok_or_else(|| format!("stage {stage}: bad total"))?;
            stages.push((stage, stotal));
            sc = &s[total_pos..];
        }
        out.push(BenchTotals {
            method,
            total,
            stages,
        });
    }
    Ok(out)
}

/// Compares a current run against a baseline, returning one human-readable
/// line per **regression**: a method or stage whose total exceeds the
/// (speed-normalised) baseline by more than `tolerance` (e.g. `0.25` =
/// 25%). Methods or stages absent from the baseline are ignored (new
/// stages are not regressions); improvements are never reported.
///
/// # Machine-speed normalisation
///
/// Absolute seconds are not comparable across machines — CI runners vary
/// by far more than 25% run-to-run, and the baseline is committed from a
/// developer box. Each entry is therefore gated against its baseline
/// scaled by a **leave-one-out** speed estimate: the ratio of current to
/// baseline grand totals over the *other* shared methods, so a
/// regression in the method under test cannot inflate its own allowance.
/// With a single shared method there is no "other" to estimate machine
/// speed from: the un-normalisable method total is skipped (a documented
/// blind spot, not a silent vacuous pass) and its stages are gated on
/// their *share of the method total* instead, which is
/// machine-independent by construction. A *uniform* slowdown — what a
/// slower machine looks like —
/// cancels exactly; a regression concentrated in one method or stage
/// shifts that entry relative to its peers and survives the scaling. The
/// deliberate blind spot: a change that slows every method by the same
/// factor is indistinguishable from a slow runner without reference
/// hardware, and this gate does not claim to catch it.
pub fn compare_bench_totals(
    current: &[BenchTotals],
    baseline: &[BenchTotals],
    tolerance: f64,
) -> Vec<String> {
    // Grand totals over the shared methods only, so a method added or
    // removed since the baseline cannot skew the speed estimate.
    let mut cur_sum = 0.0f64;
    let mut base_sum = 0.0f64;
    for cur in current {
        if let Some(base) = baseline.iter().find(|b| b.method == cur.method) {
            cur_sum += cur.total;
            base_sum += base.total;
        }
    }
    if base_sum <= 0.0 {
        return Vec::new(); // no overlap with the baseline: nothing to gate
    }
    let mut regressions = Vec::new();
    fn check(
        out: &mut Vec<String>,
        tolerance: f64,
        label: String,
        now: f64,
        then_raw: f64,
        scale: f64,
    ) {
        let then = then_raw * scale;
        // Sub-10ms baselines are noise at wall-clock resolution.
        if then > 0.01 && now > then * (1.0 + tolerance) {
            out.push(format!(
                "{label}: {now:.3}s vs speed-normalised baseline {then:.3}s \
                 (+{:.0}%, tolerance {:.0}%, machine scale {scale:.2}x)",
                (now / then - 1.0) * 100.0,
                tolerance * 100.0
            ));
        }
    }
    for cur in current {
        let Some(base) = baseline.iter().find(|b| b.method == cur.method) else {
            continue;
        };
        // Leave-one-out: estimate machine speed from the *other* methods.
        let (rest_cur, rest_base) = (cur_sum - cur.total, base_sum - base.total);
        if rest_base > 0.0 {
            let scale = rest_cur / rest_base;
            check(
                &mut regressions,
                tolerance,
                cur.method.clone(),
                cur.total,
                base.total,
                scale,
            );
            for (stage, now) in &cur.stages {
                if let Some((_, then)) = base.stages.iter().find(|(s, _)| s == stage) {
                    check(
                        &mut regressions,
                        tolerance,
                        format!("{}/{stage}", cur.method),
                        *now,
                        *then,
                        scale,
                    );
                }
            }
        } else if cur.total > 0.0 && base.total > 0.0 {
            // Sole shared method: the global ratio would make the method
            // gate vacuous (normalised baseline == current total), so skip
            // the total and gate each stage's *share of the method*
            // instead — machine-independent by construction.
            for (stage, now) in &cur.stages {
                if let Some((_, then)) = base.stages.iter().find(|(s, _)| s == stage) {
                    let now_share = now / cur.total;
                    let then_share = then / base.total;
                    if *then > 0.01 && now_share > then_share * (1.0 + tolerance) {
                        regressions.push(format!(
                            "{}/{stage}: {:.1}% of method vs baseline {:.1}% \
                             (+{:.0}%, tolerance {:.0}%; sole method — share gate)",
                            cur.method,
                            now_share * 100.0,
                            then_share * 100.0,
                            (now_share / then_share - 1.0) * 100.0,
                            tolerance * 100.0
                        ));
                    }
                }
            }
        }
    }
    regressions
}

/// Formats a [`TimingReport`] like the paper's Table 7 (time per class),
/// with indented per-stage rows under defenses that expose them.
pub fn format_timing(report: &TimingReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("=== table7 — {} ===\n", report.label));
    let k = report.rows.first().map_or(0, |r| r.per_class_seconds.len());
    out.push_str(&format!("{:<10}", "Method"));
    for t in 0..k {
        out.push_str(&format!(" {:>7}", format!("cls{t}")));
    }
    out.push_str(&format!(" {:>8}\n", "total"));
    for row in &report.rows {
        out.push_str(&format!("{:<10}", row.method));
        for s in &row.per_class_seconds {
            out.push_str(&format!(" {:>7.2}", s));
        }
        out.push_str(&format!(" {:>8.2}\n", row.total()));
        for stage in &row.stages {
            out.push_str(&format!("{:<10}", format!("  ·{}", stage.stage)));
            for s in &stage.per_class_seconds {
                out.push_str(&format!(" {:>7.2}", s));
            }
            out.push_str(&format!(" {:>8.2}\n", stage.total()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_includes_all_methods() {
        let report = TimingReport {
            label: "x".to_owned(),
            rows: vec![
                TimingRow {
                    method: "NC",
                    per_class_seconds: vec![1.0, 2.0],
                    stages: Vec::new(),
                },
                TimingRow {
                    method: "USB",
                    per_class_seconds: vec![0.5, 0.5],
                    stages: vec![
                        StageRow {
                            stage: "uap",
                            per_class_seconds: vec![0.4, 0.3],
                        },
                        StageRow {
                            stage: "refine",
                            per_class_seconds: vec![0.1, 0.2],
                        },
                    ],
                },
            ],
        };
        let s = format_timing(&report);
        assert!(s.contains("NC"));
        assert!(s.contains("USB"));
        assert!(s.contains("3.00"), "totals rendered");
        assert!(s.contains("·uap"), "stage rows rendered");
        assert!(s.contains("·refine"));
        assert!(s.contains("0.70"), "stage totals rendered");
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let report = TimingReport {
            label: "x (1 models)".to_owned(),
            rows: vec![TimingRow {
                method: "USB",
                per_class_seconds: vec![0.5, 0.25],
                stages: vec![StageRow {
                    stage: "uap",
                    per_class_seconds: vec![0.4, 0.1],
                }],
            }],
        };
        let json = timing_json(&report, "fast", 1);
        assert!(json.starts_with('{') && json.ends_with("}\n"));
        assert!(json.contains(r#""schema":"usb-bench/1""#));
        assert!(json.contains(r#""method":"USB""#));
        assert!(json.contains(r#""per_class_seconds":[0.500000,0.250000]"#));
        assert!(json.contains(r#""total":0.750000"#));
        assert!(json.contains(r#""stage":"uap""#));
        assert!(json.contains(r#""config":"fast""#));
        assert!(json.contains(r#""workers":"#));
        // The kernel tier is recorded so cross-machine comparisons are
        // interpretable; the value is whatever this process resolved to.
        assert!(json.contains(&format!(
            r#""kernel":"{}""#,
            usb_tensor::kernels::tier_name()
        )));
        // So is the `exp` table read, which says which code produced a
        // Table 7 number on a given host.
        assert!(json.contains(&format!(
            r#""exp_read":"{}""#,
            usb_tensor::kernels::exp_read().name()
        )));
        // Balanced braces/brackets (a cheap well-formedness proxy without a
        // JSON parser in the workspace).
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn stage_row_totals() {
        let row = StageRow {
            stage: "uap",
            per_class_seconds: vec![0.25, 0.5, 0.25],
        };
        assert!((row.total() - 1.0).abs() < 1e-12);
    }

    fn sample_report() -> TimingReport {
        TimingReport {
            label: "x (1 models)".to_owned(),
            rows: vec![
                TimingRow {
                    method: "NC",
                    per_class_seconds: vec![1.0, 2.0],
                    stages: Vec::new(),
                },
                TimingRow {
                    method: "USB",
                    per_class_seconds: vec![0.5, 0.25],
                    stages: vec![
                        StageRow {
                            stage: "uap",
                            per_class_seconds: vec![0.4, 0.1],
                        },
                        StageRow {
                            stage: "refine",
                            per_class_seconds: vec![0.1, 0.15],
                        },
                    ],
                },
            ],
        }
    }

    #[test]
    fn bench_totals_roundtrip_through_json() {
        let report = sample_report();
        let json = timing_json(&report, "fast", 1);
        let parsed = parse_bench_totals(&json).expect("parse back our own document");
        assert_eq!(parsed, report_totals(&report));
        // Spot-check the values survived with full precision.
        assert_eq!(parsed[1].method, "USB");
        assert!((parsed[1].total - 0.75).abs() < 1e-9);
        assert!((parsed[1].stages[0].1 - 0.5).abs() < 1e-9);
        assert!((parsed[1].stages[1].1 - 0.25).abs() < 1e-9);
    }

    #[test]
    fn parse_rejects_foreign_documents() {
        assert!(parse_bench_totals("{}").is_err());
        assert!(parse_bench_totals(r#"{"schema":"usb-bench/1"}"#).is_err());
    }

    /// The `kernel` and `exp_read` fields are schema-additive: documents
    /// predating them (the committed PR ≤ 9 baselines) and documents
    /// carrying them must parse to the same totals, so `--compare` works
    /// across the boundary.
    #[test]
    fn compare_is_indifferent_to_the_kernel_field() {
        let report = sample_report();
        let with_kernel = timing_json(&report, "fast", 1);
        let strip = |json: &str, key: &str| {
            let field = format!(r#""{key}":""#);
            let pos = json.find(&field).unwrap();
            let end = pos + field.len() + json[pos + field.len()..].find('"').unwrap();
            format!("{}{}", &json[..pos], &json[end + 2..])
        };
        let without_kernel = strip(&strip(&with_kernel, "exp_read"), "kernel");
        assert!(!without_kernel.contains(r#""kernel""#));
        assert!(!without_kernel.contains(r#""exp_read""#));
        let new = parse_bench_totals(&with_kernel).expect("new-format document");
        let old = parse_bench_totals(&without_kernel).expect("old-format document");
        assert_eq!(new, old, "totals must not depend on the kernel field");
        assert!(compare_bench_totals(&new, &old, 0.25).is_empty());
        assert!(compare_bench_totals(&old, &new, 0.25).is_empty());
    }

    #[test]
    fn sole_method_gates_stage_shares_not_vacuous_totals() {
        // One shared method: no peers to estimate machine speed from.
        let base = vec![BenchTotals {
            method: "USB".to_owned(),
            total: 1.0,
            stages: vec![("uap".to_owned(), 0.4), ("refine".to_owned(), 0.6)],
        }];
        // Uniformly slower (slower machine): shares unchanged, passes.
        let slower = vec![BenchTotals {
            method: "USB".to_owned(),
            total: 3.0,
            stages: vec![("uap".to_owned(), 1.2), ("refine".to_owned(), 1.8)],
        }];
        assert!(compare_bench_totals(&slower, &base, 0.25).is_empty());
        // One stage's share ballooning is caught even without peers.
        let skewed = vec![BenchTotals {
            method: "USB".to_owned(),
            total: 2.0,
            stages: vec![("uap".to_owned(), 1.6), ("refine".to_owned(), 0.4)],
        }];
        let lines = compare_bench_totals(&skewed, &base, 0.25);
        assert!(
            lines.iter().any(|l| l.starts_with("USB/uap:")),
            "share gate missed the skew: {lines:?}"
        );
    }

    #[test]
    fn compare_skips_entries_absent_from_the_baseline() {
        let totals = |method: &str, total: f64, stages: &[(&str, f64)]| BenchTotals {
            method: method.to_owned(),
            total,
            stages: stages.iter().map(|(s, t)| ((*s).to_owned(), *t)).collect(),
        };
        let base = vec![
            totals("NC", 1.0, &[("uap", 1.0)]),
            totals("USB", 1.0, &[("uap", 0.5), ("refine", 0.5)]),
            // Retired since the baseline was committed: present there,
            // absent from the current run.
            totals("Retired", 40.0, &[("uap", 40.0)]),
        ];
        // The current run adds a method the baseline has never seen (with
        // a huge total that would wreck the machine-speed estimate if it
        // were counted) and drops the retired one. Both must be skipped —
        // not treated as zero-second baselines — so the shared methods
        // compare clean.
        let current = vec![
            totals("NC", 1.0, &[("uap", 1.0)]),
            totals("USB", 1.0, &[("uap", 0.5), ("refine", 0.5)]),
            totals("NewKid", 50.0, &[("uap", 50.0)]),
        ];
        assert!(
            compare_bench_totals(&current, &base, 0.25).is_empty(),
            "methods absent from one side must not gate or skew the scale"
        );
        // A real regression among the shared methods is still caught with
        // the absentees in the mix.
        let mut regressed = current.clone();
        regressed[1] = totals("USB", 2.0, &[("uap", 0.5), ("refine", 1.5)]);
        let lines = compare_bench_totals(&regressed, &base, 0.25);
        assert!(
            lines.iter().any(|l| l.starts_with("USB/refine:")),
            "shared-method regression missed among absentees: {lines:?}"
        );
        assert!(
            lines
                .iter()
                .all(|l| !l.starts_with("NewKid") && !l.starts_with("Retired")),
            "absent methods leaked into the gate: {lines:?}"
        );
        // No overlap at all: nothing to gate, not a spurious failure.
        let disjoint = vec![totals("NewKid", 50.0, &[("uap", 50.0)])];
        assert!(compare_bench_totals(&disjoint, &base, 0.25).is_empty());
    }

    #[test]
    fn compare_flags_only_regressions_beyond_tolerance() {
        let base = report_totals(&sample_report());
        // Identical run: no regressions.
        assert!(compare_bench_totals(&base, &base, 0.25).is_empty());
        // Uniformly slower — even 2x — looks like a slower machine and is
        // cancelled by the speed normalisation, not reported.
        for factor in [1.2, 2.0] {
            let mut slower = base.clone();
            for r in &mut slower {
                r.total *= factor;
                for s in &mut r.stages {
                    s.1 *= factor;
                }
            }
            assert!(
                compare_bench_totals(&slower, &base, 0.25).is_empty(),
                "uniform {factor}x must be absorbed as machine speed"
            );
        }
        // One stage 2x slower: exactly that stage (and the method total
        // it drags past the gate) is reported.
        let mut regressed = base.clone();
        regressed[1].stages[1].1 *= 2.0;
        regressed[1].total = regressed[1].stages[0].1 + regressed[1].stages[1].1;
        let lines = compare_bench_totals(&regressed, &base, 0.25);
        assert!(
            lines.iter().any(|l| l.starts_with("USB/refine:")),
            "missing stage regression: {lines:?}"
        );
        assert!(lines.iter().all(|l| !l.starts_with("NC")));
        // Faster runs are never regressions.
        let mut faster = base.clone();
        for r in &mut faster {
            r.total *= 0.5;
            for s in &mut r.stages {
                s.1 *= 0.5;
            }
        }
        assert!(compare_bench_totals(&faster, &base, 0.25).is_empty());
    }
}
