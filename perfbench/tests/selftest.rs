//! Self-tests of the benchmark's own logic: percentiles, span self time,
//! metric names, host-speed calibration, the churn rotation and the
//! command line.

use perfbench::calib::{rescale, Clock, REFERENCE_S};
use perfbench::churn::{churn_order, rotation};
use perfbench::report::{valid_metric_name, Outcome};
use perfbench::run::{Args, Workload, MIN_OPS};
use perfbench::stats::{median, min_samples_for, nearest_rank, percentile, samples_beyond};
use perfbench::trace::{self_times, Span, Tracer};

#[test]
fn percentiles_use_nearest_rank() {
    assert_eq!(nearest_rank(100, 50), 50);
    assert_eq!(nearest_rank(100, 75), 75);
    assert_eq!(nearest_rank(40, 75), 30);
    assert_eq!(nearest_rank(3, 50), 2);
    assert_eq!(nearest_rank(1, 75), 1);
    assert_eq!(nearest_rank(7, 100), 7);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    assert_eq!(median(&[]), None);
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(samples_beyond(40, 75), 10);
    assert_eq!(samples_beyond(39, 75), 9);
    assert_eq!(min_samples_for(75), 40);
    assert_eq!(min_samples_for(66), 30);
    assert_eq!(samples_beyond(30, 67), 9);
    assert_eq!(min_samples_for(50), 20);
    assert_eq!(min_samples_for(50), MIN_OPS);
    assert_eq!(min_samples_for(90), 100);
    let samples: Vec<f64> = (1..=40).map(f64::from).rev().collect();
    assert_eq!(percentile(&samples, 75), Some(30.0));
    assert_eq!(percentile(&samples[..39], 75), None);
    assert_eq!(percentile(&samples, 90), None);
    assert_eq!(percentile(&[], 50), None);
}

fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name: "x",
        request: 0,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children_inside_the_parent() {
    let spans = [
        span(1, None, 0, 100),
        // Two overlapping children: together they cover 10..60 once.
        span(2, Some(1), 10, 40),
        span(3, Some(1), 30, 60),
        // Nested under child 2: no effect on the parent's self time.
        span(4, Some(2), 15, 20),
        // Runs past the parent's end: only 90..100 is covered.
        span(5, Some(1), 90, 120),
        // Starts before its parent 5: only 90..95 counts against it.
        span(6, Some(5), 80, 95),
    ];
    let own = self_times(&spans);
    assert_eq!(own[&1], 100 - 50 - 10);
    assert_eq!(own[&2], 30 - 5);
    assert_eq!(own[&3], 30);
    assert_eq!(own[&4], 5);
    assert_eq!(own[&5], 30 - 5);
    assert_eq!(own[&6], 15);
}

#[test]
fn child_inside_an_earlier_child_is_not_counted_twice() {
    let spans = [
        span(1, None, 0, 100),
        span(2, Some(1), 10, 80),
        span(3, Some(1), 20, 30),
        span(4, Some(1), 70, 90),
    ];
    assert_eq!(self_times(&spans)[&1], 100 - 80);
}

#[test]
fn tracer_links_children_and_records_nothing_when_off() {
    let tracer = Tracer::new(true);
    tracer.span("outer", None, 7, |outer| {
        assert!(outer.is_some());
        tracer.span("inner", outer, 7, |_| ());
    });
    let spans = tracer.spans();
    assert_eq!(spans.len(), 2);
    let (outer, inner) = (&spans[0], &spans[1]);
    assert_eq!((outer.name, inner.name), ("outer", "inner"));
    assert_eq!(inner.parent, Some(outer.id));
    assert_eq!((outer.request, inner.request), (7, 7));
    assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    assert!(self_times(&spans)[&outer.id] <= outer.duration_ns());

    tracer.set_enabled(false);
    assert_eq!(tracer.span("off", None, 0, |id| id), None);
    assert_eq!(tracer.spans().len(), 2);
}

#[test]
fn metric_names_use_the_allowed_charset() {
    for ok in [
        "setup_s",
        "core.uap_s",
        "serve.cache_hit_ratio",
        "a-b",
        "9lives",
        "x",
    ] {
        assert!(valid_metric_name(ok), "{ok}");
    }
    let long = "a".repeat(65);
    for bad in [
        "",
        "_x",
        ".x",
        "-x",
        "a b",
        "a/b",
        "a\"b",
        "é",
        long.as_str(),
    ] {
        assert!(!valid_metric_name(bad), "{bad}");
    }
    assert!(valid_metric_name(&"a".repeat(64)));
}

#[test]
fn result_line_refuses_bad_metrics() {
    let mut outcome = Outcome::default();
    outcome.check(true);
    outcome.push("latency_ms", 1.25, "ms");
    let line = outcome.to_json().expect("valid outcome");
    assert_eq!(
        line,
        r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"latency_ms": {"value": 1.25, "unit": "ms"}}}"#
    );
    let mut twice = outcome.clone();
    twice.push("latency_ms", 2.0, "ms");
    assert!(twice.to_json().is_err());
    let mut bad_name = outcome.clone();
    bad_name.push("bad name", 2.0, "ms");
    assert!(bad_name.to_json().is_err());
    let mut nan = outcome.clone();
    nan.push("other", f64::NAN, "ms");
    assert!(nan.to_json().is_err());
    outcome.check(false);
    assert!(outcome
        .to_json()
        .unwrap()
        .starts_with(r#"{"correct": false, "attempted": 2, "failed": 1"#));
}

#[test]
fn calibration_rescales_to_the_reference_host() {
    let r = REFERENCE_S;
    // At the reference speed a duration is unchanged; on a host twice as
    // slow it halves.
    assert!((rescale(1.5, r, r) - 1.5).abs() < 1e-12);
    assert!((rescale(1.5, 2.0 * r, 2.0 * r) - 0.75).abs() < 1e-12);
    // The calibrations before and after are averaged.
    assert!((rescale(1.0, r, 3.0 * r) - 0.5).abs() < 1e-12);

    let mut clock = Clock::new(2);
    let (out, s) = clock.time(|| 7);
    assert_eq!(out, 7);
    assert!(s >= 0.0 && s.is_finite());
    // Before and after; a second operation right away reuses the last.
    assert_eq!(clock.samples().len(), 2);
    clock.time(|| ());
    assert_eq!(clock.samples().len(), 3);
    assert!(clock.samples().iter().all(|&k| k > 0.0));
}

#[test]
fn churn_rotation_never_repeats_a_bundle_back_to_back() {
    for seed in 0..200 {
        let order = churn_order(seed);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, [0, 1, 2], "seed {seed}: not a permutation");
        assert_eq!(order[0], 0, "seed {seed}: the f32 bundle must come first");
        for k in 0..300 {
            assert_ne!(
                rotation(&order, k),
                rotation(&order, k + 1),
                "seed {seed}, k {k}"
            );
        }
    }
    assert_eq!(churn_order(5), churn_order(5));
    assert!(
        (0..20).any(|s| churn_order(s) != churn_order(0)),
        "the seed must pick the order"
    );
}

#[test]
fn command_line_takes_workload_seed_seconds_and_trace() {
    let parse = |s: &str| Args::parse(s.split_whitespace().map(str::to_owned));
    let args = parse("--workload serve-churn --seed 4 --seconds 30 --trace 1").unwrap();
    assert_eq!(args.workload, Workload::ServeChurn);
    assert_eq!((args.seed, args.seconds, args.trace), (4, 30.0, true));
    assert!(parse("--workload serve-churn --seed 4 --seconds 30").is_err());
    assert!(parse("--workload nope --seed 4 --seconds 30 --trace 0").is_err());
    assert!(parse("--workload effnet-table7 --seed 4 --seconds 0 --trace 0").is_err());
    assert!(parse("--workload effnet-table7 --seed 4 --seconds 30 --trace 2").is_err());
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
}
