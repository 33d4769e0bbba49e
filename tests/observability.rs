//! End-to-end observability contracts: the run ledger and span report
//! ride alongside the fleet pipeline without moving a byte of its
//! pinned output.
//!
//! Unit tests in `fleet_obs` and the engine cover the pieces; these
//! integration tests hold the cross-crate seams:
//!
//! 1. **collection is invisible** — a recording collector produces
//!    scorecard JSON byte-identical to the no-op default;
//! 2. **the ledger tells the truth** — a warm-cache re-run shows cache
//!    hits equal to the job count and zero synthesis work;
//! 3. **reports survive the disk** — a full `RunReport` round-trips
//!    through a file byte-exactly, the path `--report` exercises;
//! 4. **ledgers compose** — shard-half ledgers absorbed into one
//!    collector equal the whole-fleet ledger, the property that makes
//!    distributed runs mergeable like `ScorecardShard`s;
//! 5. **reports consume** — two runs of the same matrix diff to
//!    `Verdict::Clean` under a generous wall threshold, a perturbed
//!    matrix diffs to `Regressed` with ranked findings, the archive
//!    trends appended reports, the chrome-trace export is a valid
//!    event array, and a report of another schema than
//!    `fleet-run-report/2` is rejected by name.

use fleet_obs::{Finding, ScenarioDrift};
use scenario_fleet::{
    Catalog, Collector, DiffConfig, FleetEngine, FleetMatrix, Ledger, ManagerSpec, PredictorSpec,
    ReportDiff, RunArchive, RunReport, TraceCachePolicy, Verdict,
};

fn smoke_matrix(scenarios: &[&str]) -> FleetMatrix {
    let catalog = Catalog::builtin();
    FleetMatrix::new(
        PredictorSpec::guideline_family(),
        vec![ManagerSpec::EnergyNeutral {
            target_soc: 0.5,
            gain: 0.25,
        }],
        scenarios
            .iter()
            .map(|name| catalog.get(name).expect("builtin").clone())
            .collect(),
    )
    .expect("matrix assembles")
}

#[test]
fn recording_collector_leaves_the_scorecard_byte_identical() {
    let matrix = smoke_matrix(&["desert-clear-sky", "marine-fog", "arctic-winter"]);
    let plain = FleetEngine::new(7).run(&matrix).expect("plain run");
    let collector = Collector::recording();
    let observed = FleetEngine::new(7)
        .with_collector(collector.clone())
        .run(&matrix)
        .expect("observed run");
    assert_eq!(
        plain.scorecard.to_json_string(),
        observed.scorecard.to_json_string(),
        "collection must not move a byte of the scorecard"
    );
    // And the ledger actually recorded the run.
    let ledger = collector.ledger();
    assert_eq!(ledger.counter("jobs/evaluated"), matrix.job_count() as u64);
    assert_eq!(ledger.counter("score/scenarios_ranked"), 3);
}

#[test]
fn warm_cache_rerun_ledger_shows_hits_equal_jobs_and_zero_synthesis() {
    let matrix = smoke_matrix(&["desert-clear-sky", "marine-fog"]);
    let engine = FleetEngine::new(11);
    let mut cache = engine.new_cache();
    engine.run_cached(&matrix, &mut cache).expect("cold run");

    let collector = Collector::recording();
    let warm_engine = FleetEngine::new(11).with_collector(collector.clone());
    let warm = warm_engine
        .run_cached(&matrix, &mut cache)
        .expect("warm run");
    assert_eq!(warm.cached_jobs, matrix.job_count());

    let ledger = collector.ledger();
    assert_eq!(ledger.counter("cache/job_hits"), matrix.job_count() as u64);
    assert_eq!(ledger.counter("cache/job_misses"), 0);
    assert_eq!(ledger.counter("jobs/fresh"), 0);
    assert_eq!(ledger.counter("synth/trace_generations"), 0);
    assert_eq!(ledger.counter("synth/keystream_blocks"), 0);
    assert_eq!(ledger.counter("slots/processed"), 0);
}

#[test]
fn run_report_round_trips_through_a_file() {
    let matrix = smoke_matrix(&["desert-clear-sky", "marine-fog"]);
    let collector = Collector::recording();
    FleetEngine::new(3)
        .with_trace_cache(TraceCachePolicy::bounded(4 << 20))
        .with_collector(collector.clone())
        .run(&matrix)
        .expect("observed run");

    let report = collector.report();
    assert!(report.wall_ns > 0, "the run took time");
    assert!(
        !report.scenario_top.is_empty(),
        "per-scenario timings recorded"
    );
    let text = report.to_json_string();

    let path = std::env::temp_dir().join("fleet_obs_report_roundtrip.json");
    std::fs::write(&path, &text).expect("write report");
    let read_back = std::fs::read_to_string(&path).expect("read report");
    let parsed = RunReport::from_json_str(&read_back).expect("report parses");
    assert_eq!(
        parsed.to_json_string(),
        text,
        "report must round-trip through disk byte-exactly"
    );
    // The parsed ledger is the recorded ledger.
    assert_eq!(
        parsed.ledger.to_json_string(),
        collector.ledger().to_json_string()
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn shard_half_ledgers_absorb_into_the_whole_fleet_ledger() {
    let catalog = Catalog::builtin();
    let names = [
        "desert-clear-sky",
        "marine-fog",
        "arctic-winter",
        "equatorial-rainband",
    ];
    let scenarios: Vec<_> = names
        .iter()
        .map(|name| catalog.get(name).expect("builtin").clone())
        .collect();
    let predictors = PredictorSpec::guideline_family();
    let managers = vec![ManagerSpec::Greedy];
    // A configured budget, so the ledger carries its byte gauge.
    let engine = || FleetEngine::new(5).with_trace_cache(TraceCachePolicy::bounded(128 << 20));

    let whole = Collector::recording();
    let whole_matrix = FleetMatrix::new(predictors.clone(), managers.clone(), scenarios.clone())
        .expect("whole matrix");
    engine()
        .with_collector(whole.clone())
        .run(&whole_matrix)
        .expect("whole run");

    // The whole-fleet ledger carries the distribution plane too — the
    // halves must reassemble it bucket-for-bucket below.
    assert!(whole.ledger().histogram("score/mape").is_some());

    // Evaluate the two scenario halves as independent runs — separate
    // collectors, as two hosts would — then absorb both ledgers into
    // one. Every counter in the fleet ledger is per-scenario work, so
    // the absorbed sum must equal the whole-fleet ledger exactly —
    // histograms included, since `to_json_string` renders every plane.
    let combined = Collector::recording();
    for half in scenarios.chunks(2) {
        let part = Collector::recording();
        let matrix = FleetMatrix::new(predictors.clone(), managers.clone(), half.to_vec())
            .expect("half matrix");
        engine()
            .with_collector(part.clone())
            .run(&matrix)
            .expect("half run");
        combined
            .absorb_ledger(&part.ledger())
            .expect("halves absorb");
    }
    assert_eq!(
        combined.ledger().to_json_string(),
        whole.ledger().to_json_string(),
        "absorbed shard ledgers must equal the whole-fleet ledger"
    );
}

/// A wall config so generous that only deterministic-plane deltas can
/// move the verdict — what the CI sentinel uses, since wall time is
/// machine noise but counters and histograms are contracts.
fn counters_only_config() -> DiffConfig {
    DiffConfig {
        wall_noise_ratio: 1e9,
        wall_regress_ratio: 1e9,
        ..DiffConfig::default()
    }
}

#[test]
fn same_matrix_runs_diff_clean_across_thread_counts() {
    let matrix = smoke_matrix(&["desert-clear-sky", "marine-fog", "arctic-winter"]);
    let mut reports = Vec::new();
    for threads in [1usize, 4] {
        let collector = Collector::recording();
        // A configured budget: a detected one would move the budget
        // gauge with the machine's free memory between the two runs.
        FleetEngine::new(7)
            .with_trace_cache(TraceCachePolicy::bounded(4 << 20))
            .with_threads(threads)
            .with_collector(collector.clone())
            .run(&matrix)
            .expect("run");
        reports.push(collector.report());
    }
    let diff = ReportDiff::compute(&reports[0], &reports[1], &counters_only_config());
    assert_eq!(diff.verdict, Verdict::Clean);
    // No counter, gauge, label, histogram or scenario finding.
    assert!(diff.findings.iter().all(|f| matches!(f, Finding::Span(_))));
    // And the engine actually recorded distributions to compare: one
    // MAPE sample per distinct predictor per scenario unit.
    let mape = reports[0]
        .ledger
        .histogram("score/mape")
        .expect("mape histogram");
    assert_eq!(
        mape.count(),
        (matrix.predictors.len() * matrix.scenarios.len()) as u64
    );
    assert_eq!(
        reports[0]
            .ledger
            .histogram("fleet/unit_slots")
            .expect("unit_slots histogram")
            .count(),
        matrix.scenarios.len() as u64
    );
}

#[test]
fn perturbed_matrix_diffs_regressed_with_ranked_findings() {
    let run = |names: &[&str]| {
        let collector = Collector::recording();
        FleetEngine::new(7)
            .with_collector(collector.clone())
            .run(&smoke_matrix(names))
            .expect("run");
        collector.report()
    };
    let before = run(&["desert-clear-sky", "marine-fog", "arctic-winter"]);
    let after = run(&["desert-clear-sky", "marine-fog"]);
    let diff = ReportDiff::compute(&before, &after, &counters_only_config());
    assert_eq!(diff.verdict, Verdict::Regressed);
    let drift: Vec<&ScenarioDrift> = diff
        .findings
        .iter()
        .filter_map(|f| match f {
            Finding::Drift(s) => Some(s),
            _ => None,
        })
        .collect();
    assert!(!drift.is_empty());
    // The dropped scenario leads the ranking: all of its work vanished.
    assert_eq!(drift[0].scenario, "arctic-winter");
    for pair in drift.windows(2) {
        assert!(
            pair[0].magnitude >= pair[1].magnitude,
            "drift must rank by magnitude"
        );
    }
    assert!(
        diff.findings
            .iter()
            .any(|f| matches!(f, Finding::Histogram(_))),
        "MAPE distribution moved"
    );
    let markdown = diff.render_markdown();
    assert!(markdown.contains("**Verdict: regressed**"));
    assert!(markdown.contains("Worst-regressing scenarios"));
    assert!(markdown.contains("arctic-winter"));
    assert!(markdown.contains("Histogram drift"));
}

#[test]
fn archive_appends_and_trends_engine_reports() {
    let path =
        std::env::temp_dir().join(format!("fleet_obs_it_archive_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    for (run_id, names) in [
        ("run-a", vec!["desert-clear-sky"]),
        ("run-b", vec!["desert-clear-sky", "marine-fog"]),
    ] {
        let collector = Collector::recording();
        FleetEngine::new(7)
            .with_collector(collector.clone())
            .run(&smoke_matrix(&names))
            .expect("run");
        RunArchive::append(&path, run_id, &collector.report()).expect("append");
    }
    let archive = RunArchive::load(&path).expect("load");
    assert_eq!(archive.entries.len(), 2);
    assert_eq!(archive.entries[0].run_id, "run-a");
    let trend = archive.trend_text(10);
    assert!(trend.contains("run-a") && trend.contains("run-b"));
    assert!(trend.contains("jobs/evaluated"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn chrome_trace_export_is_a_valid_complete_event_array() {
    let collector = Collector::recording();
    FleetEngine::new(3)
        .with_collector(collector.clone())
        .run(&smoke_matrix(&["desert-clear-sky", "marine-fog"]))
        .expect("run");
    let report = collector.report();
    let text = fleet_obs::chrome_trace_string(&report);
    let parsed = scenario_fleet::json::Json::parse(&text).expect("trace parses");
    let scenario_fleet::json::Json::Arr(events) = &parsed else {
        panic!("chrome trace must be a JSON array");
    };
    assert!(events.len() >= 2, "root plus at least one phase");
    for event in events {
        assert_eq!(event.req_str("ph").unwrap(), "X", "complete events only");
        assert!(event.req_num("ts").unwrap() >= 0.0);
        assert!(event.req_num("dur").unwrap() >= 0.0);
        event.req_num("pid").unwrap();
        event.req_num("tid").unwrap();
        event.req_str("name").unwrap();
    }
}

#[test]
fn a_v1_report_is_rejected_naming_its_schema() {
    let v2 = RunReport::empty().to_json_string();
    RunReport::from_json_str(&v2).expect("a /2 report parses");
    let v1 = v2.replace("fleet-run-report/2", "fleet-run-report/1");
    let err = RunReport::from_json_str(&v1).expect_err("/1 reports are not read");
    assert!(err.contains("fleet-run-report/1"), "{err}");
}

#[test]
fn ledger_merge_is_order_independent_and_validates_labels() {
    let mut a = Ledger::new();
    a.count("jobs/evaluated", 3);
    a.count_scenario("desert", "slots/processed", 100);
    a.gauge("admission/trace_budget_bytes", 512);
    a.label("admission/trace_budget_source", "configured");

    let mut b = Ledger::new();
    b.count("jobs/evaluated", 4);
    b.count_scenario("marine", "slots/processed", 50);
    b.gauge("admission/trace_budget_bytes", 1024);
    b.label("admission/trace_budget_source", "configured");

    let mut ab = a.clone();
    ab.merge(&b).expect("merge a+b");
    let mut ba = b.clone();
    ba.merge(&a).expect("merge b+a");
    assert_eq!(ab.to_json_string(), ba.to_json_string());
    assert_eq!(ab.counter("jobs/evaluated"), 7);
    // Gauges take the maximum; labels must agree.
    assert_eq!(ab.gauge_value("admission/trace_budget_bytes"), Some(1024));
    let mut conflicting = Ledger::new();
    conflicting.label("admission/trace_budget_source", "unbounded");
    assert!(
        a.clone().merge(&conflicting).is_err(),
        "conflicting labels must refuse to merge"
    );
}

proptest::proptest! {
    /// The histogram analogue of the counter-absorption test above,
    /// over arbitrary observation streams: observing a sequence into
    /// one ledger equals splitting it at any point into two shard-half
    /// ledgers and merging — bucket-wise, byte-for-byte.
    #[test]
    fn shard_half_histograms_absorb_bucket_wise_into_the_whole(
        values in proptest::collection::vec(
            proptest::prop_oneof![
                // Spanning the bucket range, plus the zero bucket and
                // clamped extremes.
                1e-12f64..1e12,
                proptest::prop_oneof![
                    proptest::prelude::Just(0.0f64),
                    proptest::prelude::Just(-3.5f64),
                    proptest::prelude::Just(1e300f64),
                ],
            ],
            1..40,
        ),
        split_at in 0usize..40,
    ) {
        let split_at = split_at.min(values.len());
        let mut whole = Ledger::new();
        for &v in &values {
            whole.observe("score/mape", v);
        }
        let mut left = Ledger::new();
        for &v in &values[..split_at] {
            left.observe("score/mape", v);
        }
        let mut right = Ledger::new();
        for &v in &values[split_at..] {
            right.observe("score/mape", v);
        }
        let mut combined = left.clone();
        combined.merge(&right).unwrap();
        proptest::prop_assert_eq!(combined.to_json_string(), whole.to_json_string());
        // And in the other merge order (commutativity).
        let mut swapped = right;
        swapped.merge(&left).unwrap();
        proptest::prop_assert_eq!(swapped.to_json_string(), whole.to_json_string());
        // The whole histogram holds every observation.
        proptest::prop_assert_eq!(
            whole.histogram("score/mape").unwrap().count(),
            values.len() as u64
        );
    }
}
