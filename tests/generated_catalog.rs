//! Generator-space property tests and the generated-fleet golden pin.
//!
//! The parameterized catalog generators widen the evaluation surface
//! from 13 hand-written regimes to hundreds; these tests hold the three
//! contracts that make that scale trustworthy:
//!
//! 1. **generator space is well-formed** — for arbitrary seeds and axis
//!    ranges, every generated scenario round-trips through JSON
//!    byte-exactly, carries a unique stable id, and classifies into
//!    exactly one climate regime ([`Regime::of`]);
//! 2. **the pipeline is path-independent** — scorecards agree
//!    byte-for-byte whether slot series are retained or dropped, on
//!    sampled generated matrices and across day-appends, and
//!    a sharded 200-regime run merges back to the unsharded scorecard
//!    byte-for-byte;
//! 3. **the 200-regime scorecard is pinned** — one golden FNV-1a digest
//!    across 1/2/8 worker threads and multiple shard counts, evaluated
//!    under a 4 MiB retention budget that keeps most of the fleet's slot
//!    series and drops the rest.

use fleet_tuner::{group_by_regime, Regime};
use proptest::prelude::*;
use scenario_fleet::{
    Catalog, CatalogGenerator, Climate, Collector, FaultMix, FleetDelta, FleetEngine, FleetMatrix,
    ManagerSpec, NodeProfile, PredictorSpec, RegimeTemplate, Scenario, Scorecard, StreamVersion,
    TraceCachePolicy,
};

/// The regime a generated (Shaped) scenario must land in.
fn expected_regime(climate: Climate) -> Regime {
    match climate {
        Climate::Desert => Regime::Desert,
        Climate::Temperate => Regime::Temperate,
        Climate::Marine => Regime::Marine,
        Climate::Monsoon => Regime::Monsoon,
        Climate::Arctic => Regime::Arctic,
    }
}

/// A one-family template assembled from arbitrary axis draws
/// (deduplicated — duplicate axis values are a template error by
/// contract).
fn arbitrary_template() -> impl Strategy<Value = RegimeTemplate> {
    let dedup = |v: Vec<f64>| {
        let mut out: Vec<f64> = Vec::new();
        for x in v {
            if !out.iter().any(|y| y.to_bits() == x.to_bits()) {
                out.push(x);
            }
        }
        out
    };
    (
        0usize..Climate::ALL.len(),
        proptest::collection::vec(-80.0f64..80.0, 1..4).prop_map(dedup),
        proptest::collection::vec(0.2f64..4.0, 1..3).prop_map(dedup),
        proptest::collection::vec(0.0f64..0.7, 1..3).prop_map(dedup),
        0usize..3,
    )
        .prop_map(
            |(climate_idx, latitudes, cloudiness, turbidity, mix_idx)| RegimeTemplate {
                family: "prop-family".to_string(),
                climate: Climate::ALL[climate_idx],
                latitudes_deg: latitudes,
                cloudiness,
                turbidity,
                nodes: vec![NodeProfile::Mote, NodeProfile::TinyMote],
                fault_mixes: vec![
                    FaultMix::Clean,
                    [FaultMix::Aging, FaultMix::Gappy, FaultMix::Dimmed][mix_idx],
                ],
                days: 30,
                slots_per_day: 48,
                resolution_minutes: 5,
                stream_version: StreamVersion::V1,
            },
        )
}

/// `template`'s scenarios under `seed`, as a validated catalog.
fn expand(template: &RegimeTemplate, seed: u64) -> Catalog {
    let mut catalog = Catalog::new();
    for scenario in template.expand(seed).unwrap() {
        catalog.push(scenario).unwrap();
    }
    catalog
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn generated_scenarios_round_trip_with_unique_ids_and_one_regime(
        template in arbitrary_template(),
        seed in 0u64..1_000_000,
    ) {
        let catalog = expand(&template, seed);
        prop_assert_eq!(catalog.len(), template.count());
        let mut seen = std::collections::BTreeSet::new();
        for scenario in catalog.scenarios() {
            // Unique, seed-salted id.
            prop_assert!(seen.insert(scenario.name.clone()), "{} repeats", scenario.name);
            prop_assert!(scenario.name.starts_with(&format!("g{seed:x}-")));
            // Byte-exact JSON round trip.
            let text = scenario.to_json().render_pretty();
            let back = Scenario::from_json_str(&text).unwrap();
            prop_assert_eq!(&back, scenario);
            prop_assert_eq!(back.to_json().render_pretty(), text);
            // Exactly one regime family, and the right one.
            prop_assert_eq!(Regime::of(scenario), expected_regime(template.climate));
        }
        let groups = group_by_regime(catalog.scenarios());
        let total: usize = groups.iter().map(|(_, v)| v.len()).sum();
        prop_assert_eq!(total, catalog.len(), "regime grouping must partition");
        prop_assert_eq!(groups.len(), 1, "one climate family per template");
    }

    #[test]
    fn builtin_generator_spans_families_for_any_seed(seed in 0u64..1_000_000) {
        let catalog = CatalogGenerator::new(seed).generate(25).unwrap();
        let groups = group_by_regime(catalog.scenarios());
        let total: usize = groups.iter().map(|(_, v)| v.len()).sum();
        prop_assert_eq!(total, catalog.len());
        prop_assert_eq!(groups.len(), Regime::ALL.len(),
            "round-robin generation must cover every regime family");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn streamed_and_materialized_scorecards_agree_on_generated_matrices(
        seed in 0u64..100_000,
        count in 2usize..6,
    ) {
        let catalog = CatalogGenerator::new(seed).generate(count).unwrap();
        let matrix = FleetMatrix::new(
            vec![PredictorSpec::Wcma { alpha: 0.7, days: 10, k: 2 }],
            vec![ManagerSpec::EnergyNeutral { target_soc: 0.5, gain: 0.25 }],
            catalog.scenarios().to_vec(),
        ).unwrap();
        let materialized = FleetEngine::new(seed).run(&matrix).unwrap();
        let streaming_engine =
            FleetEngine::new(seed).with_trace_cache(TraceCachePolicy::bounded(0));
        let mut cache = streaming_engine.new_cache();
        let streamed = streaming_engine.run_cached(&matrix, &mut cache).unwrap();
        prop_assert_eq!(streamed.streamed_jobs, matrix.job_count());
        prop_assert_eq!(cache.trace_count(), 0, "streaming-only must retain nothing");
        prop_assert_eq!(
            streamed.scorecard.to_json_string(),
            materialized.scorecard.to_json_string(),
            "dropped vs retained series scorecards must be byte-identical"
        );
    }

    /// Appending `k` days to a small generated fleet and re-scoring
    /// through [`FleetEngine::run_delta`] matches a cold run byte for
    /// byte under every retention policy: everything kept, a budget
    /// that keeps about one series, and nothing kept (bare generator
    /// tails only). Every unit resumes, or falls back on its ROI peak or
    /// on a trace gap placed before its checkpoint; none falls back for
    /// want of a checkpoint.
    #[test]
    fn day_append_matches_cold_under_every_retention_policy(
        seed in 0u64..100_000,
        count in 2usize..5,
        k in 1usize..=3,
    ) {
        let catalog = CatalogGenerator::new(seed).generate(count).unwrap();
        let matrix = FleetMatrix::new(
            vec![
                PredictorSpec::Wcma { alpha: 0.7, days: 10, k: 2 },
                PredictorSpec::Persistence,
            ],
            vec![ManagerSpec::EnergyNeutral { target_soc: 0.5, gain: 0.25 }],
            catalog.scenarios().to_vec(),
        ).unwrap();
        let mut grown = matrix.clone();
        for scenario in &mut grown.scenarios {
            scenario.days += k;
        }
        let delta = FleetDelta::classify(&matrix, &grown).unwrap();
        // 16 B per slot plus a struct's worth of headroom: room for the
        // first series, not for all of them.
        let first = &matrix.scenarios[0];
        let about_one_series = (first.days * first.slots_per_day as usize * 16 + 4096) as u64;
        let cold = FleetEngine::new(seed).run(&grown).unwrap().scorecard.to_json_string();
        for (policy, kept) in [
            (TraceCachePolicy::unbounded(), count..=count),
            (TraceCachePolicy::bounded(about_one_series), 1..=count - 1),
            (TraceCachePolicy::bounded(0), 0..=0),
        ] {
            let engine = FleetEngine::new(seed).with_trace_cache(policy);
            let mut cache = engine.new_cache();
            engine.run_cached(&matrix, &mut cache).unwrap();
            prop_assert!(kept.contains(&cache.trace_count()), "{:?}", policy);
            let collector = Collector::recording();
            let incremental = engine
                .clone()
                .with_collector(collector.clone())
                .run_delta(&grown, &mut cache, &delta)
                .unwrap();
            prop_assert_eq!(&incremental.scorecard.to_json_string(), &cold, "{:?}", policy);
            let ledger = collector.ledger();
            prop_assert_eq!(ledger.counter("delta/cold_fallbacks"), 0, "{:?}", policy);
            prop_assert_eq!(
                ledger.counter("delta/resumed_units")
                    + ledger.counter("delta/peak_fallbacks")
                    + ledger.counter("delta/gap_fallbacks"),
                count as u64,
                "{:?}",
                policy
            );
        }
    }
}

/// Seed of the pinned 200-regime run.
const GOLDEN_SEED: u64 = 2026;
/// FNV-1a digest of the 200-regime scorecard JSON. This is a golden
/// regression pin: it must not move unless the scorecard format, the
/// generator templates, or the synthesis pipeline deliberately change.
const GOLDEN_DIGEST: u64 = 0xf6f8_c0ad_9b38_dde4;
/// FNV-1a digest of the same 200 regimes on the
/// [`StreamVersion::V2`] lane-order stream (`-v2` scenario ids). A
/// *different* stream than v1 by design — pinned independently so the
/// vectorized path is held to the same cross-thread/cross-shard
/// byte-identity bar.
const GOLDEN_DIGEST_V2: u64 = 0x99ac_0ff1_d550_4088;

#[test]
fn golden_200_regime_scorecard_is_identical_across_threads_and_shards() {
    let catalog = CatalogGenerator::new(GOLDEN_SEED).generate(200).unwrap();
    assert_eq!(catalog.len(), 200);
    let matrix = FleetMatrix::new(
        vec![PredictorSpec::Wcma {
            alpha: 0.7,
            days: 10,
            k: 2,
        }],
        vec![ManagerSpec::EnergyNeutral {
            target_soc: 0.5,
            gain: 0.25,
        }],
        catalog.scenarios().to_vec(),
    )
    .unwrap();

    let budget = 4u64 << 20;
    let mut reference: Option<String> = None;
    // The deterministic ledger is held to the same bar as the scorecard:
    // byte-identical across thread counts — a recording collector on
    // every config also proves collection never moves the golden digest.
    // (The merge ledger's shard-split invariance is pinned on the
    // supervisor, which records it, in tests/harness.rs.)
    let mut ledger_reference: Option<String> = None;
    // Full run reports per thread config, diffed pairwise below: the
    // report-diff verdict must read the same byte-identity the string
    // comparisons pin, through the `ReportDiff` machinery.
    let mut reports = Vec::new();
    for threads in [1usize, 2, 8] {
        let collector = Collector::recording();
        let engine = FleetEngine::new(GOLDEN_SEED)
            .with_threads(threads)
            .with_trace_cache(TraceCachePolicy::bounded(budget))
            .with_collector(collector.clone());
        let mut cache = engine.new_cache();
        let result = engine.run_cached(&matrix, &mut cache).unwrap();
        // The 4 MiB budget retains most of the 200 series (16 B per
        // slot); the tail of the matrix order runs without retention.
        assert!(
            result.streamed_jobs > 0 && cache.trace_count() > 100,
            "threads {threads}: {} jobs not retained, {} series kept",
            result.streamed_jobs,
            cache.trace_count()
        );
        assert!(cache.trace_bytes() as u64 <= budget);
        let json = result.scorecard.to_json_string();
        let ledger_json = collector.ledger().to_json_string();
        reports.push(collector.report());
        match &ledger_reference {
            None => ledger_reference = Some(ledger_json),
            Some(reference) => assert_eq!(
                &ledger_json, reference,
                "threads {threads}: ledger bytes diverged"
            ),
        }

        // Sharded reductions (answered from the warm cache) merge back
        // to the monolithic scorecard byte-for-byte, whether the fleet
        // was split 2 or 7 ways.
        for shard_count in [2usize, 7] {
            let sharded = engine
                .run_sharded_cached(&matrix, shard_count, &mut cache)
                .unwrap();
            assert_eq!(sharded.cached_jobs, matrix.job_count());
            assert_eq!(sharded.shards.len(), shard_count);
            let merged = Scorecard::merge_shards(&sharded.manifest, &sharded.shards).unwrap();
            assert_eq!(
                merged.to_json_string(),
                json,
                "threads {threads}, {shard_count} shards: merge diverged"
            );
        }

        match &reference {
            None => reference = Some(json),
            Some(reference) => assert_eq!(
                &json, reference,
                "threads {threads}: scorecard bytes diverged"
            ),
        }
    }

    let digest = solar_trace::hash::fnv1a(reference.as_ref().unwrap());
    assert_eq!(
        digest, GOLDEN_DIGEST,
        "200-regime scorecard digest drifted — if the change is deliberate \
         (scorecard format, templates, or synthesis), re-pin GOLDEN_DIGEST"
    );

    // The report-diff view of the same contract: pairing the golden
    // runs across thread counts must come back `Clean` with zero
    // counter and histogram deltas (wall thresholds generous — timing
    // is the one plane allowed to move).
    let config = fleet_obs::DiffConfig {
        wall_noise_ratio: 1e9,
        wall_regress_ratio: 1e9,
        ..fleet_obs::DiffConfig::default()
    };
    for other in &reports[1..] {
        let diff = fleet_obs::ReportDiff::compute(&reports[0], other, &config);
        assert_eq!(diff.verdict, fleet_obs::Verdict::Clean);
        // No counter, histogram or scenario finding (nor any other
        // deterministic one).
        assert!(diff
            .findings
            .iter()
            .all(|f| matches!(f, fleet_obs::Finding::Span(_))));
    }

    // An injected perturbation — 64 regimes instead of 200 — must
    // surface as a regression with a ranked, non-empty findings
    // report, the artifact the CI sentinel and `fleet_report findings`
    // emit.
    let small_catalog = CatalogGenerator::new(GOLDEN_SEED).generate(64).unwrap();
    let small_matrix = FleetMatrix::new(
        matrix.predictors.clone(),
        matrix.managers.clone(),
        small_catalog.scenarios().to_vec(),
    )
    .unwrap();
    let perturbed = Collector::recording();
    FleetEngine::new(GOLDEN_SEED)
        .with_trace_cache(TraceCachePolicy::bounded(budget))
        .with_collector(perturbed.clone())
        .run(&small_matrix)
        .unwrap();
    let diff = fleet_obs::ReportDiff::compute(&reports[0], &perturbed.report(), &config);
    assert_eq!(diff.verdict, fleet_obs::Verdict::Regressed);
    assert!(
        diff.findings
            .iter()
            .any(|f| matches!(f, fleet_obs::Finding::Counter(_))),
        "run totals shrank"
    );
    let drift: Vec<&fleet_obs::ScenarioDrift> = diff
        .findings
        .iter()
        .filter_map(|f| match f {
            fleet_obs::Finding::Drift(s) => Some(s),
            _ => None,
        })
        .collect();
    assert!(!drift.is_empty(), "dropped regimes drift");
    for pair in drift.windows(2) {
        assert!(
            pair[0].magnitude >= pair[1].magnitude,
            "ranked by magnitude"
        );
    }
    let findings = diff.render_markdown();
    assert!(findings.contains("**Verdict: regressed**"));
    assert!(findings.contains("Worst-regressing scenarios"));
}

#[test]
fn golden_200_regime_v2_scorecard_is_identical_across_threads_and_shards() {
    let catalog = CatalogGenerator::new(GOLDEN_SEED)
        .with_stream_version(StreamVersion::V2)
        .generate(200)
        .unwrap();
    assert_eq!(catalog.len(), 200);
    // Every id carries the version segment: a v2 run can never collide
    // with its v1 twin in caches or reports.
    for scenario in catalog.scenarios() {
        assert!(scenario.name.ends_with("-v2"), "{}", scenario.name);
    }
    let matrix = FleetMatrix::new(
        vec![PredictorSpec::Wcma {
            alpha: 0.7,
            days: 10,
            k: 2,
        }],
        vec![ManagerSpec::EnergyNeutral {
            target_soc: 0.5,
            gain: 0.25,
        }],
        catalog.scenarios().to_vec(),
    )
    .unwrap();

    let budget = 4u64 << 20;
    let mut reference: Option<String> = None;
    let mut ledger_reference: Option<String> = None;
    for threads in [1usize, 2, 8] {
        let collector = Collector::recording();
        let engine = FleetEngine::new(GOLDEN_SEED)
            .with_threads(threads)
            .with_trace_cache(TraceCachePolicy::bounded(budget))
            .with_collector(collector.clone());
        let mut cache = engine.new_cache();
        let result = engine.run_cached(&matrix, &mut cache).unwrap();
        assert!(
            result.streamed_jobs > 0 && cache.trace_count() > 100,
            "threads {threads}: {} jobs not retained, {} series kept",
            result.streamed_jobs,
            cache.trace_count()
        );
        let json = result.scorecard.to_json_string();
        let ledger_json = collector.ledger().to_json_string();
        match &ledger_reference {
            None => ledger_reference = Some(ledger_json),
            Some(reference) => assert_eq!(
                &ledger_json, reference,
                "threads {threads}: v2 ledger bytes diverged"
            ),
        }

        for shard_count in [2usize, 7] {
            let sharded = engine
                .run_sharded_cached(&matrix, shard_count, &mut cache)
                .unwrap();
            assert_eq!(sharded.cached_jobs, matrix.job_count());
            assert_eq!(sharded.shards.len(), shard_count);
            let merged = Scorecard::merge_shards(&sharded.manifest, &sharded.shards).unwrap();
            assert_eq!(
                merged.to_json_string(),
                json,
                "threads {threads}, {shard_count} shards: v2 merge diverged"
            );
        }

        match &reference {
            None => reference = Some(json),
            Some(reference) => assert_eq!(
                &json, reference,
                "threads {threads}: v2 scorecard bytes diverged"
            ),
        }
    }

    let digest = solar_trace::hash::fnv1a(reference.as_ref().unwrap());
    assert_eq!(
        digest, GOLDEN_DIGEST_V2,
        "200-regime v2 scorecard digest drifted — if the change is \
         deliberate (scorecard format, templates, or the v2 lane \
         synthesis order), re-pin GOLDEN_DIGEST_V2"
    );
    // The lane order is a genuinely different stream: its digest must
    // not degenerate to v1's.
    assert_ne!(digest, GOLDEN_DIGEST);
}

/// The differential-scorecard contract at fleet scale: appending days
/// to every scenario and re-scoring through [`FleetEngine::run_delta`]
/// — which resumes checkpointed unit state and extends cached traces
/// from their generator tails instead of recomputing the prefix — must
/// produce a scorecard **byte-identical** to a cold full-horizon run.
/// Held on both stream versions, across 1/2/8 worker threads, and
/// through 2- and 7-way sharded reductions, under a retention budget
/// tight enough that part of the fleet resumes off retained series
/// extended in place and part off bare generator tails.
#[test]
fn day_append_delta_is_byte_identical_to_cold_across_threads_and_shards() {
    for version in [StreamVersion::V1, StreamVersion::V2] {
        let catalog = CatalogGenerator::new(GOLDEN_SEED)
            .with_stream_version(version)
            .generate(24)
            .unwrap();
        let matrix = FleetMatrix::new(
            vec![PredictorSpec::Wcma {
                alpha: 0.7,
                days: 10,
                k: 2,
            }],
            vec![ManagerSpec::EnergyNeutral {
                target_soc: 0.5,
                gain: 0.25,
            }],
            catalog.scenarios().to_vec(),
        )
        .unwrap();
        let mut grown = matrix.clone();
        for scenario in &mut grown.scenarios {
            scenario.days += 2;
        }
        let delta = FleetDelta::classify(&matrix, &grown).unwrap();
        assert!(matches!(&delta, FleetDelta::DayAppend { scenarios } if scenarios.len() == 24));

        // A budget around a third of the fleet: some scenarios resume
        // off their retained series, the rest off bare generator tails.
        let budget = 1u64 << 20;
        let mut reference: Option<String> = None;
        for threads in [1usize, 2, 8] {
            let engine = FleetEngine::new(GOLDEN_SEED)
                .with_threads(threads)
                .with_trace_cache(TraceCachePolicy::bounded(budget));
            let mut cache = engine.new_cache();
            engine.run_cached(&matrix, &mut cache).unwrap();
            let incremental = engine.run_delta(&grown, &mut cache, &delta).unwrap();
            assert_eq!(
                incremental.passes.trace_generations, 0,
                "threads {threads}, {version:?}: appended days must never regenerate a prefix"
            );
            let cold = FleetEngine::new(GOLDEN_SEED)
                .with_threads(threads)
                .with_trace_cache(TraceCachePolicy::bounded(budget))
                .run(&grown)
                .unwrap();
            let json = incremental.scorecard.to_json_string();
            assert_eq!(
                json,
                cold.scorecard.to_json_string(),
                "threads {threads}, {version:?}: incremental diverged from cold"
            );
            match &reference {
                None => reference = Some(json.clone()),
                Some(reference) => assert_eq!(
                    &json, reference,
                    "threads {threads}, {version:?}: delta scorecard bytes diverged"
                ),
            }

            // Sharded reductions over the incrementally re-scored fleet
            // merge back to the same bytes.
            for shard_count in [2usize, 7] {
                let sharded = engine
                    .run_sharded_cached(&grown, shard_count, &mut cache)
                    .unwrap();
                assert_eq!(sharded.cached_jobs, grown.job_count());
                let merged = Scorecard::merge_shards(&sharded.manifest, &sharded.shards).unwrap();
                assert_eq!(
                    merged.to_json_string(),
                    json,
                    "threads {threads}, {shard_count} shards, {version:?}: merge diverged"
                );
            }
        }
    }
}
