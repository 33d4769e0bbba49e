//! Integration tests for the streaming slot pipeline and sharded
//! scorecards: merge determinism across thread counts and shard
//! orderings, and bounded-memory multi-year evaluation.

use scenario_fleet::json::Json;
use scenario_fleet::{
    Catalog, Climate, FleetEngine, FleetMatrix, ManagerSpec, NodeProfile, PredictorSpec, Scenario,
    Scorecard, ScorecardShard, ShardManifest, SiteSpec, TraceCachePolicy,
};

/// The default catalog matrix (every builtin regime, multi-year entries
/// included) under a compact predictor/manager set.
fn catalog_matrix() -> FleetMatrix {
    FleetMatrix::new(
        vec![
            PredictorSpec::Wcma {
                alpha: 0.7,
                days: 10,
                k: 2,
            },
            PredictorSpec::Persistence,
        ],
        vec![ManagerSpec::EnergyNeutral {
            target_soc: 0.5,
            gain: 0.25,
        }],
        Catalog::builtin().scenarios().to_vec(),
    )
    .unwrap()
}

#[test]
fn merged_shards_match_monolithic_across_threads_and_orderings() {
    let matrix = catalog_matrix();
    let reference = FleetEngine::new(2026)
        .with_threads(1)
        .run(&matrix)
        .unwrap()
        .scorecard
        .to_json_string();

    for threads in [1usize, 2, 8] {
        let engine = FleetEngine::new(2026).with_threads(threads);
        let sharded = engine.run_sharded(&matrix, 4).unwrap();
        assert_eq!(sharded.shards.len(), 4);

        // Merge in delivered, reversed, and rotated shard orders — the
        // manifest alone fixes the output.
        let mut reversed = sharded.shards.clone();
        reversed.reverse();
        let mut rotated = sharded.shards.clone();
        rotated.rotate_left(1);
        for shards in [&sharded.shards, &reversed, &rotated] {
            let merged = Scorecard::merge_shards(&sharded.manifest, shards).unwrap();
            assert_eq!(
                merged.to_json_string(),
                reference,
                "threads={threads}: merged shards diverged from the monolithic scorecard"
            );
        }

        // And through the serialized form: shards written to JSON and
        // parsed back still merge to the identical document.
        let manifest_json = sharded.manifest.to_json().render_pretty();
        let parsed_manifest =
            ShardManifest::from_json(&Json::parse(&manifest_json).unwrap()).unwrap();
        let parsed_shards: Vec<ScorecardShard> = sharded
            .shards
            .iter()
            .map(|s| ScorecardShard::from_json_str(&s.to_json().render_pretty()).unwrap())
            .collect();
        let merged = Scorecard::merge_shards(&parsed_manifest, &parsed_shards).unwrap();
        assert_eq!(merged.to_json_string(), reference);
    }
}

/// Twelve 3-year scenarios across climates and latitudes.
fn three_year_fleet() -> Vec<Scenario> {
    let climates = [
        Climate::Desert,
        Climate::Temperate,
        Climate::Marine,
        Climate::Monsoon,
    ];
    let latitudes = [-35.0, 12.0, 48.0];
    let mut scenarios = Vec::new();
    for (ci, climate) in climates.iter().enumerate() {
        for (li, latitude) in latitudes.iter().enumerate() {
            scenarios.push(Scenario {
                name: format!("triennium-{}-{}", climate.as_str(), li),
                summary: format!("3-year {} run at {latitude}°", climate.as_str()),
                site: SiteSpec::Custom {
                    latitude_deg: *latitude,
                    resolution_minutes: 5,
                    climate: *climate,
                },
                days: 1095,
                slots_per_day: 48,
                node: if (ci + li) % 2 == 0 {
                    NodeProfile::Mote
                } else {
                    NodeProfile::TinyMote
                },
                faults: vec![],
            });
        }
    }
    scenarios
}

#[test]
fn three_year_twelve_scenario_matrix_runs_under_a_bounded_trace_budget() {
    let scenarios = three_year_fleet();
    assert_eq!(scenarios.len(), 12);
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
        scenarios,
    )
    .unwrap();

    // One 3-year slot series is 1095 × 48 × 16 B ≈ 0.8 MiB; a 1 MiB
    // budget retains exactly one.
    let budget = 1u64 << 20;
    let engine = FleetEngine::new(77).with_trace_cache(TraceCachePolicy::bounded(budget));
    let mut cache = engine.new_cache();
    let result = engine.run_cached(&matrix, &mut cache).unwrap();

    assert_eq!(cache.trace_count(), 1, "budget retains exactly one series");
    assert!(cache.trace_bytes() as u64 <= budget);
    assert_eq!(result.streamed_jobs, 11, "the other eleven are dropped");
    let series_bytes = 1095 * 48 * 16;
    let trace_bytes = 1095 * 288 * 8;
    for outcome in &result.outcomes {
        assert!(outcome.summary.mape.is_finite(), "{}", outcome.scenario);
        assert!(
            outcome.report.energy_balance_error_j() < 1e-6 * outcome.report.harvested_j.max(1.0),
            "{}",
            outcome.scenario
        );
        // Every job walked its scenario's two-values-per-slot series —
        // a third of the raw 5-minute trace's six samples per slot.
        assert!(
            (series_bytes..trace_bytes / 2).contains(&outcome.cost.peak_trace_bytes),
            "{}: {} bytes",
            outcome.scenario,
            outcome.cost.peak_trace_bytes
        );
    }
    // Retention never shows in the output.
    let unbounded = FleetEngine::new(77)
        .with_trace_cache(TraceCachePolicy::unbounded())
        .run(&matrix)
        .unwrap();
    assert_eq!(
        result.scorecard.to_json_string(),
        unbounded.scorecard.to_json_string()
    );
}
