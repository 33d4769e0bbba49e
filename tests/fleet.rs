//! Fleet-engine integration tests: determinism across thread counts,
//! fault-proof energy accounting, and the param_explore bridge.

use harvest_sim::{simulate_node_hooked, EnergyStorage, Load, NodeConfig, SolarPanel};
use param_explore::ParamGrid;
use proptest::prelude::*;
use scenario_fleet::{
    Catalog, FaultInjector, FaultSpec, FleetEngine, FleetMatrix, ManagerSpec, PredictorSpec,
    Scenario,
};
use solar_predict::{WcmaParams, WcmaPredictor};
use solar_trace::{PowerTrace, Resolution, SlotView, SlotsPerDay};

fn two_scenario_matrix() -> FleetMatrix {
    let catalog = Catalog::builtin();
    FleetMatrix::new(
        vec![
            PredictorSpec::Wcma {
                alpha: 0.7,
                days: 10,
                k: 2,
            },
            PredictorSpec::Ewma { gamma: 0.5 },
        ],
        vec![
            ManagerSpec::EnergyNeutral {
                target_soc: 0.5,
                gain: 0.25,
            },
            ManagerSpec::Greedy,
        ],
        vec![
            catalog.get("desert-clear-sky").unwrap().clone(),
            catalog.get("gappy-telemetry-desert").unwrap().clone(),
        ],
    )
    .unwrap()
}

#[test]
fn scorecard_json_is_byte_identical_across_thread_counts() {
    let matrix = two_scenario_matrix();
    let reference = FleetEngine::new(2010)
        .with_threads(1)
        .run(&matrix)
        .unwrap()
        .scorecard
        .to_json_string();
    for threads in [2, 4, 8] {
        let json = FleetEngine::new(2010)
            .with_threads(threads)
            .run(&matrix)
            .unwrap()
            .scorecard
            .to_json_string();
        assert_eq!(
            json, reference,
            "thread count {threads} changed the scorecard"
        );
    }
    // And the default (all cores) engine agrees too.
    let default_json = FleetEngine::new(2010)
        .run(&matrix)
        .unwrap()
        .scorecard
        .to_json_string();
    assert_eq!(default_json, reference);
}

#[test]
fn repeated_runs_reproduce_outcomes_exactly() {
    let matrix = two_scenario_matrix();
    let a = FleetEngine::new(7).run(&matrix).unwrap();
    let b = FleetEngine::new(7).run(&matrix).unwrap();
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.summary, y.summary);
        assert_eq!(x.report, y.report);
    }
    // A different seed must actually change something.
    let c = FleetEngine::new(8).run(&matrix).unwrap();
    assert!(a
        .outcomes
        .iter()
        .zip(&c.outcomes)
        .any(|(x, y)| x.summary != y.summary));
}

#[test]
fn grid_predictor_family_runs_through_the_fleet() {
    // The param_explore bridge: a small (alpha, D, K) grid becomes the
    // predictor axis of a fleet run.
    let grid = ParamGrid::builder()
        .alphas(vec![0.0, 1.0])
        .days(vec![5])
        .ks(vec![1, 2])
        .build()
        .unwrap();
    let family = PredictorSpec::family_from_grid(&grid);
    assert_eq!(family.len(), 4);
    let matrix = FleetMatrix::new(
        family,
        vec![ManagerSpec::Greedy],
        vec![Catalog::builtin().get("desert-clear-sky").unwrap().clone()],
    )
    .unwrap();
    let result = FleetEngine::new(5).run(&matrix).unwrap();
    assert_eq!(result.outcomes.len(), 4);
    // Every grid member produced a finite, distinct-labelled outcome.
    let mut labels: Vec<&str> = result
        .outcomes
        .iter()
        .map(|o| o.predictor.as_str())
        .collect();
    labels.sort_unstable();
    labels.dedup();
    assert_eq!(labels.len(), 4);
}

#[test]
fn extended_family_ranks_under_faults_and_caches_identically() {
    // The Q16 kernel and the causal dynamic selector are full fleet
    // citizens: they run through faulted scenarios like any other spec,
    // and the incremental cache reproduces a cold run byte-for-byte
    // when the axis grows by one of them.
    let catalog = Catalog::builtin();
    let scenarios = vec![
        catalog.get("aging-node").unwrap().clone(),
        catalog.get("gappy-telemetry-desert").unwrap().clone(),
    ];
    let managers = vec![ManagerSpec::EnergyNeutral {
        target_soc: 0.5,
        gain: 0.25,
    }];
    let base = FleetMatrix::new(
        PredictorSpec::guideline_family(),
        managers.clone(),
        scenarios.clone(),
    )
    .unwrap();
    let grown = FleetMatrix::new(PredictorSpec::extended_family(), managers, scenarios).unwrap();

    let engine = FleetEngine::new(77);
    let mut cache = engine.new_cache();
    engine.run_cached(&base, &mut cache).unwrap();
    let incremental = engine.run_cached(&grown, &mut cache).unwrap();
    assert_eq!(incremental.cached_jobs, base.job_count());
    let full = FleetEngine::new(77).run(&grown).unwrap();
    assert_eq!(
        incremental.scorecard.to_json_string(),
        full.scorecard.to_json_string()
    );

    // The dynamic selector's per-slot candidate budget is visible in
    // the deterministic cost accounting.
    let dynamic_entry = full
        .scorecard
        .overall
        .iter()
        .find(|e| e.predictor.starts_with("dyn("))
        .expect("dynamic selector ranked");
    assert_eq!(dynamic_entry.peak_candidates, 30);
    for outcome in &full.outcomes {
        assert!(
            outcome.report.energy_balance_error_j() < 1e-6 * outcome.report.harvested_j.max(1.0),
            "{} + {}: fault run broke the ledger",
            outcome.scenario,
            outcome.predictor
        );
    }
}

#[test]
fn every_builtin_scenario_survives_a_full_engine_pass() {
    let matrix = FleetMatrix::new(
        vec![PredictorSpec::Persistence],
        vec![ManagerSpec::EnergyNeutral {
            target_soc: 0.5,
            gain: 0.25,
        }],
        Catalog::builtin().scenarios().to_vec(),
    )
    .unwrap();
    let result = FleetEngine::new(1).run(&matrix).unwrap();
    for outcome in &result.outcomes {
        assert!(
            outcome.report.energy_balance_error_j() < 1e-6 * outcome.report.harvested_j.max(1.0),
            "{}: residual {}",
            outcome.scenario,
            outcome.report.energy_balance_error_j()
        );
        // Polar night can filter every ROI slot out, but the metrics
        // must stay finite everywhere.
        assert!(outcome.summary.mape.is_finite(), "{}", outcome.scenario);
    }
}

/// Strategy over arbitrary (possibly stacked) fault lists.
fn fault_list_strategy() -> impl Strategy<Value = Vec<FaultSpec>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..35, 1usize..10).prop_map(|(start_day, duration_days)| {
                FaultSpec::PanelOutage {
                    start_day,
                    duration_days,
                }
            }),
            (0.05f64..1.0).prop_map(|capacity_factor| FaultSpec::StorageFade { capacity_factor }),
            (0.0f64..0.8).prop_map(|rate| FaultSpec::SensorDropout { rate }),
            ((0.0f64..100.0), (1.0f64..20.0)).prop_map(|(gaps_per_100_days, mean_slots)| {
                FaultSpec::TraceGap {
                    gaps_per_100_days,
                    mean_slots,
                }
            }),
        ],
        0..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole invariant: no fault combination can break the
    /// simulator's energy-conservation identity.
    #[test]
    fn injected_faults_never_break_energy_balance(
        faults in fault_list_strategy(),
        seed in 0u64..1000,
    ) {
        // A small deterministic solar-ish trace (30 days, hourly).
        let day: Vec<f64> = (0..24)
            .map(|h| if (6..18).contains(&h) { 400.0 + 30.0 * h as f64 } else { 0.0 })
            .collect();
        let samples: Vec<f64> = (0..30).flat_map(|_| day.clone()).collect();
        let trace =
            PowerTrace::new("prop", Resolution::from_minutes(60).unwrap(), samples).unwrap();
        let view = SlotView::new(&trace, SlotsPerDay::new(24).unwrap()).unwrap();

        let capacity = 2000.0 * scenario_fleet::storage_capacity_factor(&faults);
        let config = NodeConfig {
            panel: SolarPanel::new(0.01, 0.15).unwrap(),
            storage: EnergyStorage::with_losses(capacity, capacity * 0.5, 0.9, 0.9, 0.001)
                .unwrap(),
            load: Load::new(0.05, 0.0005).unwrap(),
        };
        let mut predictor = WcmaPredictor::new(WcmaParams::new(0.7, 5, 2, 24).unwrap());
        let mut manager = ManagerSpec::EnergyNeutral {
            target_soc: 0.5,
            gain: 0.25,
        };
        let mut injector = FaultInjector::new(&faults, seed, 30, 24);
        let report = simulate_node_hooked(
            &view,
            &mut predictor,
            &mut manager,
            &config,
            &mut injector,
        );
        prop_assert!(
            report.energy_balance_error_j() < 1e-6 * report.harvested_j.max(1.0),
            "faults {faults:?} broke the ledger: residual {}",
            report.energy_balance_error_j()
        );
        prop_assert!(report.utilization >= 0.0 && report.utilization <= 1.0 + 1e-9);
    }

    /// Scenario JSON round-trips under random fault decoration.
    #[test]
    fn scenario_json_round_trips_with_faults(faults in fault_list_strategy()) {
        let mut scenario: Scenario =
            Catalog::builtin().get("desert-clear-sky").unwrap().clone();
        scenario.faults = faults;
        let text = scenario.to_json().render_pretty();
        let back = Scenario::from_json_str(&text).unwrap();
        prop_assert_eq!(back, scenario);
    }
}
