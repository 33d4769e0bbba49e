//! Scenario catalog and parallel fleet evaluation — the workspace's
//! scale-out layer.
//!
//! The DATE'10 paper evaluates its predictor on six measured traces;
//! related fleet-scale work (Basha et al.'s in-network prediction,
//! Mziou-Sallami et al.'s error-impact study) shows that predictors must
//! be judged **across deployment regimes** and **by downstream
//! management impact**, not a single MAPE figure. This crate provides
//! both:
//!
//! * [`Catalog`] — named, JSON-serialisable [`Scenario`]s composing a
//!   `solar_synth` site/weather regime (paper presets or custom
//!   latitude × climate via [`solar_synth::SiteConfigBuilder`]), a
//!   `harvest_sim` hardware tier ([`NodeProfile`]), and
//!   fault/perturbation injectors ([`FaultSpec`]) — dead panels, storage
//!   fade, sensor dropout, telemetry gaps;
//! * [`CatalogGenerator`] — parameterized catalog generation: climate
//!   [`RegimeTemplate`]s (latitude sweeps, cloudiness/turbidity axes,
//!   hardware tiers, [`FaultMix`] presets) expanded deterministically
//!   into hundreds of stable-id scenarios from one seed;
//! * [`FleetMatrix`] — a predictor-family × power-manager × scenario
//!   product, with predictor families reusable from
//!   [`param_explore::ParamGrid`]s
//!   ([`PredictorSpec::family_from_grid`]);
//! * [`FleetEngine`] — expands the matrix into jobs, executes them in
//!   parallel (one ordered map over scoped threads, at the engine's own
//!   thread count) under deterministic per-job seeds, and
//!   reduces `NodeReport`s + `pred_metrics` summaries into a ranked
//!   [`Scorecard`] with byte-deterministic JSON output.
//!
//! # Example
//!
//! ```
//! use scenario_fleet::{Catalog, FleetEngine, FleetMatrix, ManagerSpec, PredictorSpec};
//!
//! let scenarios = vec![
//!     Catalog::builtin().get("desert-clear-sky").unwrap().clone(),
//! ];
//! let matrix = FleetMatrix::new(
//!     vec![
//!         PredictorSpec::Wcma { alpha: 0.7, days: 10, k: 2 },
//!         PredictorSpec::Persistence,
//!     ],
//!     vec![ManagerSpec::Greedy],
//!     scenarios,
//! ).unwrap();
//! let result = FleetEngine::new(42).run(&matrix).unwrap();
//! assert_eq!(result.outcomes.len(), 2);
//! let winner = result.scorecard.winner().unwrap();
//! assert_eq!(winner.rank, 1);
//! ```

mod cache;
mod catalog;
mod delta;
mod engine;
mod faults;
mod generators;
mod matrix;
mod parallel;
mod scorecard;
mod series;
mod unit;

// The JSON layer moved down into `fleet_obs` (the observability crate
// sits below this one in the dependency graph); re-exported here so
// `scenario_fleet::json::Json` paths keep working.
pub use fleet_obs::json;

pub use catalog::{Catalog, Climate, NodeProfile, Scenario, SiteSpec};
// The trace stream version travels with catalogs, templates, and the
// engine's ledger; re-exported so fleet users never import the synth
// crate just to name V1/V2.
pub use cache::FleetCache;
pub use delta::FleetDelta;
pub use engine::{
    FleetEngine, FleetResult, JobOutcome, PassBreakdown, QuarantinedScenario, ShardedFleetResult,
};
pub use faults::{storage_capacity_factor, FaultInjector, FaultSpec};
pub use generators::{CatalogGenerator, FaultMix, RegimeTemplate};
pub use matrix::{FleetMatrix, JobSpec, PredictorSpec};
pub use scorecard::{
    CoverageManifest, MissingCoverage, ScenarioRanking, ScoreEntry, Scorecard, ScorecardShard,
    ShardManifest,
};
pub use series::TraceCachePolicy;
pub use solar_synth::StreamVersion;
// The built-in power managers live with the node simulator that runs
// them; re-exported so matrices name them as fleet specs.
pub use harvest_sim::ManagerSpec;

// Observability handles, re-exported so engine users configure
// collection — and consume reports (diff / archive / trace export) —
// without naming `fleet_obs` directly.
pub use fleet_obs::{
    Collector, DiffConfig, Histogram, Ledger, ReportDiff, RunArchive, RunReport, Verdict,
};

// The README's Rust snippets compile (and those that do not run a whole
// fleet, run) as doctests of this crate.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
struct ReadmeDoctests;

// Input-order checks of the crate's parallel map; its worker-count and
// panic checks live in `parallel::tests`.
#[cfg(test)]
mod tests {
    use crate::parallel::{ordered_map, ALL_CORES};

    #[test]
    fn map_collect_preserves_order() {
        for len in [0u64, 1, 2, 257] {
            let input: Vec<u64> = (0..len).collect();
            let expected: Vec<u64> = input.iter().map(|x| x * 2 + 1).collect();
            // 3 and 8 threads exceed the 0-, 1- and 2-item inputs.
            for threads in [ALL_CORES, 1, 3, 8] {
                assert_eq!(
                    ordered_map(&input, threads, |&x| x * 2 + 1),
                    expected,
                    "{len} items at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn single_thread_matches_parallel() {
        let input: Vec<u64> = (0..257).collect();
        let one = ordered_map(&input, 1, |&x| x + 1);
        assert_eq!(one, (1..258).collect::<Vec<u64>>());
        for threads in [ALL_CORES, 4] {
            assert_eq!(
                ordered_map(&input, threads, |&x| x + 1),
                one,
                "{threads} threads"
            );
        }
    }
}
