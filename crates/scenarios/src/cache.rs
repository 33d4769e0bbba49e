//! The incremental re-scoring state: [`FleetCache`], what a run keys it
//! with, and the one rule that decides when a work unit's machines may
//! serve a later day-append.
//!
//! # Incremental re-scoring
//!
//! A tuning loop re-runs near-identical matrices dozens of times,
//! changing only the predictor axis between rounds. [`FleetCache`]
//! makes that cheap: it memoizes slot series per scenario and
//! finished [`JobOutcome`]s per (scenario, predictor, manager) triple —
//! one block per scenario, keyed inside by the label pair — so
//! [`FleetEngine::run_cached`](crate::FleetEngine::run_cached) evaluates
//! **only the jobs whose axis value changed**. A run renders each
//! scenario once, for its block key; every other check compares
//! scenario values. Because every job is a pure function of its triple
//! and the master seed, a cached outcome is bit-identical to a fresh
//! one — the resulting scorecard JSON is byte-identical to a full
//! re-run (pinned by test).
//!
//! # Retention
//!
//! The [`TraceCachePolicy`] budget decides only **retention**: which
//! series the cache keeps across runs, greedily in matrix order. A
//! series the budget does not admit is dropped when its unit finishes;
//! only its generator tail stays, so a later day-append still
//! synthesizes just the appended days. While a run is in flight each
//! unit holds its own series, so transient memory is bounded by
//! in-flight units × days × N × 16 B — about 0.8 MB for a 3-year,
//! 48-slot scenario. Retention never shows in the output: a kept and a
//! freshly synthesized series are bit-identical (the synth crate pins
//! the stream's resume contract), so outcomes are byte-identical under
//! every policy. Nothing is ever evicted: what a run stores stays until
//! the cache is dropped.
//!
//! # Day-append checkpoints
//!
//! A unit that covers its scenario's full job cross ends by storing
//! its machines as a [`UnitCheckpoint`]; a later run whose scenario
//! only grew by whole days clones them and walks just the appended
//! days — or, for a trace-gap unit, the days from its rung on. Capture
//! and resume apply the same rule, [`checkpointable`]; the unit then
//! checks that the grown horizon's gaps and ROI peak leave the
//! checkpointed prefix as it was.

use crate::catalog::Scenario;
use crate::engine::JobOutcome;
use crate::matrix::{FleetMatrix, JobSpec};
use crate::series::{series_footprint_bytes, RoiPeak, SlotSeries, TraceCachePolicy};
use crate::unit::{UnitMachines, UnitOutcomes, WorkUnit};
use fleet_obs::Collector;
use std::collections::HashMap;
use std::sync::Arc;

/// The one checkpoint rule, applied at capture and at resume: a unit's
/// machines may continue into a later run only if the unit covers the
/// matrix's full job cross (fresh jobs arrive in matrix job order, so a
/// full count is the canonical cross; a partial unit's machines would
/// desync from the cross a future run resumes).
pub(crate) fn checkpointable(fresh_jobs: usize, keys: &RunKeys) -> bool {
    fresh_jobs == keys.pairs.len()
}

/// Day-boundary machine state of one scenario's full job cross — the
/// resume point for a day-append delta. Captured by a
/// [`checkpointable`] work-unit pass and stored in the [`FleetCache`]
/// keyed by scenario name. The machines stand at the captured horizon,
/// or, when the unit's injector realized a trace gap, at its **rung**:
/// the day boundary before the first gap. Gap placement depends on the
/// total horizon, so only a prefix no gap touched can serve a longer
/// one; a resume walks from the rung, O(appended days + horizon −
/// rung).
pub(crate) struct UnitCheckpoint {
    /// The scenario at capture time, whose `days` is the captured
    /// horizon; resume requires the appended scenario to
    /// [`Scenario::extends`] it by at least one day.
    pub(crate) scenario: Scenario,
    /// The day boundary `machines` stand at: the horizon, or the rung.
    pub(crate) day: usize,
    /// Predictor axis labels at capture (matrix order) — the machines
    /// below are only meaningful against an identical axis.
    predictor_labels: Vec<String>,
    /// Manager axis labels at capture (matrix order).
    manager_labels: Vec<String>,
    /// The ROI reference peak the record filter judged against — the
    /// captured horizon's, even for machines at a rung — and the final
    /// slot's still-pending mean.
    pub(crate) roi: RoiPeak,
    /// The unit's machines at `day`; a resume clones them.
    pub(crate) machines: UnitMachines,
}

impl UnitCheckpoint {
    /// The next run's resume point for a unit of `fresh_jobs` jobs that
    /// walked `scenario` to its horizon under the ROI peak `roi`: its
    /// machines as they stood at a day boundary, or `None` when
    /// [`checkpointable`] rules it out.
    pub(crate) fn capture(
        scenario: &Scenario,
        fresh_jobs: usize,
        keys: &RunKeys,
        roi: RoiPeak,
        (day, machines): (usize, UnitMachines),
    ) -> Option<UnitCheckpoint> {
        checkpointable(fresh_jobs, keys).then(|| UnitCheckpoint {
            scenario: scenario.clone(),
            day,
            predictor_labels: keys.predictors.clone(),
            manager_labels: keys.managers.clone(),
            roi,
            machines,
        })
    }
}

impl std::fmt::Debug for UnitCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnitCheckpoint")
            .field("days", &self.scenario.days)
            .field("day", &self.day)
            .field("predictors", &self.predictor_labels.len())
            .field("managers", &self.manager_labels.len())
            .finish_non_exhaustive()
    }
}

/// One scenario's memoized outcomes, keyed by the (predictor label,
/// manager label) pair.
type OutcomeBlock = HashMap<(String, String), JobOutcome>;

/// The labels one run keys its cache lookups with, built once per run.
pub(crate) struct RunKeys {
    /// Each scenario's full JSON form, in matrix order: the run's only
    /// render of a scenario, and its outcome block's key.
    pub(crate) scenarios: Vec<String>,
    /// Predictor axis labels, in matrix order.
    pub(crate) predictors: Vec<String>,
    /// Manager axis labels, in matrix order.
    pub(crate) managers: Vec<String>,
    /// Every (predictor, manager) label pair, predictor-major: the
    /// lookup key of a scenario's job `p × managers + m` in its block.
    pub(crate) pairs: Vec<(String, String)>,
}

impl RunKeys {
    pub(crate) fn of(matrix: &FleetMatrix) -> RunKeys {
        let predictors: Vec<String> = matrix.predictors.iter().map(|p| p.label()).collect();
        let managers: Vec<String> = matrix.managers.iter().map(|m| m.label()).collect();
        let pairs = predictors
            .iter()
            .flat_map(|p| managers.iter().map(move |m| (p.clone(), m.clone())))
            .collect();
        let scenarios = matrix.scenarios.iter().map(|s| s.to_json().render());
        RunKeys {
            scenarios: scenarios.collect(),
            predictors,
            managers,
            pairs,
        }
    }
}

/// Memo of slot series, job outcomes, and day-boundary resume state across
/// runs of one engine — the incremental re-scoring state. Create with
/// [`FleetEngine::new_cache`](crate::FleetEngine::new_cache); feed to
/// [`FleetEngine::run_cached`](crate::FleetEngine::run_cached). The
/// cache is bound to the master seed of the first engine that runs it
/// and refuses to serve any other. It never evicts: an entry lives as
/// long as the cache.
#[derive(Clone, Debug, Default)]
pub struct FleetCache {
    pub(crate) master_seed: Option<u64>,
    /// Slot series per scenario name, with the scenario at the series'
    /// horizon (so a mutated same-name scenario can never alias):
    /// retained series whole, the rest as bare generator tails from
    /// which a day-append synthesizes only the appended days.
    pub(crate) series: HashMap<String, (Scenario, SlotSeries)>,
    /// Outcomes in one block per scenario JSON form, each keyed by the
    /// (predictor label, manager label) pair; labels are injective over
    /// specs by contract.
    outcomes: HashMap<String, OutcomeBlock>,
    /// Work-unit resume state per scenario name: day-appends continue
    /// every machine from the stored day boundary.
    pub(crate) checkpoints: HashMap<String, Arc<UnitCheckpoint>>,
}

impl FleetCache {
    /// Number of memoized job outcomes.
    pub fn len(&self) -> usize {
        self.outcomes.values().map(HashMap::len).sum()
    }

    /// Whether the cache holds no outcomes.
    pub fn is_empty(&self) -> bool {
        self.outcomes.values().all(HashMap::is_empty)
    }

    /// Number of retained scenario slot series.
    pub fn trace_count(&self) -> usize {
        self.retained().count()
    }

    /// Bytes the retained slot series occupy, per the same footprint
    /// accounting the retention policy budgets with (struct and slot
    /// storage).
    pub fn trace_bytes(&self) -> usize {
        self.retained().map(SlotSeries::footprint_bytes).sum()
    }

    fn retained(&self) -> impl Iterator<Item = &SlotSeries> {
        let series = self.series.values().map(|(_, series)| series);
        series.filter(|series| series.is_full())
    }

    /// The stored series of `scenario` if it belongs to this scenario
    /// at its horizon or a shorter one.
    fn series_of(&self, scenario: &Scenario) -> Option<&SlotSeries> {
        let (stored, series) = self.series.get(&scenario.name)?;
        scenario.extends(stored).then_some(series)
    }

    /// Aggregate cost of every distinct job outcome the cache holds —
    /// one entry per (scenario, predictor, manager) triple,
    /// order-independent despite the map. The cache never evicts, so
    /// this covers every job its runs evaluated.
    pub fn cost(&self) -> pred_metrics::CostAggregate {
        let outcomes = self.outcomes.values().flat_map(HashMap::values);
        pred_metrics::CostAggregate::of(outcomes.map(|o| o.cost))
    }

    /// Each scenario's jobs the cache cannot answer, in matrix job
    /// order. Jobs are scenario-major, so scenario `s`'s job `k` of its
    /// (predictor, manager) cross is job `s × pairs + k`, keyed by
    /// `keys.pairs[k]` in the scenario's outcome block.
    pub(crate) fn fresh_jobs(&self, keys: &RunKeys) -> Vec<Vec<usize>> {
        let pairs = keys.pairs.len();
        let fresh_of = |(scenario_idx, key): (usize, &String)| {
            let block = self.outcomes.get(key);
            let cached = |k: &usize| block.is_some_and(|b| b.contains_key(&keys.pairs[*k]));
            let fresh = (0..pairs).filter(|k| !cached(k));
            fresh.map(|k| scenario_idx * pairs + k).collect()
        };
        keys.scenarios.iter().enumerate().map(fresh_of).collect()
    }

    /// Retention admission, greedily in scenario order — a pure
    /// function of the matrix and the budget, so the kept/dropped
    /// split never depends on thread timing. Warm series — kept whole,
    /// at this horizon or a shorter one — stay retained (they are
    /// already paid for) and count toward the budget. Returns whether
    /// each scenario's series is retained.
    pub(crate) fn admit(
        &self,
        matrix: &FleetMatrix,
        policy: TraceCachePolicy,
        collector: &Collector,
    ) -> Vec<bool> {
        let mut retained = vec![false; matrix.scenarios.len()];
        let mut warm_series = 0u64;
        let mut running_total = 0u64;
        for (idx, scenario) in matrix.scenarios.iter().enumerate() {
            let bytes =
                series_footprint_bytes(scenario.days * scenario.slots_per_day as usize) as u64;
            let warm = self.series_of(scenario).is_some_and(SlotSeries::is_full);
            warm_series += warm as u64;
            if warm || policy.admits(running_total, bytes) {
                retained[idx] = true;
                running_total = running_total.saturating_add(bytes);
            }
        }
        match policy.budget_bytes() {
            None => collector.label("admission/trace_budget_source", "unbounded"),
            Some(bytes) => {
                collector.label("admission/trace_budget_source", "configured");
                collector.gauge("admission/trace_budget_bytes", bytes);
            }
        }
        let kept = retained.iter().filter(|&&kept| kept).count() as u64;
        let streamed = matrix.scenarios.len() as u64 - kept;
        collector.count("admission/materialized_scenarios", kept);
        collector.count("admission/streamed_scenarios", streamed);
        collector.count("admission/admitted_trace_bytes", running_total);
        collector.count("cache/trace_hits", warm_series);
        retained
    }

    /// The day-append resume point of `scenario`'s unit of `fresh_jobs`
    /// jobs: its stored checkpoint, if the scenario equals the
    /// checkpointed one except for a strictly larger `days`
    /// ([`Scenario::extends`]), the predictor and manager axes match,
    /// and [`checkpointable`] holds. A checkpoint that fails only that
    /// last rule — a partial job cross — falls back to a cold pass,
    /// counted under `delta/cold_fallbacks`. The unit itself still
    /// checks the grown horizon's gaps and ROI peak against the
    /// checkpoint before it resumes.
    pub(crate) fn resume_point(
        &self,
        scenario: &Scenario,
        fresh_jobs: usize,
        keys: &RunKeys,
        collector: &Collector,
    ) -> Option<Arc<UnitCheckpoint>> {
        let checkpoint = self.checkpoints.get(&scenario.name).filter(|ck| {
            scenario.days > ck.scenario.days
                && ck.predictor_labels == keys.predictors
                && ck.manager_labels == keys.managers
                && scenario.extends(&ck.scenario)
        })?;
        if !checkpointable(fresh_jobs, keys) {
            collector.count_scenario(&scenario.name, "delta/cold_fallbacks", 1);
            return None;
        }
        Some(Arc::clone(checkpoint))
    }

    /// Takes `scenario`'s stored series out for its unit: the series
    /// when it is whole, or a bare tail at exactly the resume point's
    /// day for a scenario that is not `retained` (a retained scenario
    /// must end up whole, so it synthesizes cold instead; a tail past a
    /// trace-gap rung lacks the days the resume walks). Everything else
    /// starts cold (`None`).
    pub(crate) fn take_series(
        &mut self,
        scenario: &Scenario,
        retained: bool,
        resume: Option<&UnitCheckpoint>,
    ) -> Option<SlotSeries> {
        let usable = self.series_of(scenario).is_some_and(|series| {
            series.is_full() || (!retained && resume.is_some_and(|ck| series.first_day == ck.day))
        });
        if !usable {
            return None;
        }
        self.series.remove(&scenario.name).map(|(_, series)| series)
    }

    /// Keeps what `unit` of `scenario` leaves for later runs: its
    /// series (whole when retained, else a bare tail), its checkpoint,
    /// and its outcomes in the scenario's block.
    pub(crate) fn store(
        &mut self,
        scenario: &Scenario,
        unit: &WorkUnit,
        keys: &RunKeys,
        result: UnitOutcomes,
    ) {
        let (name, mut series) = (&scenario.name, result.series);
        if !unit.retained {
            series = series.into_tail();
        }
        self.series.insert(name.clone(), (scenario.clone(), series));
        if let Some(checkpoint) = result.checkpoint {
            self.checkpoints.insert(name.clone(), Arc::new(checkpoint));
        }
        let block_key = &keys.scenarios[unit.scenario_idx];
        let block = self.outcomes.entry(block_key.clone()).or_default();
        for (idx, outcome) in result.outcomes {
            block.insert(keys.pairs[idx % keys.pairs.len()].clone(), outcome);
        }
    }

    /// The run's outcomes in job order. Cached outcomes carry stale
    /// matrix coordinates from the run that produced them, so each is
    /// rewritten. Quarantined scenarios' jobs have no outcome and are
    /// skipped; without quarantine every key is present (a failed unit
    /// ends the run in the fill instead).
    pub(crate) fn assemble(&self, keys: &RunKeys, jobs: &[JobSpec]) -> Vec<JobOutcome> {
        let mut outcomes: Vec<JobOutcome> = Vec::with_capacity(jobs.len());
        let per_scenario = keys.pairs.len().max(1);
        for (key, scenario_jobs) in keys.scenarios.iter().zip(jobs.chunks(per_scenario)) {
            let Some(block) = self.outcomes.get(key) else {
                continue;
            };
            for (pair, job) in keys.pairs.iter().zip(scenario_jobs) {
                if let Some(cached) = block.get(pair) {
                    let mut outcome = cached.clone();
                    outcome.spec = *job;
                    outcomes.push(outcome);
                }
            }
        }
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::small_matrix;
    use crate::FleetEngine;

    #[test]
    fn partial_cross_day_append_walks_cold() {
        // Warm the grown scenarios' outcome blocks for all but one
        // predictor, then leave full-cross checkpoints at the base
        // horizon. The grown run then finds a checkpoint its scenario
        // extends, with the right axes, but only the missing
        // predictor's jobs fresh: a partial cross, which the checkpoint
        // rule refuses, so each unit walks cold.
        let base = small_matrix();
        let mut grown = base.clone();
        for scenario in &mut grown.scenarios {
            scenario.days += 2;
        }
        let mut grown_subset = grown.clone();
        grown_subset.predictors.remove(1);
        let engine = FleetEngine::new(67);
        let mut cache = engine.new_cache();
        engine.run_cached(&grown_subset, &mut cache).unwrap();
        engine.run_cached(&base, &mut cache).unwrap();

        let collector = Collector::recording();
        let result = engine
            .clone()
            .with_collector(collector.clone())
            .run_cached(&grown, &mut cache)
            .unwrap();
        let ledger = collector.ledger();
        assert_eq!(ledger.counter("delta/cold_fallbacks"), 2);
        assert_eq!(ledger.counter("delta/resumed_units"), 0);
        assert_eq!(result.cached_jobs, 4);
        let cold = FleetEngine::new(67).run(&grown).unwrap();
        assert_eq!(
            result.scorecard.to_json_string(),
            cold.scorecard.to_json_string()
        );
    }
}
