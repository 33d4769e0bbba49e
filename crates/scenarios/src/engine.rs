//! The fleet engine: expand a [`FleetMatrix`] into work units, run them
//! in parallel over per-scenario slot series, and reduce to a
//! [`Scorecard`], monolithic or sharded.
//!
//! A run is a sequence of phases, one function each, each under its
//! span: run keys and the fresh-job filter, retention admission, the
//! parallel unit walks (`crate::unit`), cache fill and assembly in job
//! order (`crate::cache`), and scoring.
//!
//! # Determinism
//!
//! Every random draw is derived from the engine's master seed by stable
//! hashing — scenario traces from `(master, scenario name)`, fault
//! realizations likewise — and each job re-derives its own state from
//! those seeds. Jobs share nothing mutable, and reduction sorts by job
//! index, so the engine's output (including rendered scorecard JSON) is
//! **byte-identical for a given matrix and seed regardless of thread
//! count, trace-cache policy, shard count, or cache warmth**.
//! Integration tests pin all four properties.
//!
//! # Observability
//!
//! The engine reports on itself through an optional
//! [`fleet_obs::Collector`] ([`FleetEngine::with_collector`]): phase
//! spans (`fleet/keys` → `admission` → `simulate` → `fill` →
//! `assemble` → `score`) on the timing plane, and
//! deterministic ledger counters — retention decisions with the trace
//! budget, synthesis passes, cache hits, slot counts, bank sizes, fault
//! specs — recorded at **work-unit granularity** (one batch of counter
//! updates per scenario unit, computed arithmetically), never inside
//! the per-slot loop. The default collector is a no-op whose calls
//! cost one branch, so un-instrumented runs are unchanged (perfbench's
//! `obs.recording_overhead` measures it); with collection on, outputs stay
//! byte-identical and the ledger itself is byte-identical across
//! thread counts and shard splits.

use crate::cache::{FleetCache, RunKeys};
use crate::catalog::Scenario;
use crate::delta::FleetDelta;
use crate::matrix::{FleetMatrix, JobSpec};
use crate::parallel::{ordered_map, ALL_CORES};
use crate::scorecard::{Scorecard, ScorecardShard, ShardManifest};
use crate::series::TraceCachePolicy;
use crate::unit::{UnitOutcomes, WorkUnit};
use fleet_obs::Collector;
use harvest_sim::NodeReport;
use pred_metrics::{ErrorSummary, RunCost};
use solar_synth::TraceGenerator;
use std::sync::Mutex;

/// Outcome of one (scenario, predictor, manager) job.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Predictor label.
    pub predictor: String,
    /// Manager label.
    pub manager: String,
    /// Matrix coordinates.
    pub spec: JobSpec,
    /// Prediction accuracy under the paper's protocol (metrics pass).
    pub summary: ErrorSummary,
    /// Management outcome (simulation pass).
    pub report: NodeReport,
    /// What the job cost: the predictor's peak candidate count
    /// (deterministic) and the bytes of slot series its unit walked.
    pub cost: RunCost,
}

/// How a run spent its synthesis passes, by kind. The single-walk
/// design bounds the total by one per fresh scenario (two after an ROI
/// peak or trace-gap fallback off a bare generator tail) — never by the
/// job count.
/// Recorded in the run ledger as `synth/trace_generations` and
/// `delta/trace_extensions`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PassBreakdown {
    /// Slot series synthesized cold, from day zero.
    pub trace_generations: usize,
    /// Syntheses continued from a stored generator tail — a day-append
    /// pays only for the appended days, whether the series was kept
    /// (and grows in place) or only its tail was.
    pub trace_extensions: usize,
}

impl PassBreakdown {
    /// Total synthesis passes of any kind.
    pub fn total(&self) -> usize {
        self.trace_generations + self.trace_extensions
    }

    fn add(&mut self, other: PassBreakdown) {
        self.trace_generations += other.trace_generations;
        self.trace_extensions += other.trace_extensions;
    }
}

/// A scenario whose work unit failed (panicked or errored) under
/// [`FleetEngine::with_quarantine`]: its jobs are absent from the
/// outcomes and its ranking table is empty, and the failure is
/// surfaced here instead of aborting the run. The harness folds these
/// into its `CoverageManifest` so a degraded run states exactly what
/// is missing and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantinedScenario {
    /// The scenario whose unit failed.
    pub scenario: String,
    /// The unit's error, or the panic message for caught panics.
    pub error: String,
}

/// Everything one fleet run produces.
#[derive(Clone, Debug)]
pub struct FleetResult {
    /// Per-job outcomes, in deterministic job order.
    pub outcomes: Vec<JobOutcome>,
    /// The reduced, ranked scorecard.
    pub scorecard: Scorecard,
    /// Jobs answered from the cache (0 for a fresh run).
    pub cached_jobs: usize,
    /// Jobs evaluated this run whose scenario's slot series the
    /// retention budget did not admit (held only while its unit ran).
    pub streamed_jobs: usize,
    /// Synthesis passes this run spent, broken down by kind.
    pub passes: PassBreakdown,
    /// Scenarios quarantined under [`FleetEngine::with_quarantine`]
    /// (always empty otherwise — failures abort the run instead).
    pub quarantined: Vec<QuarantinedScenario>,
}

/// A sharded fleet run: the manifest plus one scorecard shard per
/// scenario subset — the format for matrices whose monolithic scorecard
/// no longer fits one JSON document. [`Scorecard::merge_shards`]
/// reassembles the monolithic scorecard byte-for-byte.
#[derive(Clone, Debug)]
pub struct ShardedFleetResult {
    /// Which scenario lives in which shard, in matrix order.
    pub manifest: ShardManifest,
    /// The shards, indexed `0..manifest.shard_count`.
    pub shards: Vec<ScorecardShard>,
    /// Per-job outcomes, in deterministic job order.
    pub outcomes: Vec<JobOutcome>,
    /// Jobs answered from the cache.
    pub cached_jobs: usize,
    /// Jobs evaluated this run whose series was not retained.
    pub streamed_jobs: usize,
    /// Synthesis passes this run spent, broken down by kind.
    pub passes: PassBreakdown,
    /// Scenarios quarantined under [`FleetEngine::with_quarantine`]
    /// (always empty otherwise — failures abort the run instead).
    pub quarantined: Vec<QuarantinedScenario>,
}

/// One run's read-only plan, shared by its phases and work units: the
/// matrix, its jobs in matrix order, and its cache keys.
pub(crate) struct RunPlan<'m> {
    pub(crate) matrix: &'m FleetMatrix,
    pub(crate) jobs: Vec<JobSpec>,
    pub(crate) keys: RunKeys,
}

/// The parallel fleet evaluator.
#[derive(Clone, Debug)]
pub struct FleetEngine {
    master_seed: u64,
    threads: usize,
    cache_policy: TraceCachePolicy,
    pub(crate) collector: Collector,
    quarantine: bool,
    chaos_unit_panic: Option<String>,
}

impl FleetEngine {
    /// An engine deriving all randomness from `master_seed`, evaluating
    /// under the paper's protocol, using all available cores and
    /// retaining every slot series across runs.
    pub fn new(master_seed: u64) -> Self {
        FleetEngine {
            master_seed,
            threads: ALL_CORES,
            cache_policy: TraceCachePolicy::default(),
            collector: Collector::noop(),
            quarantine: false,
            chaos_unit_panic: None,
        }
    }

    /// Quarantines failing work units instead of aborting the run: a
    /// scenario whose unit errors or panics is excluded from the
    /// outcomes (its ranking table comes out empty), counted under
    /// `fleet/quarantined_units`, and reported in
    /// [`FleetResult::quarantined`] so callers can fold it into an
    /// explicit coverage manifest. Off by default — the classic
    /// behaviour propagates the first failure.
    pub fn with_quarantine(mut self, enabled: bool) -> Self {
        self.quarantine = enabled;
        self
    }

    /// Deterministic chaos injection for the quarantine path: the work
    /// unit for the named scenario panics at dispatch. Exists so the
    /// harness (and its tests) can drive a *real* in-process panic
    /// through `catch_unwind` end-to-end; useless — and off — in
    /// production runs.
    pub fn with_chaos_unit_panic(mut self, scenario: &str) -> Self {
        self.chaos_unit_panic = Some(scenario.to_string());
        self
    }

    /// Pins the worker-thread count (useful for determinism tests and
    /// benchmarking scaling). `0` means all available cores, the same
    /// as not pinning; a run never starts more workers than it has
    /// scenarios to walk. Outputs are byte-identical at every count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Replaces the trace-cache policy (bounded budgets keep fewer
    /// series across runs; outputs stay byte-identical either way).
    pub fn with_trace_cache(mut self, policy: TraceCachePolicy) -> Self {
        self.cache_policy = policy;
        self
    }

    /// Attaches an observability collector: runs record ledger
    /// counters and phase spans into it. The default is the no-op
    /// collector, whose calls cost one branch — outputs are
    /// byte-identical either way.
    pub fn with_collector(mut self, collector: Collector) -> Self {
        self.collector = collector;
        self
    }

    /// An empty cache bound to this engine's seed.
    pub fn new_cache(&self) -> FleetCache {
        let mut cache = FleetCache::default();
        cache.master_seed = Some(self.master_seed);
        cache
    }

    /// Runs the whole matrix from scratch.
    ///
    /// # Errors
    ///
    /// Returns the first trace-generation or hardware-construction
    /// error; a per-job panic (a contract violation) is caught at the
    /// work-unit boundary and returned as an error naming its
    /// scenario — or, under [`FleetEngine::with_quarantine`], excluded
    /// from the outcomes and reported in [`FleetResult::quarantined`].
    pub fn run(&self, matrix: &FleetMatrix) -> Result<FleetResult, String> {
        let mut cache = self.new_cache();
        self.run_cached(matrix, &mut cache)
    }

    /// Runs the matrix, reusing every slot series and job outcome
    /// already in `cache` and evaluating only what changed since the
    /// cache was filled. New series and outcomes are added to the cache.
    ///
    /// The scorecard is **byte-identical** to what [`FleetEngine::run`]
    /// would produce for the same matrix: jobs are pure functions of
    /// (scenario, predictor, manager, master seed), so a memoized
    /// outcome equals a recomputed one. Only the trace-memory
    /// accounting (never rendered into JSON) can differ.
    ///
    /// # Errors
    ///
    /// Returns an error if the cache is bound to a different seed, or on
    /// the first trace-generation/hardware error.
    pub fn run_cached(
        &self,
        matrix: &FleetMatrix,
        cache: &mut FleetCache,
    ) -> Result<FleetResult, String> {
        if *cache.master_seed.get_or_insert(self.master_seed) != self.master_seed {
            return Err("fleet cache is bound to a different master seed".to_string());
        }
        // The run's phases, one function each under its span.
        let _run_span = self.collector.span("fleet");
        let (plan, fresh) = self.keys(matrix, cache);
        let retained = {
            let _span = self.collector.span("fleet/admission");
            cache.admit(plan.matrix, self.cache_policy, &self.collector)
        };
        let units = self.units(&plan, &retained, fresh, cache);
        let evaluated = self.walk(&plan, &units);
        let (passes, quarantined) = self.fill(&plan, &units, evaluated, cache)?;
        let outcomes = {
            let _span = self.collector.span("fleet/assemble");
            cache.assemble(&plan.keys, &plan.jobs)
        };
        let fresh_jobs: usize = units.iter().map(|u| u.job_indices.len()).sum();
        let streamed = units.iter().filter(|u| !u.retained);
        let streamed_jobs = streamed.map(|u| u.job_indices.len()).sum();
        let cached_jobs = plan.jobs.len() - fresh_jobs;
        // Scoring needs only the matrix: free the keys, the jobs and
        // the units (with the replaced checkpoints they hold) first.
        drop((plan.jobs, plan.keys, units));
        let scorecard = {
            let _span = self.collector.span("fleet/score");
            Scorecard::build(plan.matrix, &outcomes, self.master_seed)
        };
        let scenarios = plan.matrix.scenarios.len() as u64;
        self.collector.count("score/scenarios_ranked", scenarios);
        Ok(FleetResult {
            outcomes,
            scorecard,
            cached_jobs,
            streamed_jobs,
            passes,
            quarantined,
        })
    }

    /// Runs the matrix and cuts its scorecard into `shard_count` shards
    /// plus the manifest — the artifact set for matrices whose
    /// monolithic scorecard is too large for one document. Scenarios
    /// are assigned by [`ShardManifest::round_robin`], so multi-year
    /// entries spread across shards.
    ///
    /// A shard count outside `1..=scenario_count` is **clamped** into
    /// range, and the clamp is recorded in the run ledger under the
    /// `shards/clamped` label.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn run_sharded(
        &self,
        matrix: &FleetMatrix,
        shard_count: usize,
    ) -> Result<ShardedFleetResult, String> {
        let mut cache = self.new_cache();
        self.run_sharded_cached(matrix, shard_count, &mut cache)
    }

    /// [`FleetEngine::run_sharded`] through a warm cache: the run's one
    /// [`Scorecard`], cut into shards by [`ShardManifest::round_robin`].
    ///
    /// # Errors
    ///
    /// As [`FleetEngine::run_sharded`], plus cache-binding mismatches.
    pub fn run_sharded_cached(
        &self,
        matrix: &FleetMatrix,
        shard_count: usize,
        cache: &mut FleetCache,
    ) -> Result<ShardedFleetResult, String> {
        let result = self.run_cached(matrix, cache)?;
        let shard_count = self.clamp_shard_count(shard_count, matrix.scenarios.len());
        let manifest = ShardManifest::round_robin(matrix, self.master_seed, shard_count);
        let shards = result.scorecard.into_shards(&manifest, &result.outcomes);
        Ok(ShardedFleetResult {
            manifest,
            shards,
            outcomes: result.outcomes,
            cached_jobs: result.cached_jobs,
            streamed_jobs: result.streamed_jobs,
            passes: result.passes,
            quarantined: result.quarantined,
        })
    }

    /// Re-scores an evolved matrix through the cheap path its
    /// [`FleetDelta`] classification routes to, against the warm cache
    /// of the previous run.
    ///
    /// The delta is advisory routing metadata — correctness never
    /// depends on it. Every path funnels into [`FleetEngine::run_cached`],
    /// whose per-scenario resume/reuse machinery independently verifies
    /// (by scenario value) that each cached artifact still matches the
    /// incoming matrix, so a stale or wrong classification
    /// degrades to colder work, never to a wrong scorecard:
    ///
    /// * [`FleetDelta::DayAppend`] — appended days resume from the unit
    ///   checkpoints and series extended from their tails (O(delta)
    ///   work; a trace-gap unit also re-walks the days from its rung),
    /// * [`FleetDelta::ScenarioEdit`] — only the touched scenarios
    ///   re-evaluate; everything else replays from the outcome cache,
    /// * [`FleetDelta::PredictorRetire`] — no simulation at all: the
    ///   surviving outcomes re-rank from cache,
    /// * [`FleetDelta::Unchanged`] — a pure cache replay.
    ///
    /// Per-unit `delta/*` ledger counters record the classification
    /// (`delta/day_appends`, `delta/scenario_edits`,
    /// `delta/predictor_retirements`), one increment per delta unit.
    ///
    /// # Errors
    ///
    /// As [`FleetEngine::run_cached`].
    pub fn run_delta(
        &self,
        matrix: &FleetMatrix,
        cache: &mut FleetCache,
        delta: &FleetDelta,
    ) -> Result<FleetResult, String> {
        let collector = &self.collector;
        match delta {
            FleetDelta::DayAppend { scenarios } => {
                for name in scenarios {
                    collector.count_scenario(name, "delta/day_appends", 1);
                }
            }
            FleetDelta::ScenarioEdit { scenarios } => {
                for name in scenarios {
                    collector.count_scenario(name, "delta/scenario_edits", 1);
                }
            }
            FleetDelta::PredictorRetire { predictors } => {
                collector.count("delta/predictor_retirements", predictors.len() as u64);
            }
            FleetDelta::Unchanged => {}
        }
        self.run_cached(matrix, cache)
    }

    /// Clamps a requested shard count into `1..=scenario_count`,
    /// recording a `shards/clamped` ledger label when it bites.
    fn clamp_shard_count(&self, requested: usize, scenario_count: usize) -> usize {
        let clamped = requested.clamp(1, scenario_count.max(1));
        if clamped != requested && self.collector.is_enabled() {
            self.collector
                .label("shards/clamped", &format!("{requested}->{clamped}"));
        }
        clamped
    }

    /// The run's plan, and each scenario's fresh jobs — the ones the
    /// cache cannot answer, grouped into **one work unit per
    /// scenario**: the unit's single series walk feeds every fresh
    /// job's machines, so adding candidates to the matrix adds per-slot
    /// arithmetic, never whole passes.
    fn keys<'m>(
        &self,
        matrix: &'m FleetMatrix,
        cache: &FleetCache,
    ) -> (RunPlan<'m>, Vec<Vec<usize>>) {
        let span = self.collector.span("fleet/keys");
        let keys = RunKeys::of(matrix);
        let jobs = matrix.jobs();
        let fresh = cache.fresh_jobs(&keys);
        drop(span);
        let collector = &self.collector;
        let specs = matrix.scenarios.iter().map(|s| s.faults.len() as u64);
        collector.count("faults/fault_specs", specs.sum());
        let fresh_jobs: usize = fresh.iter().map(Vec::len).sum();
        collector.count("jobs/evaluated", jobs.len() as u64);
        collector.count("cache/job_hits", (jobs.len() - fresh_jobs) as u64);
        collector.count("cache/job_misses", fresh_jobs as u64);
        (RunPlan { matrix, jobs, keys }, fresh)
    }

    /// One work unit per scenario with fresh jobs, holding its resume
    /// point ([`FleetCache::resume_point`]) and the series it takes out
    /// of the cache ([`FleetCache::take_series`]).
    fn units(
        &self,
        plan: &RunPlan,
        retained: &[bool],
        fresh: Vec<Vec<usize>>,
        cache: &mut FleetCache,
    ) -> Vec<WorkUnit> {
        let scenarios = plan.matrix.scenarios.iter().zip(retained).zip(fresh);
        scenarios
            .enumerate()
            .filter(|(_, (_, job_indices))| !job_indices.is_empty())
            .map(|(scenario_idx, ((scenario, &retained), job_indices))| {
                let fresh_jobs = job_indices.len();
                let resume = cache.resume_point(scenario, fresh_jobs, &plan.keys, &self.collector);
                let series = cache.take_series(scenario, retained, resume.as_deref());
                WorkUnit {
                    scenario_idx,
                    job_indices,
                    retained,
                    resume,
                    series: Mutex::new(series),
                }
            })
            .collect()
    }

    /// The parallel walks, one per unit, on the engine's thread count
    /// (all available cores unless [`FleetEngine::with_threads`] pins
    /// one). Each unit runs under `catch_unwind`: a panicking unit (a
    /// contract violation in predictor/manager code, or injected
    /// chaos) surfaces as `Err` naming its scenario instead of
    /// unwinding through the map and aborting the whole run.
    fn walk(&self, plan: &RunPlan, units: &[WorkUnit]) -> Vec<Result<UnitOutcomes, String>> {
        ordered_map(units, self.threads, |unit| {
            let scenario_name = &plan.matrix.scenarios[unit.scenario_idx].name;
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if self.chaos_unit_panic.as_deref() == Some(scenario_name.as_str()) {
                    panic!("chaos: injected work-unit panic");
                }
                unit.evaluate(self, plan)
            }))
            .unwrap_or_else(|payload| {
                Err(format!(
                    "scenario {scenario_name:?}: work unit panicked: {}",
                    panic_message(&*payload)
                ))
            })
        })
    }

    /// Stores every unit's results in the cache, in unit order, and
    /// sums their synthesis passes. A failed unit aborts the run, or
    /// under quarantine is set aside with its error.
    fn fill(
        &self,
        plan: &RunPlan,
        units: &[WorkUnit],
        evaluated: Vec<Result<UnitOutcomes, String>>,
        cache: &mut FleetCache,
    ) -> Result<(PassBreakdown, Vec<QuarantinedScenario>), String> {
        let collector = &self.collector;
        let span = collector.span("fleet/fill");
        let mut passes = PassBreakdown::default();
        let mut quarantined = Vec::new();
        for (unit, result) in units.iter().zip(evaluated) {
            let scenario = &plan.matrix.scenarios[unit.scenario_idx];
            match result {
                Ok(result) => {
                    passes.add(result.passes);
                    cache.store(scenario, unit, &plan.keys, result);
                }
                Err(error) if self.quarantine => {
                    let scenario = scenario.name.clone();
                    collector.count_scenario(&scenario, "fleet/quarantined_units", 1);
                    quarantined.push(QuarantinedScenario { scenario, error });
                }
                Err(error) => return Err(error),
            }
        }
        drop(span);
        collector.count("synth/trace_generations", passes.trace_generations as u64);
        if passes.trace_extensions > 0 {
            collector.count("delta/trace_extensions", passes.trace_extensions as u64);
        }
        Ok((passes, quarantined))
    }

    /// The deterministic per-scenario seed: stable across runs, thread
    /// counts, and platforms; distinct per scenario name.
    ///
    /// The hashed string is *salted*: a custom site built from the same
    /// scenario name carries `seed_stream = fnv1a(name)`, and the trace
    /// generator XORs `seed ^ seed_stream` — hashing the bare name here
    /// would cancel it out and hand every custom-site scenario the same
    /// RNG stream (a regression test pins this).
    pub(crate) fn scenario_seed(&self, scenario: &Scenario) -> u64 {
        let salted = format!("fleet-scenario/{}", scenario.name);
        solar_trace::hash::fnv1a(&salted) ^ self.master_seed.rotate_left(17)
    }

    /// A scenario's generator: the engine's one synthesis source.
    pub(crate) fn generator(&self, scenario: &Scenario) -> Result<TraceGenerator, String> {
        let config = scenario.site_config()?;
        Ok(TraceGenerator::new(config, self.scenario_seed(scenario)))
    }
}

/// Best-effort text of a caught panic payload (`panic!` carries `&str`
/// or `String`; anything else renders opaquely).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::matrix::PredictorSpec;
    use crate::parallel::tests::within_a_minute;
    use crate::series::{series_footprint_bytes, SlotSeries};
    use crate::ManagerSpec;
    use solar_trace::SlotsPerDay;

    pub(crate) fn small_matrix() -> FleetMatrix {
        let scenarios = vec![
            Catalog::builtin().get("desert-clear-sky").unwrap().clone(),
            Catalog::builtin().get("aging-node").unwrap().clone(),
        ];
        FleetMatrix::new(
            vec![
                PredictorSpec::Wcma {
                    alpha: 0.7,
                    days: 10,
                    k: 2,
                },
                PredictorSpec::Persistence,
            ],
            vec![
                ManagerSpec::EnergyNeutral {
                    target_soc: 0.5,
                    gain: 0.25,
                },
                ManagerSpec::Greedy,
            ],
            scenarios,
        )
        .unwrap()
    }

    /// `scenario`'s full series, synthesized cold.
    fn cold_series(engine: &FleetEngine, scenario: &Scenario) -> SlotSeries {
        let slots = SlotsPerDay::new(scenario.slots_per_day).unwrap();
        SlotSeries::cold(&engine.generator(scenario).unwrap(), scenario.days, slots)
            .unwrap()
            .0
    }

    #[test]
    fn engine_runs_the_full_matrix() {
        let result = FleetEngine::new(42).run(&small_matrix()).unwrap();
        assert_eq!(result.outcomes.len(), 2 * 2 * 2);
        assert_eq!(result.cached_jobs, 0);
        // The default policy retains every series.
        assert_eq!(result.streamed_jobs, 0, "small fleets keep every series");
        for outcome in &result.outcomes {
            assert!(outcome.summary.count > 0, "{}", outcome.scenario);
            assert!(outcome.summary.mape.is_finite());
            assert_eq!(outcome.cost.peak_candidates, 1);
            assert!(outcome.cost.peak_trace_bytes > 0);
            assert!(
                outcome.report.energy_balance_error_j()
                    < 1e-6 * outcome.report.harvested_j.max(1.0),
                "{}: {}",
                outcome.scenario,
                outcome.report.energy_balance_error_j()
            );
        }
    }

    #[test]
    fn work_unit_panic_is_an_error_not_an_abort() {
        let err = FleetEngine::new(42)
            .with_chaos_unit_panic("desert-clear-sky")
            .run(&small_matrix())
            .unwrap_err();
        assert!(err.contains("desert-clear-sky"), "{err}");
        assert!(err.contains("panicked"), "{err}");
        // The panic's own message, not a stand-in for its payload.
        assert!(err.contains("chaos: injected work-unit panic"), "{err}");
    }

    #[test]
    fn quarantine_excludes_the_failed_scenario_and_keeps_the_rest() {
        let matrix = small_matrix();
        let clean = FleetEngine::new(42).run(&matrix).unwrap();
        assert!(clean.quarantined.is_empty());
        let result = FleetEngine::new(42)
            .with_quarantine(true)
            .with_chaos_unit_panic("desert-clear-sky")
            .run(&matrix)
            .unwrap();
        assert_eq!(result.quarantined.len(), 1);
        assert_eq!(result.quarantined[0].scenario, "desert-clear-sky");
        assert!(result.quarantined[0].error.contains("panicked"));
        // Only the healthy scenario's jobs survive, and its rankings
        // are byte-identical to the clean run's table for it.
        assert_eq!(result.outcomes.len(), 2 * 2);
        assert!(result.outcomes.iter().all(|o| o.scenario == "aging-node"));
        let table_of = |scorecard: &Scorecard, name: &str| {
            scorecard
                .per_scenario
                .iter()
                .find(|r| r.scenario == name)
                .unwrap()
                .clone()
        };
        assert_eq!(
            table_of(&result.scorecard, "aging-node"),
            table_of(&clean.scorecard, "aging-node")
        );
        assert!(
            table_of(&result.scorecard, "desert-clear-sky")
                .entries
                .is_empty(),
            "the quarantined scenario's table is empty, not wrong"
        );
    }

    #[test]
    fn an_invalid_manager_set_after_assembly_fails_its_units() {
        // The matrix's fields are public, so a manager can change after
        // `FleetMatrix::new` validated it. A duty outside [0, 1] and a
        // NaN gain (which would plan duty 0 forever, silently) both fail
        // every unit that runs the manager, by name.
        let invalid = [
            ManagerSpec::FixedDuty { duty: 1.5 },
            ManagerSpec::EnergyNeutral {
                target_soc: 0.5,
                gain: f64::NAN,
            },
        ];
        for manager in invalid {
            let mut matrix = small_matrix();
            matrix.managers[1] = manager;
            let err = FleetEngine::new(42).run(&matrix).unwrap_err();
            assert!(err.contains("desert-clear-sky"), "{err}");
            let result = FleetEngine::new(42)
                .with_quarantine(true)
                .run(&matrix)
                .unwrap();
            let quarantined: Vec<&str> = result
                .quarantined
                .iter()
                .map(|q| q.scenario.as_str())
                .collect();
            assert_eq!(quarantined, ["desert-clear-sky", "aging-node"]);
            for failure in &result.quarantined {
                assert!(failure.error.contains(&failure.scenario), "{failure:?}");
            }
            assert!(result.outcomes.is_empty());
            assert!(result.scorecard.overall.is_empty());
            let tables = &result.scorecard.per_scenario;
            assert!(tables.iter().all(|table| table.entries.is_empty()));
        }
    }

    #[test]
    fn streaming_only_policy_is_byte_identical_and_never_materializes() {
        let matrix = small_matrix();
        let materialized = FleetEngine::new(5).run(&matrix).unwrap();
        let engine = FleetEngine::new(5).with_trace_cache(TraceCachePolicy::bounded(0));
        let mut cache = engine.new_cache();
        let streamed = engine.run_cached(&matrix, &mut cache).unwrap();
        assert_eq!(streamed.streamed_jobs, matrix.job_count());
        assert_eq!(cache.trace_count(), 0, "no series may be retained");
        assert_eq!(cache.trace_bytes(), 0);
        assert_eq!(
            streamed.scorecard.to_json_string(),
            materialized.scorecard.to_json_string(),
            "retained and dropped series must agree byte-for-byte"
        );
        for (a, b) in streamed.outcomes.iter().zip(&materialized.outcomes) {
            assert_eq!(a.summary, b.summary);
            assert_eq!(a.report, b.report);
            // Retention only decides what outlives the run: every unit
            // walks the same 16-byte-per-slot series either way.
            assert_eq!(a.cost.peak_trace_bytes, b.cost.peak_trace_bytes);
        }
    }

    #[test]
    fn bounded_budget_splits_materialize_and_stream_deterministically() {
        let matrix = small_matrix();
        // Admit exactly the first scenario's series.
        let first = &matrix.scenarios[0];
        let first_bytes = series_footprint_bytes(first.days * first.slots_per_day as usize);
        let engine =
            FleetEngine::new(5).with_trace_cache(TraceCachePolicy::bounded(first_bytes as u64));
        let mut cache = engine.new_cache();
        let result = engine.run_cached(&matrix, &mut cache).unwrap();
        assert_eq!(cache.trace_count(), 1);
        assert_eq!(cache.trace_bytes(), first_bytes);
        assert_eq!(result.streamed_jobs, matrix.job_count() / 2);
        let reference = FleetEngine::new(5).run(&matrix).unwrap();
        assert_eq!(
            result.scorecard.to_json_string(),
            reference.scorecard.to_json_string()
        );
    }

    #[test]
    fn zero_budget_retains_nothing_and_stays_byte_identical() {
        assert_eq!(TraceCachePolicy::default(), TraceCachePolicy::unbounded());
        assert_eq!(TraceCachePolicy::unbounded().budget_bytes(), None);
        assert_eq!(TraceCachePolicy::bounded(512).budget_bytes(), Some(512));
        assert_eq!(TraceCachePolicy::bounded(0).budget_bytes(), Some(0));

        // A zero budget admits no series; the scorecard must not move by
        // a byte relative to the unbounded run, and the ledger names the
        // configured budget.
        let matrix = small_matrix();
        let unbounded = FleetEngine::new(11).run(&matrix).unwrap();
        let collector = Collector::recording();
        let starved_engine = FleetEngine::new(11)
            .with_trace_cache(TraceCachePolicy::bounded(0))
            .with_collector(collector.clone());
        let mut cache = starved_engine.new_cache();
        let starved = starved_engine.run_cached(&matrix, &mut cache).unwrap();
        assert_eq!(starved.streamed_jobs, matrix.job_count());
        assert_eq!(cache.trace_count(), 0, "a zero budget retains nothing");
        assert_eq!(
            starved.scorecard.to_json_string(),
            unbounded.scorecard.to_json_string()
        );
        let ledger = collector.ledger();
        assert_eq!(
            ledger.label_value("admission/trace_budget_source"),
            Some("configured")
        );
        assert_eq!(ledger.gauge_value("admission/trace_budget_bytes"), Some(0));
    }

    #[test]
    fn single_pass_accounting_counts_one_synthesis_per_fresh_scenario() {
        let matrix = small_matrix();
        let engine = FleetEngine::new(17);
        let mut cache = engine.new_cache();
        // Fresh run: one synthesis per scenario, shared by all of its
        // jobs — never one per job.
        let fresh = engine.run_cached(&matrix, &mut cache).unwrap();
        assert_eq!(fresh.passes.total(), matrix.scenarios.len());
        assert_eq!(fresh.passes.trace_generations, matrix.scenarios.len());
        // Retained series: new jobs cost zero synthesis passes.
        let mut grown = matrix.clone();
        grown.predictors.push(PredictorSpec::Ewma { gamma: 0.4 });
        let incremental = engine.run_cached(&grown, &mut cache).unwrap();
        assert_eq!(incremental.passes.total(), 0);
        // Fully cached: nothing runs at all.
        let warm = engine.run_cached(&grown, &mut cache).unwrap();
        assert_eq!(warm.passes.total(), 0);
        assert_eq!(warm.cached_jobs, grown.job_count());
        // Streaming-only, with a 3-year scenario: still exactly one
        // synthesis per scenario — the ROI peak comes from the series
        // the unit already holds, so no horizon needs a pre-pass.
        let mut long = matrix.clone();
        long.scenarios
            .push(Catalog::builtin().get("la-nina-triennium").unwrap().clone());
        assert!(long.scenarios[2].days >= 3 * 365);
        let collector = Collector::recording();
        let streaming = FleetEngine::new(17)
            .with_trace_cache(TraceCachePolicy::bounded(0))
            .with_collector(collector.clone())
            .run(&long)
            .unwrap();
        assert_eq!(streaming.passes.total(), long.scenarios.len());
        assert_eq!(streaming.passes.trace_generations, long.scenarios.len());
        let ledger = collector.ledger();
        for scenario in &long.scenarios {
            let mut stream = engine
                .generator(scenario)
                .unwrap()
                .slot_stream(
                    scenario.days,
                    SlotsPerDay::new(scenario.slots_per_day).unwrap(),
                )
                .unwrap();
            for _ in stream.by_ref() {}
            assert_eq!(
                ledger.scenario_counter(&scenario.name, "synth/keystream_blocks"),
                stream.counters().keystream_blocks,
                "{}: one stream's worth of keystream, no more",
                scenario.name
            );
        }
    }

    #[test]
    fn collector_records_ledger_and_budget_without_perturbing_output() {
        let matrix = small_matrix();
        let plain = FleetEngine::new(23).run(&matrix).unwrap();
        let collector = Collector::recording();
        let observed = FleetEngine::new(23)
            .with_collector(collector.clone())
            .run(&matrix)
            .unwrap();
        // Collection must not move a byte of pinned output.
        assert_eq!(
            plain.scorecard.to_json_string(),
            observed.scorecard.to_json_string()
        );
        let ledger = collector.ledger();
        let jobs = matrix.job_count() as u64;
        let scenarios = matrix.scenarios.len() as u64;
        assert_eq!(ledger.counter("jobs/evaluated"), jobs);
        assert_eq!(ledger.counter("cache/job_misses"), jobs);
        assert_eq!(ledger.counter("cache/job_hits"), 0);
        assert_eq!(ledger.counter("synth/trace_generations"), scenarios);
        assert_eq!(ledger.counter("score/scenarios_ranked"), scenarios);
        assert_eq!(ledger.counter("jobs/fresh"), jobs);
        assert!(ledger.counter("slots/processed") > 0);
        // The default ledger holds nothing host-dependent: an unbounded
        // budget has no byte count to record.
        assert_eq!(
            ledger.label_value("admission/trace_budget_source"),
            Some("unbounded")
        );
        assert_eq!(ledger.gauge_value("admission/trace_budget_bytes"), None);
        // Phase spans landed under the run root.
        let report = collector.report();
        let fleet = report
            .spans
            .children
            .iter()
            .find(|c| c.name == "fleet")
            .expect("fleet span recorded");
        assert!(fleet.children.iter().any(|c| c.name == "simulate"));
        assert_eq!(report.scenario_top.len(), matrix.scenarios.len().min(10));
    }

    #[test]
    fn warm_cache_ledger_shows_hits_equal_jobs_and_zero_synthesis() {
        let matrix = small_matrix();
        let engine = FleetEngine::new(29);
        let mut cache = engine.new_cache();
        engine.run_cached(&matrix, &mut cache).unwrap();
        // Second run through a fresh collector: everything is served
        // from the cache.
        let collector = Collector::recording();
        let warm = FleetEngine::new(29)
            .with_collector(collector.clone())
            .run_cached(&matrix, &mut cache)
            .unwrap();
        assert_eq!(warm.cached_jobs, matrix.job_count());
        let ledger = collector.ledger();
        let jobs = matrix.job_count() as u64;
        assert_eq!(ledger.counter("cache/job_hits"), jobs);
        assert_eq!(ledger.counter("cache/job_misses"), 0);
        assert_eq!(
            ledger.counter("cache/trace_hits"),
            matrix.scenarios.len() as u64
        );
        assert_eq!(ledger.counter("synth/trace_generations"), 0);
        assert_eq!(ledger.counter("synth/keystream_blocks"), 0);
        assert_eq!(ledger.counter("slots/processed"), 0);
    }

    #[test]
    fn outcomes_are_in_job_order_regardless_of_threads() {
        let matrix = small_matrix();
        let a = FleetEngine::new(7).with_threads(1).run(&matrix).unwrap();
        let b = FleetEngine::new(7).with_threads(4).run(&matrix).unwrap();
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.spec, y.spec);
            assert_eq!(x.summary, y.summary);
            assert_eq!(x.report, y.report);
        }
    }

    /// `matrix`'s scorecard JSON from an engine pinned to `threads`.
    fn scorecard_bytes(matrix: &FleetMatrix, threads: usize) -> String {
        let engine = FleetEngine::new(7).with_threads(threads);
        engine.run(matrix).unwrap().scorecard.to_json_string()
    }

    #[test]
    fn engines_share_no_thread_count() {
        let matrix = small_matrix();
        let single = scorecard_bytes(&matrix, 1);
        // Two engines at different counts, started together.
        let start = std::sync::Barrier::new(2);
        let run = |threads| {
            start.wait();
            scorecard_bytes(&matrix, threads)
        };
        let (one, three) = std::thread::scope(|scope| {
            let one = scope.spawn(|| run(1));
            let three = scope.spawn(|| run(3));
            (one.join().unwrap(), three.join().unwrap())
        });
        assert_eq!(one, single);
        assert_eq!(three, single);
        // An engine with its own count, run from inside a map worker.
        // A process-global thread count installed under a lock would
        // make this nested run wait for good, hence the deadline.
        let nested =
            within_a_minute(move || ordered_map(&[matrix], 2, |matrix| scorecard_bytes(matrix, 2)));
        assert_eq!(nested, [single]);
    }

    #[test]
    fn zero_threads_means_all_cores_and_wide_counts_give_the_same_bytes() {
        let scenarios = ["desert-clear-sky", "aging-node", "gappy-telemetry-desert"];
        let matrix = FleetMatrix::new(
            vec![PredictorSpec::Persistence],
            vec![ManagerSpec::Greedy],
            scenarios
                .iter()
                .map(|name| Catalog::builtin().get(name).unwrap().clone())
                .collect(),
        )
        .unwrap();
        let single = scorecard_bytes(&matrix, 1);
        assert_eq!(scorecard_bytes(&matrix, 0), single);
        // 64 threads start one worker per unit, three here.
        assert_eq!(scorecard_bytes(&matrix, 64), single);
    }

    #[test]
    fn equally_configured_custom_sites_with_different_names_get_different_traces() {
        // Regression: the scenario-seed hash must not cancel against the
        // custom site's name-derived seed_stream (engine XORs the
        // scenario hash in, TraceGenerator XORs seed_stream back out).
        let base = Catalog::builtin().get("four-seasons").unwrap().clone();
        let mut twin = base.clone();
        twin.name = "four-seasons-twin".into();
        twin.days = base.days;
        let engine = FleetEngine::new(3);
        let a = cold_series(&engine, &base);
        let b = cold_series(&engine, &twin);
        assert_ne!(a.means, b.means);
    }

    #[test]
    fn different_seeds_give_different_traces() {
        let matrix = small_matrix();
        let a = FleetEngine::new(1).run(&matrix).unwrap();
        let b = FleetEngine::new(2).run(&matrix).unwrap();
        assert_ne!(a.outcomes[0].summary, b.outcomes[0].summary);
    }

    #[test]
    fn faults_hurt_the_faulted_scenario() {
        // The aging-node scenario halves storage and drops samples; the
        // faulted run must still balance energy and produce strictly
        // positive harvest.
        let result = FleetEngine::new(3).run(&small_matrix()).unwrap();
        let faulted: Vec<_> = result
            .outcomes
            .iter()
            .filter(|o| o.scenario == "aging-node")
            .collect();
        assert!(!faulted.is_empty());
        for outcome in faulted {
            assert!(outcome.report.harvested_j > 0.0);
            assert!(outcome.report.energy_balance_error_j() < 1e-6);
        }
    }

    #[test]
    fn cache_answers_repeat_runs_without_re_evaluating() {
        let matrix = small_matrix();
        let engine = FleetEngine::new(9);
        let mut cache = engine.new_cache();
        let first = engine.run_cached(&matrix, &mut cache).unwrap();
        assert_eq!(first.cached_jobs, 0);
        assert_eq!(cache.len(), matrix.job_count());
        assert_eq!(cache.trace_count(), matrix.scenarios.len());
        assert!(cache.trace_bytes() > 0);
        let second = engine.run_cached(&matrix, &mut cache).unwrap();
        assert_eq!(second.cached_jobs, matrix.job_count());
        assert_eq!(
            first.scorecard.to_json_string(),
            second.scorecard.to_json_string()
        );
    }

    #[test]
    fn incremental_predictor_axis_change_matches_full_run_byte_for_byte() {
        // The tuning-loop pattern: score family A, then grow the axis.
        let base = small_matrix();
        let mut grown = base.clone();
        grown.predictors.push(PredictorSpec::Ewma { gamma: 0.5 });

        let engine = FleetEngine::new(21);
        let mut cache = engine.new_cache();
        engine.run_cached(&base, &mut cache).unwrap();
        let incremental = engine.run_cached(&grown, &mut cache).unwrap();
        // Only the new predictor's jobs ran.
        assert_eq!(incremental.cached_jobs, base.job_count());

        let full = FleetEngine::new(21).run(&grown).unwrap();
        assert_eq!(
            incremental.scorecard.to_json_string(),
            full.scorecard.to_json_string(),
            "incremental re-scoring must be byte-identical to a full run"
        );
    }

    #[test]
    fn cache_rejects_mismatched_engines() {
        let matrix = small_matrix();
        let mut cache = FleetEngine::new(1).new_cache();
        assert!(FleetEngine::new(2).run_cached(&matrix, &mut cache).is_err());
        // An unbound cache binds to the first engine that runs it.
        let mut cache = FleetCache::default();
        FleetEngine::new(3).run_cached(&matrix, &mut cache).unwrap();
        assert!(FleetEngine::new(4).run_cached(&matrix, &mut cache).is_err());
        assert!(FleetEngine::new(3).run_cached(&matrix, &mut cache).is_ok());
    }

    #[test]
    fn renamed_scenario_is_not_served_from_cache() {
        // Same site config, different name ⇒ different trace seed; the
        // JSON cache key must keep them apart.
        let mut matrix = small_matrix();
        let engine = FleetEngine::new(4);
        let mut cache = engine.new_cache();
        let before = engine.run_cached(&matrix, &mut cache).unwrap();
        matrix.scenarios[0].name = "desert-clear-sky-b".into();
        let after = engine.run_cached(&matrix, &mut cache).unwrap();
        assert_eq!(after.cached_jobs, matrix.job_count() / 2);
        assert_ne!(
            before.outcomes[0].summary, after.outcomes[0].summary,
            "renamed scenario must re-evaluate under its own seed"
        );
    }

    #[test]
    fn sharded_run_merges_back_to_the_monolithic_scorecard() {
        // The quarantined engine leaves desert-clear-sky's table empty;
        // the merge must keep it in place and still check that every
        // ranked table carries one combo set, whichever scenario the
        // manifest lists first.
        let engines: [fn() -> FleetEngine; 2] = [
            || FleetEngine::new(31),
            || {
                FleetEngine::new(31)
                    .with_quarantine(true)
                    .with_chaos_unit_panic("desert-clear-sky")
            },
        ];
        let mut reversed = small_matrix();
        reversed.scenarios.reverse();
        for engine in engines {
            for matrix in [small_matrix(), reversed.clone()] {
                let monolithic = engine().run(&matrix).unwrap().scorecard.to_json_string();
                for count in [1, 2] {
                    let sharded = engine().run_sharded(&matrix, count).unwrap();
                    assert_eq!(sharded.shards.len(), count);
                    let merged =
                        Scorecard::merge_shards(&sharded.manifest, &sharded.shards).unwrap();
                    assert_eq!(merged.to_json_string(), monolithic);
                    // A warm cache shards to the same bytes too.
                    let mut cache = engine().new_cache();
                    engine().run_cached(&matrix, &mut cache).unwrap();
                    let warm = engine()
                        .run_sharded_cached(&matrix, count, &mut cache)
                        .unwrap();
                    let merged = Scorecard::merge_shards(&warm.manifest, &warm.shards).unwrap();
                    assert_eq!(merged.to_json_string(), monolithic);
                }
            }
        }
    }

    #[test]
    fn out_of_range_shard_counts_clamp_into_range() {
        // Shard counts outside `1..=scenario_count` clamp into range,
        // and the clamped artifacts still merge back to the monolithic
        // bytes.
        let matrix = small_matrix();
        let monolithic = FleetEngine::new(1).run(&matrix).unwrap();
        let low = FleetEngine::new(1).run_sharded(&matrix, 0).unwrap();
        assert_eq!(low.shards.len(), 1);
        let high = FleetEngine::new(1).run_sharded(&matrix, 3).unwrap();
        assert_eq!(high.shards.len(), matrix.scenarios.len());
        for sharded in [low, high] {
            let merged = Scorecard::merge_shards(&sharded.manifest, &sharded.shards).unwrap();
            assert_eq!(
                merged.to_json_string(),
                monolithic.scorecard.to_json_string()
            );
        }
    }

    #[test]
    fn day_append_resumes_from_checkpoints_and_matches_cold_bytes() {
        // Retained path: the warm run leaves unit checkpoints and whole
        // series; appending days must extend the series in place (no
        // full regeneration) and resume every state machine, with the
        // scorecard byte-identical to a cold run of the extended
        // matrix. The second matrix puts every solo kernel (Q16 WCMA,
        // both dynamic forms, EWMA, moving average, persistence) and
        // every manager through the cloned checkpoint.
        let small = small_matrix();
        let wide = FleetMatrix::new(
            PredictorSpec::extended_family(),
            ManagerSpec::default_set(),
            small.scenarios.clone(),
        )
        .unwrap();
        for matrix in [small, wide] {
            let engine = FleetEngine::new(41);
            let mut cache = engine.new_cache();
            engine.run_cached(&matrix, &mut cache).unwrap();

            let mut grown = matrix.clone();
            for scenario in &mut grown.scenarios {
                scenario.days += 3;
            }
            let delta = FleetDelta::classify(&matrix, &grown).unwrap();
            assert_eq!(
                delta,
                FleetDelta::DayAppend {
                    scenarios: grown.scenarios.iter().map(|s| s.name.clone()).collect()
                }
            );

            let collector = Collector::recording();
            let incremental = FleetEngine::new(41)
                .with_collector(collector.clone())
                .run_delta(&grown, &mut cache, &delta)
                .unwrap();
            assert_eq!(incremental.passes.trace_generations, 0);
            assert_eq!(
                incremental.passes.trace_extensions,
                grown.scenarios.len(),
                "every series must extend from its stored tail"
            );
            let ledger = collector.ledger();
            assert_eq!(ledger.counter("synth/trace_generations"), 0);
            assert_eq!(
                ledger.counter("delta/trace_extensions"),
                grown.scenarios.len() as u64
            );
            assert_eq!(ledger.counter("delta/cold_fallbacks"), 0);
            assert!(ledger.counter("delta/resumed_units") >= 1);
            assert_eq!(
                ledger.counter("delta/resumed_units") + ledger.counter("delta/peak_fallbacks"),
                grown.scenarios.len() as u64,
                "every unit either resumes or transparently falls back"
            );
            assert_eq!(
                ledger.counter("delta/day_appends"),
                grown.scenarios.len() as u64
            );

            let cold = FleetEngine::new(41).run(&grown).unwrap();
            assert_eq!(
                incremental.scorecard.to_json_string(),
                cold.scorecard.to_json_string()
            );
            // The extended retained series is bitwise the cold one.
            for scenario in &grown.scenarios {
                let cold = cold_series(&engine, scenario);
                let (stored, cached) = &cache.series[&scenario.name];
                assert_eq!(stored, scenario);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&cached.starts), bits(&cold.starts));
                assert_eq!(bits(&cached.means), bits(&cold.means));
            }
        }
    }

    #[test]
    fn streamed_day_append_resumes_the_generator_tail() {
        // Streaming-only path: no series is kept, so the resume
        // synthesizes the appended days from the stored generator tail
        // alone.
        let matrix = small_matrix();
        let engine = FleetEngine::new(43).with_trace_cache(TraceCachePolicy::bounded(0));
        let mut cache = engine.new_cache();
        engine.run_cached(&matrix, &mut cache).unwrap();

        let mut grown = matrix.clone();
        for scenario in &mut grown.scenarios {
            scenario.days += 2;
        }
        let collector = Collector::recording();
        let incremental = FleetEngine::new(43)
            .with_trace_cache(TraceCachePolicy::bounded(0))
            .with_collector(collector.clone())
            .run_cached(&grown, &mut cache)
            .unwrap();
        let ledger = collector.ledger();
        let n = grown.scenarios[0].slots_per_day as u64;
        let resumed = ledger.counter("delta/resumed_units");
        assert!(resumed > 0, "units must resume off their tails");
        assert_eq!(cache.trace_count(), 0);
        if resumed == grown.scenarios.len() as u64 {
            // All units resumed: the pass walked only the appended days.
            assert_eq!(
                ledger.counter("slots/processed"),
                2 * n * grown.scenarios.len() as u64
            );
        }
        let cold = FleetEngine::new(43)
            .with_trace_cache(TraceCachePolicy::bounded(0))
            .run(&grown)
            .unwrap();
        assert_eq!(
            incremental.scorecard.to_json_string(),
            cold.scorecard.to_json_string()
        );
    }

    #[test]
    fn appended_days_that_raise_the_roi_peak_fall_back_to_a_cold_pass() {
        // Dimming the whole original horizon halves every reference
        // mean the checkpointed ROI peak saw; the appended days shine
        // at full strength, so the extended peak must rise — the
        // prefix's record-inclusion decisions are stale and the unit
        // has to transparently re-run cold. Bytes still match.
        let mut scenario = Catalog::builtin().get("desert-clear-sky").unwrap().clone();
        scenario.faults.push(crate::FaultSpec::ClimateDimming {
            start_day: 0,
            duration_days: scenario.days,
            factor: 0.5,
        });
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
            vec![scenario],
        )
        .unwrap();
        let engine = FleetEngine::new(47);
        let mut cache = engine.new_cache();
        engine.run_cached(&matrix, &mut cache).unwrap();

        let mut grown = matrix.clone();
        grown.scenarios[0].days += 2;
        let collector = Collector::recording();
        let incremental = FleetEngine::new(47)
            .with_collector(collector.clone())
            .run_cached(&grown, &mut cache)
            .unwrap();
        let ledger = collector.ledger();
        assert_eq!(ledger.counter("delta/peak_fallbacks"), 1);
        assert_eq!(ledger.counter("delta/resumed_units"), 0);
        // The retained series was extended and walked whole: no cold
        // synthesis.
        assert_eq!(incremental.passes.trace_generations, 0);
        let cold = FleetEngine::new(47).run(&grown).unwrap();
        assert_eq!(
            incremental.scorecard.to_json_string(),
            cold.scorecard.to_json_string()
        );

        // Off a bare tail the unit holds only the appended days, so the
        // fallback synthesizes the whole series once more.
        let streaming = FleetEngine::new(47).with_trace_cache(TraceCachePolicy::bounded(0));
        let mut cache = streaming.new_cache();
        streaming.run_cached(&matrix, &mut cache).unwrap();
        let collector = Collector::recording();
        let incremental = streaming
            .clone()
            .with_collector(collector.clone())
            .run_cached(&grown, &mut cache)
            .unwrap();
        assert_eq!(collector.ledger().counter("delta/peak_fallbacks"), 1);
        assert_eq!(incremental.passes.trace_extensions, 1);
        assert_eq!(incremental.passes.trace_generations, 1);
        assert_eq!(
            incremental.scorecard.to_json_string(),
            cold.scorecard.to_json_string()
        );
    }

    #[test]
    fn retiring_a_predictor_re_ranks_entirely_from_cache() {
        let matrix = small_matrix();
        let engine = FleetEngine::new(53);
        let mut cache = engine.new_cache();
        engine.run_cached(&matrix, &mut cache).unwrap();

        let mut retired = matrix.clone();
        retired.predictors.remove(1);
        let delta = FleetDelta::classify(&matrix, &retired).unwrap();
        let incremental = engine.run_delta(&retired, &mut cache, &delta).unwrap();
        assert_eq!(incremental.cached_jobs, retired.job_count());
        assert_eq!(incremental.passes.total(), 0, "no simulation at all");
        let cold = FleetEngine::new(53).run(&retired).unwrap();
        assert_eq!(
            incremental.scorecard.to_json_string(),
            cold.scorecard.to_json_string()
        );
    }

    #[test]
    fn two_versions_of_one_scenario_stay_warm_side_by_side() {
        // Outcomes are keyed by the scenario's JSON form, so editing a
        // scenario under the same name adds a second version next to the
        // first instead of replacing it.
        let matrix = small_matrix();
        let mut edited = matrix.clone();
        edited.scenarios[1]
            .faults
            .push(crate::FaultSpec::ClimateDimming {
                start_day: 3,
                duration_days: 4,
                factor: 0.6,
            });
        let engine = FleetEngine::new(61);
        let mut cache = engine.new_cache();
        let first = engine.run_cached(&matrix, &mut cache).unwrap();
        let second = engine.run_cached(&edited, &mut cache).unwrap();
        let per_scenario = matrix.predictors.len() * matrix.managers.len();
        assert_eq!(second.cached_jobs, per_scenario, "the unedited scenario");
        let third = engine.run_cached(&matrix, &mut cache).unwrap();
        assert_eq!(third.cached_jobs, matrix.job_count());
        assert_eq!(third.passes.total(), 0);
        assert_eq!(
            third.scorecard.to_json_string(),
            first.scorecard.to_json_string()
        );
        assert_eq!(cache.len(), 3 * per_scenario, "both versions counted");
    }

    #[test]
    fn dimming_is_ground_truth_for_the_metrics_pass() {
        // A sky dimmed by exactly 0.5 over the whole horizon scales
        // observations, predictions, and references by the same power
        // of two, so prediction accuracy — a ratio — is unchanged: the
        // predictor tracked the real (dimmed) sky perfectly well. The
        // physical outcome (harvest, brownouts) must still suffer.
        let clean = Catalog::builtin().get("desert-clear-sky").unwrap().clone();
        let mut dimmed = clean.clone();
        dimmed.faults.push(crate::FaultSpec::ClimateDimming {
            start_day: 0,
            duration_days: dimmed.days,
            factor: 0.5,
        });
        // Same name ⇒ same trace seed ⇒ identical underlying sky.
        let specs = vec![PredictorSpec::Wcma {
            alpha: 0.7,
            days: 10,
            k: 2,
        }];
        let managers = vec![ManagerSpec::EnergyNeutral {
            target_soc: 0.5,
            gain: 0.25,
        }];
        let engine = FleetEngine::new(6);
        let clean_run = engine
            .run(&FleetMatrix::new(specs.clone(), managers.clone(), vec![clean]).unwrap())
            .unwrap();
        let dimmed_run = engine
            .run(&FleetMatrix::new(specs, managers, vec![dimmed]).unwrap())
            .unwrap();
        let (a, b) = (&clean_run.outcomes[0], &dimmed_run.outcomes[0]);
        assert!(
            (a.summary.mape - b.summary.mape).abs() < 1e-12,
            "scale-invariant accuracy must not register phantom error: {} vs {}",
            a.summary.mape,
            b.summary.mape
        );
        assert_eq!(a.summary.count, b.summary.count);
        assert!(
            b.report.harvested_j < 0.6 * a.report.harvested_j,
            "the physical harvest must halve"
        );
    }
}
