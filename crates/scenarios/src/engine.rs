//! The fleet engine: expand a [`FleetMatrix`] into work units, run them
//! in parallel over per-scenario slot series, and reduce to a
//! [`Scorecard`], monolithic or sharded.
//!
//! # Determinism
//!
//! Every random draw is derived from the engine's master seed by stable
//! hashing — scenario traces from `(master, scenario name)`, fault
//! realizations likewise, fleet-wide events from `(master, event
//! index)` — and each job re-derives its own state from those seeds.
//! Jobs share nothing mutable, and reduction sorts by job index, so the
//! engine's output (including rendered scorecard JSON) is
//! **byte-identical for a given matrix and seed regardless of thread
//! count, trace-cache policy, shard count, or cache warmth**.
//! Integration tests pin all four properties.
//!
//! # Slot series and retention
//!
//! The paper scores a predictor on two values per slot: the sample at
//! the slot boundary (what the predictor observes) and the slot's mean
//! power (the reference it is judged against). A scenario's
//! `SlotSeries` holds exactly those, as two flat vectors (16 B per
//! slot), plus the generator state at its end. It is the engine's only
//! slot source: every fresh job of a scenario — the whole predictor ×
//! manager block — is fed from **one walk over one series**, and
//! synthesis runs at most once per scenario per run. Growing the
//! candidate axis therefore adds per-slot arithmetic, never whole
//! passes; [`FleetResult::synthesis_passes`] exposes the count.
//!
//! A work unit gets its series in one of three ways: from the
//! [`FleetCache`] as is, from the cache extended in place by the
//! appended days (a day-append), or by draining one
//! [`solar_synth::SlotStream`] cold. The series also supplies the
//! paper's ROI reference peak (the maximum dimmed slot mean, final slot
//! excluded) before the walk starts, so every prediction record folds
//! straight into one O(1) [`StreamingEval`] per distinct predictor.
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
//! every policy.
//!
//! The work-unit granularity is the scenario, so parallelism is across
//! scenarios: at fleet scale (hundreds of regimes) that saturates any
//! core count, while a few-scenario × many-predictor matrix trades
//! per-job parallelism for the shared-kernel savings below — the right
//! trade everywhere the workspace runs today, revisit if wide matrices
//! on many-core boxes become a primary shape.
//!
//! Within a pass, each slot is evaluated in two conceptual halves that
//! share one fault realization (injectors are pure functions of the
//! shared seed and slot sequence, and measurement corruption never
//! depends on the harvest argument — pinned by a faults test):
//!
//! 1. a *metrics half* scoring predictions against the true slot means
//!    under the paper's protocol, with measurement faults corrupting
//!    the predictors' inputs — prediction accuracy under adversity;
//! 2. a *simulation half* closing the management loop with physical
//!    faults applied — what the accuracy buys (brownouts, utilization).
//!
//! Because both halves observe the identical corrupted stream, each
//! *distinct predictor* computes its prediction once per slot: float
//! WCMA candidates fold into a shared
//! [`solar_predict::CandidateBank`] (one `E_{D×N}` history, one μ/η
//! column walk per distinct D, one Φ per distinct (D, K)), other
//! predictors run one owned instance — and every manager pairing reuses
//! that prediction stream and its metrics summary. Per-candidate
//! arithmetic is unchanged throughout, so every outcome is
//! bit-identical to a per-job solo run (property-tested in core, pinned
//! end to end by the engine equality tests and the golden 200-regime
//! digest).
//!
//! # Incremental re-scoring
//!
//! A tuning loop re-runs near-identical matrices dozens of times,
//! changing only the predictor axis between rounds. [`FleetCache`]
//! makes that cheap: it memoizes slot series per scenario and
//! finished [`JobOutcome`]s per (scenario, predictor, manager) triple —
//! one block per scenario, keyed inside by the label pair — so
//! [`FleetEngine::run_cached`] evaluates **only the jobs whose axis
//! value changed**. A run renders each scenario once, for its block
//! key; every other check compares scenario values. Because every job
//! is a pure function of its triple and the master seed, a cached
//! outcome is bit-identical to a fresh one — the resulting scorecard
//! JSON is byte-identical to a full re-run (pinned by test).
//!
//! # Observability
//!
//! The engine reports on itself through an optional
//! [`fleet_obs::Collector`] ([`FleetEngine::with_collector`]): phase
//! spans (`fleet/project` → `keys` → `admission` → `simulate` →
//! `fill` → `assemble` → `score`) on the timing plane, and
//! deterministic ledger counters — retention decisions with the trace
//! budget, synthesis passes, cache hits, slot counts, bank sizes, fault
//! specs — recorded at **work-unit granularity** (one batch of counter
//! updates per scenario unit, computed arithmetically), never inside
//! the per-slot loop. The default collector is a no-op whose calls
//! cost one branch, so un-instrumented runs are unchanged (perfbench's
//! `obs.recording_overhead` measures it); with collection on, outputs stay
//! byte-identical and the ledger itself is byte-identical across
//! thread counts and shard splits.

use crate::catalog::Scenario;
use crate::faults::{storage_capacity_factor, FaultInjector, FaultSpec};
use crate::matrix::{FleetMatrix, JobSpec, ManagerSpec, PredictorSpec, SoloPredictor};
use crate::scorecard::{Scorecard, ScorecardShard, ShardManifest};
use crate::series::{series_footprint_bytes, RoiPeak, SlotSeries, TraceCachePolicy};
use fleet_obs::Collector;
use harvest_sim::{NoFaults, NodeConfig, NodeMachine, NodeReport, SlotHook, SolarPanel};
use pred_metrics::{
    ErrorSummary, EvalProtocol, PredictionRecord, RecordSink, RunCost, StreamingEval,
};
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use solar_predict::{CandidateBank, WcmaParams};
use solar_synth::{SynthCounters, TraceGenerator};
use solar_trace::SlotsPerDay;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

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
/// peak fallback off a bare generator tail) — never by the job count.
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

impl FleetResult {
    /// Synthesis passes this run spent (all kinds).
    pub fn synthesis_passes(&self) -> usize {
        self.passes.total()
    }
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

impl ShardedFleetResult {
    /// Synthesis passes this run spent (all kinds).
    pub fn synthesis_passes(&self) -> usize {
        self.passes.total()
    }
}

/// A distinct predictor's prediction source within a work unit: a
/// candidate of the unit's shared float-WCMA bank, or an owned
/// instance.
#[derive(Clone)]
enum Kernel {
    Banked(usize),
    Solo(Box<dyn SoloPredictor>),
}

/// Every state machine a work unit advances slot by slot: the shared
/// fault realization, one kernel and one protocol accumulator per
/// distinct predictor, and one simulation machine per job. The unit
/// owns all of them, so a clone at a day boundary is its resume point.
#[derive(Clone)]
struct UnitMachines {
    protocol: EvalProtocol,
    roi_peak: f64,
    panel: SolarPanel,
    slot_seconds: f64,
    /// The fault injector: its sequential dropout RNG draws exactly
    /// once per slot, so a clone continues the cold keystream verbatim.
    injector: FaultInjector,
    kernels: Vec<Kernel>,
    bank: Option<CandidateBank>,
    evals: Vec<StreamingEval>,
    /// Each kernel's latest prediction: what its jobs plan with, and
    /// the predicted half of the record that slot opened.
    predictions: Vec<f64>,
    /// The `(day, slot, reference mean)` of the record the previous
    /// slot opened — shared by every kernel — or `None` if the protocol
    /// discarded that slot.
    open: Option<(u32, u32, f64)>,
    /// One simulation machine per job: storage and duty state is where
    /// the manager axis matters.
    sims: Vec<NodeMachine<ManagerSpec, NoFaults>>,
    /// Each job's kernel, in unit job order.
    job_kernel: Vec<usize>,
}

impl UnitMachines {
    /// Fresh machines for a scenario's `jobs` (in matrix job order),
    /// judged against `roi_peak`.
    ///
    /// Distinct predictors among the jobs get one kernel each: the
    /// metrics half and the simulation half's *predictions* are pure
    /// functions of (scenario, predictor) — managers only steer duty —
    /// so all per-slot kernel work and record assembly happens once per
    /// distinct predictor, and every job reuses its predictor's summary
    /// and prediction stream. One kernel serves *both* halves, because
    /// measurement corruption never depends on the harvest argument
    /// (pinned by a faults.rs test). Float WCMA folds into one shared
    /// bank; everything else gets one owned instance.
    fn cold(
        matrix: &FleetMatrix,
        jobs: impl Iterator<Item = JobSpec>,
        node_config: &NodeConfig,
        slots: SlotsPerDay,
        injector: FaultInjector,
        roi_peak: f64,
    ) -> Result<Self, String> {
        let protocol = EvalProtocol::paper();
        let (n, slot_seconds) = (slots.get(), slots.slot_seconds_f64());
        let mut distinct: Vec<usize> = Vec::new();
        let mut job_kernel = Vec::new();
        let mut sims = Vec::new();
        for job in jobs {
            let kernel = match distinct.iter().position(|&p| p == job.predictor_idx) {
                Some(kernel) => kernel,
                None => {
                    distinct.push(job.predictor_idx);
                    distinct.len() - 1
                }
            };
            job_kernel.push(kernel);
            sims.push(NodeMachine::with_external_predictions(
                matrix.managers[job.manager_idx].clone(),
                node_config,
                NoFaults,
                slot_seconds,
                n,
            ));
        }
        let mut bank_params = Vec::new();
        let kernels = distinct
            .iter()
            .map(|&predictor_idx| match matrix.predictors[predictor_idx] {
                PredictorSpec::Wcma { alpha, days, k } => {
                    bank_params
                        .push(WcmaParams::new(alpha, days, k, n).map_err(|e| e.to_string())?);
                    Ok(Kernel::Banked(bank_params.len() - 1))
                }
                ref spec => Ok(Kernel::Solo(spec.kernel(n)?)),
            })
            .collect::<Result<Vec<_>, String>>()?;
        let bank = if bank_params.is_empty() {
            None
        } else {
            Some(CandidateBank::new(bank_params).map_err(|e| e.to_string())?)
        };
        Ok(UnitMachines {
            protocol,
            roi_peak,
            panel: node_config.panel,
            slot_seconds,
            injector,
            evals: vec![StreamingEval::new(protocol, roi_peak); kernels.len()],
            predictions: vec![0.0; kernels.len()],
            kernels,
            bank,
            open: None,
            sims,
            job_kernel,
        })
    }

    /// Walks one day. The corruption realization happens once per slot
    /// and serves both halves: the metrics half records predictions
    /// against ground-truth references scaled by the day's
    /// climate-dimming factor — dimming is physical sky state, so
    /// accuracy is judged against the sky that actually existed (a
    /// predictor perfectly tracking a la-niña year must not register
    /// phantom MAPE against the counterfactual clean year); sensor
    /// faults and panel soiling leave the references untouched. The
    /// simulation half absorbs the corrupted physical harvest and plans
    /// each job's duty from its predictor's shared prediction.
    ///
    /// A record opened at slot t completes at slot t+1 with that slot's
    /// reference start. The protocol's record filter depends only on
    /// (day, reference mean, peak), all shared, so it is decided once
    /// per slot for every kernel, and discarded slots open no record.
    ///
    /// Kept out of line: inlined into the unit's setup code, the slot
    /// loop took about 1.45× as long on the tuner's wide candidate
    /// banks.
    #[inline(never)]
    fn walk_day(&mut self, day: usize, starts: &[f64], means: &[f64]) {
        let sky = self.injector.sky_factor(day);
        for (slot, (&start_sample, &mean_power)) in starts.iter().zip(means).enumerate() {
            let mut harvest_j = self.panel.power_w(mean_power) * self.slot_seconds;
            let mut observed = start_sample;
            self.injector
                .on_slot(day, slot, &mut harvest_j, &mut observed);
            let ref_start = start_sample * sky;
            let ref_mean = mean_power * sky;
            let bank_predictions = self
                .bank
                .as_mut()
                .map(|bank| bank.observe_and_predict(observed));
            for ((kernel, eval), prediction) in self
                .kernels
                .iter_mut()
                .zip(&mut self.evals)
                .zip(&mut self.predictions)
            {
                if let Some((day, slot, actual_mean)) = self.open {
                    eval.push_record(PredictionRecord {
                        day,
                        slot,
                        predicted: *prediction,
                        actual_start: ref_start,
                        actual_mean,
                    });
                }
                *prediction = match kernel {
                    Kernel::Banked(candidate) => {
                        bank_predictions.as_ref().expect("bank built")[*candidate]
                    }
                    Kernel::Solo(predictor) => predictor.observe_and_predict(observed),
                };
            }
            self.open = self
                .protocol
                .includes(day as u32, ref_mean, self.roi_peak)
                .then_some((day as u32, slot as u32, ref_mean));
            for (sim, &kernel) in self.sims.iter_mut().zip(&self.job_kernel) {
                sim.absorb_corrupted(harvest_j);
                sim.plan_with(self.predictions[kernel]);
            }
        }
    }
}

/// Whether `scenario` carries a trace-gap fault, whose placement is
/// realized over the total horizon — such a unit never checkpoints or
/// resumes.
fn has_trace_gap(scenario: &Scenario) -> bool {
    scenario
        .faults
        .iter()
        .any(|f| matches!(f, FaultSpec::TraceGap { .. }))
}

/// End-of-horizon machine state of one scenario's full job cross — the
/// O(appended days) resume point for a day-append delta. Captured by
/// the engine at the end of an eligible work-unit pass (full predictor
/// × manager cross, no trace-gap fault) and stored in the
/// [`FleetCache`] keyed by scenario name.
struct UnitCheckpoint {
    /// The scenario at capture time, whose `days` is the captured
    /// horizon; resume requires the appended scenario to
    /// [`Scenario::extends`] it by at least one day.
    scenario: Scenario,
    /// Predictor axis labels at capture (matrix order) — the machines
    /// below are only meaningful against an identical axis.
    predictor_labels: Vec<String>,
    /// Manager axis labels at capture (matrix order).
    manager_labels: Vec<String>,
    /// The ROI reference peak the record filter judged against, and
    /// the final slot's still-pending mean.
    roi: RoiPeak,
    /// The unit's machines after the captured pass; a resume clones
    /// them.
    machines: UnitMachines,
}

impl std::fmt::Debug for UnitCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnitCheckpoint")
            .field("days", &self.scenario.days)
            .field("predictors", &self.predictor_labels.len())
            .field("managers", &self.manager_labels.len())
            .finish_non_exhaustive()
    }
}

/// One scenario's memoized outcomes, keyed by the (predictor label,
/// manager label) pair.
type OutcomeBlock = HashMap<(String, String), JobOutcome>;

/// The labels one run keys its cache lookups with, built once per run.
struct RunKeys {
    /// Each scenario's full JSON form, in matrix order: the run's only
    /// render of a scenario, and its outcome block's key.
    scenarios: Vec<String>,
    /// Predictor axis labels, in matrix order.
    predictors: Vec<String>,
    /// Manager axis labels, in matrix order.
    managers: Vec<String>,
    /// Every (predictor, manager) label pair, predictor-major: the
    /// lookup key of a scenario's job `p × managers + m` in its block.
    pairs: Vec<(String, String)>,
}

impl RunKeys {
    fn of(matrix: &FleetMatrix) -> RunKeys {
        let predictors: Vec<String> = matrix.predictors.iter().map(|p| p.label()).collect();
        let managers: Vec<String> = matrix.managers.iter().map(|m| m.label()).collect();
        let pairs = predictors
            .iter()
            .flat_map(|p| managers.iter().map(move |m| (p.clone(), m.clone())))
            .collect();
        RunKeys {
            scenarios: matrix
                .scenarios
                .iter()
                .map(|s| s.to_json().render())
                .collect(),
            predictors,
            managers,
            pairs,
        }
    }
}

/// What [`FleetCache::prune_to`] evicted, so an incremental loop can
/// fold the dropped jobs' cost into its own running aggregate before
/// the entries disappear from [`FleetCache::cost`].
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct PruneStats {
    /// Job outcomes evicted.
    pub evicted_outcomes: usize,
    /// Retained slot series evicted.
    pub evicted_traces: usize,
    /// Bytes of series footprint released.
    pub evicted_trace_bytes: usize,
    /// Aggregate cost of the evicted job outcomes.
    pub evicted_cost: pred_metrics::CostAggregate,
}

/// Memo of slot series, job outcomes, and day-boundary resume state across
/// runs of one engine — the incremental re-scoring state. Create with
/// [`FleetEngine::new_cache`]; feed to [`FleetEngine::run_cached`]. The
/// cache is bound to the master seed of the first engine that runs it
/// and refuses to serve any other. It never evicts on its own — call
/// [`FleetCache::prune_to`] from loops that retire scenarios.
#[derive(Clone, Debug, Default)]
pub struct FleetCache {
    master_seed: Option<u64>,
    /// Slot series per scenario name, with the scenario at the series'
    /// horizon (so a mutated same-name scenario can never alias):
    /// retained series whole, the rest as bare generator tails from
    /// which a day-append synthesizes only the appended days.
    series: HashMap<String, (Scenario, SlotSeries)>,
    /// Outcomes in one block per scenario JSON form, each keyed by the
    /// (predictor label, manager label) pair; labels are injective over
    /// specs by contract.
    outcomes: HashMap<String, OutcomeBlock>,
    /// Work-unit resume state per scenario name: day-appends continue
    /// every machine from the stored day boundary.
    checkpoints: HashMap<String, Arc<UnitCheckpoint>>,
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
        self.series
            .values()
            .map(|(_, series)| series)
            .filter(|series| series.is_full())
    }

    /// The stored series of `scenario` if it belongs to this scenario
    /// at its horizon or a shorter one.
    fn series_of(&self, scenario: &Scenario) -> Option<&SlotSeries> {
        let (stored, series) = self.series.get(&scenario.name)?;
        scenario.extends(stored).then_some(series)
    }

    /// Aggregate cost of every distinct job outcome the cache
    /// **currently holds** — one entry per (scenario, predictor,
    /// manager) triple, order-independent despite the map. Entries
    /// evicted by [`FleetCache::prune_to`] leave this aggregate; the
    /// eviction returns their cost in [`PruneStats::evicted_cost`] so
    /// a loop tracking lifetime totals can accumulate it separately.
    pub fn cost(&self) -> pred_metrics::CostAggregate {
        pred_metrics::CostAggregate::of(
            self.outcomes
                .values()
                .flat_map(HashMap::values)
                .map(|o| o.cost),
        )
    }

    /// Evicts every slot series, outcome, and resume checkpoint
    /// belonging to scenarios **not** in `matrix` (after
    /// fleet-fault projection under the cache's bound seed, so the
    /// keys compared are the ones runs actually store). Call this from
    /// loops whose scenario set shrinks or rolls forward — the cache
    /// never evicts on its own, so a tuner sweeping hundreds of
    /// regimes would otherwise hold every retired series to the end.
    ///
    /// Returns what was dropped; fold [`PruneStats::evicted_cost`]
    /// into your own aggregate if you report lifetime totals.
    ///
    /// # Errors
    ///
    /// Returns an error if a fleet fault fails to project or a
    /// scenario's site config is invalid.
    pub fn prune_to(&mut self, matrix: &FleetMatrix) -> Result<PruneStats, String> {
        // An unbound cache is empty, so any seed evicts nothing.
        let effective = project_fleet_faults_seeded(matrix, self.master_seed.unwrap_or_default())?;
        let keep_jsons: HashSet<String> = effective
            .scenarios
            .iter()
            .map(|s| s.to_json().render())
            .collect();
        let keep_names: HashSet<&str> = effective
            .scenarios
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        let evicted_cost = pred_metrics::CostAggregate::of(
            self.outcomes
                .iter()
                .filter(|(scenario_json, _)| !keep_jsons.contains(*scenario_json))
                .flat_map(|(_, block)| block.values())
                .map(|o| o.cost),
        );
        let before_outcomes = self.len();
        let before_traces = self.trace_count();
        let before_bytes = self.trace_bytes();
        self.outcomes
            .retain(|scenario_json, _| keep_jsons.contains(scenario_json));
        self.series
            .retain(|name, _| keep_names.contains(name.as_str()));
        self.checkpoints
            .retain(|name, _| keep_names.contains(name.as_str()));
        Ok(PruneStats {
            evicted_outcomes: before_outcomes - self.len(),
            evicted_traces: before_traces - self.trace_count(),
            evicted_trace_bytes: before_bytes - self.trace_bytes(),
            evicted_cost,
        })
    }
}

/// One schedulable unit of a fleet run: **all** of one scenario's fresh
/// jobs, evaluated over a single walk of the scenario's slot series.
struct WorkUnit {
    scenario_idx: usize,
    /// Fresh job indices, in matrix job order.
    job_indices: Vec<usize>,
    /// A validated day-append resume point: the walk covers only the
    /// appended days, continuing every machine from this state.
    resume: Option<Arc<UnitCheckpoint>>,
    /// The series taken out of the cache for this unit — whole, or a
    /// bare tail when the unit resumes — or `None` to synthesize cold.
    /// Behind a mutex only so the parallel map can move it out.
    series: Mutex<Option<SlotSeries>>,
}

/// What evaluating one work unit yields: `(job index, outcome)` pairs,
/// the synthesis passes the unit spent, the end-of-horizon machine
/// state for the next day-append when the pass was checkpoint-eligible,
/// and the series it walked (for the cache to keep whole or as a tail).
type UnitOutcomes = (
    Vec<(usize, JobOutcome)>,
    PassBreakdown,
    Option<UnitCheckpoint>,
    SlotSeries,
);

/// The parallel fleet evaluator.
#[derive(Clone, Debug)]
pub struct FleetEngine {
    master_seed: u64,
    threads: Option<usize>,
    cache_policy: TraceCachePolicy,
    collector: Collector,
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
            threads: None,
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
    /// benchmarking scaling).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
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
        FleetCache {
            master_seed: Some(self.master_seed),
            series: HashMap::new(),
            outcomes: HashMap::new(),
            checkpoints: HashMap::new(),
        }
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
        self.check_cache(cache)?;
        self.install(|| {
            let _run_span = self.collector.span("fleet");
            let evaluated = self.evaluate_matrix(matrix, cache)?;
            let scorecard = {
                let _span = self.collector.span("fleet/score");
                Scorecard::build(&evaluated.effective, &evaluated.outcomes, self.master_seed)
            };
            self.collector.count(
                "score/scenarios_ranked",
                evaluated.effective.scenarios.len() as u64,
            );
            Ok(FleetResult {
                outcomes: evaluated.outcomes,
                scorecard,
                cached_jobs: evaluated.cached_jobs,
                streamed_jobs: evaluated.streamed_jobs,
                passes: evaluated.passes,
                quarantined: evaluated.quarantined,
            })
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
    ///   work),
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
        if self.collector.is_enabled() {
            match delta {
                FleetDelta::DayAppend { scenarios } => {
                    for name in scenarios {
                        self.collector.count_scenario(name, "delta/day_appends", 1);
                    }
                }
                FleetDelta::ScenarioEdit { scenarios } => {
                    for name in scenarios {
                        self.collector
                            .count_scenario(name, "delta/scenario_edits", 1);
                    }
                }
                FleetDelta::PredictorRetire { predictors } => {
                    self.collector
                        .count("delta/predictor_retirements", predictors.len() as u64);
                }
                FleetDelta::Unchanged => {}
            }
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

    fn check_cache(&self, cache: &mut FleetCache) -> Result<(), String> {
        if *cache.master_seed.get_or_insert(self.master_seed) != self.master_seed {
            return Err("fleet cache is bound to a different master seed".to_string());
        }
        Ok(())
    }

    fn install<T>(&self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        match self.threads {
            Some(threads) => ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .map_err(|e| e.to_string())?
                .install(f),
            None => f(),
        }
    }

    /// Projects the matrix's correlated fleet-wide events into each
    /// affected scenario's fault list. Every event realizes from one
    /// shared seed, so it hits all its scenarios on the same days; the
    /// projected faults live in the scenario (and hence its JSON/cache
    /// key), so caching and determinism need no special cases.
    fn project_fleet_faults(&self, matrix: &FleetMatrix) -> Result<FleetMatrix, String> {
        project_fleet_faults_seeded(matrix, self.master_seed)
    }

    /// The full evaluation pass: fleet-fault projection, retention
    /// admission, parallel work units, cache fill, and assembly in job
    /// order.
    fn evaluate_matrix(
        &self,
        matrix: &FleetMatrix,
        cache: &mut FleetCache,
    ) -> Result<EvaluatedMatrix, String> {
        let effective = {
            let _span = self.collector.span("fleet/project");
            self.collector
                .count("faults/fleet_events", matrix.fleet_faults.len() as u64);
            if matrix.fleet_faults.is_empty() {
                matrix.clone()
            } else {
                self.project_fleet_faults(matrix)?
            }
        };
        let matrix = &effective;
        self.collector.count(
            "faults/fault_specs",
            matrix.scenarios.iter().map(|s| s.faults.len() as u64).sum(),
        );

        // Jobs are scenario-major, so scenario `s`'s job `k` of its
        // (predictor, manager) cross is job `s × pairs + k`, keyed by
        // `keys.pairs[k]` in the scenario's outcome block.
        let keys_span = self.collector.span("fleet/keys");
        let keys = RunKeys::of(matrix);
        let pairs = keys.pairs.len();
        let jobs = matrix.jobs();
        // Only the jobs the cache cannot answer, grouped into **one work
        // unit per scenario** — the unit's single series walk feeds every
        // fresh job's machines, so adding candidates to the matrix adds
        // per-slot arithmetic, never whole passes.
        let fresh_by_scenario: Vec<Vec<usize>> = keys
            .scenarios
            .iter()
            .enumerate()
            .map(|(scenario_idx, key)| {
                let block = cache.outcomes.get(key);
                (0..pairs)
                    .filter(|&k| !block.is_some_and(|b| b.contains_key(&keys.pairs[k])))
                    .map(|k| scenario_idx * pairs + k)
                    .collect()
            })
            .collect();
        drop(keys_span);
        let fresh_jobs: usize = fresh_by_scenario.iter().map(Vec::len).sum();
        let cached_jobs = jobs.len() - fresh_jobs;
        if self.collector.is_enabled() {
            self.collector.count("jobs/evaluated", jobs.len() as u64);
            self.collector.count("cache/job_hits", cached_jobs as u64);
            self.collector.count("cache/job_misses", fresh_jobs as u64);
        }

        // Retention admission, greedily in scenario order — a pure
        // function of the matrix and the budget, so the kept/dropped
        // split never depends on thread timing. Warm series — kept
        // whole, at this horizon or a shorter one — stay retained (they
        // are already paid for) and count toward the budget.
        let admission_span = self.collector.span("fleet/admission");
        let mut retained = vec![false; matrix.scenarios.len()];
        let mut warm_series = 0u64;
        let mut running_total = 0u64;
        for (idx, scenario) in matrix.scenarios.iter().enumerate() {
            let bytes =
                series_footprint_bytes(scenario.days * scenario.slots_per_day as usize) as u64;
            let warm = cache.series_of(scenario).is_some_and(SlotSeries::is_full);
            warm_series += warm as u64;
            if warm || self.cache_policy.admits(running_total, bytes) {
                retained[idx] = true;
                running_total = running_total.saturating_add(bytes);
            }
        }
        if self.collector.is_enabled() {
            match self.cache_policy.budget_bytes() {
                None => self
                    .collector
                    .label("admission/trace_budget_source", "unbounded"),
                Some(bytes) => {
                    self.collector
                        .label("admission/trace_budget_source", "configured");
                    self.collector.gauge("admission/trace_budget_bytes", bytes);
                }
            }
            let kept = retained.iter().filter(|&&kept| kept).count() as u64;
            self.collector
                .count("admission/materialized_scenarios", kept);
            self.collector.count(
                "admission/streamed_scenarios",
                matrix.scenarios.len() as u64 - kept,
            );
            self.collector
                .count("admission/admitted_trace_bytes", running_total);
            self.collector.count("cache/trace_hits", warm_series);
        }
        drop(admission_span);

        let mut streamed_jobs = 0;
        let mut units: Vec<WorkUnit> = Vec::new();
        for ((scenario_idx, scenario), job_indices) in
            matrix.scenarios.iter().enumerate().zip(fresh_by_scenario)
        {
            if job_indices.is_empty() {
                continue;
            }
            if !retained[scenario_idx] {
                streamed_jobs += job_indices.len();
            }
            // Day-append resume: a scenario may continue from its stored
            // checkpoint iff it equals the checkpointed scenario except
            // for a strictly larger `days`, the predictor/manager axes
            // match, no trace-gap fault would re-realize its placement
            // under the longer horizon, and the unit covers the full job
            // cross the checkpointed machines belong to. A candidate
            // failing only the last test falls back to a cold pass.
            let resume = cache
                .checkpoints
                .get(&scenario.name)
                .filter(|ck| {
                    scenario.days > ck.scenario.days
                        && !has_trace_gap(scenario)
                        && ck.predictor_labels == keys.predictors
                        && ck.manager_labels == keys.managers
                        && scenario.extends(&ck.scenario)
                })
                .filter(|_| {
                    let full_cross = job_indices.len() == pairs;
                    if !full_cross && self.collector.is_enabled() {
                        self.collector
                            .count_scenario(&scenario.name, "delta/cold_fallbacks", 1);
                    }
                    full_cross
                })
                .map(Arc::clone);
            // The unit's series: the stored one when it is whole, or a
            // bare tail at exactly the resume point of a scenario that is
            // not retained (a retained scenario must end up whole, so it
            // synthesizes cold instead). Everything else starts cold.
            let usable = cache.series_of(scenario).is_some_and(|series| {
                series.is_full()
                    || (!retained[scenario_idx]
                        && resume
                            .as_ref()
                            .is_some_and(|ck| series.first_day == ck.scenario.days))
            });
            let series = if usable {
                cache
                    .series
                    .remove(&scenario.name)
                    .map(|(_, series)| series)
            } else {
                None
            };
            units.push(WorkUnit {
                scenario_idx,
                job_indices,
                resume,
                series: Mutex::new(series),
            });
        }

        // Each unit runs under `catch_unwind`: a panicking unit (a
        // contract violation in predictor/manager code, or injected
        // chaos) surfaces as `Err` naming its scenario instead of
        // unwinding through rayon and aborting the whole process.
        let evaluated: Vec<Result<UnitOutcomes, String>> = units
            .par_iter()
            .map(|unit| {
                let scenario_name = &matrix.scenarios[unit.scenario_idx].name;
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if self.chaos_unit_panic.as_deref() == Some(scenario_name.as_str()) {
                        panic!("chaos: injected work-unit panic");
                    }
                    self.evaluate_scenario_unit(matrix, &jobs, &keys, unit)
                }))
                .unwrap_or_else(|payload| {
                    Err(format!(
                        "scenario {scenario_name:?}: work unit panicked: {}",
                        panic_message(&payload)
                    ))
                })
            })
            .collect();
        let fill_span = self.collector.span("fleet/fill");
        let mut passes = PassBreakdown::default();
        let mut quarantined: Vec<QuarantinedScenario> = Vec::new();
        for (unit, unit_outcomes) in units.iter().zip(evaluated) {
            let scenario = &matrix.scenarios[unit.scenario_idx];
            let name = &scenario.name;
            let (unit_outcomes, unit_passes, checkpoint, series) = match unit_outcomes {
                Ok(result) => result,
                Err(error) if self.quarantine => {
                    if self.collector.is_enabled() {
                        self.collector
                            .count_scenario(name, "fleet/quarantined_units", 1);
                    }
                    quarantined.push(QuarantinedScenario {
                        scenario: name.clone(),
                        error,
                    });
                    continue;
                }
                Err(error) => return Err(error),
            };
            passes.add(unit_passes);
            let kept = if retained[unit.scenario_idx] {
                series
            } else {
                series.into_tail()
            };
            cache.series.insert(name.clone(), (scenario.clone(), kept));
            if let Some(checkpoint) = checkpoint {
                cache.checkpoints.insert(name.clone(), Arc::new(checkpoint));
            }
            let block = cache
                .outcomes
                .entry(keys.scenarios[unit.scenario_idx].clone())
                .or_default();
            for (idx, outcome) in unit_outcomes {
                block.insert(keys.pairs[idx % pairs].clone(), outcome);
            }
        }
        drop(fill_span);
        if self.collector.is_enabled() {
            self.collector
                .count("synth/trace_generations", passes.trace_generations as u64);
            if passes.trace_extensions > 0 {
                self.collector
                    .count("delta/trace_extensions", passes.trace_extensions as u64);
            }
        }

        // Phase 3: assemble in job order (cached outcomes carry stale
        // matrix coordinates from the run that produced them — rewrite).
        // Quarantined scenarios' jobs have no outcome and are skipped;
        // without quarantine every key is present (a missing one would
        // have errored above).
        let assemble_span = self.collector.span("fleet/assemble");
        let mut outcomes: Vec<JobOutcome> = Vec::with_capacity(jobs.len());
        for (key, scenario_jobs) in keys.scenarios.iter().zip(jobs.chunks(pairs.max(1))) {
            let Some(block) = cache.outcomes.get(key) else {
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
        drop(assemble_span);
        Ok(EvaluatedMatrix {
            effective,
            outcomes,
            cached_jobs,
            streamed_jobs,
            passes,
            quarantined,
        })
    }

    /// The deterministic per-scenario seed: stable across runs, thread
    /// counts, and platforms; distinct per scenario name.
    ///
    /// The hashed string is *salted*: a custom site built from the same
    /// scenario name carries `seed_stream = fnv1a(name)`, and the trace
    /// generator XORs `seed ^ seed_stream` — hashing the bare name here
    /// would cancel it out and hand every custom-site scenario the same
    /// RNG stream (a regression test pins this).
    fn scenario_seed(&self, scenario: &Scenario) -> u64 {
        let salted = format!("fleet-scenario/{}", scenario.name);
        solar_trace::hash::fnv1a(&salted) ^ self.master_seed.rotate_left(17)
    }

    /// A scenario's generator: the engine's one synthesis source.
    fn generator(&self, scenario: &Scenario) -> Result<TraceGenerator, String> {
        Ok(TraceGenerator::new(
            scenario.site_config()?,
            self.scenario_seed(scenario),
        ))
    }

    /// The universal fast path: **one walk over one slot series**
    /// drives every fresh job's state machines simultaneously.
    ///
    /// The series comes with the unit (whole from the cache, or a bare
    /// tail when resuming) and is brought to the scenario's horizon
    /// first: extended in place from its tail, or synthesized cold when
    /// the unit has none.
    ///
    /// Jobs whose predictor is float WCMA are additionally folded into
    /// one shared [`CandidateBank`] serving both pass halves (metrics,
    /// simulation): every such job of a scenario sees the identical observation
    /// stream (its fault injector realizes from the same seed), so the
    /// bank computes each candidate's predictions once per slot with
    /// the per-candidate arithmetic unchanged — bit-identical to a solo
    /// run, pinned by core property tests and the engine equality tests
    /// here. Records fold into one [`StreamingEval`] per distinct
    /// predictor, judged against the ROI peak taken from the series
    /// before the walk.
    ///
    /// With a resume point, the unit clones the checkpoint's machines
    /// and walks only the appended days; the output is
    /// bit-identical to a cold full-horizon pass (pinned by engine
    /// tests). The checkpointed accumulators filtered the prefix
    /// against the checkpointed peak, so if the appended days raise
    /// the peak the unit walks the whole series cold instead
    /// (`delta/peak_fallbacks`), synthesizing it first when it holds
    /// only the appended days.
    ///
    /// Returns the job outcomes, the synthesis passes spent, a
    /// [`UnitCheckpoint`] holding the machines at the final day
    /// boundary (when the unit covers the full job cross and nothing
    /// blocks checkpointing), and the series for the cache.
    fn evaluate_scenario_unit(
        &self,
        matrix: &FleetMatrix,
        jobs: &[JobSpec],
        keys: &RunKeys,
        unit: &WorkUnit,
    ) -> Result<UnitOutcomes, String> {
        let scenario = &matrix.scenarios[unit.scenario_idx];
        let job_indices = &unit.job_indices;
        let _unit_span = self
            .collector
            .span_scenario("fleet/simulate", &scenario.name);
        let n = scenario.slots_per_day as usize;
        let slots = SlotsPerDay::new(scenario.slots_per_day).map_err(|e| e.to_string())?;
        let fault_seed = self.scenario_seed(scenario) ^ 0xFA01;
        let node_config = scenario
            .node
            .node_config(storage_capacity_factor(&scenario.faults))?;
        let generator = self.generator(scenario)?;
        let mut passes = PassBreakdown::default();
        // Keystream/normal-draw totals across this unit's syntheses;
        // merged into the ledger once at the end of the unit, never per
        // slot.
        let mut synth_cost = SynthCounters::default();
        let cold_series = |passes: &mut PassBreakdown, synth_cost: &mut SynthCounters| {
            passes.trace_generations += 1;
            let (series, counters) = SlotSeries::cold(&generator, scenario.days, slots)?;
            synth_cost.add(counters);
            Ok::<_, String>(series)
        };

        let taken = unit.series.lock().expect("unit series lock").take();
        let mut series = match taken {
            Some(mut series) => {
                if series.days() < scenario.days {
                    passes.trace_extensions += 1;
                    synth_cost.add(series.extend(&generator, scenario.days, slots)?);
                }
                series
            }
            None => cold_series(&mut passes, &mut synth_cost)?,
        };

        // The ROI reference peak. A resume continues the checkpointed
        // running peak over the appended days; if that moves it, the
        // checkpointed accumulators judged the prefix against a stale
        // peak, and the unit falls back to a cold walk.
        let mut resume = unit.resume.as_deref();
        let mut roi = RoiPeak::default();
        if let Some(r) = resume {
            roi = r.roi;
            roi.absorb(&series, r.scenario.days, n, &r.machines.injector);
            if roi.peak.to_bits() != r.roi.peak.to_bits() {
                if self.collector.is_enabled() {
                    self.collector
                        .count_scenario(&scenario.name, "delta/peak_fallbacks", 1);
                }
                resume = None;
            }
        }

        // Every job of a scenario realizes the *identical* fault
        // corruption (injectors are pure functions of the shared seed
        // and the slot sequence), so the unit realizes it exactly once
        // per slot — one injector shared by all jobs and both pass
        // halves. Resume eligibility excluded trace-gap faults, whose
        // placement depends on the total horizon.
        let mut machines = match resume {
            Some(r) => r.machines.clone(),
            None => {
                let injector = FaultInjector::new(&scenario.faults, fault_seed, scenario.days, n);
                if !series.is_full() {
                    series = cold_series(&mut passes, &mut synth_cost)?;
                }
                roi = RoiPeak::default();
                roi.absorb(&series, 0, n, &injector);
                UnitMachines::cold(
                    matrix,
                    job_indices.iter().map(|&job_idx| jobs[job_idx]),
                    &node_config,
                    slots,
                    injector,
                    roi.peak,
                )?
            }
        };
        // First day this walk covers: 0 cold, the checkpointed horizon
        // when resuming.
        let start_day = resume.map_or(0, |r| r.scenario.days);
        for (day, starts, means) in series.days_from(start_day, n) {
            machines.walk_day(day, starts, means);
        }

        // One summary per distinct predictor; every job of a manager
        // pairing reuses its predictor's summary verbatim (the metrics
        // pass never depended on the manager). Both are finished from
        // copies, so the live machines can become the next checkpoint.
        let summaries: Vec<ErrorSummary> = machines
            .evals
            .iter()
            .map(|eval| eval.clone().finish())
            .collect();
        let reports = machines.sims.iter().map(|sim| sim.clone().finish());
        let peak_trace_bytes = series.footprint_bytes();
        let mut results = Vec::with_capacity(job_indices.len());
        for ((&job_idx, &kernel_slot), report) in
            job_indices.iter().zip(&machines.job_kernel).zip(reports)
        {
            let job = &jobs[job_idx];
            results.push((
                job_idx,
                JobOutcome {
                    scenario: scenario.name.clone(),
                    predictor: keys.predictors[job.predictor_idx].clone(),
                    manager: keys.managers[job.manager_idx].clone(),
                    spec: *job,
                    summary: summaries[kernel_slot],
                    report,
                    cost: RunCost {
                        peak_candidates: matrix.predictors[job.predictor_idx].candidate_count(),
                        peak_trace_bytes,
                    },
                },
            ));
        }
        // Ledger entries for the whole unit, computed arithmetically —
        // one batch of counter updates per scenario, nothing per slot.
        if self.collector.is_enabled() {
            let name = &scenario.name;
            // Slot counters reflect work actually done this pass: a
            // resumed unit only walked the appended days.
            let processed_days = scenario.days - start_day;
            self.collector
                .count_scenario(name, "slots/processed", (processed_days * n) as u64);
            self.collector
                .count_scenario(name, "jobs/fresh", job_indices.len() as u64);
            if resume.is_some() {
                self.collector
                    .count_scenario(name, "delta/resumed_units", 1);
                self.collector
                    .count_scenario(name, "delta/appended_days", processed_days as u64);
            }
            // Distribution plane, still at unit granularity: the unit's
            // slot volume and one MAPE sample per distinct predictor —
            // deterministic inputs, so the histograms stay byte-pinned.
            self.collector
                .observe("fleet/unit_slots", (processed_days * n) as f64);
            for summary in &summaries {
                self.collector.observe("score/mape", summary.mape);
            }
            let banked = machines
                .kernels
                .iter()
                .filter(|k| matches!(k, Kernel::Banked(_)))
                .count();
            self.collector
                .count_scenario(name, "bank/banked_candidates", banked as u64);
            self.collector.count_scenario(
                name,
                "bank/solo_predictors",
                (machines.kernels.len() - banked) as u64,
            );
            self.collector.count_scenario(
                name,
                "faults/injected_specs",
                scenario.faults.len() as u64,
            );
            if synth_cost != SynthCounters::default() {
                self.collector.count_scenario(
                    name,
                    "synth/keystream_blocks",
                    synth_cost.keystream_blocks,
                );
                self.collector
                    .count_scenario(name, "synth/normal_draws", synth_cost.normal_draws);
            }
        }

        // The next run's resume point: the machines themselves.
        // Checkpointing requires the unit to cover the matrix's full job
        // cross (fresh jobs arrive in matrix job order, so a full count
        // is the canonical cross; a partial unit's machines would desync
        // from the cross a future run resumes) and no trace-gap fault
        // (its realization depends on the total horizon at
        // construction).
        let full_cross = job_indices.len() == keys.pairs.len();
        let checkpoint = (full_cross && !has_trace_gap(scenario)).then(|| UnitCheckpoint {
            scenario: scenario.clone(),
            predictor_labels: keys.predictors.clone(),
            manager_labels: keys.managers.clone(),
            roi,
            machines,
        });
        Ok((results, passes, checkpoint, series))
    }
}

/// The classified difference between two fleet matrices — what changed
/// between the run whose warm [`FleetCache`] you hold and the matrix
/// you want scored now. Feed it to [`FleetEngine::run_delta`] to route
/// the re-score down the matching O(delta) path.
///
/// Build one with [`FleetDelta::classify`]; the variants carry the
/// affected axis labels purely for reporting/ledger purposes.
#[derive(Clone, Debug, PartialEq)]
pub enum FleetDelta {
    /// One or more scenarios grew by whole appended days; everything
    /// else (axes, faults, the scenarios' prefixes) is unchanged.
    DayAppend {
        /// Names of the scenarios whose horizon grew.
        scenarios: Vec<String>,
    },
    /// Scenarios were added, removed, or edited in place (anything that
    /// is not a pure day-append).
    ScenarioEdit {
        /// Names of the scenarios that differ between the matrices.
        scenarios: Vec<String>,
    },
    /// The predictor axis shrank (order-preserving subset); scenarios
    /// and managers are identical.
    PredictorRetire {
        /// Labels of the retired predictors.
        predictors: Vec<String>,
    },
    /// The matrices are identical — the run is a pure cache replay.
    Unchanged,
}

impl FleetDelta {
    /// Classifies the change from `before` to `after`.
    ///
    /// The classification is deliberately conservative: only changes
    /// with a dedicated cheap path classify. Manager-axis changes,
    /// fleet-fault changes, predictor *growth* or reordering, and mixed
    /// day-append + scenario-edit batches are errors — run those
    /// through [`FleetEngine::run_cached`] directly (still warm for
    /// every untouched scenario), or split them into single-kind
    /// deltas.
    ///
    /// # Errors
    ///
    /// Returns an error describing the unsupported change.
    pub fn classify(before: &FleetMatrix, after: &FleetMatrix) -> Result<FleetDelta, String> {
        let labels = |m: &FleetMatrix| -> (Vec<String>, Vec<String>) {
            (
                m.predictors.iter().map(|p| p.label()).collect(),
                m.managers.iter().map(|m| m.label()).collect(),
            )
        };
        let (before_predictors, before_managers) = labels(before);
        let (after_predictors, after_managers) = labels(after);
        if before_managers != after_managers {
            return Err(
                "manager axis changed: no delta path exists, run the matrix with run_cached"
                    .to_string(),
            );
        }
        if before.fleet_faults != after.fleet_faults {
            return Err(
                "fleet faults changed: they project into every scenario, run with run_cached"
                    .to_string(),
            );
        }
        let scenarios_equal = before.scenarios == after.scenarios;
        if before_predictors != after_predictors {
            let retired: Vec<String> = before_predictors
                .iter()
                .filter(|label| !after_predictors.contains(label))
                .cloned()
                .collect();
            let mut survivors = before_predictors.clone();
            survivors.retain(|label| after_predictors.contains(label));
            let is_retirement = !retired.is_empty() && survivors == after_predictors;
            if !is_retirement {
                return Err(
                    "predictor axis grew or reordered: only order-preserving retirement has a \
                     delta path, run the matrix with run_cached"
                        .to_string(),
                );
            }
            if !scenarios_equal {
                return Err(
                    "predictor retirement combined with scenario changes: split into two deltas"
                        .to_string(),
                );
            }
            return Ok(FleetDelta::PredictorRetire {
                predictors: retired,
            });
        }
        if scenarios_equal {
            return Ok(FleetDelta::Unchanged);
        }
        if before.scenarios.len() != after.scenarios.len() {
            let before_names: HashSet<&str> =
                before.scenarios.iter().map(|s| s.name.as_str()).collect();
            let after_names: HashSet<&str> =
                after.scenarios.iter().map(|s| s.name.as_str()).collect();
            let mut touched: Vec<String> = before_names
                .symmetric_difference(&after_names)
                .map(|name| (*name).to_string())
                .collect();
            touched.sort_unstable();
            return Ok(FleetDelta::ScenarioEdit { scenarios: touched });
        }
        let mut appends = Vec::new();
        let mut edits = Vec::new();
        for (b, a) in before.scenarios.iter().zip(&after.scenarios) {
            if b == a {
                continue;
            }
            let pure_append = a.days > b.days && a.extends(b);
            if pure_append {
                appends.push(a.name.clone());
            } else {
                edits.push(a.name.clone());
            }
        }
        match (appends.is_empty(), edits.is_empty()) {
            (false, true) => Ok(FleetDelta::DayAppend { scenarios: appends }),
            (true, false) => Ok(FleetDelta::ScenarioEdit { scenarios: edits }),
            (false, false) => Err(
                "mixed day-append and scenario-edit batch: split into two delta runs".to_string(),
            ),
            (true, true) => unreachable!("scenarios_equal was false"),
        }
    }
}

/// The seed-parameterized fleet-fault projection —
/// [`FleetEngine::project_fleet_faults`] for the engine, and
/// [`FleetCache::prune_to`] for a cache that must compare incoming
/// matrices against the projected keys its runs actually stored.
fn project_fleet_faults_seeded(
    matrix: &FleetMatrix,
    master_seed: u64,
) -> Result<FleetMatrix, String> {
    let mut effective = matrix.clone();
    for (index, fault) in matrix.fleet_faults.iter().enumerate() {
        let salted = format!("fleet-fault/{index}");
        let event_seed = solar_trace::hash::fnv1a(&salted) ^ master_seed.rotate_left(23);
        for scenario in &mut effective.scenarios {
            scenario.faults.extend(fault.project(event_seed, scenario)?);
        }
    }
    effective.fleet_faults.clear();
    Ok(effective)
}

/// Internal result of one full evaluation pass.
struct EvaluatedMatrix {
    /// The matrix actually evaluated (fleet faults projected in).
    effective: FleetMatrix,
    outcomes: Vec<JobOutcome>,
    cached_jobs: usize,
    streamed_jobs: usize,
    passes: PassBreakdown,
    quarantined: Vec<QuarantinedScenario>,
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
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::fleet_faults::FleetFault;
    use crate::matrix::{ManagerSpec, PredictorSpec};

    fn small_matrix() -> FleetMatrix {
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
    fn streaming_only_policy_is_byte_identical_and_never_materializes() {
        let matrix = small_matrix();
        let materialized = FleetEngine::new(5).run(&matrix).unwrap();
        let engine = FleetEngine::new(5).with_trace_cache(TraceCachePolicy::streaming_only());
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
        assert_eq!(TraceCachePolicy::streaming_only().budget_bytes(), Some(0));

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
        assert_eq!(fresh.synthesis_passes(), matrix.scenarios.len());
        assert_eq!(fresh.passes.trace_generations, matrix.scenarios.len());
        // Retained series: new jobs cost zero synthesis passes.
        let mut grown = matrix.clone();
        grown.predictors.push(PredictorSpec::Ewma { gamma: 0.4 });
        let incremental = engine.run_cached(&grown, &mut cache).unwrap();
        assert_eq!(incremental.synthesis_passes(), 0);
        // Fully cached: nothing runs at all.
        let warm = engine.run_cached(&grown, &mut cache).unwrap();
        assert_eq!(warm.synthesis_passes(), 0);
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
            .with_trace_cache(TraceCachePolicy::streaming_only())
            .with_collector(collector.clone())
            .run(&long)
            .unwrap();
        assert_eq!(streaming.synthesis_passes(), long.scenarios.len());
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
        let engine = FleetEngine::new(43).with_trace_cache(TraceCachePolicy::streaming_only());
        let mut cache = engine.new_cache();
        engine.run_cached(&matrix, &mut cache).unwrap();

        let mut grown = matrix.clone();
        for scenario in &mut grown.scenarios {
            scenario.days += 2;
        }
        let collector = Collector::recording();
        let incremental = FleetEngine::new(43)
            .with_trace_cache(TraceCachePolicy::streaming_only())
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
            .with_trace_cache(TraceCachePolicy::streaming_only())
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
        let streaming = FleetEngine::new(47).with_trace_cache(TraceCachePolicy::streaming_only());
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
    fn delta_classification_covers_every_route() {
        let base = small_matrix();

        assert_eq!(
            FleetDelta::classify(&base, &base).unwrap(),
            FleetDelta::Unchanged
        );

        let mut appended = base.clone();
        appended.scenarios[1].days += 5;
        assert_eq!(
            FleetDelta::classify(&base, &appended).unwrap(),
            FleetDelta::DayAppend {
                scenarios: vec![appended.scenarios[1].name.clone()]
            }
        );

        // Shrinking a horizon is not an append — it edits the scenario.
        let mut shrunk = base.clone();
        shrunk.scenarios[0].days -= 1;
        assert_eq!(
            FleetDelta::classify(&base, &shrunk).unwrap(),
            FleetDelta::ScenarioEdit {
                scenarios: vec![shrunk.scenarios[0].name.clone()]
            }
        );

        let mut edited = base.clone();
        edited.scenarios[0]
            .faults
            .push(crate::FaultSpec::ClimateDimming {
                start_day: 0,
                duration_days: 5,
                factor: 0.5,
            });
        assert_eq!(
            FleetDelta::classify(&base, &edited).unwrap(),
            FleetDelta::ScenarioEdit {
                scenarios: vec![edited.scenarios[0].name.clone()]
            }
        );

        let mut removed = base.clone();
        let gone = removed.scenarios.remove(0);
        assert_eq!(
            FleetDelta::classify(&base, &removed).unwrap(),
            FleetDelta::ScenarioEdit {
                scenarios: vec![gone.name]
            }
        );

        let mut retired = base.clone();
        let dropped = retired.predictors.remove(0);
        assert_eq!(
            FleetDelta::classify(&base, &retired).unwrap(),
            FleetDelta::PredictorRetire {
                predictors: vec![dropped.label()]
            }
        );

        // Growth, manager changes, and mixed batches have no delta
        // path.
        let mut grown_axis = base.clone();
        grown_axis
            .predictors
            .push(PredictorSpec::Ewma { gamma: 0.4 });
        assert!(FleetDelta::classify(&base, &grown_axis).is_err());
        let mut managers_changed = base.clone();
        managers_changed.managers.push(ManagerSpec::Greedy);
        assert!(FleetDelta::classify(&base, &managers_changed).is_err());
        let mut mixed = base.clone();
        mixed.scenarios[0].days += 1;
        mixed.scenarios[1].slots_per_day = 24;
        assert!(FleetDelta::classify(&base, &mixed).is_err());
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
    fn prune_to_evicts_exactly_the_entries_the_matrix_no_longer_wants() {
        let matrix = small_matrix();
        let engine = FleetEngine::new(59);
        let mut cache = engine.new_cache();
        engine.run_cached(&matrix, &mut cache).unwrap();
        let bytes_before = cache.trace_bytes();

        let mut narrowed = matrix.clone();
        narrowed.scenarios.remove(1);
        let stats = cache.prune_to(&narrowed).unwrap();
        let jobs_per_scenario = matrix.predictors.len() * matrix.managers.len();
        assert_eq!(stats.evicted_outcomes, jobs_per_scenario);
        assert_eq!(stats.evicted_traces, 1);
        assert!(stats.evicted_trace_bytes > 0);
        assert_eq!(
            cache.trace_bytes(),
            bytes_before - stats.evicted_trace_bytes
        );
        assert_eq!(cache.trace_count(), 1);

        // Pruning to the same matrix is a no-op.
        assert_eq!(cache.prune_to(&narrowed).unwrap(), PruneStats::default());

        // The surviving scenario still replays entirely from cache.
        let warm = engine.run_cached(&narrowed, &mut cache).unwrap();
        assert_eq!(warm.cached_jobs, narrowed.job_count());
        let cold = FleetEngine::new(59).run(&narrowed).unwrap();
        assert_eq!(
            warm.scorecard.to_json_string(),
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

        // Pruning to the original matrix evicts the edited version only.
        let edited_cost = pred_metrics::CostAggregate::of(
            second
                .outcomes
                .iter()
                .filter(|o| o.scenario == edited.scenarios[1].name)
                .map(|o| o.cost),
        );
        let stats = cache.prune_to(&matrix).unwrap();
        assert_eq!(stats.evicted_outcomes, per_scenario);
        assert_eq!(stats.evicted_cost, edited_cost);
        assert_eq!(cache.len(), matrix.job_count());
        let fourth = engine.run_cached(&matrix, &mut cache).unwrap();
        assert_eq!(fourth.cached_jobs, matrix.job_count());
        assert_eq!(
            fourth.scorecard.to_json_string(),
            first.scorecard.to_json_string()
        );
    }

    /// [`FleetDelta::classify`] as it was when it compared scenarios by
    /// their rendered JSON: the reference for the value comparison.
    fn classify_by_render(before: &FleetMatrix, after: &FleetMatrix) -> Result<FleetDelta, String> {
        let labels = |m: &FleetMatrix| -> (Vec<String>, Vec<String>) {
            (
                m.predictors.iter().map(|p| p.label()).collect(),
                m.managers.iter().map(|m| m.label()).collect(),
            )
        };
        let (before_predictors, before_managers) = labels(before);
        let (after_predictors, after_managers) = labels(after);
        if before_managers != after_managers {
            return Err(
                "manager axis changed: no delta path exists, run the matrix with run_cached"
                    .to_string(),
            );
        }
        if before.fleet_faults != after.fleet_faults {
            return Err(
                "fleet faults changed: they project into every scenario, run with run_cached"
                    .to_string(),
            );
        }
        let render = |s: &Scenario| s.to_json().render();
        let scenarios_equal = before.scenarios.len() == after.scenarios.len()
            && before
                .scenarios
                .iter()
                .zip(&after.scenarios)
                .all(|(b, a)| render(b) == render(a));
        if before_predictors != after_predictors {
            let retired: Vec<String> = before_predictors
                .iter()
                .filter(|label| !after_predictors.contains(label))
                .cloned()
                .collect();
            let mut survivors = before_predictors.clone();
            survivors.retain(|label| after_predictors.contains(label));
            if retired.is_empty() || survivors != after_predictors {
                return Err(
                    "predictor axis grew or reordered: only order-preserving retirement has a \
                     delta path, run the matrix with run_cached"
                        .to_string(),
                );
            }
            if !scenarios_equal {
                return Err(
                    "predictor retirement combined with scenario changes: split into two deltas"
                        .to_string(),
                );
            }
            return Ok(FleetDelta::PredictorRetire {
                predictors: retired,
            });
        }
        if scenarios_equal {
            return Ok(FleetDelta::Unchanged);
        }
        if before.scenarios.len() != after.scenarios.len() {
            let before_names: HashSet<&str> =
                before.scenarios.iter().map(|s| s.name.as_str()).collect();
            let after_names: HashSet<&str> =
                after.scenarios.iter().map(|s| s.name.as_str()).collect();
            let mut touched: Vec<String> = before_names
                .symmetric_difference(&after_names)
                .map(|name| (*name).to_string())
                .collect();
            touched.sort_unstable();
            return Ok(FleetDelta::ScenarioEdit { scenarios: touched });
        }
        let mut appends = Vec::new();
        let mut edits = Vec::new();
        for (b, a) in before.scenarios.iter().zip(&after.scenarios) {
            if render(b) == render(a) {
                continue;
            }
            let pure_append = b.name == a.name && a.days > b.days && {
                let mut at_before_days = a.clone();
                at_before_days.days = b.days;
                render(&at_before_days) == render(b)
            };
            if pure_append {
                appends.push(a.name.clone());
            } else {
                edits.push(a.name.clone());
            }
        }
        match (appends.is_empty(), edits.is_empty()) {
            (false, true) => Ok(FleetDelta::DayAppend { scenarios: appends }),
            (true, false) => Ok(FleetDelta::ScenarioEdit { scenarios: edits }),
            (false, false) => Err(
                "mixed day-append and scenario-edit batch: split into two delta runs".to_string(),
            ),
            (true, true) => unreachable!("scenarios_equal was false"),
        }
    }

    /// Applies edit `op` (scaled by `amount`) to one field of `after`,
    /// or to `before` and `after` together where the edit needs both.
    fn edit_scenario(before: &mut Scenario, after: &mut Scenario, op: u8, amount: u8) {
        use crate::catalog::{NodeProfile, SiteSpec};
        use solar_synth::StreamVersion;
        let step = 1 + usize::from(amount % 5);
        match op {
            1 => after.days += step,
            2 => after.days = after.days.saturating_sub(step),
            3 => after.name.push_str("-renamed"),
            4 => after.summary.push('!'),
            5 => match &mut after.site {
                SiteSpec::Paper(site) => {
                    let at = solar_synth::Site::ALL.iter().position(|s| s == site);
                    *site = solar_synth::Site::ALL[(at.unwrap_or(0) + 1) % 6];
                }
                SiteSpec::Custom { latitude_deg, .. } => *latitude_deg += 0.5,
                SiteSpec::Shaped {
                    cloudiness,
                    turbidity,
                    stream_version,
                    ..
                } => match amount % 3 {
                    0 => *cloudiness *= 1.25,
                    1 => *turbidity += 0.01,
                    _ => {
                        *stream_version = match stream_version {
                            StreamVersion::V1 => StreamVersion::V2,
                            StreamVersion::V2 => StreamVersion::V1,
                        }
                    }
                },
            },
            6 => after.slots_per_day = if after.slots_per_day == 48 { 24 } else { 48 },
            7 => {
                after.node = match (&after.node, amount % 2) {
                    (NodeProfile::Mote, 0) => NodeProfile::TinyMote,
                    (NodeProfile::Mote, _) => NodeProfile::Gateway,
                    _ => NodeProfile::Mote,
                }
            }
            8 => {
                let popped = after.faults.pop();
                if popped.is_none() || amount.is_multiple_of(2) {
                    after.faults.push(crate::FaultSpec::SensorDropout {
                        rate: f64::from(amount) / 512.0,
                    });
                }
            }
            9 => {
                // An append together with an edit of any other field is
                // an edit.
                after.days += step;
                edit_scenario(before, after, 3 + amount % 6, amount / 6);
            }
            10 => {
                // Zero and negative zero render alike and compare equal,
                // so this pair is no change under either rule.
                if let (
                    SiteSpec::Custom {
                        latitude_deg: b, ..
                    }
                    | SiteSpec::Shaped {
                        latitude_deg: b, ..
                    },
                    SiteSpec::Custom {
                        latitude_deg: a, ..
                    }
                    | SiteSpec::Shaped {
                        latitude_deg: a, ..
                    },
                ) = (&mut before.site, &mut after.site)
                {
                    *b = 0.0;
                    *a = -0.0;
                }
            }
            _ => {}
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Value-equality classification agrees with the render-based
        /// rule on variant and names, over generated catalogs with random
        /// edits to every scenario field, horizons moved both ways,
        /// renames, scenario-set changes and axis changes.
        #[test]
        fn classify_by_value_matches_the_render_rule(
            seed in 0u64..6,
            edits in proptest::collection::vec((0u8..14, 0u8..255), 6),
            mode in 0u8..3,
            axis in 0u8..10,
            set in 0u8..8,
        ) {
            let catalog = crate::CatalogGenerator::new(seed).generate(7).unwrap();
            let mut before = FleetMatrix::new(
                vec![
                    PredictorSpec::Wcma { alpha: 0.7, days: 10, k: 2 },
                    PredictorSpec::Persistence,
                    PredictorSpec::Ewma { gamma: 0.5 },
                ],
                vec![ManagerSpec::Greedy, ManagerSpec::EnergyNeutral { target_soc: 0.5, gain: 0.25 }],
                catalog.scenarios()[..6].to_vec(),
            ).unwrap();
            let mut after = before.clone();
            for (idx, &(op, amount)) in edits.iter().enumerate() {
                // Mode 0 edits freely; mode 1 only appends or leaves
                // alone; mode 2 does that everywhere but the first
                // scenario.
                let op = match mode {
                    1 => [0, 1, 10][usize::from(op % 3)],
                    2 if idx > 0 => [0, 1][usize::from(op % 2)],
                    _ => op,
                };
                edit_scenario(&mut before.scenarios[idx], &mut after.scenarios[idx], op, amount);
            }
            match axis {
                1 => { after.predictors.remove(1); }
                2 => after.predictors.push(PredictorSpec::Ewma { gamma: 0.25 }),
                3 => after.predictors.swap(0, 2),
                4 => after.managers.truncate(1),
                _ => {}
            }
            match set {
                1 => { after.scenarios.remove(2); }
                2 => after.scenarios.push(catalog.scenarios()[6].clone()),
                3 => after.scenarios.swap(0, 5),
                _ => {}
            }
            proptest::prop_assert_eq!(
                FleetDelta::classify(&before, &after),
                classify_by_render(&before, &after)
            );
        }
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

    #[test]
    fn fleet_faults_project_into_every_affected_scenario() {
        let matrix = small_matrix()
            .with_fleet_faults(vec![FleetFault::RegionalStorm {
                window_start_day: 22,
                window_end_day: 30,
                duration_days: 5,
                depth: 0.8,
                region: crate::SpatialFalloff::global(),
            }])
            .unwrap();
        let engine = FleetEngine::new(8);
        let effective = engine.project_fleet_faults(&matrix).unwrap();
        assert!(effective.fleet_faults.is_empty());
        for scenario in &effective.scenarios {
            assert!(
                scenario
                    .faults
                    .iter()
                    .any(|f| matches!(f, crate::FaultSpec::ClimateDimming { .. })),
                "{} missing the storm projection",
                scenario.name
            );
        }
        // The storm measurably hurts: compare against the clean matrix.
        let clean = FleetEngine::new(8).run(&small_matrix()).unwrap();
        let stormy = FleetEngine::new(8).run(&matrix).unwrap();
        let harvested =
            |r: &FleetResult| r.outcomes.iter().map(|o| o.report.harvested_j).sum::<f64>();
        assert!(
            harvested(&stormy) < harvested(&clean),
            "a fleet-wide storm must reduce total harvest"
        );
        // And the cache keeps clean/stormy scenarios apart (their JSON
        // differs), so a warm clean cache cannot answer stormy jobs.
        let mut cache = engine.new_cache();
        engine.run_cached(&small_matrix(), &mut cache).unwrap();
        let stormy_cached = engine.run_cached(&matrix, &mut cache).unwrap();
        assert_eq!(stormy_cached.cached_jobs, 0);
    }
}
