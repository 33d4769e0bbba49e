//! A work unit: all of one scenario's fresh jobs, evaluated over one
//! walk of the scenario's slot series.
//!
//! # Slot series
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
//! passes; [`PassBreakdown::total`] exposes the count.
//!
//! A work unit gets its series in one of three ways: from the
//! [`FleetCache`](crate::FleetCache) as is, from the cache extended in
//! place by the appended days (a day-append), or by draining one
//! [`solar_synth::SlotStream`] cold. The series also supplies the
//! paper's ROI reference peak (the maximum dimmed slot mean, final slot
//! excluded) before the walk starts, so every prediction record folds
//! straight into one O(1) [`StreamingEval`] per distinct predictor.
//! Which series outlive the run is the cache's retention decision.
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
//! The simulation half is the job plane: one
//! [`harvest_sim::NodeLanes`] lane per job, each with its manager,
//! all sharing the scenario's node. Nothing in the slot loop
//! reads it, so the loop only records each slot's corrupted harvest and
//! each job's prediction in a day buffer, and one
//! [`NodeLanes::run_day`](harvest_sim::NodeLanes::run_day) per day then
//! advances every lane through the whole day in vectorized blocks. The
//! walk owns the buffer, so a checkpoint taken at a day boundary never
//! carries it.
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

use crate::cache::{checkpointable, UnitCheckpoint};
use crate::catalog::Scenario;
use crate::engine::{FleetEngine, JobOutcome, PassBreakdown, RunPlan};
use crate::faults::{storage_capacity_factor, FaultInjector};
use crate::matrix::{FleetMatrix, JobSpec, PredictorSpec, SoloPredictor};
use crate::series::{RoiPeak, SlotSeries};
use fleet_obs::Collector;
use harvest_sim::{NodeConfig, NodeLanes, SlotHook, SolarPanel};
use pred_metrics::{
    ErrorSummary, EvalProtocol, PredictionRecord, RecordSink, RunCost, StreamingEval,
};
use solar_predict::{CandidateBank, WcmaParams};
use solar_synth::{SynthCounters, TraceGenerator};
use solar_trace::SlotsPerDay;
use std::sync::{Arc, Mutex};

/// A distinct predictor's prediction source within a work unit: a
/// candidate of the unit's shared float-WCMA bank, or an owned
/// instance.
#[derive(Clone)]
enum Kernel {
    Banked(usize),
    Solo(Box<dyn SoloPredictor>),
}

/// Every state machine a work unit advances: the shared fault
/// realization, one kernel and one protocol accumulator per distinct
/// predictor, stepped slot by slot, and the job plane — one
/// [`NodeLanes`] lane per job — stepped a day at a time from a
/// [`DayBuffer`]. The unit owns all of them, so a clone at a day
/// boundary is its resume point.
#[derive(Clone)]
pub(crate) struct UnitMachines {
    protocol: EvalProtocol,
    roi_peak: f64,
    /// The least reference mean of any record these machines opened
    /// (infinite while none is): the peak enters a unit only through
    /// the record filter, so a grown peak whose threshold this floor
    /// still meets leaves every decision of the walk so far standing.
    roi_floor: f64,
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
    /// The job plane: one lane per job, in unit job order, each with
    /// its manager. Storage and duty state is where the manager
    /// axis matters.
    lanes: NodeLanes,
    /// Each job's kernel, in unit job order.
    job_kernel: Vec<usize>,
}

/// One day of the job plane's input, filled by the slot loop: each
/// slot's corrupted harvest, and each job's prediction for it,
/// slot-major. Nothing in the slot loop reads the job plane, so the
/// plane takes the whole day in one [`NodeLanes::run_day`] after it.
/// The walk owns the buffer, not the machines, so a checkpoint never
/// carries it.
#[derive(Default)]
struct DayBuffer {
    harvest_j: Vec<f64>,
    predicted: Vec<f64>,
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
        let mut managers = Vec::new();
        for job in jobs {
            let kernel = match distinct.iter().position(|&p| p == job.predictor_idx) {
                Some(kernel) => kernel,
                None => {
                    distinct.push(job.predictor_idx);
                    distinct.len() - 1
                }
            };
            job_kernel.push(kernel);
            // The matrix's fields are public, so a manager may have
            // changed since assembly validated it.
            let manager = &matrix.managers[job.manager_idx];
            manager.validate()?;
            managers.push(manager.clone());
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
            roi_floor: f64::INFINITY,
            panel: node_config.panel,
            slot_seconds,
            injector,
            evals: vec![StreamingEval::new(protocol, roi_peak); kernels.len()],
            predictions: vec![0.0; kernels.len()],
            kernels,
            bank,
            open: None,
            lanes: NodeLanes::new(node_config, managers, slot_seconds, n),
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
    /// simulation half records the corrupted physical harvest and each
    /// job's prediction (its predictor's shared one) in the day buffer,
    /// and the job plane runs the whole day from it after the slot
    /// loop: predictions depend only on measurements, and corruption
    /// never on the harvest (pinned in `faults.rs`), so no slot of the
    /// loop reads the plane.
    ///
    /// A record opened at slot t completes at slot t+1 with that slot's
    /// reference start. The protocol's record filter depends only on
    /// (day, reference mean, peak), all shared, so it is decided once
    /// per slot for every kernel, and discarded slots open no record.
    ///
    /// Left for the compiler to inline: with the job plane out of the
    /// slot loop, the `tune-loop` operation took 0.304 s inlined against
    /// 0.311 s kept out of line (min of 5 operations over 5 alternating
    /// pairs on a 2-core AVX-512 box), within noise.
    fn walk_day(&mut self, day: usize, starts: &[f64], means: &[f64], buffer: &mut DayBuffer) {
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
            let opens = self.protocol.includes(day as u32, ref_mean, self.roi_peak);
            if opens {
                self.roi_floor = self.roi_floor.min(ref_mean);
            }
            self.open = opens.then_some((day as u32, slot as u32, ref_mean));
            buffer.harvest_j.push(harvest_j);
            let predictions = &self.predictions;
            let job_predictions = self.job_kernel.iter().map(|&kernel| predictions[kernel]);
            buffer.predicted.extend(job_predictions);
        }
        self.lanes.run_day(&buffer.harvest_j, &buffer.predicted);
        buffer.harvest_j.clear();
        buffer.predicted.clear();
    }

    /// Whether every record decision these machines made stands at the
    /// grown ROI `peak`, so that a cold walk judged against it would
    /// have made them all alike. A grown peak is never lower, so no
    /// slot the filter turned away could pass it; every opened record
    /// passes it if the least of them does.
    fn holds_at(&self, peak: f64) -> bool {
        self.protocol.roi().includes(self.roi_floor, peak)
    }

    /// A copy of these machines that continues at a grown horizon:
    /// judged against its ROI `peak`, and corrupting with the gaps its
    /// `injector` realized.
    fn resumed(&self, peak: f64, injector: &FaultInjector) -> UnitMachines {
        let mut machines = self.clone();
        machines.roi_peak = peak;
        for eval in &mut machines.evals {
            eval.rejudge(peak);
        }
        machines.injector.regap(injector);
        machines
    }
}

/// One schedulable unit of a fleet run: **all** of one scenario's fresh
/// jobs, evaluated over a single walk of the scenario's slot series.
pub(crate) struct WorkUnit {
    pub(crate) scenario_idx: usize,
    /// Fresh job indices, in matrix job order.
    pub(crate) job_indices: Vec<usize>,
    /// Whether the cache keeps the scenario's series whole after the
    /// run (else only its generator tail).
    pub(crate) retained: bool,
    /// A validated day-append resume point: the walk continues every
    /// machine from its day (the horizon it was captured at, or the
    /// rung of a trace-gap unit), if [`UnitRun::resume`] allows it.
    pub(crate) resume: Option<Arc<UnitCheckpoint>>,
    /// The series taken out of the cache for this unit — whole, or a
    /// bare tail at the day the unit resumes at — or `None` to
    /// synthesize cold.
    /// Behind a mutex only so the parallel map can move it out.
    pub(crate) series: Mutex<Option<SlotSeries>>,
}

/// What evaluating one work unit yields.
pub(crate) struct UnitOutcomes {
    /// `(job index, outcome)` pairs, in unit job order.
    pub(crate) outcomes: Vec<(usize, JobOutcome)>,
    /// The synthesis passes the unit spent.
    pub(crate) passes: PassBreakdown,
    /// The machine state for the next day-append, when the pass was
    /// checkpointable: at the horizon, or at the rung of a unit whose
    /// injector realized a trace gap.
    pub(crate) checkpoint: Option<UnitCheckpoint>,
    /// The series the unit walked, for the cache to keep whole or as a
    /// tail.
    pub(crate) series: SlotSeries,
}

impl WorkUnit {
    /// The universal fast path: **one walk over one slot series**
    /// drives every fresh job's state machines simultaneously, in named
    /// steps — bring the series to the horizon, take the ROI peak and
    /// resume or build the machines, walk, build the outcomes, record
    /// the ledger, capture the checkpoint.
    ///
    /// Jobs whose predictor is float WCMA are additionally folded into
    /// one shared [`CandidateBank`] serving both pass halves (metrics,
    /// simulation): every such job of a scenario sees the identical
    /// observation stream (its fault injector realizes from the same
    /// seed), so the bank computes each candidate's predictions once per
    /// slot with the per-candidate arithmetic unchanged — bit-identical
    /// to a solo run, pinned by core property tests and the engine
    /// equality tests. Records fold into one [`StreamingEval`] per
    /// distinct predictor, judged against the ROI peak taken from the
    /// series before the walk.
    ///
    /// With a resume point, the unit clones the checkpoint's machines
    /// and walks only the days from the checkpoint on; the output is
    /// bit-identical to a cold full-horizon pass (pinned by engine
    /// tests). The checkpoint it leaves stands at the horizon, or, when
    /// its injector realized a trace gap, at the **rung**: the day
    /// boundary before the first gap, cloned inside the walk. The gaps
    /// of a longer horizon are placed anew, but a prefix that neither
    /// realization corrupts is the same under both, so a later
    /// day-append may resume from the rung.
    pub(crate) fn evaluate(
        &self,
        engine: &FleetEngine,
        plan: &RunPlan,
    ) -> Result<UnitOutcomes, String> {
        let scenario = &plan.matrix.scenarios[self.scenario_idx];
        let name = &scenario.name;
        let _unit_span = engine.collector.span_scenario("fleet/simulate", name);
        let mut run = UnitRun::new(engine, plan, self)?;
        let taken = self.series.lock().expect("unit series lock").take();
        let mut series = run.series_at_horizon(taken)?;
        let (roi, mut machines, resumed_from) = run.machines(&mut series)?;
        let fresh_jobs = self.job_indices.len();
        let capture = checkpointable(fresh_jobs, &plan.keys);
        let rung = machines.injector.first_gap_day().filter(|_| capture);
        let mut at_rung = None;
        let mut buffer = DayBuffer::default();
        for (day, starts, means) in series.days_from(resumed_from.unwrap_or(0), run.slots.get()) {
            if rung == Some(day) {
                at_rung = Some((day, machines.clone()));
            }
            machines.walk_day(day, starts, means, &mut buffer);
        }
        let (outcomes, summaries) = run.outcomes(&machines, series.footprint_bytes());
        run.record(resumed_from, &machines, &summaries);
        let captured = at_rung.unwrap_or((scenario.days, machines));
        Ok(UnitOutcomes {
            outcomes,
            passes: run.passes,
            checkpoint: UnitCheckpoint::capture(scenario, fresh_jobs, &plan.keys, roi, captured),
            series,
        })
    }
}

/// One unit's evaluation in progress: the unit and its run's plan, its
/// scenario's node and fault seed, its synthesis source, and what
/// synthesis has cost so far.
struct UnitRun<'a> {
    unit: &'a WorkUnit,
    plan: &'a RunPlan<'a>,
    scenario: &'a Scenario,
    collector: &'a Collector,
    slots: SlotsPerDay,
    node_config: NodeConfig,
    fault_seed: u64,
    generator: TraceGenerator,
    passes: PassBreakdown,
    /// Keystream/normal-draw totals across this unit's syntheses;
    /// merged into the ledger once at the end of the unit, never per
    /// slot.
    synth_cost: SynthCounters,
}

impl<'a> UnitRun<'a> {
    fn new(
        engine: &'a FleetEngine,
        plan: &'a RunPlan<'a>,
        unit: &'a WorkUnit,
    ) -> Result<Self, String> {
        let scenario = &plan.matrix.scenarios[unit.scenario_idx];
        let slots = SlotsPerDay::new(scenario.slots_per_day).map_err(|e| e.to_string())?;
        let capacity_factor = storage_capacity_factor(&scenario.faults);
        let node_config = scenario.node.node_config(capacity_factor)?;
        Ok(UnitRun {
            unit,
            plan,
            scenario,
            collector: &engine.collector,
            slots,
            node_config,
            fault_seed: engine.scenario_seed(scenario) ^ 0xFA01,
            generator: engine.generator(scenario)?,
            passes: PassBreakdown::default(),
            synth_cost: SynthCounters::default(),
        })
    }

    /// The scenario's whole series, synthesized cold.
    fn cold_series(&mut self) -> Result<SlotSeries, String> {
        self.passes.trace_generations += 1;
        let (series, counters) = SlotSeries::cold(&self.generator, self.scenario.days, self.slots)?;
        self.synth_cost.add(counters);
        Ok(series)
    }

    /// The unit's series brought to the scenario's horizon: the taken
    /// one extended in place from its tail, or synthesized cold when
    /// the unit has none.
    fn series_at_horizon(&mut self, taken: Option<SlotSeries>) -> Result<SlotSeries, String> {
        let Some(mut series) = taken else {
            return self.cold_series();
        };
        if series.days() < self.scenario.days {
            self.passes.trace_extensions += 1;
            let counters = series.extend(&self.generator, self.scenario.days, self.slots)?;
            self.synth_cost.add(counters);
        }
        Ok(series)
    }

    /// A resume from `checkpoint` at this unit's horizon, whose fault
    /// realization is `injector`: the ROI peak (the checkpointed
    /// running peak continued over the appended days) and the
    /// checkpoint's machines carried on to it. `None`, counted, when
    /// the grown realization has a gap starting before the checkpoint's
    /// day (`delta/gap_fallbacks`: the machines walked a prefix the cold
    /// run corrupts differently) or when the grown peak would overturn
    /// a record decision of the prefix (`delta/peak_fallbacks`).
    /// Resumes through a peak that rose count under
    /// `delta/rejudged_peaks`, and resumes from a trace-gap rung before
    /// the checkpointed horizon under `delta/rung_resumes`.
    fn resume(
        &self,
        checkpoint: &UnitCheckpoint,
        series: &SlotSeries,
        injector: &FaultInjector,
    ) -> Option<(RoiPeak, UnitMachines)> {
        let count = |key: &str| self.collector.count_scenario(&self.scenario.name, key, 1);
        let first_gap = injector.first_gap_day();
        if first_gap.is_some_and(|day| day < checkpoint.day) {
            count("delta/gap_fallbacks");
            return None;
        }
        let mut roi = checkpoint.roi;
        roi.absorb(series, checkpoint.scenario.days, self.slots.get(), injector);
        if !checkpoint.machines.holds_at(roi.peak) {
            count("delta/peak_fallbacks");
            return None;
        }
        if roi.peak.to_bits() != checkpoint.roi.peak.to_bits() {
            count("delta/rejudged_peaks");
        }
        if checkpoint.day < checkpoint.scenario.days {
            count("delta/rung_resumes");
        }
        Some((roi, checkpoint.machines.resumed(roi.peak, injector)))
    }

    /// The machines the walk starts from, the ROI peak they judge
    /// against, and the day they resume at: the resume point's machines
    /// carried on to this horizon when [`UnitRun::resume`] allows it,
    /// else fresh machines over the whole horizon. Every job of a
    /// scenario realizes the *identical* fault corruption (injectors are
    /// pure functions of the shared seed and the slot sequence), so the
    /// unit realizes it exactly once per slot — one injector shared by
    /// all jobs and both pass halves. A series holding only appended
    /// days is synthesized whole first.
    fn machines(
        &mut self,
        series: &mut SlotSeries,
    ) -> Result<(RoiPeak, UnitMachines, Option<usize>), String> {
        let (scenario, n) = (self.scenario, self.slots.get());
        let injector = FaultInjector::new(&scenario.faults, self.fault_seed, scenario.days, n);
        if let Some(checkpoint) = self.unit.resume.as_deref() {
            if let Some((roi, machines)) = self.resume(checkpoint, series, &injector) {
                return Ok((roi, machines, Some(checkpoint.day)));
            }
        }
        if !series.is_full() {
            *series = self.cold_series()?;
        }
        let mut roi = RoiPeak::default();
        roi.absorb(series, 0, n, &injector);
        let (plan, config, slots) = (self.plan, &self.node_config, self.slots);
        let jobs = self.unit.job_indices.iter().map(|&idx| plan.jobs[idx]);
        let machines = UnitMachines::cold(plan.matrix, jobs, config, slots, injector, roi.peak)
            .map_err(|error| format!("scenario {:?}: {error}", scenario.name))?;
        Ok((roi, machines, None))
    }

    /// One outcome per job, and one summary per distinct predictor:
    /// every job of a manager pairing reuses its predictor's summary
    /// verbatim (the metrics pass never depended on the manager). Both
    /// are finished from copies, so the live machines can become the
    /// next checkpoint.
    fn outcomes(
        &self,
        machines: &UnitMachines,
        peak_trace_bytes: usize,
    ) -> (Vec<(usize, JobOutcome)>, Vec<ErrorSummary>) {
        let (plan, keys) = (self.plan, &self.plan.keys);
        let evals = machines.evals.iter();
        let summaries: Vec<ErrorSummary> = evals.map(|eval| eval.clone().finish()).collect();
        let reports = (0..machines.lanes.len()).map(|lane| machines.lanes.report(lane));
        let jobs = self.unit.job_indices.iter().zip(&machines.job_kernel);
        let outcomes = jobs
            .zip(reports)
            .map(|((&job_idx, &kernel_slot), report)| {
                let job = &plan.jobs[job_idx];
                let peak_candidates = plan.matrix.predictors[job.predictor_idx].candidate_count();
                let outcome = JobOutcome {
                    scenario: self.scenario.name.clone(),
                    predictor: keys.predictors[job.predictor_idx].clone(),
                    manager: keys.managers[job.manager_idx].clone(),
                    spec: *job,
                    summary: summaries[kernel_slot],
                    report,
                    cost: RunCost {
                        peak_candidates,
                        peak_trace_bytes,
                    },
                };
                (job_idx, outcome)
            })
            .collect();
        (outcomes, summaries)
    }

    /// The unit's ledger entries, computed arithmetically — one batch
    /// of counter updates per scenario, nothing per slot (a no-op
    /// collector skips each). Slot counters reflect work actually done
    /// this pass: a unit `resumed` at a day only walked the appended
    /// days.
    fn record(&self, resumed: Option<usize>, machines: &UnitMachines, summaries: &[ErrorSummary]) {
        let collector = self.collector;
        let count = |key: &str, n: u64| collector.count_scenario(&self.scenario.name, key, n);
        let processed_days = self.scenario.days - resumed.unwrap_or(0);
        let processed_slots = processed_days * self.slots.get();
        count("slots/processed", processed_slots as u64);
        count("jobs/fresh", self.unit.job_indices.len() as u64);
        if resumed.is_some() {
            count("delta/resumed_units", 1);
            count("delta/appended_days", processed_days as u64);
        }
        // Distribution plane, still at unit granularity: the unit's
        // slot volume and one MAPE sample per distinct predictor —
        // deterministic inputs, so the histograms stay byte-pinned.
        collector.observe("fleet/unit_slots", processed_slots as f64);
        for summary in summaries {
            collector.observe("score/mape", summary.mape);
        }
        let banked = machines.bank.as_ref().map_or(0, CandidateBank::len);
        count("bank/banked_candidates", banked as u64);
        let solo = machines.kernels.len() - banked;
        count("bank/solo_predictors", solo as u64);
        count("faults/injected_specs", self.scenario.faults.len() as u64);
        if self.synth_cost != SynthCounters::default() {
            count("synth/keystream_blocks", self.synth_cost.keystream_blocks);
            count("synth/normal_draws", self.synth_cost.normal_draws);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSpec;
    use crate::{Catalog, FleetCache, FleetDelta, ManagerSpec, TraceCachePolicy};
    use fleet_obs::Ledger;

    const DESERT: &str = "desert-clear-sky";

    /// The builtin `name` scenario over `days` days, with `faults`
    /// added to its own.
    fn builtin(name: &str, days: usize, faults: Vec<FaultSpec>) -> Scenario {
        let mut scenario = Catalog::builtin().get(name).unwrap().clone();
        scenario.days = days;
        scenario.faults.extend(faults);
        scenario
    }

    /// A banked and a solo predictor under one manager.
    fn matrix_of(scenarios: Vec<Scenario>) -> FleetMatrix {
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
            scenarios,
        )
        .unwrap()
    }

    /// Grows every scenario of `matrix` by `days`, re-scores it as a
    /// day-append against `cache`, asserts the scorecard bytes equal a
    /// cold run's, and returns the append's ledger.
    fn append_days(
        engine: &FleetEngine,
        matrix: &mut FleetMatrix,
        cache: &mut FleetCache,
        days: usize,
    ) -> Ledger {
        let before = matrix.clone();
        for scenario in &mut matrix.scenarios {
            scenario.days += days;
        }
        let delta = FleetDelta::classify(&before, matrix).unwrap();
        let collector = Collector::recording();
        let incremental = engine
            .clone()
            .with_collector(collector.clone())
            .run_delta(matrix, cache, &delta)
            .unwrap();
        let cold = engine.run(matrix).unwrap();
        assert_eq!(
            incremental.scorecard.to_json_string(),
            cold.scorecard.to_json_string()
        );
        collector.ledger()
    }

    fn dimming(start_day: usize, duration_days: usize, factor: f64) -> FaultSpec {
        FaultSpec::ClimateDimming {
            start_day,
            duration_days,
            factor,
        }
    }

    #[test]
    fn peak_window_rise_with_no_opened_record_resumes() {
        // The warm-up days at half light set the base peak; every
        // evaluated day is dimmed to 1%, under a tenth of it, so the
        // base walk opens no record. The appended days shine at full
        // strength and raise the peak, and with no record opened there
        // is no decision for the rise to overturn.
        let scenario = builtin(DESERT, 30, vec![dimming(0, 20, 0.5), dimming(20, 10, 0.01)]);
        let mut matrix = matrix_of(vec![scenario]);
        let engine = FleetEngine::new(57);
        let mut cache = engine.new_cache();
        engine.run_cached(&matrix, &mut cache).unwrap();
        assert_eq!(cache.checkpoints[DESERT].machines.roi_floor, f64::INFINITY);
        let ledger = append_days(&engine, &mut matrix, &mut cache, 2);
        assert_eq!(ledger.counter("delta/peak_fallbacks"), 0);
        assert_eq!(ledger.counter("delta/resumed_units"), 1);
        assert_eq!(ledger.counter("delta/rejudged_peaks"), 1);
        assert_eq!(ledger.counter("slots/processed"), 2 * 48);
    }

    #[test]
    fn peak_window_resumes_when_the_floor_meets_the_grown_threshold_exactly() {
        // The base horizon is dimmed to half and its last day to near
        // darkness, so that day opens no record; the appended days are
        // dimmed by `a` alone. Neither the base peak nor the least
        // opened record mean (the floor) depends on `a`, so `a` is
        // tuned until the grown peak's threshold is exactly the floor:
        // the filter keeps a record at its threshold, so every opened
        // record still passes and the unit resumes.
        const DAYS: usize = 30;
        const APPENDED: usize = 2;
        let faults = |a: f64| {
            vec![
                dimming(0, DAYS - 1, 0.5),
                dimming(DAYS - 1, 1, 0.001),
                dimming(DAYS - 1, 1 + APPENDED, a),
            ]
        };
        // The threshold steps unevenly as `a` moves by one ulp, so some
        // floors are never hit exactly; at master seed 61 this one is.
        let engine = FleetEngine::new(61);
        let probe = builtin(DESERT, DAYS, faults(1.0));
        let mut cache = engine.new_cache();
        engine
            .run_cached(&matrix_of(vec![probe.clone()]), &mut cache)
            .unwrap();
        let checkpoint = &cache.checkpoints[DESERT];
        let (floor, peak) = (checkpoint.machines.roi_floor, checkpoint.roi.peak);
        // The appended days' brightest slot, the final slot excluded.
        let slots = SlotsPerDay::new(48).unwrap();
        let generator = engine.generator(&probe).unwrap();
        let (series, _) = SlotSeries::cold(&generator, DAYS + APPENDED, slots).unwrap();
        let appended = &series.means[DAYS * 48..series.means.len() - 1];
        let brightest = appended.iter().copied().fold(0.0, f64::max);
        let roi = EvalProtocol::paper().roi();
        let a0 = 10.0 * floor / brightest;
        let a = (0..256)
            .flat_map(|step| [a0.to_bits() + step, a0.to_bits() - step])
            .map(f64::from_bits)
            .find(|&a| roi.threshold(brightest * a) == floor)
            .expect("a factor whose grown threshold is the floor");
        assert!(
            a <= 1.0 && brightest * a > peak,
            "the appended days raise the peak"
        );

        let mut matrix = matrix_of(vec![builtin(DESERT, DAYS, faults(a))]);
        let mut cache = engine.new_cache();
        engine.run_cached(&matrix, &mut cache).unwrap();
        assert_eq!(cache.checkpoints[DESERT].machines.roi_floor, floor);
        let ledger = append_days(&engine, &mut matrix, &mut cache, APPENDED);
        assert_eq!(ledger.counter("delta/peak_fallbacks"), 0);
        assert_eq!(ledger.counter("delta/resumed_units"), 1);
        assert_eq!(ledger.counter("delta/rejudged_peaks"), 1);
        assert_eq!(cache.checkpoints[DESERT].roi.peak, brightest * a);
    }

    /// One trace-gap fault: about one gap per 20-day horizon.
    fn sparse_gaps() -> Vec<FaultSpec> {
        vec![FaultSpec::TraceGap {
            gaps_per_100_days: 5.0,
            mean_slots: 20.0,
        }]
    }

    #[test]
    fn trace_gap_rung_resumes_when_no_grown_gap_starts_earlier() {
        // At master seed 22 the 30-day realization's one gap starts on
        // day 23 and the 31-day one's on day 24, so the unit
        // checkpoints at the day-23 rung and a one-day append walks 8
        // days instead of 31. A dropped series keeps only its tail at
        // day 30, which lacks the days from the rung on, so that unit
        // synthesizes its series whole once more.
        for (policy, generations) in [
            (TraceCachePolicy::unbounded(), 0),
            (TraceCachePolicy::bounded(0), 1),
        ] {
            let engine = FleetEngine::new(22).with_trace_cache(policy);
            let mut matrix = matrix_of(vec![builtin(DESERT, 30, sparse_gaps())]);
            let mut cache = engine.new_cache();
            engine.run_cached(&matrix, &mut cache).unwrap();
            assert_eq!(cache.checkpoints[DESERT].day, 23);
            let ledger = append_days(&engine, &mut matrix, &mut cache, 1);
            assert_eq!(ledger.counter("delta/gap_fallbacks"), 0);
            assert_eq!(ledger.counter("delta/resumed_units"), 1);
            assert_eq!(ledger.counter("delta/rung_resumes"), 1);
            assert_eq!(ledger.counter("slots/processed"), 8 * 48);
            assert_eq!(ledger.counter("synth/trace_generations"), generations);
            // The resumed walk captures the grown realization's rung.
            assert_eq!(cache.checkpoints[DESERT].day, 24);
        }
    }

    #[test]
    fn trace_gap_rung_falls_back_when_a_grown_gap_starts_earlier() {
        // At master seed 196 the 30-day realization's one gap starts on
        // day 24, but the 31-day realization draws two gaps, the first
        // on day 10: the checkpointed machines walked a slot the cold
        // run corrupts, so the unit walks cold.
        let engine = FleetEngine::new(196);
        let mut matrix = matrix_of(vec![builtin(DESERT, 30, sparse_gaps())]);
        let mut cache = engine.new_cache();
        engine.run_cached(&matrix, &mut cache).unwrap();
        assert_eq!(cache.checkpoints[DESERT].day, 24);
        let ledger = append_days(&engine, &mut matrix, &mut cache, 1);
        assert_eq!(ledger.counter("delta/gap_fallbacks"), 1);
        assert_eq!(ledger.counter("delta/resumed_units"), 0);
        assert_eq!(ledger.counter("delta/peak_fallbacks"), 0);
        assert_eq!(ledger.counter("slots/processed"), 31 * 48);
        assert_eq!(cache.checkpoints[DESERT].day, 10);
    }

    /// The fallback and resume counters of one unit of a day-append.
    const UNIT_KINDS: [&str; 4] = [
        "delta/resumed_units",
        "delta/peak_fallbacks",
        "delta/gap_fallbacks",
        "delta/cold_fallbacks",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Successive day-appends to random small matrices whose
        /// scenarios mix trace gaps, climate dimming and sensor
        /// dropout, under every retention policy: after every append
        /// the scorecard equals a cold run byte for byte, no unit
        /// falls back for want of a checkpoint, and each unit counts as
        /// exactly one resume or one fallback.
        #[test]
        fn successive_day_appends_match_cold_runs(
            seed in 0u64..100_000,
            draws in proptest::collection::vec(
                (25usize..36, 1u8..8, 0usize..40, 1usize..30, 20u32..=100, 1u32..40),
                1..=2,
            ),
            appends in proptest::collection::vec(1usize..=3, 1..=3),
        ) {
            let names = [DESERT, "aging-node"];
            let scenarios = draws.iter().zip(names).map(
                |(&(days, kinds, start, duration, percent, rate), name)| {
                    let mut faults = Vec::new();
                    if kinds & 1 != 0 {
                        faults.push(FaultSpec::TraceGap {
                            gaps_per_100_days: f64::from(rate),
                            mean_slots: f64::from(rate),
                        });
                    }
                    if kinds & 2 != 0 {
                        faults.push(dimming(start % days, duration, f64::from(percent) / 100.0));
                    }
                    if kinds & 4 != 0 {
                        faults.push(FaultSpec::SensorDropout { rate: f64::from(rate) / 100.0 });
                    }
                    builtin(name, days, faults)
                },
            );
            let base = matrix_of(scenarios.collect());
            let first = &base.scenarios[0];
            let about_one_series = (first.days * 48 * 16 + 4096) as u64;
            for policy in [
                TraceCachePolicy::unbounded(),
                TraceCachePolicy::bounded(about_one_series),
                TraceCachePolicy::bounded(0),
            ] {
                let engine = FleetEngine::new(seed).with_trace_cache(policy);
                let mut matrix = base.clone();
                let mut cache = engine.new_cache();
                engine.run_cached(&matrix, &mut cache).unwrap();
                for &days in &appends {
                    let ledger = append_days(&engine, &mut matrix, &mut cache, days);
                    proptest::prop_assert_eq!(ledger.counter("delta/cold_fallbacks"), 0);
                    for scenario in &matrix.scenarios {
                        let count = |key| ledger.scenario_counter(&scenario.name, key);
                        let kinds: u64 = UNIT_KINDS.iter().map(|key| count(key)).sum();
                        proptest::prop_assert_eq!(kinds, 1, "{} under {:?}", scenario.name, policy);
                        let resumed = count("delta/resumed_units");
                        proptest::prop_assert!(count("delta/rung_resumes") <= resumed);
                        proptest::prop_assert!(count("delta/rejudged_peaks") <= resumed);
                    }
                }
            }
        }
    }
}
