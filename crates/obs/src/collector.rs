//! The collection handle threaded through engines and tuners.
//!
//! A [`Collector`] is either *off* (the default — a `None` state, so
//! every call is a branch on a niche-optimized `Option` and returns
//! immediately, with no clock reads, no allocation, no locking) or
//! *recording* (an `Arc` around a shared state). Cloning is cheap
//! either way, so the same collector can be handed to an engine, its
//! worker closures, and a tuner at once.
//!
//! Recording keeps the two planes separate:
//!
//! - counters/gauges/labels go to a single [`Ledger`] behind a mutex —
//!   coarse recording (work-unit granularity, never per-slot) keeps
//!   that lock out of hot loops, and the ledger's commutative merges
//!   keep its JSON deterministic regardless of lock order;
//! - finished spans go to per-worker sinks (a fixed pool of vectors,
//!   picked by thread id), so concurrent workers almost never contend
//!   and never serialize behind one global buffer.

use crate::ledger::Ledger;
use crate::report::RunReport;
use crate::spans::{build_tree, scenario_top, SpanRecord};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sink-pool width. Workers hash their thread id into this many
/// independent buffers; 64 comfortably exceeds the worker counts the
/// engine ever spawns, so collisions are rare and harmless (a shared
/// mutex, not corruption).
const SINK_SLOTS: usize = 64;

/// How many scenarios the run report ranks by span time.
const SCENARIO_TOP_N: usize = 10;

struct CollectorState {
    epoch: Instant,
    ledger: Mutex<Ledger>,
    sinks: Vec<Mutex<Vec<SpanRecord>>>,
}

/// Cloneable observability handle; off by default.
#[derive(Clone, Default)]
pub struct Collector {
    state: Option<Arc<CollectorState>>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Collector {
    /// The no-op collector: every recording call returns immediately.
    pub fn noop() -> Collector {
        Collector { state: None }
    }

    /// A recording collector with an empty ledger and running clock.
    pub fn recording() -> Collector {
        Collector {
            state: Some(Arc::new(CollectorState {
                epoch: Instant::now(),
                ledger: Mutex::new(Ledger::new()),
                sinks: (0..SINK_SLOTS).map(|_| Mutex::new(Vec::new())).collect(),
            })),
        }
    }

    /// Whether this collector records anything.
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Adds `n` to the run-level ledger counter `key` (`phase/name`).
    #[inline]
    pub fn count(&self, key: &str, n: u64) {
        if let Some(state) = &self.state {
            state.ledger.lock().unwrap().count(key, n);
        }
    }

    /// Adds `n` under `scenario` (and to the run total).
    #[inline]
    pub fn count_scenario(&self, scenario: &str, key: &str, n: u64) {
        if let Some(state) = &self.state {
            state
                .ledger
                .lock()
                .unwrap()
                .count_scenario(scenario, key, n);
        }
    }

    /// Records one observation into the ledger histogram `key`.
    /// Like counters, observations happen at work-unit granularity —
    /// never per-slot — so the ledger lock stays out of hot loops.
    #[inline]
    pub fn observe(&self, key: &str, value: f64) {
        if let Some(state) = &self.state {
            state.ledger.lock().unwrap().observe(key, value);
        }
    }

    /// Sets a ledger gauge.
    #[inline]
    pub fn gauge(&self, key: &str, value: u64) {
        if let Some(state) = &self.state {
            state.ledger.lock().unwrap().gauge(key, value);
        }
    }

    /// Sets a ledger label.
    #[inline]
    pub fn label(&self, key: &str, value: &str) {
        if let Some(state) = &self.state {
            state.ledger.lock().unwrap().label(key, value);
        }
    }

    /// Folds an externally built ledger in (shard workers build their
    /// own and merge on completion). A no-op when off.
    pub fn absorb_ledger(&self, other: &Ledger) -> Result<(), String> {
        match &self.state {
            Some(state) => state.ledger.lock().unwrap().merge(other),
            None => Ok(()),
        }
    }

    /// Opens a run-scoped span; it records on drop.
    #[inline]
    pub fn span(&self, path: &str) -> SpanGuard {
        self.open_span(path, None)
    }

    /// Opens a scenario-tagged span; it records on drop.
    #[inline]
    pub fn span_scenario(&self, path: &str, scenario: &str) -> SpanGuard {
        self.open_span(path, Some(scenario))
    }

    fn open_span(&self, path: &str, scenario: Option<&str>) -> SpanGuard {
        SpanGuard {
            live: self.state.as_ref().map(|state| LiveSpan {
                state: Arc::clone(state),
                path: path.to_string(),
                scenario: scenario.map(str::to_string),
                start: Instant::now(),
            }),
        }
    }

    /// A snapshot of the deterministic ledger (empty when off).
    pub fn ledger(&self) -> Ledger {
        match &self.state {
            Some(state) => state.ledger.lock().unwrap().clone(),
            None => Ledger::new(),
        }
    }

    /// Assembles the full run report: ledger snapshot, span tree,
    /// per-scenario top-{`SCENARIO_TOP_N`}, and wall time since this
    /// collector started recording. Empty (zero wall) when off.
    pub fn report(&self) -> RunReport {
        let Some(state) = &self.state else {
            return RunReport::empty();
        };
        let mut records = Vec::new();
        for sink in &state.sinks {
            records.extend(sink.lock().unwrap().iter().cloned());
        }
        RunReport {
            ledger: state.ledger.lock().unwrap().clone(),
            wall_ns: state.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            spans: build_tree(&records),
            scenario_top: scenario_top(&records, SCENARIO_TOP_N),
        }
    }
}

struct LiveSpan {
    state: Arc<CollectorState>,
    path: String,
    scenario: Option<String>,
    start: Instant,
}

/// Drop guard for an open span. Holds nothing when the collector is
/// off, so opening and dropping it costs two branches and no clock
/// reads.
#[must_use = "a span measures the scope it lives in; dropping it immediately records ~0ns"]
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let dur_ns = live.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut hasher);
        let slot = (hasher.finish() as usize) % SINK_SLOTS;
        live.state.sinks[slot].lock().unwrap().push(SpanRecord {
            path: live.path,
            scenario: live.scenario,
            dur_ns,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_collector_records_nothing() {
        let collector = Collector::noop();
        assert!(!collector.is_enabled());
        collector.count("synth/trace_generations", 5);
        collector.observe("score/mape", 0.12);
        collector.gauge("admission/trace_budget_bytes", 1);
        collector.label("admission/trace_budget_source", "bounded");
        {
            let _span = collector.span("fleet/synthesis");
        }
        assert!(collector.ledger().is_empty());
        let report = collector.report();
        assert_eq!(report.wall_ns, 0);
        assert!(report.ledger.is_empty());
        assert!(report.spans.children.is_empty());
    }

    #[test]
    fn recording_collector_accumulates_counters_and_spans() {
        let collector = Collector::recording();
        assert!(collector.is_enabled());
        collector.count("jobs/evaluated", 3);
        collector.count_scenario("desert", "slots/processed", 96);
        collector.observe("fleet/unit_slots", 96.0);
        {
            let _outer = collector.span("fleet");
            let _inner = collector.span_scenario("fleet/simulate", "desert");
        }
        let report = collector.report();
        assert_eq!(report.ledger.counter("jobs/evaluated"), 3);
        assert_eq!(
            report.ledger.scenario_counter("desert", "slots/processed"),
            96
        );
        assert_eq!(
            report.ledger.histogram("fleet/unit_slots").unwrap().count(),
            1
        );
        let fleet = report
            .spans
            .children
            .iter()
            .find(|c| c.name == "fleet")
            .expect("fleet span recorded");
        assert_eq!(fleet.count, 1);
        assert_eq!(fleet.children[0].name, "simulate");
        assert_eq!(report.scenario_top.len(), 1);
        assert_eq!(report.scenario_top[0].scenario, "desert");
        assert!(report.wall_ns > 0);
    }

    #[test]
    fn clones_share_state() {
        let collector = Collector::recording();
        let clone = collector.clone();
        clone.count("jobs/evaluated", 2);
        assert_eq!(collector.ledger().counter("jobs/evaluated"), 2);
    }

    #[test]
    fn concurrent_recording_is_order_independent() {
        let collector = Collector::recording();
        let handles: Vec<_> = (0..8)
            .map(|worker| {
                let collector = collector.clone();
                std::thread::spawn(move || {
                    let scenario = format!("scenario-{}", worker % 3);
                    for _ in 0..100 {
                        collector.count_scenario(&scenario, "slots/processed", 1);
                        let _span = collector.span_scenario("fleet/simulate", &scenario);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let ledger = collector.ledger();
        assert_eq!(ledger.counter("slots/processed"), 800);
        // Same totals recorded serially yield byte-identical JSON.
        let serial = Collector::recording();
        for worker in 0..8 {
            let scenario = format!("scenario-{}", worker % 3);
            serial.count_scenario(&scenario, "slots/processed", 100);
        }
        assert_eq!(ledger.to_json_string(), serial.ledger().to_json_string());
        let report = collector.report();
        let simulate = &report.spans.children[0].children[0];
        assert_eq!(simulate.name, "simulate");
        assert_eq!(simulate.count, 800);
    }

    #[test]
    fn absorb_ledger_merges_and_respects_label_conflicts() {
        let collector = Collector::recording();
        collector.label("admission/trace_budget_source", "bounded");
        let mut shard = Ledger::new();
        shard.count("merge/scenario_tables", 100);
        collector.absorb_ledger(&shard).unwrap();
        assert_eq!(collector.ledger().counter("merge/scenario_tables"), 100);
        let mut conflicting = Ledger::new();
        conflicting.label("admission/trace_budget_source", "unbounded");
        assert!(collector.absorb_ledger(&conflicting).is_err());
        // No-op absorb always succeeds.
        assert!(Collector::noop().absorb_ledger(&conflicting).is_ok());
    }
}
