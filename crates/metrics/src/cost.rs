//! Evaluation-cost accounting — the metric layer under tuning loops.
//!
//! A fleet evaluation is itself a workload worth measuring: a tuning
//! loop that re-scores hundreds of candidate predictors needs to know
//! how hard each predictor works per slot (candidate configurations
//! evaluated — 1 for a fixed predictor, `|α| · K_max` for a dynamic
//! selector) and how much trace data each job held. [`RunCost`] records
//! one job; [`CostAggregate`] collapses many. Wall time is not recorded
//! here: the run ledger's spans time the work.
//!
//! Trace memory varies with cache policy and must never leak into
//! byte-pinned artifacts (scorecard/report JSON); candidate counts are
//! spec-derived and deterministic, so they may. Renderers follow that
//! split: JSON carries candidate counts only, text reports show both.

/// Cost of one evaluation job.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RunCost {
    /// Peak number of candidate configurations the predictor evaluated
    /// per slot (deterministic, spec-derived).
    pub peak_candidates: usize,
    /// Peak bytes of trace-derived data the job held — the slot series
    /// its work unit walked (the whole horizon cold, the appended days
    /// alone on a resume off a bare generator tail). Varies with cache
    /// policy and warm/cold state, so it belongs in text reports only,
    /// never in byte-pinned JSON.
    pub peak_trace_bytes: usize,
}

/// Collapsed cost figures over a set of jobs.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CostAggregate {
    /// Number of jobs aggregated.
    pub jobs: usize,
    /// Largest per-job peak candidate count.
    pub peak_candidates: usize,
    /// Largest per-job peak trace memory in bytes (text-report only —
    /// see [`RunCost::peak_trace_bytes`]).
    pub peak_trace_bytes: usize,
}

impl CostAggregate {
    /// Aggregates job costs.
    pub fn of(costs: impl IntoIterator<Item = RunCost>) -> Self {
        let mut agg = CostAggregate::default();
        for cost in costs {
            agg.add(cost);
        }
        agg
    }

    /// Folds one more job in.
    pub fn add(&mut self, cost: RunCost) {
        self.jobs += 1;
        self.peak_candidates = self.peak_candidates.max(cost.peak_candidates);
        self.peak_trace_bytes = self.peak_trace_bytes.max(cost.peak_trace_bytes);
    }

    /// Merges another aggregate (e.g. per-round costs into a loop total).
    pub fn merge(&mut self, other: &CostAggregate) {
        self.jobs += other.jobs;
        self.peak_candidates = self.peak_candidates.max(other.peak_candidates);
        self.peak_trace_bytes = self.peak_trace_bytes.max(other.peak_trace_bytes);
    }
}

impl std::fmt::Display for CostAggregate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} jobs (peak {} candidates, peak trace {:.1} KiB)",
            self.jobs,
            self.peak_candidates,
            self.peak_trace_bytes as f64 / 1024.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_aggregate_is_zero() {
        let agg = CostAggregate::of([]);
        assert_eq!(agg.jobs, 0);
        assert_eq!(agg.peak_candidates, 0);
    }

    #[test]
    fn aggregate_sums_and_maxes() {
        let agg = CostAggregate::of([
            RunCost {
                peak_candidates: 1,
                peak_trace_bytes: 4096,
            },
            RunCost {
                peak_candidates: 30,
                peak_trace_bytes: 1024,
            },
            RunCost {
                peak_candidates: 5,
                peak_trace_bytes: 2048,
            },
        ]);
        assert_eq!(agg.jobs, 3);
        assert_eq!(agg.peak_candidates, 30);
        assert_eq!(agg.peak_trace_bytes, 4096);
        assert!(!agg.to_string().is_empty());
    }

    #[test]
    fn merge_matches_flat_aggregation() {
        let a = RunCost {
            peak_candidates: 2,
            peak_trace_bytes: 100,
        };
        let b = RunCost {
            peak_candidates: 7,
            peak_trace_bytes: 900,
        };
        let mut left = CostAggregate::of([a]);
        left.merge(&CostAggregate::of([b]));
        assert_eq!(left, CostAggregate::of([a, b]));
    }
}
