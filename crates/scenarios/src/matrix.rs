//! The predictor × manager × scenario evaluation matrix.
//!
//! Specs are declarative (buildable, comparable, serialisable-by-label)
//! so a matrix can be expanded into jobs on any thread and each job can
//! construct its own fresh predictor/manager state — predictors are
//! stateful stream processors and must never be shared between runs.

use crate::catalog::Scenario;
use harvest_sim::ManagerSpec;
use param_explore::ParamGrid;
use solar_predict::{
    CausalDynamicWcma, EwmaPredictor, FixedWcmaPredictor, MovingAveragePredictor,
    PersistencePredictor, Predictor, WcmaParams, WcmaPredictor,
};

/// A predictor a fleet work unit owns outright: cloning the box deep-
/// copies its state, so a clone is a resume checkpoint. `Send + Sync`
/// because checkpoints sit in `Arc`s shared by parallel workers.
pub(crate) trait SoloPredictor: Predictor + Send + Sync {
    /// A boxed deep copy of the predictor's current state.
    fn clone_box(&self) -> Box<dyn SoloPredictor>;
}

impl<P: Predictor + Clone + Send + Sync + 'static> SoloPredictor for P {
    fn clone_box(&self) -> Box<dyn SoloPredictor> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn SoloPredictor> {
    fn clone(&self) -> Self {
        (**self).clone_box()
    }
}

/// A buildable predictor configuration.
#[derive(Clone, Debug, PartialEq)]
pub enum PredictorSpec {
    /// The paper's WCMA at fixed (α, D, K).
    Wcma {
        /// Persistence weight α ∈ [0, 1].
        alpha: f64,
        /// History depth D (days).
        days: usize,
        /// Conditioning window K (slots).
        k: usize,
    },
    /// The Q16.16 fixed-point WCMA kernel at fixed (α, D, K) — what a
    /// deployed MCU runs; lets tuned integer parameters be ranked under
    /// faults next to the float kernel.
    WcmaQ16 {
        /// Persistence weight α ∈ [0, 1].
        alpha: f64,
        /// History depth D (days).
        days: usize,
        /// Conditioning window K (slots).
        k: usize,
    },
    /// The causal dynamic-(α, K) selector: scores every (α, K) candidate
    /// by discounted recent error and predicts with the current best.
    DynamicCausal {
        /// History depth D (days).
        days: usize,
        /// Candidates use `K = 1 ..= k_max`.
        k_max: usize,
        /// Candidate α values (all in [0, 1]).
        alphas: Vec<f64>,
        /// Per-slot error-score discount in `(0, 1)` — the selector's
        /// memory-length threshold.
        score_decay: f64,
        /// Time-of-day score buckets: `None` keeps the kernel's default
        /// (six, clamped to N); `Some(b)` pins an explicit count — 1
        /// collapses to a single global score table.
        buckets: Option<usize>,
    },
    /// The Kansal et al. EWMA baseline.
    Ewma {
        /// Smoothing factor γ ∈ [0, 1].
        gamma: f64,
    },
    /// Per-slot moving average over `days` days.
    MovingAverage {
        /// Window in days.
        days: usize,
    },
    /// Last-sample persistence.
    Persistence,
}

impl PredictorSpec {
    /// Short stable label for reports and JSON.
    ///
    /// Labels are **injective over specs** (every parameter appears):
    /// the incremental re-scoring cache keys job outcomes by label, so
    /// two distinct specs must never share one.
    pub fn label(&self) -> String {
        match self {
            PredictorSpec::Wcma { alpha, days, k } => {
                format!("wcma(a={alpha},D={days},K={k})")
            }
            PredictorSpec::WcmaQ16 { alpha, days, k } => {
                format!("wcma-q16(a={alpha},D={days},K={k})")
            }
            PredictorSpec::DynamicCausal {
                days,
                k_max,
                alphas,
                score_decay,
                buckets,
            } => {
                let alphas = alphas
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                // Default buckets keep the historical label so tuned
                // artifacts stay comparable across versions.
                let buckets = buckets.map(|b| format!(",b={b}")).unwrap_or_default();
                format!("dyn(D={days},Kmax={k_max},a=[{alphas}],decay={score_decay}{buckets})")
            }
            PredictorSpec::Ewma { gamma } => format!("ewma(g={gamma})"),
            PredictorSpec::MovingAverage { days } => format!("ma(D={days})"),
            PredictorSpec::Persistence => "persistence".to_string(),
        }
    }

    /// Number of candidate configurations the predictor weighs per slot
    /// — 1 for fixed predictors, `|α| · K_max` for the dynamic selector.
    /// Deterministic (spec-derived), so it may appear in byte-pinned
    /// scorecard JSON.
    pub fn candidate_count(&self) -> usize {
        match self {
            PredictorSpec::DynamicCausal { k_max, alphas, .. } => alphas.len() * k_max,
            _ => 1,
        }
    }

    /// Builds a fresh predictor for discretization `n`.
    pub fn build(&self, n: usize) -> Result<Box<dyn Predictor>, String> {
        Ok(self.kernel(n)?)
    }

    /// [`PredictorSpec::build`] as a solo kernel the fleet engine can
    /// clone into a day-boundary checkpoint.
    pub(crate) fn kernel(&self, n: usize) -> Result<Box<dyn SoloPredictor>, String> {
        match self {
            &PredictorSpec::Wcma { alpha, days, k } => Ok(Box::new(WcmaPredictor::new(
                WcmaParams::new(alpha, days, k, n).map_err(|e| e.to_string())?,
            ))),
            &PredictorSpec::WcmaQ16 { alpha, days, k } => Ok(Box::new(FixedWcmaPredictor::new(
                WcmaParams::new(alpha, days, k, n).map_err(|e| e.to_string())?,
            ))),
            PredictorSpec::DynamicCausal {
                days,
                k_max,
                alphas,
                score_decay,
                buckets,
            } => Ok(Box::new(match buckets {
                None => CausalDynamicWcma::new(*days, *k_max, alphas.clone(), *score_decay, n)
                    .map_err(|e| e.to_string())?,
                Some(b) => CausalDynamicWcma::with_buckets(
                    *days,
                    *k_max,
                    alphas.clone(),
                    *score_decay,
                    n,
                    *b,
                )
                .map_err(|e| e.to_string())?,
            })),
            &PredictorSpec::Ewma { gamma } => Ok(Box::new(
                EwmaPredictor::new(gamma, n).map_err(|e| e.to_string())?,
            )),
            &PredictorSpec::MovingAverage { days } => Ok(Box::new(
                MovingAveragePredictor::new(days, n).map_err(|e| e.to_string())?,
            )),
            PredictorSpec::Persistence => Ok(Box::new(PersistencePredictor::new(n))),
        }
    }

    /// The default comparison family: the paper's guideline WCMA, both
    /// ensemble corners, and the two classical baselines.
    pub fn guideline_family() -> Vec<PredictorSpec> {
        vec![
            PredictorSpec::Wcma {
                alpha: 0.7,
                days: 10,
                k: 2,
            },
            PredictorSpec::Wcma {
                alpha: 0.3,
                days: 5,
                k: 1,
            },
            PredictorSpec::Ewma { gamma: 0.5 },
            PredictorSpec::MovingAverage { days: 5 },
            PredictorSpec::Persistence,
        ]
    }

    /// The guideline family plus the deployment-grade citizens at
    /// guideline parameters — the Q16.16 fixed-point kernel and the
    /// causal dynamic-(α, K) selector in both its default (six-bucket)
    /// and single-global-score-table forms — so all rank under faults
    /// next to the float predictors.
    pub fn extended_family() -> Vec<PredictorSpec> {
        let mut family = Self::guideline_family();
        family.push(PredictorSpec::WcmaQ16 {
            alpha: 0.7,
            days: 10,
            k: 2,
        });
        family.push(PredictorSpec::DynamicCausal {
            days: 10,
            k_max: 6,
            alphas: vec![0.0, 0.25, 0.5, 0.75, 1.0],
            score_decay: 0.85,
            buckets: None,
        });
        // The non-default bucket count: one global score table, so the
        // ranking measures what per-time-of-day selection buys.
        family.push(PredictorSpec::DynamicCausal {
            days: 10,
            k_max: 6,
            alphas: vec![0.0, 0.25, 0.5, 0.75, 1.0],
            score_decay: 0.85,
            buckets: Some(1),
        });
        family
    }

    /// Expands a [`ParamGrid`] into a WCMA predictor family — the bridge
    /// between the paper's design-space exploration and fleet
    /// evaluation. Use small grids: the fleet cost is
    /// `configs × managers × scenarios` full runs.
    pub fn family_from_grid(grid: &ParamGrid) -> Vec<PredictorSpec> {
        let mut family = Vec::with_capacity(grid.configs());
        for &alpha in grid.alphas() {
            for &days in grid.days() {
                for &k in grid.ks() {
                    family.push(PredictorSpec::Wcma { alpha, days, k });
                }
            }
        }
        family
    }
}

/// Coordinates of one job in the matrix.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Index into [`FleetMatrix::scenarios`].
    pub scenario_idx: usize,
    /// Index into [`FleetMatrix::predictors`].
    pub predictor_idx: usize,
    /// Index into [`FleetMatrix::managers`].
    pub manager_idx: usize,
}

/// The full evaluation matrix.
#[derive(Clone, Debug)]
pub struct FleetMatrix {
    /// Predictor family.
    pub predictors: Vec<PredictorSpec>,
    /// Manager set.
    pub managers: Vec<ManagerSpec>,
    /// Scenario list.
    pub scenarios: Vec<Scenario>,
}

impl FleetMatrix {
    /// Assembles a matrix; every axis must be non-empty and every
    /// scenario valid.
    pub fn new(
        predictors: Vec<PredictorSpec>,
        managers: Vec<ManagerSpec>,
        scenarios: Vec<Scenario>,
    ) -> Result<Self, String> {
        if predictors.is_empty() || managers.is_empty() || scenarios.is_empty() {
            return Err("fleet matrix axes must all be non-empty".to_string());
        }
        for manager in &managers {
            manager.validate()?;
        }
        for scenario in &scenarios {
            scenario.validate()?;
            for predictor in &predictors {
                // Fail at assembly, not mid-fleet: every predictor must
                // build at every scenario's discretization.
                predictor
                    .build(scenario.slots_per_day as usize)
                    .map_err(|e| format!("scenario {:?}: {e}", scenario.name))?;
            }
        }
        Ok(FleetMatrix {
            predictors,
            managers,
            scenarios,
        })
    }

    /// Total number of jobs.
    pub fn job_count(&self) -> usize {
        self.predictors.len() * self.managers.len() * self.scenarios.len()
    }

    /// Expands the matrix into jobs, scenario-major (all combos of one
    /// scenario are adjacent, maximising trace-cache locality).
    pub fn jobs(&self) -> Vec<JobSpec> {
        let mut jobs = Vec::with_capacity(self.job_count());
        for scenario_idx in 0..self.scenarios.len() {
            for predictor_idx in 0..self.predictors.len() {
                for manager_idx in 0..self.managers.len() {
                    jobs.push(JobSpec {
                        scenario_idx,
                        predictor_idx,
                        manager_idx,
                    });
                }
            }
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;

    #[test]
    fn specs_build_and_label() {
        for spec in PredictorSpec::guideline_family() {
            let predictor = spec.build(48).unwrap();
            assert_eq!(predictor.slots_per_day(), 48);
            assert!(!spec.label().is_empty());
        }
        for spec in ManagerSpec::default_set() {
            assert!(!spec.label().is_empty());
        }
    }

    #[test]
    fn bad_specs_fail_to_build() {
        assert!(PredictorSpec::Wcma {
            alpha: 1.5,
            days: 10,
            k: 2
        }
        .build(48)
        .is_err());
        assert!(PredictorSpec::Ewma { gamma: -0.1 }.build(48).is_err());
        assert!(PredictorSpec::WcmaQ16 {
            alpha: -0.5,
            days: 10,
            k: 2
        }
        .build(48)
        .is_err());
        assert!(PredictorSpec::DynamicCausal {
            days: 10,
            k_max: 48,
            alphas: vec![0.5],
            score_decay: 0.85,
            buckets: None
        }
        .build(48)
        .is_err());
        assert!(PredictorSpec::DynamicCausal {
            days: 10,
            k_max: 6,
            alphas: vec![0.5],
            score_decay: 1.0,
            buckets: None
        }
        .build(48)
        .is_err());
        // Bucket counts above the discretization are rejected too.
        assert!(PredictorSpec::DynamicCausal {
            days: 10,
            k_max: 6,
            alphas: vec![0.5],
            score_decay: 0.85,
            buckets: Some(49)
        }
        .build(48)
        .is_err());
    }

    #[test]
    fn extended_family_builds_and_has_unique_labels() {
        let family = PredictorSpec::extended_family();
        assert_eq!(family.len(), 8);
        // The bucket-count variant is present and distinguishable.
        assert!(family.iter().any(|s| matches!(
            s,
            PredictorSpec::DynamicCausal {
                buckets: Some(1),
                ..
            }
        )));
        let mut labels: Vec<String> = family.iter().map(PredictorSpec::label).collect();
        for spec in &family {
            spec.build(48).unwrap();
        }
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), family.len(), "labels must be injective");
    }

    #[test]
    fn candidate_counts_reflect_per_slot_work() {
        assert_eq!(PredictorSpec::Persistence.candidate_count(), 1);
        assert_eq!(
            PredictorSpec::WcmaQ16 {
                alpha: 0.7,
                days: 10,
                k: 2
            }
            .candidate_count(),
            1
        );
        assert_eq!(
            PredictorSpec::DynamicCausal {
                days: 10,
                k_max: 6,
                alphas: vec![0.0, 0.5, 1.0],
                score_decay: 0.85,
                buckets: None
            }
            .candidate_count(),
            18
        );
    }

    #[test]
    fn invalid_managers_fail_at_matrix_assembly_not_mid_fleet() {
        let scenarios = Catalog::builtin().scenarios()[..1].to_vec();
        for bad in [
            ManagerSpec::FixedDuty { duty: 1.5 },
            ManagerSpec::FixedDuty { duty: f64::NAN },
            ManagerSpec::EnergyNeutral {
                target_soc: 2.0,
                gain: 0.25,
            },
            ManagerSpec::EnergyNeutral {
                target_soc: 0.5,
                gain: -1.0,
            },
        ] {
            assert!(
                FleetMatrix::new(
                    PredictorSpec::guideline_family(),
                    vec![bad.clone()],
                    scenarios.clone()
                )
                .is_err(),
                "{bad:?} should be rejected at assembly"
            );
        }
    }

    #[test]
    fn grid_family_covers_the_grid() {
        let grid = ParamGrid::builder()
            .alphas(vec![0.0, 0.5])
            .days(vec![5, 10])
            .ks(vec![1, 2])
            .build()
            .unwrap();
        let family = PredictorSpec::family_from_grid(&grid);
        assert_eq!(family.len(), 8);
        assert!(family.contains(&PredictorSpec::Wcma {
            alpha: 0.5,
            days: 10,
            k: 2
        }));
    }

    #[test]
    fn matrix_expansion_is_scenario_major() {
        let scenarios = Catalog::builtin().scenarios()[..2].to_vec();
        let matrix = FleetMatrix::new(
            PredictorSpec::guideline_family(),
            ManagerSpec::default_set(),
            scenarios,
        )
        .unwrap();
        let jobs = matrix.jobs();
        assert_eq!(jobs.len(), matrix.job_count());
        assert_eq!(jobs.len(), 5 * 3 * 2);
        // Scenario-major: the first predictors×managers block is scenario 0.
        assert!(jobs[..15].iter().all(|j| j.scenario_idx == 0));
        assert!(jobs[15..].iter().all(|j| j.scenario_idx == 1));
    }

    #[test]
    fn empty_axes_are_rejected() {
        let scenarios = Catalog::builtin().scenarios()[..1].to_vec();
        assert!(FleetMatrix::new(vec![], ManagerSpec::default_set(), scenarios.clone()).is_err());
        assert!(
            FleetMatrix::new(PredictorSpec::guideline_family(), vec![], scenarios.clone()).is_err()
        );
        assert!(FleetMatrix::new(
            PredictorSpec::guideline_family(),
            ManagerSpec::default_set(),
            vec![]
        )
        .is_err());
    }
}
