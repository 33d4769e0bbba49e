//! The tuning report — the fleet analogue of the paper's Table III.
//!
//! Table III reports, per data set, the (α, D, K) minimizing prediction
//! error. [`TuningReport`] reports, per *climate regime*, the
//! parameters minimizing the fleet service score, next to what the
//! global optimum would have scored on that regime — the measured value
//! of tuning per regime instead of once. Rows also carry the tuned
//! parameters' Q16.16 fixed-point score (the deployable integer kernel
//! under the same faults) and the best causal dynamic-(α, K) selector
//! configuration found for the regime.
//!
//! JSON rendering follows the workspace determinism contract:
//! insertion-ordered keys, shortest-round-trip floats, and **no
//! machine-dependent figures** (the trace-memory cost appears only in
//! [`TuningReport::render_text`]).

use pred_metrics::CostAggregate;
use scenario_fleet::json::Json;
use scenario_fleet::PredictorSpec;

/// A tuned WCMA parameter triple.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TunedParams {
    /// Persistence weight α.
    pub alpha: f64,
    /// History depth D (days).
    pub days: usize,
    /// Conditioning window K (slots).
    pub k: usize,
}

impl TunedParams {
    /// The float-kernel spec of these parameters.
    pub fn spec(&self) -> PredictorSpec {
        PredictorSpec::Wcma {
            alpha: self.alpha,
            days: self.days,
            k: self.k,
        }
    }

    /// The Q16.16 fixed-point spec of these parameters.
    pub fn q16_spec(&self) -> PredictorSpec {
        PredictorSpec::WcmaQ16 {
            alpha: self.alpha,
            days: self.days,
            k: self.k,
        }
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("alpha", Json::Num(self.alpha)),
            ("days", Json::Num(self.days as f64)),
            ("k", Json::Num(self.k as f64)),
        ])
    }
}

impl std::fmt::Display for TunedParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(α={}, D={}, K={})", self.alpha, self.days, self.k)
    }
}

/// One regime's row in the winner table.
#[derive(Clone, Debug, PartialEq)]
pub struct RegimeRow {
    /// Regime identifier.
    pub regime: String,
    /// Training scenarios (catalog order).
    pub scenarios: Vec<String>,
    /// The regime's tuned parameters.
    pub tuned: TunedParams,
    /// Service score of the tuned parameters on this regime.
    pub tuned_score: f64,
    /// Service score of the *global* optimum on this regime.
    pub global_score: f64,
    /// Whether the regime simply re-selected the global optimum.
    pub matches_global: bool,
    /// Service score of the tuned parameters through the Q16.16 kernel
    /// on this regime (the deployable integer port, same faults).
    pub q16_score: f64,
    /// Best dynamic-selector score decay found for this regime.
    pub dynamic_decay: f64,
    /// Service score of that dynamic selector on this regime.
    pub dynamic_score: f64,
    /// Refinement rounds the search ran.
    pub rounds: usize,
    /// Distinct (α, D, K) candidates scored for this regime.
    pub candidates: usize,
}

impl RegimeRow {
    /// Score the global optimum loses on this regime by not being tuned
    /// for it (≥ 0 whenever the candidate pool contained the global
    /// optimum, which the tuner guarantees).
    pub fn improvement(&self) -> f64 {
        self.global_score - self.tuned_score
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("regime", Json::Str(self.regime.clone())),
            (
                "scenarios",
                Json::Arr(
                    self.scenarios
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
            ("tuned", self.tuned.to_json()),
            ("tuned_score", Json::Num(self.tuned_score)),
            ("global_score", Json::Num(self.global_score)),
            ("improvement", Json::Num(self.improvement())),
            ("matches_global", Json::Bool(self.matches_global)),
            ("q16_score", Json::Num(self.q16_score)),
            ("dynamic_decay", Json::Num(self.dynamic_decay)),
            ("dynamic_score", Json::Num(self.dynamic_score)),
            ("rounds", Json::Num(self.rounds as f64)),
            ("candidates", Json::Num(self.candidates as f64)),
        ])
    }
}

/// The full tuning-loop output.
#[derive(Clone, Debug, PartialEq)]
pub struct TuningReport {
    /// Master seed of every engine evaluation (exact replay).
    pub master_seed: u64,
    /// The globally tuned parameters (all scenarios at once — the
    /// paper's one-size-fits-all analogue).
    pub global: TunedParams,
    /// The global optimum's overall service score.
    pub global_overall_score: f64,
    /// Per-regime winner rows, in stable regime order.
    pub regimes: Vec<RegimeRow>,
    /// Aggregate evaluation cost of the whole loop. Wall time is
    /// non-deterministic: text rendering only, never JSON.
    pub cost: CostAggregate,
}

impl TuningReport {
    /// Regimes whose tuned parameters differ from the global optimum.
    pub fn divergent_regimes(&self) -> Vec<&RegimeRow> {
        self.regimes.iter().filter(|r| !r.matches_global).collect()
    }

    /// JSON form (deterministic; see module docs). The master seed is a
    /// decimal string for the same reason as the scorecard's: JSON
    /// numbers are doubles and would corrupt seeds ≥ 2⁵³.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("master_seed", Json::Str(self.master_seed.to_string())),
            ("global", self.global.to_json()),
            ("global_overall_score", Json::Num(self.global_overall_score)),
            (
                "regimes",
                Json::Arr(self.regimes.iter().map(RegimeRow::to_json).collect()),
            ),
            (
                "evaluations",
                Json::Num(self.cost.jobs as f64), // deterministic job count
            ),
        ])
    }

    /// Pretty-printed deterministic JSON document.
    pub fn to_json_string(&self) -> String {
        self.to_json().render_pretty()
    }

    /// The per-regime winner table for terminals.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "global optimum {} (overall score {:.4})",
            self.global, self.global_overall_score
        );
        let _ = writeln!(
            out,
            "{:<12}{:<22}{:>9}{:>9}{:>9}{:>9}{:>8}{:>7}{:>6}",
            "regime", "tuned (α, D, K)", "score", "global", "gain", "q16", "dyn", "evals", "rnds"
        );
        for row in &self.regimes {
            let _ = writeln!(
                out,
                "{:<12}{:<22}{:>9.4}{:>9.4}{:>9.4}{:>9.4}{:>8.4}{:>7}{:>6}{}",
                row.regime,
                row.tuned.to_string(),
                row.tuned_score,
                row.global_score,
                row.improvement(),
                row.q16_score,
                row.dynamic_score,
                row.candidates,
                row.rounds,
                if row.matches_global { "  =global" } else { "" },
            );
        }
        let _ = writeln!(out, "cost: {}", self.cost);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pred_metrics::RunCost;

    fn sample_report() -> TuningReport {
        TuningReport {
            master_seed: u64::MAX - 1,
            global: TunedParams {
                alpha: 0.7,
                days: 10,
                k: 2,
            },
            global_overall_score: 0.5,
            regimes: vec![RegimeRow {
                regime: "desert".into(),
                scenarios: vec!["desert-clear-sky".into()],
                tuned: TunedParams {
                    alpha: 1.0,
                    days: 5,
                    k: 1,
                },
                tuned_score: 0.25,
                global_score: 0.30,
                matches_global: false,
                q16_score: 0.26,
                dynamic_decay: 0.85,
                dynamic_score: 0.27,
                rounds: 2,
                candidates: 31,
            }],
            cost: CostAggregate::of([RunCost {
                peak_candidates: 30,
                peak_trace_bytes: 11_520,
            }]),
        }
    }

    #[test]
    fn json_is_deterministic_and_wall_free() {
        let report = sample_report();
        let a = report.to_json_string();
        let b = report.to_json_string();
        assert_eq!(a, b);
        assert!(!a.contains("wall"), "wall time must stay out of JSON");
        let parsed = Json::parse(&a).unwrap();
        assert_eq!(
            parsed
                .req_str("master_seed")
                .unwrap()
                .parse::<u64>()
                .unwrap(),
            u64::MAX - 1
        );
        assert_eq!(parsed.req("regimes").unwrap().as_arr().unwrap().len(), 1);
    }

    #[test]
    fn divergence_and_improvement_read_from_rows() {
        let report = sample_report();
        assert_eq!(report.divergent_regimes().len(), 1);
        let row = &report.regimes[0];
        assert!((row.improvement() - 0.05).abs() < 1e-12);
        let text = report.render_text();
        assert!(text.contains("desert"));
        assert!(text.contains("cost:"));
    }

    #[test]
    fn tuned_params_build_both_kernels() {
        let params = TunedParams {
            alpha: 0.7,
            days: 10,
            k: 2,
        };
        assert_eq!(params.spec().label(), "wcma(a=0.7,D=10,K=2)");
        assert_eq!(params.q16_spec().label(), "wcma-q16(a=0.7,D=10,K=2)");
        assert_eq!(params.to_string(), "(α=0.7, D=10, K=2)");
    }
}
