//! Coarse-to-fine (α, D, K) search over a fleet evaluator.
//!
//! The paper's §IV exploration scores every grid point of a fixed grid
//! once. A fleet search cannot afford that (every candidate is a full
//! multi-scenario engine evaluation), so the loop here spends a
//! *convergence budget* instead: score a coarse [`ParamGrid`], refine
//! around the incumbent with [`ParamGrid::refined_around`] (axis
//! spacing roughly halves per round), and re-score until the budget —
//! rounds or distinct candidates — is exhausted or a round stops
//! producing unseen candidates. The incumbent is always a member of the
//! current grid, so refinement is always possible and the best score is
//! monotone non-increasing over rounds.
//!
//! The evaluator is a callback so the loop stays engine-agnostic and
//! unit-testable against analytic score surfaces.

use param_explore::ParamGrid;
use scenario_fleet::PredictorSpec;

/// Convergence budget of one search.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SearchBudget {
    /// Refinement rounds after the initial grid pass.
    pub max_rounds: usize,
    /// Ceiling on distinct candidates scored. A coarse grid larger than
    /// the ceiling is truncated in deterministic grid order; refinement
    /// stops once the ceiling is reached.
    pub max_candidates: usize,
}

impl Default for SearchBudget {
    fn default() -> Self {
        SearchBudget {
            max_rounds: 2,
            max_candidates: 96,
        }
    }
}

/// Outcome of one coarse-to-fine search.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchResult {
    /// Winning α.
    pub alpha: f64,
    /// Winning D.
    pub days: usize,
    /// Winning K.
    pub k: usize,
    /// The winner's score (lower is better).
    pub score: f64,
    /// Refinement rounds actually run (0 = the coarse pass sufficed).
    pub rounds: usize,
    /// Distinct (α, D, K) candidates scored.
    pub evaluated: usize,
}

/// Runs the search. `score` receives a batch of WCMA specs and returns
/// one score per spec, in order (lower is better); it is called once
/// per round with only the candidates not scored in earlier rounds.
///
/// # Errors
///
/// Propagates the first evaluator error.
pub fn search_wcma(
    grid: &ParamGrid,
    budget: &SearchBudget,
    mut score: impl FnMut(&[PredictorSpec]) -> Result<Vec<f64>, String>,
) -> Result<SearchResult, String> {
    let mut seen: Vec<PredictorSpec> = Vec::new();
    let mut best: Option<((f64, usize, usize), f64)> = None;
    let mut rounds = 0;
    let mut current = grid.clone();

    loop {
        let fresh: Vec<PredictorSpec> = PredictorSpec::family_from_grid(&current)
            .into_iter()
            .filter(|c| !seen.contains(c))
            .take(budget.max_candidates.saturating_sub(seen.len()))
            .collect();
        if !fresh.is_empty() {
            let scores = score(&fresh)?;
            if scores.len() != fresh.len() {
                return Err(format!(
                    "evaluator returned {} scores for {} candidates",
                    scores.len(),
                    fresh.len()
                ));
            }
            for (spec, &value) in fresh.into_iter().zip(&scores) {
                let PredictorSpec::Wcma { alpha, days, k } = spec else {
                    unreachable!("a grid family holds only WCMA specs");
                };
                let candidate = (alpha, days, k);
                seen.push(spec);
                // Strict improvement plus deterministic tie-break on the
                // parameter triple, so the winner never depends on
                // evaluation order.
                let better = match best {
                    None => true,
                    Some((incumbent, incumbent_score)) => {
                        value < incumbent_score
                            || (value == incumbent_score && tie_break(candidate, incumbent))
                    }
                };
                if better {
                    best = Some((candidate, value));
                }
            }
        }

        let Some(((alpha, days, k), _)) = best else {
            return Err("candidate budget exhausted before any candidate was scored".to_string());
        };
        if rounds >= budget.max_rounds || seen.len() >= budget.max_candidates {
            break;
        }
        let refined = current
            .refined_around(alpha, days, k)
            .expect("incumbent is on the current grid");
        // Converged: refinement produced nothing new to score.
        if PredictorSpec::family_from_grid(&refined)
            .iter()
            .all(|c| seen.contains(c))
        {
            break;
        }
        current = refined;
        rounds += 1;
    }

    let ((alpha, days, k), score) = best.expect("loop exits early when nothing was scored");
    Ok(SearchResult {
        alpha,
        days,
        k,
        score,
        rounds,
        evaluated: seen.len(),
    })
}

/// `true` if `a` should win a score tie against `b`: smallest (D, K, α)
/// first — the cheapest configuration wins when accuracy is equal.
fn tie_break(a: (f64, usize, usize), b: (f64, usize, usize)) -> bool {
    (a.1, a.2).cmp(&(b.1, b.2)).then(a.0.total_cmp(&b.0)) == std::cmp::Ordering::Less
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_score(spec: &PredictorSpec) -> f64 {
        // Smooth bowl with minimum at (0.7, 10, 2): refinement should
        // close in on it from a coarse grid that misses it.
        match *spec {
            PredictorSpec::Wcma { alpha, days, k } => {
                (alpha - 0.7).powi(2)
                    + 0.01 * (days as f64 - 10.0).powi(2)
                    + 0.05 * (k as f64 - 2.0).powi(2)
            }
            _ => unreachable!("search only emits WCMA specs"),
        }
    }

    #[test]
    fn refinement_improves_on_the_coarse_grid() {
        let grid = ParamGrid::builder()
            .alphas(vec![0.0, 0.5, 1.0])
            .days(vec![2, 12, 20])
            .ks(vec![1, 4, 6])
            .build()
            .unwrap();
        let coarse_only = search_wcma(
            &grid,
            &SearchBudget {
                max_rounds: 0,
                max_candidates: 1000,
            },
            |batch| Ok(batch.iter().map(quadratic_score).collect()),
        )
        .unwrap();
        let refined = search_wcma(
            &grid,
            &SearchBudget {
                max_rounds: 3,
                max_candidates: 1000,
            },
            |batch| Ok(batch.iter().map(quadratic_score).collect()),
        )
        .unwrap();
        assert_eq!(coarse_only.rounds, 0);
        assert!(refined.rounds >= 1);
        assert!(
            refined.score < coarse_only.score,
            "refinement must improve the bowl: {} vs {}",
            refined.score,
            coarse_only.score
        );
        assert!((refined.alpha - 0.7).abs() <= 0.15);
    }

    #[test]
    fn candidate_budget_is_respected() {
        let grid = ParamGrid::paper(); // 1254 configs
        let result = search_wcma(
            &grid,
            &SearchBudget {
                max_rounds: 5,
                max_candidates: 40,
            },
            |batch| Ok(batch.iter().map(quadratic_score).collect()),
        )
        .unwrap();
        assert!(result.evaluated <= 40);
    }

    #[test]
    fn ties_break_toward_the_cheapest_config() {
        let grid = ParamGrid::builder()
            .alphas(vec![0.0, 1.0])
            .days(vec![5, 10])
            .ks(vec![1, 2])
            .build()
            .unwrap();
        let result = search_wcma(
            &grid,
            &SearchBudget {
                max_rounds: 0,
                max_candidates: 100,
            },
            |batch| Ok(vec![1.0; batch.len()]),
        )
        .unwrap();
        assert_eq!((result.days, result.k, result.alpha), (5, 1, 0.0));
    }

    #[test]
    fn evaluator_errors_propagate() {
        let grid = ParamGrid::builder()
            .alphas(vec![0.5])
            .days(vec![5])
            .ks(vec![1])
            .build()
            .unwrap();
        let err = search_wcma(&grid, &SearchBudget::default(), |_| {
            Err("engine exploded".to_string())
        });
        assert!(err.is_err());
    }
}
