//! Table III — optimized parameters and MAPE at every sampling rate N.

use crate::context::{Context, ExperimentOutput};
use param_explore::report::{pct, TextTable};
use param_explore::OptimalConfig;
use solar_synth::Site;

/// The optimized row of one (site, N) cell, exposed for reuse by Table V
/// and Fig. 7.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// The site.
    pub site: Site,
    /// Sampling rate.
    pub n: u32,
    /// Whether this is the degenerate one-sample-per-slot case (†).
    pub degenerate: bool,
    /// The MAPE-optimal configuration.
    pub best: OptimalConfig,
    /// MAPE at the best (α, D) with K fixed to 2, if 2 is on the grid.
    pub mape_at_k2: Option<f64>,
}

/// Computes the Table III rows for every data set and paper N.
pub fn rows(ctx: &Context) -> Vec<Table3Row> {
    let mut out = Vec::new();
    for ds in ctx.datasets() {
        for &n in &ds.paper_n_values() {
            let result = ctx.sweep_for(ds.site, n);
            let best = result.best_by_mape();
            out.push(Table3Row {
                site: ds.site,
                n,
                degenerate: ds.is_degenerate_n(n),
                mape_at_k2: result.best_at_k(2).map(|c| c.mape),
                best,
            });
        }
    }
    out
}

/// Regenerates Table III: per data set and per N ∈ {288, 96, 72, 48, 24},
/// the optimal (α, D, K), the achieved MAPE, and MAPE with K fixed at 2.
///
/// Degenerate one-sample-per-slot rows print the paper's dagger
/// convention (α = 1, D/K n/a, MAPE 0†).
pub fn run(ctx: &Context) -> ExperimentOutput {
    let mut table = TextTable::new(vec!["Data Set", "N", "a", "D", "K", "MAPE", "MAPE@K=2"]);
    for row in rows(ctx) {
        if row.degenerate {
            table.push_row(vec![
                row.site.code().to_string(),
                row.n.to_string(),
                "1".to_string(),
                "n/a".to_string(),
                "n/a".to_string(),
                "0+".to_string(),
                "0+".to_string(),
            ]);
        } else {
            table.push_row(vec![
                row.site.code().to_string(),
                row.n.to_string(),
                format!("{:.1}", row.best.alpha),
                row.best.days.to_string(),
                row.best.k.to_string(),
                pct(row.best.mape),
                row.mape_at_k2.map(pct).unwrap_or_else(|| "n/a".into()),
            ]);
        }
    }
    ExperimentOutput {
        id: "table3",
        title: "Table III: prediction results at different values of N",
        tables: vec![("main".into(), table)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trends_match_paper() {
        let ctx = Context::with_days(60);
        let all = rows(&ctx);
        assert_eq!(all.len(), 6 * 5);
        for ds in ctx.datasets() {
            let site_rows: Vec<&Table3Row> = all.iter().filter(|r| r.site == ds.site).collect();
            // MAPE decreases as N grows (non-degenerate rows).
            let real: Vec<&&Table3Row> = site_rows.iter().filter(|r| !r.degenerate).collect();
            for pair in real.windows(2) {
                // Rows are ordered by descending N.
                assert!(
                    pair[0].best.mape <= pair[1].best.mape + 0.02,
                    "{}: MAPE at N={} ({:.4}) should not exceed N={} ({:.4}) by much",
                    ds.site,
                    pair[0].n,
                    pair[0].best.mape,
                    pair[1].n,
                    pair[1].best.mape
                );
            }
            // MAPE@K=2 is close to the optimum (the paper's K guideline).
            // The bound is loose and restricted to N >= 48 here because
            // this unit test evaluates only ~38 days; the full-year run
            // lands well under 1 point at every N (`repro table3`, column
            // MAPE@K=2).
            for r in real.iter().filter(|r| r.n >= 48) {
                if let Some(k2) = r.mape_at_k2 {
                    assert!(
                        k2 - r.best.mape < 0.02,
                        "{} N={}: K=2 penalty {:.4}",
                        r.site,
                        r.n,
                        k2 - r.best.mape
                    );
                }
            }
        }
        // Degenerate rows only for the 5-minute sites at N = 288.
        for r in &all {
            assert_eq!(
                r.degenerate,
                matches!(r.site, Site::Spmd | Site::Ecsu) && r.n == 288
            );
            if r.degenerate {
                assert_eq!(r.best.alpha, 1.0);
                assert!(r.best.mape < 1e-12);
            }
        }
    }

    #[test]
    fn alpha_grows_with_n() {
        let ctx = Context::with_days(60);
        let all = rows(&ctx);
        // Across sites, mean optimal alpha at the highest real N exceeds
        // the mean at N = 24 (the paper's persistence-dominates trend).
        let mean_alpha = |n: u32| {
            let v: Vec<f64> = all
                .iter()
                .filter(|r| r.n == n && !r.degenerate)
                .map(|r| r.best.alpha)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(
            mean_alpha(96) > mean_alpha(24),
            "alpha at N=96 ({}) should exceed alpha at N=24 ({})",
            mean_alpha(96),
            mean_alpha(24)
        );
    }
}
