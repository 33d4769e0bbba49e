//! Shared state of an experiment run: the data sets and memoized sweeps.

use crate::datasets::{all_datasets, Dataset};
use param_explore::report::TextTable;
use param_explore::{sweep, ParamGrid, SweepResult};
use pred_metrics::EvalProtocol;
use solar_synth::Site;
use solar_trace::{SlotView, SlotsPerDay};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// The rendered output of one experiment: its `repro` id and one or
/// more named tables.
#[derive(Clone, Debug)]
pub struct ExperimentOutput {
    /// Experiment id ("table3", "fig6", …).
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Named tables, printed in order and saved as `<id>_<name>.csv`.
    pub tables: Vec<(String, TextTable)>,
}

impl ExperimentOutput {
    /// Saves every table as CSV under `dir` and returns the paths.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_csvs(&self, dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
        let mut paths = Vec::new();
        for (name, table) in &self.tables {
            let path = dir.join(format!("{}_{}.csv", self.id, name));
            table.save_csv(&path)?;
            paths.push(path);
        }
        Ok(paths)
    }
}

/// Shared context: the generated data sets, the evaluation protocol and a
/// memo of grid sweeps keyed by (site, N), which several experiments
/// share (Table II, Table III, Fig. 7, Table V all reuse them).
pub struct Context {
    datasets: Vec<Dataset>,
    days: usize,
    protocol: EvalProtocol,
    grid: ParamGrid,
    sweeps: RefCell<HashMap<(Site, u32), Rc<SweepResult>>>,
}

impl Context {
    /// The paper's setup over `days` days of data: days 21 onward
    /// evaluated, 10% region of interest, full parameter grid. The paper
    /// uses 365 days; tests and quick runs pass fewer (the protocol
    /// warm-up stays at 20 days).
    pub fn with_days(days: usize) -> Self {
        Context {
            datasets: all_datasets(days),
            days,
            protocol: EvalProtocol::paper(),
            grid: ParamGrid::paper(),
            sweeps: RefCell::new(HashMap::new()),
        }
    }

    /// The generated data sets in Table I order.
    pub fn datasets(&self) -> &[Dataset] {
        &self.datasets
    }

    /// The data set for a site.
    ///
    /// # Panics
    ///
    /// Panics if the site is missing (cannot happen for contexts built by
    /// the constructors here).
    pub fn dataset(&self, site: Site) -> &Dataset {
        self.datasets
            .iter()
            .find(|d| d.site == site)
            .expect("all sites present")
    }

    /// Days of data per site.
    pub fn days(&self) -> usize {
        self.days
    }

    /// The evaluation protocol (paper §III/§IV-A).
    pub fn protocol(&self) -> &EvalProtocol {
        &self.protocol
    }

    /// The exploration grid (paper §IV-A).
    pub fn grid(&self) -> &ParamGrid {
        &self.grid
    }

    /// The full-grid sweep of `site` at rate `n`, memoized.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a valid slot count for the site's resolution.
    pub fn sweep_for(&self, site: Site, n: u32) -> Rc<SweepResult> {
        if let Some(hit) = self.sweeps.borrow().get(&(site, n)) {
            return Rc::clone(hit);
        }
        let dataset = self.dataset(site);
        let view = SlotView::new(&dataset.trace, SlotsPerDay::new(n).expect("valid N"))
            .expect("N compatible with site resolution");
        let result = Rc::new(sweep(&view, &self.grid, &self.protocol));
        self.sweeps
            .borrow_mut()
            .insert((site, n), Rc::clone(&result));
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_memoizes_sweeps() {
        let ctx = Context::with_days(30);
        let a = ctx.sweep_for(Site::Pfci, 24);
        let b = ctx.sweep_for(Site::Pfci, 24);
        assert!(Rc::ptr_eq(&a, &b));
        assert_eq!(ctx.datasets().len(), 6);
        assert_eq!(ctx.days(), 30);
    }

    #[test]
    fn output_saves_csvs() {
        let mut table = TextTable::new(vec!["a"]);
        table.push_row(vec!["1".into()]);
        let out = ExperimentOutput {
            id: "test",
            title: "t",
            tables: vec![("main".into(), table)],
        };
        let dir = std::env::temp_dir().join("paper_repro_ctx_test");
        let paths = out.save_csvs(&dir).unwrap();
        assert!(paths[0].exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
