//! Parameter grids for exploration.

use std::fmt;

/// Error from building an invalid parameter grid.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GridError {
    /// A grid axis is empty.
    EmptyAxis {
        /// Which axis ("alphas", "days", "ks").
        axis: &'static str,
    },
    /// An α value is outside `[0, 1]` or not finite.
    InvalidAlpha {
        /// The offending value.
        alpha: f64,
    },
    /// A D value is zero.
    InvalidDays,
    /// A K value is zero.
    InvalidK,
    /// The K axis is not strictly ascending (required by the incremental
    /// Φ recurrence).
    UnsortedKs,
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::EmptyAxis { axis } => write!(f, "grid axis {axis} is empty"),
            GridError::InvalidAlpha { alpha } => {
                write!(f, "grid alpha {alpha} must be a finite value in [0, 1]")
            }
            GridError::InvalidDays => write!(f, "grid days values must be at least 1"),
            GridError::InvalidK => write!(f, "grid k values must be at least 1"),
            GridError::UnsortedKs => write!(f, "grid k axis must be strictly ascending"),
        }
    }
}

impl std::error::Error for GridError {}

/// The (α, D, K) exploration grid.
///
/// # Example
///
/// ```
/// use param_explore::ParamGrid;
///
/// let grid = ParamGrid::paper();
/// assert_eq!(grid.alphas().len(), 11);
/// assert_eq!(grid.days().len(), 19); // 2 ..= 20
/// assert_eq!(grid.ks().len(), 6);    // 1 ..= 6
/// assert_eq!(grid.configs(), 11 * 19 * 6);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ParamGrid {
    alphas: Vec<f64>,
    days: Vec<usize>,
    ks: Vec<usize>,
}

impl ParamGrid {
    /// The paper's §IV-A exploration ranges: α ∈ {0.0, 0.1, …, 1.0},
    /// D ∈ [2, 20], K ∈ [1, 6].
    pub fn paper() -> Self {
        ParamGrid {
            alphas: (0..=10).map(|i| i as f64 / 10.0).collect(),
            days: (2..=20).collect(),
            ks: (1..=6).collect(),
        }
    }

    /// Starts a builder.
    pub fn builder() -> ParamGridBuilder {
        ParamGridBuilder::default()
    }

    /// The α axis.
    pub fn alphas(&self) -> &[f64] {
        &self.alphas
    }

    /// The D axis.
    pub fn days(&self) -> &[usize] {
        &self.days
    }

    /// The K axis (strictly ascending).
    pub fn ks(&self) -> &[usize] {
        &self.ks
    }

    /// Total number of configurations.
    pub fn configs(&self) -> usize {
        self.alphas.len() * self.days.len() * self.ks.len()
    }

    /// Largest K in the grid.
    pub fn k_max(&self) -> usize {
        *self.ks.last().expect("non-empty by construction")
    }

    /// A refinement grid centred on one configuration: for each axis,
    /// the centre value plus its midpoints toward the nearest grid
    /// neighbours (α), and the integer midpoints toward the nearest
    /// neighbours (D, K). This is the coarse-to-fine step a tuning loop
    /// iterates: evaluate a coarse grid, pick the best cell, refine
    /// around it, re-score, repeat until the budget runs out.
    ///
    /// The centre itself is always in the refined grid, so a refinement
    /// round can never lose the incumbent. Values are deduplicated and
    /// sorted, keeping the K-axis contract (strictly ascending).
    ///
    /// Returns `None` if any centre coordinate is not on this grid.
    pub fn refined_around(&self, alpha: f64, days: usize, k: usize) -> Option<ParamGrid> {
        let ai = self.alpha_index(alpha)?;
        let di = self.days_index(days)?;
        let ki = self.k_index(k)?;

        let mut alphas = vec![alpha];
        if ai > 0 {
            alphas.push((self.alphas[ai - 1] + alpha) / 2.0);
        }
        if ai + 1 < self.alphas.len() {
            alphas.push((alpha + self.alphas[ai + 1]) / 2.0);
        }
        alphas.sort_by(f64::total_cmp);
        alphas.dedup();

        // Integer midpoints round *away* from the centre, so adjacent
        // values stay reachable (midpoint of 1 and 2 is 1 again under
        // flooring both ways — the search would never try K = 2).
        let mut day_values = vec![days];
        if di > 0 {
            day_values.push((self.days[di - 1] + days) / 2);
        }
        if di + 1 < self.days.len() {
            day_values.push((days + self.days[di + 1]).div_ceil(2));
        }
        day_values.sort_unstable();
        day_values.dedup();

        let mut ks = vec![k];
        if ki > 0 {
            ks.push((self.ks[ki - 1] + k) / 2);
        }
        if ki + 1 < self.ks.len() {
            ks.push((k + self.ks[ki + 1]).div_ceil(2));
        }
        ks.sort_unstable();
        ks.dedup();

        Some(ParamGrid {
            alphas,
            days: day_values,
            ks,
        })
    }

    /// Index of an exact α value, if present.
    pub fn alpha_index(&self, alpha: f64) -> Option<usize> {
        self.alphas.iter().position(|&a| a == alpha)
    }

    /// Index of a D value, if present.
    pub fn days_index(&self, days: usize) -> Option<usize> {
        self.days.iter().position(|&d| d == days)
    }

    /// Index of a K value, if present.
    pub fn k_index(&self, k: usize) -> Option<usize> {
        self.ks.iter().position(|&v| v == k)
    }
}

impl Default for ParamGrid {
    fn default() -> Self {
        ParamGrid::paper()
    }
}

/// Builder for [`ParamGrid`]; unset axes default to the paper's ranges.
#[derive(Clone, Debug, Default)]
pub struct ParamGridBuilder {
    alphas: Option<Vec<f64>>,
    days: Option<Vec<usize>>,
    ks: Option<Vec<usize>>,
}

impl ParamGridBuilder {
    /// Sets the α axis.
    pub fn alphas(mut self, alphas: Vec<f64>) -> Self {
        self.alphas = Some(alphas);
        self
    }

    /// Sets the D axis.
    pub fn days(mut self, days: Vec<usize>) -> Self {
        self.days = Some(days);
        self
    }

    /// Sets the K axis (must be strictly ascending).
    pub fn ks(mut self, ks: Vec<usize>) -> Self {
        self.ks = Some(ks);
        self
    }

    /// Validates and builds the grid.
    ///
    /// # Errors
    ///
    /// Returns a [`GridError`] if any axis is empty or holds out-of-range
    /// values, or if the K axis is not strictly ascending.
    pub fn build(self) -> Result<ParamGrid, GridError> {
        let paper = ParamGrid::paper();
        let alphas = self.alphas.unwrap_or(paper.alphas);
        let days = self.days.unwrap_or(paper.days);
        let ks = self.ks.unwrap_or(paper.ks);
        if alphas.is_empty() {
            return Err(GridError::EmptyAxis { axis: "alphas" });
        }
        if days.is_empty() {
            return Err(GridError::EmptyAxis { axis: "days" });
        }
        if ks.is_empty() {
            return Err(GridError::EmptyAxis { axis: "ks" });
        }
        if let Some(&alpha) = alphas
            .iter()
            .find(|a| !a.is_finite() || !(0.0..=1.0).contains(*a))
        {
            return Err(GridError::InvalidAlpha { alpha });
        }
        if days.contains(&0) {
            return Err(GridError::InvalidDays);
        }
        if ks.contains(&0) {
            return Err(GridError::InvalidK);
        }
        if ks.windows(2).any(|w| w[0] >= w[1]) {
            return Err(GridError::UnsortedKs);
        }
        Ok(ParamGrid { alphas, days, ks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_dimensions() {
        let g = ParamGrid::paper();
        assert_eq!(g.configs(), 1254);
        assert_eq!(g.alphas().len(), 11);
        assert_eq!((g.alphas()[0], g.alphas()[10]), (0.0, 1.0));
        assert_eq!(g.days(), (2..=20).collect::<Vec<_>>());
        assert_eq!(g.ks(), (1..=6).collect::<Vec<_>>());
        assert_eq!(g.k_max(), 6);
        assert_eq!(g, ParamGrid::default());
    }

    #[test]
    fn index_lookups() {
        let g = ParamGrid::paper();
        assert_eq!(g.alpha_index(0.7), Some(7));
        assert_eq!(g.alpha_index(0.75), None);
        assert_eq!(g.days_index(2), Some(0));
        assert_eq!(g.k_index(6), Some(5));
    }

    #[test]
    fn refined_grid_keeps_centre_and_halves_spacing() {
        let g = ParamGrid::builder()
            .alphas(vec![0.0, 0.5, 1.0])
            .days(vec![2, 10, 20])
            .ks(vec![1, 4, 6])
            .build()
            .unwrap();
        let r = g.refined_around(0.5, 10, 4).unwrap();
        assert_eq!(r.alphas(), &[0.25, 0.5, 0.75]);
        assert_eq!(r.days(), &[6, 10, 15]);
        assert_eq!(r.ks(), &[2, 4, 5]);
        // Refinement of a refinement keeps shrinking around the centre.
        let rr = r.refined_around(0.5, 10, 4).unwrap();
        assert_eq!(rr.alphas(), &[0.375, 0.5, 0.625]);
        // Off-grid centres are rejected.
        assert!(g.refined_around(0.3, 10, 4).is_none());
        assert!(g.refined_around(0.5, 11, 4).is_none());
        assert!(g.refined_around(0.5, 10, 5).is_none());
    }

    #[test]
    fn refined_grid_at_axis_edges_stays_valid() {
        let g = ParamGrid::builder()
            .alphas(vec![0.0, 1.0])
            .days(vec![2, 3])
            .ks(vec![1, 2])
            .build()
            .unwrap();
        let r = g.refined_around(0.0, 2, 1).unwrap();
        assert_eq!(r.alphas(), &[0.0, 0.5]);
        // Integer midpoints collapse onto neighbours without duplicates
        // or K-order violations.
        assert_eq!(r.days(), &[2, 3]);
        assert_eq!(r.ks(), &[1, 2]);
        // A single-point grid refines to itself.
        let point = ParamGrid::builder()
            .alphas(vec![0.7])
            .days(vec![10])
            .ks(vec![2])
            .build()
            .unwrap();
        let rp = point.refined_around(0.7, 10, 2).unwrap();
        assert_eq!(rp.configs(), 1);
    }

    #[test]
    fn builder_defaults_to_paper() {
        let g = ParamGrid::builder().build().unwrap();
        assert_eq!(g, ParamGrid::paper());
    }

    #[test]
    fn builder_validates() {
        assert!(matches!(
            ParamGrid::builder().alphas(vec![]).build(),
            Err(GridError::EmptyAxis { axis: "alphas" })
        ));
        assert!(matches!(
            ParamGrid::builder().alphas(vec![1.5]).build(),
            Err(GridError::InvalidAlpha { .. })
        ));
        assert!(matches!(
            ParamGrid::builder().days(vec![0]).build(),
            Err(GridError::InvalidDays)
        ));
        assert!(matches!(
            ParamGrid::builder().ks(vec![2, 1]).build(),
            Err(GridError::UnsortedKs)
        ));
        assert!(matches!(
            ParamGrid::builder().ks(vec![1, 1]).build(),
            Err(GridError::UnsortedKs)
        ));
    }

    #[test]
    fn errors_display() {
        for e in [
            GridError::EmptyAxis { axis: "ks" },
            GridError::InvalidAlpha { alpha: -1.0 },
            GridError::InvalidDays,
            GridError::InvalidK,
            GridError::UnsortedKs,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
