//! [`FleetDelta`]: the classified difference between two fleet
//! matrices, which routes a re-score down its cheap path.

use crate::matrix::FleetMatrix;
use std::collections::HashSet;

/// The classified difference between two fleet matrices — what changed
/// between the run whose warm [`FleetCache`](crate::FleetCache) you
/// hold and the matrix you want scored now. Feed it to
/// [`FleetEngine::run_delta`](crate::FleetEngine::run_delta) to route
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
    /// predictor *growth* or reordering, and mixed day-append +
    /// scenario-edit batches are errors — run those
    /// through [`FleetEngine::run_cached`](crate::FleetEngine::run_cached)
    /// directly (still warm for every untouched scenario), or split them
    /// into single-kind deltas.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Scenario;
    use crate::engine::tests::small_matrix;
    use crate::matrix::PredictorSpec;
    use crate::ManagerSpec;

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
}
