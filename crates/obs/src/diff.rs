//! Structural comparison of two run reports.
//!
//! A [`ReportDiff`] turns "eyeball two JSON files" into a machine
//! verdict: it walks both observability planes of a *before* and an
//! *after* [`RunReport`] and classifies the run pair as
//! [`Verdict::Clean`], [`Verdict::Drifted`], or [`Verdict::Regressed`].
//!
//! The two planes are judged by different rules, matching their
//! contracts:
//!
//! - **deterministic plane** (counters, per-scenario counters, gauges,
//!   labels, histograms): *any* delta is a regression. Two runs of the
//!   same workload must agree bit-for-bit, so a changed counter means
//!   the work itself changed — the property the CI sentinel fails on;
//! - **timing plane** (span tree, wall time): compared with a
//!   configurable noise threshold ([`DiffConfig`]). Small wall-time
//!   movement is [`Verdict::Clean`], movement beyond the noise ratio
//!   is [`Verdict::Drifted`], and blowing past the regression
//!   multiplier is [`Verdict::Regressed`].
//!
//! Scenario drift is ranked by the summed absolute counter delta, so
//! the worst-regressing scenario leads every report.

use crate::json::Json;
use crate::ledger::Ledger;
use crate::report::RunReport;
use crate::spans::{format_ns, SpanNode};
use std::collections::BTreeMap;

/// Thresholds for the timing plane (the deterministic plane takes no
/// configuration: any delta there is a regression).
#[derive(Clone, Copy, Debug)]
pub struct DiffConfig {
    /// Relative wall-time change treated as noise (0.25 = ±25%).
    pub wall_noise_ratio: f64,
    /// Spans shorter than this on both sides are never compared —
    /// micro-spans jitter freely.
    pub wall_min_ns: u64,
    /// A span growing past `before × ratio` (and the floor) regresses
    /// the verdict instead of merely drifting it.
    pub wall_regress_ratio: f64,
}

impl Default for DiffConfig {
    fn default() -> DiffConfig {
        DiffConfig {
            wall_noise_ratio: 0.25,
            wall_min_ns: 1_000_000,
            wall_regress_ratio: 4.0,
        }
    }
}

/// The machine-readable outcome of a diff.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Deterministic planes identical; timing within noise.
    Clean,
    /// Deterministic planes identical; timing moved beyond noise.
    Drifted,
    /// A deterministic value changed, or timing blew the regression
    /// multiplier.
    Regressed,
}

impl Verdict {
    /// The canonical lowercase tag (`clean` / `drifted` / `regressed`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Verdict::Clean => "clean",
            Verdict::Drifted => "drifted",
            Verdict::Regressed => "regressed",
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One changed counter or gauge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterDelta {
    pub key: String,
    pub before: u64,
    pub after: u64,
}

impl CounterDelta {
    /// Signed change (`after - before`).
    pub fn delta(&self) -> i64 {
        self.after as i64 - self.before as i64
    }
}

/// One changed (or appearing/disappearing) label.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabelChange {
    pub key: String,
    pub before: Option<String>,
    pub after: Option<String>,
}

/// All counter movement inside one scenario, ranked by magnitude.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioDrift {
    pub scenario: String,
    /// Σ |Δ| across this scenario's counters — the ranking key.
    pub magnitude: u64,
    pub deltas: Vec<CounterDelta>,
}

/// One histogram whose shape moved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramDelta {
    pub key: String,
    /// L1 distance between the bucket vectors (including `zeros`).
    pub l1: u64,
    pub before_count: u64,
    pub after_count: u64,
    /// Sparklines for the findings report ("" when absent on a side).
    pub before_spark: String,
    pub after_spark: String,
}

/// One span path whose wall time moved beyond noise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanDelta {
    /// Full `a/b/c` path below the synthetic root.
    pub path: String,
    pub before_ns: u64,
    pub after_ns: u64,
    /// Whether this span alone pushes the verdict to `Regressed`.
    pub regressed: bool,
}

/// The structural diff of two run reports.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportDiff {
    pub verdict: Verdict,
    /// Run-level counter changes (sorted by key).
    pub counter_deltas: Vec<CounterDelta>,
    /// Gauge changes (sorted by key).
    pub gauge_deltas: Vec<CounterDelta>,
    /// Label changes (sorted by key).
    pub label_changes: Vec<LabelChange>,
    /// Per-scenario drift, worst first (magnitude desc, name asc).
    pub scenario_drift: Vec<ScenarioDrift>,
    /// Histogram shape changes (sorted by key).
    pub histogram_deltas: Vec<HistogramDelta>,
    /// Timing-plane movement beyond noise, largest |Δ| first.
    pub span_deltas: Vec<SpanDelta>,
    pub wall_before_ns: u64,
    pub wall_after_ns: u64,
}

fn diff_u64_maps(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> Vec<CounterDelta> {
    let mut keys: Vec<&String> = before.keys().chain(after.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .filter_map(|key| {
            let b = before.get(key).copied().unwrap_or(0);
            let a = after.get(key).copied().unwrap_or(0);
            (b != a).then(|| CounterDelta {
                key: key.clone(),
                before: b,
                after: a,
            })
        })
        .collect()
}

fn counters_of(ledger: &Ledger, scenario: Option<&str>) -> BTreeMap<String, u64> {
    match scenario {
        None => ledger
            .counter_keys()
            .map(|k| (k.to_string(), ledger.counter(k)))
            .collect(),
        Some(name) => ledger
            .scenario_counter_keys(name)
            .map(|k| (k.to_string(), ledger.scenario_counter(name, k)))
            .collect(),
    }
}

/// Flattens a span tree into `path → total_ns`, skipping the synthetic
/// root. Sibling paths are unique after `build_tree`, so no summing.
fn flatten_spans(node: &SpanNode, prefix: &str, out: &mut BTreeMap<String, u64>) {
    for child in &node.children {
        let path = if prefix.is_empty() {
            child.name.clone()
        } else {
            format!("{prefix}/{}", child.name)
        };
        out.insert(path.clone(), child.total_ns);
        flatten_spans(child, &path, out);
    }
}

impl ReportDiff {
    /// Computes the diff of `before` → `after` under `config`.
    pub fn compute(before: &RunReport, after: &RunReport, config: &DiffConfig) -> ReportDiff {
        let counter_deltas = diff_u64_maps(
            &counters_of(&before.ledger, None),
            &counters_of(&after.ledger, None),
        );
        let gauge_deltas = diff_u64_maps(
            &before
                .ledger
                .gauge_keys()
                .map(|k| (k.to_string(), before.ledger.gauge_value(k).unwrap_or(0)))
                .collect(),
            &after
                .ledger
                .gauge_keys()
                .map(|k| (k.to_string(), after.ledger.gauge_value(k).unwrap_or(0)))
                .collect(),
        );

        let mut label_keys: Vec<String> = before
            .ledger
            .label_keys()
            .chain(after.ledger.label_keys())
            .map(str::to_string)
            .collect();
        label_keys.sort();
        label_keys.dedup();
        let label_changes: Vec<LabelChange> = label_keys
            .into_iter()
            .filter_map(|key| {
                let b = before.ledger.label_value(&key).map(str::to_string);
                let a = after.ledger.label_value(&key).map(str::to_string);
                (b != a).then_some(LabelChange {
                    key,
                    before: b,
                    after: a,
                })
            })
            .collect();

        let mut scenario_names: Vec<String> = before
            .ledger
            .scenario_names()
            .chain(after.ledger.scenario_names())
            .map(str::to_string)
            .collect();
        scenario_names.sort();
        scenario_names.dedup();
        let mut scenario_drift: Vec<ScenarioDrift> = scenario_names
            .into_iter()
            .filter_map(|name| {
                let deltas = diff_u64_maps(
                    &counters_of(&before.ledger, Some(&name)),
                    &counters_of(&after.ledger, Some(&name)),
                );
                if deltas.is_empty() {
                    return None;
                }
                let magnitude = deltas.iter().map(|d| d.delta().unsigned_abs()).sum();
                Some(ScenarioDrift {
                    scenario: name,
                    magnitude,
                    deltas,
                })
            })
            .collect();
        scenario_drift.sort_by(|a, b| {
            b.magnitude
                .cmp(&a.magnitude)
                .then_with(|| a.scenario.cmp(&b.scenario))
        });

        let mut histogram_keys: Vec<String> = before
            .ledger
            .histograms()
            .map(|(k, _)| k.to_string())
            .chain(after.ledger.histograms().map(|(k, _)| k.to_string()))
            .collect();
        histogram_keys.sort();
        histogram_keys.dedup();
        let empty = crate::histogram::Histogram::new();
        let histogram_deltas: Vec<HistogramDelta> = histogram_keys
            .into_iter()
            .filter_map(|key| {
                let b = before.ledger.histogram(&key).unwrap_or(&empty);
                let a = after.ledger.histogram(&key).unwrap_or(&empty);
                if b == a {
                    return None;
                }
                let mut indices: Vec<i32> = b
                    .iter()
                    .map(|(i, _)| i)
                    .chain(a.iter().map(|(i, _)| i))
                    .collect();
                indices.sort_unstable();
                indices.dedup();
                let l1 = indices
                    .into_iter()
                    .map(|i| b.bucket(i).abs_diff(a.bucket(i)))
                    .sum::<u64>()
                    + b.zeros().abs_diff(a.zeros());
                Some(HistogramDelta {
                    key,
                    l1,
                    before_count: b.count(),
                    after_count: a.count(),
                    before_spark: b.sparkline(),
                    after_spark: a.sparkline(),
                })
            })
            .collect();

        let mut before_spans = BTreeMap::new();
        let mut after_spans = BTreeMap::new();
        flatten_spans(&before.spans, "", &mut before_spans);
        flatten_spans(&after.spans, "", &mut after_spans);
        let mut span_paths: Vec<&String> = before_spans.keys().chain(after_spans.keys()).collect();
        span_paths.sort();
        span_paths.dedup();
        let mut timing_regressed = false;
        let mut span_deltas: Vec<SpanDelta> = span_paths
            .into_iter()
            .filter_map(|path| {
                let b = before_spans.get(path).copied().unwrap_or(0);
                let a = after_spans.get(path).copied().unwrap_or(0);
                if b.max(a) < config.wall_min_ns {
                    return None;
                }
                let base = b.max(1) as f64;
                let regressed = a as f64 > base * config.wall_regress_ratio
                    && a >= config.wall_min_ns
                    && b >= config.wall_min_ns;
                let beyond_noise =
                    (a.abs_diff(b)) as f64 > config.wall_noise_ratio * b.max(a).max(1) as f64;
                if !regressed && !beyond_noise {
                    return None;
                }
                timing_regressed |= regressed;
                Some(SpanDelta {
                    path: path.clone(),
                    before_ns: b,
                    after_ns: a,
                    regressed,
                })
            })
            .collect();
        span_deltas.sort_by(|x, y| {
            y.after_ns
                .abs_diff(y.before_ns)
                .cmp(&x.after_ns.abs_diff(x.before_ns))
                .then_with(|| x.path.cmp(&y.path))
        });

        let deterministic_delta = !counter_deltas.is_empty()
            || !gauge_deltas.is_empty()
            || !label_changes.is_empty()
            || !scenario_drift.is_empty()
            || !histogram_deltas.is_empty();
        let verdict = if deterministic_delta || timing_regressed {
            Verdict::Regressed
        } else if !span_deltas.is_empty() {
            Verdict::Drifted
        } else {
            Verdict::Clean
        };

        ReportDiff {
            verdict,
            counter_deltas,
            gauge_deltas,
            label_changes,
            scenario_drift,
            histogram_deltas,
            span_deltas,
            wall_before_ns: before.wall_ns,
            wall_after_ns: after.wall_ns,
        }
    }

    /// Machine-readable form for archives and tooling.
    pub fn to_json(&self) -> Json {
        let counters = |deltas: &[CounterDelta]| {
            Json::Arr(
                deltas
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("key", Json::Str(d.key.clone())),
                            ("before", Json::Num(d.before as f64)),
                            ("after", Json::Num(d.after as f64)),
                        ])
                    })
                    .collect(),
            )
        };
        Json::obj([
            ("schema", Json::Str("fleet-report-diff/1".to_string())),
            ("verdict", Json::Str(self.verdict.as_str().to_string())),
            ("counter_deltas", counters(&self.counter_deltas)),
            ("gauge_deltas", counters(&self.gauge_deltas)),
            (
                "label_changes",
                Json::Arr(
                    self.label_changes
                        .iter()
                        .map(|c| {
                            let opt = |v: &Option<String>| match v {
                                Some(s) => Json::Str(s.clone()),
                                None => Json::Null,
                            };
                            Json::obj([
                                ("key", Json::Str(c.key.clone())),
                                ("before", opt(&c.before)),
                                ("after", opt(&c.after)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "scenario_drift",
                Json::Arr(
                    self.scenario_drift
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("scenario", Json::Str(s.scenario.clone())),
                                ("magnitude", Json::Num(s.magnitude as f64)),
                                ("deltas", counters(&s.deltas)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "histogram_deltas",
                Json::Arr(
                    self.histogram_deltas
                        .iter()
                        .map(|h| {
                            Json::obj([
                                ("key", Json::Str(h.key.clone())),
                                ("l1", Json::Num(h.l1 as f64)),
                                ("before_count", Json::Num(h.before_count as f64)),
                                ("after_count", Json::Num(h.after_count as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "span_deltas",
                Json::Arr(
                    self.span_deltas
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("path", Json::Str(s.path.clone())),
                                ("before_ns", Json::Num(s.before_ns as f64)),
                                ("after_ns", Json::Num(s.after_ns as f64)),
                                ("regressed", Json::Bool(s.regressed)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("wall_before_ns", Json::Num(self.wall_before_ns as f64)),
            ("wall_after_ns", Json::Num(self.wall_after_ns as f64)),
        ])
    }

    /// Terminal summary: verdict, then each section that moved.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "verdict: {}  (wall {} → {})",
            self.verdict,
            format_ns(self.wall_before_ns),
            format_ns(self.wall_after_ns)
        );
        for d in &self.counter_deltas {
            let _ = writeln!(
                out,
                "  counter {:<32} {} → {} ({:+})",
                d.key,
                d.before,
                d.after,
                d.delta()
            );
        }
        for d in &self.gauge_deltas {
            let _ = writeln!(out, "  gauge   {:<32} {} → {}", d.key, d.before, d.after);
        }
        for c in &self.label_changes {
            let _ = writeln!(
                out,
                "  label   {:<32} {:?} → {:?}",
                c.key, c.before, c.after
            );
        }
        for h in &self.histogram_deltas {
            let _ = writeln!(
                out,
                "  histo   {:<32} count {} → {} (L1 {})",
                h.key, h.before_count, h.after_count, h.l1
            );
        }
        for s in self.scenario_drift.iter().take(10) {
            let _ = writeln!(
                out,
                "  drift   {:<32} magnitude {} across {} counters",
                s.scenario,
                s.magnitude,
                s.deltas.len()
            );
        }
        if self.scenario_drift.len() > 10 {
            let _ = writeln!(
                out,
                "  drift   … and {} more scenarios",
                self.scenario_drift.len() - 10
            );
        }
        for s in self.span_deltas.iter().take(10) {
            let _ = writeln!(
                out,
                "  span    {:<32} {} → {}{}",
                s.path,
                format_ns(s.before_ns),
                format_ns(s.after_ns),
                if s.regressed { "  ← regressed" } else { "" }
            );
        }
        if self.verdict == Verdict::Clean {
            let _ = writeln!(out, "  deterministic planes identical; timing within noise");
        }
        out
    }

    /// The ranked findings report: markdown, worst first, with
    /// histogram sparklines and the heaviest span movement.
    pub fn render_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# Fleet run findings\n");
        let _ = writeln!(out, "**Verdict: {}**\n", self.verdict);
        let _ = writeln!(
            out,
            "Wall time {} → {}.\n",
            format_ns(self.wall_before_ns),
            format_ns(self.wall_after_ns)
        );

        if !self.scenario_drift.is_empty() {
            let _ = writeln!(out, "## Worst-regressing scenarios\n");
            let _ = writeln!(out, "| rank | scenario | magnitude | top counter deltas |");
            let _ = writeln!(out, "|---:|---|---:|---|");
            for (rank, s) in self.scenario_drift.iter().take(20).enumerate() {
                let tops: Vec<String> = s
                    .deltas
                    .iter()
                    .take(3)
                    .map(|d| format!("`{}` {:+}", d.key, d.delta()))
                    .collect();
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} |",
                    rank + 1,
                    s.scenario,
                    s.magnitude,
                    tops.join(", ")
                );
            }
            if self.scenario_drift.len() > 20 {
                let _ = writeln!(
                    out,
                    "\n…and {} more drifting scenarios.",
                    self.scenario_drift.len() - 20
                );
            }
            let _ = writeln!(out);
        }

        if !self.counter_deltas.is_empty() || !self.gauge_deltas.is_empty() {
            let _ = writeln!(out, "## Counter and gauge deltas\n");
            let _ = writeln!(out, "| key | before | after | Δ |");
            let _ = writeln!(out, "|---|---:|---:|---:|");
            for d in &self.counter_deltas {
                let _ = writeln!(
                    out,
                    "| `{}` | {} | {} | {:+} |",
                    d.key,
                    d.before,
                    d.after,
                    d.delta()
                );
            }
            for d in &self.gauge_deltas {
                let _ = writeln!(
                    out,
                    "| `{}` (gauge) | {} | {} | {:+} |",
                    d.key,
                    d.before,
                    d.after,
                    d.delta()
                );
            }
            let _ = writeln!(out);
        }

        if !self.label_changes.is_empty() {
            let _ = writeln!(out, "## Label changes\n");
            for c in &self.label_changes {
                let fmt = |v: &Option<String>| v.clone().unwrap_or_else(|| "∅".to_string());
                let _ = writeln!(out, "- `{}`: {} → {}", c.key, fmt(&c.before), fmt(&c.after));
            }
            let _ = writeln!(out);
        }

        if !self.histogram_deltas.is_empty() {
            let _ = writeln!(out, "## Histogram drift\n");
            for h in &self.histogram_deltas {
                let _ = writeln!(
                    out,
                    "- `{}` — count {} → {}, L1 distance {}",
                    h.key, h.before_count, h.after_count, h.l1
                );
                let _ = writeln!(out, "  - before `{}`", h.before_spark);
                let _ = writeln!(out, "  - after  `{}`", h.after_spark);
            }
            let _ = writeln!(out);
        }

        if !self.span_deltas.is_empty() {
            let _ = writeln!(out, "## Heaviest span movement\n");
            let _ = writeln!(out, "| span | before | after | regressed |");
            let _ = writeln!(out, "|---|---:|---:|:---:|");
            for s in self.span_deltas.iter().take(15) {
                let _ = writeln!(
                    out,
                    "| `{}` | {} | {} | {} |",
                    s.path,
                    format_ns(s.before_ns),
                    format_ns(s.after_ns),
                    if s.regressed { "yes" } else { "" }
                );
            }
            let _ = writeln!(out);
        }

        if self.verdict == Verdict::Clean {
            let _ = writeln!(
                out,
                "No findings: deterministic planes identical, timing within noise.\n"
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{build_tree, SpanRecord};

    /// Whether the deterministic planes matched exactly.
    fn deterministic_clean(diff: &ReportDiff) -> bool {
        diff.counter_deltas.is_empty()
            && diff.gauge_deltas.is_empty()
            && diff.label_changes.is_empty()
            && diff.scenario_drift.is_empty()
            && diff.histogram_deltas.is_empty()
    }

    fn report_with(counters: &[(&str, u64)], scenario: &str, slots: u64) -> RunReport {
        let mut ledger = Ledger::new();
        for (key, n) in counters {
            ledger.count(key, *n);
        }
        ledger.count_scenario(scenario, "slots/processed", slots);
        ledger.observe("score/mape", 0.1 + slots as f64 / 1e6);
        RunReport {
            ledger,
            wall_ns: 10_000_000,
            spans: build_tree(&[SpanRecord {
                path: "fleet/simulate".to_string(),
                scenario: Some(scenario.to_string()),
                dur_ns: 8_000_000,
            }]),
            scenario_top: Vec::new(),
        }
    }

    #[test]
    fn identical_reports_are_clean() {
        let a = report_with(&[("jobs/evaluated", 12)], "desert", 960);
        let diff = ReportDiff::compute(&a, &a.clone(), &DiffConfig::default());
        assert_eq!(diff.verdict, Verdict::Clean);
        assert!(deterministic_clean(&diff));
        assert!(diff.span_deltas.is_empty());
        assert!(diff.render_text().contains("verdict: clean"));
        assert!(diff.render_markdown().contains("No findings"));
    }

    #[test]
    fn counter_delta_regresses_and_ranks_scenarios() {
        let before = report_with(&[("jobs/evaluated", 12)], "desert", 960);
        let mut after = report_with(&[("jobs/evaluated", 12)], "desert", 960);
        after
            .ledger
            .count_scenario("marine", "slots/processed", 480);
        after.ledger.count_scenario("desert", "jobs/fresh", 3);
        let diff = ReportDiff::compute(&before, &after, &DiffConfig::default());
        assert_eq!(diff.verdict, Verdict::Regressed);
        // marine moved 480 slots, desert only 3 jobs — marine ranks first.
        assert_eq!(diff.scenario_drift[0].scenario, "marine");
        assert_eq!(diff.scenario_drift[0].magnitude, 480);
        assert_eq!(diff.scenario_drift[1].scenario, "desert");
        let md = diff.render_markdown();
        assert!(md.contains("Worst-regressing scenarios"));
        assert!(md.contains("| 1 | marine | 480 |"));
    }

    #[test]
    fn histogram_shape_change_regresses_with_l1_distance() {
        let before = report_with(&[], "desert", 960);
        let mut after = report_with(&[], "desert", 960);
        after.ledger.observe("score/mape", 0.4);
        let diff = ReportDiff::compute(&before, &after, &DiffConfig::default());
        assert_eq!(diff.verdict, Verdict::Regressed);
        assert_eq!(diff.histogram_deltas.len(), 1);
        assert_eq!(diff.histogram_deltas[0].key, "score/mape");
        assert_eq!(diff.histogram_deltas[0].l1, 1);
        assert!(diff.render_markdown().contains("Histogram drift"));
    }

    #[test]
    fn label_and_gauge_changes_regress() {
        let before = report_with(&[], "desert", 960);
        let mut after = before.clone();
        after.ledger.gauge("admission/trace_budget_bytes", 1024);
        let diff = ReportDiff::compute(&before, &after, &DiffConfig::default());
        assert_eq!(diff.verdict, Verdict::Regressed);
        let mut after = before.clone();
        after
            .ledger
            .label("admission/trace_budget_source", "configured");
        let diff = ReportDiff::compute(&before, &after, &DiffConfig::default());
        assert_eq!(diff.verdict, Verdict::Regressed);
        assert_eq!(diff.label_changes[0].before, None);
    }

    #[test]
    fn wall_time_noise_is_clean_drift_is_drifted_blowup_is_regressed() {
        let base = report_with(&[("jobs/evaluated", 4)], "desert", 960);
        let with_span = |dur_ns: u64| {
            let mut r = base.clone();
            r.spans = build_tree(&[SpanRecord {
                path: "fleet/simulate".to_string(),
                scenario: None,
                dur_ns,
            }]);
            r
        };
        let config = DiffConfig::default();
        // +10% is inside the 25% noise band.
        let diff = ReportDiff::compute(&base, &with_span(8_800_000), &config);
        assert_eq!(diff.verdict, Verdict::Clean);
        // +50% drifts.
        let diff = ReportDiff::compute(&base, &with_span(12_000_000), &config);
        assert_eq!(diff.verdict, Verdict::Drifted);
        assert_eq!(diff.span_deltas[0].path, "fleet/simulate");
        assert!(!diff.span_deltas[0].regressed);
        // 5× regresses.
        let diff = ReportDiff::compute(&base, &with_span(40_000_000), &config);
        assert_eq!(diff.verdict, Verdict::Regressed);
        assert!(diff.span_deltas[0].regressed);
        assert!(deterministic_clean(&diff));
        // A generous ratio turns the same blowup into mere drift.
        let generous = DiffConfig {
            wall_regress_ratio: 50.0,
            ..config
        };
        let diff = ReportDiff::compute(&base, &with_span(40_000_000), &generous);
        assert_eq!(diff.verdict, Verdict::Drifted);
    }

    #[test]
    fn micro_spans_never_compare() {
        let mut before = report_with(&[], "desert", 960);
        before.spans = build_tree(&[SpanRecord {
            path: "fleet/tiny".to_string(),
            scenario: None,
            dur_ns: 10_000,
        }]);
        let mut after = before.clone();
        after.spans = build_tree(&[SpanRecord {
            path: "fleet/tiny".to_string(),
            scenario: None,
            dur_ns: 900_000,
        }]);
        let diff = ReportDiff::compute(&before, &after, &DiffConfig::default());
        assert_eq!(
            diff.verdict,
            Verdict::Clean,
            "sub-millisecond spans jitter freely"
        );
    }

    #[test]
    fn diff_json_carries_the_verdict_and_sections() {
        let before = report_with(&[("jobs/evaluated", 12)], "desert", 960);
        let mut after = before.clone();
        after.ledger.count("jobs/evaluated", 1);
        let diff = ReportDiff::compute(&before, &after, &DiffConfig::default());
        let json = diff.to_json().render_pretty();
        assert!(json.contains("\"fleet-report-diff/1\""));
        assert!(json.contains("\"regressed\""));
        assert!(json.contains("\"jobs/evaluated\""));
    }
}
