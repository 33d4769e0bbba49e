//! Structural comparison of two run reports.
//!
//! A [`ReportDiff`] turns "eyeball two JSON files" into a machine
//! verdict: it walks both observability planes of a *before* and an
//! *after* [`RunReport`] and lists what moved as one ranked list of
//! typed [`Finding`]s — scenario drift, counters, gauges, labels,
//! histograms and spans, in that rank order. Each finding has its own
//! verdict, and the diff's [`Verdict`] is the worst of them
//! ([`Verdict::Clean`] when nothing moved):
//!
//! - **deterministic plane** (counters, per-scenario counters, gauges,
//!   labels, histograms): *any* delta is a finding that regresses.
//!   Two runs of the same workload must agree bit-for-bit, so a
//!   changed counter means the work itself changed — the property the
//!   CI sentinel fails on;
//! - **timing plane** (span tree): a span is a finding only beyond a
//!   configurable noise threshold ([`DiffConfig`]). It drifts the
//!   verdict ([`Verdict::Drifted`]), or regresses it when it blows
//!   past the regression multiplier ([`Verdict::Regressed`]).
//!
//! Every section comes from one keyed walk: the sorted union of both
//! sides' keys, kept where the values differ. Scenario drift is
//! ranked by the summed absolute counter delta, so the
//! worst-regressing scenario leads every report, and each scenario's
//! own deltas are ranked largest first. The three renders — the
//! terminal summary ([`ReportDiff::render_text`]), the markdown
//! findings report ([`ReportDiff::render_markdown`]) and the
//! `fleet-report-diff/1` JSON ([`ReportDiff::to_json`]) — each format
//! one finding per line or row; the text and JSON views list the
//! sections in their own fixed order.

use crate::histogram::Histogram;
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
    /// Signed change (`after - before`), exact for any two `u64`s.
    pub fn delta(&self) -> i128 {
        i128::from(self.after) - i128::from(self.before)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("key", Json::Str(self.key.clone())),
            ("before", Json::Num(self.before as f64)),
            ("after", Json::Num(self.after as f64)),
        ])
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
    /// Σ |Δ| across this scenario's counters (saturating) — the
    /// ranking key.
    pub magnitude: u64,
    /// Largest |Δ| first, key ascending on ties.
    pub deltas: Vec<CounterDelta>,
}

/// One histogram whose shape moved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramDelta {
    pub key: String,
    /// L1 distance between the bucket vectors (including `zeros`;
    /// saturating).
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

/// One thing that moved between the two reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Finding {
    /// Counter movement inside one scenario.
    Drift(ScenarioDrift),
    /// A run-level counter changed.
    Counter(CounterDelta),
    /// A gauge changed.
    Gauge(CounterDelta),
    /// A label changed, appeared or disappeared.
    Label(LabelChange),
    /// A histogram's shape moved.
    Histogram(HistogramDelta),
    /// A span's wall time moved beyond noise.
    Span(SpanDelta),
}

/// The kinds of [`Finding`], in rank order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Drift,
    Counter,
    Gauge,
    Label,
    Histogram,
    Span,
}

impl Finding {
    /// What this finding alone makes of the run pair: any
    /// deterministic change regresses it; a span drifts it, or
    /// regresses it past the regression multiplier.
    pub fn verdict(&self) -> Verdict {
        match self {
            Finding::Span(s) if !s.regressed => Verdict::Drifted,
            _ => Verdict::Regressed,
        }
    }

    fn kind(&self) -> Kind {
        match self {
            Finding::Drift(_) => Kind::Drift,
            Finding::Counter(_) => Kind::Counter,
            Finding::Gauge(_) => Kind::Gauge,
            Finding::Label(_) => Kind::Label,
            Finding::Histogram(_) => Kind::Histogram,
            Finding::Span(_) => Kind::Span,
        }
    }

    /// The finding's line in the terminal summary.
    fn text_row(&self) -> String {
        match self {
            Finding::Drift(s) => format!(
                "drift   {:<32} magnitude {} across {} counters",
                s.scenario,
                s.magnitude,
                s.deltas.len()
            ),
            Finding::Counter(d) => format!(
                "counter {:<32} {} → {} ({:+})",
                d.key,
                d.before,
                d.after,
                d.delta()
            ),
            Finding::Gauge(d) => format!("gauge   {:<32} {} → {}", d.key, d.before, d.after),
            Finding::Label(c) => format!("label   {:<32} {:?} → {:?}", c.key, c.before, c.after),
            Finding::Histogram(h) => format!(
                "histo   {:<32} count {} → {} (L1 {})",
                h.key, h.before_count, h.after_count, h.l1
            ),
            Finding::Span(s) => format!(
                "span    {:<32} {} → {}{}",
                s.path,
                format_ns(s.before_ns),
                format_ns(s.after_ns),
                if s.regressed { "  ← regressed" } else { "" }
            ),
        }
    }

    /// The finding's row (or rows) in the markdown report; `rank` is
    /// its 1-based place in its section.
    fn markdown_row(&self, rank: usize) -> String {
        match self {
            Finding::Drift(s) => {
                let tops: Vec<String> = s
                    .deltas
                    .iter()
                    .take(3)
                    .map(|d| format!("`{}` {:+}", d.key, d.delta()))
                    .collect();
                let tops = tops.join(", ");
                format!("| {rank} | {} | {} | {tops} |\n", s.scenario, s.magnitude)
            }
            Finding::Counter(d) => {
                format!(
                    "| `{}` | {} | {} | {:+} |\n",
                    d.key,
                    d.before,
                    d.after,
                    d.delta()
                )
            }
            Finding::Gauge(d) => format!(
                "| `{}` (gauge) | {} | {} | {:+} |\n",
                d.key,
                d.before,
                d.after,
                d.delta()
            ),
            Finding::Label(c) => {
                let side = |v: &Option<String>| v.clone().unwrap_or_else(|| "∅".to_string());
                format!("- `{}`: {} → {}\n", c.key, side(&c.before), side(&c.after))
            }
            Finding::Histogram(h) => format!(
                "- `{}` — count {} → {}, L1 distance {}\n  - before `{}`\n  - after  `{}`\n",
                h.key, h.before_count, h.after_count, h.l1, h.before_spark, h.after_spark
            ),
            Finding::Span(s) => format!(
                "| `{}` | {} | {} | {} |\n",
                s.path,
                format_ns(s.before_ns),
                format_ns(s.after_ns),
                if s.regressed { "yes" } else { "" }
            ),
        }
    }

    /// The finding's entry in its `fleet-report-diff/1` array.
    fn to_json(&self) -> Json {
        match self {
            Finding::Drift(s) => Json::obj([
                ("scenario", Json::Str(s.scenario.clone())),
                ("magnitude", Json::Num(s.magnitude as f64)),
                (
                    "deltas",
                    Json::Arr(s.deltas.iter().map(CounterDelta::to_json).collect()),
                ),
            ]),
            Finding::Counter(d) | Finding::Gauge(d) => d.to_json(),
            Finding::Label(c) => {
                let side = |v: &Option<String>| v.clone().map_or(Json::Null, Json::Str);
                Json::obj([
                    ("key", Json::Str(c.key.clone())),
                    ("before", side(&c.before)),
                    ("after", side(&c.after)),
                ])
            }
            Finding::Histogram(h) => Json::obj([
                ("key", Json::Str(h.key.clone())),
                ("l1", Json::Num(h.l1 as f64)),
                ("before_count", Json::Num(h.before_count as f64)),
                ("after_count", Json::Num(h.after_count as f64)),
            ]),
            Finding::Span(s) => Json::obj([
                ("path", Json::Str(s.path.clone())),
                ("before_ns", Json::Num(s.before_ns as f64)),
                ("after_ns", Json::Num(s.after_ns as f64)),
                ("regressed", Json::Bool(s.regressed)),
            ]),
        }
    }
}

/// The structural diff of two run reports.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportDiff {
    /// The worst [`Finding::verdict`], or `Clean` without findings.
    pub verdict: Verdict,
    /// Everything that moved, in rank order: scenario drift (magnitude
    /// desc, name asc), then counters, gauges, labels and histograms
    /// (each by key), then spans (largest |Δ| first, path asc).
    pub findings: Vec<Finding>,
    pub wall_before_ns: u64,
    pub wall_after_ns: u64,
}

/// The terminal summary's sections: kind, row cap, and what the
/// "… and N more" line counts (none: the overflow is dropped).
const TEXT_SECTIONS: [(&[Kind], usize, Option<&str>); 6] = [
    (&[Kind::Counter], usize::MAX, None),
    (&[Kind::Gauge], usize::MAX, None),
    (&[Kind::Label], usize::MAX, None),
    (&[Kind::Histogram], usize::MAX, None),
    (&[Kind::Drift], 10, Some("scenarios")),
    (&[Kind::Span], 10, None),
];

/// The markdown report's sections, in rank order: kinds, heading
/// (with the table head), row cap, and what the "…and N more" line
/// counts.
const MARKDOWN_SECTIONS: [(&[Kind], &str, usize, Option<&str>); 5] = [
    (
        &[Kind::Drift],
        "## Worst-regressing scenarios\n\n| rank | scenario | magnitude | top counter deltas |\n|---:|---|---:|---|\n",
        20,
        Some("drifting scenarios"),
    ),
    (
        &[Kind::Counter, Kind::Gauge],
        "## Counter and gauge deltas\n\n| key | before | after | Δ |\n|---|---:|---:|---:|\n",
        usize::MAX,
        None,
    ),
    (&[Kind::Label], "## Label changes\n\n", usize::MAX, None),
    (&[Kind::Histogram], "## Histogram drift\n\n", usize::MAX, None),
    (
        &[Kind::Span],
        "## Heaviest span movement\n\n| span | before | after | regressed |\n|---|---:|---:|:---:|\n",
        15,
        None,
    ),
];

/// The `fleet-report-diff/1` arrays, in schema order.
const JSON_SECTIONS: [(&str, Kind); 6] = [
    ("counter_deltas", Kind::Counter),
    ("gauge_deltas", Kind::Gauge),
    ("label_changes", Kind::Label),
    ("scenario_drift", Kind::Drift),
    ("histogram_deltas", Kind::Histogram),
    ("span_deltas", Kind::Span),
];

/// The one keyed walk: the sorted union of both sides' keys, kept
/// where `changed` makes a finding of the key (it returns `None` for a
/// key whose two values agree).
fn changed<'a, S: ?Sized, K: Ord, I: Iterator<Item = K>, T>(
    before: &'a S,
    after: &'a S,
    keys: impl Fn(&'a S) -> I,
    changed: impl FnMut(K) -> Option<T>,
) -> Vec<T> {
    let mut union: Vec<K> = keys(before).chain(keys(after)).collect();
    union.sort_unstable();
    union.dedup();
    union.into_iter().filter_map(changed).collect()
}

/// [`changed`] over `u64` values, where a missing key reads 0.
fn u64_deltas<'a, I: Iterator<Item = &'a str>>(
    before: &'a Ledger,
    after: &'a Ledger,
    keys: impl Fn(&'a Ledger) -> I,
    value: impl Fn(&Ledger, &str) -> u64,
) -> Vec<CounterDelta> {
    changed(before, after, keys, |key| {
        let (b, a) = (value(before, key), value(after, key));
        (b != a).then(|| CounterDelta {
            key: key.to_string(),
            before: b,
            after: a,
        })
    })
}

/// Per-scenario drift, worst first.
fn scenario_drift(before: &Ledger, after: &Ledger) -> Vec<ScenarioDrift> {
    let mut drift = changed(before, after, Ledger::scenario_names, |name| {
        let mut deltas = u64_deltas(
            before,
            after,
            |l| l.scenario_counter_keys(name),
            |l, k| l.scenario_counter(name, k),
        );
        deltas.sort_by(|x, y| {
            y.delta()
                .unsigned_abs()
                .cmp(&x.delta().unsigned_abs())
                .then_with(|| x.key.cmp(&y.key))
        });
        let magnitude = deltas.iter().fold(0u64, |sum, d| {
            sum.saturating_add(d.before.abs_diff(d.after))
        });
        (!deltas.is_empty()).then(|| ScenarioDrift {
            scenario: name.to_string(),
            magnitude,
            deltas,
        })
    });
    drift.sort_by(|a, b| {
        b.magnitude
            .cmp(&a.magnitude)
            .then_with(|| a.scenario.cmp(&b.scenario))
    });
    drift
}

/// Histograms whose buckets moved, by key.
fn histogram_deltas(before: &Ledger, after: &Ledger) -> Vec<HistogramDelta> {
    let empty = Histogram::new();
    changed(
        before,
        after,
        |l| l.histograms().map(|(key, _)| key),
        |key| {
            let b = before.histogram(key).unwrap_or(&empty);
            let a = after.histogram(key).unwrap_or(&empty);
            if b == a {
                return None;
            }
            let buckets = changed(
                b,
                a,
                |h| h.iter().map(|(i, _)| i),
                |i| Some(b.bucket(i).abs_diff(a.bucket(i))),
            );
            let l1 = buckets
                .into_iter()
                .fold(b.zeros().abs_diff(a.zeros()), u64::saturating_add);
            Some(HistogramDelta {
                key: key.to_string(),
                l1,
                before_count: b.count(),
                after_count: a.count(),
                before_spark: b.sparkline(),
                after_spark: a.sparkline(),
            })
        },
    )
}

/// Span paths that moved beyond noise, largest |Δ| first.
fn span_deltas(before: &SpanNode, after: &SpanNode, config: &DiffConfig) -> Vec<SpanDelta> {
    let mut before_spans = BTreeMap::new();
    let mut after_spans = BTreeMap::new();
    flatten_spans(before, "", &mut before_spans);
    flatten_spans(after, "", &mut after_spans);
    let mut spans = changed(
        &before_spans,
        &after_spans,
        |m| m.keys(),
        |path| {
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
            (regressed || beyond_noise).then(|| SpanDelta {
                path: path.clone(),
                before_ns: b,
                after_ns: a,
                regressed,
            })
        },
    );
    spans.sort_by(|x, y| {
        y.after_ns
            .abs_diff(y.before_ns)
            .cmp(&x.after_ns.abs_diff(x.before_ns))
            .then_with(|| x.path.cmp(&y.path))
    });
    spans
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
        let (b, a) = (&before.ledger, &after.ledger);
        let mut findings: Vec<Finding> = scenario_drift(b, a)
            .into_iter()
            .map(Finding::Drift)
            .collect();
        let counters = u64_deltas(b, a, Ledger::counter_keys, Ledger::counter);
        findings.extend(counters.into_iter().map(Finding::Counter));
        let gauges = u64_deltas(b, a, Ledger::gauge_keys, |l, k| {
            l.gauge_value(k).unwrap_or(0)
        });
        findings.extend(gauges.into_iter().map(Finding::Gauge));
        let labels = changed(b, a, Ledger::label_keys, |key| {
            let (before, after) = (b.label_value(key), a.label_value(key));
            (before != after).then(|| LabelChange {
                key: key.to_string(),
                before: before.map(str::to_string),
                after: after.map(str::to_string),
            })
        });
        findings.extend(labels.into_iter().map(Finding::Label));
        findings.extend(histogram_deltas(b, a).into_iter().map(Finding::Histogram));
        let spans = span_deltas(&before.spans, &after.spans, config);
        findings.extend(spans.into_iter().map(Finding::Span));
        ReportDiff {
            verdict: findings
                .iter()
                .map(Finding::verdict)
                .max()
                .unwrap_or(Verdict::Clean),
            findings,
            wall_before_ns: before.wall_ns,
            wall_after_ns: after.wall_ns,
        }
    }

    /// The findings of the given kinds, in rank order.
    fn of<'a>(&'a self, kinds: &'a [Kind]) -> impl Iterator<Item = &'a Finding> + 'a {
        self.findings.iter().filter(|f| kinds.contains(&f.kind()))
    }

    /// Machine-readable form for archives and tooling.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("schema", Json::Str("fleet-report-diff/1".to_string())),
            ("verdict", Json::Str(self.verdict.as_str().to_string())),
        ];
        for (name, kind) in JSON_SECTIONS {
            pairs.push((
                name,
                Json::Arr(self.of(&[kind]).map(Finding::to_json).collect()),
            ));
        }
        pairs.push(("wall_before_ns", Json::Num(self.wall_before_ns as f64)));
        pairs.push(("wall_after_ns", Json::Num(self.wall_after_ns as f64)));
        Json::obj(pairs)
    }

    /// Terminal summary: verdict, then each section that moved.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "verdict: {}  (wall {} → {})\n",
            self.verdict,
            format_ns(self.wall_before_ns),
            format_ns(self.wall_after_ns)
        );
        for (kinds, cap, more) in TEXT_SECTIONS {
            let rows: Vec<&Finding> = self.of(kinds).collect();
            for finding in rows.iter().take(cap) {
                let _ = writeln!(out, "  {}", finding.text_row());
            }
            if let (Some(what), true) = (more, rows.len() > cap) {
                let _ = writeln!(out, "  drift   … and {} more {what}", rows.len() - cap);
            }
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
        let mut out = format!(
            "# Fleet run findings\n\n**Verdict: {}**\n\nWall time {} → {}.\n\n",
            self.verdict,
            format_ns(self.wall_before_ns),
            format_ns(self.wall_after_ns)
        );
        for (kinds, heading, cap, more) in MARKDOWN_SECTIONS {
            let rows: Vec<&Finding> = self.of(kinds).collect();
            if rows.is_empty() {
                continue;
            }
            out.push_str(heading);
            for (rank, finding) in rows.iter().take(cap).enumerate() {
                out.push_str(&finding.markdown_row(rank + 1));
            }
            if let (Some(what), true) = (more, rows.len() > cap) {
                let _ = writeln!(out, "\n…and {} more {what}.", rows.len() - cap);
            }
            out.push('\n');
        }
        if self.verdict == Verdict::Clean {
            out.push_str("No findings: deterministic planes identical, timing within noise.\n\n");
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
        diff.findings.iter().all(|f| matches!(f, Finding::Span(_)))
    }

    fn drift(diff: &ReportDiff) -> Vec<&ScenarioDrift> {
        diff.findings
            .iter()
            .filter_map(|f| match f {
                Finding::Drift(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    fn spans(diff: &ReportDiff) -> Vec<&SpanDelta> {
        diff.findings
            .iter()
            .filter_map(|f| match f {
                Finding::Span(s) => Some(s),
                _ => None,
            })
            .collect()
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
        assert!(spans(&diff).is_empty());
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
        assert_eq!(drift(&diff)[0].scenario, "marine");
        assert_eq!(drift(&diff)[0].magnitude, 480);
        assert_eq!(drift(&diff)[1].scenario, "desert");
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
        let [Finding::Histogram(h)] = diff.findings.as_slice() else {
            panic!("one histogram finding, got {:?}", diff.findings);
        };
        assert_eq!(h.key, "score/mape");
        assert_eq!(h.l1, 1);
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
        let [Finding::Label(change)] = diff.findings.as_slice() else {
            panic!("one label finding, got {:?}", diff.findings);
        };
        assert_eq!(change.before, None);
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
        assert_eq!(spans(&diff)[0].path, "fleet/simulate");
        assert!(!spans(&diff)[0].regressed);
        // 5× regresses.
        let diff = ReportDiff::compute(&base, &with_span(40_000_000), &config);
        assert_eq!(diff.verdict, Verdict::Regressed);
        assert!(spans(&diff)[0].regressed);
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

    #[test]
    fn top_counter_deltas_are_the_largest_moves() {
        let before = report_with(&[], "desert", 960);
        let mut after = before.clone();
        // The largest move sorts last by key; `c/…` and `d/…` tie on |Δ|.
        after.ledger.count_scenario("desert", "a/first", 1);
        after.ledger.count_scenario("desert", "b/second", 2);
        after.ledger.count_scenario("desert", "d/tied", 5);
        after.ledger.count_scenario("desert", "c/tied", 5);
        after
            .ledger
            .count_scenario("desert", "slots/processed", 480);
        let diff = ReportDiff::compute(&before, &after, &DiffConfig::default());
        let keys: Vec<&str> = drift(&diff)[0]
            .deltas
            .iter()
            .map(|d| d.key.as_str())
            .collect();
        assert_eq!(
            keys,
            ["slots/processed", "c/tied", "d/tied", "b/second", "a/first"]
        );
        assert!(diff
            .render_markdown()
            .contains("| 1 | desert | 493 | `slots/processed` +480, `c/tied` +5, `d/tied` +5 |"));
    }

    #[test]
    fn values_near_u64_max_from_a_report_file_diff_exactly() {
        let report = |jobs: u64, misses: u64, bucket: u64| {
            let text = format!(
                r#"{{"schema": "fleet-run-report/2", "ledger": {{"counters": {{"jobs/evaluated": {jobs}, "cache/job_misses": {misses}}}, "gauges": {{}}, "histograms": {{"score/mape": {{"zeros": 0, "buckets": {{"0": {bucket}, "1": 1}}}}}}, "labels": {{}}, "scenarios": {{"desert": {{"jobs/evaluated": {jobs}, "cache/job_misses": {misses}, "slots/processed": {jobs}}}}}}}, "wall_ns": {jobs}, "spans": {{"name": "run", "total_ns": 0, "self_ns": 0, "count": 0, "children": []}}, "scenario_top": []}}"#
            );
            RunReport::from_json_str(&text).expect("report parses")
        };
        // 0 → 10^19 and 5·10^18 → 10^19: Δ does not fit an i64, the
        // second subtraction overflowed one, and the scenario's |Δ| sum
        // (2.5·10^19) overflows a u64. A bucket of 2^62 overflowed the sparkline's
        // scaling.
        let before = report(0, 5_000_000_000_000_000_000, 1);
        let after = report(
            10_000_000_000_000_000_000,
            10_000_000_000_000_000_000,
            1 << 62,
        );
        let diff = ReportDiff::compute(&before, &after, &DiffConfig::default());
        let text = diff.render_text();
        assert!(text.contains("(+10000000000000000000)"), "{text}");
        assert!(text.contains("(+5000000000000000000)"), "{text}");
        assert_eq!(drift(&diff)[0].magnitude, u64::MAX, "saturates");
        assert!(diff
            .render_markdown()
            .contains("`jobs/evaluated` +10000000000000000000"));
        assert!(diff.to_json().render_pretty().contains("\"regressed\""));
        let path = std::env::temp_dir().join(format!(
            "fleet_obs_diff_large_values_{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        crate::archive::RunArchive::append(&path, "small", &before).unwrap();
        crate::archive::RunArchive::append(&path, "large", &after).unwrap();
        let trend = crate::archive::RunArchive::load(&path)
            .unwrap()
            .trend_text(2);
        let _ = std::fs::remove_file(&path);
        assert!(trend.contains("▁█"), "{trend}");
    }
}
