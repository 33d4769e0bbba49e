//! The machine-readable run report: both observability planes in one
//! JSON document.
//!
//! A [`RunReport`] bundles the deterministic [`Ledger`] with the
//! timing plane (wall time, span tree, per-scenario ranking). The
//! report as a whole is therefore *not* byte-deterministic — it exists
//! for humans and dashboards, not for golden pins. Anything that needs
//! byte-stability should read `report.ledger` (or
//! `Collector::ledger()`) alone.

use crate::json::Json;
use crate::ledger::Ledger;
use crate::spans::{format_ns, ScenarioTiming, SpanNode};

/// The report schema (`/2`: the ledger carries histograms).
const SCHEMA: &str = "fleet-run-report/2";

/// One run's full observability output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// The deterministic plane.
    pub ledger: Ledger,
    /// Wall time from collector start to report assembly.
    pub wall_ns: u64,
    /// Aggregated phase tree (root is the synthetic `run` node).
    pub spans: SpanNode,
    /// Scenarios ranked by span time, heaviest first.
    pub scenario_top: Vec<ScenarioTiming>,
}

impl RunReport {
    /// The report of a collector that never recorded.
    pub fn empty() -> RunReport {
        RunReport {
            ledger: Ledger::new(),
            wall_ns: 0,
            spans: SpanNode {
                name: "run".to_string(),
                ..SpanNode::default()
            },
            scenario_top: Vec::new(),
        }
    }

    /// JSON form: `{schema, ledger, wall_ns, spans, scenario_top}`,
    /// tagged `fleet-run-report/2` (the ledger carries its `histograms`
    /// section).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(SCHEMA.to_string())),
            ("ledger", self.ledger.to_json()),
            ("wall_ns", Json::Num(self.wall_ns as f64)),
            ("spans", self.spans.to_json()),
            (
                "scenario_top",
                Json::Arr(
                    self.scenario_top
                        .iter()
                        .map(ScenarioTiming::to_json)
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the JSON document.
    pub fn to_json_string(&self) -> String {
        self.to_json().render_pretty()
    }

    /// Parses a report back from JSON.
    ///
    /// # Errors
    ///
    /// Rejects any schema tag but `fleet-run-report/2` (naming the tag
    /// it found) and structurally invalid sections, so a consumer (e.g.
    /// the CI report check) fails loudly instead of reading half a
    /// document.
    pub fn from_json(value: &Json) -> Result<RunReport, String> {
        let schema = value.req_str("schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported run-report schema {schema:?}"));
        }
        let scenario_top = match value.req("scenario_top")? {
            Json::Arr(items) => items
                .iter()
                .map(ScenarioTiming::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("report field \"scenario_top\" must be an array".to_string()),
        };
        Ok(RunReport {
            ledger: Ledger::from_json(value.req("ledger")?)?,
            wall_ns: value.req_index("wall_ns")?,
            spans: SpanNode::from_json(value.req("spans")?)?,
            scenario_top,
        })
    }

    /// Parses a report from JSON text.
    pub fn from_json_str(text: &str) -> Result<RunReport, String> {
        Self::from_json(&Json::parse(text)?)
    }

    /// Writes the rendered report crash-safely (temp + fsync +
    /// rename via [`crate::fsio::write_atomic`]): a kill mid-write
    /// leaves the previous report (or nothing), never a torn file.
    pub fn write_atomic(&self, path: &std::path::Path) -> Result<(), String> {
        crate::fsio::write_atomic_str(path, &self.to_json_string())
            .map_err(|err| format!("cannot write report: {err}"))
    }

    /// Human-readable summary: wall time, span tree, scenario ranking,
    /// then the ledger.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "run report (wall {})", format_ns(self.wall_ns));
        let _ = writeln!(out, "\nphase spans:");
        out.push_str(&self.spans.render_text());
        if !self.scenario_top.is_empty() {
            let _ = writeln!(out, "\nheaviest scenarios:");
            for entry in &self.scenario_top {
                let _ = writeln!(
                    out,
                    "  {:<32} {:>12}  ({} spans)",
                    entry.scenario,
                    format_ns(entry.total_ns),
                    entry.spans
                );
            }
        }
        let _ = writeln!(out, "\nledger:");
        for line in self.ledger.render_text().lines() {
            let _ = writeln!(out, "  {line}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let mut ledger = Ledger::new();
        ledger.count("jobs/evaluated", 12);
        ledger.count_scenario("desert", "slots/processed", 96);
        ledger.label("admission/trace_budget_source", "bounded");
        let spans = crate::spans::build_tree(&[crate::spans::SpanRecord {
            path: "fleet/simulate".to_string(),
            scenario: Some("desert".to_string()),
            dur_ns: 1234,
        }]);
        RunReport {
            ledger,
            wall_ns: 5678,
            spans,
            scenario_top: vec![ScenarioTiming {
                scenario: "desert".to_string(),
                total_ns: 1234,
                spans: 1,
            }],
        }
    }

    #[test]
    fn report_json_round_trips() {
        let report = sample();
        let back = RunReport::from_json_str(&report.to_json_string()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn report_rejects_unknown_schema() {
        let mut json = sample().to_json();
        if let Json::Obj(pairs) = &mut json {
            pairs[0].1 = Json::Str("fleet-run-report/999".to_string());
        }
        assert!(RunReport::from_json(&json).is_err());
    }

    #[test]
    fn empty_report_round_trips_and_renders() {
        let report = RunReport::empty();
        let back = RunReport::from_json_str(&report.to_json_string()).unwrap();
        assert_eq!(back, report);
        assert!(report.render_text().contains("wall 0ns"));
    }

    #[test]
    fn render_text_covers_spans_scenarios_and_ledger() {
        let text = sample().render_text();
        assert!(text.contains("phase spans:"));
        assert!(text.contains("simulate"));
        assert!(text.contains("heaviest scenarios:"));
        assert!(text.contains("desert"));
        assert!(text.contains("jobs/evaluated: 12"));
    }
}
