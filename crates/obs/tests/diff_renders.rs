//! Byte pins of the three `ReportDiff` renders.
//!
//! Two fixture pairs, both built from the committed `HARNESS_SMOKE.json`:
//!
//! - the report against itself, which renders the clean lines;
//! - the report against a copy perturbed in code, which moves every
//!   section (counters, gauges, labels, histograms, 25 drifting
//!   scenarios, 20 span paths) far enough to reach the text view's
//!   10-row caps, the markdown's 20- and 15-row caps and both
//!   "… and N more" lines.
//!
//! Span trees and wall times are built here, never taken from a live
//! run, so the pins do not depend on the host's speed.
//!
//! The pinned files live in `tests/diff_renders/`. To rewrite them
//! after a deliberate change to a render, run
//! `BLESS=1 cargo test -p fleet_obs --test diff_renders` and review
//! the diff of the pinned files.

use fleet_obs::json::Json;
use fleet_obs::{build_tree, DiffConfig, ReportDiff, RunReport, SpanRecord, Verdict};
use std::path::PathBuf;

const MS: u64 = 1_000_000;

fn harness_smoke() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../HARNESS_SMOKE.json");
    let text = std::fs::read_to_string(path).expect("read HARNESS_SMOKE.json");
    Json::parse(&text).expect("parse HARNESS_SMOKE.json")
}

/// Sets (`Some`) or removes (`None`) the field at `path`, creating
/// the objects on the way.
fn set(doc: &mut Json, path: &[&str], value: Option<Json>) {
    let Json::Obj(pairs) = doc else {
        panic!("{path:?} does not lead through objects");
    };
    let (key, rest) = path.split_first().expect("non-empty path");
    let at = pairs.iter().position(|(k, _)| k == key);
    match (rest.is_empty(), at, value) {
        (true, Some(at), None) => {
            pairs.remove(at);
        }
        (true, Some(at), Some(value)) => pairs[at].1 = value,
        (true, None, Some(value)) => pairs.push((key.to_string(), value)),
        (true, None, None) => panic!("no field {key:?} to remove"),
        (false, Some(at), value) => set(&mut pairs[at].1, rest, value),
        (false, None, value) => {
            pairs.push((key.to_string(), Json::Obj(Vec::new())));
            let last = pairs.len() - 1;
            set(&mut pairs[last].1, rest, value);
        }
    }
}

fn num(n: u64) -> Option<Json> {
    Some(Json::Num(n as f64))
}

fn spans(durations_ms: &[(&str, f64)]) -> fleet_obs::SpanNode {
    let records: Vec<SpanRecord> = durations_ms
        .iter()
        .filter(|(_, ms)| *ms > 0.0)
        .map(|(path, ms)| SpanRecord {
            path: path.to_string(),
            scenario: None,
            dur_ns: (ms * MS as f64) as u64,
        })
        .collect();
    build_tree(&records)
}

fn report(doc: &Json, wall_ns: u64, durations_ms: &[(&str, f64)]) -> RunReport {
    let mut report = RunReport::from_json(doc).expect("fixture is a run report");
    report.wall_ns = wall_ns;
    report.spans = spans(durations_ms);
    report
}

/// The phase tree both clean sides share, in milliseconds.
const CLEAN_BEFORE: &[(&str, f64)] = &[
    ("fleet", 103.9),
    ("fleet/simulate", 96.0),
    ("fleet/fill", 2.6),
    ("fleet/assemble", 1.5),
    ("fleet/keys", 0.7),
];

/// Within noise (+10%) and under the floor (0.7 → 0.95 ms).
const CLEAN_AFTER: &[(&str, f64)] = &[
    ("fleet", 110.0),
    ("fleet/simulate", 105.6),
    ("fleet/fill", 2.5),
    ("fleet/assemble", 1.6),
    ("fleet/keys", 0.95),
];

/// The perturbed pair's span paths, as (path, before ms, after ms).
/// Twenty move beyond noise: the regressed ones grow past 4× with
/// both sides above the 1 ms floor; the others drift, vanish or
/// appear. Four stay put: inside the noise band or under the floor.
const PERTURBED_SPANS: &[(&str, f64, f64)] = &[
    ("fleet", 200.0, 280.0),
    ("fleet/keys", 0.7, 0.9),
    ("fleet/fill", 2.6, 2.7),
    ("fleet/assemble", 1.5, 9.0),
    ("fleet/score", 0.8, 5.0),
    ("fleet/simulate", 150.0, 210.0),
    ("fleet/simulate/u00", 10.0, 15.0),
    ("fleet/simulate/u01", 10.0, 50.5),
    ("fleet/simulate/u02", 12.0, 6.0),
    ("fleet/simulate/u03", 4.0, 0.0),
    ("fleet/simulate/u04", 0.0, 4.0),
    ("fleet/simulate/u05", 8.0, 12.0),
    ("fleet/simulate/u06", 8.0, 12.0),
    ("fleet/simulate/u07", 3.0, 20.0),
    ("fleet/simulate/u08", 20.0, 14.0),
    ("fleet/simulate/u09", 5.0, 7.5),
    ("fleet/simulate/u10", 0.4, 0.9),
    ("fleet/simulate/u11", 30.0, 18.0),
    ("fleet/simulate/u12", 6.0, 9.0),
    ("fleet/simulate/u13", 2.0, 2.1),
    ("tuner", 40.0, 70.0),
    ("tuner/round", 35.0, 140.5),
    ("tuner/search", 1.2, 2.0),
    ("harness/spawn", 9.0, 0.0),
];

fn clean_pair() -> (RunReport, RunReport) {
    let doc = harness_smoke();
    (
        report(&doc, 194_321_335, CLEAN_BEFORE),
        report(&doc, 201_000_000, CLEAN_AFTER),
    )
}

/// Every deterministic section of the smoke report, moved.
fn perturbed_doc() -> Json {
    let mut doc = harness_smoke();
    let counters = ["ledger", "counters"];
    // Run-level counters: up, down, new, gone.
    set(&mut doc, &at(&counters, "jobs/evaluated"), num(75));
    set(&mut doc, &at(&counters, "cache/job_misses"), num(12));
    set(&mut doc, &at(&counters, "harness/stall_kills"), num(2));
    set(&mut doc, &at(&counters, "harness/retries"), None);
    set(&mut doc, &at(&counters, "cache/trace_hits"), None);
    // Gauges.
    let gauges = ["ledger", "gauges"];
    set(&mut doc, &at(&gauges, "harness/max_attempts"), num(6));
    set(
        &mut doc,
        &at(&gauges, "admission/trace_budget_bytes"),
        num(1 << 20),
    );
    set(&mut doc, &at(&gauges, "harness/stall_ms"), num(3000));
    // Labels: changed, gone, new.
    let labels = ["ledger", "labels"];
    set(
        &mut doc,
        &at(&labels, "harness/outcome"),
        Some(Json::Str("degraded".to_string())),
    );
    set(
        &mut doc,
        &at(&labels, "admission/trace_budget_source"),
        None,
    );
    set(
        &mut doc,
        &at(&labels, "tuner/mode"),
        Some(Json::Str("smoke".to_string())),
    );
    // Scenarios: one gone, one whose largest move sorts last by key,
    // one with equal-|Δ| pairs, and 22 new ones with tied magnitudes.
    set(&mut doc, &["ledger", "scenarios", "arctic-winter"], None);
    let marine = ["ledger", "scenarios", "marine-fog"];
    set(&mut doc, &at(&marine, "bank/banked_candidates"), num(3));
    set(&mut doc, &at(&marine, "faults/injected_specs"), num(1));
    set(&mut doc, &at(&marine, "jobs/fresh"), num(17));
    set(&mut doc, &at(&marine, "slots/processed"), num(9360));
    let desert = ["ledger", "scenarios", "desert-clear-sky"];
    set(&mut doc, &at(&desert, "synth/normal_draws"), num(48834));
    set(&mut doc, &at(&desert, "synth/keystream_blocks"), num(12414));
    set(&mut doc, &at(&desert, "jobs/fresh"), num(16));
    set(&mut doc, &at(&desert, "merge/merged_tables"), num(0));
    for i in 0..22u64 {
        let name = format!("gen-{i:02}");
        let scenario = ["ledger", "scenarios", name.as_str()];
        let days = (i * 7) % 11 + 1;
        set(&mut doc, &at(&scenario, "jobs/fresh"), num(3));
        set(&mut doc, &at(&scenario, "slots/processed"), num(96 * days));
        set(
            &mut doc,
            &at(&scenario, "synth/normal_draws"),
            num(400 * days),
        );
    }
    doc
}

/// `section` extended by `key`.
fn at<'a>(section: &[&'a str], key: &'a str) -> Vec<&'a str> {
    let mut path = section.to_vec();
    path.push(key);
    path
}

fn perturbed_pair() -> (RunReport, RunReport) {
    let before_spans: Vec<(&str, f64)> = PERTURBED_SPANS.iter().map(|s| (s.0, s.1)).collect();
    let after_spans: Vec<(&str, f64)> = PERTURBED_SPANS.iter().map(|s| (s.0, s.2)).collect();
    let before = report(&harness_smoke(), 194_321_335, &before_spans);
    let mut after = report(&perturbed_doc(), 388_000_000, &after_spans);
    // Histograms: a moved bucket, a new zero, a new distribution.
    after.ledger.observe("score/mape", 0.4);
    after.ledger.observe("fleet/unit_slots", 0.0);
    for candidates in [8.0, 8.0, 12.0, 24.0, 96.0] {
        after.ledger.observe("tuner/candidates", candidates);
    }
    (before, after)
}

fn pin_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/diff_renders")
}

/// Compares `actual` with the pinned file, or rewrites the file when
/// `BLESS` is set.
fn check_pin(name: &str, actual: &str) {
    let path = pin_dir().join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(pin_dir()).expect("create pin dir");
        std::fs::write(&path, actual).expect("write pin");
        return;
    }
    let pinned = std::fs::read_to_string(&path)
        .unwrap_or_else(|err| panic!("cannot read pin {}: {err}", path.display()));
    if pinned != actual {
        let line = pinned
            .lines()
            .zip(actual.lines())
            .position(|(p, a)| p != a)
            .unwrap_or_else(|| pinned.lines().count().min(actual.lines().count()));
        panic!(
            "{name} differs from its pin at line {}:\n  pinned: {:?}\n  actual: {:?}",
            line + 1,
            pinned.lines().nth(line),
            actual.lines().nth(line)
        );
    }
}

fn check_renders(stem: &str, diff: &ReportDiff) {
    check_pin(&format!("{stem}.txt"), &diff.render_text());
    check_pin(&format!("{stem}.md"), &diff.render_markdown());
    check_pin(&format!("{stem}.json"), &diff.to_json().render_pretty());
}

#[test]
fn clean_pair_renders_byte_for_byte() {
    let (before, after) = clean_pair();
    let diff = ReportDiff::compute(&before, &after, &DiffConfig::default());
    assert_eq!(diff.verdict, Verdict::Clean);
    check_renders("clean", &diff);
}

#[test]
fn perturbed_pair_renders_byte_for_byte() {
    let (before, after) = perturbed_pair();
    let diff = ReportDiff::compute(&before, &after, &DiffConfig::default());
    assert_eq!(diff.verdict, Verdict::Regressed);
    check_renders("perturbed", &diff);
}

#[test]
fn perturbed_pair_reaches_every_cap() {
    let (before, after) = perturbed_pair();
    let diff = ReportDiff::compute(&before, &after, &DiffConfig::default());
    let text = diff.render_text();
    let count = |prefix: &str| text.lines().filter(|l| l.starts_with(prefix)).count();
    for prefix in ["  counter ", "  gauge ", "  label ", "  histo "] {
        assert!(count(prefix) >= 2, "{prefix:?} section moved");
    }
    // Ten drift rows plus the "… and N more" line; ten span rows.
    assert_eq!(count("  drift "), 11);
    assert!(text.contains("  drift   … and 15 more scenarios"));
    assert_eq!(count("  span "), 10);
    assert!(text.contains("← regressed"));
    let markdown = diff.render_markdown();
    assert!(markdown.contains("| 20 | "));
    assert!(!markdown.contains("| 21 | "));
    assert!(markdown.contains("…and 5 more drifting scenarios."));
    let span_rows = markdown
        .lines()
        .skip_while(|l| !l.starts_with("## Heaviest span movement"))
        .filter(|l| l.starts_with("| `"))
        .count();
    assert_eq!(span_rows, 15);
    let json = diff.to_json().render_pretty();
    let spans = Json::parse(&json).expect("diff JSON parses");
    let span_deltas = spans.get("span_deltas").and_then(Json::as_arr).unwrap();
    assert_eq!(
        span_deltas.len(),
        20,
        "under-floor and in-noise spans drop out"
    );
}
