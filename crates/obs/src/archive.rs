//! The run archive: one JSONL line per archived report.
//!
//! A [`RunArchive`] is the trend store behind `fleet_report archive`:
//! each line is `{"run_id": ..., "report": ...}` rendered compactly,
//! oldest first, diff-friendly in version control. Run ids are
//! caller-supplied (a date, a commit hash, a CI build number) and must
//! be unique within one archive — appending a duplicate id is an
//! error, because a trend with two points at the same x tells no
//! story.
//!
//! Writes are crash-safe: `append` rewrites the whole file through
//! [`crate::fsio::write_atomic`] (temp + fsync + rename), so a crash
//! mid-append leaves the previous archive intact rather than a torn
//! final line. Reads still tolerate a torn *final* line — an archive
//! written by an older build, or by anything that died between
//! `write` and `rename` on a non-atomic filesystem — by dropping it
//! and reporting it in [`RunArchive::truncated`]; corruption anywhere
//! *before* the final line still fails the whole load, because a
//! trend built on a half-read archive lies.

use crate::fsio;
use crate::json::Json;
use crate::report::RunReport;
use crate::spans::format_ns;
use std::path::Path;

/// One archived run.
#[derive(Clone, Debug, PartialEq)]
pub struct ArchiveEntry {
    /// Caller-supplied key (commit, date, build number…).
    pub run_id: String,
    pub report: RunReport,
}

/// A torn final line dropped (and reported) by [`RunArchive::load`].
#[derive(Clone, Debug, PartialEq)]
pub struct TruncatedTail {
    /// 1-based line number of the dropped line.
    pub line: usize,
    /// Why it failed to parse (includes the byte offset within the
    /// line for JSON-level failures).
    pub error: String,
}

/// An in-memory view of a JSONL archive file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunArchive {
    /// Entries in file (append) order: oldest first.
    pub entries: Vec<ArchiveEntry>,
    /// Present when the final line was torn and dropped; the entries
    /// before it are intact. The next `append` rewrites the file and
    /// discards the torn tail for good.
    pub truncated: Option<TruncatedTail>,
}

/// Counters the trend table tracks per run.
const TREND_COUNTERS: [&str; 4] = [
    "jobs/evaluated",
    "slots/processed",
    "cache/job_hits",
    "synth/trace_generations",
];

fn validate_run_id(run_id: &str) -> Result<(), String> {
    if run_id.is_empty() {
        return Err("archive run id must not be empty".to_string());
    }
    if run_id.contains('\n') || run_id.contains('\r') {
        return Err("archive run id must not contain newlines".to_string());
    }
    Ok(())
}

impl RunArchive {
    /// An empty archive.
    pub fn new() -> RunArchive {
        RunArchive::default()
    }

    /// Parses one JSONL line into an entry. The error string omits
    /// line context (the caller adds it) but keeps byte offsets from
    /// the JSON layer.
    fn parse_line(line: &str) -> Result<ArchiveEntry, String> {
        let value = Json::parse(line)?;
        let run_id = value.req_str("run_id")?.to_string();
        let report = RunReport::from_json(value.req("report")?)
            .map_err(|err| format!("({run_id:?}): {err}"))?;
        Ok(ArchiveEntry { run_id, report })
    }

    /// Loads an archive file; a missing file is an empty archive (the
    /// first `append` creates it).
    ///
    /// # Errors
    ///
    /// Unreadable files, malformed lines before the tail, and
    /// duplicate run ids all fail loudly — a trend built on a
    /// half-read archive lies. The one tolerated defect is a torn
    /// *final* line (a crash mid-append under a non-atomic writer):
    /// it is dropped and reported via [`RunArchive::truncated`].
    pub fn load(path: &Path) -> Result<RunArchive, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
                return Ok(RunArchive::new());
            }
            Err(err) => return Err(format!("cannot read archive {}: {err}", path.display())),
        };
        let lines: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .filter(|(_, line)| !line.trim().is_empty())
            .collect();
        let mut archive = RunArchive::new();
        for (ordinal, &(number, line)) in lines.iter().enumerate() {
            let entry = match Self::parse_line(line) {
                Ok(entry) => entry,
                Err(err) if ordinal + 1 == lines.len() => {
                    archive.truncated = Some(TruncatedTail {
                        line: number + 1,
                        error: err,
                    });
                    break;
                }
                Err(err) => return Err(format!("archive line {}: {err}", number + 1)),
            };
            if archive.entries.iter().any(|e| e.run_id == entry.run_id) {
                return Err(format!(
                    "archive line {}: duplicate run id {:?}",
                    number + 1,
                    entry.run_id
                ));
            }
            archive.entries.push(entry);
        }
        Ok(archive)
    }

    /// Appends one report under `run_id`, creating the file if needed.
    ///
    /// The whole file is rewritten through the crash-safe
    /// temp+fsync+rename path, so a crash here leaves the previous
    /// archive intact. If the existing file carried a torn final
    /// line, the rewrite drops it for good (the intact entries are
    /// preserved).
    ///
    /// # Errors
    ///
    /// Rejects invalid ids, ids already present in the file, and I/O
    /// failures; on error the existing file is untouched.
    pub fn append(path: &Path, run_id: &str, report: &RunReport) -> Result<(), String> {
        validate_run_id(run_id)?;
        let existing = RunArchive::load(path)?;
        if existing.entries.iter().any(|e| e.run_id == run_id) {
            return Err(format!("archive already holds run id {run_id:?}"));
        }
        let mut text = String::new();
        for entry in &existing.entries {
            text.push_str(
                &Json::obj([
                    ("run_id", Json::Str(entry.run_id.clone())),
                    ("report", entry.report.to_json()),
                ])
                .render(),
            );
            text.push('\n');
        }
        text.push_str(
            &Json::obj([
                ("run_id", Json::Str(run_id.to_string())),
                ("report", report.to_json()),
            ])
            .render(),
        );
        text.push('\n');
        fsio::write_atomic_str(path, &text).map_err(|err| format!("cannot write archive: {err}"))
    }

    /// The last `n` entries, oldest first.
    pub fn last(&self, n: usize) -> &[ArchiveEntry] {
        let start = self.entries.len().saturating_sub(n);
        &self.entries[start..]
    }

    /// A trend table plus per-metric sparklines over the last `n`
    /// runs (oldest first, so trends read left to right).
    pub fn trend_text(&self, n: usize) -> String {
        use std::fmt::Write as _;
        let window = self.last(n);
        if window.is_empty() {
            return "archive is empty\n".to_string();
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>12} {:>14} {:>14} {:>12} {:>10}",
            "run", "wall", "jobs", "slots", "cache hits", "cold synth"
        );
        for entry in window {
            let ledger = &entry.report.ledger;
            let _ = writeln!(
                out,
                "{:<24} {:>12} {:>14} {:>14} {:>12} {:>10}",
                entry.run_id,
                format_ns(entry.report.wall_ns),
                ledger.counter("jobs/evaluated"),
                ledger.counter("slots/processed"),
                ledger.counter("cache/job_hits"),
                ledger.counter("synth/trace_generations"),
            );
        }
        let _ = writeln!(out);
        let spark = |values: &[u64]| -> String {
            const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
            // Widened: a counter from a report file may be near 2^64.
            let max = u128::from(values.iter().copied().max().unwrap_or(0).max(1));
            values
                .iter()
                .map(|&v| {
                    GLYPHS[(u128::from(v) * (GLYPHS.len() as u128 - 1)).div_ceil(max) as usize]
                })
                .collect()
        };
        let walls: Vec<u64> = window.iter().map(|e| e.report.wall_ns).collect();
        let _ = writeln!(out, "{:<24} {}", "wall trend", spark(&walls));
        for key in TREND_COUNTERS {
            let values: Vec<u64> = window
                .iter()
                .map(|e| e.report.ledger.counter(key))
                .collect();
            if values.iter().any(|&v| v > 0) {
                let _ = writeln!(out, "{key:<24} {}", spark(&values));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Ledger;

    fn report(jobs: u64) -> RunReport {
        let mut ledger = Ledger::new();
        ledger.count("jobs/evaluated", jobs);
        ledger.count("slots/processed", jobs * 96);
        RunReport {
            ledger,
            wall_ns: jobs * 1000,
            ..RunReport::empty()
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "fleet_obs_archive_{name}_{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn append_load_round_trips_in_order() {
        let path = temp_path("roundtrip");
        RunArchive::append(&path, "run-1", &report(4)).unwrap();
        RunArchive::append(&path, "run-2", &report(8)).unwrap();
        RunArchive::append(&path, "run-3", &report(6)).unwrap();
        let archive = RunArchive::load(&path).unwrap();
        assert_eq!(archive.entries.len(), 3);
        assert_eq!(archive.entries[0].run_id, "run-1");
        assert_eq!(archive.entries[2].run_id, "run-3");
        assert_eq!(archive.entries[1].report, report(8));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicate_and_malformed_run_ids_are_rejected() {
        let path = temp_path("dupes");
        RunArchive::append(&path, "run-1", &report(4)).unwrap();
        assert!(RunArchive::append(&path, "run-1", &report(5)).is_err());
        assert!(RunArchive::append(&path, "", &report(5)).is_err());
        assert!(RunArchive::append(&path, "two\nlines", &report(5)).is_err());
        // The failed appends left the file untouched.
        assert_eq!(RunArchive::load(&path).unwrap().entries.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_an_empty_archive_and_mid_file_garbage_fails() {
        let path = temp_path("missing");
        assert_eq!(RunArchive::load(&path).unwrap().entries.len(), 0);
        // Garbage *before* intact lines is corruption, not a torn
        // tail: the whole load fails.
        RunArchive::append(&path, "run-1", &report(4)).unwrap();
        let good = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, format!("not json\n{good}")).unwrap();
        assert!(RunArchive::load(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_dropped_and_reported() {
        let path = temp_path("torn");
        RunArchive::append(&path, "run-1", &report(4)).unwrap();
        RunArchive::append(&path, "run-2", &report(8)).unwrap();
        // Simulate a crash mid-append: a half-written final line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"run_id\": \"run-3\", \"repo");
        std::fs::write(&path, &text).unwrap();

        let archive = RunArchive::load(&path).unwrap();
        assert_eq!(archive.entries.len(), 2, "intact entries survive");
        let tail = archive.truncated.as_ref().expect("tail reported");
        assert_eq!(tail.line, 3);
        assert!(tail.error.contains("at byte"), "{}", tail.error);

        // The next append heals the file: the torn tail is gone and
        // the archive parses clean.
        RunArchive::append(&path, "run-3", &report(6)).unwrap();
        let healed = RunArchive::load(&path).unwrap();
        assert_eq!(healed.entries.len(), 3);
        assert!(healed.truncated.is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trend_renders_last_n_with_sparklines() {
        let mut archive = RunArchive::new();
        for i in 1..=5u64 {
            archive.entries.push(ArchiveEntry {
                run_id: format!("run-{i}"),
                report: report(i * 3),
            });
        }
        let text = archive.trend_text(3);
        assert!(!text.contains("run-2"), "window holds only the last 3");
        assert!(text.contains("run-3"));
        assert!(text.contains("run-5"));
        assert!(text.contains("jobs/evaluated"));
        assert!(text.contains('█'), "sparkline rendered");
        assert_eq!(RunArchive::new().trend_text(3), "archive is empty\n");
    }
}
