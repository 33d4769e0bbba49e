//! `fleet_report`: the consumption CLI over run reports — diffing,
//! findings, the run archive, and chrome-trace export.
//!
//! ```text
//! # structural diff with a machine verdict (exit 3 on regressed)
//! cargo run --release --example fleet_report -- diff before.json after.json
//! cargo run --release --example fleet_report -- diff a.json b.json \
//!     --wall-noise 0.25 --wall-min-ms 1 --wall-regress 50
//!
//! # ranked markdown findings report
//! cargo run --release --example fleet_report -- findings a.json b.json --out findings.md
//!
//! # append-only JSONL archive + trend over the last N runs
//! cargo run --release --example fleet_report -- archive append runs.jsonl run-42 report.json
//! cargo run --release --example fleet_report -- archive trend runs.jsonl --last 10
//!
//! # chrome-trace JSON for about:tracing / Perfetto
//! cargo run --release --example fleet_report -- trace report.json --out trace.json
//! ```
//!
//! Report files are `fleet-run-report/2` documents; a file of any other
//! schema fails to load (exit 3).
//!
//! Exit codes follow the workspace convention (documented in
//! `fleet_harness::exit`; this crate sits below the harness, so the
//! values are spelled out): 0 clean or drifted (drift is reported, not
//! fatal), 3 regressed or failed — the code the CI regression sentinel
//! traps — and 64 for usage errors.

use fleet_obs::{chrome_trace_string, DiffConfig, ReportDiff, RunArchive, RunReport, Verdict};
use std::path::Path;

/// Workspace exit codes (see `fleet_harness::exit`).
const EXIT_FAILED: i32 = 3;
const EXIT_USAGE: i32 = 64;

/// Loads a run report.
fn load_report(path: &str) -> Result<RunReport, String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
    RunReport::from_json_str(&text).map_err(|err| format!("{path}: {err}"))
}

/// The value of threshold flag `name`: a finite, non-negative number.
/// A NaN ratio would make every comparison false and pass any blow-up
/// as clean, so a bad value is a usage error, never a default.
fn threshold(name: &str, value: Option<String>) -> Result<f64, String> {
    let value = value.ok_or_else(|| format!("usage: {name} needs a value"))?;
    match value.parse::<f64>() {
        Ok(number) if number.is_finite() && number >= 0.0 => Ok(number),
        _ => Err(format!(
            "usage: {name} needs a finite, non-negative number, got {value:?}"
        )),
    }
}

fn parse_diff_config(args: &mut Vec<String>) -> Result<DiffConfig, String> {
    let mut config = DiffConfig::default();
    let mut rest = Vec::new();
    let mut iter = args.drain(..);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--wall-noise" => config.wall_noise_ratio = threshold(&arg, iter.next())?,
            "--wall-min-ms" => config.wall_min_ns = (threshold(&arg, iter.next())? * 1e6) as u64,
            "--wall-regress" => config.wall_regress_ratio = threshold(&arg, iter.next())?,
            _ => rest.push(arg),
        }
    }
    drop(iter);
    *args = rest;
    Ok(config)
}

/// Pulls `--flag VALUE` out of `args`, if present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(at) if at + 1 < args.len() => {
            args.remove(at);
            Ok(Some(args.remove(at)))
        }
        Some(_) => Err(format!("usage: {flag} needs a value")),
    }
}

fn cmd_diff(mut args: Vec<String>, findings: bool) -> Result<i32, String> {
    let config = parse_diff_config(&mut args)?;
    let out = take_flag(&mut args, "--out")?;
    let json_out = take_flag(&mut args, "--json")?;
    let [before_path, after_path] = args.as_slice() else {
        return Err("usage: diff|findings BEFORE AFTER [--wall-noise R] [--wall-min-ms N] [--wall-regress R] [--out PATH] [--json PATH]".to_string());
    };
    let before = load_report(before_path)?;
    let after = load_report(after_path)?;
    let diff = ReportDiff::compute(&before, &after, &config);
    if findings {
        let markdown = diff.render_markdown();
        match &out {
            Some(path) => {
                fleet_obs::fsio::write_atomic_str(Path::new(path), &markdown)?;
                eprintln!("wrote findings to {path}");
            }
            None => print!("{markdown}"),
        }
    } else {
        print!("{}", diff.render_text());
        if let Some(path) = &out {
            fleet_obs::fsio::write_atomic_str(Path::new(path), &diff.render_markdown())?;
            eprintln!("wrote findings to {path}");
        }
    }
    if let Some(path) = &json_out {
        fleet_obs::fsio::write_atomic_str(Path::new(path), &diff.to_json().render_pretty())?;
        eprintln!("wrote diff JSON to {path}");
    }
    Ok(match diff.verdict {
        Verdict::Regressed => EXIT_FAILED,
        Verdict::Clean | Verdict::Drifted => 0,
    })
}

fn cmd_archive(mut args: Vec<String>) -> Result<i32, String> {
    let last = take_flag(&mut args, "--last")?
        .map(|n| {
            n.parse::<usize>()
                .map_err(|err| format!("usage: --last: {err}"))
        })
        .transpose()?
        .unwrap_or(10);
    match args.as_slice() {
        [sub, file, run_id, report_path] if sub == "append" => {
            let report = load_report(report_path)?;
            RunArchive::append(Path::new(file), run_id, &report)?;
            eprintln!("archived {run_id} into {file}");
            Ok(0)
        }
        [sub, file] if sub == "trend" => {
            let archive = RunArchive::load(Path::new(file))?;
            print!("{}", archive.trend_text(last));
            Ok(0)
        }
        _ => Err(
            "usage: archive append FILE RUN_ID REPORT.json | archive trend FILE [--last N]"
                .to_string(),
        ),
    }
}

fn cmd_trace(mut args: Vec<String>) -> Result<i32, String> {
    let out = take_flag(&mut args, "--out")?;
    let [report_path] = args.as_slice() else {
        return Err("usage: trace REPORT.json [--out PATH]".to_string());
    };
    let report = load_report(report_path)?;
    let trace = chrome_trace_string(&report);
    match &out {
        Some(path) => {
            fleet_obs::fsio::write_atomic_str(Path::new(path), &trace)?;
            eprintln!("wrote chrome trace to {path} (open in about:tracing or Perfetto)");
        }
        None => print!("{trace}"),
    }
    Ok(0)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: fleet_report diff|findings|archive|trace …");
        std::process::exit(EXIT_USAGE);
    }
    let command = args.remove(0);
    let result = match command.as_str() {
        "diff" => cmd_diff(args, false),
        "findings" => cmd_diff(args, true),
        "archive" => cmd_archive(args),
        "trace" => cmd_trace(args),
        other => Err(format!("usage: unknown command {other:?}")),
    };
    let code = match result {
        Ok(code) => code,
        // The cmd functions signal bad command lines with "usage: …"
        // messages; everything else is a runtime failure.
        Err(e) if e.starts_with("usage:") => {
            eprintln!("fleet_report: {e}");
            EXIT_USAGE
        }
        Err(e) => {
            eprintln!("fleet_report: {e}");
            EXIT_FAILED
        }
    };
    std::process::exit(code);
}
